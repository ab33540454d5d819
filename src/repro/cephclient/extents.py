"""Write-back buffers: real bytes waiting to be flushed.

Both Ceph client personalities buffer written data before pushing it to
the OSDs (write-behind). The buffer is the *only* place where file bytes
exist outside the authoritative stores, which is exactly what makes the
consistency semantics of §3.4 observable: another client reading through
the cluster sees the data only after a flush.

Buffered bytes are held **by reference**, in the same
:class:`~repro.common.chunks.ChunkMap` an OSD object is made of: every
write is kept as the immutable ``bytes`` object the caller passed (a
mutable ``bytearray`` or a view of one is snapshotted once on the way
in), in a sorted map of non-overlapping chunks; an *extent* is a maximal
run of adjacent chunks. Overwriting part of a chunk leaves views of what
survives, no copy. :meth:`ExtentBuffer.take` hands the chunks over as
:class:`~repro.common.rope.ByteRope` s, so nothing returned by this
module changes after the fact and nothing it holds can be changed from
outside.
"""

from repro.common.chunks import ChunkMap
from repro.common.errors import InvalidArgument
from repro.common.rope import ByteRope

__all__ = ["Batch", "ExtentBuffer", "WritebackBuffer"]


class ExtentBuffer(object):
    """Non-overlapping sorted byte extents of one file."""

    def __init__(self):
        # Only the chunks matter here; the map's length is not used.
        self._map = ChunkMap()
        self.dirty_bytes = 0

    def __bool__(self):
        return bool(self._map.offsets)

    def write(self, offset, data):
        """Insert ``data`` at ``offset``; later writes win over earlier."""
        if offset < 0:
            raise InvalidArgument("negative offset")
        if isinstance(data, ByteRope):
            for chunk in data.chunks:
                self.write(offset, chunk)
                offset += len(chunk)
            return
        self._map.write(offset, data)
        self.dirty_bytes = self._map.stored

    def put_back(self, extents):
        """Return extents a failed flush had taken, *under* anything
        written since: newer buffered bytes win over the returned ones."""
        newer = self.take()
        for offset, data in extents:
            self.write(offset, data)
        for offset, data in newer:
            self.write(offset, data)

    def overlay(self, offset, size, base):
        """Apply buffered extents over ``base`` (bytes read at ``offset``).

        Returns bytes of length up to max(len(base), highest buffered byte
        within the window) — buffered data may extend past the base.
        """
        base = memoryview(base)
        parts = []
        position = offset
        for start, piece in self._map.pieces(offset, offset + size):
            under = base[position - offset:start - offset]
            parts.append(under)
            parts.append(bytes(start - position - len(under)))
            parts.append(piece)
            position = start + len(piece)
        parts.append(base[position - offset:])
        return b"".join(parts)

    def covers(self, start, end):
        """True when a buffered byte lies in ``[start, end)``."""
        return bool(self._map.pieces(start, end))

    def _extent_at(self, index):
        """The extent starting at chunk ``index``: ``(start, chunk list,
        length, index of the chunk after it)``."""
        offsets, chunks = self._map.offsets, self._map.chunks
        start = end = offsets[index]
        parts = []
        while index < len(offsets) and offsets[index] == end:
            chunk = chunks[end]
            parts.append(chunk)
            end += len(chunk)
            index += 1
        return start, parts, end - start, index

    def take(self, max_bytes=None):
        """Remove and return up to ``max_bytes`` of extents, oldest offset
        first, as ``[(offset, ByteRope)]`` (whole extents; at least one).

        The ropes are the buffered chunks themselves, handed over, not
        copied.
        """
        taken = []
        budget = max_bytes if max_bytes is not None else float("inf")
        index = 0
        while index < len(self._map.offsets) and (budget > 0 or not taken):
            start, parts, length, after = self._extent_at(index)
            if length > budget and taken:
                break
            budget -= length
            taken.append((start, ByteRope(parts, length)))
            index = after
        self._map.drop_head(index)
        self.dirty_bytes = self._map.stored
        return taken

    def extents(self):
        """Snapshot of ``(offset, bytes)`` pairs without consuming them."""
        snapshot = []
        index = 0
        while index < len(self._map.offsets):
            start, parts, _length, index = self._extent_at(index)
            snapshot.append((start, b"".join(parts)))
        return snapshot

    def clear(self):
        self._map = ChunkMap()
        self.dirty_bytes = 0

    def truncate(self, size):
        """Drop buffered bytes at or beyond ``size``; returns bytes freed.

        Buffered data *below* the cut survives — truncating a file must
        not lose its remaining unflushed contents.
        """
        self._map.truncate(size)
        freed = self.dirty_bytes - self._map.stored
        self.dirty_bytes = self._map.stored
        return freed

    def max_end(self):
        """One past the highest buffered byte (0 when empty)."""
        offsets = self._map.offsets
        if not offsets:
            return 0
        return offsets[-1] + len(self._map.chunks[offsets[-1]])


class Batch(object):
    """The extents one flush took: reads overlay them until the ``sent``
    event (on the OSDs, or put back); the batch stays in flight, keeping
    the local size authoritative, until ``landed`` (its flush is done)."""

    def __init__(self, ino, extents, sim):
        self.ino = ino
        self.extents = extents  # [(offset, ByteRope)], ascending, disjoint
        self.nbytes = sum(len(data) for _offset, data in extents)
        self.end = extents[-1][0] + len(extents[-1][1])
        self._bytes = ExtentBuffer()  # the same chunks, for overlay
        for offset, data in extents:
            self._bytes.write(offset, data)
        self.sent, self.landed = sim.event(), sim.event()

    def overlay(self, offset, size, base):
        if self.sent.triggered:
            return base
        return self._bytes.overlay(offset, size, base)

    def meets(self, extents):
        """True while being sent with a byte of ``extents`` on board."""
        return not self.sent.triggered and any(
            self._bytes.covers(offset, offset + len(data))
            for offset, data in extents
        )


class WritebackBuffer(object):
    """One mount's unflushed bytes: per inode a dirty :class:`ExtentBuffer`
    and the in-flight batches, oldest first. A take waits while a byte it
    would hand out is still being sent (``wait_on_page_writeback``), so an
    inode's bytes reach the OSDs newest last. A wait with nothing to wait
    for yields nothing. ``charge`` gets every change of the dirty total;
    ``flush_lock(ino)`` is the mutex through which a client's flushes and
    truncates own an inode (the lib client's flush mutex), if any."""

    def __init__(self, sim, charge=None, flush_lock=None):
        self.sim = sim
        self._charge = charge
        self._flush_lock = flush_lock
        self._dirty = {}  # ino -> ExtentBuffer (empty after an empty write)
        self._inflight = {}  # ino -> [Batch], oldest first, never empty
        self._holds = {}  # ino -> [Event per truncate holding it]
        self.dirty_bytes = 0  # the sum of every dirty buffer's bytes

    def _grew(self, delta):
        if delta:
            self.dirty_bytes += delta
            if self._charge is not None:
                self._charge(delta)

    def __contains__(self, ino):
        """True while the OSDs lack some of ``ino``'s bytes."""
        return bool(self._dirty.get(ino)) or ino in self._inflight

    def dirty(self, ino):
        """The dirty :class:`ExtentBuffer` of ``ino``, or None."""
        return self._dirty.get(ino)

    def dirty_inos(self):
        """Inodes with dirty bytes, in the order they became dirty."""
        return list(self._dirty)

    def batches(self, ino):
        """The in-flight batches of ``ino``, oldest first."""
        return list(self._inflight.get(ino, ()))

    def max_end(self, ino):
        """One past the highest unflushed byte of ``ino`` (0 if none)."""
        buffer = self._dirty.get(ino)
        end = buffer.max_end() if buffer is not None else 0
        for batch in self._inflight.get(ino, ()):
            end = max(end, batch.end)
        return end

    def overlay(self, ino, offset, size, base):
        """``base``, the OSD bytes at ``offset``, with the batches still
        being sent, oldest first, and then the dirty bytes on top."""
        for batch in self._inflight.get(ino, ()):
            base = batch.overlay(offset, size, base)
        buffer = self._dirty.get(ino)
        if buffer is not None:
            base = buffer.overlay(offset, size, base)
        return base

    def _buffer(self, ino):
        buffer = self._dirty.get(ino)
        if buffer is None:
            buffer = self._dirty[ino] = ExtentBuffer()
        return buffer

    def write(self, ino, offset, data):
        buffer = self._buffer(ino)
        before = buffer.dirty_bytes
        buffer.write(offset, data)
        self._grew(buffer.dirty_bytes - before)

    def truncate(self, ino, size):
        """Drop dirty bytes at or past ``size`` (``ino`` is drained)."""
        buffer = self._dirty.get(ino)
        if buffer is not None:
            self._grew(-buffer.truncate(size))
            if not buffer:
                del self._dirty[ino]

    def forget(self, ino):
        """Drop ``ino``'s dirty bytes (unlink, after :meth:`drain`)."""
        buffer = self._dirty.pop(ino, None)
        if buffer is not None:
            self._grew(-buffer.dirty_bytes)

    def take(self, ino, max_bytes=None):
        """Generator: up to ``max_bytes`` of dirty extents as a new
        in-flight :class:`Batch` (None when nothing is dirty), once no
        truncate holds ``ino`` and no byte it hands out is being sent."""
        while True:
            if ino in self._holds:
                yield self._holds[ino][-1]
                continue
            buffer = self._dirty.get(ino)
            if not buffer:
                return None
            extents = buffer.take(max_bytes)
            busy = [batch for batch in self._inflight.get(ino, ())
                    if batch.meets(extents)]
            if not busy:
                break
            buffer.put_back(extents)  # nothing was written since
            yield busy[0].sent
        batch = Batch(ino, extents, self.sim)
        self._grew(-batch.nbytes)
        if not buffer:
            del self._dirty[ino]
        self._inflight.setdefault(ino, []).append(batch)
        return batch

    def land(self, batch):
        """The batch's flush is done: its bytes and size are out (a no-op
        once :meth:`put_back` has taken the batch back)."""
        batches = self._inflight.get(batch.ino, ())
        if batch not in batches:
            return
        batches.remove(batch)
        if not batches:
            del self._inflight[batch.ino]
        if not batch.sent.triggered:
            batch.sent.succeed()
        batch.landed.succeed()

    def put_back(self, batch):
        """A failed send goes back beneath the bytes written since (no
        batch still being sent shares a byte with it)."""
        self.land(batch)
        buffer = self._buffer(batch.ino)
        before = buffer.dirty_bytes
        buffer.put_back(batch.extents)
        self._grew(buffer.dirty_bytes - before)

    def drain(self, ino):
        """Generator: wait until no batch of ``ino`` is in flight, and no
        flush or truncate owns ``ino`` through ``flush_lock``."""
        # Waiting out the owner keeps the lib client's schedule: once the
        # bytes are forgotten, a flush that has not taken yet sends none.
        lock = self._flush_lock(ino) if self._flush_lock is not None else None
        if lock is not None and lock.locked:
            yield lock.acquire()
            lock.release()
        while ino in self._inflight:
            yield self._inflight[ino][0].landed

    def hold(self, ino):
        """Generator: hold new takes of ``ino`` until :meth:`release`, and
        :meth:`drain` it."""
        self._holds.setdefault(ino, []).append(self.sim.event())
        yield from self.drain(ino)

    def release(self, ino):
        holds = self._holds[ino]
        holds.pop().succeed()
        if not holds:
            del self._holds[ino]

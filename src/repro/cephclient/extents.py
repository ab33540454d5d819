"""Dirty extent buffers: real bytes waiting to be flushed.

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
survives, no copy. :meth:`take` hands the chunks over as
:class:`~repro.common.rope.ByteRope` s, so nothing returned by this
class changes after the fact and nothing it holds can be changed from
outside.
"""

from repro.common.chunks import ChunkMap
from repro.common.errors import InvalidArgument
from repro.common.rope import ByteRope

__all__ = ["ExtentBuffer"]


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

"""Object storage device: the Ceph OSD analogue.

Each OSD owns a ramdisk-backed object store (the testbed stores OSD data
and journal on 24 GB ramdisks) and serves a bounded number of concurrent
operations. A write is journaled before it is applied — both land on the
ramdisk, so writes pay roughly twice the device time of reads, which is
one reason the paper's write workloads exercise the backend harder.

Objects hold *real bytes*: the OSD store is the authoritative copy of all
flushed file data in the simulation. Each object is a
:class:`~repro.common.chunks.ChunkMap`: it keeps the immutable payload
chunks the client flushed *by reference*, so a flushed byte is stored
once however many replicas hold it. Replicas stay independently
corruptible because nothing is ever changed in place — a fault injected
here replaces or drops chunks of this replica's map only.

Integrity. When checksums are armed (``verify_enabled``, set by
:meth:`CephCluster.enable_integrity`), every write records a blake2b
digest per ``costs.integrity_chunk_size`` chunk of the object, bluestore
style: a partial overwrite re-digests only the chunks it touched, and a
boundary chunk whose surviving old bytes no longer match their digest is
*poisoned* rather than silently re-blessed — verification keeps failing
until repair replaces the replica. Digest bookkeeping is pure Python
dictionary work with no sim events, and it is entirely skipped when
``verify_enabled`` is False.
"""

import hashlib

from repro.common.chunks import ChunkMap
from repro.common.errors import InvalidArgument, OldEpoch, OpTimeout
from repro.hw.disk import RamDisk
from repro.sim.sync import Semaphore

__all__ = ["Osd"]

#: Marks a chunk whose old bytes failed verification during a partial
#: overwrite: its digest is unknowable without re-reading clean data, so
#: the chunk stays permanently dirty until repair rewrites the object.
_POISON = object()


class Osd(object):
    """One object storage daemon with journal + data on a ramdisk.

    An OSD can *crash* (fault injection): the daemon process dies but its
    ramdisk contents survive, exactly like an OSD process kill on the
    testbed. Requests to a crashed OSD hang until the client-side op
    timeout expires, then surface as :class:`OpTimeout` — clients report
    the failure to the monitor and resend against the surviving replicas.
    ``restart()`` brings the daemon back with its stored objects intact.
    """

    def __init__(self, sim, osd_id, costs, device=None):
        self.sim = sim
        self.osd_id = osd_id
        self.costs = costs
        self.device = device if device is not None else RamDisk(
            sim, name="osd%d.ram" % osd_id
        )
        self._slots = Semaphore(sim, costs.osd_concurrency, name="osd%d" % osd_id)
        self._objects = {}  # (ino, index) -> ChunkMap
        #: ino -> {index: None}, each in ``_objects`` insertion order
        self._by_ino = {}
        #: bumped on *every* stored-byte mutation, including the silent
        #: fault injections that deliberately leave ``_versions`` stale.
        #: Engine-level cache-invalidation hook (peek memoisation) only —
        #: never consulted by the modelled metadata paths, so injected
        #: corruption stays invisible to verification until digests catch
        #: it, exactly as before.
        self.store_epoch = 0
        #: last osdmap epoch the monitor pushed to this OSD (every bump
        #: pushes). Data-path ops stamped with an older epoch are
        #: rejected (EOLDEPOCH); 0 until the first membership change,
        #: which no client stamp is older than.
        self.map_epoch = 0
        self.crashed = False
        #: record/check per-chunk digests; armed by enable_integrity()
        self.verify_enabled = False
        self._digests = {}  # (ino, index) -> {chunk_idx: digest | _POISON}
        #: monotonic per-object mutation counter (always on: pure dict
        #: work, no events). Recovery pushes use it to detect a write
        #: racing their source snapshot.
        self._versions = {}  # (ino, index) -> int
        #: ops currently inside the service section (fan-out visibility)
        self.inflight = 0
        self.metrics = sim.metrics("osd%d" % osd_id)

    # -- fault injection -------------------------------------------------

    def crash(self):
        """Kill the OSD daemon; the backing device keeps its objects."""
        self.crashed = True
        self.sim.trace("osd", "crash", osd=self.osd_id)
        self.metrics.counter("crashes").add(1)

    def restart(self):
        """Restart the daemon over the surviving object store."""
        self.crashed = False
        self.sim.trace("osd", "restart", osd=self.osd_id)

    def inject_bitrot(self, ino, index, rng, flips=8):
        """Silently flip bits in this replica's stored bytes.

        Each flip becomes a one-byte chunk of this replica's map: the
        other replicas, a memoised peek and the client's buffers share
        the old chunks and keep them.
        The recorded digests are deliberately left stale — that is the
        fault being modelled: the device returns different bytes than
        were acknowledged. No version bump, no trace of the mutation in
        the object's own metadata; only verification can tell.
        """
        obj = self._objects.get((ino, index))
        if not obj:
            return 0
        flips = min(flips, len(obj))
        for _ in range(flips):
            obj.flip(rng.randrange(len(obj)), 1 << rng.randrange(8))
        self.store_epoch += 1
        self.metrics.counter("bitrot_injected").add(1)
        self.sim.trace("osd", "bitrot", osd=self.osd_id, ino=ino,
                       index=index, flips=flips)
        return flips

    def inject_torn_write(self, ino, index, keep_fraction=0.5):
        """Silently truncate this replica's copy (a torn replica write).

        Models a write acknowledged by the primary whose tail never
        reached this replica's store. Digests for the lost tail stay
        recorded, so verification detects the short copy.
        """
        obj = self._objects.get((ino, index))
        if obj is None or len(obj) < 2:
            return 0
        keep = max(1, min(int(len(obj) * keep_fraction), len(obj) - 1))
        lost = len(obj) - keep
        obj.truncate(keep)
        self.store_epoch += 1
        self.metrics.counter("torn_injected").add(1)
        self.sim.trace("osd", "torn_write", osd=self.osd_id, ino=ino,
                       index=index, lost=lost)
        return lost

    def _check_up(self):
        """Dead-daemon behaviour: silence until the op timeout expires."""
        if self.crashed:
            yield self.costs.op_timeout
            err = OpTimeout("osd %d is down" % self.osd_id)
            # Let the retry layer blame the right OSD even when the
            # timeout surfaces out of a multi-target write attempt.
            err.osd_id = self.osd_id
            raise err

    def _check_epoch(self, epoch):
        """Reject an op resolved against an older osdmap (EOLDEPOCH).

        Every op carries the epoch of the map its sender resolved
        placement against, and must be at least as new as the map the
        monitor last pushed here. Pure state, no events.
        """
        if epoch < self.map_epoch:
            self.metrics.counter("epoch_rejects").add(1)
            raise OldEpoch(
                "osd %d at e%d rejected op stamped e%d"
                % (self.osd_id, self.map_epoch, epoch)
            )

    def _enter_op(self):
        """Track one op entering service: inflight gauge + queue depth.

        Called right before the slot acquire so the histogram sees the
        queue the op found on arrival. The histogram keeps one sample per
        op, so only while an observer is attached.
        """
        self.inflight += 1
        self.metrics.gauge("inflight").set(self.inflight)
        if self.sim.observer is not None:
            self.metrics.histogram("qdepth").observe(self._slots.queue_len)

    def _exit_op(self):
        self.inflight -= 1
        self.metrics.gauge("inflight").set(self.inflight)

    # -- integrity bookkeeping (pure state, no sim events) ----------------

    def _digest(self, piece):
        return hashlib.blake2b(piece, digest_size=16).digest()

    def object_version(self, ino, index):
        """Mutation counter of one object (0 if never written here)."""
        return self._versions.get((ino, index), 0)

    def _bump_version(self, key):
        self._versions[key] = self._versions.get(key, 0) + 1

    def _precheck_overwrite(self, key, obj, touch_start, end):
        """Poison boundary chunks whose surviving old bytes are corrupt.

        ``[touch_start, end)`` is the range the write is about to redefine
        (including any zero-fill extension). A chunk only partially inside
        it keeps old bytes; if those no longer match the chunk's digest,
        re-digesting after the write would bless the corruption — so the
        chunk is poisoned instead and keeps failing verification until a
        repair replaces the whole replica.
        """
        dig = self._digests.get(key)
        if not dig or end <= touch_start:
            return
        size = self.costs.integrity_chunk_size
        old_len = len(obj)
        for chunk in {touch_start // size, (end - 1) // size}:
            lo = chunk * size
            hi = min(lo + size, old_len)
            if hi <= lo:
                continue  # the chunk held no bytes before this write
            if touch_start <= lo and end >= hi:
                continue  # every old byte of the chunk is overwritten
            want = dig.get(chunk)
            if want is None or want is _POISON:
                continue
            if self._digest(obj.read(lo, hi - lo)) != want:
                dig[chunk] = _POISON

    def _record_digests(self, key, obj, touch_start, end):
        """Re-digest the chunks covering ``[touch_start, end)``."""
        if end <= touch_start:
            return
        dig = self._digests.setdefault(key, {})
        size = self.costs.integrity_chunk_size
        first = touch_start // size
        last = (end - 1) // size
        # One gather for the whole touched span, sliced per chunk.
        base = first * size
        span = memoryview(obj.read(base, (last + 1) * size - base))
        for chunk in range(first, last + 1):
            lo = chunk * size
            hi = min(lo + size, len(obj))
            if dig.get(chunk) is _POISON and not (touch_start <= lo and end >= hi):
                continue  # partially-rewritten poisoned chunk stays poisoned
            dig[chunk] = self._digest(span[lo - base:hi - base])

    def _apply_object_truncate(self, key, size):
        """Cut one stored object to ``size`` bytes, maintaining digests."""
        obj = self._objects.get(key)
        if obj is None or size >= len(obj):
            return
        dig = self._digests.get(key)
        csize = self.costs.integrity_chunk_size
        chunk = size // csize
        head = None
        if dig is not None and size % csize:
            # The cut chunk's surviving head keeps old bytes: verify them
            # before re-digesting the now-shorter chunk. One read serves
            # both digests.
            lo = chunk * csize
            old = obj.read(lo, csize)
            want = dig.get(chunk)
            if want is not None and want is not _POISON \
                    and self._digest(old) != want:
                dig[chunk] = _POISON
            head = old[:size - lo]
        obj.truncate(size)
        self.store_epoch += 1
        self._bump_version(key)
        if dig is not None:
            keep = (size + csize - 1) // csize
            for stale in [c for c in dig if c >= keep]:
                del dig[stale]
            if head is not None and dig.get(chunk) is not _POISON:
                dig[chunk] = self._digest(head)

    def replica_clean(self, ino, index, offset=None, size=None):
        """Digest-check this replica over a byte range; pure state, no cost.

        Checks the chunks covering ``[offset, offset+size)`` (the whole
        object when ``offset`` is None) against the recorded digests.
        Chunks written before integrity was armed have no digest and are
        adopted (digested as-is) on first check. The checked span extends
        to whatever the digests claim the object holds, so a torn replica
        — shorter than its recorded chunks — fails even though every byte
        it still has is intact. Returns False on any mismatch or poison.
        """
        key = (ino, index)
        obj = self._objects.get(key)
        dig = self._digests.get(key)
        if obj is None:
            # No copy here: clean unless digests claim we should have one
            # (the fully-torn case is handled by drop_object purging both).
            return not dig
        if not dig:
            if self.verify_enabled and len(obj):
                self._record_digests(key, obj, 0, len(obj))
            return True
        csize = self.costs.integrity_chunk_size
        top = max(len(obj), (max(dig) + 1) * csize)
        start = 0 if offset is None else max(offset, 0)
        end = top if offset is None else min(offset + size, top)
        if end <= start:
            return True
        # One gather for the whole checked span, sliced per chunk; past
        # the stored length the slices come up short or empty, which is
        # how a torn replica fails.
        first = start // csize
        last = (end - 1) // csize
        base = first * csize
        span = memoryview(obj.read(base, (last + 1) * csize - base))
        for chunk in range(first, last + 1):
            piece = span[chunk * csize - base:(chunk + 1) * csize - base]
            want = dig.get(chunk)
            if want is None:
                if piece and self.verify_enabled:
                    dig[chunk] = self._digest(piece)
                continue
            if want is _POISON or self._digest(piece) != want:
                return False
        return True

    # -- server-side operations (sim generators) -------------------------

    def read(self, ino, index, offset, size, epoch):
        """Serve an object read; returns the bytes (b'' for a hole)."""
        if offset < 0 or size < 0:
            raise InvalidArgument("negative offset/size")
        yield from self._check_up()
        self._check_epoch(epoch)
        started = self.sim.now
        self._enter_op()
        yield self._slots.acquire()
        try:
            yield self.costs.osd_op
            obj = self._objects.get((ino, index))
            data = obj.read(offset, size) if obj is not None else b""
            if data:
                yield from self.device.transfer(len(data))
        finally:
            self._slots.release()
            self._exit_op()
        self.metrics.counter("reads").add(1)
        self.metrics.counter("bytes_read").add(len(data))
        if self.sim.observer is not None:
            self.metrics.histogram("read_service_s").observe(
                self.sim.now - started
            )
        return data

    def _apply_write(self, ino, index, offset, data):
        """Put one write into the store with full digest bookkeeping.

        ``data`` is any buffer. ``bytes``, or a view of a client's
        ``bytes`` payload chunk, is kept by reference — every replica
        shares it, and it outlives the call; that is safe because it can
        never change and this store only ever replaces chunks. A mutable
        buffer is snapshotted (see :mod:`repro.common.chunks`).
        """
        key = (ino, index)
        obj = self._objects.get(key)
        if obj is None:
            obj = self._objects[key] = ChunkMap()
            self._by_ino.setdefault(ino, {})[index] = None
        end = offset + len(data)
        old_len = len(obj)
        touch_start = min(offset, old_len)
        if self.verify_enabled:
            self._precheck_overwrite(key, obj, touch_start, end)
        obj.write(offset, data)
        self.store_epoch += 1
        self._bump_version(key)
        if self.verify_enabled:
            self._record_digests(key, obj, touch_start, end)

    def write(self, ino, index, offset, data, epoch):
        """Apply one object write: the one-piece :meth:`write_vector`."""
        return self.write_vector(ino, [(index, offset, data)], epoch)

    def write_vector(self, ino, pieces, epoch):
        """Apply several extent writes of one file as a single op.

        ``pieces`` is ``[(index, obj_off, buffer)]`` — the coalesced dirty
        run a flush batched for this OSD; each buffer is ``bytes`` or a
        read-only view, kept by reference by :meth:`_apply_write`.
        One queue slot, one op charge and one journal+data commit
        (journal append, then the in-place data write) cover the batch's
        total bytes; every piece then lands in its object with full
        digest bookkeeping.
        """
        for _index, offset, _data in pieces:
            if offset < 0:
                raise InvalidArgument("negative offset")
        total = sum(len(data) for _index, _off, data in pieces)
        yield from self._check_up()
        self._check_epoch(epoch)
        started = self.sim.now
        self._enter_op()
        yield self._slots.acquire()
        try:
            yield self.costs.osd_op
            yield from self.device.transfer(total, write=True)
            yield from self.device.transfer(total, write=True)
            for index, offset, data in pieces:
                self._apply_write(ino, index, offset, data)
        finally:
            self._slots.release()
            self._exit_op()
        self.metrics.counter("writes").add(1)
        self.metrics.counter("vector_writes").add(1)
        self.metrics.counter("vector_pieces").add(len(pieces))
        self.metrics.counter("bytes_written").add(total)
        if self.sim.observer is not None:
            self.metrics.histogram("write_service_s").observe(
                self.sim.now - started
            )
        return total

    def verify_range(self, ino, index, offset=None, size=None):
        """Deep verify: re-read stored bytes and digest-check them.

        Sim generator paying device read + checksum cost over the checked
        span; returns True when the replica passes. The digest comparison
        itself is :meth:`replica_clean`.
        """
        yield from self._check_up()
        started = self.sim.now
        yield self._slots.acquire()
        try:
            yield self.costs.osd_op
            obj = self._objects.get((ino, index))
            span = 0
            if obj is not None:
                if offset is None:
                    span = len(obj)
                else:
                    span = max(0, min(offset + size, len(obj)) - max(offset, 0))
            if span:
                yield from self.device.transfer(span)
                yield self.costs.verify_cost(span)
            ok = self.replica_clean(ino, index, offset=offset, size=size)
        finally:
            self._slots.release()
        self.metrics.counter("verifies").add(1)
        if not ok:
            self.metrics.counter("verify_failures").add(1)
        if self.sim.observer is not None:
            self.metrics.histogram("verify_service_s").observe(
                self.sim.now - started
            )
        return ok

    def scrub_meta(self, ino, index):
        """Light-scrub probe: object size + digest fingerprint.

        Metadata-only cost (no byte re-read); replicas whose probes
        disagree are escalated to a deep verify by the scrub daemon.
        """
        yield from self._check_up()
        yield self._slots.acquire()
        try:
            yield self.costs.scrub_meta_op
            obj = self._objects.get((ino, index))
            dig = self._digests.get((ino, index)) or {}
            size = len(obj) if obj is not None else -1
            fingerprint = tuple(sorted(
                (chunk, b"!poison" if d is _POISON else d)
                for chunk, d in dig.items()
            ))
        finally:
            self._slots.release()
        self.metrics.counter("scrub_probes").add(1)
        return size, fingerprint

    def apply_truncate(self, ino, index, size):
        """Apply a truncate directly to the store, without cost (the
        cluster's cut of a truncated file, recovery replay)."""
        self._apply_object_truncate((ino, index), size)

    def drop_object(self, ino, index):
        """Discard one stored object (stale-copy cleanup on recovery)."""
        if self._objects.pop((ino, index), None) is not None:
            indices = self._by_ino.get(ino)
            if indices is not None:
                indices.pop(index, None)
            self.store_epoch += 1
        self._digests.pop((ino, index), None)
        self._versions.pop((ino, index), None)

    # -- maintenance (no cost: background purge) -----------------------------

    def purge_ino(self, ino):
        """Drop every object of ``ino`` (async purge after unlink)."""
        for index in self._by_ino.pop(ino, {}):
            self._objects.pop((ino, index), None)
            self._digests.pop((ino, index), None)
            self._versions.pop((ino, index), None)
            self.store_epoch += 1

    def indices_of(self, ino):
        """The object indices stored for ``ino``, in ``_objects`` order."""
        return list(self._by_ino.get(ino, ()))

    def object_size(self, ino, index):
        obj = self._objects.get((ino, index))
        return len(obj) if obj is not None else 0

    @property
    def stored_bytes(self):
        return sum(len(obj) for obj in self._objects.values())

    @property
    def object_count(self):
        return len(self._objects)

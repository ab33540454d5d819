"""The user-level Ceph client: the libcephfs analogue Danaus builds on.

One instance serves one mount (Danaus runs one or more per tenant). The
client keeps everything at user level: the object cache, the attribute
cache, the write-behind buffers and the flusher thread, which is pinned to
the *pool's* cores — flushing never steals neighbour cores, which is the
isolation half of the paper's story.

The efficiency caveat is modelled faithfully too: by default every
client-side critical section serialises on one global ``client_lock``
(ceph tracker #23844), which limits cached-read concurrency — the paper's
explanation for Danaus losing to the kernel client on cached sequential
reads (Fig. 9 bottom). The ``locking=`` policy switches on the sharding
the paper proposes as future work (see :mod:`repro.cephclient.locking`):
``"global"`` (the faithful default — its event schedule is pinned by the
engine-bench fingerprints) or ``"range"`` (per-inode state locks plus
per-object-range data locks). The ``abl-locking`` ablation compares the
two.

A flush holds no client or inode lock while its batch travels or while
the MDS records its size, in any policy: reads overlay the in-flight
(``tx``) batch between the OSD bytes and the dirty bytes, as the
ObjectCacher serves its ``tx`` buffers, and the batch keeps the local
size authoritative until it lands. What a flush does hold is the inode's
flush mutex, from taking the batch to publishing its size; a truncate
holds it until the MDS has cut the objects.
"""

from repro.cephclient.cache import ObjectCache
from repro.cephclient.extents import WritebackBuffer
from repro.cephclient.locking import LockingPolicy
from repro.cephclient.mount import CephMount
from repro.common.errors import FsError
from repro.fs.api import O_APPEND
from repro.fs.readahead import Readahead
from repro.sim.cpu import SimThread
from repro.sim.sync import Mutex

__all__ = ["CephLibClient"]


class CephLibClient(CephMount):
    """libcephfs-like user-level client over the simulated cluster."""

    def __init__(
        self,
        sim,
        cluster,
        costs,
        account,
        cpuset,
        name="libceph",
        cache_bytes=None,
        locking="global",
        start_flusher=True,
        cache_dedup=False,
    ):
        self.account = account
        if cache_bytes is None:
            cache_bytes = max(account.capacity // 2, costs.object_size)
        fingerprint_fn = self._block_fingerprint if cache_dedup else None
        self.cache = ObjectCache(
            cache_bytes, account, dedup=cache_dedup,
            fingerprint_fn=fingerprint_fn,
        )
        self.max_dirty = cache_bytes // 2
        self.client_lock = Mutex(sim, name="%s.client_lock" % name)
        sim.register_lock(name, "client_lock", name, self.client_lock)
        self._locking = LockingPolicy(
            sim, name, self.client_lock, locking,
            range_stripe=costs.object_size,
        )
        super().__init__(sim, cluster, costs, name, WritebackBuffer(
            sim, charge=self.cache.dirty_changed,
            flush_lock=self._locking.flush_lock,
        ))
        self._dirty_since = {}  # ino -> first dirty time
        #: stream positions and pipelined readahead, keyed by ino
        self._readahead = Readahead(
            sim, name, self._scan, self._fill, self._local_size
        )
        self._flush_waiters = []
        # The ObjectCacher writes back *asynchronously*: many OSD writes in
        # flight at once, not one serial stream. We model that with a small
        # pool of flusher threads — pinned to the pool's cores, matching
        # the kernel's flusher count so the comparison is about placement
        # and locking, not writeback parallelism.
        self.flusher_thread = SimThread(sim, "%s.flusher" % name, cpuset)
        self.flusher_threads = [self.flusher_thread] + [
            SimThread(sim, "%s.flusher%d" % (name, index), cpuset)
            for index in range(1, 4)
        ]
        self._stopped = False
        if start_flusher:
            sim.spawn(self._flusher_loop(), name="%s.flusher" % name)

    # -- locking ---------------------------------------------------------
    #
    # Every access to the shared per-inode state (``attr_cache``,
    # ``_sizes``, stream positions, ``_dirty_since``, the dirty buffer)
    # goes through the policy's *state* sections; cached-byte sections
    # (insert/write/overlay/flush) go through its *data* and *fetch*
    # sections. Path-namespace ops share the ``-1`` pseudo-inode
    # state lock. The discipline table lives in ``docs/architecture.md``.

    def _locked_cpu(self, task, ino, cpu_seconds):
        """Run CPU work under the state lock(s) — the serialisation point."""
        token = yield from self._locking.acquire_state(ino, who=task)
        try:
            yield from task.cpu(cpu_seconds)
        finally:
            self._locking.release(token)

    # -- personality hooks (see CephMount) --------------------------------

    def _enter(self, task, op, path):
        """Client CPU of one namespace op under the ``-1`` state lock
        (the charge's own generator is returned, not wrapped)."""
        cost = self.costs.ceph_client_op
        if op in ("stat", "close"):
            cost /= 2
        if op in ("close", "readdir"):
            return task.cpu(cost)
        return self._locked_cpu(task, -1, cost)

    def read(self, task, handle, offset, size):
        ino = self._live_ino(handle)
        obs = self.sim.observer
        span = obs.span(task, "client.read", "client", ino=ino,
                        size=size) if obs is not None else None
        try:
            data = yield from self._read(task, ino, offset, size)
        finally:
            if span is not None:
                span.end()
        return data

    def _read(self, task, ino, offset, size):
        locking = self._locking
        token = yield from locking.acquire_state(ino, who=task)
        try:
            yield from task.cpu(self.costs.ceph_client_op)
            file_size = self._file_size(ino)
            if offset >= file_size or size <= 0:
                return b""
            size = min(size, file_size - offset)
            hit_blocks, miss_ranges = self.cache.scan(ino, offset, size)
            self.metrics.counter("cache_hit_blocks").add(hit_blocks)
            self.metrics.counter("cache_miss_ranges").add(len(miss_ranges))
            if hit_blocks:
                yield from task.cpu(self.costs.page_op * hit_blocks)
            sequential = self._readahead.sequential(ino, offset)
        finally:
            locking.release(token)
        if miss_ranges:
            yield from self._readahead.fetch(task, ino, offset, size, file_size,
                                             sequential, hit_blocks, miss_ranges)
        # Assemble and copy out *under the lock*: this serialisation is the
        # client_lock bottleneck the paper identifies for cached reads —
        # under the range policy only the covering stripes serialise.
        token = yield from locking.acquire_data(ino, offset, size, who=task)
        try:
            base = self.cluster.peek(ino, offset, size)
            data = self.unflushed.overlay(ino, offset, size, base)
            if len(data) > size:
                data = data[:size]
            yield from task.cpu(self.costs.copy_cost(len(data)))
        finally:
            locking.release(token)
        # A sequential read launches the next window as a detached
        # prefetch while the caller copies the current one out.
        self._readahead.advance(ino, offset + len(data), sequential, file_size, task)
        self.metrics.counter("bytes_read").add(len(data))
        return data

    def _scan(self, task, ino, offset, size, hits):
        """Readahead scan hook: the missing ranges under the state lock,
        or None once the inode is unlinked."""
        token = yield from self._locking.acquire_state(ino, who=task)
        try:
            if ino not in self._sizes:
                return None
            rescanned, missing = self.cache.scan(ino, offset, size)
            if task is not None and rescanned > hits:
                yield from task.cpu(self.costs.page_op * (rescanned - hits))
        finally:
            self._locking.release(token)
        return missing

    def _fill(self, task, ino, offset, size, sequential, owner):
        """Readahead fill hook: fetch one range and insert it while the inode
        is still linked. A detached prefetch (``task`` None) pays the full
        network/OSD cost; its payload work is a plain delay (no core)."""
        # The network fetch holds no client, inode or range lock (dropped
        # while waiting on the OSDs, as in libcephfs). It only records
        # residency: a read's bytes come from the OSDs with the tx and
        # dirty layers on top, so a flush in flight cannot be overtaken.
        yield from self.cluster.read_extent(ino, offset, size)
        if task is None:
            yield self.costs.payload_cost(size)
        else:
            yield from task.cpu(self.costs.payload_cost(size))
        token = yield from self._locking.acquire_state(ino, who=task)
        try:
            if ino in self._sizes:
                self.cache.insert(ino, offset, size)
        finally:
            self._locking.release(token)

    def _block_fingerprint(self, ino, offset):
        """Content digest of one cache block (for dedup mode).

        Zero-cost by design: a block being inserted was just fetched, so
        its bytes are authoritative in the object store already. Blocks of
        files with unflushed writes, dirty or in flight, are *not*
        fingerprinted — the store does not hold their content yet, so
        deduplicating them would alias unknown data.
        """
        import hashlib

        if ino in self.unflushed:
            return None
        data = self.cluster.peek(ino, offset, self.cache.block_size)
        return hashlib.blake2b(data, digest_size=16).digest()

    def write(self, task, handle, offset, data):
        ino = self._live_ino(handle)
        append = bool(int(handle.flags) & O_APPEND)
        obs = self.sim.observer
        span = obs.span(task, "client.write", "client", ino=ino,
                        size=len(data)) if obs is not None else None
        try:
            written = yield from self._write(task, ino, offset, data,
                                             append=append)
        finally:
            if span is not None:
                span.end()
        return written

    def _write(self, task, ino, offset, data, append=False):
        locking = self._locking
        # The O_APPEND offset is resolved *under the state lock*: two
        # concurrent appenders each see the size the other already
        # advanced, instead of picking the same offset and clobbering.
        token = yield from locking.acquire_state(ino, who=task)
        try:
            if append:
                offset = self._local_size(ino)
            if locking.wants_range_data():
                # Write sections take state + covering range locks (in
                # that order): the buffered bytes are data a concurrent
                # reader of the same stripes serialises with.
                for lock in locking.range_locks(ino, offset, len(data)):
                    yield lock.acquire(who=task)
                    token = token + (lock,)
            yield from task.cpu(
                self.costs.ceph_client_op + self.costs.copy_cost(len(data))
            )
            self.unflushed.write(ino, offset, data)
            self.cache.insert(ino, offset, len(data))
            new_size = max(self._local_size(ino), offset + len(data))
            self._sizes[ino] = new_size
            self._dirty_since.setdefault(ino, self.sim.now)
        finally:
            locking.release(token)
        self.metrics.counter("bytes_written").add(len(data))
        # User-level dirty throttling: wait for the (pool-core) flusher.
        while self.unflushed.dirty_bytes > self.max_dirty:
            progress = self.sim.event()
            self._flush_waiters.append(progress)
            yield self.sim.any_of(
                [progress, self.sim.timeout(self.costs.writeback_interval)]
            )
            if not progress.triggered:
                # The timeout branch won: drop the stale waiter so a later
                # flush does not wake (and leak callbacks on) a dead event.
                try:
                    self._flush_waiters.remove(progress)
                except ValueError:
                    pass
            self.metrics.counter("throttle_waits").add(1)
        return len(data)

    def fsync(self, task, handle):
        ino = self._live_ino(handle)
        yield from self._flush_ino(task, ino)

    def _forget(self, ino):
        self.cache.drop_ino(ino)
        self._readahead.forget(ino)
        self._dirty_since.pop(ino, None)
        # Retire the inode's locks: a recycled ino gets fresh ones, and
        # their stats fold into the registry's "retired" bucket instead
        # of lingering as unreachable entries.
        self._locking.drop_ino(ino)

    def _truncate_data(self, task, ino, size, cut):
        """Inside the inode's flush mutex, for every policy: wait out the
        in-flight batch, trim the dirty extents and the local size in one
        state section, then run ``cut`` with only the flush mutex held.
        No batch can start before the MDS has cut the objects, so none
        lands past the cut; bytes written after the trim stay buffered
        until then, at or above the new end."""
        flush_lock = self._locking.flush_lock(ino)
        yield flush_lock.acquire(who=task)
        try:
            token = yield from self._locking.acquire_state(ino, who=task)
            try:
                yield from task.cpu(self.costs.ceph_client_op)
                # Buffered data beyond the cut is discarded; data below
                # survives.
                self.unflushed.truncate(ino, size)
                self._sizes[ino] = size
            finally:
                self._locking.release(token)
            if cut is not None:
                return (yield from cut)
        finally:
            flush_lock.release()

    # -- flushing -----------------------------------------------------------------

    def _flush_ino(self, task, ino, max_bytes=None):
        """Flush dirty extents of ``ino`` on the caller's thread.

        One body for every locking policy, all of it under the inode's
        flush mutex, so two batches of one inode never land out of order:

        1. *Take*, under the state lock: the batch moves from the dirty
           layer to the in-flight (``tx``) layer until the flush ends,
           which keeps the local size authoritative: a revalidating open
           cannot adopt a stale MDS length. The take never waits here.
        2. *Send* (:meth:`_send_batch`), with no client or inode lock:
           readers see the batch in ``tx``, writers buffer above it.
        3. *Publish* the local size to the MDS with no client or inode
           lock, as libcephfs waits for MDS replies with ``client_lock``
           released; then a state section adopts the attributes the MDS
           returns. The batch is still in ``tx`` until it lands, so a
           write that extends the file meanwhile keeps its larger size,
           which the next flush publishes.

        On a backend failure the batch goes back to the dirty layer
        before the error propagates — buffered data is never lost to a
        transient fault; the flusher simply tries again next interval.
        """
        obs = self.sim.observer
        span = obs.span(task, "client.flush", "client",
                        ino=ino) if obs is not None else None
        locking = self._locking
        flush_lock = locking.flush_lock(ino)
        yield flush_lock.acquire(who=task)
        batch = None
        try:
            token = yield from locking.acquire_state(ino, who=task)
            try:
                batch = yield from self.unflushed.take(ino, max_bytes)
            finally:
                locking.release(token)
            if batch is None:
                return 0
            flushed = yield from self._send_batch(task, batch)
            batch.sent.succeed()
            landed = yield from self._publish_flushed_size(ino)
            if landed is not None:
                token = yield from locking.acquire_state(ino, who=task)
                try:
                    self._remember(*landed)
                finally:
                    locking.release(token)
            return self._flush_done(ino, flushed)
        finally:
            if batch is not None:
                self.unflushed.land(batch)
            flush_lock.release()
            if span is not None:
                span.end()

    def _send_batch(self, task, batch):
        """Payload CPU plus the cluster write of one taken batch.

        No client, inode or range lock is held, in any policy: readers
        and writers of the batch's bytes meet it in the ``tx`` layer. A
        failed send puts the batch back into the dirty layer, *beneath*
        what writers buffered meanwhile. With fan-out any subset may have
        landed; rewriting a landed extent is idempotent.
        """
        ino = batch.ino
        try:
            yield from task.cpu(self.costs.payload_cost(batch.nbytes))
            # One vectored fan-out carries the whole batch: contiguous
            # runs coalesce per target OSD instead of paying one RPC per
            # dirty block.
            return (yield from self.cluster.write_vector(ino, batch.extents))
        except BaseException:
            self.unflushed.put_back(batch)
            for offset, data in batch.extents:
                self.cache.insert(ino, offset, len(data))
            self._dirty_since.setdefault(ino, self.sim.now)
            self.metrics.counter("flush_failures").add(1)
            raise

    def _flush_done(self, ino, flushed):
        if not self.unflushed.dirty(ino):
            self._dirty_since.pop(ino, None)
        self.metrics.counter("bytes_flushed").add(flushed)
        if self.sim.observer is not None:
            self.sim.trace("client", "flush", client=self.name, bytes=flushed)
        waiters, self._flush_waiters = self._flush_waiters, []
        for event in waiters:
            event.succeed()
        return flushed

    def flush_all(self, task):
        """Flush every dirty file (used by shutdown and tests)."""
        total = 0
        for ino in self.unflushed.dirty_inos():
            total += yield from self._flush_ino(task, ino)
        return total

    def _flusher_loop(self):
        """Background write-back pinned to the pool's cores.

        Eligible files are flushed *concurrently* across the flusher
        thread pool — the asynchronous in-flight writes of the
        ObjectCacher — so the drain rate scales with the backend, not
        with one thread's round-trip latency.
        """
        from repro.fs.api import Task

        def flush(task, ino):
            try:
                yield from self._flush_ino(
                    task, ino, max_bytes=self.costs.flush_batch
                )
            except FsError:
                pass  # dirty again inside _flush_ino; retried next interval

        flusher_tasks = [Task(thread) for thread in self.flusher_threads]
        while not self._stopped:
            yield self.costs.writeback_interval
            if self._stopped:
                return
            background = self.unflushed.dirty_bytes > self.max_dirty // 2
            jobs = []
            for slot, ino in enumerate(self.unflushed.dirty_inos()):
                since = self._dirty_since.get(ino, self.sim.now)
                expired = self.sim.now - since >= self.costs.expire_interval
                if background or expired:
                    flusher_task = flusher_tasks[slot % len(flusher_tasks)]
                    jobs.append(self.sim.spawn(
                        flush(flusher_task, ino),
                        name="%s.flush" % self.name,
                    ))
            if jobs:
                yield self.sim.all_of(jobs)

    def stop(self):
        self._stopped = True

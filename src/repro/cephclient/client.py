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
reads (Fig. 9 bottom). The ``locking=`` policy switches the sharding the
paper proposes as future work (see :mod:`repro.cephclient.locking`):
``"global"`` (the faithful default — its event schedule is pinned by the
engine-bench fingerprints), ``"inode"`` (per-inode locks), ``"range"``
(per-inode state locks plus per-object-range data locks) and ``"adaptive"`` (watches the measured
contention and switches between the three at runtime). The ``abl-locking``
ablation quantifies each step.
"""

from repro.cephclient.cache import ObjectCache
from repro.cephclient.locking import AdaptiveLockController, LockingPolicy
from repro.cephclient.mount import CephMount
from repro.common.errors import FsError, InvalidArgument, ThreadKilled
from repro.fs.api import OpenFlags
from repro.fs.readahead import Prefetcher, next_window, plan_fetch
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
        consistency="close-to-open",
        cache_dedup=False,
    ):
        super().__init__(sim, cluster, costs, name)
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
        self._lock_controller = None
        if locking == "adaptive":
            self._lock_controller = AdaptiveLockController(
                self._locking, costs
            )
            self._lock_controller.start()
        self._dirty_since = {}  # ino -> first dirty time
        self._seq_end = {}  # ino -> end offset of last read (readahead)
        #: pipelined readahead: one detached next-window prefetch per ino
        self._prefetcher = Prefetcher(sim)
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
        if consistency not in ("close-to-open", "caps"):
            raise InvalidArgument("unknown consistency %r" % consistency)
        self.consistency = consistency
        if consistency == "caps":
            self.client_id = cluster.register_client(self)
        self._session_epoch = cluster.mds.session_epoch
        self._held_caps = {}  # ino -> caps mask held under this session
        if start_flusher:
            sim.spawn(self._flusher_loop(), name="%s.flusher" % name)

    # -- locking ---------------------------------------------------------
    #
    # Every access to the shared per-inode state (``attr_cache``,
    # ``_sizes``, ``_seq_end``, ``_dirty_since``, cap masks, the dirty
    # buffer) goes through the policy's *state* sections; cached-byte
    # sections (insert/write/overlay/flush) go through its *data* and
    # *fetch* sections. Path-namespace ops share the ``-1`` pseudo-inode
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
        if op in ("close", "readdir") or (
            op == "stat" and self._locking.policy == "global"
        ):
            # Faithful libcephfs fast path (and pinned by the engine-bench
            # fingerprints): stat consults the attr cache without a lock.
            # Fine-grained policies route stat through the same namespace
            # state section as the other path ops (open/mkdir/rename).
            return task.cpu(cost)
        return self._locked_cpu(task, -1, cost)

    def _dirty_buffer(self, ino):
        return self.cache._dirty.get(ino)

    def _opened(self, task, path, info, flags):
        """Caps mode: take the capabilities an open needs before it
        returns, and refetch the attributes they make authoritative."""
        if self.consistency != "caps" or info.is_dir:
            return info
        from repro.storage.caps import CAP_READ_CACHE, CAP_WRITE_BUFFER

        yield from self._ensure_session()
        want = CAP_READ_CACHE
        if flags.wants_write:
            want |= CAP_WRITE_BUFFER
        yield from self.cluster.acquire_caps(self.client_id, info.ino, want)
        self._held_caps[info.ino] = self._held_caps.get(info.ino, 0) | want
        # Holding fresh caps means our attribute view is authoritative;
        # any prior writer flushed during the revocation, so refetch.
        info = yield from self.cluster.mds_call("lookup", path)
        self._remember(path, info)
        self._sizes[info.ino] = max(
            info.size,
            self._sizes.get(info.ino, 0)
            if self._size_authoritative(info.ino) else 0,
        )
        return info

    def handle_cap_revoke(self, ino, caps):
        """MDS revocation callback: flush and/or invalidate, then ack.

        Sim generator run by the cluster while a conflicting open waits.
        """
        from repro.fs.api import Task
        from repro.storage.caps import CAP_READ_CACHE, CAP_WRITE_BUFFER

        revoke_task = Task(self.flusher_thread, pool=None)
        if caps & CAP_WRITE_BUFFER and self._dirty_buffer(ino):
            yield from self._flush_ino(revoke_task, ino)
        # Invalidate and shrink the cap mask under the inode's state lock:
        # in the fine-grained policies a reader holds that lock across its
        # scan/copy-out sections, so the revoke cannot interleave with a
        # half-done read between the reader's lock drops (the flush above
        # takes — and must take — the same lock internally, hence two
        # sections rather than one).
        token = yield from self._locking.acquire_state(ino, who=revoke_task)
        try:
            if caps & CAP_READ_CACHE:
                # Drop cached data and attributes; the next access refetches.
                self.cache.drop_ino(ino)
                path = self._paths.get(ino)
                if path is not None:
                    self.attr_cache.pop(path, None)
                self._seq_end.pop(ino, None)
                self._prefetcher.forget(ino)
            held = self._held_caps.get(ino)
            if held is not None:
                held &= ~caps
                if held:
                    self._held_caps[ino] = held
                else:
                    del self._held_caps[ino]
        finally:
            self._locking.release(token)
        self.metrics.counter("caps_revoked").add(1)
        self.sim.trace("client", "cap_revoke", client=self.name, ino=ino,
                       caps=caps)

    def _ensure_session(self):
        """Reestablish the MDS session after an MDS restart (caps mode).

        A restarted MDS lost its caps table; every capability this
        client held is reacquired under the new session epoch before the
        triggering operation proceeds — the CephFS session-reconnect
        protocol.
        """
        if self.client_id is None:
            return
        epoch = self.cluster.mds.session_epoch
        if epoch == self._session_epoch:
            return
        self._session_epoch = epoch
        for ino, want in list(self._held_caps.items()):
            yield from self.cluster.acquire_caps(self.client_id, ino, want)
        self.metrics.counter("sessions_reestablished").add(1)
        self.sim.trace("client", "session_reestablish", client=self.name,
                       epoch=epoch)

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
            sequential = offset == self._seq_end.get(ino, 0)
        finally:
            locking.release(token)
        if sequential and miss_ranges and self._prefetcher.active(ino):
            # The previous read's pipelined prefetch covers (part of) this
            # window and is still travelling: adopt it instead of issuing
            # a duplicate fetch, then rescan for whatever remains missing.
            yield from self._prefetcher.join(ino)
            token = yield from locking.acquire_state(ino, who=task)
            try:
                rescanned, miss_ranges = self.cache.scan(ino, offset, size)
                if rescanned > hit_blocks:
                    yield from task.cpu(
                        self.costs.page_op * (rescanned - hit_blocks)
                    )
            finally:
                locking.release(token)
        for miss_offset, miss_size in miss_ranges:
            fetch = plan_fetch(miss_offset, miss_size, file_size, sequential)
            # Network fetch happens outside the client/inode lock (dropped
            # while waiting on the OSDs, as in libcephfs); the fine data
            # policies instead hold the covering *range* locks so a
            # flush-in-flight of the same bytes cannot be overtaken.
            fetch_token = yield from locking.acquire_fetch(
                ino, miss_offset, fetch, who=task
            )
            try:
                yield from self.cluster.read_extent(ino, miss_offset, fetch)
                yield from task.cpu(self.costs.payload_cost(fetch))
                if fetch_token:
                    self.cache.insert(ino, miss_offset, fetch)
            finally:
                locking.release(fetch_token)
            if not fetch_token:
                token = yield from locking.acquire_state(ino, who=task)
                try:
                    self.cache.insert(ino, miss_offset, fetch)
                finally:
                    locking.release(token)
        # Assemble and copy out *under the lock*: this serialisation is the
        # client_lock bottleneck the paper identifies for cached reads —
        # under the range policy only the covering stripes serialise.
        token = yield from locking.acquire_data(ino, offset, size, who=task)
        try:
            base = self.cluster_peek(ino, offset, size)
            data = self.cache.overlay(ino, offset, size, base)
            if len(data) > size:
                data = data[:size]
            yield from task.cpu(self.costs.copy_cost(len(data)))
            self._seq_end[ino] = offset + len(data)
        finally:
            locking.release(token)
        if sequential:
            # Pipelined readahead: fetch the next window with a detached
            # child while the caller copies the current one out. The
            # prefetch pays the full network/OSD cost; its payload work
            # happens on the async messenger path (plain delay, no core).
            window = next_window(offset + len(data), file_size)
            if window is not None:
                self._prefetcher.launch(
                    ino, self._prefetch(ino, window[0], window[1]),
                    name="%s.readahead" % self.name,
                )
        self.metrics.counter("bytes_read").add(len(data))
        return data

    def _prefetch(self, ino, offset, size):
        """Detached next-window prefetch (see :class:`Prefetcher`)."""
        locking = self._locking
        token = yield from locking.acquire_state(ino, who=None)
        try:
            if ino not in self._sizes:
                return  # unlinked while queued
            _hits, missing = self.cache.scan(ino, offset, size)
        finally:
            locking.release(token)
        for miss_offset, miss_size in missing:
            miss_size = min(
                miss_size, max(self._local_size(ino) - miss_offset, 0)
            )
            if miss_size <= 0:
                continue
            fetch_token = yield from locking.acquire_fetch(
                ino, miss_offset, miss_size, who=None
            )
            try:
                yield from self.cluster.read_extent(
                    ino, miss_offset, miss_size
                )
                yield self.costs.payload_cost(miss_size)
                if fetch_token and ino in self._sizes:
                    self.cache.insert(ino, miss_offset, miss_size)
            finally:
                locking.release(fetch_token)
            if not fetch_token:
                token = yield from locking.acquire_state(ino, who=None)
                try:
                    if ino in self._sizes:
                        self.cache.insert(ino, miss_offset, miss_size)
                finally:
                    locking.release(token)

    def cluster_peek(self, ino, offset, size):
        """Resident-byte assembly; see :meth:`CephCluster.peek`."""
        return self.cluster.peek(ino, offset, size)

    def _block_fingerprint(self, ino, offset):
        """Content digest of one cache block (for dedup mode).

        Zero-cost by design: a block being inserted was just fetched, so
        its bytes are authoritative in the object store already. Blocks of
        files with unflushed writes are *not* fingerprinted — their
        content is still in flight, so deduplicating them would alias
        unknown data.
        """
        import hashlib

        if self._dirty_buffer(ino):
            return None
        data = self.cluster.peek(ino, offset, self.cache.block_size)
        return hashlib.blake2b(data, digest_size=16).digest()

    def write(self, task, handle, offset, data):
        ino = self._live_ino(handle)
        append = bool(handle.flags & OpenFlags.APPEND)
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
                # flusher or reader of the same stripes serialises with.
                for lock in locking.range_locks(ino, offset, len(data)):
                    yield lock.acquire(who=task)
                    token = token + (lock,)
            yield from task.cpu(
                self.costs.ceph_client_op + self.costs.copy_cost(len(data))
            )
            self.cache.write(ino, offset, data)
            new_size = max(self._local_size(ino), offset + len(data))
            self._sizes[ino] = new_size
            self._dirty_since.setdefault(ino, self.sim.now)
        finally:
            locking.release(token)
        self.metrics.counter("bytes_written").add(len(data))
        # User-level dirty throttling: wait for the (pool-core) flusher.
        while self.cache.dirty_bytes > self.max_dirty:
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
        self._prefetcher.forget(ino)
        self._dirty_since.pop(ino, None)
        self._seq_end.pop(ino, None)
        self._held_caps.pop(ino, None)
        # Retire the inode's locks: a recycled ino gets fresh ones, and
        # their stats fold into the registry's "retired" bucket instead
        # of lingering as unreachable entries.
        self._locking.drop_ino(ino)

    def _truncate_data(self, task, ino, size):
        if self._locking.policy == "global":
            # Faithful default: the lock covers only the CPU section; the
            # backend truncate travels unlocked (pinned by the engine-bench
            # fingerprints, and every write_file(TRUNC) crosses this path).
            yield from self._locked_cpu(task, ino, self.costs.ceph_client_op)
            # Buffered data beyond the cut is discarded; data below survives.
            self.cache.truncate_dirty(ino, size)
            yield from self.cluster.truncate(ino, size)
            self._sizes[ino] = size
        else:
            # Fine-grained policies hold the state lock across the backend
            # truncate: an appender resolving its offset between the object
            # cut and the size update would write beyond the new end and
            # then be silently clobbered by ``_sizes[ino] = size``.
            token = yield from self._locking.acquire_state(ino, who=task)
            try:
                yield from task.cpu(self.costs.ceph_client_op)
                self.cache.truncate_dirty(ino, size)
                yield from self.cluster.truncate(ino, size)
                self._sizes[ino] = size
            finally:
                self._locking.release(token)

    # -- flushing -----------------------------------------------------------------

    def _flush_ino(self, task, ino, max_bytes=None):
        """Flush dirty extents of ``ino`` on the caller's thread.

        On a backend failure the unwritten extents are *re-dirtied*
        before the error propagates — buffered data is never lost to a
        transient fault; the flusher simply tries again next interval.
        """
        # The per-ino lock is held for the whole flush: from take_dirty
        # until the cluster writes land, the extents are in flight — gone
        # from the dirty buffer but not yet readable from the OSDs. A read
        # slipping in between would fetch stale object data, so readers
        # and writers of this ino wait out the flush (the in-flight "tx"
        # state of the real ObjectCacher).
        obs = self.sim.observer
        span = obs.span(task, "client.flush", "client",
                        ino=ino) if obs is not None else None
        try:
            flushed = yield from self._flush_ino_locked(task, ino, max_bytes)
        finally:
            if span is not None:
                span.end()
        return flushed

    def _flush_ino_locked(self, task, ino, max_bytes):
        if self._locking.wants_range_data():
            return (yield from self._flush_ino_ranged(task, ino, max_bytes))
        token = yield from self._locking.acquire_state(ino, who=task)
        try:
            extents = self.cache.take_dirty(ino, max_bytes)
            if not extents:
                return 0
            # Until the MDS size lands the buffer looks clean while the
            # data is still only ours; pin the local size so a concurrent
            # revalidating open cannot adopt a stale MDS length.
            self._size_pin(ino)
            try:
                flushed = yield from self._send_batch(task, ino, extents)
                yield from self._publish_and_adopt(ino)
            finally:
                self._size_unpin(ino)
        finally:
            self._locking.release(token)
        return self._flush_done(ino, flushed)

    def _flush_ino_ranged(self, task, ino, max_bytes):
        """Range-policy flush: three sections instead of one long hold.

        1. *State* section: take the dirty batch, pin the size, and —
           still under the inode lock, so the order inode < range holds —
           acquire the range locks covering the batch.
        2. Network phase under the *range locks only*: the in-flight
           extents left the dirty buffer but have not landed on the
           OSDs, so reads and writes of those stripes wait — but every
           other stripe of the file stays available, which is the point
           of the range policy. The inode lock is never reacquired while
           ranges are held (deadlock freedom).
        3. *State* section: publish the flushed size to the MDS and
           unpin. A failure re-dirties the batch before propagating,
           exactly like the coarse path.
        """
        locking = self._locking
        held = []
        state = yield from locking.acquire_state(ino, who=task)
        try:
            extents = self.cache.take_dirty(ino, max_bytes)
            if not extents:
                return 0
            self._size_pin(ino)
            try:
                for lock in locking.extent_range_locks(ino, extents):
                    yield lock.acquire(who=task)
                    held.append(lock)
            except BaseException:
                # Killed while queueing for a range: nothing was sent, so
                # the whole batch goes back to the dirty buffer.
                self._redirty(ino, extents)
                self._size_unpin(ino)
                raise
        finally:
            locking.release(state)
        try:
            # A failure re-dirties under the still-held range locks.
            flushed = yield from self._send_batch(task, ino, extents)
        except (FsError, ThreadKilled):
            self._size_unpin(ino)
            raise
        finally:
            locking.release(tuple(held))
        state = yield from locking.acquire_state(ino, who=task)
        try:
            yield from self._publish_and_adopt(ino)
        finally:
            self._size_unpin(ino)
            locking.release(state)
        return self._flush_done(ino, flushed)

    def _send_batch(self, task, ino, extents):
        """Payload CPU plus the cluster write of one taken batch, under
        whatever locks the caller holds; re-dirties it on failure."""
        try:
            nbytes = sum(len(data) for _off, data in extents)
            yield from task.cpu(self.costs.payload_cost(nbytes))
            # One vectored fan-out carries the whole batch: contiguous
            # runs coalesce per target OSD instead of paying one RPC per
            # dirty block.
            return (yield from self.cluster.write_vector(ino, extents))
        except (FsError, ThreadKilled):
            self._redirty(ino, extents)
            self.metrics.counter("flush_failures").add(1)
            raise

    def _redirty(self, ino, extents):
        """Put a taken batch back whole: with fan-out any subset may have
        landed, and rewriting a landed extent is idempotent (same bytes,
        same offset)."""
        for r_offset, r_data in extents:
            self.cache.write(ino, r_offset, r_data)
        self._dirty_since.setdefault(ino, self.sim.now)

    def _publish_and_adopt(self, ino):
        """Size publication of a flush, under the inode's state lock —
        which is what makes adopting the returned attributes safe here."""
        landed = yield from self._publish_flushed_size(ino)
        if landed is not None:
            self._remember(*landed)

    def _flush_done(self, ino, flushed):
        if not self._dirty_buffer(ino):
            self._dirty_since.pop(ino, None)
        self.metrics.counter("bytes_flushed").add(flushed)
        if self.sim.observer is not None:
            self.sim.trace("client", "flush", client=self.name, bytes=flushed)
        self._notify_flush_progress()
        return flushed

    def _notify_flush_progress(self):
        waiters, self._flush_waiters = self._flush_waiters, []
        for event in waiters:
            event.succeed()

    def flush_all(self, task):
        """Flush every dirty file (used by shutdown and tests)."""
        total = 0
        for ino in list(self.cache.dirty_inos()):
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

        flusher_tasks = [Task(thread) for thread in self.flusher_threads]
        while not self._stopped:
            yield self.costs.writeback_interval
            if self._stopped:
                return
            background = self.cache.dirty_bytes > self.max_dirty // 2
            jobs = []
            for slot, ino in enumerate(list(self.cache.dirty_inos())):
                since = self._dirty_since.get(ino, self.sim.now)
                expired = self.sim.now - since >= self.costs.expire_interval
                if background or expired:
                    flusher_task = flusher_tasks[slot % len(flusher_tasks)]
                    jobs.append(self.sim.spawn(
                        task_flush(self, flusher_task, ino),
                        name="%s.flush" % self.name,
                    ))
            if jobs:
                yield self.sim.all_of(jobs)

    def stop(self):
        self._stopped = True
        if self._lock_controller is not None:
            self._lock_controller.stop()


def task_flush(client, task, ino):
    """Module-level flush helper (kept separate for ablation hooks)."""
    try:
        yield from client._flush_ino(task, ino, max_bytes=client.costs.flush_batch)
    except FsError:
        pass  # re-dirtied inside _flush_ino; retried next interval

"""The kernel CephFS client personality.

Protocol-wise identical to the user-level client — the same MDS calls, the
same object striping — but executed through the *shared kernel* machinery:

* data caching in the host page cache (global LRU, global dirty accounting,
  cgroup charging);
* dirty flushing by the kernel writeback daemon, whose flusher threads run
  on any activated core of the host (core stealing);
* ``i_mutex_key`` / ``i_mutex_dir_key`` / superblock / global locks around
  the same sections a real kernel filesystem serialises.

This is the "mature kernel-based client" (configuration **K**) that wins
cached reads and collapses under colocation in the paper.
"""

from repro.cephclient.mount import CephMount
from repro.fs import pathutil
from repro.fs.api import O_APPEND
from repro.fs.readahead import Readahead

__all__ = ["CephKernelFs"]


class CephKernelFs(CephMount):
    """Kernel-based CephFS mount: shared page cache, kernel writeback."""

    _next_fs_id = [1]

    def __init__(self, kernel, cluster, name="cephfs"):
        super().__init__(kernel.sim, cluster, kernel.costs, name)
        self.kernel = kernel
        self.fs_id = CephKernelFs._next_fs_id[0]
        CephKernelFs._next_fs_id[0] += 1
        #: stream positions and pipelined readahead, keyed by ino
        self._readahead = Readahead(
            self.sim, name, self._scan, self._fill, self._local_size
        )

    # -- helpers ----------------------------------------------------------

    def _cache_key(self, ino):
        return ("cephk", self.fs_id, ino)

    def _cached_file(self, ino):
        def flush_fn(nbytes, _pages):
            yield from self._flush_bytes(ino, nbytes)

        return self.kernel.page_cache.file(self._cache_key(ino), flush_fn)

    def _flush_bytes(self, ino, nbytes):
        """Push up to ``nbytes`` of dirty extents to the cluster (two
        flushers may send disjoint batches of one inode at once)."""
        batch = yield from self.unflushed.take(ino, nbytes)
        if batch is None:
            return
        try:
            try:
                # Messenger send processing happens in host-wide kworkers;
                # one scatter-gather pass covers the whole coalesced batch.
                yield from self.kernel.workqueue.execute(
                    batch.nbytes / self.costs.kernel_wq_bandwidth
                )
                yield from self.cluster.write_vector(ino, batch.extents)
            except BaseException:
                # Writers do not wait for a flush (no i_mutex here): the
                # batch goes back beneath their bytes for the next flush.
                # Rewriting a piece that did land is idempotent.
                self.unflushed.put_back(batch)
                raise
            batch.sent.succeed()  # the bytes are on the OSDs
            # The attributes the MDS returns are deliberately not adopted
            # (the user-level flush adopts them in a state section):
            # remembering them here moves the K Fileserver rows. An MDS
            # that cannot take the size gets it re-sent later.
            yield from self._publish_flushed_size(ino)
        finally:
            self.unflushed.land(batch)

    def _account(self, task):
        if task.pool is not None:
            return task.pool.ram
        return self.kernel.machine.ram

    def _inode_lock(self, ino):
        return self.kernel.locks.get(
            "i_mutex_key", (self.fs_id, ino), scope=self.name
        )

    def _dir_lock(self, path):
        return self.kernel.locks.get(
            "i_mutex_dir_key", (self.fs_id, path), scope=self.name
        )

    def _sb_lock(self):
        return self.kernel.locks.get(
            "sb_lock", ("cephk", self.fs_id), scope=self.name
        )

    # -- personality hooks (see CephMount) --------------------------------

    def _enter(self, task, op, path):
        """VFS entry CPU, then the kernel lock sections the op crosses."""
        locks = self.kernel.locks
        section = self.costs.kernel_lock_section
        if op in ("stat", "close"):
            yield from task.cpu(self.costs.fs_op / 2)
            return
        yield from task.cpu(self.costs.fs_op)
        if op == "open":
            return
        if op == "readdir":
            yield from locks.locked_section(
                task, self._dir_lock(pathutil.normalize(path)), section / 2
            )
            return
        yield from locks.locked_section(
            task, self._dir_lock(pathutil.parent_of(path)), section
        )
        if op == "create":
            yield from locks.locked_section(task, self._sb_lock(), section)
        if op in ("create", "unlink"):
            yield from locks.locked_section(
                task, locks.get("inode_hash_lock"), section / 2
            )

    def _forget(self, ino):
        self.kernel.page_cache.drop_file(self._cache_key(ino))
        self._readahead.forget(ino)

    def _truncate_data(self, task, ino, size, cut):
        """Hold new flushes of the inode and drain it, cut its bytes, size
        and pages in one ``i_mutex_key`` section, then run ``cut`` with no
        lock held; flushes resume after it, so none lands past the cut."""
        try:
            yield from self.unflushed.hold(ino)
            inode_lock = self._inode_lock(ino)
            yield inode_lock.acquire(who=task)
            try:
                yield from task.cpu(self.costs.kernel_lock_section)
                # Keep unflushed bytes below the cut; drop the rest.
                self.unflushed.truncate(ino, size)
                self._sizes[ino] = size
                if size == 0:
                    self.kernel.page_cache.drop_file(self._cache_key(ino))
                    self._readahead.forget(ino)
            finally:
                inode_lock.release()
            if cut is not None:
                return (yield from cut)
        finally:
            self.unflushed.release(ino)

    # -- data path ----------------------------------------------------------

    def read(self, task, handle, offset, size):
        ino = self._live_ino(handle)
        yield from task.cpu(self.costs.fs_op)
        file_size = self._file_size(ino)
        if offset >= file_size or size <= 0:
            return b""
        size = min(size, file_size - offset)
        cf = self._cached_file(ino)
        hit_pages, miss_ranges = self.kernel.page_cache.scan(cf, offset, size)
        if hit_pages:
            yield from task.cpu(self.costs.page_op * hit_pages)
        sequential = self._readahead.sequential(ino, offset)
        if miss_ranges:
            yield from self._readahead.fetch(task, ino, offset, size, file_size,
                                             sequential, hit_pages, miss_ranges)
        # A sequential read launches the next window as a detached
        # prefetch while the caller copies the current one out.
        self._readahead.advance(ino, offset + size, sequential, file_size, task)
        base = self.cluster.peek(ino, offset, size)
        data = self.unflushed.overlay(ino, offset, size, base)
        self.metrics.counter("bytes_read").add(size)
        return data[:size]

    def _scan(self, task, ino, offset, size, hits):
        """Readahead scan hook: the missing ranges of the file's page
        cache entry, or None once it was dropped (unlink/truncate)."""
        cf = self.kernel.page_cache.peek(self._cache_key(ino))
        if cf is None:
            return None
        rescanned, missing = self.kernel.page_cache.scan(cf, offset, size)
        if task is not None and rescanned > hits:
            yield from task.cpu(self.costs.page_op * (rescanned - hits))
        return missing

    def _fill(self, task, ino, offset, size, sequential, owner):
        """Readahead fill hook: fetch one range and insert it, charged to
        ``owner``'s cgroup, into the page cache entry that was live when
        the fetch started — and only while that entry still is."""
        key = self._cache_key(ino)
        cf = self.kernel.page_cache.peek(key)
        yield from self.cluster.read_extent(ino, offset, size)
        # Messenger receive processing in host-wide kworkers — exactly the
        # work readahead pipelines. Sequential reads overlap DMA; random
        # reads pay the full per-request completion path (see CostModel).
        read_bw = (
            self.costs.kernel_wq_read_bandwidth if sequential
            else self.costs.kernel_wq_rand_read_bandwidth
        )
        yield from self.kernel.workqueue.execute(size / read_bw)
        if cf is not None and self.kernel.page_cache.peek(key) is cf:
            self.kernel.page_cache.insert(cf, offset, size, self._account(owner))
        if task is not None:
            yield from task.cpu(
                self.costs.page_op * self.costs.pages_of(offset, size)
            )

    def write(self, task, handle, offset, data):
        ino = self._live_ino(handle)
        append = bool(int(handle.flags) & O_APPEND)
        yield from task.cpu(self.costs.fs_op)
        cf = self._cached_file(ino)
        account = self._account(task)
        inode_lock = self._inode_lock(ino)
        yield inode_lock.acquire(who=task)
        try:
            if append:
                # The O_APPEND offset is resolved under i_rwsem, as the
                # kernel client does: concurrent appenders each see the
                # size the other already advanced.
                offset = self._local_size(ino)
            pages = self.costs.pages_of(offset, len(data))
            yield from task.cpu(
                self.costs.kernel_lock_section + self.costs.page_op * pages
            )
            self.unflushed.write(ino, offset, data)
            self._sizes[ino] = max(self._local_size(ino), offset + len(data))
            self.kernel.page_cache.mark_dirty(
                cf, offset, len(data), self.sim.now, account
            )
        finally:
            inode_lock.release()
        # Page allocation touches the host-global LRU lock (see LocalFs).
        yield from self.kernel.locks.locked_section(
            task, self.kernel.locks.get("lru_lock"),
            self.costs.kernel_lock_section / 4,
        )
        self.metrics.counter("bytes_written").add(len(data))
        yield from self.kernel.writeback.balance_dirty_pages(task, account)
        return len(data)

    def fsync(self, task, handle):
        ino = self._live_ino(handle)
        yield from task.cpu(self.costs.fs_op)
        cf = self.kernel.page_cache.peek(self._cache_key(ino))
        if cf is not None:
            yield from self.kernel.writeback.fsync(task, cf)
        # Anything the page bookkeeping missed still drains here.
        yield from self._flush_bytes(ino, None)
        # Another flusher's batch must land too; a failed one goes here.
        while self.unflushed.batches(ino):
            yield from self.unflushed.drain(ino)
            yield from self._flush_bytes(ino, None)

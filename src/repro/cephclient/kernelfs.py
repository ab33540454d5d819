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

from repro.cephclient.extents import ExtentBuffer
from repro.common.errors import (
    BadFileDescriptor,
    FsError,
    InvalidArgument,
    IsADirectory,
    ThreadKilled,
)
from repro.fs import pathutil
from repro.fs.api import FileHandle, FileStat, Filesystem, OpenFlags
from repro.fs.readahead import Prefetcher, next_window, plan_fetch
from repro.metrics import MetricSet

__all__ = ["CephKernelFs"]

#: Cached negative dentry (the kernel dentry cache caches ENOENT too).
_NEGATIVE = object()


class _KernelCephHandle(FileHandle):
    __slots__ = ("ino",)

    def __init__(self, fs, path, flags, ino):
        super().__init__(fs, path, flags)
        self.ino = ino


class CephKernelFs(Filesystem):
    """Kernel-based CephFS mount: shared page cache, kernel writeback."""

    _next_fs_id = [1]

    def __init__(self, kernel, cluster, name="cephfs", readahead_bytes=128 * 1024,
                 direct_io=False):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.cluster = cluster
        #: kernel client's osdmap-epoch view, kept current by a monitor
        #: subscription (mirrors the libceph client's map push)
        self.osdmap_epoch = cluster.monitor.epoch
        cluster.monitor.subscribe(self._on_osdmap)
        self.name = name
        self.readahead_bytes = readahead_bytes
        self.direct_io = direct_io
        self.fs_id = CephKernelFs._next_fs_id[0]
        CephKernelFs._next_fs_id[0] += 1
        self.attr_cache = {}  # path -> InodeInfo
        self._sizes = {}  # ino -> local size view
        self._paths = {}  # ino -> path for size flush
        self._pending = {}  # ino -> ExtentBuffer of unflushed bytes
        #: pipelined readahead: one detached next-window prefetch per ino
        self._prefetcher = Prefetcher(self.sim)
        self.metrics = MetricSet(name)
        #: exactly-once metadata stamps (allocated lazily when HA arms)
        self._mds_session_id = None
        self._mds_op_seq = 0

    # -- helpers ----------------------------------------------------------

    def _mds_op_ids(self):
        """Stamps for one mutating metadata op (exactly-once resends).

        Disarmed this is ``{}`` — the single-MDS event schedule is
        untouched. Armed, the ``(client_id, op_id)`` pair is journaled
        with the mutation so a post-failover resend dedups instead of
        re-running (see CephLibClient._mds_op_ids).
        """
        if self.cluster.mds_service is None:
            return {}
        if self._mds_session_id is None:
            self._mds_session_id = self.cluster.mds_session_id()
        self._mds_op_seq += 1
        return {"client_id": self._mds_session_id,
                "op_id": self._mds_op_seq}

    def _on_osdmap(self, osdmap):
        """Monitor pushed a new osdmap (membership/CRUSH change)."""
        self.osdmap_epoch = osdmap.epoch

    def _cache_key(self, ino):
        return ("cephk", self.fs_id, ino)

    def _cached_file(self, ino):
        def flush_fn(nbytes, _pages):
            yield from self._flush_bytes(ino, nbytes)

        return self.kernel.page_cache.file(self._cache_key(ino), flush_fn)

    def _flush_bytes(self, ino, nbytes):
        """Push up to ``nbytes`` of pending extents to the cluster."""
        buffer = self._pending.get(ino)
        if buffer is None or not buffer:
            return
        extents = buffer.take(nbytes)
        if extents:
            total = sum(len(data) for _off, data in extents)
            try:
                # Messenger send processing happens in host-wide kworkers;
                # one scatter-gather pass covers the whole coalesced batch.
                yield from self.kernel.workqueue.execute(
                    total / self.costs.kernel_wq_bandwidth
                )
                yield from self.cluster.write_vector(ino, extents)
            except (FsError, ThreadKilled):
                # The batch is in flight nowhere else: put it back so the
                # next flush retries it. Writers do not wait for a flush
                # (no i_mutex here), so bytes buffered meanwhile are newer
                # and stay on top. Rewriting a piece that did land is
                # idempotent (same bytes, same offset).
                buffer.put_back(extents)
                raise
        path = self._paths.get(ino)
        if path is not None:
            from repro.common.errors import FileNotFound

            try:
                yield from self.cluster.mds_call(
                    "setattr_size", path, self._sizes.get(ino, 0),
                    **self._mds_op_ids()
                )
            except FileNotFound:
                pass

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

    def _remember(self, path, info):
        self.attr_cache[path] = info
        self._paths[info.ino] = path
        pending = self._pending.get(info.ino)
        if pending is None or not pending:
            self._sizes[info.ino] = info.size

    def _local_size(self, ino, fallback=0):
        return self._sizes.get(ino, fallback)

    # -- Filesystem interface ---------------------------------------------------

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        path = pathutil.normalize(path)
        yield from task.cpu(self.costs.fs_op)
        if flags & OpenFlags.CREAT:
            yield from self.kernel.locks.locked_section(
                task, self._dir_lock(pathutil.parent_of(path)),
                self.costs.kernel_lock_section,
            )
            yield from self.kernel.locks.locked_section(
                task, self._sb_lock(), self.costs.kernel_lock_section
            )
            yield from self.kernel.locks.locked_section(
                task, self.kernel.locks.get("inode_hash_lock"),
                self.costs.kernel_lock_section / 2,
            )
            info = yield from self.cluster.mds_call(
                "create", path, bool(flags & OpenFlags.EXCL), mode,
                **self._mds_op_ids()
            )
        else:
            from repro.common.errors import FileNotFound

            try:
                info = yield from self.cluster.mds_call("lookup", path)
            except FileNotFound:
                self.attr_cache[path] = _NEGATIVE
                raise
        if info.is_dir and flags.wants_write:
            raise IsADirectory(path=path)
        self._remember(path, info)
        if flags & OpenFlags.TRUNC and not info.is_dir:
            yield from self._truncate_ino(task, info.ino, path, 0)
        self.metrics.counter("opens").add(1)
        return _KernelCephHandle(self, path, flags, info.ino)

    def close(self, task, handle):
        yield from task.cpu(self.costs.fs_op / 2)
        handle.closed = True

    def read(self, task, handle, offset, size):
        ino = self._live_ino(handle)
        yield from task.cpu(self.costs.fs_op)
        pending = self._pending.get(ino)
        file_size = max(
            self._local_size(ino), pending.max_end() if pending else 0
        )
        if offset >= file_size or size <= 0:
            return b""
        size = min(size, file_size - offset)
        if self.direct_io:
            data = yield from self.cluster.read_extent(ino, offset, size)
            base = data if len(data) >= size else self.cluster.peek(ino, offset, size)
            out = pending.overlay(offset, size, base) if pending else bytes(base)
            self.metrics.counter("bytes_read").add(len(out))
            return out[:size]
        cf = self._cached_file(ino)
        hit_pages, miss_ranges = self.kernel.page_cache.scan(cf, offset, size)
        if hit_pages:
            yield from task.cpu(self.costs.page_op * hit_pages)
        account = self._account(task)
        sequential = offset == cf.read_sequential_end
        if sequential and miss_ranges and self._prefetcher.active(ino):
            # Adopt the in-flight next-window prefetch instead of issuing
            # a duplicate fetch, then rescan for what is still missing.
            yield from self._prefetcher.join(ino)
            rescanned, miss_ranges = self.kernel.page_cache.scan(
                cf, offset, size
            )
            if rescanned > hit_pages:
                yield from task.cpu(
                    self.costs.page_op * (rescanned - hit_pages)
                )
        for miss_offset, miss_size in miss_ranges:
            fetch = plan_fetch(miss_offset, miss_size, file_size,
                               self.readahead_bytes, sequential)
            yield from self.cluster.read_extent(ino, miss_offset, fetch)
            # Messenger receive processing in kworkers. Sequential reads
            # pipeline through readahead and overlap DMA; random reads pay
            # the full per-request completion path (see CostModel).
            read_bw = (
                self.costs.kernel_wq_read_bandwidth if sequential
                else self.costs.kernel_wq_rand_read_bandwidth
            )
            yield from self.kernel.workqueue.execute(fetch / read_bw)
            self.kernel.page_cache.insert(cf, miss_offset, fetch, account)
            yield from task.cpu(
                self.costs.page_op * self.costs.pages_of(miss_offset, fetch)
            )
        cf.read_sequential_end = offset + size
        if sequential:
            # Pipelined readahead: prefetch the next window detached while
            # the caller copies the current one out.
            window = next_window(offset + size, self.readahead_bytes,
                                 file_size)
            if window is not None:
                self._prefetcher.launch(
                    ino, self._prefetch(ino, window[0], window[1], account),
                    name="%s.readahead" % self.name,
                )
        base = self.cluster.peek(ino, offset, size)
        data = pending.overlay(offset, size, base) if pending else base
        self.metrics.counter("bytes_read").add(size)
        return data[:size]

    def _prefetch(self, ino, offset, size, account):
        """Detached next-window prefetch into the shared page cache."""
        cf = self.kernel.page_cache.peek(self._cache_key(ino))
        if cf is None:
            return  # dropped (unlink/truncate) while queued
        _hits, missing = self.kernel.page_cache.scan(cf, offset, size)
        for miss_offset, miss_size in missing:
            miss_size = min(
                miss_size, max(self._local_size(ino) - miss_offset, 0)
            )
            if miss_size <= 0:
                continue
            yield from self.cluster.read_extent(ino, miss_offset, miss_size)
            # Receive processing still runs in the host-wide kworkers —
            # this is exactly the messenger work that readahead pipelines.
            yield from self.kernel.workqueue.execute(
                miss_size / self.costs.kernel_wq_read_bandwidth
            )
            cf = self.kernel.page_cache.peek(self._cache_key(ino))
            if cf is None:
                return
            self.kernel.page_cache.insert(cf, miss_offset, miss_size, account)

    def write(self, task, handle, offset, data):
        ino = self._live_ino(handle)
        append = bool(handle.flags & OpenFlags.APPEND)
        yield from task.cpu(self.costs.fs_op)
        if self.direct_io:
            from repro.common.errors import FileNotFound

            if append:
                # Resolved after the entry CPU slice, atomically with the
                # dispatch of the backend write.
                offset = self._local_size(ino)
            yield from self.cluster.write_extent(ino, offset, data)
            new_size = max(self._local_size(ino), offset + len(data))
            self._sizes[ino] = new_size
            path = self._paths.get(ino)
            if path is not None:
                try:
                    yield from self.cluster.mds_call(
                        "setattr_size", path, new_size,
                        **self._mds_op_ids()
                    )
                except FileNotFound:
                    pass  # concurrently unlinked
            self.metrics.counter("bytes_written").add(len(data))
            return len(data)
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
            buffer = self._pending.get(ino)
            if buffer is None:
                buffer = self._pending[ino] = ExtentBuffer()
            buffer.write(offset, data)
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

    def stat(self, task, path):
        from repro.common.errors import FileNotFound

        path = pathutil.normalize(path)
        yield from task.cpu(self.costs.fs_op / 2)
        info = self.attr_cache.get(path)
        if info is _NEGATIVE:
            raise FileNotFound(path=path)
        if info is None:
            try:
                info = yield from self.cluster.mds_call("lookup", path)
            except FileNotFound:
                self.attr_cache[path] = _NEGATIVE
                raise
            self._remember(path, info)
        size = self._local_size(info.ino, info.size)
        return FileStat(info.ino, info.is_dir, size, info.mtime, info.nlink)

    def mkdir(self, task, path, mode=0o755):
        yield from task.cpu(self.costs.fs_op)
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(pathutil.parent_of(path)),
            self.costs.kernel_lock_section,
        )
        info = yield from self.cluster.mds_call("mkdir", path, mode,
                                                **self._mds_op_ids())
        self._remember(pathutil.normalize(path), info)

    def rmdir(self, task, path):
        yield from task.cpu(self.costs.fs_op)
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(pathutil.parent_of(path)),
            self.costs.kernel_lock_section,
        )
        yield from self.cluster.mds_call("rmdir", path,
                                         **self._mds_op_ids())
        self.attr_cache[pathutil.normalize(path)] = _NEGATIVE

    def unlink(self, task, path):
        path = pathutil.normalize(path)
        yield from task.cpu(self.costs.fs_op)
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(pathutil.parent_of(path)),
            self.costs.kernel_lock_section,
        )
        yield from self.kernel.locks.locked_section(
            task, self.kernel.locks.get("inode_hash_lock"),
            self.costs.kernel_lock_section / 2,
        )
        ino, _size = yield from self.cluster.mds_call(
            "unlink", path, **self._mds_op_ids()
        )
        self.cluster.purge(ino)
        self.kernel.page_cache.drop_file(self._cache_key(ino))
        self._prefetcher.forget(ino)
        self._pending.pop(ino, None)
        self.attr_cache[path] = _NEGATIVE
        self._sizes.pop(ino, None)
        self._paths.pop(ino, None)
        self.metrics.counter("unlinks").add(1)

    def readdir(self, task, path):
        yield from task.cpu(self.costs.fs_op)
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(pathutil.normalize(path)),
            self.costs.kernel_lock_section / 2,
        )
        names = yield from self.cluster.mds_call("readdir", path)
        yield from task.cpu(self.costs.dirent_op * max(len(names), 1))
        return names

    def rename(self, task, old_path, new_path):
        old_path = pathutil.normalize(old_path)
        new_path = pathutil.normalize(new_path)
        yield from task.cpu(self.costs.fs_op)
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(pathutil.parent_of(old_path)),
            self.costs.kernel_lock_section,
        )
        yield from self.cluster.mds_call("rename", old_path, new_path,
                                         **self._mds_op_ids())
        info = self.attr_cache.get(old_path)
        self.attr_cache[old_path] = _NEGATIVE
        if info is not None and info is not _NEGATIVE:
            self._remember(new_path, info)

    def truncate(self, task, path, size):
        path = pathutil.normalize(path)
        info = self.attr_cache.get(path)
        if info is None or info is _NEGATIVE:
            info = yield from self.cluster.mds_call("lookup", path)
            self._remember(path, info)
        yield from self._truncate_ino(task, info.ino, path, size)

    def _truncate_ino(self, task, ino, path, size):
        from repro.common.errors import FileNotFound

        yield from self.kernel.locks.locked_section(
            task, self._inode_lock(ino), self.costs.kernel_lock_section
        )
        pending = self._pending.get(ino)
        if pending is not None:
            # Keep unflushed bytes below the cut; drop the rest.
            pending.truncate(size)
        yield from self.cluster.truncate(ino, size)
        self._sizes[ino] = size
        if size == 0:
            self.kernel.page_cache.drop_file(self._cache_key(ino))
        try:
            info = yield from self.cluster.mds_call(
                "setattr_size", path, size, **self._mds_op_ids()
            )
        except FileNotFound:
            return  # concurrently unlinked; the open handle stays usable
        self._remember(path, info)

    def peek(self, path, offset, size):
        """Zero-cost resident-data read (see Filesystem.peek)."""
        info = self.attr_cache.get(pathutil.normalize(path))
        if info is None or info is _NEGATIVE or info.is_dir:
            return None
        ino = info.ino
        pending = self._pending.get(ino)
        file_size = max(
            self._local_size(ino, info.size), pending.max_end() if pending else 0
        )
        if offset >= file_size:
            return b""
        size = min(size, file_size - offset)
        base = self.cluster.peek(ino, offset, size)
        out = pending.overlay(offset, size, base) if pending else base
        return out[:size]

    def _live_ino(self, handle):
        if handle.closed:
            raise BadFileDescriptor(path=handle.path)
        if not isinstance(handle, _KernelCephHandle):
            raise InvalidArgument("foreign handle %r" % (handle,))
        return handle.ino

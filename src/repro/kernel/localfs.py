"""An ext4-like local filesystem over a simulated block device.

This is the substrate for the paper's *local* workloads: Stress-ng
RandomIO and Filebench Webserver both run on "ext4 over 4 local disks in
RAID-0". The filesystem keeps its authoritative state in a
:class:`~repro.fs.memtree.MemTree` and uses the host kernel's shared page
cache, lock registry and writeback daemon — so its I/O *does* interfere
with every other kernel-path filesystem on the host, which is the point.

Locking follows the kernel convention the paper profiles:

* writes hold the file's ``i_mutex_key`` while dirtying pages;
* namespace changes hold the parent's ``i_mutex_dir_key``;
* inode allocation/eviction briefly holds the per-superblock ``sb_lock``
  and the host-global ``inode_hash_lock``.
"""

from repro.common.errors import (
    BadFileDescriptor,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
)
from repro.fs import pathutil
from repro.fs.api import FileHandle, FileStat, Filesystem, OpenFlags
from repro.fs.memtree import MemTree
from repro.fs.readahead import plan_fetch

__all__ = ["LocalFs"]


def _contiguous_runs(sorted_pages):
    """Group sorted page indices into (start, count) contiguous runs."""
    runs = []
    for index in sorted_pages:
        if runs and index == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([index, 1])
    return [(start, count) for start, count in runs]


class _LocalHandle(FileHandle):
    __slots__ = ("node", "path_key")

    def __init__(self, fs, path, flags, node):
        super().__init__(fs, path, flags)
        self.node = node
        self.path_key = path


class LocalFs(Filesystem):
    """ext4-like filesystem: MemTree state, page cache, kernel locks."""

    _next_fs_id = [1]

    def __init__(self, kernel, device, name="ext4", direct_io=False):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.device = device
        self.name = name
        self.direct_io = direct_io
        self.tree = MemTree()
        self.fs_id = LocalFs._next_fs_id[0]
        LocalFs._next_fs_id[0] += 1
        self.metrics = kernel.sim.metrics("localfs:%s" % name)

    # -- helpers ---------------------------------------------------------

    def _cache_key(self, node):
        return ("localfs", self.fs_id, node.ino)

    def _cached_file(self, node):
        device = self.device

        def flush_fn(nbytes, pages):
            # Writeback efficiency depends on dirty-page contiguity: a
            # sequentially-written file flushes in one large transfer; a
            # randomly-dirtied one (Stress-ng RandomIO) degenerates into an
            # elevator pass over many scattered runs, each paying a
            # positioning delay — this is what monopolises the flushers.
            runs = _contiguous_runs(sorted(pages))
            if len(runs) <= 1:
                yield from device.transfer(nbytes, write=True)
                return
            yield from device.transfer(
                nbytes, write=True, random_access=True, positions=len(runs)
            )

        return self.kernel.page_cache.file(self._cache_key(node), flush_fn)

    def _account(self, task):
        if task.pool is not None:
            return task.pool.ram
        return self.kernel.machine.ram

    def _inode_lock(self, node):
        return self.kernel.locks.get(
            "i_mutex_key", (self.fs_id, node.ino), scope=self.name
        )

    def _dir_lock(self, node):
        return self.kernel.locks.get(
            "i_mutex_dir_key", (self.fs_id, node.ino), scope=self.name
        )

    def _sb_lock(self):
        return self.kernel.locks.get(
            "sb_lock", ("localfs", self.fs_id), scope=self.name
        )

    def _inode_hash_lock(self):
        return self.kernel.locks.get("inode_hash_lock")

    def _op_cpu(self, task, seconds=None):
        yield from task.cpu(self.costs.fs_op if seconds is None else seconds)

    # -- Filesystem interface --------------------------------------------------

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        path = pathutil.normalize(path)
        yield from self._op_cpu(task)
        node = self.tree.try_lookup(path)
        if node is None:
            if not flags & OpenFlags.CREAT:
                raise FileNotFound(path=path)
            parent = self.tree.lookup_dir(pathutil.parent_of(path))
            dir_lock = self._dir_lock(parent)
            yield from self.kernel.locks.locked_section(
                task, dir_lock, self.costs.kernel_lock_section
            )
            # Inode allocation touches the superblock and the global hash.
            yield from self.kernel.locks.locked_section(
                task, self._sb_lock(), self.costs.kernel_lock_section
            )
            yield from self.kernel.locks.locked_section(
                task, self._inode_hash_lock(), self.costs.kernel_lock_section / 2
            )
            node = self.tree.create_file(
                path, now=self.sim.now,
                exclusive=bool(flags & OpenFlags.EXCL), mode=mode,
            )
            self.metrics.counter("creates").add(1)
        elif flags & OpenFlags.EXCL and flags & OpenFlags.CREAT:
            from repro.common.errors import FileExists

            raise FileExists(path=path)
        if node.is_dir and flags.wants_write:
            raise IsADirectory(path=path)
        if flags & OpenFlags.TRUNC and not node.is_dir:
            yield from self._truncate_node(task, node, 0)
        handle = _LocalHandle(self, path, flags, node)
        self.metrics.counter("opens").add(1)
        return handle

    def close(self, task, handle):
        yield from self._op_cpu(task, self.costs.fs_op / 2)
        handle.closed = True

    def read(self, task, handle, offset, size):
        node = self._live_node(handle)
        yield from self._op_cpu(task)
        data = node.read(offset, size)
        if not data:
            return b""
        if self.direct_io:
            yield from self.device.transfer(len(data), random_access=True)
            self.metrics.counter("bytes_read").add(len(data))
            return data
        cf = self._cached_file(node)
        hit_pages, miss_ranges = self.kernel.page_cache.scan(
            cf, offset, len(data)
        )
        if hit_pages:
            yield from task.cpu(self.costs.page_op * hit_pages)
        account = self._account(task)
        sequential = offset == cf.read_sequential_end
        for miss_offset, miss_size in miss_ranges:
            fetch_size = plan_fetch(miss_offset, miss_size, node.size,
                                    sequential)
            yield from self.device.transfer(
                fetch_size, random_access=not sequential
            )
            self.kernel.page_cache.insert(cf, miss_offset, fetch_size, account)
            yield from task.cpu(
                self.costs.page_op * self.costs.pages_of(miss_offset, fetch_size)
            )
        cf.read_sequential_end = offset + len(data)
        self.metrics.counter("bytes_read").add(len(data))
        return data

    def write(self, task, handle, offset, data):
        node = self._live_node(handle)
        if handle.flags & OpenFlags.APPEND:
            offset = node.size
        yield from self._op_cpu(task)
        if self.direct_io:
            written = self.tree.write_node(node, offset, data, now=self.sim.now)
            yield from self.device.transfer(
                len(data), write=True, random_access=True
            )
            self.metrics.counter("bytes_written").add(written)
            return written
        cf = self._cached_file(node)
        account = self._account(task)
        inode_lock = self._inode_lock(node)
        pages = self.costs.pages_of(offset, len(data))
        yield inode_lock.acquire(who=task)
        try:
            # Dirtying pages happens under i_mutex: holds grow with I/O size
            # and with core contention, the amplification of Fig. 1b.
            yield from task.cpu(
                self.costs.kernel_lock_section + self.costs.page_op * pages
            )
            written = self.tree.write_node(node, offset, data, now=self.sim.now)
            self.kernel.page_cache.mark_dirty(
                cf, offset, len(data), self.sim.now, account
            )
        finally:
            inode_lock.release()
        # Page allocation touches the host-global LRU lock — contention
        # here couples pools that share nothing but the kernel.
        yield from self.kernel.locks.locked_section(
            task, self.kernel.locks.get("lru_lock"),
            self.costs.kernel_lock_section / 4,
        )
        self.metrics.counter("bytes_written").add(written)
        # Throttle outside the lock, like balance_dirty_pages().
        yield from self.kernel.writeback.balance_dirty_pages(task, account)
        return written

    def fsync(self, task, handle):
        node = self._live_node(handle)
        yield from self._op_cpu(task)
        cf = self.kernel.page_cache.peek(self._cache_key(node))
        if cf is not None:
            yield from self.kernel.writeback.fsync(task, cf)

    def stat(self, task, path):
        yield from self._op_cpu(task, self.costs.fs_op / 2)
        node = self.tree.lookup(path)
        return FileStat(node.ino, node.is_dir, node.size, node.mtime, node.nlink)

    def mkdir(self, task, path, mode=0o755):
        yield from self._op_cpu(task)
        parent = self.tree.lookup_dir(pathutil.parent_of(path))
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(parent), self.costs.kernel_lock_section
        )
        self.tree.mkdir(path, now=self.sim.now, mode=mode)

    def rmdir(self, task, path):
        yield from self._op_cpu(task)
        parent = self.tree.lookup_dir(pathutil.parent_of(path))
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(parent), self.costs.kernel_lock_section
        )
        self.tree.rmdir(path, now=self.sim.now)

    def unlink(self, task, path):
        yield from self._op_cpu(task)
        parent = self.tree.lookup_dir(pathutil.parent_of(path))
        node = self.tree.lookup(path)
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(parent), self.costs.kernel_lock_section
        )
        yield from self.kernel.locks.locked_section(
            task, self._inode_hash_lock(), self.costs.kernel_lock_section / 2
        )
        self.kernel.page_cache.drop_file(self._cache_key(node))
        self.tree.unlink(path, now=self.sim.now)
        self.metrics.counter("unlinks").add(1)

    def readdir(self, task, path):
        node = self.tree.lookup_dir(path)
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(node), self.costs.kernel_lock_section / 2
        )
        names = self.tree.readdir(path)
        yield from task.cpu(self.costs.dirent_op * max(len(names), 1))
        return names

    def rename(self, task, old_path, new_path):
        yield from self._op_cpu(task)
        old_parent = self.tree.lookup_dir(pathutil.parent_of(old_path))
        yield from self.kernel.locks.locked_section(
            task, self._dir_lock(old_parent), self.costs.kernel_lock_section
        )
        self.tree.rename(old_path, new_path, now=self.sim.now)

    def truncate(self, task, path, size):
        node = self.tree.lookup(path)
        if node.is_dir:
            raise IsADirectory(path=path)
        yield from self._truncate_node(task, node, size)

    def _truncate_node(self, task, node, size):
        yield from self.kernel.locks.locked_section(
            task, self._inode_lock(node), self.costs.kernel_lock_section
        )
        self.tree.truncate_node(node, size, now=self.sim.now)
        # Dropping cached pages beyond EOF: simplest correct behaviour is
        # dropping the whole mapping; the next read re-faults it.
        if size == 0:
            self.kernel.page_cache.drop_file(self._cache_key(node))

    def peek(self, path, offset, size):
        """Zero-cost resident-data read (see Filesystem.peek)."""
        node = self.tree.try_lookup(path)
        if node is None or node.is_dir:
            return None
        return node.read(offset, size)

    def _live_node(self, handle):
        if handle.closed:
            raise BadFileDescriptor(path=handle.path)
        if not isinstance(handle, _LocalHandle):
            raise InvalidArgument("foreign handle %r" % (handle,))
        return handle.node

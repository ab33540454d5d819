"""The host kernel: syscall layer, VFS mount table, shared caches.

One :class:`HostKernel` exists per machine. It owns the resources the
paper identifies as *shared* and therefore contention-prone:

* the lock registry (``i_mutex``, superblock and global locks),
* the page cache with host-global LRU and dirty accounting,
* the writeback daemon whose flushers run on any activated core,
* the VFS mount table every kernel-path I/O passes through.

The VFS itself implements the :class:`~repro.fs.api.Filesystem` interface:
each call pays the mode-switch cost, resolves the mount, pays per-component
path-walk CPU and user/kernel copy costs, then invokes the mounted
filesystem. Danaus's default path never enters here — that asymmetry *is*
the system under study.
"""

from repro.common.errors import NotMounted
from repro.costs import CostModel
from repro.fs import pathutil
from repro.fs.api import FileHandle, Filesystem, OpenFlags
from repro.kernel.locks import LockRegistry
from repro.kernel.pagecache import PageCache
from repro.kernel.writeback import WritebackDaemon
from repro.sim.cpu import SimThread
from repro.sim.sync import Store

__all__ = ["HostKernel", "Workqueue", "Vfs"]


class Workqueue(object):
    """Kernel workqueue: deferred CPU work on *any activated core*.

    The kernel Ceph client hands messenger processing (checksumming,
    scatter-gather assembly) to kworkers, which the scheduler places on
    whatever cores are idle — including cores reserved for other container
    pools. This is the second half of the paper's "core stealing": when
    the neighbours idle, a kernel-served workload borrows their cores and
    looks great; when they wake up, that capacity evaporates (Fig. 1a).
    """

    def __init__(self, sim, machine, costs):
        self.sim = sim
        self.machine = machine
        self.costs = costs
        self._queue = Store(sim, name="kworkqueue")
        self.items_done = 0
        self._threads = []
        for index in range(costs.nr_kworkers):
            thread = SimThread(sim, "kworker%d" % index, machine.activated)
            self._threads.append(thread)
            sim.spawn(self._worker_loop(thread), name=thread.name)

    def _worker_loop(self, thread):
        while True:
            cpu_seconds, done = yield self._queue.get()
            # kworkers follow whatever cores are currently activated.
            thread.set_cpuset(self.machine.activated)
            yield from thread.run(cpu_seconds, quantum=self.costs.quantum)
            self.items_done += 1
            done.succeed()

    def execute(self, cpu_seconds):
        """Queue ``cpu_seconds`` of kernel work; generator until done."""
        if cpu_seconds <= 0:
            return
        done = self.sim.event(name="wq-done")
        yield self._queue.put((cpu_seconds, done))
        yield done


class HostKernel(object):
    """Shared kernel state of one host machine."""

    def __init__(self, sim, machine, costs=None):
        self.sim = sim
        self.machine = machine
        self.costs = costs if costs is not None else CostModel()
        self.metrics = sim.metrics("kernel:%s" % machine.name)
        self.locks = LockRegistry(sim)
        self.page_cache = PageCache(self.costs.page_size, machine.ram)
        self.writeback = WritebackDaemon(
            sim, machine, self.page_cache, self.costs, self.locks,
        )
        self.workqueue = Workqueue(sim, machine, self.costs)
        self.vfs = Vfs(self)

    def syscall(self, task):
        """Pay the mode-switch cost of entering and leaving the kernel."""
        self.metrics.counter("syscalls").add(1)
        yield from task.cpu(self.costs.syscall)

    def copy_to_user(self, task, nbytes):
        """Pay the kernel->user copy cost for ``nbytes``."""
        if nbytes > 0:
            yield from task.cpu(self.costs.copy_cost(nbytes))

    def copy_from_user(self, task, nbytes):
        """Pay the user->kernel copy cost for ``nbytes``."""
        if nbytes > 0:
            yield from task.cpu(self.costs.copy_cost(nbytes))


class _VfsHandle(FileHandle):
    """VFS-level handle wrapping the mounted filesystem's handle."""

    __slots__ = ("inner_fs", "inner")

    def __init__(self, vfs, path, flags, inner_fs, inner):
        super().__init__(vfs, path, flags)
        self.inner_fs = inner_fs
        self.inner = inner


class Vfs(Filesystem):
    """The kernel's virtual filesystem switch.

    Routes each operation to the filesystem mounted closest above the path
    and charges the kernel-entry costs: one mode switch per call, path-walk
    CPU, and copy costs for data-carrying calls.
    """

    name = "vfs"

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self._mounts = {}  # normalised mountpoint -> Filesystem

    # -- mount management ---------------------------------------------------

    def mount(self, mountpoint, fs):
        """Mount ``fs`` at ``mountpoint``; nested mounts shadow parents."""
        self._mounts[pathutil.normalize(mountpoint)] = fs

    def umount(self, mountpoint):
        self._mounts.pop(pathutil.normalize(mountpoint), None)

    def mounted_at(self, mountpoint):
        return self._mounts.get(pathutil.normalize(mountpoint))

    def resolve(self, path):
        """Longest-prefix mount match; returns ``(fs, inner_path)``."""
        path = pathutil.normalize(path)
        best = None
        best_len = -1
        for mountpoint, fs in self._mounts.items():
            if pathutil.is_ancestor(mountpoint, path):
                depth = len(mountpoint)
                if depth > best_len:
                    best = (mountpoint, fs)
                    best_len = depth
        if best is None:
            raise NotMounted(path=path)
        mountpoint, fs = best
        return fs, pathutil.relative_to(mountpoint, path)

    # -- cost helpers ----------------------------------------------------

    def _enter(self, task, path=None):
        yield from self.kernel.syscall(task)
        if path is not None:
            components = len(pathutil.components(path))
            if components:
                yield from task.cpu(self.costs.path_component * components)

    # -- Filesystem interface -------------------------------------------------

    def _span(self, task, name, **args):
        """An open syscall span, or None when no observer is attached."""
        obs = self.sim.observer
        return obs.span(task, name, "vfs", **args) if obs is not None else None

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        span = self._span(task, "vfs.open", path=path)
        try:
            yield from self._enter(task, path)
            fs, inner_path = self.resolve(path)
            inner = yield from fs.open(task, inner_path, flags, mode)
        finally:
            if span is not None:
                span.end()
        return _VfsHandle(self, path, flags, fs, inner)

    def close(self, task, handle):
        yield from self._enter(task)
        yield from handle.inner_fs.close(task, handle.inner)
        handle.closed = True

    def read(self, task, handle, offset, size):
        span = self._span(task, "vfs.read", size=size)
        try:
            yield from self._enter(task)
            data = yield from handle.inner_fs.read(
                task, handle.inner, offset, size
            )
            yield from self.kernel.copy_to_user(task, len(data))
        finally:
            if span is not None:
                span.end()
        return data

    def write(self, task, handle, offset, data):
        span = self._span(task, "vfs.write", size=len(data))
        try:
            yield from self._enter(task)
            yield from self.kernel.copy_from_user(task, len(data))
            written = yield from handle.inner_fs.write(
                task, handle.inner, offset, data
            )
        finally:
            if span is not None:
                span.end()
        return written

    def fsync(self, task, handle):
        span = self._span(task, "vfs.fsync")
        try:
            yield from self._enter(task)
            yield from handle.inner_fs.fsync(task, handle.inner)
        finally:
            if span is not None:
                span.end()

    def stat(self, task, path):
        yield from self._enter(task, path)
        fs, inner_path = self.resolve(path)
        return (yield from fs.stat(task, inner_path))

    def mkdir(self, task, path, mode=0o755):
        yield from self._enter(task, path)
        fs, inner_path = self.resolve(path)
        yield from fs.mkdir(task, inner_path, mode)

    def rmdir(self, task, path):
        yield from self._enter(task, path)
        fs, inner_path = self.resolve(path)
        yield from fs.rmdir(task, inner_path)

    def unlink(self, task, path):
        yield from self._enter(task, path)
        fs, inner_path = self.resolve(path)
        yield from fs.unlink(task, inner_path)

    def readdir(self, task, path):
        yield from self._enter(task, path)
        fs, inner_path = self.resolve(path)
        return (yield from fs.readdir(task, inner_path))

    def rename(self, task, old_path, new_path):
        from repro.common.errors import CrossDevice

        yield from self._enter(task, old_path)
        fs, inner_old = self.resolve(old_path)
        other_fs, inner_new = self.resolve(new_path)
        if fs is not other_fs:
            raise CrossDevice(path=new_path)
        yield from fs.rename(task, inner_old, inner_new)

    def truncate(self, task, path, size):
        yield from self._enter(task, path)
        fs, inner_path = self.resolve(path)
        yield from fs.truncate(task, inner_path, size)

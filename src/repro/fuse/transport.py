"""FUSE transport: a user-level filesystem daemon behind /dev/fuse.

Every operation crossing this layer pays the FUSE tax the paper measures
against (§2, [69]):

* the request is queued through the kernel to the daemon (queue management
  CPU plus a request copy);
* the caller blocks and the daemon wakes — **two context switches per
  round trip** (counted; Fig. 8b reports D doing 9-39x fewer than F/F);
* large reads/writes are split into ``fuse_max_write`` chunks, each its
  own round trip;
* optionally the kernel page cache sits above the daemon (ceph-fuse
  without ``direct_io``): read hits skip the daemon entirely, but every
  cached byte now lives twice — in the page cache *and* in the daemon's
  user-level cache. That is the double-caching memory blow-up of FP/FP in
  Fig. 11b.

The daemon's threads run inside the container pool's cpuset (the FUSE
process lives in the pool's cgroup), so FUSE does not steal foreign cores;
its problem is crossing overhead, not placement.
"""

from repro.common.errors import ServiceFailed
from repro.fs.api import FileHandle, Filesystem, OpenFlags, Task
from repro.sim.cpu import SimThread
from repro.sim.sync import Store

__all__ = ["FuseTransport"]

#: daemon threads serving each FUSE mount's request queue
DAEMON_THREADS = 4


class _FuseRequest(object):
    __slots__ = ("op", "args", "reply", "payload_out")

    def __init__(self, sim, op, args, payload_out=0):
        self.op = op
        self.args = args
        self.reply = sim.event(name="fuse-reply:%s" % op)
        self.payload_out = payload_out


class _FuseHandle(FileHandle):
    __slots__ = ("inner",)

    def __init__(self, fs, path, flags, inner):
        super().__init__(fs, path, flags)
        self.inner = inner


class FuseTransport(Filesystem):
    """Filesystem adapter routing every op through a FUSE-style daemon."""

    _next_id = [1]

    def __init__(self, kernel, inner, cpuset, name="fuse",
                 use_page_cache=False, pool=None):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.inner = inner
        self.name = name
        self.pool = pool
        self.use_page_cache = use_page_cache
        self.metrics = kernel.sim.metrics(name)
        self.fs_id = FuseTransport._next_id[0]
        FuseTransport._next_id[0] += 1
        self._queue = Store(kernel.sim, name="fuse:%s" % name)
        self._failed = False
        self.daemon_threads = []
        for index in range(DAEMON_THREADS):
            thread = SimThread(kernel.sim, "%s.d%d" % (name, index), cpuset)
            self.daemon_threads.append(thread)
            kernel.sim.spawn(self._daemon_loop(thread), name=thread.name)

    # -- crash injection -----------------------------------------------------

    def fail(self):
        """Kill the daemon: every in-flight and future request errors.

        Models the fault-containment property of §5 — a dead user-level
        filesystem service breaks its own mount, not the host kernel.
        """
        self._failed = True
        while True:
            ok, request = self._queue.try_get()
            if not ok:
                break
            request.reply.fail(ServiceFailed("fuse daemon %s died" % self.name))

    # -- transport -------------------------------------------------------------

    def _call(self, task, op, args, payload_out=0, payload_in=0):
        """One FUSE round trip; returns the daemon's result."""
        if self._failed:
            raise ServiceFailed("fuse daemon %s died" % self.name)
        obs = self.sim.observer
        span = obs.span(task, "fuse.call", "fuse", transport=self.name,
                        op=op) if obs is not None else None
        costs = self.costs
        try:
            yield from task.cpu(
                costs.fuse_queue_op + costs.copy_cost(payload_out)
            )
            request = _FuseRequest(self.sim, op, args, payload_out)
            yield self._queue.put(request)
            if obs is not None:
                self.sim.trace("fuse", "call", transport=self.name, op=op)
            self.metrics.counter("fuse_calls").add(1)
            self.metrics.counter("ctx_switches").add(
                costs.fuse_switches_per_call
            )
            result = yield request.reply
            # The caller resumes: pays its switch-in and the reply copy.
            yield from task.cpu(
                costs.context_switch + costs.copy_cost(payload_in)
            )
        finally:
            if span is not None:
                span.end()
        return result

    def _daemon_loop(self, thread):
        task = Task(thread, pool=self.pool)
        costs = self.costs
        while not self._failed:
            request = yield self._queue.get()
            if self._failed:
                request.reply.fail(ServiceFailed("fuse daemon died"))
                return
            # Daemon switch-in + request copy out of the kernel.
            yield costs.wakeup_latency
            yield from task.cpu(
                costs.context_switch
                + costs.fuse_queue_op
                + costs.copy_cost(request.payload_out)
            )
            handler = getattr(self.inner, request.op)
            try:
                result = yield from handler(task, *request.args)
            except Exception as err:  # noqa: BLE001 - forwarded to the caller
                request.reply.fail(err)
                continue
            request.reply.succeed(result)

    # -- page-cache layer (FP mode) ------------------------------------------------

    def _cache_key(self, path):
        return ("fuse", self.fs_id, path)

    def _account(self, task):
        if task.pool is not None:
            return task.pool.ram
        if self.pool is not None:
            return self.pool.ram
        return self.kernel.machine.ram

    # -- Filesystem interface ----------------------------------------------------------

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        inner = yield from self._call(task, "open", (path, flags, mode))
        return _FuseHandle(self, path, flags, inner)

    def close(self, task, handle):
        yield from self._call(task, "close", (handle.inner,))
        handle.closed = True

    def read(self, task, handle, offset, size):
        parts = []
        chunk = self.costs.fuse_max_write
        position = offset
        remaining = size
        while remaining > 0:
            piece = min(chunk, remaining)
            data = yield from self._read_piece(task, handle, position, piece)
            parts.append(data)
            position += len(data)
            remaining -= piece
            if len(data) < piece:
                break
        return b"".join(parts)

    def _read_piece(self, task, handle, offset, size):
        if self.use_page_cache:
            cf = self.kernel.page_cache.file(self._cache_key(handle.path))
            hit_pages, miss_ranges = self.kernel.page_cache.scan(cf, offset, size)
            if not miss_ranges:
                resident = self.inner.peek(handle.path, offset, size)
                if resident is not None:
                    yield from task.cpu(
                        self.costs.page_op * hit_pages
                        + self.costs.copy_cost(len(resident))
                    )
                    self.metrics.counter("pc_hits").add(1)
                    return resident
            data = yield from self._call(
                task, "read", (handle.inner, offset, size), payload_in=size
            )
            self.kernel.page_cache.insert(
                cf, offset, max(len(data), 1), self._account(task)
            )
            return data
        return (
            yield from self._call(
                task, "read", (handle.inner, offset, size), payload_in=size
            )
        )

    def write(self, task, handle, offset, data):
        chunk = self.costs.fuse_max_write
        written = 0
        view = memoryview(bytes(data))
        while written < len(view):
            piece = bytes(view[written:written + chunk])
            count = yield from self._call(
                task,
                "write",
                (handle.inner, offset + written, piece),
                payload_out=len(piece),
            )
            if self.use_page_cache:
                cf = self.kernel.page_cache.file(self._cache_key(handle.path))
                self.kernel.page_cache.insert(
                    cf, offset + written, len(piece), self._account(task)
                )
            written += count
        return written

    def fsync(self, task, handle):
        yield from self._call(task, "fsync", (handle.inner,))

    def stat(self, task, path):
        return (yield from self._call(task, "stat", (path,)))

    def mkdir(self, task, path, mode=0o755):
        yield from self._call(task, "mkdir", (path, mode))

    def rmdir(self, task, path):
        yield from self._call(task, "rmdir", (path,))

    def unlink(self, task, path):
        yield from self._call(task, "unlink", (path,))
        if self.use_page_cache:
            self.kernel.page_cache.drop_file(self._cache_key(path))

    def readdir(self, task, path):
        return (yield from self._call(task, "readdir", (path,), payload_in=4096))

    def rename(self, task, old_path, new_path):
        yield from self._call(task, "rename", (old_path, new_path))
        if self.use_page_cache:
            self.kernel.page_cache.drop_file(self._cache_key(old_path))

    def truncate(self, task, path, size):
        yield from self._call(task, "truncate", (path, size))
        if self.use_page_cache:
            self.kernel.page_cache.drop_file(self._cache_key(path))

    def peek(self, path, offset, size):
        """Delegate peeks to the daemon's filesystem (no crossing cost)."""
        return self.inner.peek(path, offset, size)

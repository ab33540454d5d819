"""The Danaus filesystem service: a standalone user-level process.

One service serves one container pool (or one mount of it). It owns the
*filesystem instances* — each a stack of libservices (union over backend
client) — and the back driver: service threads, one pinned per request
queue, that pick requests off shared memory and execute them entirely at
user level on the pool's reserved cores (§3.1, §3.5).

Extra service threads are spawned when a queue's backlog exceeds a
threshold, mirroring the paper's elasticity rule.

Fault containment (§5): ``crash()`` kills the service; its mounts fail
with :class:`ServiceFailed`, while the host kernel, other pools and other
services keep running — which a test demonstrates.
"""

from repro.common.errors import (
    ServiceFailed,
    ServiceRestarting,
    ThreadKilled,
)
from repro.core.ipc import DanausIpc, IpcRequest
from repro.fs import pathutil
from repro.fs.api import Task
from repro.sim.cpu import SimThread

__all__ = ["FilesystemInstance", "FilesystemService"]

#: Upper bound of extra service threads per queue.
MAX_EXTRA_THREADS = 4


class FilesystemInstance(object):
    """One mounted stack of libservices (e.g. union over client)."""

    __slots__ = ("mountpoint", "stack", "libservices")

    def __init__(self, mountpoint, stack, libservices=()):
        self.mountpoint = pathutil.normalize(mountpoint)
        self.stack = stack
        self.libservices = tuple(libservices)

    def __repr__(self):
        return "<FilesystemInstance %s: %s>" % (
            self.mountpoint,
            "+".join(self.libservices) or self.stack.name,
        )


class FilesystemService(object):
    """Back driver + filesystem table of one Danaus service process."""

    def __init__(self, sim, machine, costs, pool_cores, name="fsvc",
                 single_queue=False, pool=None):
        self.sim = sim
        self.machine = machine
        self.costs = costs
        self.name = name
        self.pool = pool
        self.pool_cores = list(pool_cores)
        self.single_queue = single_queue
        self.metrics = sim.metrics(name)
        self.ops_served = self.metrics.counter("ops_served")
        self.ipc = DanausIpc(
            sim, machine, costs, pool_cores, name="%s.ipc" % name,
            single_queue=single_queue,
        )
        self.fs_table = {}  # mountpoint -> FilesystemInstance
        self.crashed = False
        #: set by a ServiceSupervisor watching this service; while
        #: supervised, a crash surfaces as the retryable ServiceRestarting.
        self.supervisor = None
        #: bumps on every restart; threads of older generations exit.
        self.generation = 0
        self.crash_event = sim.event(name="%s.crash" % name)
        # Insertion-ordered (dict, not set): crash() iterates this to fail
        # replies, and set order over objects would vary run to run.
        self._inflight = {}  # request -> None, held by service threads
        self._restart_waiters = []
        self._threads = []
        self._extra_per_queue = {}
        for queue in self.ipc.queues:
            self._start_thread(queue, extra=False)

    # -- mounts ------------------------------------------------------------

    def mount(self, mountpoint, stack, libservices=()):
        """Register a filesystem instance at ``mountpoint``."""
        instance = FilesystemInstance(mountpoint, stack, libservices)
        self.fs_table[instance.mountpoint] = instance
        return instance

    # -- back driver --------------------------------------------------------------

    def _start_thread(self, queue, extra):
        index = len(self._threads)
        cores = queue.cores if queue.cores else self.pool_cores
        thread = SimThread(self.sim, "%s.t%d" % (self.name, index), cores)
        if len(cores) == 1:
            thread.pin(cores[0])
        self._threads.append(thread)
        self.sim.spawn(self._service_loop(thread, queue), name=thread.name)
        if extra:
            self._extra_per_queue[queue.index] = (
                self._extra_per_queue.get(queue.index, 0) + 1
            )
            self.sim.trace("svc", "scale", service=self.name,
                           queue=queue.index)
            self.metrics.counter("extra_threads").add(1)

    def _maybe_scale(self, queue):
        backlog = queue.backlog
        if backlog < self.costs.ipc_backlog_threshold:
            return
        if self._extra_per_queue.get(queue.index, 0) >= MAX_EXTRA_THREADS:
            return
        self._start_thread(queue, extra=True)

    def _service_loop(self, thread, queue):
        task = Task(thread, pool=self.pool)
        costs = self.costs
        generation = self.generation
        while not self.crashed and generation == self.generation:
            try:
                request = yield queue.store.get()
            except ServiceFailed:
                return  # torn down by crash()
            if self.crashed:
                if not request.reply.triggered:
                    request.reply.fail(self._down_error())
                return
            self._inflight[request] = None
            try:
                try:
                    yield costs.ipc_poll_latency
                    yield from task.cpu(costs.ipc_queue_op)
                    self._maybe_scale(queue)
                    handler = getattr(request.fs, request.op)
                    obs = self.sim.observer
                    span = obs.span(
                        task, "svc.handle", "svc", service=self.name,
                        op=request.op,
                    ) if obs is not None else None
                    try:
                        result = yield from handler(task, *request.args)
                    finally:
                        if span is not None:
                            span.end()
                except (ServiceFailed, ThreadKilled):
                    # The process died under us: the handler stopped at its
                    # next scheduling point and unwound cleanly. The crash
                    # already failed the reply; this thread is gone.
                    if not request.reply.triggered:
                        request.reply.fail(self._down_error())
                    return
                except Exception as err:  # noqa: BLE001 - forwarded to the app
                    if not request.reply.triggered:
                        request.reply.fail(err)
                    continue
                # crash() may have failed the reply while the handler ran.
                if not request.reply.triggered:
                    request.reply.succeed(result)
                    self.ops_served.add(1)
            finally:
                self._inflight.pop(request, None)

    # -- fault injection -------------------------------------------------------------

    def _down_error(self):
        if self.supervisor is not None:
            return ServiceRestarting(
                "filesystem service %s is restarting" % self.name
            )
        return ServiceFailed("filesystem service %s is down" % self.name)

    def crash(self):
        """Kill the service process: every queued and in-flight request
        fails immediately — no caller is ever left blocked on a reply.

        Unsupervised, the mounts stay dead (:class:`ServiceFailed`);
        under a :class:`~repro.core.supervisor.ServiceSupervisor` callers
        see the retryable :class:`ServiceRestarting` instead, and the
        supervisor brings the service back.
        """
        if self.crashed:
            return
        self.crashed = True
        # SIGKILL semantics: service threads stop at their next scheduling
        # point instead of finishing in-flight handlers — a dead process
        # must not keep mutating the pool's shared state.
        for thread in self._threads:
            thread.kill()
        self.ipc.fail(self._down_error)
        for request in list(self._inflight):
            if not request.reply.triggered:
                request.reply.fail(self._down_error())
        self._inflight.clear()
        self.sim.trace("svc", "crash", service=self.name)
        self.metrics.counter("crashes").add(1)
        if not self.crash_event.triggered:
            self.crash_event.succeed()

    def restart(self):
        """Bring a crashed service back: fresh IPC segment, fresh threads.

        The object identity is preserved — the fs table, the mounts and
        every front-driver reference stay valid, like a service process
        respawned under the same pool with the same shared-memory names.
        Threads of the previous generation exit on their own.
        """
        if not self.crashed:
            return
        self.generation += 1
        self.crashed = False
        self.ipc = DanausIpc(
            self.sim, self.machine, self.costs, self.pool_cores,
            name="%s.ipc" % self.name, single_queue=self.single_queue,
        )
        self._threads = []
        self._extra_per_queue = {}
        for queue in self.ipc.queues:
            self._start_thread(queue, extra=False)
        self.crash_event = self.sim.event(name="%s.crash" % self.name)
        self.sim.trace("svc", "restart", service=self.name,
                       generation=self.generation)
        self.metrics.counter("restarts").add(1)
        waiters, self._restart_waiters = self._restart_waiters, []
        for event in waiters:
            event.succeed()

    def wait_restarted(self):
        """An event that triggers once the service is up (now, if it is)."""
        event = self.sim.event(name="%s.restarted" % self.name)
        if not self.crashed:
            event.succeed()
        else:
            self._restart_waiters.append(event)
        return event

    # -- front-driver entry ------------------------------------------------------------

    def call(self, task, instance, op, args, payload_out=0, payload_in=0):
        """Submit one operation against a mounted instance (generator).

        The whole front-driver round trip is this one frame: queue
        placement and first-I/O pinning, the enqueue CPU and the
        request-buffer copies (charged to the calling thread; everything
        stays at user level), the put, the reply wait.

        :class:`ServiceRestarting` means the service died but a
        supervisor is bringing it back: the caller waits for the restart
        (bounded by the op timeout) and resubmits, so a supervised crash
        costs the application a delay, never an error. Unsupervised
        crashes raise :class:`ServiceFailed` immediately.
        """
        sim = self.sim
        costs = self.costs
        thread = task.thread
        attempts = 0
        while True:
            try:
                if self.crashed:
                    raise self._down_error()
                ipc = self.ipc
                queue = ipc.queue_for(thread)
                ipc.pin_to_queue(thread, queue)
                obs = sim.observer
                span = obs.span(task, "ipc.submit", "ipc", queue=queue.name,
                                op=op) if obs is not None else None
                try:
                    yield from task.cpu(
                        costs.ipc_queue_op + costs.copy_cost(payload_out)
                    )
                    if ipc is not self.ipc or self.crashed:
                        # A crash during the charge drained the queue the
                        # caller picked; nothing will read it again.
                        raise self._down_error()
                    request = IpcRequest(sim, instance.stack, op, args)
                    accepted = queue.store.put(request)
                    # Resumed, the caller would only park on the reply,
                    # which no one can answer before that resumption.
                    if not sim.skip_resumption(accepted):
                        yield accepted
                    if obs is not None:
                        sim.trace("ipc", "submit", queue=queue.name, op=op)
                        obs.sample("qdepth:%s" % queue.name, queue.backlog)
                    ipc.requests.add(1)
                    result = yield request.reply
                    if payload_in:
                        yield from task.cpu(costs.copy_cost(payload_in))
                finally:
                    if span is not None:
                        span.end()
                return result
            except ServiceRestarting:
                attempts += 1
                if attempts >= costs.retry_attempts:
                    raise
                self.metrics.counter("service_retries").add(1)
                yield sim.any_of([
                    self.wait_restarted(),
                    sim.timeout(costs.op_timeout),
                ])

    def __repr__(self):
        state = "crashed" if self.crashed else "%d mounts" % len(self.fs_table)
        return "<FilesystemService %s %s>" % (self.name, state)

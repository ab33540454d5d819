"""Danaus interprocess communication: shared-memory request queues.

Implements §3.5 of the paper:

* one fixed-size circular request queue **per core group** (cores sharing
  an L2), so application and service threads exchanging a request also
  share a cache;
* each queue entry carries a request descriptor (call id, small args, a
  pointer to the per-thread *request buffer* used for bulk data);
* an application thread is pinned, on its first I/O, to the cores of the
  queue that received that request — no further migrations, no cache-line
  bouncing;
* the shared memory lives in the pool's private IPC namespace (System V
  rather than mmap/VFS), so submitting a request involves **no system
  call and no context switch** in the common case — only the enqueue work
  and the service-side pickup latency.

The ``single_queue`` flag collapses the per-group queues into one shared
queue; the ablation benchmark uses it to measure what the per-group
placement buys.
"""

from repro.common.errors import ConfigError, ServiceFailed
from repro.sim.engine import Event
from repro.sim.sync import Store

__all__ = ["IpcRequest", "RequestQueue", "DanausIpc"]

#: Circular-queue capacity (entries); matches a few pages of descriptors.
QUEUE_CAPACITY = 128


class IpcRequest(object):
    """One request descriptor plus its completion event."""

    __slots__ = ("op", "fs", "args", "reply")

    def __init__(self, sim, fs, op, args):
        self.fs = fs
        self.op = op
        self.args = args
        self.reply = Event(sim, "ipc-reply")


class RequestQueue(object):
    """A per-core-group circular queue in shared memory."""

    def __init__(self, sim, group_cores, index, name):
        self.index = index
        self.name = name
        self.cores = list(group_cores)
        self.store = Store(sim, capacity=QUEUE_CAPACITY, name=name)

    @property
    def backlog(self):
        return len(self.store)

    def __repr__(self):
        return "<RequestQueue %s cores=%s backlog=%d>" % (
            self.name,
            [core.index for core in self.cores],
            self.backlog,
        )


class DanausIpc(object):
    """Front-driver side of the Danaus IPC: queue placement and pinning."""

    def __init__(self, sim, machine, costs, pool_cores, name="ipc",
                 single_queue=False):
        if not pool_cores:
            raise ConfigError("IPC needs at least one pool core")
        self.sim = sim
        self.machine = machine
        self.costs = costs
        self.name = name
        self.pool_cores = list(pool_cores)
        self.metrics = sim.metrics(name)
        #: Requests enqueued; counted on every submit, so held here.
        self.requests = self.metrics.counter("requests")
        self.queues = []
        if single_queue:
            self.queues.append(
                RequestQueue(sim, self.pool_cores, 0, "%s.q0" % name)
            )
        else:
            for group in machine.groups_covering(self.pool_cores):
                cores = [core for core in group.cores if core in self.pool_cores]
                self.queues.append(
                    RequestQueue(
                        sim, cores, len(self.queues),
                        "%s.q%d" % (name, len(self.queues)),
                    )
                )

    def queue_for(self, thread):
        """The queue serving ``thread``: by its pinned/current core group."""
        if len(self.queues) == 1:
            return self.queues[0]
        core = thread.pinned if thread.pinned is not None else thread.pick_core()
        for queue in self.queues:
            if core in queue.cores:
                return queue
        return self.queues[0]

    def pin_to_queue(self, thread, queue):
        """First-I/O pinning: restrict the thread to the queue's cores."""
        if thread.pinned is not None or thread.cpuset == queue.cores:
            return  # the steady state after the first request: no sets
        if set(thread.cpuset) != set(queue.cores):
            usable = [core for core in queue.cores if core in thread.cpuset]
            if usable:
                thread.set_cpuset(usable)
                self.metrics.counter("threads_pinned").add(1)

    def fail(self, make_error=None):
        """Drop the service side: error out all queued requests.

        ``make_error`` builds the exception delivered to queued callers
        (defaults to :class:`ServiceFailed`); service threads blocked on
        an empty queue always get ``ServiceFailed`` — that is their
        teardown signal, regardless of what the application sees.
        """
        if make_error is None:
            def make_error():
                return ServiceFailed(
                    "filesystem service %s died" % self.name
                )
        for queue in self.queues:
            while True:
                ok, request = queue.store.try_get()
                if not ok:
                    break
                request.reply.fail(make_error())
            queue.store.abort_getters(
                ServiceFailed("filesystem service %s died" % self.name)
            )

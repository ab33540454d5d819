"""Service supervision: automatic restart of crashed Danaus services.

The paper's fault-containment story (§5) shows that a Danaus service
crash stays inside its pool; this module adds the operational other half:
a per-host supervisor (the systemd/containerd analogue) that watches its
services, respawns a crashed one after a detection-plus-exec delay, and
replays the journaled write-behind state before declaring it up.

While a service is supervised its crash surfaces to applications as the
*retryable* :class:`~repro.common.errors.ServiceRestarting`; the
filesystem library rides the restart out and resubmits, so a supervised
crash costs the pool a latency bubble instead of failed I/O — and, unlike
a kernel-client failure, the bubble never leaves the pool.

Dirty write-behind buffers live in the shared-memory segment of the pool
(§3.5), which survives the service process: replay walks the mounted
stacks down to their backend clients and flushes whatever the dead
process had buffered, mirroring a journaled user-level cache recovery.
"""

from repro.common.errors import FsError
from repro.fs.api import Task
from repro.sim.cpu import SimThread

__all__ = ["ServiceSupervisor"]


class ServiceSupervisor(object):
    """Watches Danaus services and restarts them after a crash."""

    def __init__(self, sim, costs, restart_delay=None, name="supervisor"):
        self.sim = sim
        self.costs = costs
        #: crash-detection plus re-exec time before the service is back.
        self.restart_delay = float(
            restart_delay if restart_delay is not None else costs.restart_delay
        )
        self.name = name
        self.services = []
        self.metrics = sim.metrics(name)

    def watch(self, service):
        """Start supervising ``service``; returns the service."""
        if service.supervisor is self:
            return service
        service.supervisor = self
        self.services.append(service)
        self.sim.spawn(
            self._watch_loop(service),
            name="%s:%s" % (self.name, service.name),
        )
        return service

    # -- internals -------------------------------------------------------

    def _watch_loop(self, service):
        while True:
            yield service.crash_event
            yield self.restart_delay
            service.restart()
            self.metrics.counter("restarts").add(1)
            # Every mount of the fs table is re-registered implicitly:
            # restart() keeps the object identity, so the mount table and
            # the front-driver references are valid the moment the new
            # threads poll their queues.
            self.metrics.counter("remounts").add(len(service.fs_table))
            replayed = yield from self._replay(service)
            self.sim.trace("svc", "supervised_restart", service=service.name,
                           replayed=replayed)

    def _replay(self, service):
        """Flush the surviving write-behind state of a restarted service.

        The dirty buffers live in the pool's shared memory, not the dead
        process, so the new incarnation pushes them to the cluster before
        serving — the journal-replay step of the restart.
        """
        thread = SimThread(
            self.sim, "%s.replay" % self.name, service.pool_cores
        )
        task = Task(thread, pool=service.pool)
        total = 0
        for client in self._backend_clients(service):
            try:
                total += yield from client.flush_all(task)
            except FsError:
                # Backend still unreachable: the data was re-dirtied and
                # the client's own flusher finishes the replay later.
                self.metrics.counter("replay_deferred").add(1)
        if total:
            self.metrics.counter("replayed_bytes").add(total)
        return total

    def _backend_clients(self, service):
        """The distinct backend clients under a service's mounted stacks."""
        clients = []
        for instance in service.fs_table.values():
            for fs in self._walk(instance.stack):
                if fs not in clients and self._is_backend_client(fs):
                    clients.append(fs)
        return clients

    @staticmethod
    def _is_backend_client(fs):
        return hasattr(fs, "flush_all") and hasattr(fs, "cache")

    @classmethod
    def _walk(cls, fs):
        yield fs
        inner = getattr(fs, "inner", None)
        if inner is not None:
            yield from cls._walk(inner)
        for branch in getattr(fs, "branches", ()):
            yield from cls._walk(branch.fs)

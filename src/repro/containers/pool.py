"""Container pools and containers.

A *container pool* is a tenant's reservation on a host: a cpuset, a memory
limit (a cgroup child of the machine's RAM account) and private namespaces
(§2.2, §3.1). Pools are the unit of isolation the whole paper is about:
Danaus gives each pool its own filesystem service running on exactly the
pool's cores; kernel-based stacks share the host kernel no matter how the
pool is configured.
"""

from repro.common.errors import ConfigError
from repro.fs.api import Task
from repro.sim.cpu import SimThread, UtilizationProbe

__all__ = ["ContainerPool", "Container"]


class ContainerPool(object):
    """A tenant's reservation: cores + memory + namespaces."""

    def __init__(self, host, name, cores, ram_bytes):
        if not cores:
            raise ConfigError("pool %s needs cores" % name)
        self.host = host
        self.sim = host.world.sim
        self.machine = host.machine
        self.name = name
        self.cores = list(cores)
        self.ram = self.machine.ram.child(ram_bytes, name="%s.ram" % name)
        self.probe = UtilizationProbe(self.sim, self.cores)
        self.services = []  # Danaus filesystem services of this pool
        self.containers = []
        self._next_thread = 0

    def new_thread(self, label=None):
        """A thread confined to the pool's cpuset (cgroup cpuset)."""
        index = self._next_thread
        self._next_thread += 1
        name = "%s.%s" % (self.name, label or ("t%d" % index))
        return SimThread(self.sim, name, self.cores)

    def new_task(self, label=None):
        """A Task on a fresh pool thread, charged to the pool's cgroup."""
        return Task(self.new_thread(label), pool=self)

    def utilization(self):
        """Mean utilisation of the pool's cores since the last probe reset."""
        return self.probe.utilization()

    def __repr__(self):
        return "<ContainerPool %s cores=%s ram=%d>" % (
            self.name,
            [core.index for core in self.cores],
            self.ram.capacity,
        )


class Container(object):
    """One container: a root filesystem mount plus process threads."""

    def __init__(self, pool, cid, mount):
        self.pool = pool
        self.cid = cid
        self.mount = mount
        pool.containers.append(self)

    @property
    def fs(self):
        """The container's root filesystem (already rooted at '/')."""
        return self.mount.fs

    def new_task(self, label=None):
        return self.pool.new_task("%s.%s" % (self.cid, label or "p"))

    def exec_read(self, task, path):
        """exec(2)-style binary load: legacy kernel-initiated I/O."""
        return self.mount.exec_read(task, path)

    def __repr__(self):
        return "<Container %s in %s>" % (self.cid, self.pool.name)

"""The testbed composition root.

A :class:`World` wires together everything one experiment needs: the
simulator, one or more client hosts (machine + host kernel + container
engine each), the network fabric and the Ceph-like storage cluster —
mirroring Fig. 5's testbed (client machine on the left, Ceph cluster of
6 OSDs + 1 MDS on ramdisks on the right).

Multiple hosts share the cluster through the same fabric, which is what
makes the paper's future-work scenario (§9) — container migration between
hosts through the shared network filesystem — expressible; see
:mod:`repro.containers.migration`.
"""

import functools
import gc

from repro import obs
from repro.common import units
from repro.common.errors import ConfigError
from repro.containers import ContainerEngine
from repro.costs import CostModel
from repro.fs.api import Task
from repro.hw import Machine
from repro.kernel import HostKernel
from repro.net import Fabric
from repro.sim import Simulator, SimThread
from repro.storage import CephCluster

__all__ = ["Host", "World", "releases_world"]


def releases_world(entry_point):
    """Decorator for row-level entry points that build one world and
    return plain data: free the world before handing the row back.

    A finished world is cyclic garbage that no single edge frees — each
    daemon's suspended generator refers to the object that spawned it,
    which holds the process — and the generational collector gets to it
    late, so a process running several cells peaked at the *sum* of
    neighbouring worlds. One collection does not free it either: closing
    a suspended daemon runs its ``finally:`` blocks, whose lock releases
    schedule fresh events on the dead simulator, and those new entries
    hold the whole world for another pass. So this collects until a
    pass finds nothing. It runs once the entry point's frame is gone;
    after a raise the traceback still holds the world and it is left to
    the caller's.
    """
    @functools.wraps(entry_point)
    def run_and_release(*args, **kwargs):
        try:
            return entry_point(*args, **kwargs)
        finally:
            while gc.collect():
                pass
    return run_and_release


class Host(object):
    """One client host: machine, host kernel, container engine."""

    def __init__(self, world, name, num_cores, ram_bytes):
        self.world = world
        self.name = name
        self.machine = Machine(
            world.sim, name=name, num_cores=num_cores, ram_bytes=ram_bytes,
        )
        self.kernel = HostKernel(world.sim, self.machine, costs=world.costs)
        self.engine = ContainerEngine(self)

    def activate_cores(self, count):
        return self.machine.activate_cores(count)

    def task(self, label="host"):
        """A task for host-side setup work (image seeding, pre-population).

        Runs on the machine's *full* core set so setup does not perturb
        the activated-core accounting of the experiment.
        """
        return Task(SimThread(self.world.sim, label, self.machine.cores))

    def __repr__(self):
        return "<Host %s>" % self.name


class World(object):
    """One complete testbed instance."""

    def __init__(
        self,
        num_cores=16,
        ram_bytes=64 * units.GIB,
        num_osds=6,
        replicas=1,
        costs=None,
    ):
        self.sim = Simulator()
        self.costs = costs if costs is not None else CostModel()
        self.fabric = Fabric(self.sim)
        self.cluster = CephCluster(
            self.sim, self.fabric, self.costs, num_osds=num_osds,
            replicas=replicas,
        )
        self.hosts = []
        #: the client host the paper's testbed has (Fig. 5); ``hosts[0]``
        self.primary = self.add_host(
            "client", num_cores=num_cores, ram_bytes=ram_bytes,
        )
        spec = obs.default_spec()
        if spec is not None:
            # The CLI armed auto-observation (``--trace``/``--profile``):
            # experiments that build worlds internally get observed too.
            obs._note_attached(self.observe(**spec))

    def add_host(self, name, num_cores=16, ram_bytes=64 * units.GIB):
        """Attach another client host to the same storage cluster."""
        if any(host.name == name for host in self.hosts):
            raise ConfigError("host %r already exists" % name)
        host = Host(self, name, num_cores, ram_bytes)
        self.hosts.append(host)
        return host

    def observe(self, categories=None, capacity=100000):
        """Attach a fresh :class:`~repro.obs.Observer` to this world.

        The observer becomes ``sim.observer``, the one handle every layer
        reads: the flat ``sim.trace`` event stream, spans, CPU and lock
        profiling. Returns the observer.
        """
        observer = obs.Observer(
            self.sim, categories=categories, capacity=capacity, world=self,
        )
        self.sim.observer = observer
        return observer

    def run(self, until=None):
        return self.sim.run(until=until)

"""Host machine model: cores, core groups, RAM accounting, local disks.

The client machine in the paper has 64 cores in L2-sharing pairs and 256 GB
RAM; experiments *activate* only a subset of cores (e.g. 4 or 16) and place
each container pool on a dedicated 2-core cpuset. The machine object owns
the cores, the core-pair topology Danaus uses to place its IPC queues, and
a RAM account that backs cgroup memory charging.
"""

from repro.common import units
from repro.common.errors import ConfigError, OutOfMemory
from repro.hw.disk import Disk, Raid0
from repro.sim.cpu import Core

__all__ = ["CoreGroup", "RamAccount", "Machine"]


class CoreGroup(object):
    """Cores sharing a same-level cache (an L2 pair on the testbed).

    Danaus keeps one IPC request queue per core group so application and
    service threads communicating through the queue share an L2 (§3.5).
    """

    __slots__ = ("index", "cores")

    def __init__(self, index, cores):
        self.index = index
        self.cores = list(cores)

    def __contains__(self, core):
        return core in self.cores

    def __repr__(self):
        return "<CoreGroup %d cores=%s>" % (
            self.index,
            [core.index for core in self.cores],
        )


class RamAccount(object):
    """Tracks memory usage against a capacity; supports child accounts.

    A child account represents a cgroup memory limit; charging a child also
    charges its parent (the machine). Exceeding a limit raises
    :class:`OutOfMemory` — workloads are sized to avoid it, and tests use it
    to verify the cgroup behaviour.
    """

    def __init__(self, capacity, name="ram", parent=None):
        self.capacity = capacity
        self.name = name
        self.parent = parent
        self.used = 0
        self.high_water = 0

    def charge(self, nbytes):
        if nbytes < 0:
            raise ConfigError("negative memory charge")
        # Validate the whole ancestor chain before mutating any account, so
        # a limit hit partway up leaves every account untouched.
        account = self
        while account is not None:
            if account.used + nbytes > account.capacity:
                raise OutOfMemory(
                    "%s: %d + %d exceeds %d bytes"
                    % (account.name, account.used, nbytes, account.capacity)
                )
            account = account.parent
        account = self
        while account is not None:
            used = account.used + nbytes
            account.used = used
            if used > account.high_water:
                account.high_water = used
            account = account.parent

    def uncharge(self, nbytes):
        account = self
        while account is not None:
            if nbytes > account.used:
                raise ConfigError(
                    "%s: uncharge %d exceeds used %d"
                    % (account.name, nbytes, account.used)
                )
            account.used -= nbytes
            account = account.parent

    def can_charge(self, nbytes):
        """True when ``nbytes`` fits under this account and its ancestors."""
        account = self
        while account is not None:
            if account.used + nbytes > account.capacity:
                return False
            account = account.parent
        return True

    def headroom(self):
        """Bytes that can still be charged here: the tightest remaining
        room along this account and its ancestors."""
        room = self.capacity - self.used
        account = self.parent
        while account is not None:
            room = min(room, account.capacity - account.used)
            account = account.parent
        return room

    @property
    def available(self):
        return self.capacity - self.used

    def child(self, capacity, name):
        """Create a sub-account (cgroup memory limit)."""
        return RamAccount(capacity, name=name, parent=self)


class Machine(object):
    """A host: cores grouped into L2 pairs, RAM, and local disks."""

    def __init__(
        self,
        sim,
        name="host",
        num_cores=64,
        cores_per_group=2,
        ram_bytes=256 * units.GIB,
        num_disks=6,
        disk_bandwidth=160 * units.MIB,
    ):
        if num_cores <= 0 or cores_per_group <= 0:
            raise ConfigError("machine needs positive core counts")
        self.sim = sim
        self.name = name
        self.cores = [
            Core(sim, index, name="%s.c%d" % (name, index))
            for index in range(num_cores)
        ]
        self.core_groups = [
            CoreGroup(gi, self.cores[gi * cores_per_group:(gi + 1) * cores_per_group])
            for gi in range((num_cores + cores_per_group - 1) // cores_per_group)
        ]
        self.ram = RamAccount(ram_bytes, name="%s.ram" % name)
        self.disks = [
            Disk(sim, name="%s.d%d" % (name, index), bandwidth=disk_bandwidth)
            for index in range(num_disks)
        ]
        self.activated = list(self.cores)
        self._next_alloc = 0

    def activate_cores(self, count):
        """Enable only the first ``count`` cores (the paper enables 4-16)."""
        if not 0 < count <= len(self.cores):
            raise ConfigError("cannot activate %d of %d cores" % (count, len(self.cores)))
        self.activated = self.cores[:count]
        self._next_alloc = 0
        return self.activated

    def allocate_cores(self, count):
        """Reserve the next ``count`` activated cores for a container pool.

        Allocation is sequential so that a 2-core pool lands on one L2 core
        group, matching the testbed layout.
        """
        if self._next_alloc + count > len(self.activated):
            raise ConfigError(
                "out of activated cores: want %d, %d left"
                % (count, len(self.activated) - self._next_alloc)
            )
        cores = self.activated[self._next_alloc:self._next_alloc + count]
        self._next_alloc += count
        return cores

    def group_of(self, core):
        """The :class:`CoreGroup` containing ``core``."""
        for group in self.core_groups:
            if core in group:
                return group
        raise ConfigError("core %r not on machine %s" % (core, self.name))

    def groups_covering(self, cores):
        """Distinct core groups touched by ``cores``, in index order."""
        seen = []
        for core in cores:
            group = self.group_of(core)
            if group not in seen:
                seen.append(group)
        return seen

    def make_raid0(self, num_disks=4, chunk=64 * units.KIB):
        """Build a RAID-0 over the first ``num_disks`` local disks."""
        if num_disks > len(self.disks):
            raise ConfigError("machine has only %d disks" % len(self.disks))
        return Raid0(self.sim, self.disks[:num_disks], chunk=chunk)

    def __repr__(self):
        return "<Machine %s cores=%d activated=%d>" % (
            self.name,
            len(self.cores),
            len(self.activated),
        )

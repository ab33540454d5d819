"""The container engine: pool lifecycle and image plumbing.

The Danaus container engine is a user-level daemon that manages the
container pools of a host (§4.3): it carves cpusets and memory limits out
of the machine, keeps the image registry, and hands pools to the stack
factories (:mod:`repro.stacks`) that assemble the Table-1 filesystem
combinations.
"""

from repro.common import units
from repro.common.errors import ConfigError
from repro.containers.images import Registry
from repro.containers.pool import ContainerPool

__all__ = ["ContainerEngine"]


class ContainerEngine(object):
    """Manages the container pools of one host."""

    def __init__(self, host):
        self.host = host
        self.registry = Registry()
        self.pools = {}

    def create_pool(self, name, num_cores=2, ram_bytes=8 * units.GIB):
        """Reserve a pool: the paper's default is 2 cores + 8 GB RAM."""
        if name in self.pools:
            raise ConfigError("pool %r already exists" % name)
        cores = self.host.machine.allocate_cores(num_cores)
        pool = ContainerPool(self.host, name, cores, ram_bytes)
        self.pools[name] = pool
        return pool

    def seed_image(self, task, image, fs, prefix):
        """Materialise an image onto a filesystem (sim generator)."""
        return self.registry.materialize(task, image, fs, prefix)

"""Danaus reproduction: container I/O isolation at the storage client side.

A faithful, laptop-scale reproduction of *"Experience Paper: Danaus:
Isolation and Efficiency of Container I/O at the Client Side of Network
Storage"* (Kappes & Anastasiadis, Middleware '21), built as a functional
system running inside a discrete-event simulator.

Quickstart::

    from repro import World, StackFactory
    from repro.common import units

    world = World(num_cores=8)
    host = world.primary
    host.activate_cores(4)
    pool = host.engine.create_pool("tenant0", num_cores=2,
                                   ram_bytes=units.gib(8))
    mount = StackFactory(pool, "D").mount_root("c0")
    task = pool.new_task("app")

    def app():
        yield from mount.fs.write_file(task, "/data.bin", b"hello danaus")
        data = yield from mount.fs.read_file(task, "/data.bin")
        print(data)

    world.sim.spawn(app())
    world.run(until=10)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
per-figure reproduction results.
"""

from repro.costs import CostModel
from repro.stacks import SYMBOLS, Mount, StackFactory, mount_local
from repro.world import World

__version__ = "1.0.0"

__all__ = [
    "World",
    "CostModel",
    "StackFactory",
    "Mount",
    "mount_local",
    "SYMBOLS",
    "__version__",
]

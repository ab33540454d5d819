"""Shared experiment helpers: seeding, draining, waiting."""

from repro.cephclient import CephLibClient
from repro.common import units
from repro.fs import pathutil

__all__ = ["seed_tree", "seed_image", "run_all", "scaled_costs"]


def scaled_costs(**overrides):
    """The cost model with writeback time constants scaled to the data.

    Experiments shrink the paper's datasets by ~64x to stay laptop-sized;
    keeping the kernel's 5 s expire / 1 s writeback intervals would then
    let most written data be deleted before it ever ages out, removing the
    flush pressure the paper's contention results depend on. Scaling the
    intervals by a comparable factor restores the paper's ratio of file
    lifetime to dirty expiration.
    """
    from repro.costs import CostModel

    params = dict(writeback_interval=0.02, expire_interval=0.1)
    params.update(overrides)
    return CostModel(**params)


def seed_tree(world, files, prefix="/"):
    """Write ``files`` (path -> bytes) into the shared cluster namespace.

    Uses a throwaway host-side client and flushes synchronously, so the
    data is on the OSDs before any experiment traffic starts.
    """
    host = world.primary
    task = host.task("seed")
    account = host.machine.ram.child(
        max(units.mib(64), 2 * sum(len(d) for d in files.values())),
        "seed.ram",
    )
    client = CephLibClient(
        world.sim, world.cluster, world.costs, account, host.machine.cores,
        name="seeder", start_flusher=False,
    )

    def proc():
        for path, data in sorted(files.items()):
            target = pathutil.join(prefix, path.lstrip("/"))
            yield from client.makedirs(task, pathutil.parent_of(target))
            yield from client.write_file(task, target, data)
        yield from client.flush_all(task)
        client.stop()

    process = world.sim.spawn(proc(), name="seed")
    finished = world.sim.run_until(process, world.sim.now + 10000)
    assert finished, "seeding did not finish"


def seed_image(world, image, prefix):
    """Materialise an image into the shared namespace (pre-experiment)."""
    seed_tree(world, image.flat(), prefix)


def run_all(world, processes, budget):
    """Run the simulation until every process in ``processes`` finished."""
    deadline = world.sim.now + budget

    def waiter():
        yield world.sim.all_of(processes)

    done = world.sim.spawn(waiter())
    finished = world.sim.run_until(done, deadline)
    assert finished, (
        "experiment did not finish within %.0f simulated seconds" % budget
    )

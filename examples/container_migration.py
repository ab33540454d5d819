#!/usr/bin/env python
"""Migration demo: move a container between hosts via shared storage.

The paper's §9 observes that Danaus "could conveniently facilitate the
container migration between hosts through the shared network filesystem".
This demo builds a two-host world over one Ceph-like cluster, runs a
tenant database container on host A, and migrates it to host B — no image
or data copying, just a flush and a re-mount. The report shows the
downtime and proves the data survived.

Run:  python examples/container_migration.py
"""

from repro.common import units
from repro.containers import Container, migrate_container
from repro.stacks import StackFactory
from repro.workloads import MiniRocksDB
from repro.world import World


def main():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    host = world.primary
    host.activate_cores(4)
    host_b = world.add_host("client-b", num_cores=8, ram_bytes=units.gib(16))
    host_b.activate_cores(4)

    source_pool = host.engine.create_pool(
        "tenant-a", num_cores=2, ram_bytes=units.gib(4)
    )
    target_pool = host_b.engine.create_pool(
        "tenant-a-new-home", num_cores=2, ram_bytes=units.gib(4)
    )
    mount = StackFactory(world, source_pool, "D").mount_root("db0")
    container = Container(source_pool, "db0", mount)

    def scenario():
        task = container.new_task("db")
        db = MiniRocksDB(container.fs, source_pool,
                         memtable_bytes=units.kib(256))
        yield from db.open(task)
        for index in range(150):
            yield from db.put(task, "key-%04d" % index,
                              b"value-%04d" % index * 16)
        yield from db.close(task)
        print("host A: inserted 150 pairs "
              "(%d SST flushes)" % db.stats["flushes"])

        report = yield from migrate_container(world, container, target_pool)
        print("migrated %s: %s -> %s" % (
            report.container.cid, report.source_pool.name,
            report.target_pool.name,
        ))
        print("downtime: %.1f ms  (flushed %s of dirty state)" % (
            report.downtime * 1000.0,
            "%.0f KiB" % (report.flushed_bytes / 1024.0),
        ))

        # The database keeps working on host B, against the same files.
        new_task = report.container.new_task("db")
        db_b = MiniRocksDB(report.container.fs, target_pool,
                           memtable_bytes=units.kib(256))
        yield from db_b.open(new_task)
        value = yield from db_b.get(new_task, "key-0042")
        print("host B: get(key-0042) -> %r..." % value[:22])
        yield from db_b.put(new_task, "key-after-move", b"still writable")
        fresh = yield from db_b.get(new_task, "key-after-move")
        print("host B: new writes work: %r" % fresh)

    world.sim.spawn(scenario(), name="scenario")
    world.run(until=600)
    print()
    print("the container's state never left the shared cluster: %s stored"
          % units.fmt_bytes(world.cluster.stored_bytes))


if __name__ == "__main__":
    main()

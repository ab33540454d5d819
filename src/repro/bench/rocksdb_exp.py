"""RocksDB experiments: Fig. 7 (a) put scaleout, (b) get scaleout,
(c) put scaleup, (d) get scaleup.

Scaleout: N independent container pools (2 cores / 8 GB each), one
RocksDB per pool over a *private* client (D, F or K). The paper's shape:
D's put latency stays flat while K's explodes with pool count (up to
16.2x at 32 pools) because every kernel-client op crosses shared kernel
locks and workqueues; F sits between (FUSE crossings, but a private
user-level cache).

Scaleup: N cloned containers inside a *single* pool, each with a private
union over one *shared* client (D, F/F, F/K, K/K). Sharing one client
forfeits the scaleout decentralisation: D's global client_lock now
serialises all clones' cached reads, so gets show the paper's crossover —
K/K wins at few clones, D still beats F/F everywhere.
"""

from repro.bench.util import run_all, scaled_costs, seed_tree
from repro.common import units
from repro.stacks import StackFactory
from repro.workloads import RocksDbGet, RocksDbPut
from repro.world import World

__all__ = ["run_rocksdb_scaleout", "run_rocksdb_scaleup"]

#: Scaled workload (paper: 1 GB of 128 KB values, 64 MB memtable).
PUT_PARAMS = dict(
    total_bytes=units.mib(24), value_size=units.kib(128),
    memtable_bytes=units.mib(2),
)
GET_PARAMS = dict(
    populate_bytes=units.mib(24), read_bytes=units.mib(24),
    value_size=units.kib(128), memtable_bytes=units.mib(2),
)


def _small_cache():
    # Out-of-core: the cache must not hold the dataset.
    return units.mib(2)


def run_rocksdb_scaleout(symbol, n_pools, mode, seed=1):
    world = World(
        num_cores=max(2 * n_pools, 4), ram_bytes=units.gib(512),
        costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(2 * n_pools)
    # Scaled pool memory: generous for put (write-behind wanted), tight
    # for get (the paper's get workload is explicitly out-of-core).
    pool_ram = units.mib(48) if mode == "put" else units.mib(6)
    workloads = []
    for index in range(n_pools):
        pool = host.engine.create_pool(
            "p%d" % index, num_cores=2, ram_bytes=pool_ram
        )
        factory = StackFactory(
            world, pool, symbol,
            cache_bytes=_small_cache() if mode == "get" else None,
        )
        mount = factory.mount_root("c0")
        if mode == "put":
            workload = RocksDbPut(mount.fs, pool, seed=seed + index, **PUT_PARAMS)
        else:
            workload = RocksDbGet(mount.fs, pool, seed=seed + index, **GET_PARAMS)
        workloads.append(workload)
    run_all(world, [w.start() for w in workloads], budget=100000)
    latencies = [w.result.latency.mean for w in workloads]
    lock_stats = host.kernel.locks.total_stats()
    return {
        "mode": mode,
        "symbol": symbol,
        "pools": n_pools,
        "mean_latency_ms": 1000.0 * sum(latencies) / len(latencies),
        "kernel_lock_wait_s": lock_stats.total_wait,
    }


def run_rocksdb_scaleup(symbol, n_clones, mode, pool_cores=8, seed=1):
    world = World(
        num_cores=pool_cores, ram_bytes=units.gib(512), costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(pool_cores)
    # Seed the shared read-only image (a minimal rootfs marker file).
    seed_tree(world, {"/etc/os-release": b"debian9"}, "/images/base")
    pool_ram = (
        units.mib(48) * n_clones if mode == "put"
        else units.mib(6) * n_clones
    )
    pool = host.engine.create_pool(
        "scaleup", num_cores=pool_cores, ram_bytes=pool_ram
    )
    factory = StackFactory(
        world, pool, symbol,
        cache_bytes=_small_cache() * n_clones if mode == "get" else None,
    )
    workloads = []
    for index in range(n_clones):
        # Every scaleup clone unions a private upper over the shared image
        # (for D this is the paper's "distinct union + shared client").
        mount = factory.mount_root("c%d" % index, image_path="/images/base")
        params = dict(PUT_PARAMS if mode == "put" else GET_PARAMS)
        directory = "/rocksdb"
        if mode == "put":
            workload = RocksDbPut(
                mount.fs, pool, seed=seed + index, directory=directory, **params
            )
        else:
            workload = RocksDbGet(
                mount.fs, pool, seed=seed + index, directory=directory, **params
            )
        workloads.append(workload)
    run_all(world, [w.start() for w in workloads], budget=200000)
    latencies = [w.result.latency.mean for w in workloads]
    return {
        "mode": mode,
        "symbol": symbol,
        "clones": n_clones,
        "mean_latency_ms": 1000.0 * sum(latencies) / len(latencies),
    }

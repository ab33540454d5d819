"""Fileserver scaleout: Fig. 10.

1-N pools, each running Filebench Fileserver over a private client (D, F,
K). The paper's shape: D's aggregate throughput keeps scaling (2.7 GB/s at
16 pools — 2.3x over K at 8 pools, 1.7x over F at 1 pool), while K's
clients pile up on shared kernel locks and generate up to 22x more I/O
wait at the client.
"""

# The Fileserver calibration (file count vs dirty-expiration lifetime,
# pool memory vs dataset) is shared with the isolation experiments —
# see the rationale in repro.bench.isolation.
from repro.bench.isolation import FLS_PARAMS, POOL_RAM
from repro.bench.util import run_all, scaled_costs
from repro.common import units
from repro.stacks import StackFactory
from repro.workloads import Fileserver
from repro.world import World

__all__ = ["run_fileserver_scaleout"]


def run_fileserver_scaleout(symbol, n_pools, duration=2.0, seed=1):
    world = World(
        num_cores=max(2 * n_pools, 4), ram_bytes=units.gib(512),
        costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(2 * n_pools)
    workloads = []
    for index in range(n_pools):
        pool = host.engine.create_pool(
            "p%d" % index, num_cores=2, ram_bytes=POOL_RAM
        )
        factory = StackFactory(pool, symbol, cache_bytes=POOL_RAM // 2)
        host.kernel.writeback.set_max_dirty(pool.ram, units.mib(8))
        mount = factory.mount_root("c0")
        workloads.append(
            Fileserver(mount.fs, pool, duration=duration, seed=seed + index,
                       **FLS_PARAMS)
        )
    run_all(world, [w.start() for w in workloads], budget=duration * 200)
    total_bytes = sum(
        w.result.bytes_read + w.result.bytes_written for w in workloads
    )
    total_ops = sum(w.result.ops for w in workloads)
    lock_stats = host.kernel.locks.total_stats()
    return {
        "symbol": symbol,
        "pools": n_pools,
        "total_ops_per_sec": total_ops / duration,
        "throughput_mb_s": total_bytes / duration / units.MIB,
        "kernel_lock_wait_s": lock_stats.total_wait,
    }

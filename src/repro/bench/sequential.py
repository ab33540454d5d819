"""Sequential I/O scaleout: Fig. 9 (Seqwrite top, Seqread bottom).

N pools, each with a private client (D, F, K) and one Seqwrite or Seqread
instance. The paper's shapes:

* Seqwrite: D and F beat K by up to 2.8x — K burns enormous time waiting
  on kernel locks (``i_mutex_dir_key``, ``i_mutex_key``) and handles I/O
  with unallocated cores that disappear as pools multiply;
* Seqread (cache-warm): K beats D by up to 37% — D's reads serialise on
  the libcephfs global ``client_lock``; D still beats F by up to 75%
  because F pays two FUSE crossings per read.
"""

from repro.bench.util import run_all, scaled_costs
from repro.common import units
from repro.stacks import StackFactory
from repro.workloads import Seqread, Seqwrite
from repro.world import World, releases_world

__all__ = ["run_sequential"]

#: Scaled parameters (paper: 1 GB file, 16 threads, 120 s).
SEQ_PARAMS = dict(file_size=units.mib(8), iosize=units.mib(1), threads=4)


@releases_world
def run_sequential(symbol, n_pools, mode, duration=3.0, seed=1):
    world = World(
        num_cores=max(2 * n_pools, 4), ram_bytes=units.gib(512),
        costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(2 * n_pools)
    workloads = []
    for index in range(n_pools):
        pool = host.engine.create_pool(
            "p%d" % index, num_cores=2, ram_bytes=units.mib(96)
        )
        factory = StackFactory(pool, symbol, cache_bytes=units.mib(48))
        host.kernel.writeback.set_max_dirty(pool.ram, units.mib(16))
        mount = factory.mount_root("c0")
        cls = Seqwrite if mode == "write" else Seqread
        workloads.append(
            cls(mount.fs, pool, duration=duration, seed=seed + index,
                **SEQ_PARAMS)
        )
    run_all(world, [w.start() for w in workloads], budget=duration * 200)
    total_bytes = sum(
        w.result.bytes_written + w.result.bytes_read for w in workloads
    )
    lock_stats = host.kernel.locks.total_stats()
    busy = sum(core.busy_time for core in host.machine.cores)
    return {
        "symbol": symbol,
        "pools": n_pools,
        "mode": mode,
        "throughput_mb_s": total_bytes / duration / units.MIB,
        "kernel_lock_wait_s": lock_stats.total_wait,
        "cpu_busy_s": busy,
    }

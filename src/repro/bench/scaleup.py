"""Sequential I/O scaleup: Fig. 11 (Fileappend, Fileread).

N cloned containers in a single pool, each unioning a private upper
branch over a shared read-only lower branch that holds one large file;
all clones run concurrently and the *timespan* until all finish plus the
*maximum memory* are reported.

* Fileappend (Fig. 11a): the O_APPEND write forces a whole-file copy-up,
  so I/O is ~50/50 read/write. D's timespan beats K/K by up to 46% at 32
  containers; memory grows linearly for K/K, F/F and D, while FP/FP's
  page-cache-on-top-of-user-cache roughly doubles it.
* Fileread (Fig. 11b): pure shared reads. K/K is 1.2-4.9x faster than D
  (client_lock serialisation) but burns far more CPU; F/F needs the same
  memory as D with 11-23% longer timespan; FP/FP is faster than D but
  occupies up to 30x more memory.
"""

from repro.bench.util import run_all, scaled_costs, seed_tree
from repro.common import units
from repro.common.rng import pseudo_bytes
from repro.stacks import StackFactory
from repro.workloads import Fileappend, Fileread
from repro.world import World

__all__ = ["run_file_scaleup", "run_pool_scaleup"]

IMAGE_PATH = "/images/shared"
SHARED_FILE = "/shared.bin"
#: Scaled size of the paper's 2 GB shared file.
SHARED_SIZE = units.mib(8)


def run_file_scaleup(symbol, n_clones, mode, pool_cores=8, seed=1,
                     locking="global"):
    world = World(
        num_cores=pool_cores, ram_bytes=units.gib(512), costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(pool_cores)
    seed_tree(
        world,
        {SHARED_FILE: pseudo_bytes(SHARED_SIZE, (seed, "shared"))},
        IMAGE_PATH,
    )
    pool = host.engine.create_pool(
        "scaleup", num_cores=pool_cores, ram_bytes=units.gib(200)
    )
    factory = StackFactory(world, pool, symbol, locking=locking)
    workloads = []
    for index in range(n_clones):
        mount = factory.mount_root("c%d" % index, image_path=IMAGE_PATH)
        cls = Fileappend if mode == "append" else Fileread
        workloads.append(
            cls(mount.fs, pool, path=SHARED_FILE, seed=seed + index)
        )
    start = world.sim.now
    run_all(world, [w.start() for w in workloads], budget=100000)
    timespan = world.sim.now - start
    return {
        "symbol": symbol,
        "clones": n_clones,
        "mode": mode,
        "timespan_s": timespan,
        "max_memory_mb": pool.ram.high_water / units.MIB,
    }


def run_pool_scaleup(symbol, n_pools, clones_per_pool, mode="append",
                     cores_per_pool=2, seed=1):
    """Two-axis scale-up: N pools, each running M cloned containers.

    The paper's §6.3 sweep scales both axes (up to 32 pools / 256
    containers); this reproduction extends one notch at a time as engine
    headroom allows — 8 pools x 2 clones = 16 containers today. Every
    pool gets its own stack instance over a dedicated cpuset, so the
    sweep also exercises cross-pool interference, unlike
    :func:`run_file_scaleup` which stresses a single pool.
    """
    total_cores = n_pools * cores_per_pool
    world = World(
        num_cores=max(total_cores, 4), ram_bytes=units.gib(512),
        costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(total_cores)
    seed_tree(
        world,
        {SHARED_FILE: pseudo_bytes(SHARED_SIZE, (seed, "shared"))},
        IMAGE_PATH,
    )
    workloads = []
    pools = []
    for pindex in range(n_pools):
        pool = host.engine.create_pool(
            "sp%d" % pindex, num_cores=cores_per_pool,
            ram_bytes=units.gib(32),
        )
        pools.append(pool)
        factory = StackFactory(world, pool, symbol)
        for cindex in range(clones_per_pool):
            mount = factory.mount_root(
                "p%dc%d" % (pindex, cindex), image_path=IMAGE_PATH
            )
            cls = Fileappend if mode == "append" else Fileread
            workloads.append(
                cls(mount.fs, pool, path=SHARED_FILE,
                    seed=seed + pindex * clones_per_pool + cindex)
            )
    start = world.sim.now
    run_all(world, [w.start() for w in workloads], budget=100000)
    timespan = world.sim.now - start
    return {
        "symbol": symbol,
        "pools": n_pools,
        "clones_per_pool": clones_per_pool,
        "containers": n_pools * clones_per_pool,
        "mode": mode,
        "timespan_s": timespan,
        "max_memory_mb": max(p.ram.high_water for p in pools) / units.MIB,
    }

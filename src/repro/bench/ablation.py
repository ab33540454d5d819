"""Ablations of Danaus design decisions called out in the paper.

* **client_lock** (§6.3.2, §9): the libcephfs global lock limits cached
  sequential-read concurrency; the paper's preliminary experiments showed
  removing it helps but requires refactoring. We implement the refactoring
  as the ``locking=`` policy ladder (global -> per-inode -> per-object-
  range -> adaptive, see :mod:`repro.cephclient.locking`) and measure
  each step: ``abl-locking`` sweeps the full ladder on both the Fig. 9
  per-file scenario and a shared-hot-file variant.
* **per-core-group IPC queues** (§3.5): Danaus keeps one request queue per
  L2 core pair so communicating threads share a cache and don't contend on
  one queue. We compare against a single shared queue.
"""

from repro.bench.util import run_all
from repro.common import units
from repro.stacks import StackFactory
from repro.workloads import Seqread, Seqwrite
from repro.world import World

__all__ = [
    "dedup_notes",
    "locking_notes",
    "run_dedup_memory",
    "run_seqread_locking",
    "run_seqwrite_queues",
]


def run_seqread_locking(locking, duration=3.0, threads=6, pool_cores=8, seed=1,
                        shared_file=False):
    """One locking policy on the Fig. 9 cached-Seqread shape.

    Two scenario groups: the paper's *per-file* configuration (each
    thread streams its own cached file — per-inode locking removes the
    contention entirely) and a *shared-file* variant (every thread
    streams one hot file — per-inode locking degenerates back to a
    single mutex, and only the per-object-range locks restore
    concurrency). The adaptive rows show where the runtime controller
    converged and how many switches it took.
    """
    world = World(num_cores=pool_cores, ram_bytes=units.gib(64))
    host = world.primary
    host.activate_cores(pool_cores)
    pool = host.engine.create_pool(
        "pool", num_cores=pool_cores, ram_bytes=units.gib(32)
    )
    factory = StackFactory(
        world, pool, "D", locking=locking,
        cache_bytes=units.gib(1),
    )
    mount = factory.mount_root("c0")
    workload = Seqread(
        mount.fs, pool, duration=duration, threads=threads,
        file_size=units.mib(4), iosize=units.mib(1), seed=seed,
        shared_file=shared_file,
    )
    run_all(world, [workload.start()], budget=duration * 200)
    client = mount.client
    policy = client._locking
    ino_wait = sum(
        lock.stats.total_wait for lock in policy._ino_locks.values()
    )
    range_wait = sum(
        lock.stats.total_wait
        for table in policy._range_locks.values()
        for lock in table.values()
    )
    row = {
        "locking": locking,
        "sharing": "shared-file" if shared_file else "per-file",
        "throughput_mb_s": workload.result.bytes_read / duration / units.MIB,
        "client_lock_wait_s": client.client_lock.stats.total_wait,
        "ino_lock_wait_s": ino_wait,
        "range_lock_wait_s": range_wait,
    }
    if locking == "adaptive":
        row["switches"] = len(policy.decisions)
        row["final_mode"] = policy.mode
    return row


def locking_notes(result, axes):
    """Each finer policy's speedup over ``global``, per sharing group."""
    for sharing in ("per-file", "shared-file"):
        coarse = result.value(
            "throughput_mb_s", locking="global", sharing=sharing
        )
        for locking in ("inode", "range", "adaptive"):
            fine = result.value(
                "throughput_mb_s", locking=locking, sharing=sharing
            )
            result.note(
                "%s %s speedup over global: %.2fx"
                % (sharing, locking, fine / coarse if coarse else 0)
            )


def run_seqwrite_queues(single_queue, duration=2.0, threads=4, pool_cores=8,
                        seed=1):
    world = World(num_cores=pool_cores, ram_bytes=units.gib(64))
    host = world.primary
    host.activate_cores(pool_cores)
    pool = host.engine.create_pool(
        "pool", num_cores=pool_cores, ram_bytes=units.gib(32)
    )
    factory = StackFactory(
        world, pool, "D", single_queue=single_queue,
        cache_bytes=units.mib(64),
    )
    mount = factory.mount_root("c0")
    workload = Seqwrite(
        mount.fs, pool, duration=duration, threads=threads,
        file_size=units.mib(8), iosize=units.mib(1), seed=seed,
    )
    run_all(world, [workload.start()], budget=duration * 200)
    return {
        "queues": "single" if single_queue else "per-core-group",
        "nr_queues": len(mount.service.ipc.queues),
        "throughput_mb_s": workload.result.bytes_written / duration / units.MIB,
        "threads_pinned": mount.service.ipc.metrics.counter("threads_pinned").value,
    }


def run_dedup_memory(dedup, n_containers=4, content_bytes=units.mib(2), seed=1):
    """Memory to cache N byte-identical container roots, with/without
    block-level dedup (§9 future work, Slacker-style)."""
    from repro.bench.util import seed_tree
    from repro.cephclient import CephLibClient
    from repro.common.rng import make_rng

    world = World(num_cores=4, ram_bytes=units.gib(64))
    host = world.primary
    host.activate_cores(4)
    # Independent containers: each holds a FULL private copy of the same
    # image payload (no union — the dedup must come from the cache).
    payload = make_rng(seed, "dedup-image").randbytes(content_bytes)
    files = {
        "/pools/p/c%d/rootfs.bin" % index: payload
        for index in range(n_containers)
    }
    seed_tree(world, files, "/")
    pool = host.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(8))
    client = CephLibClient(
        world.sim, world.cluster, world.costs, pool.ram, pool.cores,
        name="dedup-client", cache_dedup=dedup,
    )
    task = pool.new_task()

    def read_all():
        for index in range(n_containers):
            yield from client.read_file(task, "/pools/p/c%d/rootfs.bin" % index)

    run_all(world, [world.sim.spawn(read_all(), name="reader")], budget=5000)
    return {
        "dedup": "on" if dedup else "off",
        "containers": n_containers,
        "cache_mb": client.cache.cached_bytes / units.MIB,
        "saved_mb": client.cache.dedup_saved_bytes / units.MIB,
    }


def dedup_notes(result, axes):
    off = result.value("cache_mb", dedup="off")
    on = result.value("cache_mb", dedup="on")
    result.note("cache memory reduction: %.1fx" % (off / on if on else 0))

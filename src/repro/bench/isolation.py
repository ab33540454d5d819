"""Isolation experiments: Fig. 1 (motivation) and Fig. 6 (a, b, c).

One or seven Fileserver (FLS) instances run over Danaus (D) or the kernel
CephFS client (K), alone or colocated with a neighbour workload — Stress-ng
RandomIO (RND) or Filebench Webserver (WBS) on local ext4/RAID-0, or
Sysbench CPU (SSB). Each instance lives in its own container pool of
2 cores; the host activates twice as many cores as running instances, and
the neighbour's pool is always *reserved* (so "alone" runs measure how much
the kernel steals the reserved-but-idle neighbour cores).

Reported per configuration:

* summed FLS throughput (ops/s) — Fig. 1a/6a/6b bars;
* utilisation of the neighbour pool's cores — Fig. 1a/6a/6b lines;
* average kernel lock wait/hold per request — Fig. 1b;
* for SSB: p99 SSB latency and mean FLS latency — Fig. 6c.
"""

from repro.bench.util import scaled_costs
from repro.common import units
from repro.stacks import StackFactory, mount_local
from repro.workloads import Fileserver, RandomIO, SysbenchCpu, Webserver
from repro.world import World, releases_world

__all__ = ["colocation_notes", "run_colocation"]

#: Scaled Fileserver parameters (paper: 5 MB mean / 1000 files / 120 s).
#: The dataset (~nfiles x mean_size) is sized a few times the pool's
#: background dirty threshold so that steady-state flushing is continuous,
#: exactly like the paper's 5 GB dataset against a 2 GB threshold.
#: The file count keeps the mean file *lifetime* above the (scaled)
#: dirty-expiration interval, as in the paper — otherwise most written
#: data would be deleted before it is ever flushed, erasing the very
#: writeback pressure Fig. 1/6 measure.
FLS_PARAMS = dict(nfiles=500, mean_size=96 * units.KIB, threads=4)

#: Scaled pool memory (paper: 8 GB): holds the ~48 MB dataset in cache
#: with room to spare, like the paper's 5 GB dataset in 8 GB pools.
POOL_RAM = 128 * units.MIB


def _build_neighbor(pool, kind, duration, seed):
    if kind == "RND":
        mount = mount_local(pool)
        # The paper's RND file (1 GB) does not stay cache-hot against the
        # pool's memory; keep that ratio so reads keep missing to disk.
        return RandomIO(
            mount.fs, pool, duration=duration, threads=2,
            file_size=units.mib(96), seed=seed, batch_cpu=units.usec(600),
        )
    if kind == "WBS":
        mount = mount_local(pool)
        # As with RND: the paper's 200k x 16 KB dataset exceeds the pool's
        # memory, so serving it keeps touching the local disks.
        return Webserver(
            mount.fs, pool, duration=duration, threads=8, nfiles=3072,
            mean_size=units.kib(24), seed=seed, serve_cpu=units.usec(300),
        )
    if kind == "SSB":
        return SysbenchCpu(pool, duration=duration, threads=2,
                           request_cpu=0.002, seed=seed)
    raise ValueError("unknown neighbour %r" % kind)


@releases_world
def run_colocation(symbol, n_fls, neighbor=None, duration=3.0, seed=1,
                   fls_params=None, pool_ram=POOL_RAM):
    """One bar+line of Fig. 1/6: returns a metrics dict."""
    params = dict(FLS_PARAMS)
    if fls_params:
        params.update(fls_params)
    instances = n_fls + 1  # the neighbour pool is always reserved
    world = World(
        num_cores=max(2 * instances, 4), ram_bytes=units.gib(256),
        costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(2 * instances)
    sim = world.sim

    fls_pools = [
        host.engine.create_pool("fls%d" % index, num_cores=2,
                                ram_bytes=pool_ram)
        for index in range(n_fls)
    ]
    neighbor_pool = host.engine.create_pool(
        "nbr", num_cores=2, ram_bytes=pool_ram
    )

    fls_workloads = []
    for index, pool in enumerate(fls_pools):
        factory = StackFactory(
            world, pool, symbol,
            # The paper gives D a cache that holds the whole dataset.
            cache_bytes=pool_ram // 2,
        )
        # Scaled dirty ceiling (the paper's "50% of pool RAM" against the
        # scaled dataset; see scaled_costs for the rationale).
        host.kernel.writeback.set_max_dirty(pool.ram, units.mib(8))
        mount = factory.mount_root("c0")
        fls_workloads.append(
            Fileserver(mount.fs, pool, duration=duration, seed=seed + index,
                       **params)
        )
    host.kernel.writeback.set_max_dirty(neighbor_pool.ram, units.mib(8))

    neighbor_workload = None
    if neighbor is not None:
        neighbor_workload = _build_neighbor(
            neighbor_pool, neighbor, duration, seed + 100
        )

    processes = [workload.start() for workload in fls_workloads]
    if neighbor_workload is not None:
        processes.append(neighbor_workload.start())
    neighbor_pool.probe.reset()
    start = sim.now
    snapshots = {}

    def waiter():
        yield sim.all_of(processes)
        # Sample the neighbour-core utilisation over the *active* window,
        # before the simulation's idle tail dilutes it.
        snapshots["nbr_util"] = neighbor_pool.probe.total_utilization()

    done = sim.spawn(waiter())
    finished = sim.run_until(done, start + duration * 40)
    assert finished, "colocation run did not finish"

    lock_stats = host.kernel.locks.total_stats()
    fls_ops = sum(w.result.ops for w in fls_workloads)
    fls_latency = [w.result.latency.mean for w in fls_workloads]
    out = {
        "symbol": symbol,
        "n_fls": n_fls,
        "neighbor": neighbor or "-",
        "fls_ops_per_sec": fls_ops / duration,
        "fls_mean_latency": sum(fls_latency) / len(fls_latency) if fls_latency else 0.0,
        "nbr_core_util_pct": 100.0 * snapshots["nbr_util"],
        "lock_wait_us": lock_stats.avg_wait / units.USEC,
        "lock_hold_us": lock_stats.avg_hold / units.USEC,
    }
    if neighbor == "SSB" and neighbor_workload is not None:
        out["ssb_p99_ms"] = neighbor_workload.result.latency.p99 / units.MSEC
    return out


def colocation_notes(result, axes):
    """Alone/colocated throughput ratio per (symbol, n_fls)."""
    neighbor = axes["neighbor"][1]
    for symbol in axes["symbol"]:
        for n_fls in axes["n_fls"]:
            alone = result.value(
                "fls_ops_per_sec", symbol=symbol, n_fls=n_fls, neighbor="-"
            )
            coloc = result.value(
                "fls_ops_per_sec", symbol=symbol, n_fls=n_fls,
                neighbor=neighbor,
            )
            drop = alone / coloc if coloc else float("inf")
            result.note(
                "%s %dFLS: alone/colocated throughput ratio = %.2fx"
                % (symbol, n_fls, drop)
            )

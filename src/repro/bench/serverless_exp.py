"""Extension experiment: serverless tenants next to a noisy neighbour.

Not a paper figure — it operationalises §9's "per-tenant storage
provisioning for serverless function computations": N function tenants
run over Danaus (D) or the kernel client (K) while a RandomIO neighbour
occupies its own pool. The prediction, extrapolated from Fig. 6: Danaus
keeps the invocation tail flat under colocation; the kernel-shared path
lets the neighbour into every tenant's p99.
"""

from repro.bench.util import scaled_costs
from repro.common import units
from repro.stacks import StackFactory, mount_local
from repro.workloads import RandomIO
from repro.workloads.serverless import ServerlessTenant
from repro.world import World

__all__ = ["run_serverless", "serverless_notes"]


def run_serverless(symbol, n_tenants=2, with_neighbor=True, duration=4.0,
                   seed=1):
    world = World(
        num_cores=2 * (n_tenants + 1), ram_bytes=units.gib(128),
        costs=scaled_costs(),
    )
    host = world.primary
    host.activate_cores(2 * (n_tenants + 1))
    tenants = []
    for index in range(n_tenants):
        pool = host.engine.create_pool(
            "fn%d" % index, num_cores=2, ram_bytes=units.mib(64)
        )
        host.kernel.writeback.set_max_dirty(pool.ram, units.mib(8))
        mount = StackFactory(pool, symbol).mount_root("c0")
        # Result objects are sized so the tenants generate real writeback
        # traffic — the contended path of Fig. 6 — not just metadata ops.
        tenants.append(ServerlessTenant(
            mount, pool, duration=duration, seed=seed + index,
            state_size=units.kib(192), compute_cpu=0.0002,
        ))
    neighbor_pool = host.engine.create_pool(
        "nbr", num_cores=2, ram_bytes=units.mib(64)
    )
    host.kernel.writeback.set_max_dirty(neighbor_pool.ram, units.mib(8))
    processes = [tenant.start() for tenant in tenants]
    if with_neighbor:
        local = mount_local(neighbor_pool)
        neighbor = RandomIO(
            local.fs, neighbor_pool, duration=duration, threads=2,
            file_size=units.mib(96), seed=seed + 99,
            batch_cpu=units.usec(600),
        )
        processes.append(neighbor.start())
    from repro.bench.util import run_all

    run_all(world, processes, budget=duration * 100)
    warm_p99 = max(t.warm_latency.p99 for t in tenants)
    cold_p99 = max(
        (t.cold_latency.p99 for t in tenants if t.cold_latency.count),
        default=0.0,
    )
    invocations = sum(t.result.ops for t in tenants)
    return {
        "symbol": symbol,
        "tenants": n_tenants,
        "neighbor": "RND" if with_neighbor else "-",
        "invocations_per_sec": invocations / duration,
        "warm_p99_ms": warm_p99 * 1000.0,
        "cold_p99_ms": cold_p99 * 1000.0,
    }


def serverless_notes(result, axes):
    """Warm-p99 growth under the neighbour, per symbol."""
    for symbol in axes["symbol"]:
        alone = result.value("warm_p99_ms", symbol=symbol, neighbor="-")
        coloc = result.value("warm_p99_ms", symbol=symbol, neighbor="RND")
        result.note(
            "%s: warm p99 grows %.2fx under the neighbour"
            % (symbol, coloc / alone if alone else 0)
        )

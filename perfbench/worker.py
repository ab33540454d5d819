"""One repetition of one workload, in a process of its own.

``python -m perfbench.worker <workload> --seed S [--trace] [--artifacts DIR]``
is what a user pays per ``python -m repro run …``: interpreter start,
``import repro…``, then one call chain through the public row-level
entry points. The last line of standard output is one JSON object with
the host cost of the call, the simulated outcome, a fingerprint of that
outcome and the outcome-level output checks. With ``--trace`` the call
runs under the ``repro.obs`` auto-observer *and* ``cProfile`` and the
object also carries the per-layer numbers of both clocks.

Host time is user-mode CPU from ``resource.getrusage``; ``setup_s`` is
all CPU (user + system, self) the process consumed before the workload
call.
"""

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import sys
import time

from perfbench import SRC_ROOT, hostprof, simprof
from perfbench.workloads import WORKLOADS

from repro import obs
from repro.bench.isolation import run_colocation
from repro.bench.sequential import run_sequential
from repro.common import units
from repro.faults import ChaosConfig

#: Span ring size for the traced run — above any workload's span count
#: (the largest, seqread_d, closes ~60 k), so no span is dropped and
#: span counts are exact.
SPAN_CAPACITY = 2000000


def stable_hash(value):
    """Hash of a JSON-able value; equal outcomes give equal hashes."""
    canonical = json.dumps(value, sort_keys=True)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _cpu(usage):
    return usage.ru_utime, usage.ru_stime


def _usage():
    """(user, system) CPU seconds so far, children included."""
    own = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    kids = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    return own[0] + kids[0], own[1] + kids[1]


class CellClock(object):
    """Calls one cell (one public entry-point call) and notes its user CPU.

    Interference only adds time and comes in bursts, so the driver takes
    each cell's minimum over the repetitions separately: a workload of
    several cells then needs each cell, not the whole run, to have been
    undisturbed once.
    """

    def __init__(self):
        self.user_s = []

    def __call__(self, entry_point, *args, **kwargs):
        before = _usage()[0]
        result = entry_point(*args, **kwargs)
        self.user_s.append(_usage()[0] - before)
        return result


def _sequential(params, seed, cell):
    row = cell(
        run_sequential, params["symbol"], params["n_pools"], params["mode"],
        duration=params["duration"], seed=seed,
    )
    throughput = row["throughput_mb_s"]
    return {
        "throughput": throughput,
        "fingerprint": stable_hash(row),
        "checks": {"throughput_positive": throughput > 0},
        "extra": {},
    }


def _fileserver_coloc(params, seed, cell):
    rows = {}
    for symbol in params["symbols"]:
        for neighbor in params["neighbors"]:
            rows[symbol, neighbor] = cell(
                run_colocation, symbol, params["n_fls"], neighbor=neighbor,
                duration=params["duration"], seed=seed,
            )
    retained = {
        symbol: rows[symbol, "RND"]["fls_ops_per_sec"]
        / rows[symbol, None]["fls_ops_per_sec"]
        for symbol in params["symbols"]
    }
    latencies = [row["fls_mean_latency"] for row in rows.values()]
    return {
        "throughput": rows["D", "RND"]["fls_ops_per_sec"],
        "fingerprint": stable_hash(
            [rows[key] for key in sorted(rows, key=str)]
        ),
        "checks": {
            "d_retains_ge_0.9": retained["D"] >= 0.9,
            "k_retains_less_than_d": retained["K"] < retained["D"],
        },
        "extra": {
            "containers.fls_retained_d": retained["D"],
            "containers.fls_retained_k": retained["K"],
            "workloads.op_mean_us":
                sum(latencies) / len(latencies) / units.USEC,
        },
    }


def _chaos_faults(params, seed, cell):
    results = {
        name: cell(ChaosConfig(seed=seed, **fields).run)
        for name, fields in params.items()
    }
    workloads = [result.workload_result for result in results.values()]
    ops = sum(w.ops for w in workloads)
    latency_total = sum(w.latency.total for w in workloads)
    failover_log = results["mds_failover"].plan_log
    return {
        "throughput": ops / sum(w.duration for w in workloads),
        "fingerprint": stable_hash(
            [results[name].fingerprint() for name in sorted(results)]
        ),
        "checks": {
            "corruption_ok": bool(results["corruption"].ok),
            "mds_failover_ok": bool(results["mds_failover"].ok),
            "corruptions_ge_1": results["corruption"].corruptions >= 1,
            "repairs_ge_1": results["corruption"].repairs >= 1,
            "mds_failover_fired": any(
                event == "inject" and kind == "mds_failover"
                for _when, event, kind, _target in failover_log
            ),
        },
        "extra": {
            "storage.retries": sum(r.retries for r in results.values()),
            "storage.repairs": sum(r.repairs for r in results.values()),
            "storage.backfill_objects": sum(
                r.backfill_objects for r in results.values()
            ),
            "faults.injected": sum(
                1 for r in results.values()
                for _when, event, _kind, _target in r.plan_log
                if event in ("inject", "corrupt")
            ),
            "workloads.ops": ops,
            "workloads.op_errors": sum(w.errors for w in workloads),
            "workloads.op_mean_us": latency_total / ops / units.USEC,
            "workloads.op_p99_us":
                max(w.latency.p99 for w in workloads) / units.USEC,
        },
    }


RUNNERS = {
    "seqread_d": _sequential,
    "seqwrite_k": _sequential,
    "fileserver_coloc": _fileserver_coloc,
    "chaos_faults": _chaos_faults,
}


def _write_artifacts(directory, name, top_rows, report):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "%s.top25.txt" % name), "w") as handle:
        handle.write(hostprof.format_top(top_rows) + "\n")
    with open(os.path.join(directory, "%s.profile.json" % name), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--artifacts", metavar="DIR")
    args = parser.parse_args(argv)
    runner = RUNNERS[args.workload]
    params = WORKLOADS[args.workload]["params"]

    profiler = None
    if args.trace:
        obs.reset_attached()
        obs.set_default(categories=(), capacity=SPAN_CAPACITY)
        profiler = cProfile.Profile()
    setup_s = sum(_cpu(resource.getrusage(resource.RUSAGE_SELF)))
    user0, sys0 = _usage()
    wall0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    cell = CellClock()
    outcome = runner(params, args.seed, cell)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall0
    user1, sys1 = _usage()
    obs.clear_default()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "user_s": user1 - user0,
        "cell_user_s": cell.user_s,
        "sys_s": sys1 - sys0,
        "wall_s": wall_s,
        "throughput": outcome["throughput"],
        "fingerprint": outcome["fingerprint"],
        "checks": outcome["checks"],
        "extra": outcome["extra"],
    }
    if profiler is not None:
        report = simprof.merged_report(obs.attached())
        stats = pstats.Stats(profiler).stats
        record["sim"] = simprof.sim_metrics(report)
        record["host"] = hostprof.bucket(stats, SRC_ROOT)
        if args.artifacts:
            _write_artifacts(
                args.artifacts, args.workload,
                hostprof.top_functions(stats, SRC_ROOT), report,
            )
    record["rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Wall-clock benchmark harness for the DES engine and the stacks on it.

Runs the reference scenarios (pure-engine micro loops, a sequential-read
stack, a kernel-client sequential-write stack, a chaos run, the striped
fan-out path, the Fig. 11 scale-up sweeps, a multi-host fleet), measures
wall-clock seconds for each, and records a *behavior fingerprint* per
scenario — a stable hash of the simulated outcome (event-schedule-sensitive values: final times,
throughputs, chaos determinism fingerprints). Two engines that schedule
byte-identically produce equal fingerprints, so the file doubles as a
determinism witness for scheduler changes.

Beside the wall clock every scenario records three *exact* costs
(schema 4): ``entries_scheduled``, the sequence numbers its simulators
handed out; ``entries_dispatched``, those that went through the run loop
(scheduled minus the resumptions continued in place); and ``resumes``,
the generator ``send``/``throw`` calls ``Process._step`` made. All three
repeat to the last digit on any machine, so ``--check`` gates
``entries_dispatched`` and ``resumes`` exactly; wall-clock stays the
noisy secondary signal.

Multi-host-shaped scenarios decompose into independent per-simulated-
machine *tasks* (one world each, fanned out by
``repro.sim.parallel.map_tasks``). ``--parallel N`` runs each such
scenario twice: sequentially, then with its tasks fanned over ``N``
worker processes. The two runs must produce identical fingerprints
(asserted hard — a mismatch exits non-zero immediately) and the record
gains per-scenario parallel wall/speedup cells.

Every record carries the core count and Python version (top-level and
per scenario): ``check_against`` refuses to compare wall-clock across a
Python-minor mismatch, and the core count says what the parallel cells
of a record could have shown (they are recorded, never gated). It also
carries the run's peak resident set (``peak_rss_mb``: this process, and
under ``--parallel`` the largest forked worker) — recorded, never gated.

Usage:
    PYTHONPATH=src python scripts/bench_engine.py --out BENCH_engine.json
    PYTHONPATH=src python scripts/bench_engine.py \
        --check benchmarks/BENCH_engine_baseline.json
    PYTHONPATH=src python scripts/bench_engine.py --parallel 4 \
        --check benchmarks/BENCH_engine_parallel_baseline.json

``--check`` exits non-zero when any fingerprint differs from the
baseline (a determinism break), when a scenario dispatches more
scheduler entries or resumes more generators than the baseline's, or
when total wall-clock
regresses by more than ``--threshold`` (default 25%) against the
baseline.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.faults import ChaosConfig  # noqa: E402
from repro.bench.scaleup import run_file_scaleup, run_pool_scaleup  # noqa: E402
from repro.bench.sequential import run_sequential  # noqa: E402
from repro.sim.bench import (  # noqa: E402
    schedule_fingerprint,
    stripe_fanout_reference,
)
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.parallel import map_tasks  # noqa: E402


def _stable_hash(value):
    """Hash of a JSON-able value; stable across runs of the same schedule."""
    canonical = json.dumps(value, sort_keys=True)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _cores():
    """Usable core count (the honest bound on parallel speedup)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _calibrate():
    """Wall seconds for a fixed pure-Python workload (best of 3).

    The baseline JSON is committed from whatever machine generated it;
    CI runners are usually slower. Storing this per-record lets
    ``check_against`` compare *normalized* walls (scenario seconds per
    calibration second) instead of raw seconds across machines.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * 7) % 1000003
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _peak_rss_mb(workers):
    """``ru_maxrss`` of this process and, when workers were forked, the
    largest of them (Linux reports KiB)."""
    peaks = {"self": resource.RUSAGE_SELF}
    if workers > 1:
        peaks["children"] = resource.RUSAGE_CHILDREN
    return {
        who: round(resource.getrusage(which).ru_maxrss / 1024.0, 1)
        for who, which in peaks.items()
    }


def counted(fn, kwargs):
    """Run one task; return its value and its simulators' exact counts.

    Counted from outside, around the task: every ``Simulator`` the task
    builds is noted on construction and read once the task is over.
    Module-level so the fork pool can ship it.
    """
    built = []
    init = Simulator.__init__

    def noting_init(sim):
        init(sim)
        built.append(sim)

    Simulator.__init__ = noting_init
    try:
        value = fn(**kwargs)
    finally:
        Simulator.__init__ = init
    scheduled = sum(sim._seq for sim in built)
    return {
        "value": value,
        "entries_scheduled": scheduled,
        "entries_dispatched": scheduled - sum(sim.elided for sim in built),
        "resumes": sum(sim.resumes for sim in built),
    }


# -- scenario tasks -------------------------------------------------------
#
# Each task is a module-level callable returning plain JSON-able data
# (the parallel mode ships them to forked pool workers). A scenario is a
# named list of tasks plus a merge function folding the ordered task
# results into (fingerprint_hex, detail_dict); merge order is the task
# declaration order either way, which is what makes sequential and
# parallel fingerprints identical by construction.

def task_micro():
    """Pure-engine micro loops: every scheduling path, no storage stack."""
    detail = {}
    parts = []
    for name, kwargs in (
        ("torture", dict(seed=1, nworkers=24, steps=40)),
        ("interrupts", dict(seed=2, npairs=16)),
        ("combinators", dict(seed=3, rounds=12)),
    ):
        digest, final = schedule_fingerprint(name, **kwargs)
        detail[name] = {"fingerprint": digest, "final_time": final}
        parts.append(digest)
    return {"parts": parts, "detail": detail}


def task_seqread():
    """Fig. 9 sequential read, one Danaus pool pair (client_lock path)."""
    return run_sequential("D", 2, "read", duration=2.0, seed=1)


def task_seqwrite():
    """Fig. 9 sequential write over the kernel client: page cache,
    flusher write-behind and the vectored OSD write path."""
    return run_sequential("K", 2, "write", duration=2.0, seed=1)


def task_chaos():
    """Corruption chaos with scrub: the nightly-matrix cell shape."""
    result = ChaosConfig(
        seed=7, duration=6.0, replicas=2, bitrot=2, torn_writes=1,
        scrub=True,
    ).run()
    digest = hashlib.blake2b(
        repr(result.fingerprint()).encode(), digest_size=16
    ).hexdigest()
    return {
        "fingerprint": digest,
        "ok": result.ok,
        "corruptions": result.corruptions,
        "repairs": result.repairs,
        "retries": result.retries,
    }


def task_stripe(inflight):
    """One striped read-path cell, wide enough to be worth a process."""
    return stripe_fanout_reference(inflight=inflight, num_osds=12,
                                   objects=48)


def task_file_scaleup(symbol, n_clones, seed=1):
    """One Fig. 11 Fileappend scale-up cell (one simulated machine)."""
    return run_file_scaleup(symbol, n_clones, "append", seed=seed)


def task_pool_scaleup(n_pools, clones_per_pool):
    """One multi-pool scale-up cell (one simulated machine)."""
    return run_pool_scaleup("D", n_pools=n_pools,
                            clones_per_pool=clones_per_pool, mode="append",
                            seed=1)


# -- merges ---------------------------------------------------------------

def merge_micro(results):
    (result,) = results
    return _stable_hash(result["parts"]), result["detail"]


def merge_rows(results):
    rows = list(results)
    return _stable_hash(rows), {"rows": rows}


def merge_single(results):
    (row,) = results
    return _stable_hash(row), row


def merge_stripe(results):
    serial, fanout, repeat = results
    row = {
        "serial": serial,
        "fanout": fanout,
        "speedup": serial["read_s"] / fanout["read_s"],
        "deterministic": fanout == repeat,
    }
    return _stable_hash(row), row


# Scenario table: (name, [(task_label, fn, kwargs), ...], merge).
# Multi-task scenarios are the multi-host-shaped ones the parallel mode
# fans out; single-task scenarios always run inline.
SCENARIOS = [
    ("micro", [("micro", task_micro, {})], merge_micro),
    ("seqread", [("seqread", task_seqread, {})], merge_single),
    ("seqwrite", [("seqwrite", task_seqwrite, {})], merge_single),
    ("stripe_fanout", [
        ("serial", task_stripe, {"inflight": 1}),
        ("fanout", task_stripe, {"inflight": 16}),
        ("repeat", task_stripe, {"inflight": 16}),
    ], merge_stripe),
    ("chaos", [("chaos", task_chaos, {})], merge_single),
    ("scaleup", [
        (symbol, task_file_scaleup, {"symbol": symbol, "n_clones": 8})
        for symbol in ("D", "K/K", "F/F", "FP/FP")
    ], merge_rows),
    ("fleet", [
        ("host%d" % host, task_file_scaleup,
         {"symbol": "D", "n_clones": 8, "seed": 1 + host})
        for host in range(4)
    ], merge_rows),
    ("scaleup_wide", [
        ("p8x2", task_pool_scaleup, {"n_pools": 8, "clones_per_pool": 2}),
        ("p16x2", task_pool_scaleup, {"n_pools": 16, "clones_per_pool": 2}),
        ("f32", task_file_scaleup, {"symbol": "D", "n_clones": 32}),
    ], merge_rows),
]


def run_bench(names=None, workers=1):
    record = {
        "schema": 4,
        "python": platform.python_version(),
        "cores": _cores(),
        "workers": workers,
        "calibration_s": round(_calibrate(), 5),
        "scenarios": {},
        "total_wall_s": 0.0,
    }
    env = {"python": record["python"], "cores": record["cores"]}
    for name, tasks, merge in SCENARIOS:
        if names and name not in names:
            continue
        tasks = [(label, counted, {"fn": fn, "kwargs": kwargs})
                 for label, fn, kwargs in tasks]
        start = time.perf_counter()
        results, _rows = map_tasks(tasks, workers=1)
        wall = time.perf_counter() - start
        fingerprint, detail = merge([r["value"] for r in results])
        cell = {
            "wall_s": round(wall, 4),
            "fingerprint": fingerprint,
            "tasks": len(tasks),
            "entries_scheduled": sum(
                r["entries_scheduled"] for r in results),
            "entries_dispatched": sum(
                r["entries_dispatched"] for r in results),
            "resumes": sum(r["resumes"] for r in results),
            "detail": detail,
        }
        cell.update(env)
        if workers > 1 and len(tasks) > 1:
            # Parallel pass over the same tasks: fan out over a fork
            # pool (children inherit the warm memo caches of the
            # sequential pass above), merge in task order, and demand
            # the exact same fingerprint — the determinism contract.
            start = time.perf_counter()
            par_results, _rows = map_tasks(tasks, workers=workers)
            par_wall = time.perf_counter() - start
            par_fingerprint, _detail = merge(
                [r["value"] for r in par_results])
            if par_fingerprint != fingerprint:
                print("FATAL: scenario %r parallel fingerprint %s != "
                      "sequential %s" % (name, par_fingerprint, fingerprint),
                      file=sys.stderr)
                sys.exit(1)
            cell["parallel"] = {
                "workers": workers,
                "wall_s": round(par_wall, 4),
                "speedup": round(wall / par_wall, 3) if par_wall > 0 else 0.0,
                "fingerprint_identical": True,
            }
        record["scenarios"][name] = cell
        record["total_wall_s"] = round(record["total_wall_s"] + wall, 4)
        par = cell.get("parallel")
        suffix = ""
        if par:
            suffix = "  parallel=%7.3fs speedup=%.2fx" % (
                par["wall_s"], par["speedup"],
            )
        print("bench %-14s wall=%7.3fs dispatched=%8d/%8d resumes=%8d "
              "fingerprint=%s%s"
              % (name, wall, cell["entries_dispatched"],
                 cell["entries_scheduled"], cell["resumes"], fingerprint,
                 suffix),
              file=sys.stderr)
    record["peak_rss_mb"] = _peak_rss_mb(workers)
    return record


def _python_minor(version):
    return tuple(version.split(".")[:2]) if version else None


def check_against(record, baseline, threshold):
    """Compare a fresh record to a baseline; returns a list of failures.

    Fingerprints, dispatch counts and resume counts are exact and
    compared on any machine. A Python-minor mismatch skips the wall-clock comparison
    (interpreter speed differences would drown the signal).
    """
    failures = []
    for name, cell in baseline.get("scenarios", {}).items():
        fresh = record["scenarios"].get(name)
        if fresh is None:
            failures.append("scenario %r missing from this run" % name)
            continue
        if fresh["fingerprint"] != cell["fingerprint"]:
            failures.append(
                "determinism break in %r: fingerprint %s != baseline %s"
                % (name, fresh["fingerprint"], cell["fingerprint"])
            )
        base_dispatched = cell.get("entries_dispatched")  # absent before schema 3
        if base_dispatched is not None \
                and fresh["entries_dispatched"] > base_dispatched:
            failures.append(
                "dispatch regression in %r: %d scheduler entries "
                "dispatched > baseline %d"
                % (name, fresh["entries_dispatched"], base_dispatched)
            )
        base_resumes = cell.get("resumes")  # absent before schema 4
        if base_resumes is not None and fresh["resumes"] > base_resumes:
            failures.append(
                "resume regression in %r: %d generator resumes > "
                "baseline %d" % (name, fresh["resumes"], base_resumes)
            )
    python_match = (
        _python_minor(record.get("python"))
        == _python_minor(baseline.get("python"))
    )
    if not python_match:
        print("note: python %s vs baseline %s — skipping wall-clock "
              "comparison" % (record.get("python"), baseline.get("python")),
              file=sys.stderr)
    base_wall = baseline.get("total_wall_s") or 0.0
    if python_match and base_wall > 0:
        fresh_wall = record["total_wall_s"]
        ratio = fresh_wall / base_wall
        base_cal = baseline.get("calibration_s") or 0.0
        fresh_cal = record.get("calibration_s") or 0.0
        if base_cal > 0 and fresh_cal > 0:
            # Also compare machine-speed-normalized walls (seconds per
            # calibration second) and take the *smaller* ratio: a real
            # engine regression inflates both, a slower CI runner only
            # inflates the raw one, and calibration jitter only the
            # normalized one. Requiring both avoids false alarms from
            # either source.
            normalized = (fresh_wall / fresh_cal) / (base_wall / base_cal)
            ratio = min(ratio, normalized)
        if ratio > 1.0 + threshold:
            failures.append(
                "wall-clock regression: %.3fs vs baseline %.3fs (%.0f%% > %.0f%%)"
                % (fresh_wall, base_wall,
                   (ratio - 1.0) * 100, threshold * 100)
            )
    if (baseline.get("workers") or 1) > 1 \
            and (record.get("workers") or 1) <= 1:
        failures.append(
            "baseline is a parallel record (workers=%s) but this run "
            "was sequential — rerun with --parallel"
            % baseline.get("workers")
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write BENCH_engine.json here (default: stdout)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare fingerprints + wall-clock to a "
                             "committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed wall-clock regression vs baseline "
                             "(fraction, default 0.25)")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="also run each multi-task scenario with its "
                             "tasks fanned over N worker processes; "
                             "fingerprints must match the sequential pass")
    parser.add_argument("--scenario", action="append", default=None,
                        help="run only this scenario (repeatable)")
    args = parser.parse_args(argv)

    record = run_bench(args.scenario, workers=args.parallel)
    payload = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against(record, baseline, args.threshold)
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        if failures:
            return 1
        print("check ok: fingerprints match, no scenario dispatches more "
              "entries or resumes more generators, wall %.3fs vs baseline "
              "%.3fs"
              % (record["total_wall_s"], baseline.get("total_wall_s", 0.0)),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

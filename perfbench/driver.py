"""Spawn worker repetitions and fold them into one result per workload.

One driver process runs one worker subprocess at a time (the simulator
is single-threaded: one load generator, one process, one thread; the
*simulated* clients are closed-loop). Every repetition is a fresh
``python -m perfbench.worker`` — in-process repeats drift upward — and
there is no warm-up repetition, because a user pays the cold cost on
every ``python -m repro run``.

The program is deterministic and CPU-bound, so interference only ever
adds host time: ``setup_s`` is the *minimum* over the repetitions and
``host_cpu_s`` the sum, over the workload's cells (public entry-point
calls), of each cell's minimum; median, quartiles and n of the
whole-call samples are reported beside them.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from perfbench import REPO_ROOT, SRC_ROOT
from perfbench.workloads import (
    END_TO_END, HOST_LAYERS, PER_LAYER_UNITS, REPETITIONS, WORKLOADS,
)

SCHEMA = 1

#: A worker that has not finished by then is killed and counts as failed
#: (the slowest traced run takes ~40 s on the 2-core reference box).
WORKER_TIMEOUT_S = 170


def worker_env():
    """The environment workers run in: ``src`` and the repo importable."""
    env = dict(os.environ)
    paths = [SRC_ROOT, REPO_ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn_worker(name, seed, trace=False, artifacts=None):
    """Run one repetition; its record, or ``{"error": ...}`` on failure."""
    command = [sys.executable, "-m", "perfbench.worker", name,
               "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if artifacts:
        command += ["--artifacts", artifacts]
    try:
        done = subprocess.run(
            command, cwd=REPO_ROOT, env=worker_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker exceeded %d s" % WORKER_TIMEOUT_S}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": "worker exited %d: %s" % (done.returncode, tail[0])}
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return None
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _spread(values):
    out = {"n": len(values), "min": min(values),
           "median": statistics.median(values)}
    quartiles = _quartiles(values)
    if quartiles is not None:
        out["q1"], out["q3"] = quartiles
    return out


def _per_layer(reps, traced, host_cpu_s):
    values = dict(traced["sim"])
    values.update(traced["extra"])
    for layer in HOST_LAYERS:
        values["%s.host_self_s" % layer] = traced["host"][layer]["self_s"]
        values["%s.host_calls" % layer] = traced["host"][layer]["calls"]
    values["obs.trace_overhead"] = traced["user_s"] / host_cpu_s
    user = [rep["user_s"] for rep in reps]
    values["host.wall_s"] = statistics.median(rep["wall_s"] for rep in reps)
    values["host.sys_s"] = statistics.median(rep["sys_s"] for rep in reps)
    values["host.cpu_s_median"] = statistics.median(user)
    quartiles = _quartiles(user)
    if quartiles is not None:
        values["host.cpu_s_iqr"] = quartiles[1] - quartiles[0]
    return {
        name: {"value": value, "unit": PER_LAYER_UNITS[name]}
        for name, value in sorted(values.items())
    }


def summarize(name, seed, reps, traced=None):
    """Fold worker records into the workload's result dict.

    ``reps`` are the untraced repetitions, ``traced`` the traced run's
    record (None when none was requested). A worker that failed fails
    every output check of the workload.
    """
    spec = WORKLOADS[name]
    check_names = list(spec["checks"])
    if traced is not None:
        check_names += spec["traced_checks"]
    records = reps + ([traced] if traced is not None else [])
    errors = [rec["error"] for rec in records if "error" in rec]
    result = {
        "params": spec["params"],
        "seed": seed,
        "repetitions": len(reps),
        "errors": errors,
    }
    if errors:
        result["checks"] = {check: False for check in check_names}
        result["attempted"] = len(check_names)
        result["failed"] = len(check_names)
        return result

    user = [rep["user_s"] for rep in reps]
    setup = [rep["setup_s"] for rep in reps]
    rss = [rep["rss_mb"] for rep in reps]
    host_cpu_s = sum(
        min(samples) for samples in zip(*(rep["cell_user_s"] for rep in reps))
    )
    checks = {"deterministic": len({
        (rec["fingerprint"], rec["throughput"]) for rec in records
    }) == 1}
    for check in reps[0]["checks"]:
        checks[check] = all(rec["checks"][check] for rec in records)
    if traced is not None:
        result["per_layer"] = _per_layer(reps, traced, host_cpu_s)
        for check, (metric, least) in spec["traced_checks"].items():
            # An omitted metric (empty denominator) fails its check.
            entry = result["per_layer"].get(metric)
            checks[check] = entry is not None and entry["value"] >= least
    if sorted(checks) != sorted(check_names):
        raise RuntimeError(
            "%s: worker checks %s do not match the table's %s"
            % (name, sorted(checks), sorted(check_names))
        )
    failed = sum(1 for passed in checks.values() if not passed)
    values = {
        "host_cpu_s": host_cpu_s,
        "host_peak_rss_mb": statistics.median(rss),
        "setup_s": min(setup),
        "sim_throughput": reps[0]["throughput"],
        "failed_share": failed / len(checks),
    }
    result.update({
        "fingerprint": reps[0]["fingerprint"],
        "checks": checks,
        "attempted": len(checks),
        "failed": failed,
        "end_to_end": {
            metric: {
                "value": values[metric],
                "unit": spec["unit"] if metric == "sim_throughput" else unit,
            }
            for metric, unit, _better, _bound in END_TO_END
        },
        "spread": {
            "host_cpu_s": _spread(user),
            "setup_s": _spread(setup),
            "host_peak_rss_mb": _spread(rss),
        },
    })
    return result


def measure(name, seed, repetitions=REPETITIONS, seconds=0.0, trace=False,
            artifacts=None):
    """Run ``name``: at least ``repetitions`` untraced workers, more while
    ``seconds`` of measuring time remain, then one traced worker if asked."""
    reps = []
    started = time.monotonic()
    while (len(reps) < repetitions
           or time.monotonic() - started < seconds):
        reps.append(spawn_worker(name, seed))
    traced = None
    if trace:
        traced = spawn_worker(name, seed, trace=True, artifacts=artifacts)
    return summarize(name, seed, reps, traced)


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed, repetitions, argv):
    """What a result file must say about where its numbers come from."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "repetitions": repetitions,
        "command_line": list(argv),
    }

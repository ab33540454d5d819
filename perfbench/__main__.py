"""Command line of the benchmark of record.

``python -m perfbench run [--seed 7] [--out FILE]``
    every workload: five untraced repetitions and one traced run; prints
    every end-to-end metric by name with its unit, writes the result
    file (per-layer metrics included) and, next to it, the top-25
    self-time table and merged profile report per workload. Exits
    non-zero when any output check failed.

``python -m perfbench compare A.json B.json``
    see :mod:`perfbench.compare`.

``python -m perfbench shares FILE``
    the README's layer-share table (each layer's share of the traced
    run's host self-time, per workload), regenerated from a result file.

``python -m perfbench bench --workload W --seed N --seconds S --trace 0|1``
    one workload, for an automated driver: the last line of standard
    output is one JSON object ``{"correct", "attempted", "failed",
    "metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
    per-layer metrics every workload reports (``--trace 1``).
"""

import argparse
import json
import os
import sys

from perfbench import SRC_ROOT, compare, driver
from perfbench.workloads import (
    DEFAULT_SEED, END_TO_END, HOST_LAYERS, PER_LAYER_COMMON, REPETITIONS,
    WORKLOADS,
)


def _print_workload(name, result):
    print("%s  (%d repetitions, seed %d)" % (
        name, result["repetitions"], result["seed"]))
    for error in result["errors"]:
        print("  ERROR %s" % error)
    for metric, entry in result.get("end_to_end", {}).items():
        print("  %-18s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    spread = result.get("spread", {}).get("host_cpu_s")
    if spread and "q1" in spread:
        print("  host_cpu_s spread: median %.3f, quartiles %.3f-%.3f, n=%d" % (
            spread["median"], spread["q1"], spread["q3"], spread["n"]))
    failed = [check for check, ok in result["checks"].items() if not ok]
    print("  checks: %d attempted, %d failed%s" % (
        result["attempted"], result["failed"],
        " (%s)" % ", ".join(failed) if failed else ""))


def cmd_run(args):
    out = os.path.abspath(args.out)
    artifacts = os.path.splitext(out)[0] + ".artifacts"
    results = {}
    for name in WORKLOADS:
        results[name] = driver.measure(
            name, args.seed, trace=True, artifacts=artifacts,
        )
        _print_workload(name, results[name])
    record = {
        "schema": driver.SCHEMA,
        "environment": driver.environment(args.seed, REPETITIONS, sys.argv),
        "workloads": results,
    }
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("result written to %s, artifacts under %s" % (out, artifacts))
    return 1 if any(r["failed"] for r in results.values()) else 0


def cmd_shares(args):
    with open(args.result) as handle:
        recorded = json.load(handle)["workloads"]
    workloads = {name: recorded[name] for name in WORKLOADS if name in recorded}
    print("| layer | %s |" % " | ".join(workloads))
    print("|---|%s" % ("---:|" * len(workloads)))
    self_s = {
        name: {
            layer: result["per_layer"]["%s.host_self_s" % layer]["value"]
            for layer in HOST_LAYERS
        }
        for name, result in workloads.items()
    }
    for layer in HOST_LAYERS:
        print("| `%s` | %s |" % (layer, " | ".join(
            "%.1f %%" % (100.0 * self_s[name][layer]
                         / sum(self_s[name].values()))
            for name in workloads
        )))
    return 0


def cmd_bench(args):
    trace = args.trace == 1
    result = driver.measure(
        args.workload, args.seed,
        repetitions=1 if trace else REPETITIONS,
        seconds=0.0 if trace else args.seconds, trace=trace,
    )
    if result["errors"]:
        for error in result["errors"]:
            print("ERROR %s" % error, file=sys.stderr)
        return 1
    if trace:
        metrics = {
            name: result["per_layer"][name]
            for name, _unit, _better in PER_LAYER_COMMON
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name]["value"], "unit": unit}
            for name, unit, _better, _bound in END_TO_END
            if name != "failed_share"  # carried by attempted/failed below
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", default="perfbench_result.json")

    cmp_ = commands.add_parser("compare", help="diff two result files")
    cmp_.add_argument("reference")
    cmp_.add_argument("candidate")

    shares = commands.add_parser("shares", help="layer-share table")
    shares.add_argument("result")

    bench = commands.add_parser("bench", help="one workload, JSON last line")
    bench.add_argument("--workload", required=True, choices=list(WORKLOADS))
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=float, required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), required=True)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main(args.reference, args.candidate)
    if args.command == "shares":
        return cmd_shares(args)
    if not os.path.isdir(os.path.join(SRC_ROOT, "repro")):
        print("perfbench: no package to measure at %s" % SRC_ROOT,
              file=sys.stderr)
        return 2
    return cmd_run(args) if args.command == "run" else cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())

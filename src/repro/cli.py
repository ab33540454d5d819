"""Command-line interface: run experiments and inspect the registry.

Usage::

    python -m repro list                 # experiments, stacks, workloads
    python -m repro list --specs         # resolved spec files (JSON)
    python -m repro run fig6a            # regenerate one figure
    python -m repro run fig6a --quick    # reduced sweep for a fast look
    python -m repro run all              # everything (tens of minutes)
    python -m repro run fig6a --trace wb,fuse      # record trace events
    python -m repro run fig6a --profile            # lock/CPU profiles
    python -m repro run fig6a --profile --report out.json
    python -m repro run fig1 --parallel 4          # cells across 4 cores

Every runnable experiment is a committed spec file under
``experiments/`` (see ``docs/experiments.md``); ``run`` and ``list``
resolve names through :mod:`repro.experiments.registry`. ``run all``
runs everything not tagged ``nightly`` (the chaos presets run in the
nightly matrix instead).

Each run prints the experiment's report block: the paper's expectation
followed by the measured rows and one verdict line per spec check; the
exit status is 1 when any check is violated. With
``--trace``/``--profile`` the run is observed through
:mod:`repro.obs`: a trace summary and the profile tables
(``repro.obs.TABLES``) are printed, and a Chrome ``trace_event`` JSON
(loadable in Perfetto) is written next to the report. ``--report``
writes unified run records (+ profiles) as JSON.
"""

import argparse
import sys

__all__ = ["main", "experiment_names"]


def experiment_names():
    """The experiment ids the CLI can run (one committed spec each)."""
    from repro.experiments import registry

    return registry.names()


def cmd_list(args):
    from repro.bench import COMPOSITES, WORKLOADS
    from repro.experiments import registry
    from repro.stacks import SYMBOLS

    specs = registry.discover()
    if args.specs:
        import json

        print(json.dumps(
            {name: specs[name] for name in sorted(specs)}, indent=2,
            sort_keys=True,
        ))
        return 0
    print("experiments:")
    for name in sorted(specs):
        spec = specs[name]
        suffix = ""
        if spec["tags"]:
            suffix = "  [%s]" % ", ".join(spec["tags"])
        print("  %-16s %s%s" % (name, spec["kind"], suffix))
    print()
    print("stacks (Table 1): %s" % ", ".join(SYMBOLS))
    print()
    print("workloads (Table 2):")
    for symbol in sorted(WORKLOADS):
        print("  %-6s %s" % (symbol, WORKLOADS[symbol][0]))
    for symbol in sorted(COMPOSITES):
        print("  %-6s %s" % (symbol, COMPOSITES[symbol]))
    return 0


def _parse_trace_arg(value):
    """``--trace`` argument -> category set (None/"all" = everything)."""
    if value is None or value == "all":
        return None
    return {part.strip() for part in value.split(",") if part.strip()}


def _trace_path_for(args, name):
    """Where the Chrome trace of experiment ``name`` is written."""
    import os

    if args.report:
        stem, _ext = os.path.splitext(args.report)
        if args.experiment == "all":
            return "%s.%s.trace.json" % (stem, name)
        return "%s.trace.json" % stem
    return "%s.trace.json" % name


def cmd_run(args):
    from repro import obs
    from repro.experiments import registry
    from repro.experiments.runner import describe, run_spec

    specs = registry.discover()
    if args.experiment == "all":
        names = [name for name in sorted(specs)
                 if "nightly" not in specs[name]["tags"]]
    else:
        names = [args.experiment]
    unknown = [name for name in names if name not in specs]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown),
              file=sys.stderr)
        print("try: python -m repro list", file=sys.stderr)
        return 2
    observing = args.profile or args.trace is not None
    if args.parallel > 1 and observing:
        # Observers attach inside forked workers and cannot come back;
        # profile/trace runs must stay sequential.
        print("--parallel cannot be combined with --profile/--trace",
              file=sys.stderr)
        return 2
    report = {"experiments": []} if args.report else None
    status = 0
    try:
        for name in names:
            if observing:
                # Arm auto-observation: experiments build their worlds
                # internally (one per sweep row), and each new World
                # attaches an observer with this spec.
                obs.reset_attached()
                obs.set_default(categories=_parse_trace_arg(args.trace))
            result, record = run_spec(
                specs[name], quick=args.quick, parallel=args.parallel,
            )
            print(result.report())
            for verdict in record["checks"]:
                print("check: %s" % describe(verdict))
                status |= not verdict["ok"]
            chart = _chart_for(result)
            if chart:
                print(chart)
            entry = record if report is not None else None
            if observing:
                entry = _emit_profile(args, name, obs.attached(), entry)
            if args.parallel > 1:
                rows = (record.get("detail") or {}).get("partitions", [])
                if rows:
                    _print_table("partitions", rows, args.parallel)
            if report is not None:
                report["experiments"].append(entry)
            print("(%.0fs wall-clock)" % record["wall_s"])
            print()
    finally:
        obs.clear_default()
        obs.reset_attached()
    if report is not None:
        import json

        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2)
        print("report written to %s" % args.report)
    return status


def _print_table(key, rows, *title_args):
    """Print one ``obs.TABLES`` entry: its title, then its rows."""
    from repro import obs

    table = next(table for table in obs.TABLES if table.key == key)
    print()
    print(table.title % title_args)
    print(obs.format_table(key, rows))


def _emit_profile(args, name, observers, entry):
    """Print profile tables; write the Chrome trace; extend the record."""
    from repro import obs

    merged = obs.merge_profiles(observers)
    if args.profile:
        for table in obs.TABLES:
            if table.source is None:
                continue
            # The lock-contention table (Fig. 1b) prints even when empty;
            # the others only when the run produced rows for them.
            rows = merged[table.key]
            if rows or table.key == "lock_contention":
                _print_table(table.key, rows)
    if args.trace is not None:
        _print_table("trace_summary", merged["trace_summary"])
    trace_path = _trace_path_for(args, name)
    trace = obs.chrome_trace(observers)
    import json

    with open(trace_path, "w") as handle:
        json.dump(trace, handle)
    print()
    print("chrome trace (%d events) written to %s"
          % (len(trace["traceEvents"]), trace_path))
    if entry is not None:
        merged["chrome_trace"] = trace_path
        entry["profile"] = merged
    return entry


def _chart_for(result):
    """A bar chart of the result's primary metric, when one is obvious."""
    from repro.bench.charts import bar_chart

    if not result.rows:
        return None
    first = result.rows[0]
    label_key = next(
        (key for key in ("symbol", "locking", "queues", "dedup")
         if key in first), None,
    )
    value_key = next(
        (key for key, value in first.items()
         if isinstance(value, float) and key != label_key), None,
    )
    if label_key is None or value_key is None:
        return None
    labels = [
        "%s%s" % (row[label_key],
                  "".join(" %s=%s" % (k, row[k]) for k in row
                          if k not in (label_key, value_key)
                          and not isinstance(row[k], float)))
        for row in result.rows
    ]
    rows = [
        {"label": label, "value": row[value_key]}
        for label, row in zip(labels, result.rows)
    ]
    return "%s:\n%s" % (value_key, bar_chart(rows, "label", "value"))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Danaus reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_parser = sub.add_parser(
        "list", help="list experiments, stacks and workloads"
    )
    list_parser.add_argument(
        "--specs", action="store_true",
        help="dump the resolved experiment specs as JSON",
    )
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig6a")
    run_parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep for a fast look (the spec's quick overrides)",
    )
    run_parser.add_argument(
        "--trace", metavar="CAT[,CAT]", default=None,
        help="record trace events of these categories ('all' for every "
             "category) and print a summary; also writes a Chrome trace",
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="attach the observer and print lock-contention and "
             "core-stealing profiles; writes a Chrome trace_event JSON "
             "loadable in Perfetto",
    )
    run_parser.add_argument(
        "--report", metavar="OUT.json", default=None,
        help="write unified run records (and profiles, when observing) "
             "as structured JSON",
    )
    run_parser.add_argument(
        "--parallel", metavar="N", type=int, default=1,
        help="run the spec's cells (per seed) as independent simulation "
             "tasks over N worker processes (results merge in declaration "
             "order, so rows and fingerprints match the sequential run "
             "exactly); incompatible with --profile/--trace",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())

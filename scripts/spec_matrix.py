#!/usr/bin/env python
"""Validate and run the committed experiment specs (the CI spec matrix).

Two modes:

* ``--validate`` (default when no run is asked for) — load every spec
  file the registry discovers, schema-validate it, and compile its
  quick variant to a runnable sweep without executing it. Any
  validation or compile error exits non-zero: this is the CI gate that
  catches spec-schema drift (a spec key the validator no longer knows,
  a sweep axis the kind table dropped, a renamed stack symbol) and
  param drift (a param the kind's row function does not take).
* ``--run ID`` (repeatable) / ``--run-all`` (every spec not tagged
  ``nightly``) — run the specs via the sweep runner, schema-validate
  the emitted unified run records, and write one ``<id>.json`` per spec
  plus a combined ``trend.json`` in the ``BENCH_engine`` trend shape
  under ``--out-dir``. ``--check FILE`` compares each record
  fingerprint with the committed table and exits non-zero on a
  difference or an id the table lacks (under ``--run-all`` also on a
  table id that did not run); ``--write FILE`` merges the run's
  fingerprints into the table, keeping the entries of specs that did not
  run and printing each entry that changed.
  ``--seed N`` runs each selected spec on seed ``N`` alone (the spec is
  re-validated). Every record carries its spec's check verdicts; a
  violated check — a paper shape that does not hold, a known gap that
  unexpectedly holds, or a chaos preset's ``ok == true`` — exits
  non-zero. That is the quick job's shape gate, the full-size
  paper-shapes gate and the nightly chaos matrix's verdict.

Usage:
    python scripts/spec_matrix.py --validate
    python scripts/spec_matrix.py --quick --out-dir artifacts \
        --run fig1 --run abl-ipc --run chaos-corruption
    python scripts/spec_matrix.py --quick --run-all \
        --check benchmarks/SPEC_quick_fingerprints.json
    python scripts/spec_matrix.py --run chaos-churn --seed 7 \
        --out-dir artifacts/chaos-churn-seed7
    python scripts/spec_matrix.py --run-all --out-dir artifacts/shapes
"""

import argparse
import json
import os
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments import (  # noqa: E402
    SpecError, registry, to_trend, validate_record, validate_spec,
)
from repro.experiments.compiler import compile_spec  # noqa: E402
from repro.experiments.runner import describe, run_spec, state  # noqa: E402


def validate_all():
    """Schema-validate and quick-compile every registered spec."""
    failures = []
    specs = registry.discover()
    if not specs:
        print("no spec files found under: %s"
              % ", ".join(registry.search_paths()), file=sys.stderr)
        return 1
    for name in sorted(specs):
        spec = specs[name]
        try:
            compile_spec(spec, quick=True, seed=spec["seeds"][0])
        except SpecError as err:
            failures.append("%s: %s" % (name, err))
            continue
        print("ok %-16s kind=%s axes=%s seeds=%s"
              % (name, spec["kind"], ",".join(spec["sweep"]) or "-",
                 spec["seeds"]))
    for failure in failures:
        print("DRIFT %s" % failure, file=sys.stderr)
    print("%d specs validated, %d failed" % (len(specs), len(failures)))
    return 1 if failures else 0


def run_selected(names, quick, out_dir, seed=None):
    """Run the named specs; write per-spec records plus a trend file.

    ``seed`` replaces each spec's ``seeds`` (re-validated). Returns
    ``(status, {id: fingerprint})``.
    """
    os.makedirs(out_dir, exist_ok=True)
    records = []
    status = 0
    for name in names:
        try:
            spec = registry.get(name)
            if seed is not None:
                spec = validate_spec(dict(spec, seeds=[seed]))
        except SpecError as err:
            print("DRIFT %s" % err, file=sys.stderr)
            status = 1
            continue
        result, record = run_spec(spec, quick=quick)
        try:
            validate_record(record)
        except ValueError as err:
            print("DRIFT %s: %s" % (name, err), file=sys.stderr)
            status = 1
            continue
        path = os.path.join(out_dir, "%s.json" % name)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        states = [state(verdict) for verdict in record["checks"]]
        print("ran %-16s rows=%d wall=%.1fs fingerprint=%s checks=%s -> %s"
              % (name, len(record["rows"]), record["wall_s"],
                 record["fingerprint"],
                 ",".join("%d %s" % (states.count(s), s)
                          for s in sorted(set(states))) or "-", path))
        for verdict in record["checks"]:
            if not verdict["ok"]:
                print("CHECK %s: %s" % (name, describe(verdict)),
                      file=sys.stderr)
                status = 1
        records.append(record)
    if records:
        trend_path = os.path.join(out_dir, "trend.json")
        with open(trend_path, "w") as fh:
            json.dump(to_trend(records), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("trend written to %s" % trend_path)
    return status, {record["id"]: record["fingerprint"] for record in records}


def check_fingerprints(path, quick, fingerprints, complete):
    """Compare run fingerprints with the committed table at ``path``.

    ``complete`` (a ``--run-all`` run) also fails on table ids that did
    not run, so a deleted spec cannot leave a stale entry behind.
    """
    with open(path) as fh:
        table = json.load(fh)
    if table["quick"] != quick:
        print("DRIFT %s was recorded with quick=%s" % (path, table["quick"]),
              file=sys.stderr)
        return 1
    want = table["fingerprints"]
    status = 0
    for name in sorted(set(fingerprints) | (set(want) if complete else set())):
        got, expected = fingerprints.get(name), want.get(name)
        if got != expected:
            print("DRIFT %s: fingerprint %s, %s has %s"
                  % (name, got or "(did not run)", path,
                     expected or "(no entry)"), file=sys.stderr)
            status = 1
    print("%d fingerprints checked against %s: %s"
          % (len(fingerprints), path, "DRIFT" if status else "equal"))
    return status


def write_fingerprints(path, quick, fingerprints):
    """Merge run fingerprints into the table at ``path``.

    Entries of specs that did not run are kept, so re-baselining a
    subset never drops the rest; each entry that changed is printed.
    A table recorded with the other ``quick`` setting is not touched.
    """
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            recorded = json.load(fh)
        if recorded["quick"] != quick:
            print("NOT WRITTEN %s was recorded with quick=%s"
                  % (path, recorded["quick"]), file=sys.stderr)
            return 1
        table = recorded["fingerprints"]
    changed = 0
    for name in sorted(fingerprints):
        old, new = table.get(name), fingerprints[name]
        if old != new:
            print("CHANGED %s: %s -> %s" % (name, old or "(no entry)", new))
            changed += 1
    table.update(fingerprints)
    with open(path, "w") as fh:
        json.dump({"quick": quick, "fingerprints": table}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    print("%d fingerprints written to %s (%d changed, %d kept)"
          % (len(fingerprints), path, changed,
             len(table) - len(fingerprints)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--validate", action="store_true",
                        help="validate + quick-compile every spec (no runs)")
    parser.add_argument("--run", action="append", default=[], metavar="ID",
                        help="run this spec (repeatable)")
    parser.add_argument("--run-all", action="store_true",
                        help="run every spec not tagged nightly")
    parser.add_argument("--check", metavar="FILE",
                        help="compare record fingerprints with this table")
    parser.add_argument("--write", metavar="FILE",
                        help="record the fingerprint table here")
    parser.add_argument("--quick", action="store_true",
                        help="apply each spec's quick overrides")
    parser.add_argument("--out-dir", default="artifacts",
                        help="directory for records (default: artifacts)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="run every selected spec on this one seed "
                             "instead of its committed seeds")
    args = parser.parse_args(argv)
    names = list(args.run)
    if args.run_all:
        specs = registry.discover()
        names += [name for name in sorted(specs)
                  if "nightly" not in specs[name]["tags"]
                  and name not in names]
    if args.validate or not names:
        status = validate_all()
        if status or not names:
            return status
    status, fingerprints = run_selected(
        names, args.quick, args.out_dir, seed=args.seed
    )
    if args.check:
        status |= check_fingerprints(
            args.check, args.quick, fingerprints, complete=args.run_all
        )
    if args.write and not status:
        status = write_fingerprints(args.write, args.quick, fingerprints)
    return status


if __name__ == "__main__":
    sys.exit(main())

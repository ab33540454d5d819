#!/usr/bin/env python
"""Render EXPERIMENTS.md from a directory of unified run records.

Usage:
    python scripts/spec_matrix.py --run-all --out-dir artifacts/shapes
    python scripts/experiments_md.py artifacts/shapes [EXPERIMENTS.md]

Every ``<id>.json`` record in the directory (``trend.json`` aside) is
schema-validated and rendered: the paper's expectation, the measured
rows, the notes, and one verdict per spec check. The document carries
no wall-clock times or dates, so a run that reproduces the rows
reproduces the document byte for byte; the CI paper-shapes job
regenerates it and fails on any diff.
"""

import json
import os
import re
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.harness import ExperimentResult  # noqa: E402
from repro.experiments import validate_record  # noqa: E402
from repro.experiments.runner import measured, state  # noqa: E402

HEADER = """# EXPERIMENTS — paper vs measured

Generated from full-size run records by
`python scripts/spec_matrix.py --run-all --out-dir artifacts/shapes`
then `python scripts/experiments_md.py artifacts/shapes`; do not edit
by hand. Each paper shape is a check in its spec under `experiments/`
(`docs/experiments.md`). A check's verdict is `pass`, `xfail` (a known
gap: the spec says `"expect": "fail"` and it fails), or a violation
(`FAIL`, or `XPASS` when a known gap starts to hold), which fails the
run.

The reproduction targets the paper's *shape* — who wins, the direction
of every effect, coarse factors — never absolute numbers: datasets are
scaled ~64x down, writeback time constants scaled to match, and sweeps
stop at 4 pools / 8 containers instead of 32 / 256
(`docs/calibration.md`).
"""

STATES = ("pass", "xfail", "skip", "FAIL", "XPASS")


def order(record_id):
    """Figures first, in paper order (fig6a < fig10), then the rest."""
    parts = re.split(r"(\d+)", record_id)
    return (not record_id.startswith("fig"),
            [int(part) if part.isdigit() else part for part in parts])


def load(directory):
    records = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json") and entry != "trend.json":
            with open(os.path.join(directory, entry)) as handle:
                records.append(validate_record(json.load(handle)))
    return sorted(records, key=lambda record: order(record["id"]))


def render(records):
    states = {record["id"]: [state(v) for v in record["checks"]]
              for record in records}
    parts = [HEADER, "| experiment | %s |" % " | ".join(STATES),
             "|---|%s" % ("---:|" * len(STATES))]
    for record in records:
        counts = [str(states[record["id"]].count(s)) for s in STATES]
        parts.append("| [%s](#%s) | %s |" % (
            record["id"], record["id"], " | ".join(counts)))
    totals = [str(sum(s.count(name) for s in states.values()))
              for name in STATES]
    parts.append("| **total** | %s |" % " | ".join(totals))
    for record in records:
        result = ExperimentResult(record["id"], record["title"])
        for row in record["rows"]:
            result.add_row(**row)
        parts += ["", '<a id="%s"></a>' % record["id"], "",
                  "## %s — %s" % (record["id"], record["title"]), ""]
        if record["paper_expectation"]:
            parts += ["**Paper:** %s" % record["paper_expectation"], ""]
        parts += ["```", result.table(), "```"]
        if record["notes"]:
            parts.append("")
            parts += ["- %s" % note for note in record["notes"]]
        if record["checks"]:
            parts += ["", "| verdict | check | measured | paper |",
                      "|---|---|---|---|"]
        for verdict in record["checks"]:
            parts.append("| %s | `%s` | %s | %s |" % (
                state(verdict), verdict["check"], measured(verdict),
                verdict["paper"]))
    return "\n".join(parts) + "\n"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    output = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    records = load(argv[0])
    if not records:
        print("no run records in %s" % argv[0], file=sys.stderr)
        return 1
    with open(output, "w") as handle:
        handle.write(render(records))
    print("wrote %s (%d experiments)" % (output, len(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

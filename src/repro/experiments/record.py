"""The unified run record: one JSON shape for every experiment artifact.

Every way of running an experiment — ``python -m repro run`` (with or
without ``--report``), the spec-matrix CI job, the nightly chaos matrix —
emits the same record: stable keys, a schema version field, the measured
rows, and a *fingerprint* (a stable hash of the rows) that doubles as a
determinism witness across runs with the same seed.

The record is deliberately a superset of the old
``ExperimentResult.to_dict()`` shape (``id``/``title``/
``paper_expectation``/``rows``/``notes`` keys are unchanged) and is
convertible to the ``BENCH_engine`` trend format via :func:`to_trend`,
so ``scripts/bench_engine.py``'s ``check_against`` gate can consume
spec-matrix records too.

This module is intentionally dependency-free (stdlib only): it sits at
the bottom of the import graph so ``repro.bench.harness`` and the
scripts can use it without cycles.
"""

import hashlib
import json

__all__ = [
    "RECORD_SCHEMA",
    "RecordError",
    "make_record",
    "rows_fingerprint",
    "to_trend",
    "validate_record",
]

#: Version of the unified run-record shape. Bump on any key change and
#: extend :func:`validate_record` — the CI spec-matrix job fails on
#: records it cannot validate, which is the schema-drift gate.
RECORD_SCHEMA = 3

#: Keys every record must carry, in canonical order.
REQUIRED_KEYS = (
    "schema", "id", "title", "paper_expectation", "rows", "notes",
    "fingerprint",
)

#: Optional keys a record may carry (anything else is drift).
OPTIONAL_KEYS = ("seeds", "wall_s", "spec", "checks", "profile", "detail")


class RecordError(ValueError):
    """A run record does not match the unified schema."""


def rows_fingerprint(rows):
    """A stable hex hash of measured rows (the determinism witness).

    Canonical JSON keeps the hash independent of dict insertion order;
    two runs that measure identical rows fingerprint identically.
    """
    canonical = json.dumps(list(rows), sort_keys=True, default=repr)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def make_record(experiment_id, title="", paper_expectation="", rows=(),
                notes=(), seeds=None, wall_s=None, spec=None, checks=None,
                profile=None, detail=None):
    """Assemble a schema-versioned run record with stable keys."""
    record = {
        "schema": RECORD_SCHEMA,
        "id": experiment_id,
        "title": title,
        "paper_expectation": paper_expectation,
        "rows": [dict(row) for row in rows],
        "notes": list(notes),
    }
    record["fingerprint"] = rows_fingerprint(record["rows"])
    if seeds is not None:
        record["seeds"] = list(seeds)
    if wall_s is not None:
        record["wall_s"] = round(float(wall_s), 4)
    if spec is not None:
        record["spec"] = spec
    if checks is not None:
        record["checks"] = checks
    if profile is not None:
        record["profile"] = profile
    if detail is not None:
        record["detail"] = detail
    return record


def validate_record(record):
    """Check a record against the unified schema; returns it.

    Raises :class:`RecordError` on any drift: wrong schema version,
    missing or unknown keys, rows that are not dicts, check verdicts
    without a bool ``ok``, or a fingerprint
    that does not match the rows (a tampered or hand-edited artifact).
    """
    if not isinstance(record, dict):
        raise RecordError("record must be a dict, got %s" % type(record).__name__)
    if record.get("schema") != RECORD_SCHEMA:
        raise RecordError(
            "record schema %r != expected %d (id=%r)"
            % (record.get("schema"), RECORD_SCHEMA, record.get("id"))
        )
    missing = [key for key in REQUIRED_KEYS if key not in record]
    if missing:
        raise RecordError(
            "record %r missing keys: %s" % (record.get("id"), ", ".join(missing))
        )
    known = set(REQUIRED_KEYS) | set(OPTIONAL_KEYS)
    unknown = sorted(set(record) - known)
    if unknown:
        raise RecordError(
            "record %r has unknown keys: %s (schema drift?)"
            % (record.get("id"), ", ".join(unknown))
        )
    if not isinstance(record["rows"], list) or any(
            not isinstance(row, dict) for row in record["rows"]):
        raise RecordError("record %r rows must be a list of dicts"
                          % record.get("id"))
    checks = record.get("checks", [])
    if not isinstance(checks, list) or any(
            not isinstance(check, dict) or not isinstance(check.get("ok"), bool)
            for check in checks):
        raise RecordError("record %r checks must be a list of verdicts "
                          "with a bool 'ok'" % record.get("id"))
    expected = rows_fingerprint(record["rows"])
    if record["fingerprint"] != expected:
        raise RecordError(
            "record %r fingerprint %s does not match its rows (%s)"
            % (record.get("id"), record["fingerprint"], expected)
        )
    return record


def to_trend(records, calibration_s=None):
    """Fold run records into the ``BENCH_engine`` trend shape.

    Returns ``{"schema": 1, "scenarios": {id: {"wall_s", "fingerprint",
    "detail"}}, "total_wall_s"}`` — the format
    ``scripts/bench_engine.py check_against`` diffs across runs, so
    spec-matrix records slot into the same trend-over-time tooling as
    the engine benchmarks.
    """
    trend = {"schema": 1, "scenarios": {}, "total_wall_s": 0.0}
    if calibration_s is not None:
        trend["calibration_s"] = round(float(calibration_s), 5)
    for record in records:
        wall = float(record.get("wall_s") or 0.0)
        trend["scenarios"][record["id"]] = {
            "wall_s": round(wall, 4),
            "fingerprint": record["fingerprint"],
            "detail": {"rows": record["rows"]},
        }
        trend["total_wall_s"] = round(trend["total_wall_s"] + wall, 4)
    return trend

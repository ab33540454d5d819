"""Declarative experiment specs: one config API from cluster topology
to regression report.

The subsystem the ROADMAP's CBT-orchestration item asked for (Ceph's
cbt provisions a cluster, mounts stacks and runs workloads from one
config file; this is the simulated analogue):

* :mod:`repro.experiments.spec` — the :data:`ExperimentSpec` schema
  (plain dict, JSON/YAML-friendly), validation and defaulting;
* :mod:`repro.experiments.compiler` — lowers a spec onto
  ``World``/``StackFactory``/``FaultPlan``/``bench`` experiments;
* :mod:`repro.experiments.runner` — expands sweep axes into
  deterministic per-seed runs, evaluates the spec's checks (the paper's
  shapes as data), emits the unified run record;
* :mod:`repro.experiments.record` — the schema-versioned run record
  every artifact (CLI reports, chaos matrix, spec-matrix CI) shares,
  convertible to the ``BENCH_engine`` trend format;
* :mod:`repro.experiments.registry` — spec-file discovery under
  ``experiments/``; the CLI resolves every ``run``/``list`` name here.

See ``docs/experiments.md`` for the schema reference and a worked
example.
"""

from repro.experiments.record import (
    RECORD_SCHEMA,
    RecordError,
    make_record,
    rows_fingerprint,
    to_trend,
    validate_record,
)
from repro.experiments.spec import SPEC_SCHEMA, SpecError, validate_spec

__all__ = [
    "RECORD_SCHEMA",
    "RecordError",
    "SPEC_SCHEMA",
    "SpecError",
    "make_record",
    "rows_fingerprint",
    "to_trend",
    "validate_record",
    "validate_spec",
]

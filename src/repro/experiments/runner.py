"""The sweep runner: specs -> deterministic per-seed runs -> one record.

:func:`run_spec` expands a validated spec into one compiled experiment
per seed, runs them, folds every measured row into a single
:class:`~repro.bench.harness.ExperimentResult` (rows gain a ``seed``
column when the spec sweeps more than one seed), checks the spec's SLO
assertions against the rows, and emits the unified run record
(``repro.experiments.record``): rows + fingerprint + wall-clock +
resolved spec, plus any per-seed detail the experiment exposes (the
chaos kind's plan log and digests).
"""

import time

from repro.experiments.compiler import compile_spec
from repro.experiments.record import make_record

__all__ = ["check_slos", "run_spec"]

_OPS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def check_slos(spec, result):
    """Evaluate the spec's SLO assertions against measured rows.

    Returns ``{"checked": N, "violations": [message, ...]}``; an SLO
    whose ``where`` filter matches no rows is itself a violation (the
    assertion silently checking nothing is the worst failure mode).
    """
    violations = []
    for entry in spec["slo"]:
        metric = entry["metric"]
        op = entry["op"]
        want = entry["value"]
        where = entry["where"]
        rows = result.rows_where(**where) if where else result.rows
        if not rows:
            violations.append(
                "slo %s %s %r: no rows match %r" % (metric, op, want, where)
            )
            continue
        for row in rows:
            if metric not in row:
                violations.append(
                    "slo %s %s %r: row %r has no such metric"
                    % (metric, op, want, row)
                )
                continue
            got = row[metric]
            try:
                ok = _OPS[op](got, want)
            except TypeError:
                ok = False
            if not ok:
                violations.append(
                    "slo violated: %s=%r not %s %r (row %r)"
                    % (metric, got, op, want,
                       {k: v for k, v in row.items() if not isinstance(v, float)})
                )
    return {"checked": len(spec["slo"]), "violations": violations}


def _run_seed(spec, quick, seed):
    """One seed's compiled run — module-level so the parallel slicer can
    ship it to a forked worker."""
    experiment = compile_spec(spec, quick=quick, seed=seed)
    outcome = experiment.run()
    return {
        "id": experiment.experiment_id,
        "title": experiment.title,
        "expectation": experiment.paper_expectation,
        "rows": [dict(row) for row in outcome.rows],
        "notes": list(outcome.notes),
        "detail": getattr(experiment, "detail", None),
    }


def run_spec(spec, quick=False, parallel=1):
    """Run one validated spec; returns ``(ExperimentResult, record)``.

    The result carries the merged rows/notes for printing; the record is
    the unified JSON artifact. Two calls with the same spec and seeds
    yield identical rows and fingerprints (wall-clock aside).

    ``parallel`` > 1 runs the spec's seeds as independent simulation
    tasks over that many worker processes (each seed's compiled run is a
    self-contained world).
    Results merge in seed order, so rows and fingerprints are identical
    to the sequential run; a single-seed spec just runs sequentially.
    """
    from repro.bench.harness import ExperimentResult
    from repro.sim.parallel import map_tasks

    started = time.perf_counter()
    seeds = list(spec["seeds"])
    multi_seed = len(seeds) > 1
    tasks = [
        ("seed%d" % seed, _run_seed,
         {"spec": spec, "quick": quick, "seed": seed})
        for seed in seeds
    ]
    outcomes, task_rows = map_tasks(tasks, workers=parallel)
    merged = None
    details = {}
    for seed, outcome in zip(seeds, outcomes):
        if merged is None:
            merged = ExperimentResult(
                outcome["id"], outcome["title"], outcome["expectation"],
            )
        for row in outcome["rows"]:
            row = dict(row)
            if multi_seed:
                row.setdefault("seed", seed)
            merged.add_row(**row)
        for note in outcome["notes"]:
            merged.note("seed %d: %s" % (seed, note) if multi_seed else note)
        if outcome["detail"]:
            details[str(seed)] = outcome["detail"]
    if parallel > 1:
        details["partitions"] = task_rows
    slo = check_slos(spec, merged)
    for violation in slo["violations"]:
        merged.note("SLO: %s" % violation)
    record = make_record(
        merged.experiment_id,
        merged.title,
        merged.paper_expectation,
        rows=merged.rows,
        notes=merged.notes,
        seeds=seeds,
        wall_s=time.perf_counter() - started,
        spec=spec,
        slo=slo,
        detail=details or None,
    )
    return merged, record

"""The sweep runner: specs -> deterministic per-cell runs -> one record.

:func:`run_spec` compiles a validated spec into one sweep per seed,
runs every (seed, cell) pair as an independent task, folds the measured
rows into a single :class:`~repro.bench.harness.ExperimentResult` in
declaration order (rows gain a ``seed`` column when the spec sweeps
more than one seed), checks the spec's SLO assertions against the rows,
and emits the unified run record (``repro.experiments.record``): rows +
fingerprint + wall-clock + resolved spec, plus any per-seed detail the
sweep exposes (the chaos kind's plan log and digests).
"""

import itertools
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


def _run_cell(spec, quick, seed, cell):
    """One cell of one seed's sweep — module-level so ``map_tasks`` can
    ship it to a forked worker."""
    sweep = compile_spec(spec, quick=quick, seed=seed)
    return {"row": sweep.run_cell(cell), "detail": sweep.detail}


def run_spec(spec, quick=False, parallel=1):
    """Run one validated spec; returns ``(ExperimentResult, record)``.

    The result carries the merged rows/notes for printing; the record is
    the unified JSON artifact. Two calls with the same spec and seeds
    yield identical rows and fingerprints (wall-clock aside).

    Every cell of every seed builds its own world, so ``parallel`` > 1
    runs the (seed, cell) tasks over that many worker processes. Rows
    merge in declaration order (seeds, then the kind's loop nest) and
    each seed's notes hook runs here, after the merge, so rows, notes
    and fingerprint are identical to the sequential run; the record's
    ``detail.partitions`` then lists one row per task.
    """
    from repro.bench.harness import ExperimentResult
    from repro.sim.parallel import map_tasks

    started = time.perf_counter()
    seeds = list(spec["seeds"])
    multi_seed = len(seeds) > 1
    sweeps = [compile_spec(spec, quick=quick, seed=seed) for seed in seeds]
    cells = [sweep.cells() for sweep in sweeps]
    tasks = [
        ("seed%d" % seed + "".join("/%s=%s" % item for item in cell.items()),
         _run_cell, {"spec": spec, "quick": quick, "seed": seed, "cell": cell})
        for seed, seed_cells in zip(seeds, cells)
        for cell in seed_cells
    ]
    outcomes, task_rows = map_tasks(tasks, workers=parallel)
    outcomes = iter(outcomes)
    merged = ExperimentResult(
        sweeps[0].experiment_id, sweeps[0].title, sweeps[0].paper_expectation
    )
    details = {}
    for seed, sweep, seed_cells in zip(seeds, sweeps, cells):
        done = list(itertools.islice(outcomes, len(seed_cells)))
        result = sweep.collect([outcome["row"] for outcome in done])
        for row in result.rows:
            if multi_seed:
                row.setdefault("seed", seed)
            merged.add_row(**row)
        for note in result.notes:
            merged.note("seed %d: %s" % (seed, note) if multi_seed else note)
        for outcome in done:
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

"""The sweep runner: specs -> deterministic per-cell runs -> one record.

:func:`run_spec` compiles a validated spec into one sweep per seed,
runs every (seed, cell) pair as an independent task, folds the measured
rows into a single :class:`~repro.bench.harness.ExperimentResult` in
declaration order (rows gain a ``seed`` column when the spec sweeps
more than one seed), evaluates the spec's checks against the rows
(:func:`evaluate_checks`), and emits the unified run record
(``repro.experiments.record``): rows + fingerprint + check verdicts +
wall-clock + resolved spec, plus any per-seed detail the sweep exposes
(the chaos kind's plan log and digests).
"""

import itertools
import json
import time

from repro.experiments.compiler import compile_spec
from repro.experiments.record import make_record
from repro.experiments.spec import CHECK_OPS
from repro.world import releases_world

__all__ = ["describe", "evaluate_checks", "measured", "run_spec", "state"]


class _Unmatched(LookupError):
    """A term's ``where`` filter matched no row."""


def _render_term(term):
    if not isinstance(term, dict):
        return json.dumps(term)
    if "ratio" in term:
        return "(%s / %s)" % tuple(_render_term(part) for part in term["ratio"])
    where = ", ".join("%s=%s" % item for item in term["where"].items())
    return "%s[%s]" % (term["metric"], where) if where else term["metric"]


def _render_check(check):
    """A check as one readable comparison, e.g. ``a[symbol=D] < 2 * b``."""
    rhs = _render_term(check["rhs"])
    if check["factor"] != 1:
        rhs = "%g * %s" % (check["factor"], rhs)
    return "%s %s %s" % (_render_term(check["lhs"]), check["op"], rhs)


def _rows(result, term):
    rows = result.rows_where(**term["where"])
    if not rows:
        raise _Unmatched("no row matches %s" % _render_term(term))
    if any(term["metric"] not in row for row in rows):
        raise LookupError("a row of %s has no metric %r"
                          % (_render_term(term), term["metric"]))
    return [row[term["metric"]] for row in rows]


def _value(result, term):
    """A single-valued term: a constant, one row's metric, or a ratio
    (``x / 0`` is ``inf``)."""
    if not isinstance(term, dict):
        return term
    if "ratio" in term:
        num, den = (_value(result, part) for part in term["ratio"])
        return num / den if den else float("inf")
    values = _rows(result, term)
    if len(values) != 1:
        raise LookupError("%d rows match %s, want exactly one"
                          % (len(values), _render_term(term)))
    return values[0]


def evaluate_checks(spec, result, quick=False):
    """Evaluate the spec's checks against measured rows.

    Returns one verdict per check: ``{check, ok, lhs, rhs, op, factor,
    paper, expect, skipped}`` with the values compared, plus a
    ``reason`` when the terms could not be evaluated. A metric term on
    the left is compared on every row it matches; every other row term
    must match exactly one row. A check expected to ``fail`` that holds
    is a violation (``ok`` false). A term that matches no row is a
    violation too (a check that silently checks nothing is the worst
    failure mode) -- except under ``quick``, whose reduced sweep lacks
    the rows of some checks: those are ``skipped``.
    """
    verdicts = []
    for check in spec["checks"]:
        verdict = {
            "check": _render_check(check), "lhs": None, "rhs": None,
            "op": check["op"], "factor": check["factor"],
            "paper": check["paper"], "expect": check["expect"],
            "skipped": False,
        }
        lhs = check["lhs"]
        try:
            rhs = _value(result, check["rhs"])
            if isinstance(lhs, dict) and "metric" in lhs:
                values = _rows(result, lhs)
            else:
                values = [_value(result, lhs)]
        except _Unmatched as err:
            verdict.update(ok=quick, skipped=quick, reason=str(err))
        except (LookupError, TypeError) as err:
            # TypeError: a ratio over a non-numeric value.
            verdict.update(ok=False, reason=str(err))
        else:
            want = rhs * check["factor"] if check["factor"] != 1 else rhs
            compare = CHECK_OPS[check["op"]]
            try:
                holds = all(compare(value, want) for value in values)
            except TypeError:
                holds = False
            verdict.update(
                lhs=values[0] if len(values) == 1 else values, rhs=rhs,
                ok=holds == (check["expect"] == "pass"),
            )
        verdicts.append(verdict)
    return verdicts


def state(verdict):
    """``pass``, ``xfail`` (fails as the spec expects), ``skip``, or a
    violation: ``FAIL`` (does not hold) / ``XPASS`` (holds, expected to
    fail)."""
    if verdict["skipped"]:
        return "skip"
    expect_pass = verdict["expect"] == "pass"
    if verdict["ok"]:
        return "pass" if expect_pass else "xfail"
    return "XPASS" if not expect_pass and "reason" not in verdict else "FAIL"


def _fmt(value):
    if isinstance(value, list):
        return "[%s]" % ", ".join(_fmt(item) for item in value)
    if isinstance(value, float):
        return "%.0f" % value if 1e5 <= abs(value) < 1e15 else "%.5g" % value
    return json.dumps(value)


def measured(verdict):
    """The comparison with the measured values in (or why there was
    none), e.g. ``0.97 < 1.04``."""
    if "reason" in verdict:
        return verdict["reason"]
    factor = "%g * " % verdict["factor"] if verdict["factor"] != 1 else ""
    return "%s %s %s%s" % (_fmt(verdict["lhs"]), verdict["op"], factor,
                           _fmt(verdict["rhs"]))


def describe(verdict):
    """One line per verdict: state, the check, what it compared."""
    return "%-5s %s  (%s)" % (state(verdict), verdict["check"],
                              measured(verdict))


@releases_world
def _run_cell(spec, quick, seed, cell):
    """One cell of one seed's sweep — module-level so ``map_tasks`` can
    ship it to a forked worker. The cell's world is freed before the
    next cell builds its own, whatever the spec's kind."""
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
    record = make_record(
        merged.experiment_id,
        merged.title,
        merged.paper_expectation,
        rows=merged.rows,
        notes=merged.notes,
        seeds=seeds,
        wall_s=time.perf_counter() - started,
        spec=spec,
        checks=evaluate_checks(spec, merged, quick=quick),
        detail=details or None,
    )
    return merged, record

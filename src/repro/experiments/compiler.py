"""Compile validated experiment specs onto runnable sweeps.

An experiment is a *row function* and a *sweep*. The row function
(``run_colocation(symbol, n_fls, neighbor, duration=...)``) builds one
:class:`~repro.world.World`, its :class:`~repro.stacks.StackFactory`
stacks and workloads, runs them and returns one measured row.
:data:`KINDS` says, per spec ``kind``, which row function that is and
in which order the axes nest; :class:`Sweep` expands the nest over the
spec's axis values into cells, calls the row function once per cell and
collects the rows. The ``chaos`` kind is the one special case
(:class:`ChaosSweep`): its single cell is a
:class:`~repro.faults.ChaosConfig` run whose row carries ``detail``.

Adding a figure is one row function, one :data:`KINDS` line and one
JSON file under ``experiments/`` (``docs/experiments.md``).

Row functions and notes hooks are named as ``"module:function"`` and
imported on first use, so ``repro.experiments`` stays importable from
low-level modules without cycles.
"""

import collections
import importlib
import inspect
import itertools

from repro.experiments.spec import SpecError, resolve_axes

__all__ = ["KINDS", "ChaosSweep", "Sweep", "compile_spec"]

#: One experiment shape. ``row`` names the row function; ``nest`` is its
#: loop nest, outermost first, as ``(axis, argument)`` pairs — the axis
#: as specs and rows spell it, the row function's argument it feeds;
#: ``fixed`` holds the axes the kind sets itself (the rest come from the
#: spec's ``sweep``), as values or as a function of the spec's params;
#: ``notes`` names an optional ``hook(result, axes)`` that summarises the
#: collected rows.
Kind = collections.namedtuple(
    "Kind", "row nest fixed notes", defaults=({}, None)
)

_SYMBOL = ("symbol", "symbol")

KINDS = {
    "colocation": Kind(
        "repro.bench.isolation:run_colocation",
        (_SYMBOL, ("n_fls", "n_fls"), ("neighbor", "neighbor")),
        fixed={"neighbor": lambda params: (None, params.pop("neighbor"))},
        notes="repro.bench.isolation:colocation_notes",
    ),
    "rocksdb_scaleout": Kind(
        "repro.bench.rocksdb_exp:run_rocksdb_scaleout",
        (("pools", "n_pools"), _SYMBOL),
    ),
    "rocksdb_scaleup": Kind(
        "repro.bench.rocksdb_exp:run_rocksdb_scaleup",
        (("clones", "n_clones"), _SYMBOL),
    ),
    "startup": Kind(
        "repro.bench.startup:run_startup",
        (("containers", "n_containers"), _SYMBOL),
        notes="repro.bench.startup:startup_notes",
    ),
    "sequential_scaleout": Kind(
        "repro.bench.sequential:run_sequential",
        (("pools", "n_pools"), _SYMBOL),
    ),
    "fileserver_scaleout": Kind(
        "repro.bench.fileserver_exp:run_fileserver_scaleout",
        (("pools", "n_pools"), _SYMBOL),
    ),
    "file_scaleup": Kind(
        "repro.bench.scaleup:run_file_scaleup",
        (("clones", "n_clones"), _SYMBOL),
    ),
    "pool_scaleup": Kind(
        "repro.bench.scaleup:run_pool_scaleup",
        (("pools", "n_pools"), ("clones_per_pool", "clones_per_pool"),
         _SYMBOL),
    ),
    "serverless": Kind(
        "repro.bench.serverless_exp:run_serverless",
        (_SYMBOL, ("with_neighbor", "with_neighbor")),
        fixed={"with_neighbor": (False, True)},
        notes="repro.bench.serverless_exp:serverless_notes",
    ),
    "ablation_locking": Kind(
        "repro.bench.ablation:run_seqread_locking",
        (("shared_file", "shared_file"), ("locking", "locking")),
        fixed={"shared_file": (False, True),
               "locking": ("global", "range")},
        notes="repro.bench.ablation:locking_notes",
    ),
    "ablation_ipc": Kind(
        "repro.bench.ablation:run_seqwrite_queues",
        (("single_queue", "single_queue"),),
        fixed={"single_queue": (True, False)},
    ),
    "ablation_dedup": Kind(
        "repro.bench.ablation:run_dedup_memory",
        (("dedup", "dedup"),),
        fixed={"dedup": (False, True)},
        notes="repro.bench.ablation:dedup_notes",
    ),
    # Compiled by ChaosSweep, not from a row function.
    "chaos": Kind(None, ()),
}


def _resolve(name):
    module, _colon, attr = name.partition(":")
    return getattr(importlib.import_module(module), attr)


class Sweep(object):
    """One spec's cells: its kind's loop nest over its axis values.

    ``axes`` maps every axis of the nest to its values and ``params``
    holds the keyword arguments every cell shares (``seed`` plugs one
    seed of the spec's seed list into them). Both are bound against the
    row function's signature here, so a spec whose params do not fit
    its kind dies with a :class:`SpecError` before any world is built.
    """

    #: Per-run evidence beyond the rows (only the chaos kind has any).
    detail = None

    def __init__(self, spec, quick=False, seed=None):
        self.experiment_id = spec["id"]
        self.title = spec["title"]
        self.paper_expectation = spec["expectation"]
        axes, params = resolve_axes(spec, quick=quick)
        self._bind(spec, axes, params, seed)

    def _bind(self, spec, axes, params, seed):
        kind = self.kind = KINDS[spec["kind"]]
        if seed is not None:
            params.setdefault("seed", seed)
        self.row_fn = _resolve(kind.row)
        try:
            for axis, values in kind.fixed.items():
                axes[axis] = values(params) if callable(values) else values
            self.axes = {axis: tuple(axes[axis]) for axis, _arg in kind.nest}
            inspect.signature(self.row_fn).bind(
                **dict.fromkeys(arg for _axis, arg in kind.nest), **params
            )
        except (KeyError, TypeError) as err:
            # KeyError: an axis or param the nest needs is not in the spec.
            raise SpecError(
                "spec %r: params do not fit kind %r (%s%s)"
                % (spec["id"], spec["kind"],
                   "missing " if isinstance(err, KeyError) else "", err)
            )
        self.params = params

    def cells(self):
        """The nest expanded: one ``{argument: value}`` dict per cell,
        outermost axis varying slowest."""
        args = [arg for _axis, arg in self.kind.nest]
        return [
            dict(zip(args, values))
            for values in itertools.product(*self.axes.values())
        ]

    def run_cell(self, cell):
        """Measure one cell; returns its row."""
        return self.row_fn(**cell, **self.params)

    def collect(self, rows):
        """Rows (in cell order) -> the result, with the kind's notes."""
        from repro.bench.harness import ExperimentResult

        result = ExperimentResult(
            self.experiment_id, self.title, self.paper_expectation
        )
        for row in rows:
            result.add_row(**row)
        self._notes(result)
        return result

    def _notes(self, result):
        if self.kind.notes:
            _resolve(self.kind.notes)(result, self.axes)


class ChaosSweep(Sweep):
    """The ``chaos`` kind: one :class:`~repro.faults.ChaosConfig` run.

    ``cluster`` + ``faults`` + ``params`` lower onto the config, whose
    fault mix becomes a :class:`~repro.faults.FaultPlan`. Its single
    cell runs the configured chaos pipeline for one seed and reports
    the integrity/convergence verdict as a row; the full evidence
    (fault plan log, per-file digests, violation lists) lands in
    :attr:`detail`, which the sweep runner folds into the run record —
    the same shape the nightly chaos matrix uploads.
    """

    def _bind(self, spec, axes, params, seed):
        from repro.faults import ChaosConfig

        fields = dict(spec.get("faults") or {})
        fields.update(params)
        cluster = spec["cluster"]
        fields.setdefault("num_osds", cluster["osds"])
        fields.setdefault("replicas", cluster["replicas"])
        self.config = ChaosConfig.from_dict(
            fields, seed=seed if seed is not None else 0
        )

    def cells(self):
        return [{}]

    def run_cell(self, cell):
        outcome = self.config.run()
        self.detail = {
            "plan_log": [list(entry) for entry in outcome.plan_log],
            "digests": {str(k): v for k, v in sorted(outcome.digests.items())},
            "mismatches": [list(m) for m in outcome.mismatches],
            "read_mismatches": [list(m) for m in outcome.read_mismatches],
            "integrity_errors": [list(e) for e in outcome.integrity_errors],
            "quarantined": [list(key) for key in outcome.quarantined],
            "under_replicated": [list(k) for k in outcome.under_replicated],
        }
        return dict(
            seed=outcome.seed,
            ok=outcome.ok,
            converged=outcome.converged,
            scrub_converged=outcome.scrub_converged,
            membership_converged=outcome.membership_converged,
            map_epoch=outcome.map_epoch,
            corruptions=outcome.corruptions,
            repairs=outcome.repairs,
            retries=outcome.retries,
            service_restarts=outcome.service_restarts,
            files_checked=outcome.files_checked,
            files_skipped=outcome.files_skipped,
            backfill_objects=outcome.backfill_objects,
            backfill_bytes=outcome.backfill_bytes,
            fingerprint=outcome.fingerprint_hex(),
        )

    def _notes(self, result):
        for row in result.rows:
            if not row["ok"]:
                result.note("chaos run seed=%d FAILED integrity/convergence"
                            % row["seed"])


def compile_spec(spec, quick=False, seed=None):
    """Lower a validated spec to its runnable sweep.

    ``seed`` plugs one seed of the spec's seed list into the row
    function (``None`` keeps the row function's own default). The
    returned sweep carries the spec's ``id``/``title``/``expectation``.
    """
    if spec["kind"] not in KINDS:
        raise SpecError("unknown experiment kind %r" % spec["kind"])
    sweep = ChaosSweep if spec["kind"] == "chaos" else Sweep
    return sweep(spec, quick=quick, seed=seed)

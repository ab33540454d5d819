"""Compile validated experiment specs onto runnable experiments.

Each spec ``kind`` names one compiled shape: a builder that lowers the
spec's sweep axes and params onto the constructor of a
:class:`~repro.bench.harness.Experiment` subclass (which in turn builds
:class:`~repro.world.World`\\ s, :class:`~repro.stacks.StackFactory`
stacks and workloads per sweep cell), or — for the ``chaos`` kind — onto
a :class:`~repro.faults.ChaosConfig` whose fault mix becomes a
:class:`~repro.faults.FaultPlan`.

The mapping is deliberately thin and explicit: a spec that mirrors one
of the old ``cli._experiments()`` closures compiles to *exactly* the
experiment object that closure built, which is what the
closure-vs-spec equivalence tests pin.

Builders import ``repro.bench`` lazily (same as the old CLI closures)
so that ``repro.experiments`` stays importable from low-level modules
without cycles.
"""

import hashlib

from repro.experiments.spec import SpecError, resolve_axes

__all__ = ["AXES", "KINDS", "ChaosSweep", "compile_spec"]

#: Sweep axis names each kind accepts (validated by ``spec.validate_spec``).
AXES = {
    "colocation": ("symbol", "n_fls"),
    "rocksdb_scaleout": ("symbol", "pools"),
    "rocksdb_scaleup": ("symbol", "clones"),
    "startup": ("symbol", "containers"),
    "sequential_scaleout": ("symbol", "pools"),
    "fileserver_scaleout": ("symbol", "pools"),
    "file_scaleup": ("symbol", "clones"),
    "pool_scaleup": ("symbol", "pools", "clones_per_pool"),
    "serverless": ("symbol",),
    "ablation_locking": (),
    "ablation_ipc": (),
    "ablation_dedup": (),
    "chaos": (),
}

KINDS = tuple(AXES)


def _axis(axes, name, default):
    values = axes.get(name)
    return tuple(values) if values is not None else tuple(default)


def _build_colocation(axes, params):
    from repro.bench import FlsColocation

    return FlsColocation(
        symbols=_axis(axes, "symbol", ("K", "D")),
        fls_counts=_axis(axes, "n_fls", (1, 3)),
        neighbor=params.pop("neighbor", "RND"),
        duration=params.pop("duration", 8.0),
        **params,
    )


def _build_rocksdb_scaleout(axes, params):
    from repro.bench import RocksDbScaleout

    return RocksDbScaleout(
        symbols=_axis(axes, "symbol", ("D", "F", "K")),
        pool_counts=_axis(axes, "pools", (1, 4)),
        mode=params.pop("mode", "put"),
        **params,
    )


def _build_rocksdb_scaleup(axes, params):
    from repro.bench import RocksDbScaleup

    return RocksDbScaleup(
        symbols=_axis(axes, "symbol", ("D", "F/F", "F/K", "K/K")),
        clone_counts=_axis(axes, "clones", (2, 8)),
        mode=params.pop("mode", "put"),
        **params,
    )


def _build_startup(axes, params):
    from repro.bench import LighttpdStartup

    return LighttpdStartup(
        symbols=_axis(axes, "symbol", ("D", "K/K", "F/K", "F/F")),
        container_counts=_axis(axes, "containers", (1, 8)),
        **params,
    )


def _build_sequential_scaleout(axes, params):
    from repro.bench import SequentialScaleout

    return SequentialScaleout(
        symbols=_axis(axes, "symbol", ("D", "F", "K")),
        pool_counts=_axis(axes, "pools", (1, 4)),
        mode=params.pop("mode", "write"),
        **params,
    )


def _build_fileserver_scaleout(axes, params):
    from repro.bench import FileserverScaleout

    return FileserverScaleout(
        symbols=_axis(axes, "symbol", ("D", "F", "K")),
        pool_counts=_axis(axes, "pools", (1, 4)),
        **params,
    )


def _build_file_scaleup(axes, params):
    from repro.bench import FileScaleup

    return FileScaleup(
        symbols=_axis(axes, "symbol", ("D", "K/K", "F/F", "FP/FP")),
        clone_counts=_axis(axes, "clones", (2, 8, 16)),
        mode=params.pop("mode", "append"),
        **params,
    )


def _build_pool_scaleup(axes, params):
    from repro.bench import PoolScaleup

    return PoolScaleup(
        symbols=_axis(axes, "symbol", ("D",)),
        pool_counts=_axis(axes, "pools", (8, 16)),
        clones_per_pool_counts=_axis(axes, "clones_per_pool", (2,)),
        mode=params.pop("mode", "append"),
        **params,
    )


def _build_serverless(axes, params):
    from repro.bench import ServerlessColocation

    return ServerlessColocation(
        symbols=_axis(axes, "symbol", ("K", "D")),
        **params,
    )


def _build_ablation_locking(axes, params):
    from repro.bench import LockingPolicyAblation

    return LockingPolicyAblation(**params)


def _build_ablation_ipc(axes, params):
    from repro.bench import IpcQueueAblation

    return IpcQueueAblation(**params)


def _build_ablation_dedup(axes, params):
    from repro.bench import CacheDedupAblation

    return CacheDedupAblation(**params)


class ChaosSweep(object):
    """Experiment adapter over :class:`~repro.faults.ChaosConfig`.

    Runs the configured chaos pipeline for one seed and reports the
    integrity/convergence verdict as a row; the full evidence (fault
    plan log, per-file digests, violation lists) lands in
    :attr:`detail`, which the sweep runner folds into the run record —
    the same shape the nightly chaos matrix uploads.
    """

    experiment_id = "chaos"
    title = "Chaos pipeline under a seeded fault plan"
    paper_expectation = ""

    def __init__(self, config):
        self.config = config
        self.detail = {}

    def run(self):
        from repro.bench.harness import ExperimentResult

        result = ExperimentResult(
            self.experiment_id, self.title, self.paper_expectation
        )
        outcome = self.config.run()
        fingerprint = hashlib.blake2b(
            repr(outcome.fingerprint()).encode(), digest_size=16
        ).hexdigest()
        result.add_row(
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
            fingerprint=fingerprint,
        )
        self.detail = {
            "plan_log": [list(entry) for entry in outcome.plan_log],
            "digests": {str(k): v for k, v in sorted(outcome.digests.items())},
            "mismatches": [list(m) for m in outcome.mismatches],
            "read_mismatches": [list(m) for m in outcome.read_mismatches],
            "integrity_errors": [list(e) for e in outcome.integrity_errors],
            "quarantined": [list(key) for key in outcome.quarantined],
            "under_replicated": [list(k) for k in outcome.under_replicated],
        }
        if not outcome.ok:
            result.note("chaos run seed=%d FAILED integrity/convergence"
                        % outcome.seed)
        return result


def _build_chaos(axes, params, spec, seed):
    from repro.faults import ChaosConfig

    fields = dict(spec.get("faults") or {})
    fields.update(params)
    cluster = spec["cluster"]
    fields.setdefault("num_osds", cluster["osds"])
    fields.setdefault("replicas", cluster["replicas"])
    config = ChaosConfig.from_dict(fields, seed=seed if seed is not None else 0)
    return ChaosSweep(config)


_BUILDERS = {
    "colocation": _build_colocation,
    "rocksdb_scaleout": _build_rocksdb_scaleout,
    "rocksdb_scaleup": _build_rocksdb_scaleup,
    "startup": _build_startup,
    "sequential_scaleout": _build_sequential_scaleout,
    "fileserver_scaleout": _build_fileserver_scaleout,
    "file_scaleup": _build_file_scaleup,
    "pool_scaleup": _build_pool_scaleup,
    "serverless": _build_serverless,
    "ablation_locking": _build_ablation_locking,
    "ablation_ipc": _build_ablation_ipc,
    "ablation_dedup": _build_ablation_dedup,
}


def compile_spec(spec, quick=False, seed=None):
    """Lower a validated spec to a runnable experiment object.

    ``seed`` plugs one seed of the spec's seed list into the runner
    (``None`` keeps the experiment's own default, which is how the
    legacy closures behaved). The returned object carries the spec's
    ``id``/``title``/``expectation``.
    """
    kind = spec["kind"]
    axes, params = resolve_axes(spec, quick=quick)
    if kind == "chaos":
        experiment = _build_chaos(axes, params, spec, seed)
    else:
        builder = _BUILDERS.get(kind)
        if builder is None:
            raise SpecError("unknown experiment kind %r" % kind)
        if seed is not None:
            params.setdefault("seed", seed)
        try:
            experiment = builder(axes, dict(params))
        except TypeError as err:
            raise SpecError(
                "spec %r: params do not fit kind %r (%s)"
                % (spec["id"], kind, err)
            )
    experiment.experiment_id = spec["id"]
    if spec["title"]:
        experiment.title = spec["title"]
    if spec["expectation"]:
        experiment.paper_expectation = spec["expectation"]
    return experiment

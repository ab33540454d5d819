"""Declarative experiment specs: schema, validation and defaulting.

An :data:`ExperimentSpec` is a plain dict (JSON- and YAML-friendly)
describing one experiment end to end:

``id``
    Registry name (``fig6a``, ``chaos-corruption``, ...).
``kind``
    Which compiled shape runs it — see ``repro.experiments.compiler``.
``cluster``
    Cluster topology: OSD count, replica count, client hosts. The chaos
    kind lowers this onto :class:`~repro.world.World` directly; figure
    kinds document the topology their runners build.
``stacks`` / ``workloads``
    The Table-1 stack symbols and Table-2 workload symbols the
    experiment exercises (validated against the registries).
``sweep``
    Axis matrices (axis name -> value list); the compiler expands them
    in the kind's loop-nest order, one cell per combination. Axis names
    are per-kind.
``params``
    Scalar knobs every cell's row function call shares (durations,
    modes, sizes).
``seeds``
    The deterministic seed list; the sweep runner runs the whole matrix
    once per seed.
``faults``
    A :class:`~repro.faults.ChaosConfig` field dict (chaos kind only).
``checks``
    The paper's shapes as data: each ``{lhs, op, rhs, factor, paper,
    expect}`` compares measured rows after the run (grammar in
    ``docs/experiments.md``, "Checks").
``quick``
    Sweep/param overrides applied under ``--quick``.

:func:`validate_spec` normalises a raw dict: fills defaults, rejects
unknown keys/symbols/axes with actionable errors, and returns a deep
copy safe to mutate. Everything downstream (compiler, runner, registry,
CLI) consumes only validated specs.
"""

import copy
import dataclasses
import json
import numbers
import operator
import re

from repro.common.errors import ConfigError

__all__ = [
    "CHECK_OPS", "SPEC_SCHEMA", "SpecError", "resolve_axes", "validate_spec",
]

#: Version of the spec shape; validation rejects any other value.
SPEC_SCHEMA = 2

_TOP_KEYS = frozenset((
    "schema", "id", "kind", "title", "expectation", "tags", "cluster",
    "stacks", "workloads", "sweep", "params", "seeds", "faults", "checks",
    "quick",
))

_ID_RE = re.compile(r"^[a-z0-9][a-z0-9_.-]*$")

_CLUSTER_DEFAULTS = {"osds": 6, "replicas": 1, "hosts": 1}

#: The comparison a check states between its two terms.
CHECK_OPS = {
    "<=": operator.le, "<": operator.lt, ">=": operator.ge,
    ">": operator.gt, "==": operator.eq, "!=": operator.ne,
}

_CHECK_KEYS = frozenset(("lhs", "op", "rhs", "factor", "paper", "expect"))


class SpecError(ConfigError):
    """An experiment spec failed validation."""


def _fail(spec_id, message):
    prefix = "spec %r: " % spec_id if spec_id else "spec: "
    raise SpecError(prefix + message)


def _check_stack_symbol(spec_id, symbol):
    from repro.stacks import validate_symbol

    try:
        validate_symbol(symbol)
    except SpecError:
        raise
    except ConfigError as err:
        _fail(spec_id, str(err))


def _workload_symbols():
    from repro.bench.registry import COMPOSITES, WORKLOADS

    return set(WORKLOADS) | set(COMPOSITES)


def _kind_axes(kind):
    """The sweep axes a spec of ``kind`` may state: its loop nest minus
    the axes the kind fixes itself."""
    from repro.experiments.compiler import KINDS

    if kind not in KINDS:
        raise SpecError(
            "unknown experiment kind %r (known: %s)" % (kind, ", ".join(KINDS))
        )
    nest, fixed = KINDS[kind].nest, KINDS[kind].fixed
    return tuple(axis for axis, _arg in nest if axis not in fixed)


def _chaos_fields():
    """The spec-able ChaosConfig field names -> their declared types."""
    from repro.faults import ChaosConfig

    names = ChaosConfig.field_names()
    return {f.name: f.type for f in dataclasses.fields(ChaosConfig)
            if f.name in names}


#: how a field-type error names the type it wanted
_KIND_WORDS = {int: "an int >= 0", float: "a number >= 0", bool: "a bool",
               str: "a string"}


def _admits(kind, value):
    """Whether a ChaosConfig field declared ``kind`` takes ``value``:
    counts and sizes are non-negative ints, times non-negative numbers."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and value >= 0
    if kind is float:
        return isinstance(value, numbers.Real) and value >= 0
    return isinstance(value, kind)


def _check_chaos_values(spec_id, where, values):
    """Each value of a ChaosConfig field dict fits its field's type."""
    fields = _chaos_fields()
    for name, value in sorted(values.items()):
        kind = fields[name]
        if not _admits(kind, value):
            _fail(spec_id, "%s.%s must be %s, got %r"
                  % (where, name, _KIND_WORDS[kind], value))


def _check_chaos_params(spec_id, where, params):
    """A chaos spec's params lower onto ChaosConfig fields."""
    bad = sorted(set(params) - set(_chaos_fields()))
    if bad:
        _fail(spec_id, "chaos %s %s are not ChaosConfig fields"
              % (where, ", ".join(bad)))
    _check_chaos_values(spec_id, where, params)



def _check_scalar_list(spec_id, name, values):
    if not isinstance(values, (list, tuple)) or not values:
        _fail(spec_id, "%s must be a non-empty list" % name)
    return list(values)


def _check_term(spec_id, name, term):
    """A term is a number/bool, ``{metric, where}`` or ``{ratio: [a, b]}``."""
    if isinstance(term, (bool, numbers.Real)):
        return
    if isinstance(term, dict) and set(term) == {"ratio"}:
        parts = term["ratio"]
        if not isinstance(parts, list) or len(parts) != 2:
            _fail(spec_id, "%s.ratio must be a list of two terms" % name)
        for index, part in enumerate(parts):
            _check_term(spec_id, "%s.ratio[%d]" % (name, index), part)
        return
    if (not isinstance(term, dict) or set(term) - {"metric", "where"}
            or not isinstance(term.get("metric"), str)):
        _fail(spec_id, "%s must be a number, {metric, where} or "
              "{ratio: [term, term]}, got %r" % (name, term))
    if not isinstance(term.setdefault("where", {}), dict):
        _fail(spec_id, "%s.where must be a mapping" % name)


def _check_entry(spec_id, name, check):
    """One paper shape: ``lhs op factor * rhs``, expected to pass or fail."""
    if not isinstance(check, dict):
        _fail(spec_id, "%s must be a mapping" % name)
    unknown = sorted(set(check) - _CHECK_KEYS)
    if unknown:
        _fail(spec_id, "%s has unknown keys: %s" % (name, ", ".join(unknown)))
    for side in ("lhs", "rhs"):
        if side not in check:
            _fail(spec_id, "%s needs %s" % (name, side))
        _check_term(spec_id, "%s.%s" % (name, side), check[side])
    if check.get("op") not in CHECK_OPS:
        _fail(spec_id, "%s op %r not one of %s"
              % (name, check.get("op"), ", ".join(CHECK_OPS)))
    factor = check.setdefault("factor", 1)
    if isinstance(factor, bool) or not isinstance(factor, numbers.Real):
        _fail(spec_id, "%s.factor must be a number" % name)
    if not isinstance(check.setdefault("paper", ""), str):
        _fail(spec_id, "%s.paper must be a string" % name)
    if check.setdefault("expect", "pass") not in ("pass", "fail"):
        _fail(spec_id, "%s.expect %r not one of pass, fail"
              % (name, check["expect"]))


def validate_spec(raw, source=None):
    """Validate and normalise a raw spec dict; returns a deep copy.

    ``source`` (a file path) is included in error messages when given.
    """
    if not isinstance(raw, dict):
        raise SpecError(
            "spec%s must be a mapping, got %s"
            % (" (%s)" % source if source else "", type(raw).__name__)
        )
    spec = copy.deepcopy(raw)
    spec_id = spec.get("id")
    if source and not isinstance(spec_id, str):
        _fail(None, "%s has no string 'id'" % source)

    unknown = sorted(set(spec) - _TOP_KEYS)
    if unknown:
        _fail(spec_id, "unknown keys: %s" % ", ".join(unknown))

    schema = spec.setdefault("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        _fail(spec_id, "schema %r != supported %d" % (schema, SPEC_SCHEMA))

    if not isinstance(spec_id, str) or not _ID_RE.match(spec_id):
        _fail(spec_id, "id must match %s" % _ID_RE.pattern)

    kind = spec.get("kind")
    if not isinstance(kind, str):
        _fail(spec_id, "kind is required")
    axes_allowed = _kind_axes(kind)

    for key, default in (("title", ""), ("expectation", "")):
        value = spec.setdefault(key, default)
        if not isinstance(value, str):
            _fail(spec_id, "%s must be a string" % key)

    tags = spec.setdefault("tags", [])
    if not isinstance(tags, list) or any(not isinstance(t, str) for t in tags):
        _fail(spec_id, "tags must be a list of strings")

    # -- cluster topology -------------------------------------------------
    cluster = spec.setdefault("cluster", {})
    if not isinstance(cluster, dict):
        _fail(spec_id, "cluster must be a mapping")
    unknown = sorted(set(cluster) - set(_CLUSTER_DEFAULTS))
    if unknown:
        _fail(spec_id, "unknown cluster keys: %s" % ", ".join(unknown))
    for key, default in _CLUSTER_DEFAULTS.items():
        value = cluster.setdefault(key, default)
        if not isinstance(value, int) or value < 1:
            _fail(spec_id, "cluster.%s must be a positive int" % key)
    if cluster["replicas"] > cluster["osds"]:
        _fail(spec_id, "cluster.replicas (%d) exceeds cluster.osds (%d)"
              % (cluster["replicas"], cluster["osds"]))

    # -- sweep axes -------------------------------------------------------
    sweep = spec.setdefault("sweep", {})
    if not isinstance(sweep, dict):
        _fail(spec_id, "sweep must be a mapping of axis -> values")
    for axis, values in sweep.items():
        if axis not in axes_allowed:
            _fail(spec_id, "kind %r has no sweep axis %r (known: %s)"
                  % (kind, axis, ", ".join(axes_allowed) or "none"))
        sweep[axis] = _check_scalar_list(spec_id, "sweep.%s" % axis, values)

    # -- params -----------------------------------------------------------
    params = spec.setdefault("params", {})
    if not isinstance(params, dict):
        _fail(spec_id, "params must be a mapping")
    conflicts = sorted(set(params) & set(axes_allowed))
    if conflicts:
        _fail(spec_id, "conflicting sweep axes: %s given as both axis and "
              "param" % ", ".join(conflicts))
    try:
        json.dumps(params)
    except (TypeError, ValueError):
        _fail(spec_id, "params must be JSON-serialisable")
    if kind == "chaos":
        _check_chaos_params(spec_id, "params", params)

    # -- stacks / workloads ----------------------------------------------
    stacks = spec.get("stacks")
    symbol_axis = sweep.get("symbol", [])
    if stacks is None:
        stacks = sorted(set(symbol_axis)) if symbol_axis else []
        spec["stacks"] = stacks
    if not isinstance(stacks, list):
        _fail(spec_id, "stacks must be a list of Table-1 symbols")
    for symbol in list(stacks) + list(symbol_axis):
        _check_stack_symbol(spec_id, symbol)
    workloads = spec.setdefault("workloads", [])
    if not isinstance(workloads, list):
        _fail(spec_id, "workloads must be a list of Table-2 symbols")
    known_workloads = _workload_symbols()
    for symbol in workloads:
        if symbol not in known_workloads:
            _fail(spec_id, "unknown workload symbol %r (Table 2: %s)"
                  % (symbol, ", ".join(sorted(known_workloads))))

    # -- seeds ------------------------------------------------------------
    seeds = spec.setdefault("seeds", [1])
    if not isinstance(seeds, list) or not seeds:
        _fail(spec_id, "seeds must be a non-empty list of ints")
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool):
            _fail(spec_id, "bad seed %r: seeds must be ints" % (seed,))
    if len(set(seeds)) != len(seeds):
        _fail(spec_id, "seeds contain duplicates: %r" % (seeds,))

    # -- faults (chaos kind only) ----------------------------------------
    faults = spec.setdefault("faults", None)
    if faults is not None:
        if kind != "chaos":
            _fail(spec_id, "faults only apply to the chaos kind, not %r" % kind)
        if not isinstance(faults, dict):
            _fail(spec_id, "faults must be a ChaosConfig field mapping")
        unknown = sorted(set(faults) - set(_chaos_fields()))
        if unknown:
            _fail(spec_id, "unknown ChaosConfig fields in faults: %s"
                  % ", ".join(unknown))
        _check_chaos_values(spec_id, "faults", faults)

    # -- checks -----------------------------------------------------------
    checks = spec.setdefault("checks", [])
    if not isinstance(checks, list):
        _fail(spec_id, "checks must be a list")
    for index, check in enumerate(checks):
        _check_entry(spec_id, "checks[%d]" % index, check)

    # -- quick overrides --------------------------------------------------
    quick = spec.setdefault("quick", {})
    if not isinstance(quick, dict):
        _fail(spec_id, "quick must be a mapping")
    unknown = sorted(set(quick) - {"sweep", "params"})
    if unknown:
        _fail(spec_id, "unknown quick keys: %s" % ", ".join(unknown))
    quick_sweep = quick.setdefault("sweep", {})
    if not isinstance(quick_sweep, dict):
        _fail(spec_id, "quick.sweep must be a mapping")
    for axis, values in quick_sweep.items():
        if axis not in sweep:
            _fail(spec_id, "quick.sweep overrides unknown axis %r "
                  "(declared axes: %s)" % (axis, ", ".join(sweep) or "none"))
        quick_sweep[axis] = _check_scalar_list(
            spec_id, "quick.sweep.%s" % axis, values
        )
    for symbol in quick_sweep.get("symbol", []):
        _check_stack_symbol(spec_id, symbol)
    quick_params = quick.setdefault("params", {})
    if not isinstance(quick_params, dict):
        _fail(spec_id, "quick.params must be a mapping")
    conflicts = sorted(set(quick_params) & set(axes_allowed))
    if conflicts:
        _fail(spec_id, "conflicting sweep axes in quick.params: %s"
              % ", ".join(conflicts))
    if kind == "chaos":
        _check_chaos_params(spec_id, "quick.params", quick_params)

    return spec


def resolve_axes(spec, quick=False):
    """The effective ``(axes, params)`` view of a validated spec.

    With ``quick`` the spec's ``quick.sweep``/``quick.params`` overrides
    are merged on top — this is the single place quick-mode resolution
    happens, so the CLI, the runner and ``list --specs`` agree.
    """
    axes = {axis: list(values) for axis, values in spec["sweep"].items()}
    params = dict(spec["params"])
    if quick:
        for axis, values in spec["quick"]["sweep"].items():
            axes[axis] = list(values)
        params.update(spec["quick"]["params"])
    return axes, params

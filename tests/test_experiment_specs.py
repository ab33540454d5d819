"""Tests for the declarative experiment layer (repro.experiments).

Covers spec validation errors, registry discovery of the committed
spec files, the kind table (every kind's cell order and rows against
its row function called directly, params that do not fit), the check
grammar and evaluator, the unified run-record schema, and
spec-vs-row-function row/fingerprint equivalence for fig6a.
"""

import copy
import importlib
import inspect
import json

import pytest

from repro.experiments import (
    RECORD_SCHEMA,
    SPEC_SCHEMA,
    RecordError,
    SpecError,
    make_record,
    registry,
    rows_fingerprint,
    to_trend,
    validate_record,
    validate_spec,
)
from repro.experiments.compiler import KINDS, Sweep, compile_spec
from repro.experiments.runner import evaluate_checks, run_spec, state


def minimal_spec(**overrides):
    spec = {
        "id": "t1",
        "kind": "colocation",
        "sweep": {"symbol": ["K"], "n_fls": [1]},
        "params": {"duration": 3.0},
    }
    spec.update(overrides)
    return spec


# -- spec validation -------------------------------------------------------

def test_validate_fills_defaults():
    spec = validate_spec(minimal_spec())
    assert spec["schema"] == SPEC_SCHEMA == 2
    assert spec["cluster"] == {"osds": 6, "replicas": 1, "hosts": 1}
    assert spec["seeds"] == [1]
    assert spec["stacks"] == ["K"]  # derived from the symbol axis
    assert spec["quick"] == {"sweep": {}, "params": {}}


def test_validate_does_not_mutate_input():
    raw = minimal_spec()
    frozen = copy.deepcopy(raw)
    validate_spec(raw)
    assert raw == frozen


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError, match="unknown keys: swep"):
        validate_spec(minimal_spec(swep={}))


def test_unknown_kind_rejected():
    with pytest.raises(SpecError, match="unknown experiment kind"):
        validate_spec(minimal_spec(kind="colocashun"))


def test_unknown_stack_symbol_rejected():
    spec = minimal_spec(sweep={"symbol": ["K", "Q"], "n_fls": [1]})
    with pytest.raises(SpecError, match="unknown stack symbol 'Q'"):
        validate_spec(spec)


def test_unknown_stack_symbol_in_stacks_rejected():
    with pytest.raises(SpecError, match="unknown stack symbol"):
        validate_spec(minimal_spec(stacks=["K", "XX"]))


def test_unknown_workload_symbol_rejected():
    with pytest.raises(SpecError, match="unknown workload symbol 'NFS'"):
        validate_spec(minimal_spec(workloads=["FLS", "NFS"]))


def test_unknown_sweep_axis_rejected():
    spec = minimal_spec(sweep={"pools": [1]})
    with pytest.raises(SpecError, match="no sweep axis 'pools'"):
        validate_spec(spec)


def test_conflicting_sweep_axes_rejected():
    spec = minimal_spec(params={"n_fls": 2})
    with pytest.raises(SpecError, match="conflicting sweep axes: n_fls"):
        validate_spec(spec)


def test_conflicting_quick_params_rejected():
    spec = minimal_spec(quick={"params": {"symbol": "D"}})
    with pytest.raises(SpecError, match="conflicting sweep axes"):
        validate_spec(spec)


def test_quick_override_of_undeclared_axis_rejected():
    spec = minimal_spec(quick={"sweep": {"n_fls": [1], "symbol": ["K"]}})
    validate_spec(spec)  # both axes declared -> fine
    spec = minimal_spec(sweep={"symbol": ["K"]},
                        quick={"sweep": {"n_fls": [1]}})
    with pytest.raises(SpecError, match="overrides unknown axis 'n_fls'"):
        validate_spec(spec)


@pytest.mark.parametrize("seeds", [[], [1, 1], ["a"], [True], 7])
def test_bad_seed_lists_rejected(seeds):
    with pytest.raises(SpecError):
        validate_spec(minimal_spec(seeds=seeds))


def test_faults_only_for_chaos_kind():
    with pytest.raises(SpecError, match="faults only apply"):
        validate_spec(minimal_spec(faults={"bitrot": 1}))


def test_unknown_chaos_field_rejected():
    # A misspelt fault count, a testbed setting that is a constant, and
    # the rank-split count of a metadata service that has one rank.
    for faults in ({"bitrots": 2}, {"supervise": False},
                   {"mds_rank_splits": 1}):
        spec = {"id": "c1", "kind": "chaos", "faults": faults}
        with pytest.raises(SpecError, match="unknown ChaosConfig fields"):
            validate_spec(spec)


@pytest.mark.parametrize("where, values, message", [
    ("faults", {"mds_crashes": "1"}, "faults.mds_crashes must be an int"),
    ("faults", {"mds_standbys": -1}, "faults.mds_standbys must be an int"),
    ("faults", {"bitrot": True}, "faults.bitrot must be an int"),
    ("faults", {"osd_crashes": 1.0}, "faults.osd_crashes must be an int"),
    ("faults", {"scrub": "yes"}, "faults.scrub must be a bool"),
    ("faults", {"scrub": 1}, "faults.scrub must be a bool"),
    ("faults", {"duration": -2.0}, "faults.duration must be a number"),
    ("faults", {"duration": "2"}, "faults.duration must be a number"),
    ("faults", {"symbol": 4}, "faults.symbol must be a string"),
    ("params", {"duration": False}, "params.duration must be a number"),
    ("params", {"threads": "2"}, "params.threads must be an int"),
    ("quick", {"params": {"duration": "3"}},
     "quick.params.duration must be a number"),
    ("quick", {"params": {"bit_rot": 1}},
     "quick.params bit_rot are not ChaosConfig fields"),
])
def test_chaos_field_values_must_fit_their_types(where, values, message):
    spec = {"id": "c1", "kind": "chaos", where: values}
    with pytest.raises(SpecError, match=message):
        validate_spec(spec)


def test_bad_check_op_rejected():
    spec = minimal_spec(checks=[{"lhs": {"metric": "ok"}, "op": "~=",
                                 "rhs": 1}])
    with pytest.raises(SpecError, match="op '~='"):
        validate_spec(spec)


OK_TERM = {"metric": "ops", "where": {"symbol": "K"}}


@pytest.mark.parametrize("check, message", [
    ({"lhs": OK_TERM, "op": "<", "rhs": 1, "value": 1},
     r"checks\[0\] has unknown keys: value"),
    ({"lhs": OK_TERM, "op": "<"}, r"checks\[0\] needs rhs"),
    ({"lhs": OK_TERM, "op": "<", "rhs": {"ratio": [OK_TERM]}},
     r"checks\[0\].rhs.ratio must be a list of two terms"),
    ({"lhs": {"ratio": [OK_TERM, OK_TERM, OK_TERM]}, "op": "<", "rhs": 1},
     r"checks\[0\].lhs.ratio must be a list of two terms"),
    ({"lhs": OK_TERM, "op": "<", "rhs": 1, "expect": "xfail"},
     r"checks\[0\].expect 'xfail' not one of pass, fail"),
    ({"lhs": OK_TERM, "op": "<", "rhs": 1, "factor": "2"},
     r"checks\[0\].factor must be a number"),
    ({"lhs": "ops", "op": "<", "rhs": 1}, r"checks\[0\].lhs must be a number"),
    ({"lhs": {"metric": "ops", "filter": {}}, "op": "<", "rhs": 1},
     r"checks\[0\].lhs must be a number"),
    ({"lhs": {"metric": "ops", "where": ["K"]}, "op": "<", "rhs": 1},
     r"checks\[0\].lhs.where must be a mapping"),
])
def test_check_grammar_rejections(check, message):
    with pytest.raises(SpecError, match=message):
        validate_spec(minimal_spec(checks=[check]))


def test_check_defaults_filled():
    spec = validate_spec(minimal_spec(checks=[
        {"lhs": {"metric": "ops"}, "op": ">", "rhs": 0}]))
    assert spec["checks"] == [{
        "lhs": {"metric": "ops", "where": {}}, "op": ">", "rhs": 0,
        "factor": 1, "paper": "", "expect": "pass",
    }]


def test_replicas_cannot_exceed_osds():
    spec = minimal_spec(cluster={"osds": 2, "replicas": 3})
    with pytest.raises(SpecError, match="exceeds"):
        validate_spec(spec)


def test_wrong_schema_version_rejected():
    with pytest.raises(SpecError, match="schema"):
        validate_spec(minimal_spec(schema=99))


# -- registry --------------------------------------------------------------

LEGACY_NAMES = (
    "fig1", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig7c", "fig7d",
    "fig8", "fig9w", "fig9r", "fig10", "fig11a", "fig11b",
    "abl-locking", "abl-ipc",
)


def test_registry_covers_every_legacy_name():
    names = registry.names()
    for expected in LEGACY_NAMES:
        assert expected in names


def test_registry_specs_all_validate_and_compile():
    for name, spec in registry.discover().items():
        experiment = compile_spec(spec, quick=True, seed=spec["seeds"][0])
        assert experiment.experiment_id == name


def test_registry_get_unknown_name():
    with pytest.raises(SpecError, match="unknown experiment 'fig99'"):
        registry.get("fig99")


def test_env_path_shadows_committed_spec(tmp_path, monkeypatch):
    shadow = dict(registry.get("abl-ipc"))
    shadow["title"] = "shadowed"
    (tmp_path / "abl-ipc.json").write_text(json.dumps(shadow))
    monkeypatch.setenv("REPRO_EXPERIMENTS_PATH", str(tmp_path))
    assert registry.get("abl-ipc")["title"] == "shadowed"


def test_yaml_spec_without_pyyaml_is_gated(tmp_path, monkeypatch):
    (tmp_path / "y1.yaml").write_text("id: y1\nkind: ablation_ipc\n")
    import builtins

    real_import = builtins.__import__

    def no_yaml(name, *args, **kwargs):
        if name == "yaml":
            raise ImportError("no module named yaml")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_yaml)
    with pytest.raises(SpecError, match="PyYAML is not installed"):
        registry.load_spec_file(str(tmp_path / "y1.yaml"))


# -- compiler --------------------------------------------------------------

def named(name):
    """Resolve a ``"module:function"`` name from the kind table."""
    module, _colon, attr = name.partition(":")
    return getattr(importlib.import_module(module), attr)


def test_every_kind_has_a_builder_or_is_chaos():
    """Every kind but chaos names a row function that takes every
    argument of its nest, and fixes only axes the nest loops over."""
    for name, kind in KINDS.items():
        if name == "chaos":
            assert kind.row is None
            continue
        parameters = inspect.signature(named(kind.row)).parameters
        assert {arg for _axis, arg in kind.nest} <= set(parameters), name
        assert set(kind.fixed) <= {axis for axis, _arg in kind.nest}, name
        if kind.notes:
            assert callable(named(kind.notes)), name


def test_fig6a_compiles_to_legacy_constructor_state():
    spec = registry.get("fig6a")
    full = compile_spec(spec, quick=False, seed=1)
    assert type(full) is Sweep
    assert full.axes["symbol"] == ("K", "D")
    assert full.axes["n_fls"] == (1, 3)
    assert full.axes["neighbor"] == (None, "RND")
    assert full.params["duration"] == 3.0
    quick = compile_spec(spec, quick=True, seed=1)
    assert quick.axes["n_fls"] == (1,)
    assert quick.params["duration"] == 3.0
    # the neighbour became an axis; the seed lands in params
    assert quick.params == {"duration": 3.0, "seed": 1}


def test_fig7d_compiles_with_symbol_subset_and_id():
    spec = registry.get("fig7d")
    exp = compile_spec(spec, quick=False, seed=1)
    assert exp.axes["symbol"] == ("D", "F/F", "K/K")
    assert exp.params["mode"] == "get"
    assert exp.experiment_id == "fig7d"


def test_chaos_spec_lowers_cluster_onto_config():
    spec = registry.get("chaos-corruption")
    exp = compile_spec(spec, quick=False, seed=7)
    config = exp.config
    assert config.seed == 7
    assert config.replicas == 2
    assert config.num_osds == 6
    assert config.bitrot == 2
    assert config.torn_writes == 1
    assert config.scrub is True


def test_param_colliding_with_builder_keyword_fails_compile():
    spec = validate_spec(minimal_spec(params={"symbols": ["K"]}))
    with pytest.raises(SpecError, match="do not fit kind"):
        compile_spec(spec, seed=1)


#: One tiny inline spec per kind: (sweep, params). The shapes are the
#: shrunk ones the suite already runs elsewhere; durations <= 0.2 s.
TINY = {
    "colocation": ({"symbol": ["D"], "n_fls": [1]},
                   {"neighbor": "SSB", "duration": 0.1}),
    "rocksdb_scaleout": ({"symbol": ["D", "K"], "pools": [1]},
                         {"mode": "put"}),
    "rocksdb_scaleup": ({"symbol": ["D"], "clones": [1, 2]},
                        {"mode": "put", "pool_cores": 2}),
    "startup": ({"symbol": ["D", "K/K"], "containers": [1]},
                {"pool_cores": 2}),
    "sequential_scaleout": ({"symbol": ["D", "K"], "pools": [1]},
                            {"mode": "read", "duration": 0.1}),
    "fileserver_scaleout": ({"symbol": ["D"], "pools": [1]},
                            {"duration": 0.1}),
    "file_scaleup": ({"symbol": ["D", "K/K"], "clones": [1]},
                     {"mode": "read", "pool_cores": 2}),
    "pool_scaleup": ({"symbol": ["D"], "pools": [1, 2],
                      "clones_per_pool": [1]}, {"mode": "read"}),
    "serverless": ({"symbol": ["D"]}, {"n_tenants": 1, "duration": 0.1}),
    "ablation_locking": ({}, {"duration": 0.05, "threads": 2,
                              "pool_cores": 2}),
    "ablation_ipc": ({}, {"duration": 0.1, "threads": 2, "pool_cores": 4}),
    "ablation_dedup": ({}, {"n_containers": 2, "content_bytes": 65536}),
}


def tiny_spec(kind, **extra_params):
    sweep, params = TINY[kind]
    return validate_spec({
        "id": "t-%s" % kind.replace("_", "-"), "kind": kind, "sweep": sweep,
        "params": dict(params, **extra_params),
    })


def test_tiny_specs_cover_every_kind():
    assert set(TINY) == set(KINDS) - {"chaos"}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_sweep_cells_follow_the_nest_and_rows_equal_the_row_function(kind):
    """The cell order is the table's nest (outermost axis slowest) and
    each row is the row function called directly with the cell."""
    sweep = compile_spec(tiny_spec(kind), seed=3)
    nest = KINDS[kind].nest
    cells = sweep.cells()
    expected = [()]
    for axis, _arg in nest:
        expected = [done + (value,) for done in expected
                    for value in sweep.axes[axis]]
    assert [tuple(cell[arg] for _axis, arg in nest) for cell in cells] \
        == expected
    rows = sweep.collect([sweep.run_cell(cell) for cell in cells]).rows
    assert len(rows) == len(cells)
    row_fn = named(KINDS[kind].row)
    for cell, row in zip(cells, rows):
        assert json.dumps(row) == json.dumps(row_fn(**cell, **sweep.params))


@pytest.mark.parametrize("kind", sorted(TINY))
def test_params_that_do_not_fit_die_at_compile_time(kind):
    spec = tiny_spec(kind, duratoin=0.1)
    with pytest.raises(SpecError, match="spec %r: params do not fit kind %r"
                       % (spec["id"], kind)):
        compile_spec(spec, seed=1)


def test_param_naming_a_nest_argument_fails_compile():
    spec = tiny_spec("rocksdb_scaleout", n_pools=3)
    with pytest.raises(SpecError, match="do not fit kind"):
        compile_spec(spec, seed=1)


def test_missing_axis_or_required_param_fails_compile():
    no_mode = validate_spec({
        "id": "t1", "kind": "rocksdb_scaleout",
        "sweep": {"symbol": ["D"], "pools": [1]},
    })
    with pytest.raises(SpecError, match="do not fit kind.*mode"):
        compile_spec(no_mode, seed=1)
    no_axis = validate_spec({
        "id": "t1", "kind": "rocksdb_scaleout", "sweep": {"symbol": ["D"]},
        "params": {"mode": "put"},
    })
    with pytest.raises(SpecError, match="do not fit kind.*missing 'pools'"):
        compile_spec(no_axis, seed=1)
    with pytest.raises(SpecError, match="do not fit kind.*missing 'neighbor'"):
        compile_spec(validate_spec(minimal_spec()), seed=1)


def test_unknown_chaos_param_rejected_at_validation():
    spec = {"id": "c1", "kind": "chaos", "params": {"bit_rot": 1}}
    with pytest.raises(SpecError, match="not ChaosConfig fields"):
        validate_spec(spec)


# -- record schema ---------------------------------------------------------

def test_make_record_is_valid_and_stable():
    rows = [{"symbol": "K", "x": 1.0}, {"symbol": "D", "x": 2.0}]
    record = make_record("t1", title="t", rows=rows)
    assert record["schema"] == RECORD_SCHEMA
    validate_record(record)
    assert record["fingerprint"] == rows_fingerprint(rows)
    # key order in rows must not change the fingerprint
    flipped = [{"x": 1.0, "symbol": "K"}, {"x": 2.0, "symbol": "D"}]
    assert rows_fingerprint(flipped) == record["fingerprint"]


def test_validate_record_catches_drift():
    record = make_record("t1", rows=[{"a": 1}])
    bad = dict(record, extra_key=1)
    with pytest.raises(RecordError, match="unknown keys"):
        validate_record(bad)
    stale = dict(record)
    stale["rows"] = [{"a": 2}]
    with pytest.raises(RecordError, match="fingerprint"):
        validate_record(stale)
    old = dict(record, schema=1)
    with pytest.raises(RecordError, match="schema"):
        validate_record(old)
    missing = {k: v for k, v in record.items() if k != "notes"}
    with pytest.raises(RecordError, match="missing keys"):
        validate_record(missing)


def test_result_to_dict_emits_unified_record():
    from repro.bench.harness import ExperimentResult

    result = ExperimentResult("t1", "title", "expect")
    result.add_row(symbol="K", v=1.0)
    result.note("n")
    record = result.to_dict()
    validate_record(record)
    assert record["id"] == "t1"
    assert record["paper_expectation"] == "expect"
    assert record["rows"] == [{"symbol": "K", "v": 1.0}]


def test_to_trend_shape():
    records = [
        make_record("a", rows=[{"x": 1}], wall_s=1.5),
        make_record("b", rows=[{"x": 2}], wall_s=2.0),
    ]
    trend = to_trend(records)
    assert trend["schema"] == 1
    assert set(trend["scenarios"]) == {"a", "b"}
    assert trend["total_wall_s"] == 3.5
    assert trend["scenarios"]["a"]["fingerprint"] == records[0]["fingerprint"]


# -- checks ----------------------------------------------------------------

def checked(checks, rows, quick=False):
    """Evaluate ``checks`` against ``rows``; returns the verdicts."""
    from repro.bench.harness import ExperimentResult

    result = ExperimentResult("t1", "t")
    for row in rows:
        result.add_row(**row)
    return evaluate_checks(validate_spec(minimal_spec(checks=checks)), result,
                           quick=quick)


def ops(**where):
    return {"metric": "ops", "where": where}


def test_evaluate_checks_flags_violation_and_empty_match():
    verdicts = checked([
        {"lhs": ops(symbol="K"), "op": ">=", "rhs": 10},
        {"lhs": ops(symbol="Z"), "op": ">=", "rhs": 1},
    ], [{"symbol": "K", "ops": 5}])
    assert len(verdicts) == 2
    assert [verdict["ok"] for verdict in verdicts] == [False, False]
    assert any("no row matches" in verdict.get("reason", "")
               for verdict in verdicts)
    assert verdicts[0]["lhs"] == 5 and verdicts[0]["rhs"] == 10


def test_ratio_with_zero_denominator_is_inf():
    rows = [{"symbol": "K", "ops": 3}, {"symbol": "D", "ops": 0}]
    ratio = {"ratio": [ops(symbol="K"), ops(symbol="D")]}
    (verdict,) = checked([{"lhs": ratio, "op": ">", "rhs": 1e12}], rows)
    assert verdict["lhs"] == float("inf")
    assert verdict["ok"]


def test_factor_multiplies_rhs():
    rows = [{"symbol": "K", "ops": 30}, {"symbol": "D", "ops": 10}]
    holds, fails = checked([
        {"lhs": ops(symbol="K"), "op": ">", "rhs": ops(symbol="D"),
         "factor": 2},
        {"lhs": ops(symbol="K"), "op": ">", "rhs": ops(symbol="D"),
         "factor": 4},
    ], rows)
    assert holds["ok"] and (holds["lhs"], holds["rhs"]) == (30, 10)
    assert not fails["ok"]


def test_lhs_is_checked_on_every_matching_row():
    rows = [{"symbol": "K", "n": 1, "ops": 5},
            {"symbol": "K", "n": 3, "ops": 15}]
    low, high = checked([
        {"lhs": ops(symbol="K"), "op": ">=", "rhs": 4},
        {"lhs": ops(symbol="K"), "op": ">=", "rhs": 10},
    ], rows)
    assert low["ok"] and low["lhs"] == [5, 15]
    assert not high["ok"] and high["lhs"] == [5, 15]
    # The chaos presets' form: an empty filter covers every seed's row.
    (chaos,) = checked([{"lhs": {"metric": "ok"}, "op": "==", "rhs": True}],
                       [{"seed": 3, "ok": True}, {"seed": 7, "ok": False}])
    assert not chaos["ok"] and chaos["lhs"] == [True, False]


def test_rhs_row_term_must_match_exactly_one_row():
    rows = [{"symbol": "K", "n": 1, "ops": 5},
            {"symbol": "K", "n": 3, "ops": 15}]
    (verdict,) = checked(
        [{"lhs": 100, "op": ">", "rhs": ops(symbol="K")}], rows)
    assert not verdict["ok"]
    assert "2 rows match" in verdict["reason"]
    assert state(verdict) == "FAIL"


def test_unmatched_check_is_skipped_under_quick_only():
    check = {"lhs": ops(symbol="K", n=3), "op": ">", "rhs": ops(symbol="D")}
    rows = [{"symbol": "D", "ops": 1}, {"symbol": "K", "n": 1, "ops": 2}]
    (quick,) = checked([check], rows, quick=True)
    assert quick["skipped"] and quick["ok"]
    assert state(quick) == "skip"
    (full,) = checked([check], rows)
    assert not full["skipped"] and not full["ok"]
    assert "no row matches ops[symbol=K, n=3]" in full["reason"]


def test_expected_failure_is_strict():
    rows = [{"symbol": "K", "ops": 5}]
    gap, fixed = checked([
        {"lhs": ops(symbol="K"), "op": ">", "rhs": 10, "expect": "fail"},
        {"lhs": ops(symbol="K"), "op": ">", "rhs": 1, "expect": "fail"},
    ], rows)
    assert gap["ok"] and state(gap) == "xfail"
    # A known gap that starts to hold is a violation, like a strict xfail.
    assert not fixed["ok"] and state(fixed) == "XPASS"


def test_every_non_nightly_spec_states_a_check():
    specs = registry.discover()
    bare = [name for name, spec in specs.items()
            if "nightly" not in spec["tags"] and not spec["checks"]]
    assert not bare


def test_record_rejects_a_verdict_without_ok():
    record = make_record("t1", rows=[{"a": 1}], checks=[{"check": "x"}])
    with pytest.raises(RecordError, match="checks"):
        validate_record(record)


# -- ChaosConfig back-compat ----------------------------------------------

def test_chaos_config_from_dict_rejects_unknown_field():
    from repro.common.errors import ConfigError
    from repro.faults import ChaosConfig

    with pytest.raises(ConfigError, match="unknown ChaosConfig field"):
        ChaosConfig.from_dict({"bit_rot": 1})


def test_chaos_config_roundtrip():
    from repro.faults import ChaosConfig

    config = ChaosConfig.from_dict({"bitrot": 2}, seed=5)
    assert config.bitrot == 2 and config.seed == 5
    clone = ChaosConfig.from_dict(config.to_dict())
    assert clone == config


# -- spec vs direct row function calls -------------------------------------

def test_fig6a_spec_matches_legacy_closure_rows():
    """A colocation spec and direct ``run_colocation`` calls in the
    documented nest order (symbol -> n_fls -> neighbor) yield the same
    rows and fingerprint (fig6a's shape, shrunk to one symbol and a
    0.2 s run: the assertion is equivalence, not scale)."""
    from repro.bench import run_colocation

    direct = [
        run_colocation(symbol, n_fls, neighbor, duration=0.2, seed=1)
        for symbol in ("D",)
        for n_fls in (1,)
        for neighbor in (None, "RND")
    ]
    spec = validate_spec({
        "id": "t-coloc",
        "kind": "colocation",
        "sweep": {"symbol": ["D"], "n_fls": [1]},
        "params": {"neighbor": "RND", "duration": 0.2},
    })
    _result, record = run_spec(spec)
    assert record["rows"] == direct
    assert record["fingerprint"] == rows_fingerprint(direct)
    assert record["seeds"] == [1]


# -- --parallel fans cells, not only seeds ---------------------------------

#: fig8-, fig6a- and scaleup-wide-shaped tiny specs (the last with two
#: seeds): several cells each, a notes hook on the first two.
PARALLEL_SHAPES = {
    "fig8": {
        "id": "t-fig8", "kind": "startup",
        "sweep": {"symbol": ["D", "K/K"], "containers": [1, 2]},
        "params": {"pool_cores": 2},
    },
    "fig6a": {
        "id": "t-fig6a", "kind": "colocation",
        "sweep": {"symbol": ["K", "D"], "n_fls": [1]},
        "params": {"neighbor": "SSB", "duration": 0.05},
    },
    "scaleup-wide": {
        "id": "t-wide", "kind": "pool_scaleup",
        "sweep": {"symbol": ["D"], "pools": [1, 2], "clones_per_pool": [1]},
        "params": {"mode": "read"}, "seeds": [1, 2],
    },
}


@pytest.mark.parametrize("shape", sorted(PARALLEL_SHAPES))
def test_parallel_cells_merge_to_the_inline_record(shape):
    """Every (seed, cell) is its own forked task; rows merge in
    declaration order and the notes hook runs in the parent, so the
    record equals the inline one."""
    spec = validate_spec(PARALLEL_SHAPES[shape])
    _result, inline = run_spec(spec, parallel=1)
    _result, forked = run_spec(spec, parallel=2)
    assert json.dumps(forked["rows"]) == json.dumps(inline["rows"])
    assert forked["notes"] == inline["notes"]
    assert forked["fingerprint"] == inline["fingerprint"]
    assert "detail" not in inline
    partitions = forked["detail"]["partitions"]
    assert len(partitions) == len(inline["rows"]) > len(spec["seeds"])
    assert all(row["mode"] == "fork" for row in partitions)


# --- the spec matrix's fingerprint table -------------------------------------

def _spec_matrix():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "spec_matrix.py")
    module_spec = importlib.util.spec_from_file_location("spec_matrix", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def test_write_fingerprints_merges_and_names_the_changes(tmp_path, capsys):
    """``--write`` after a subset run keeps the entries of the specs
    that did not run and prints the ones that changed."""
    matrix = _spec_matrix()
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"quick": True, "fingerprints": {
        "fig1": "aaa", "fig6a": "bbb", "fig8": "ccc"}}))
    assert matrix.write_fingerprints(
        str(path), True, {"fig1": "aaa", "fig6a": "xxx", "new": "nnn"}) == 0
    assert json.loads(path.read_text()) == {"quick": True, "fingerprints": {
        "fig1": "aaa", "fig6a": "xxx", "fig8": "ccc", "new": "nnn"}}
    out = capsys.readouterr().out
    assert "CHANGED fig6a: bbb -> xxx" in out
    assert "CHANGED new: (no entry) -> nnn" in out
    assert "fig1" not in out and "fig8" not in out
    assert "(2 changed, 1 kept)" in out
    # A table recorded at the other size is never mixed into.
    assert matrix.write_fingerprints(str(path), False, {"fig1": "zzz"}) == 1
    assert json.loads(path.read_text())["fingerprints"]["fig1"] == "aaa"

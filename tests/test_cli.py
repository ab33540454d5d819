"""Tests for the command-line interface."""

import pytest

from repro.cli import experiment_names, main


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig6a" in out
    assert "FLS" in out
    assert "D, K, F" in out


def test_list_specs_dumps_resolved_specs(capsys):
    import json

    assert main(["list", "--specs"]) == 0
    specs = json.loads(capsys.readouterr().out)
    assert "fig6a" in specs
    assert specs["fig6a"]["kind"] == "colocation"
    assert specs["fig6a"]["sweep"]["symbol"] == ["K", "D"]
    assert specs["chaos-corruption"]["faults"]["bitrot"] == 2


def test_run_all_excludes_nightly_specs():
    from repro.experiments import registry

    specs = registry.discover()
    nightly = [n for n, s in specs.items() if "nightly" in s["tags"]]
    assert "chaos-corruption" in nightly and "chaos-churn" in nightly


def test_experiment_names_cover_every_figure():
    names = experiment_names()
    for expected in ("fig1", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b",
                     "fig7c", "fig7d", "fig8", "fig9w", "fig9r", "fig10",
                     "fig11a", "fig11b", "abl-locking", "abl-ipc"):
        assert expected in names


def test_run_unknown_experiment_errors(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_run_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.slow
def test_run_quick_fig11a(capsys):
    assert main(["run", "fig11a", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "fig11a" in out
    assert "timespan_s" in out


def test_chart_for_picks_primary_metric():
    from repro.bench.harness import ExperimentResult
    from repro.cli import _chart_for

    result = ExperimentResult("x", "t")
    result.add_row(symbol="K", neighbor="-", fls_ops_per_sec=22171.0)
    result.add_row(symbol="D", neighbor="-", fls_ops_per_sec=7243.0)
    chart = _chart_for(result)
    assert chart.startswith("fls_ops_per_sec:")
    assert "█" in chart
    assert "K" in chart and "D" in chart


def test_chart_for_handles_unchartable_results():
    from repro.bench.harness import ExperimentResult
    from repro.cli import _chart_for

    empty = ExperimentResult("x", "t")
    assert _chart_for(empty) is None
    no_metric = ExperimentResult("y", "t")
    no_metric.add_row(symbol="K", note="text only")
    assert _chart_for(no_metric) is None


def _dedup_spec(spec_id, checks):
    return {
        "id": spec_id, "kind": "ablation_dedup",
        "params": {"n_containers": 2, "content_bytes": 65536},
        "checks": checks,
    }


def test_run_exits_nonzero_on_a_violated_check(tmp_path, monkeypatch, capsys):
    import json

    containers = {"metric": "containers", "where": {"dedup": "on"}}
    (tmp_path / "t-good.json").write_text(json.dumps(_dedup_spec("t-good", [
        {"lhs": containers, "op": "==", "rhs": 2},
        {"lhs": containers, "op": "==", "rhs": 3, "expect": "fail"},
    ])))
    (tmp_path / "t-bad.json").write_text(json.dumps(_dedup_spec("t-bad", [
        {"lhs": containers, "op": "==", "rhs": 3},
        {"lhs": containers, "op": "==", "rhs": 2, "expect": "fail"},
    ])))
    monkeypatch.setenv("REPRO_EXPERIMENTS_PATH", str(tmp_path))
    assert main(["run", "t-good"]) == 0
    out = capsys.readouterr().out
    assert "check: pass " in out and "check: xfail" in out
    assert main(["run", "t-bad"]) == 1
    out = capsys.readouterr().out
    assert "check: FAIL  containers[dedup=on] == 3  (2 == 3)" in out
    assert "check: XPASS containers[dedup=on] == 2" in out

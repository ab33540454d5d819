"""Unit tests for the experiment harness and the workload registry."""

import pytest

from repro.bench import COMPOSITES, WORKLOADS, describe, workload_class
from repro.bench.harness import ExperimentResult
from repro.workloads import Fileserver


def test_result_rows_and_columns():
    result = ExperimentResult("x", "test")
    result.add_row(symbol="D", value=1.0)
    result.add_row(symbol="K", value=2.0)
    assert result.column("value") == [1.0, 2.0]
    assert result.rows_where(symbol="K")[0]["value"] == 2.0


def test_result_value_unique_match():
    result = ExperimentResult("x", "test")
    result.add_row(symbol="D", n=1, value=1.0)
    result.add_row(symbol="D", n=2, value=2.0)
    assert result.value("value", symbol="D", n=2) == 2.0
    with pytest.raises(KeyError):
        result.value("value", symbol="D")  # ambiguous
    with pytest.raises(KeyError):
        result.value("value", symbol="Z")  # no match


def test_result_table_renders_all_columns():
    result = ExperimentResult("x", "test")
    result.add_row(a=1, b="hi")
    result.add_row(a=2, c=3.14159)
    table = result.table()
    assert "a" in table and "b" in table and "c" in table
    assert "3.14" in table


def test_result_report_includes_expectation_and_notes():
    result = ExperimentResult("figX", "demo", paper_expectation="D wins")
    result.add_row(v=1)
    result.note("extra context")
    report = result.report()
    assert "figX" in report
    assert "D wins" in report
    assert "extra context" in report


def test_empty_result_table():
    assert ExperimentResult("x", "t").table() == "(no rows)"


def test_registry_has_all_table2_symbols():
    for symbol in ("FLS", "RND", "SSB", "WBS"):
        assert symbol in WORKLOADS
    assert "X+Y" in COMPOSITES


def test_registry_lookup():
    assert "Fileserver" in describe("FLS")
    assert workload_class("FLS") is Fileserver
    assert "next to" in describe("X+Y")


# -- bugfix: a finished world is released before the row comes back --------


def _run_sequential_cell():
    from repro.bench.sequential import run_sequential
    return run_sequential("D", 1, "read", duration=0.1, seed=1)


def _run_colocation_cell():
    from repro.bench.isolation import run_colocation
    return run_colocation("K", 1, neighbor="RND", duration=0.05, seed=1)


def _run_chaos_cell():
    from repro.faults import ChaosConfig
    return ChaosConfig(seed=7, duration=0.3, osd_crashes=0, partitions=0,
                       service_crashes=0).run()


@pytest.mark.parametrize(
    "cell", [_run_sequential_cell, _run_colocation_cell, _run_chaos_cell])
def test_row_entry_point_releases_its_world(cell, monkeypatch):
    """The world is cyclic garbage; with the collector off it used to
    outlive the call, so the next cell was built beside it."""
    import gc
    import weakref

    from repro.world import World

    built = []
    init = World.__init__

    def noting_init(world, *args, **kwargs):
        init(world, *args, **kwargs)
        built.append(weakref.ref(world))

    monkeypatch.setattr(World, "__init__", noting_init)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cell()
        assert len(built) == 1 and built[0]() is None
    finally:
        if was_enabled:
            gc.enable()


# -- bugfix: a row does not depend on what ran earlier in the process ------


def test_row_is_independent_of_tasks_made_earlier_in_the_process():
    """``start_lighttpd`` writes its pid into the pid file, so the copy
    cost follows the pid's digit count; with one process-global pid
    counter every Task ever made moved ``real_time_s``. Each world now
    numbers its own tasks."""
    from repro.bench.startup import run_startup
    from repro.common import units
    from repro.world import World

    first = run_startup("D", 1, pool_cores=2)
    world = World(num_cores=2, ram_bytes=units.gib(1))
    for index in range(2000):
        world.host_task("t%d" % index)
    assert run_startup("D", 1, pool_cores=2) == first

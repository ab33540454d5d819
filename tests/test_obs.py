"""Tests for ``repro.obs``: spans, registries, profiles, exporters."""

import json

from repro import obs
from repro.common import units
from repro.obs import Observer
from repro.sim import Simulator, SimThread
from repro.sim.cpu import Core
from repro.stacks import StackFactory
from repro.world import World
from tests.conftest import run


def make_observed_world(categories=None):
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.primary.activate_cores(4)
    world.observe(categories=categories)
    return world


def run_workload(world, symbol, data=b"x" * 65536):
    pool = world.primary.engine.create_pool(
        "p", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = StackFactory(world, pool, symbol).mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", data, sync=True)
        yield from mount.fs.read_file(task, "/f")

    run(world.sim, proc())
    return world.sim.observer


# -- spans ------------------------------------------------------------------


def test_span_timing_rides_the_sim_clock():
    sim = Simulator()
    obs_ = Observer(sim=sim)
    sim.observer = obs_
    core = Core(sim, 0)
    thread = SimThread(sim, "t0", [core])

    def proc():
        span = obs_.span(thread, "outer", "test")
        yield sim.timeout(1.0)
        span.end()

    run(sim, proc())
    (span,) = obs_.spans
    assert span.name == "outer"
    assert abs(span.duration - 1.0) < 1e-9
    assert span.t0 == 0.0 and span.t1 == 1.0


def test_span_nesting_records_parents_and_self_cpu():
    sim = Simulator()
    obs_ = Observer(sim=sim)
    sim.observer = obs_
    core = Core(sim, 0)
    thread = SimThread(sim, "t0", [core])

    def proc():
        with obs_.span(thread, "outer", "test"):
            yield from thread.run(0.002)
            with obs_.span(thread, "inner", "test"):
                yield from thread.run(0.003)

    run(sim, proc())
    spans = {span.name: span for span in obs_.spans}
    inner, outer = spans["inner"], spans["outer"]
    assert inner.parent is outer
    assert inner.path == ("outer", "inner")
    assert abs(inner.cpu - 0.003) < 1e-9
    assert abs(outer.cpu - 0.005) < 1e-9
    assert abs(outer.self_cpu - 0.002) < 1e-9  # child CPU subtracted


def test_spans_emitted_by_instrumented_layers():
    observer = run_workload(make_observed_world(), "D")
    names = {span.name for span in observer.spans}
    assert "ipc.submit" in names
    assert "svc.handle" in names
    assert "client.write" in names
    # Nesting across layers: the service handler parents the client span.
    client_spans = [s for s in observer.spans if s.name == "client.write"]
    assert any(
        s.parent is not None and s.parent.name == "svc.handle"
        for s in client_spans
    )


def test_fuse_and_vfs_spans_on_kernel_paths():
    observer = run_workload(make_observed_world(), "F")
    names = {span.name for span in observer.spans}
    assert "fuse.call" in names
    assert "vfs.write" in names


# -- registries ----------------------------------------------------------------


def test_metric_registry_get_or_create():
    sim = Simulator()
    registry = sim.metrics("pool0")
    assert sim.metrics("pool0") is registry
    counter = registry.counter("ops")
    counter.add(2)
    assert registry.counter("ops") is counter
    assert registry.counter("ops").value == 2
    assert sim.metrics("pool1") is not registry
    assert sim.scopes() == ["pool0", "pool1"]
    # The observer's registries are views of the simulator's.
    observer = Observer(sim)
    assert observer.metrics("pool0") is registry
    assert observer.scopes() == ["pool0", "pool1"]


def test_late_attach_sees_counters_written_before_it():
    """Counters do not wait for an observer: one attached after a CRUSH
    change and after integrity armed still shows both in its tables."""
    world = World(num_cores=4, ram_bytes=units.gib(4))
    world.cluster.enable_integrity()
    world.cluster.add_osd()
    merged = obs.merge_profiles([world.observe()])
    recovery = {(row["scope"], row["metric"]): row["value"]
                for row in merged["recovery"]}
    assert recovery == {("monitor", "epoch_bumps"): 1,
                        ("monitor", "map_epoch"): 2}
    integrity = {row["metric"]: row["value"] for row in merged["integrity"]}
    assert integrity == {
        "checksum_failures": 0, "quarantined": 0, "read_repairs": 0,
    }


# -- profiles -------------------------------------------------------------------


def test_cpu_attribution_and_lock_table():
    world = make_observed_world()
    observer = run_workload(world, "K")
    profile = observer.cpu_profile()
    assert profile, "expected per-core CPU attribution"
    threads = {name for per in profile.values() for name in per}
    assert any(name.startswith("p.") for name in threads)
    table = observer.lock_table()
    classes = {row["lock_class"] for row in table}
    assert "i_mutex_key" in classes
    imutex = [row for row in table if row["lock_class"] == "i_mutex_key"]
    assert any(row["pool"] == "p" for row in imutex)
    assert all(row["acquisitions"] > 0 for row in imutex)


def test_lock_table_attributes_client_lock_per_pool():
    world = make_observed_world()
    observer = run_workload(world, "D")
    table = observer.lock_table()
    client_rows = [r for r in table if r["lock_class"] == "client_lock"]
    assert client_rows and client_rows[0]["pool"] == "p"


def test_timelines_record_queue_depth_and_dirty_bytes():
    observer = run_workload(make_observed_world(), "D")
    qdepth = [name for name in observer.timelines()
              if name.startswith("qdepth:")]
    assert qdepth
    series = observer.timeline(qdepth[0])
    assert series and all(isinstance(t, float) for t, _v in series)


# -- exporters -------------------------------------------------------------------


def test_chrome_trace_round_trip(tmp_path):
    observer = run_workload(make_observed_world(), "D")
    path = tmp_path / "trace.json"
    count = observer.write_chrome_trace(str(path))
    trace = json.loads(path.read_text())
    assert len(trace["traceEvents"]) == count
    spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
    assert spans
    for event in spans[:50]:
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["dur"] >= 0
    metas = [ev for ev in trace["traceEvents"] if ev["ph"] == "M"]
    assert any(ev["name"] == "thread_name" for ev in metas)


def test_fold_output_shape():
    observer = run_workload(make_observed_world(), "D")
    fold = observer.fold()
    assert fold
    for line in fold:
        path, _space, value = line.rpartition(" ")
        assert path and int(value) >= 0
    assert any(";" in line for line in fold)  # nested stacks present


def test_merge_profiles_tags_worlds():
    first = run_workload(make_observed_world(), "D")
    second = run_workload(make_observed_world(), "K")
    merged = obs.merge_profiles([first, second])
    worlds = {row["world"] for row in merged["lock_contention"]}
    assert worlds == {"w0", "w1"}
    classes = {row["lock_class"] for row in merged["lock_contention"]}
    assert "client_lock" in classes and "i_mutex_key" in classes
    # One report key per table with a row source, in spec order.
    sourced = [table.key for table in obs.TABLES if table.source is not None]
    assert [key for key in merged if key in sourced] == sourced


# -- table spec ------------------------------------------------------------------


def test_every_profile_table_renders():
    for table in obs.TABLES:
        assert obs.format_table(table.key, []) == table.empty
        headers = [header for header, _key, _fmt in table.columns]
        text = obs.format_table(table.key, [{"world": "w3"}])
        first, rule, body = text.split("\n")
        assert first.split() == ["world"] + " ".join(headers).split()
        assert set(rule.replace(" ", "")) == {"-"}
        # Unset cells print "-", under the world tag.
        assert body.split()[0] == "w3"
        assert set(body.split()[1:]) == {"-"}
        if table.limit is not None:
            limit, noun = table.limit
            rows = [{"world": "w%d" % index} for index in range(limit + 3)]
            lines = obs.format_table(table.key, rows).split("\n")
            assert len(lines) == 2 + limit + 1
            assert lines[-1] == "(+3 more %s)" % noun


def test_lock_table_formats_its_columns():
    row = {"pool": "p", "lock_class": "client_lock", "acquisitions": 4,
           "contended": 1, "total_wait_s": 0.0025, "total_hold_s": 0.001,
           "avg_wait_us": 625.0, "max_wait_us": 2500.0}
    lines = obs.format_table("lock_contention", [row]).split("\n")
    assert lines[2].split() == [
        "p", "client_lock", "4", "1", "2.500", "1.000", "625.00", "2500.00",
    ]


# -- zero overhead when detached -------------------------------------------------


def test_observing_with_no_categories_leaves_the_schedule_alone(monkeypatch):
    """docs/observability.md: an attached observer only records; the run
    schedules exactly the entries a detached one does."""
    from repro.bench import isolation

    worlds = []

    class RecordedWorld(World):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    monkeypatch.setattr(isolation, "World", RecordedWorld)

    def cell():
        return isolation.run_colocation("K", 1, neighbor="RND",
                                        duration=0.05, seed=3)

    detached = cell()
    obs.reset_attached()
    obs.set_default(categories=())
    try:
        observed = cell()
    finally:
        obs.clear_default()
        obs.reset_attached()
    plain, watched = (world.sim for world in worlds)
    assert plain.observer is None and watched.observer is not None
    assert watched.observer.spans  # it did observe
    assert observed == detached
    assert (watched.now, watched._seq) == (plain.now, plain._seq)


# -- no-op path ----------------------------------------------------------------


def test_no_observer_means_no_recording():
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.primary.activate_cores(4)
    assert world.sim.observer is None
    run_workload(world, "D")
    # Locks still register (creation-time, always on) but nothing records.
    assert world.sim.observer is None


def test_default_spec_auto_attaches_new_worlds():
    obs.reset_attached()
    obs.set_default(categories={"wb"})
    try:
        world = World(num_cores=4, ram_bytes=units.gib(4))
        assert world.sim.observer is not None
        assert world.sim.observer.categories == {"wb"}
        assert obs.attached() == [world.sim.observer]
    finally:
        obs.clear_default()
        obs.reset_attached()
    later = World(num_cores=4, ram_bytes=units.gib(4))
    assert later.sim.observer is None

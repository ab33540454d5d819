"""Tests for the event-trace surface of the observability subsystem.

Worlds attach through ``World.observe(...)`` (the ``repro.obs`` entry
point); a bare :class:`~repro.obs.Observer` installed as ``sim.tracer``
is the events-only sink, including its ring-buffer semantics.
"""

import json

from repro.common import units
from repro.obs import Observer
from repro.stacks import StackFactory
from repro.world import World
from tests.conftest import run


def make_traced_world(categories=None):
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.activate_cores(4)
    world.observe(categories=categories)
    return world


def test_tracer_records_ipc_and_client_events():
    world = make_traced_world()
    pool = world.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "D").mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", b"traced", sync=True)
        yield from mount.fs.read_file(task, "/f")

    run(world.sim, proc())
    tracer = world.sim.tracer
    assert tracer.events("ipc", "submit")
    assert tracer.events("client", "flush")
    summary = dict(tracer.summary())
    assert summary[("ipc", "submit")] >= 4  # open/write/fsync/close/read...


def test_tracer_category_filter():
    world = make_traced_world(categories={"client"})
    pool = world.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "D").mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", b"x", sync=True)

    run(world.sim, proc())
    tracer = world.sim.tracer
    assert tracer.events("client")
    assert not tracer.events("ipc")


def test_tracer_records_fuse_calls():
    world = make_traced_world(categories={"fuse"})
    pool = world.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "F").mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", b"x")

    run(world.sim, proc())
    ops = [e.detail["op"] for e in world.sim.tracer.events("fuse", "call")]
    assert "open" in ops and "write" in ops


def test_tracer_records_monitor_events():
    world = make_traced_world(categories={"mon"})
    world.cluster.monitor.mark_down(0)
    events = world.sim.tracer.events("mon", "osd_down")
    assert events and events[0].detail["osd"] == 0


def test_observe_returns_the_attached_observer():
    world = World(num_cores=4, ram_bytes=units.gib(4))
    observer = world.observe(categories={"wb"})
    assert world.sim.tracer is observer
    assert world.sim.observer is observer
    assert world.observer is observer


def test_manual_tracer_attachment_still_works():
    # Installed as sim.tracer only: events, no span/profile machinery.
    world = World(num_cores=4, ram_bytes=units.gib(4))
    world.sim.tracer = Observer(categories={"x"})
    world.sim.trace("x", "e", value=1)
    assert world.sim.observer is None
    assert len(world.sim.tracer.records) == 1


def test_tracer_ring_buffer_keeps_most_recent():
    tracer = Observer(capacity=2)
    for index in range(5):
        tracer.emit(float(index), "x", "e", i=index)
    assert len(tracer.records) == 2
    assert tracer.dropped == 3
    # Ring semantics: the *newest* window survives, not the oldest.
    assert [event.detail["i"] for event in tracer.records] == [3, 4]
    summary = dict(tracer.summary())
    assert summary[("trace", "dropped")] == 3


def test_tracer_jsonl_dump(tmp_path):
    tracer = Observer()
    tracer.emit(1.5, "cat", "name", value=42)
    out = tmp_path / "trace.jsonl"
    count = tracer.to_jsonl(str(out))
    assert count == 1
    record = json.loads(out.read_text().strip())
    assert record == {"t": 1.5, "cat": "cat", "name": "name", "value": 42}


def test_no_tracer_is_noop():
    world = World(num_cores=4, ram_bytes=units.gib(4))
    world.sim.trace("anything", "goes", x=1)  # must not raise

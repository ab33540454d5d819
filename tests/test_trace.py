"""Tests for the event-trace surface of the observability subsystem.

Worlds attach through ``World.observe(...)`` (the ``repro.obs`` entry
point), and ``sim.observer`` is the one handle ``sim.trace`` emits
through; a bare :class:`~repro.obs.Observer` on a simulator shows the
ring-buffer semantics.
"""

from repro.common import units
from repro.obs import Observer
from repro.sim import Simulator
from repro.stacks import StackFactory
from repro.world import World
from tests.conftest import run


def make_traced_world(categories=None):
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.primary.activate_cores(4)
    world.observe(categories=categories)
    return world


def test_tracer_records_ipc_and_client_events():
    world = make_traced_world()
    pool = world.primary.engine.create_pool(
        "p", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = StackFactory(pool, "D").mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", b"traced", sync=True)
        yield from mount.fs.read_file(task, "/f")

    run(world.sim, proc())
    observer = world.sim.observer
    assert observer.events("ipc", "submit")
    assert observer.events("client", "flush")
    summary = dict(observer.summary())
    assert summary[("ipc", "submit")] >= 4  # open/write/fsync/close/read...


def test_tracer_category_filter():
    world = make_traced_world(categories={"client"})
    pool = world.primary.engine.create_pool(
        "p", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = StackFactory(pool, "D").mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", b"x", sync=True)

    run(world.sim, proc())
    observer = world.sim.observer
    assert observer.events("client")
    assert not observer.events("ipc")


def test_tracer_records_fuse_calls():
    world = make_traced_world(categories={"fuse"})
    pool = world.primary.engine.create_pool(
        "p", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = StackFactory(pool, "F").mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", b"x")

    run(world.sim, proc())
    ops = [e.detail["op"] for e in world.sim.observer.events("fuse", "call")]
    assert "open" in ops and "write" in ops


def test_tracer_records_monitor_events():
    world = make_traced_world(categories={"mon"})
    world.cluster.monitor.mark_down(0)
    events = world.sim.observer.events("mon", "osd_down")
    assert events and events[0].detail["osd"] == 0


def test_observe_returns_the_attached_observer():
    world = World(num_cores=4, ram_bytes=units.gib(4))
    observer = world.observe(categories={"wb"})
    assert world.sim.observer is observer
    # One handle: no second attribute on the simulator or the world.
    assert not hasattr(world.sim, "tracer")
    assert not hasattr(world, "observer")
    world.sim.trace("wb", "e", value=1)
    assert len(observer.records) == 1


def test_tracer_ring_buffer_keeps_most_recent():
    tracer = Observer(Simulator(), capacity=2)
    for index in range(5):
        tracer.emit(float(index), "x", "e", i=index)
    assert len(tracer.records) == 2
    assert tracer.dropped == 3
    # Ring semantics: the *newest* window survives, not the oldest.
    assert [event.detail["i"] for event in tracer.records] == [3, 4]
    summary = dict(tracer.summary())
    assert summary[("trace", "dropped")] == 3


def test_no_tracer_is_noop():
    world = World(num_cores=4, ram_bytes=units.gib(4))
    world.sim.trace("anything", "goes", x=1)  # must not raise

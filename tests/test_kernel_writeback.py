"""Unit tests for the writeback daemon and the kernel workqueue."""

import pytest

from repro.common import units
from repro.costs import CostModel
from repro.hw import Machine, RamDisk
from repro.kernel import HostKernel, LocalFs
from repro.kernel.host import Workqueue
from repro.sim import UtilizationProbe
from tests.conftest import make_task, run


def test_flushers_steal_any_activated_core(sim):
    """Flusher work lands on cores outside the writer's cpuset."""
    machine = Machine(sim, num_cores=4, ram_bytes=units.gib(4))
    machine.activate_cores(4)
    kernel = HostKernel(sim, machine, costs=CostModel(
        writeback_interval=0.05, expire_interval=0.1,
    ))
    fs = LocalFs(kernel, RamDisk(sim), name="wb")
    writer_cores = machine.cores[:2]
    neighbor_cores = machine.cores[2:4]
    task = make_task(sim, machine, cores=writer_cores)
    probe = UtilizationProbe(sim, neighbor_cores)

    def proc():
        for index in range(20):
            yield from fs.write_file(
                task, "/f%d" % index, b"w" * units.kib(256)
            )
            yield sim.timeout(0.02)

    run(sim, proc(), until=100)
    sim.run(until=sim.now + 5)
    assert kernel.writeback.metrics.counter("wb.pages_flushed").value > 0
    # Some flusher CPU executed on the neighbour cores.
    neighbor_busy = sum(core.busy_time for core in neighbor_cores)
    assert neighbor_busy > 0


def test_dirty_throttling_blocks_writers(sim, machine):
    costs = CostModel(writeback_interval=0.5, expire_interval=5.0)
    kernel = HostKernel(sim, machine, costs=costs)
    # Back the fs with a very slow device so flushing cannot keep up.
    from repro.hw import Disk

    slow = Disk(sim, bandwidth=units.mib(1), seq_position_time=0)
    fs = LocalFs(kernel, slow, name="slow")
    account = machine.ram.child(units.mib(64), "w.ram")

    class FakePool:
        ram = account

    kernel.writeback.set_max_dirty(account, units.kib(256))
    task = make_task(sim, machine)
    task.pool = FakePool()

    def proc():
        start = sim.now
        yield from fs.write_file(task, "/f", b"x" * units.mib(1))
        return sim.now - start

    elapsed = run(sim, proc(), until=3000)
    # 1 MiB at a 256 KiB dirty cap over a 1 MiB/s device: the writer must
    # have spent most of the time throttled behind the flusher.
    assert elapsed > 0.5
    assert kernel.writeback.metrics.counter("wb.throttle_waits").value > 0


def test_fsync_uses_caller_not_flushers(sim, machine, kernel):
    fs = LocalFs(kernel, RamDisk(sim), name="sync")
    task = make_task(sim, machine)

    def proc():
        from repro.fs.api import OpenFlags

        handle = yield from fs.open(task, "/f", OpenFlags.CREAT | OpenFlags.RDWR)
        yield from fs.write(task, handle, 0, b"d" * units.kib(64))
        before = kernel.writeback.metrics.counter("wb.pages_flushed").value
        yield from fs.fsync(task, handle)
        yield from fs.close(task, handle)
        return before

    run(sim, proc(), until=0.9)  # before the 1 s writeback interval
    assert kernel.page_cache.dirty_bytes == 0


def test_workqueue_executes_and_counts(sim, machine):
    costs = CostModel()
    wq = Workqueue(sim, machine, costs)

    def proc():
        start = sim.now
        yield from wq.execute(0.01)
        return sim.now - start

    elapsed = run(sim, proc())
    assert elapsed >= 0.01
    assert wq.items_done == 1


def test_workqueue_zero_work_is_free(sim, machine):
    wq = Workqueue(sim, machine, CostModel())

    def proc():
        yield from wq.execute(0)
        return sim.now

    assert run(sim, proc()) == 0
    assert wq.items_done == 0


def test_workqueue_parallelism_bounded_by_workers(sim, machine):
    costs = CostModel(nr_kworkers=2)
    wq = Workqueue(sim, machine, costs)
    finish = []

    def proc():
        yield from wq.execute(0.01)
        finish.append(sim.now)

    for _ in range(4):
        sim.spawn(proc())
    sim.run(until=10)
    assert len(finish) == 4
    # 4 items of 10ms across 2 workers: about two waves.
    assert max(finish) == pytest.approx(0.02, rel=0.3)


def test_workqueue_follows_activation(sim):
    machine = Machine(sim, num_cores=8, ram_bytes=units.gib(4))
    machine.activate_cores(8)
    wq = Workqueue(sim, machine, CostModel())
    machine.activate_cores(2)

    def proc():
        yield from wq.execute(0.05)

    run(sim, proc())
    busy_outside = sum(core.busy_time for core in machine.cores[2:])
    assert busy_outside == pytest.approx(0.0, abs=1e-9)


def test_idle_flushers_do_not_accumulate_kick_events(sim, machine, kernel):
    """Each flusher keeps at most its one pending kick, however long the
    host idles (one dead event per flusher per interval used to pile up
    for the next ``_kick()`` to walk)."""
    flushers = kernel.costs.nr_flushers
    for deadline in (1.5, 10.5, 100.5):
        sim.run(until=deadline)
        assert len(kernel.writeback._kick_events) <= flushers


def test_a_round_with_nothing_dirty_takes_no_lock_and_no_cpu(sim, machine,
                                                           kernel):
    """Flushers of a host with a clean page cache wake and go back to
    sleep: no ``wb_list_lock`` acquisition, no core time. Once a page is
    dirty, the next round scans under the lock again."""
    wb_lock = kernel.locks.get("wb_list_lock")
    interval = kernel.costs.writeback_interval
    sim.run(until=3.5 * interval)
    assert wb_lock.stats.acquisitions == 0
    assert sum(core.busy_time for core in machine.cores) == 0.0
    fs = LocalFs(kernel, RamDisk(sim), name="dirty")
    run(sim, fs.write_file(make_task(sim, machine), "/f", b"d" * units.kib(8)))
    sim.run(until=sim.now + interval)
    assert wb_lock.stats.acquisitions > 0

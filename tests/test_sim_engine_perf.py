"""Scheduler determinism and regression tests for the fast-path engine.

The engine's hot path was reworked from a single heap of lambda
closures into a two-tier scheduler (FIFO now-queue + time heap with
tuple-dispatched entries). The acceptance bar for that rework is
*byte-identical scheduling*: the golden fingerprints pinned here were
captured from the original pre-optimization engine, so any reordering
of same-timestamp callbacks — however subtle — fails these tests.

The remaining tests pin the three scheduling bugfixes that rode along:

* ``Process._step`` used to discard the generator's response to a
  bad-yield ``throw()`` (a generator that caught the error hung; one
  that returned leaked ``StopIteration``);
* ``Simulator.run_until`` left ``self.now`` stale when the deadline
  passed between queued events;
* ``AnyOf``/``AllOf`` losers kept their result callbacks forever (a
  leak) and a loser *failing* after the race was silently swallowed.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim import (
    Core, Interrupt, Mutex, Semaphore, SimThread, Simulator, Store,
)
from repro.sim.bench import schedule_fingerprint

#: (scenario, kwargs) -> (fingerprint, final_time) captured from the
#: seed engine before the two-tier scheduler landed. Do not update these
#: without re-deriving them from a known-good scheduler: equality proves
#: the fast path preserves the exact event schedule.
GOLDEN = {
    ("torture", 1): ("fb445083c241dfb603621d18bc024eba", 0.2690000000000002),
    ("interrupts", 2): ("98e1684463c523e3868384f7ac5a3809", 1000.0),
    ("combinators", 3): ("597bda445e3396d340187178737290d8", 0.0015),
    # Captured at 52eeb5e, the last engine without the sleep and elision
    # paths, from the scenario spelled with ``sim.timeout()``.
    ("cpu_mix", 4): ("aa4f26eb3436fe2e29f60666b81dd395", 1.002),
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_golden_schedule_fingerprints(scenario, seed):
    digest, final = schedule_fingerprint(scenario, seed=seed)
    want_digest, want_final = GOLDEN[(scenario, seed)]
    assert digest == want_digest, (
        "schedule of %r diverged from the pre-optimization engine" % scenario
    )
    assert final == want_final


def test_fingerprint_is_deterministic():
    assert schedule_fingerprint("torture", seed=9) == \
        schedule_fingerprint("torture", seed=9)


# -- two-tier scheduler ordering -----------------------------------------


def test_same_time_heap_entry_runs_before_later_now_entries(sim):
    """Cross-tier ordering: (when, seq) order wins, not queue residency.

    At t=1 the first process resumes and immediately waits on an
    already-triggered event, queueing its resumption in the now-queue.
    The second process's timeout — also due at t=1 but scheduled
    *earlier* (lower seq) — still sits in the heap and must run first,
    exactly as the one-heap scheduler ordered it.
    """
    order = []
    gate = sim.event()
    gate.succeed("x")

    def a():
        yield sim.timeout(1)
        order.append("t1")
        value = yield gate  # already triggered: resumption via now-queue
        order.append(("a", value))

    def b():
        yield sim.timeout(1)
        order.append("t2")

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["t1", "t2", ("a", "x")]


def test_now_queue_is_fifo_for_triggered_subscriptions(sim):
    order = []
    gate = sim.event()
    gate.succeed(7)

    def waiter(tag):
        value = yield gate
        order.append((tag, value, sim.now))

    for tag in range(4):
        sim.spawn(waiter(tag))
    sim.run()
    assert order == [(0, 7, 0.0), (1, 7, 0.0), (2, 7, 0.0), (3, 7, 0.0)]


def test_interrupt_races_queued_resumption(sim):
    """An interrupt landing while a resumption is queued must win.

    The sleeper waits on an already-triggered event, so its resumption
    sits in the now-queue when the interrupt arrives in the same
    timestep. The stale resumption must be dropped — delivering both
    would resume the generator twice.
    """
    log = []
    gate = sim.event()
    gate.succeed("v")

    def sleeper():
        yield sim.timeout(1)
        try:
            value = yield gate
            log.append(("woke", value))
        except Interrupt as intr:
            log.append(("intr", intr.cause))
        return "done"

    def interrupter(target):
        yield sim.timeout(1)
        target.interrupt(cause="now")

    target = sim.spawn(sleeper())
    sim.spawn(interrupter(target))
    sim.run()
    assert log == [("intr", "now")]
    assert target.value == "done"


# -- bugfix: _step discarding the generator's throw() response -----------


def test_bad_yield_error_is_catchable_and_process_continues(sim):
    """A process may catch the bad-yield error and keep running.

    Before the fix the generator's response to ``throw()`` was
    discarded, so a process that caught the error and yielded a valid
    event next was never rescheduled — it hung forever.
    """
    log = []

    def proc():
        try:
            yield 42
        except SimulationError:
            log.append("caught")
        yield sim.timeout(1)
        return "ok"

    process = sim.spawn(proc())
    sim.run()
    assert log == ["caught"]
    assert process.value == "ok"


def test_bad_yield_error_caught_then_return(sim):
    """Catching the bad-yield error and returning must not leak
    StopIteration out of the engine."""

    def proc():
        try:
            yield "not an event"
        except SimulationError:
            return "caught"

    def parent():
        value = yield sim.spawn(proc())
        return value

    assert sim.run_process(parent()) == "caught"


def test_foreign_event_yield_is_catchable(sim):
    other = Simulator()

    def proc():
        try:
            yield other.timeout(1)
        except SimulationError:
            return "rejected"

    def parent():
        value = yield sim.spawn(proc())
        return value

    assert sim.run_process(parent()) == "rejected"


# -- bugfix: run_until leaving the clock stale on timeout ----------------


def test_run_until_timeout_advances_clock_to_deadline(sim):
    gate = sim.event()

    def daemon():
        while True:
            yield sim.timeout(0.3)

    sim.spawn(daemon())
    # Ticks land at 0.3/0.6/0.9; the next would be 1.2 > deadline. The
    # old engine returned with now=0.9, so retry/backoff callers
    # computed negative remaining time.
    assert sim.run_until(gate, deadline=1.0) is False
    assert sim.now == 1.0


def test_run_until_empty_queue_advances_clock(sim):
    gate = sim.event()
    assert sim.run_until(gate, deadline=5.0) is False
    assert sim.now == 5.0


def test_run_until_event_fires_before_deadline(sim):
    gate = sim.event()

    def opener():
        yield sim.timeout(2)
        gate.succeed()

    sim.spawn(opener())
    assert sim.run_until(gate, deadline=10.0) is True
    assert sim.now == 2.0


# -- bugfix: combinator loser callback leak ------------------------------


def test_any_of_unsubscribes_losers(sim):
    gate = sim.event()

    def waiter():
        yield sim.any_of([sim.timeout(1), gate])

    sim.spawn(waiter())
    sim.run()
    # The loser keeps only the module-level failure watcher — no
    # combinator-held callback that would keep the whole race alive.
    assert [cb.__name__ for cb in gate.callbacks] == ["_watch_abandoned"]


def test_all_of_unsubscribes_pending_children_on_failure(sim):
    gate = sim.event()
    never = sim.event()

    def waiter():
        try:
            yield sim.all_of([gate, never])
        except ValueError:
            return "failed"

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    proc = sim.spawn(waiter())
    sim.spawn(failer())
    sim.run()
    assert proc.value == "failed"
    assert [cb.__name__ for cb in never.callbacks] == ["_watch_abandoned"]


# -- direct-resume scheduling: sleeps and elided resumptions ---------------


def test_sleep_and_timeout_of_equal_delay_fire_in_program_order(sim):
    """A sleep takes the sequence number a Timeout created there would."""
    order = []

    def sleeper(tag):
        yield 1.0
        order.append(tag)

    def timer(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag, body in enumerate((sleeper, timer, sleeper, timer, timer, sleeper)):
        sim.spawn(body(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4, 5]
    assert sim.now == 1.0


def test_zero_sleep_is_a_scheduling_point(sim):
    order = []

    def a():
        order.append("a0")
        yield 0.0
        order.append("a1")

    def b():
        order.append("b0")
        yield 0.0
        order.append("b1")

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["a0", "b0", "a1", "b1"]
    assert sim.now == 0.0


def test_stale_wake_after_interrupt_is_dropped(sim):
    """The interrupted sleep's entry stays queued and must do nothing,
    even though the process is asleep again when it comes up."""
    log = []

    def sleeper():
        try:
            yield 1.0
            log.append("overslept")
        except Interrupt as intr:
            log.append(("intr", intr.cause, sim.now))
        yield 2.0  # spans t=1.0, when the stale wake is dispatched
        log.append(("woke", sim.now))

    def interrupter(target):
        yield 0.5
        target.interrupt(cause="up")

    target = sim.spawn(sleeper())
    sim.spawn(interrupter(target))
    sim.run()
    assert log == [("intr", "up", 0.5), ("woke", 2.5)]


def test_interrupt_on_the_timestamp_a_sleep_ends(sim):
    """An older timer interrupts at t=1; the sleeper's own wake, due at
    t=1 too, is dispatched next and dropped."""
    log = []
    box = []

    def interrupter():
        yield 1.0
        box[0].interrupt(cause="tie")

    def sleeper():
        try:
            yield 1.0
            log.append("woke")
        except Interrupt as intr:
            log.append(("intr", intr.cause))

    sim.spawn(interrupter())
    box.append(sim.spawn(sleeper()))
    sim.run()
    assert log == [("intr", "tie")]


def test_free_lock_is_continued_in_place_and_counted(sim):
    lock = Mutex(sim, name="m")
    sem = Semaphore(sim, 1, name="s")
    store = Store(sim, name="q")

    def proc():
        yield 1.0  # alone at t=1: nothing else is runnable
        before = sim.elided
        yield lock.acquire()
        yield sem.acquire()
        yield store.put("x")
        return sim.elided - before

    process = sim.spawn(proc())
    sim.run()
    assert process.value == 3
    # Elided entries still take their sequence numbers: start, sleep, 3.
    assert sim._seq == 5
    assert lock.stats.acquisitions == 1 and lock.stats.contended == 0
    assert lock.locked and sem.available == 0 and len(store) == 1


def test_elision_refused_when_another_entry_is_runnable_now(sim):
    """b's start entry is queued at t=0 ahead of a's resumption, so a
    must not run on past its free acquire before b has started."""
    order = []
    lock = Mutex(sim, name="m")

    def a():
        order.append("a0")
        yield lock.acquire()
        order.append("a1")
        lock.release()

    def b():
        order.append("b0")
        yield 0.0

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["a0", "b0", "a1"]
    assert sim.elided == 0


def test_elision_refused_when_a_heap_entry_is_due_now(sim):
    """Two sleepers due at t=1: the first must not run past its free
    acquire before the second — older than the resumption — has woken."""
    order = []
    lock = Mutex(sim, name="m")

    def a():
        yield 1.0
        order.append("a0")
        yield lock.acquire()
        order.append("a1")

    def b():
        yield 1.0
        order.append("b0")

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["a0", "b0", "a1"]


def test_elision_refused_inside_a_callback_batch(sim):
    """Two waiters on one event are one scheduler entry. The first must
    not run past a free acquire before the second has been resumed."""
    order = []
    gate = sim.event()
    lock = Mutex(sim, name="m")

    def waiter(tag):
        yield gate
        order.append((tag, "woke"))
        yield lock.acquire()
        order.append((tag, "locked"))
        lock.release()

    def opener():
        yield 1.0
        gate.succeed()

    sim.spawn(waiter(0))
    sim.spawn(waiter(1))
    sim.spawn(opener())
    sim.run()
    assert order == [(0, "woke"), (1, "woke"), (0, "locked"), (1, "locked")]


def test_run_until_stops_before_an_elidable_resumption(sim):
    """run_until() checks its event between entries; a process that
    triggers it and then takes a free lock stops at the acquire."""
    log = []
    done = sim.event()
    lock = Mutex(sim, name="m")

    def proc():
        yield 1.0
        done.succeed()
        log.append("triggered")
        yield lock.acquire()
        log.append("locked")

    sim.spawn(proc())
    assert sim.run_until(done, deadline=5.0) is True
    assert log == ["triggered"]
    assert lock.locked  # granted at the call; the resumption is queued
    sim.run()
    assert log == ["triggered", "locked"]
    assert sim.elided == 0


def test_processes_on_the_shared_granted_event_do_not_wake_each_other(sim):
    """Both park on ``sim.granted`` (elision refused: each has the other
    queued behind it); interrupting one must leave the other's
    resumption alone, and each resumes exactly once."""
    log = []
    locks = [Mutex(sim, name="m%d" % i) for i in range(2)]

    def proc(tag):
        try:
            event = locks[tag].acquire()
            assert event is sim.granted
            yield event
            log.append(("locked", tag))
        except Interrupt:
            log.append(("intr", tag))
        yield 1.0
        log.append(("end", tag))

    def meddler(target):
        target.interrupt()
        yield 0.0

    first = sim.spawn(proc(0))
    sim.spawn(proc(1))
    sim.spawn(meddler(first))
    sim.run()
    assert log == [("locked", 0), ("locked", 1), ("end", 0), ("end", 1)] \
        or log == [("locked", 1), ("intr", 0), ("end", 1), ("end", 0)]
    assert sim.granted.callbacks == []


# -- free-core grants taken in place by SimThread.run ------------------------
#
# A slice shorter than a quantum is one sleep of exactly ``SLICE``; a
# plain sleep of the same length by another process ties with it, and
# the tie breaks on which of the two was queued first. A grant that ran
# on in place when it must not would queue the slice ahead of the other
# sleep.

SLICE = 0.0001


def test_free_core_grant_is_taken_in_place_and_counted(sim):
    core = Core(sim, 0)
    thread = SimThread(sim, "t", [core])

    def proc():
        yield 1.0  # alone at t=1: nothing else is runnable
        before = (sim.elided, sim.resumes)
        yield from thread.run(SLICE)
        return sim.elided - before[0], sim.resumes - before[1]

    process = sim.spawn(proc())
    sim.run()
    # The grant and the slice end are elided; nothing is resumed.
    assert process.value == (2, 0)
    assert core._mutex.stats.acquisitions == 1 and not core._mutex.locked
    assert core.busy_time == SLICE and thread.cpu_time == SLICE
    assert sim.now == 1.0 + SLICE


def test_free_core_grant_refused_when_another_entry_is_runnable_now(sim):
    order = []
    thread = SimThread(sim, "t", [Core(sim, 0)])

    def charger():
        yield from thread.run(SLICE)  # b's start is queued ahead of it
        order.append("charge")

    def sleeper():
        yield SLICE
        order.append("sleep")

    sim.spawn(charger())
    sim.spawn(sleeper())
    sim.run()
    assert order == ["sleep", "charge"]
    assert sim.elided == 0


def test_free_core_grant_refused_when_a_heap_entry_is_due_now(sim):
    order = []
    thread = SimThread(sim, "t", [Core(sim, 0)])

    def charger():
        yield 1.0
        yield from thread.run(SLICE)  # the sleeper's wake at t=1 is older
        order.append("charge")

    def sleeper():
        yield 1.0
        yield SLICE
        order.append("sleep")

    sim.spawn(charger())
    sim.spawn(sleeper())
    sim.run()
    assert order == ["sleep", "charge"]
    assert sim.elided == 0


def test_free_core_grant_refused_inside_a_callback_batch(sim):
    order = []
    gate = sim.event()
    thread = SimThread(sim, "t", [Core(sim, 0)])

    def charger():
        yield gate  # first of two subscribers: resumed inside the batch
        yield from thread.run(SLICE)
        order.append("charge")

    def sleeper():
        yield gate
        yield SLICE
        order.append("sleep")

    def opener():
        yield 1.0
        gate.succeed()

    sim.spawn(charger())
    sim.spawn(sleeper())
    sim.spawn(opener())
    sim.run()
    assert order == ["sleep", "charge"]
    assert sim.elided == 0


def test_run_until_stops_before_an_in_place_core_grant(sim):
    core = Core(sim, 0)
    thread = SimThread(sim, "t", [core])
    done = sim.event()

    def proc():
        yield 1.0
        done.succeed()
        yield from thread.run(SLICE)

    sim.spawn(proc())
    assert sim.run_until(done, deadline=5.0) is True
    # Granted at the acquire, but the thread has not gone on to run.
    assert core._mutex.locked and core.last_thread is None
    assert sim.elided == 0
    sim.run()
    assert core.last_thread is thread and core.busy_time == SLICE


# -- slice ends taken in place by SimThread.run -------------------------------
#
# Each refusal test below fails with its own condition taken out of the
# slice-end test: the slice would end, and ``sim.now`` move, ahead of an
# entry the run loop must dispatch first.


def test_slice_end_refused_when_another_entry_is_runnable_now(sim):
    """The charger's grant resumption is queued behind the other
    process's start; that start queues a zero sleep, which is due before
    the slice ends."""
    log = []
    thread = SimThread(sim, "t", [Core(sim, 0)])

    def charger():
        yield from thread.run(SLICE)
        log.append(("charge", sim.now))

    def other():
        yield 0.0
        log.append(("other", sim.now))

    sim.spawn(charger())
    sim.spawn(other())
    sim.run()
    assert log == [("other", 0.0), ("charge", SLICE)]


def test_slice_end_refused_on_a_tie_with_an_older_heap_entry(sim):
    """The sleeper's wake falls on the very time the slice ends and was
    queued first, so it runs first."""
    order = []
    thread = SimThread(sim, "t", [Core(sim, 0)])

    def sleeper():
        yield 1.0
        yield SLICE
        order.append("sleep")

    def charger():
        yield 1.0
        yield from thread.run(SLICE)  # granted in place: the head is later
        order.append("charge")

    sim.spawn(sleeper())
    sim.spawn(charger())
    sim.run()
    assert order == ["sleep", "charge"]
    assert sim.elided == 1  # the grant only


def test_slice_end_refused_past_the_deadline_of_run(sim):
    core = Core(sim, 0)
    thread = SimThread(sim, "t", [core])

    def proc():
        yield 1.0
        yield from thread.run(SLICE)
        yield from thread.run(SLICE)

    sim.spawn(proc())
    assert sim.run(until=1.0 + SLICE / 2) == 1.0 + SLICE / 2
    assert core.busy_time == 0.0  # the slice has not ended yet
    assert sim._deadline == float("inf")
    elided = sim.elided
    sim.run()
    # The first slice ends the long way; the whole second one in place.
    assert sim.elided == elided + 2
    assert core.busy_time == 2 * SLICE and sim.now == 1.0 + 2 * SLICE


def test_slice_end_refused_past_the_deadline_of_run_until(sim):
    core = Core(sim, 0)
    thread = SimThread(sim, "t", [core])
    never = sim.event()

    def proc():
        yield 1.0
        yield from thread.run(SLICE)

    sim.spawn(proc())
    assert sim.run_until(never, deadline=1.0 + SLICE / 2) is False
    assert core.busy_time == 0.0 and sim.now == 1.0 + SLICE / 2
    assert sim._deadline == float("inf")
    sim.run()
    assert core.busy_time == SLICE and sim.now == 1.0 + SLICE


def test_core_released_in_place_hands_over_to_a_waiter(sim):
    """The slice that ends with a waiter queued releases through
    ``Mutex.release``; one without releases in place. Both account the
    hold time."""
    core = Core(sim, 0)
    threads = [SimThread(sim, "t%d" % i, [core]) for i in range(2)]
    done = []

    def proc(thread):
        yield from thread.run(SLICE)
        done.append((thread.name, sim.now))

    for thread in threads:
        sim.spawn(proc(thread))
    sim.run()
    assert [name for name, _when in done] == ["t0", "t1"]
    assert done[1][1] == pytest.approx(2 * SLICE)
    stats = core._mutex.stats
    assert stats.acquisitions == 2 and stats.contended == 1
    assert stats.total_hold == pytest.approx(2 * SLICE)
    assert not core._mutex.locked


# -- a lone subscriber is queued directly ------------------------------------


def test_interrupted_lone_waiters_direct_wakeup_is_dropped(sim):
    """The gate's one subscriber is queued as its own entry when the gate
    triggers; an interrupt in the same step cannot take it back out, so
    the entry must find itself stale and do nothing."""
    log = []
    gate = sim.event()

    def waiter():
        try:
            value = yield gate
            log.append(("woke", value))
        except Interrupt as intr:
            log.append(("intr", intr.cause))
        yield 1.0  # asleep when a wrongly delivered Interrupt would land
        log.append("end")

    def opener(target):
        yield 1.0
        gate.succeed("v")
        target.interrupt(cause="late")

    target = sim.spawn(waiter())
    sim.spawn(opener(target))
    sim.run()
    assert log == [("intr", "late"), "end"]
    assert gate.callbacks == []


# -- bugfix: non-finite delays used to corrupt the heap ---------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_timeout_rejects_non_finite_and_negative_delays(sim, bad):
    with pytest.raises(SimulationError):
        sim.timeout(bad)


def test_nan_delay_no_longer_reorders_sleepers(sim):
    """With a NaN key in the heap the 1.0 sleeper used to fire before
    the 0.5 one and ``sim.now`` became NaN."""
    order = []

    def sleeper(delay):
        try:
            yield delay
        except SimulationError:
            order.append("rejected")
            return
        order.append(delay)

    for delay in (2.0, float("nan"), 1.0, 0.5):
        sim.spawn(sleeper(delay))
    sim.run()
    assert order == ["rejected", 0.5, 1.0, 2.0]
    assert sim.now == 2.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_bad_sleep_is_catchable_and_process_continues(sim, bad):
    def proc():
        try:
            yield bad
        except SimulationError:
            pass
        yield 1.0
        return "ok"

    process = sim.spawn(proc())
    sim.run()
    assert process.value == "ok" and sim.now == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_thread_run_rejects_non_finite_cpu_time(sim, bad):
    """``run(nan)`` used to return silently having charged nothing."""
    thread = SimThread(sim, "t", [Core(sim, 0)])

    def proc():
        yield from thread.run(bad)

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="cpu time"):
        sim.run()
    assert thread.cpu_time == 0.0


# -- the exact half of the perf ledger --------------------------------------


def _bench_harness():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "bench_engine.py")
    spec = importlib.util.spec_from_file_location("bench_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_counts_entries_of_every_simulator_a_task_builds():
    harness = _bench_harness()
    init = Simulator.__init__
    out = harness.counted(harness.task_micro, {})
    assert Simulator.__init__ is init  # the note-taking wrapper is gone
    assert set(out["value"]["detail"]) == {
        "torture", "interrupts", "combinators"}
    # Exact on any machine: three simulators' sequence numbers, and
    # those minus the resumptions continued in place.
    assert out["entries_scheduled"] == 2423
    assert out["entries_dispatched"] == 2346
    assert out["resumes"] == 2112


def test_bench_check_gates_dispatch_counts_exactly():
    harness = _bench_harness()

    def record(dispatched, resumes=50):
        return {"python": "3.11.0", "total_wall_s": 1.0, "scenarios": {
            "s": {"fingerprint": "f", "entries_dispatched": dispatched,
                  "resumes": resumes}}}

    assert harness.check_against(record(100), record(100), 0.25) == []
    assert harness.check_against(record(99, 49), record(100), 0.25) == []
    (failure,) = harness.check_against(record(101), record(100), 0.25)
    assert "dispatch regression in 's'" in failure
    (failure,) = harness.check_against(record(100, 51), record(100), 0.25)
    assert "resume regression in 's'" in failure
    # Older baselines lack the counts: nothing to gate.
    old = record(0)
    del old["scenarios"]["s"]["entries_dispatched"]
    del old["scenarios"]["s"]["resumes"]
    assert harness.check_against(record(101, 51), old, 0.25) == []


def test_primitive_costs_times_the_three_primitives():
    from repro.sim.bench import primitive_costs

    costs = primitive_costs(rounds=200)
    assert sorted(costs) == ["cpu_charge", "free_acquire", "sleep"]
    assert all(micros > 0 for micros in costs.values())

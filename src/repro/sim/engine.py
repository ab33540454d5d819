"""A small discrete-event simulation (DES) engine.

The engine drives every component of the Danaus reproduction: filesystem
operations, kernel writeback, network transfers and workload generators all
run as :class:`Process` coroutines over a shared :class:`Simulator` clock.

The programming model follows the classic generator-coroutine style:

    def worker(sim):
        yield 1.0                       # sleep 1 simulated second
        result = yield other_process    # wait for a process to finish
        return result

A process yields :class:`Event` objects and is resumed with the event's
value once the event triggers; yielding a ``float`` sleeps that many
seconds (``sim.timeout(x)`` is for when an Event *object* is needed: an
``any_of`` member, a stored timer, a value to deliver). Exceptions
propagate: failing an event with ``event.fail(exc)`` raises ``exc``
inside every waiting process.

The engine is deliberately small but complete: one-shot events, timeouts,
process join, ``any_of``/``all_of`` combinators and interrupts. It is
deterministic — two runs with the same seed produce identical traces.

Scheduler design (the hot path)
-------------------------------

Pending work lives in two tiers:

* a **now-queue** — a FIFO deque of ``(seq, fn, arg)`` entries for
  callbacks scheduled *at the current time* (event callback batches,
  process resumptions). Same-timestamp work is the overwhelming
  majority of scheduler traffic (every uncontended lock acquire, every
  resumption on an already-triggered event), and a deque append/popleft
  is O(1) where a heap push/pop is O(log n);
* a **time-ordered heap** of ``(when, seq, fn, arg)`` entries for
  callbacks at future times (timeouts).

Entries are *tuple-dispatched*: ``fn`` is a bound method (or plain
callback) invoked as ``fn(arg)`` — no per-call lambda closures are
allocated. A single monotonically increasing sequence number spans both
tiers, and the run loop always executes the entry with the smallest
``(when, seq)`` pair, so the schedule is **byte-identical** to the
original single-heap scheduler: the two-tier split is a pure wall-clock
optimization (see ``repro.sim.bench`` for the fingerprint machinery
that pins this equivalence).

Direct resumption
-----------------

Two cases dominate the traffic — a process going to sleep, and a process
asking for something that is free (98.8 % of mutex acquires on the
MDS-failover chaos cell) — and neither needs the event machinery. Both
short cuts live in :meth:`Process._step` and keep every ``(when, seq)``
key where the long way round would have put it:

* a **sleep**: the process yields a float. The entry ``(when, seq,
  process._wake, seq)`` goes straight to the heap (to the now-queue when
  ``when == now``), with the sequence number a ``Timeout`` created at
  that yield would have taken, and its dispatch resumes the generator
  without ``Timeout._fire -> _run_callbacks -> _on_event`` in between.
  The entry's sequence number doubles as the token ``_waiting_on``
  holds; :meth:`Process.interrupt` clears it, so the wake of an
  interrupted sleep finds another token and does nothing — a ``Timeout``
  nobody waits for any more did nothing either.
* an **elision**: the process yields an event that has already triggered
  (``sim.granted``, which ``Mutex.acquire``, ``Semaphore.acquire`` and
  ``Store.put`` return when they grant on the spot). The long way queues
  ``(seq, process._resume, event)`` and returns to the run loop. When
  that entry would be the very next one dispatched, with nothing
  observable in between, the process instead takes the sequence number
  (so every later key is unchanged), counts one in ``sim.elided`` and
  continues in place. "Very next, nothing in between" is four tests,
  each pinned by a test that fails without it: the now-queue is empty;
  the heap's head is strictly later than ``now`` (a head due now is
  older than the new entry and would run first); the process is not
  being resumed from inside a callback batch with callbacks still to
  run (they are part of the current entry and run before any queued
  one); and the event a surrounding :meth:`Simulator.run_until` waits
  for has not triggered — ``run_until`` looks at it between entries and
  would return *before* dispatching the resumption, so continuing in
  place would run the process past the point where the caller expects
  to find it. Any test failing, the long way runs as it always did.

``sim._seq`` is thus the number of entries scheduled and ``sim._seq -
sim.elided`` the number the run loop dispatched;
``scripts/bench_engine.py`` records both per scenario and gates the
second exactly.
"""

import heapq
from collections import deque
from math import inf

from repro.common.errors import SimulationError
from repro.metrics import MetricSet

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Simulator",
    "AnyOf",
    "AllOf",
]


class _CrashHalt(BaseException):
    """Internal control-flow signal: an unobserved crash was recorded.

    Raised by :meth:`Simulator._record_crash` to unwind straight out of
    the run loop, so the loop body itself carries no per-event crash
    check. Derives from ``BaseException`` so generator code that catches
    ``Exception`` cannot swallow it (it never crosses user frames in
    normal operation — crashes are recorded only from engine frames).
    """


class Event(object):
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, after which its callbacks run at the
    current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "triggered", "name")

    def __init__(self, sim, name=None):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self.triggered = False
        self.name = name

    @property
    def ok(self):
        """True when the event triggered successfully."""
        return self.triggered and self._exc is None

    @property
    def value(self):
        """The value the event was triggered with (or raises its failure)."""
        if not self.triggered:
            raise SimulationError("event %r has not triggered yet" % self)
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event %r already triggered" % self)
        self.triggered = True
        self._value = value
        if self.callbacks:
            self.sim._schedule_event(self)
        return self

    def fail(self, exc):
        """Trigger the event with an exception.

        Waiting processes get ``exc`` raised at their ``yield``.
        """
        if self.triggered:
            raise SimulationError("event %r already triggered" % self)
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.triggered = True
        self._exc = exc
        if self.callbacks:
            self.sim._schedule_event(self)
        return self

    def subscribe(self, callback):
        """Register ``callback(event)``; runs when the event triggers.

        If the event already triggered, the callback is scheduled to run at
        the current time (never synchronously), preserving run-to-completion
        semantics for the caller.
        """
        if self.triggered:
            self.sim._schedule_call(callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self):
        state = "triggered" if self.triggered else "pending"
        label = self.name or self.__class__.__name__
        return "<%s %s>" % (label, state)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim, delay, value=None):
        if not 0 <= delay < inf:  # also false for NaN, which breaks heap order
            raise SimulationError(
                "timeout delay must be finite and >= 0, got %r" % (delay,))
        # Event.__init__ and Simulator._schedule are flattened here:
        # timeouts are the single most-allocated event type (one per CPU
        # quantum, poll interval and RPC), and the two calls they replace
        # show up in every profile. Identical schedule: same seq
        # numbering and same now-vs-future routing as _schedule().
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self.triggered = False
        self.name = None
        when = sim.now + delay
        sim._seq += 1
        if when == sim.now:
            sim._ready.append((sim._seq, self._fire, None))
        else:
            heapq.heappush(sim._heap, (when, sim._seq, self._fire, None))

    def _fire(self, _arg):
        self.triggered = True
        if self.callbacks:
            self.sim._run_callbacks(self)

    def __repr__(self):
        state = "triggered" if self.triggered else "pending"
        return "<Timeout %s>" % state


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


def _watch_abandoned(event):
    """Callback planted on abandoned combinator losers.

    A loser that *fails* after the race was decided would otherwise be
    silently swallowed; route it to the crash record so bugs never pass
    silently (the engine's stated contract). Module-level on purpose:
    it holds no reference back to the combinator, so losers do not keep
    the whole race alive (the callback-leak fix).
    """
    if event._exc is not None:
        event.sim._record_crash(event, event._exc)


class Process(Event):
    """A running coroutine; also an event that triggers when it finishes.

    The process's return value (via ``return x`` in the generator) becomes
    the event value, so ``result = yield proc`` both joins and collects.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim, generator, name=None):
        if not hasattr(generator, "send"):
            raise SimulationError(
                "spawn() needs a generator, got %r — did you call the "
                "function with ()?" % (generator,)
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "proc"))
        self.generator = generator
        self._waiting_on = None
        sim._schedule_call(self._start, None)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Raise :class:`Interrupt` inside the process at its current yield.

        The event the process was waiting on is abandoned (its trigger will
        be ignored by this process). Interrupting a finished process is a
        no-op.
        """
        if self.triggered:
            return
        waited = self._waiting_on
        self._waiting_on = None
        # A sleep token (an int) has no callback list: its queued _wake
        # is dropped as stale, like a queued _resume.
        if waited is not None and waited.__class__ is not int:
            try:
                waited.callbacks.remove(self._on_event)
            except ValueError:
                pass  # resumption already queued; _resume drops it as stale
        self.sim._schedule_call(self._throw, Interrupt(cause))

    # -- tuple-dispatched entry points ---------------------------------

    def _start(self, _arg):
        self._step(None, None)

    def _throw(self, exc):
        self._step(None, exc)

    def _resume(self, event):
        """Fast-path resumption on an event that had already triggered.

        The ``_waiting_on`` identity check drops stale wakeups: an
        interrupt that lands while this resumption sits in the now-queue
        clears ``_waiting_on``, and the queued entry must then be a
        no-op (the Interrupt entry behind it does the real resumption).
        """
        if self._waiting_on is not event:
            return
        self._waiting_on = None
        if event._exc is None:
            self._step(event._value, None)
        else:
            self._step(None, event._exc)

    def _wake(self, token):
        """End of a sleep; ``token`` is the entry's own sequence number."""
        if self._waiting_on is not token:
            return  # interrupted during the sleep; stale wakeup
        self._waiting_on = None
        self._step(None, None)

    def _on_event(self, event):
        if self._waiting_on is not event:
            return  # interrupted while waiting; stale wakeup
        self._waiting_on = None
        if event._exc is None:
            self._step(event._value, None)
        else:
            self._step(None, event._exc)

    def _step(self, value, exc):
        if self.triggered:
            return
        sim = self.sim
        generator = self.generator
        while True:
            try:
                if exc is not None:
                    target = generator.throw(exc)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self.triggered = True
                self._value = stop.value
                if self.callbacks:
                    sim._schedule_event(self)
                return
            except Interrupt as intr:
                # An uncaught interrupt terminates the process quietly.
                self.triggered = True
                self._value = intr.cause
                if self.callbacks:
                    sim._schedule_event(self)
                return
            except BaseException as err:  # noqa: BLE001 - propagate to joiners
                self.triggered = True
                self._exc = err
                if self.callbacks:
                    sim._schedule_event(self)
                else:
                    sim._record_crash(self, err)
                return
            if target.__class__ is float:
                # Sleep: the entry a Timeout created here would have
                # pushed, minus the Timeout.
                if 0.0 <= target < inf:
                    when = sim.now + target
                    sim._seq = token = sim._seq + 1
                    self._waiting_on = token
                    if when == sim.now:
                        sim._ready.append((token, self._wake, token))
                    else:
                        heapq.heappush(
                            sim._heap, (when, token, self._wake, token))
                    return
                value, exc = None, SimulationError(
                    "sleep must be finite and >= 0, got %r" % (target,))
            elif isinstance(target, Event) and target.sim is sim:
                if not target.triggered:
                    self._waiting_on = target
                    target.callbacks.append(self._on_event)
                    return
                heap = sim._heap
                stop = sim._stop
                if (sim._ready or sim._batch
                        or (heap and heap[0][0] <= sim.now)
                        or (stop is not None and stop.triggered)):
                    # Something else runs before the resumption would.
                    self._waiting_on = target
                    sim._schedule_call(self._resume, target)
                    return
                # Elision: the resumption would be the very next entry
                # dispatched, so take its sequence number and go on.
                sim._seq += 1
                sim.elided += 1
                value, exc = target._value, target._exc
            elif isinstance(target, Event):
                # A bad yield is thrown back into the generator through
                # the same try/except: a generator that catches the error
                # and yields a valid event next continues normally; one
                # that does not is marked crashed/triggered like any other
                # failure.
                value, exc = None, SimulationError(
                    "event from a different simulator yielded"
                )
            else:
                value, exc = None, SimulationError(
                    "process yielded non-event %r" % (target,)
                )


class AnyOf(Event):
    """Triggers when any child event triggers; value is (index, value)."""

    __slots__ = ("_children", "_cbs")

    def __init__(self, sim, events):
        super().__init__(sim, name="AnyOf")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        self._cbs = []
        for index, event in enumerate(self._children):
            cb = self._make_cb(index)
            self._cbs.append(cb)
            event.subscribe(cb)

    def _make_cb(self, index):
        def cb(event):
            if self.triggered:
                return
            self._settle(index, event)

        return cb

    def _settle(self, index, event):
        if event._exc is None:
            self.succeed((index, event._value))
        else:
            self.fail(event._exc)
        self._abandon_losers()

    def _abandon_losers(self):
        """Unsubscribe still-pending children once the race is decided.

        Losers used to keep their result callbacks forever — a reference
        leak over long chaos runs, and a loser failing *after* the
        winner was silently swallowed. Pending plain events get the
        module-level :func:`_watch_abandoned` watcher so a late failure
        is routed to ``sim._record_crash``; pending processes need no
        watcher — a process failing with no callbacks records the crash
        itself.
        """
        for child, cb in zip(self._children, self._cbs):
            if not child.triggered:
                try:
                    child.callbacks.remove(cb)
                except ValueError:
                    pass
                if not isinstance(child, Process):
                    child.callbacks.append(_watch_abandoned)
        self._cbs = ()


class AllOf(Event):
    """Triggers when every child event has triggered; value is the list."""

    __slots__ = ("_children", "_pending")

    def __init__(self, sim, events):
        super().__init__(sim, name="AllOf")
        self._children = list(events)
        self._pending = len(self._children)
        if not self._children:
            # Trivially complete.
            self.succeed([])
            return
        for event in self._children:
            event.subscribe(self._on_child)

    def _on_child(self, event):
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            # Same leak/swallow fix as AnyOf: drop our callback from the
            # still-pending children, watch plain events for late failures.
            for child in self._children:
                if not child.triggered:
                    try:
                        child.callbacks.remove(self._on_child)
                    except ValueError:
                        pass
                    if not isinstance(child, Process):
                        child.callbacks.append(_watch_abandoned)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child._value for child in self._children])


class Simulator(object):
    """The event loop: a clock, a now-queue and a heap of pending callbacks.

    See the module docstring for the two-tier scheduler design.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []  # (when, seq, fn, arg) — future callbacks
        self._ready = deque()  # (seq, fn, arg) — callbacks due *now*
        self._seq = 0
        self.next_pid = 1  # this world's pid space (see repro.fs.api.Task)
        self.elided = 0  # resumptions continued in place (see Process._step)
        self._batch = False  # inside a callback batch with callbacks to go
        self._stop = None  # the event a surrounding run_until() waits for
        #: Shared pre-triggered event: what ``Mutex.acquire`` and friends
        #: return when they grant immediately. Nothing is ever stored on
        #: it, so any number of processes may wait on it at once.
        self.granted = Event(self, name="granted")
        self.granted.triggered = True
        self.crashed = []  # (process, exception) for unobserved failures
        self.observer = None  # the attached repro.obs.Observer, if any
        self._locks = []  # (scope, lock_class, instance, Mutex) registry
        self._scopes = {}  # scope name -> MetricSet (see metrics())

    def trace(self, category, name, **detail):
        """Emit a trace event when an observer is attached (else a no-op).

        Hot paths should guard the call site with a single attribute
        check (``if sim.observer is not None:``) so the kwargs dict is
        never built when nothing observes.
        """
        if self.observer is not None:
            self.observer.emit(self.now, category, name, **detail)

    def register_lock(self, scope, lock_class, instance, lock):
        """Record a named lock for contention profiling.

        Registration is unconditional (lock creation is rare); the
        attached observer reads this registry lazily when asked for a
        contention table, so no per-acquisition cost is added.
        """
        self._locks.append((scope, lock_class, instance, lock))

    def registered_locks(self):
        """All locks registered so far: ``(scope, class, instance, lock)``."""
        return list(self._locks)

    def unregister_lock(self, lock):
        """Drop a lock from the contention registry (by identity).

        Used when the guarded object goes away for good (e.g. an
        unlinked inode): a recycled instance key then registers a fresh
        lock instead of aliasing the departed one's stats.
        """
        self._locks = [entry for entry in self._locks if entry[3] is not lock]

    def metrics(self, scope):
        """The get-or-create :class:`~repro.metrics.MetricSet` of ``scope``.

        The world's one metric registry: each component writes its
        counters and gauges into its own scope (named after the instance,
        so no two components share one) whether or not an observer is
        attached, and the observer's profile tables read them from here.
        """
        registry = self._scopes.get(scope)
        if registry is None:
            registry = self._scopes[scope] = MetricSet(scope)
        return registry

    def scopes(self):
        """Sorted scope names with a registry so far."""
        return sorted(self._scopes)

    # -- scheduling internals ------------------------------------------

    def _schedule(self, when, fn, arg=None):
        """Queue ``fn(arg)`` at time ``when`` (tuple-dispatched entry)."""
        if when < self.now:
            raise SimulationError("cannot schedule in the past")
        self._seq += 1
        if when == self.now:
            self._ready.append((self._seq, fn, arg))
        else:
            heapq.heappush(self._heap, (when, self._seq, fn, arg))

    def _schedule_call(self, fn, arg=None):
        """Queue ``fn(arg)`` at the current time (now-queue, FIFO)."""
        self._seq += 1
        self._ready.append((self._seq, fn, arg))

    def _schedule_event(self, event):
        """Queue the callback batch of a just-triggered event.

        Callers check ``event.callbacks`` first: an event triggering
        with no subscribers yet schedules nothing (post-trigger
        subscribers queue their own resumption), which keeps uncontended
        lock acquires to a single scheduler entry.
        """
        self._seq += 1
        self._ready.append((self._seq, self._run_callbacks, event))

    def _run_callbacks(self, event):
        callbacks, event.callbacks = event.callbacks, []
        if not callbacks:
            return  # every subscriber left between trigger and dispatch
        last = callbacks.pop()
        if callbacks:
            # The rest of the batch runs before anything queued from here
            # on; the elision test in Process._step has to know.
            self._batch = True
            try:
                for callback in callbacks:
                    callback(event)
            finally:
                self._batch = False
        last(event)

    def _record_crash(self, process, exc):
        self.crashed.append((process, exc))
        raise _CrashHalt()

    def _raise_crash(self):
        process, exc = self.crashed[0]
        raise SimulationError(
            "process %r crashed: %r" % (process.name, exc)
        ) from exc

    # -- public API ------------------------------------------------------

    def event(self, name=None):
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator, name=None):
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events):
        """Wait for the first of ``events``; yields ``(index, value)``."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Wait for all ``events``; yields the list of their values."""
        return AllOf(self, events)

    def run(self, until=None):
        """Run events until the queue is empty or the clock passes ``until``.

        Returns the final simulation time. Unobserved process crashes are
        re-raised here so that bugs never pass silently. The crash check
        lives outside the per-event loop body: :meth:`_record_crash`
        unwinds the loop directly via an internal control exception.
        """
        if self.crashed:
            self._raise_crash()
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        try:
            while True:
                if ready:
                    if heap:
                        head = heap[0]
                        # A heap entry at the current time with a lower
                        # sequence number was scheduled first: run it
                        # first, exactly as the one-heap scheduler did.
                        if head[0] <= self.now and head[1] < ready[0][0]:
                            heappop(heap)
                            head[2](head[3])
                            continue
                    entry = ready.popleft()
                    entry[1](entry[2])
                elif heap:
                    when = heap[0][0]
                    if until is not None and when > until:
                        self.now = until
                        return self.now
                    head = heappop(heap)
                    self.now = when
                    head[2](head[3])
                else:
                    break
        except _CrashHalt:
            self._raise_crash()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until(self, event, deadline):
        """Run until ``event`` triggers or the clock passes ``deadline``.

        Unlike :meth:`run`, this stops as soon as the event fires — vital
        when daemon loops (flushers, service threads) keep the heap
        non-empty forever. Returns True when the event triggered. On
        timeout the clock is advanced to ``deadline`` (matching
        ``run(until=...)``), so callers never observe a stale clock and
        compute negative remaining time on retry/backoff paths.
        """
        if self.crashed:
            self._raise_crash()
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        outer, self._stop = self._stop, event
        try:
            while not event.triggered:
                if ready:
                    if heap:
                        head = heap[0]
                        if head[0] <= self.now and head[1] < ready[0][0]:
                            heappop(heap)
                            head[2](head[3])
                            continue
                    entry = ready.popleft()
                    entry[1](entry[2])
                elif heap:
                    when = heap[0][0]
                    if when > deadline:
                        break
                    head = heappop(heap)
                    self.now = when
                    head[2](head[3])
                else:
                    break
        except _CrashHalt:
            self._raise_crash()
        finally:
            self._stop = outer
        if event.triggered:
            return True
        if deadline > self.now:
            self.now = deadline
        return False

    def run_process(self, generator, name=None, until=None):
        """Convenience: spawn ``generator``, run until it finishes, return value."""
        process = self.spawn(generator, name=name)
        self.run(until=until)
        if not process.triggered:
            raise SimulationError(
                "process %r did not finish by t=%r" % (process.name, until)
            )
        return process.value

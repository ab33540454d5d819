"""Synchronisation primitives for the DES engine.

These mirror the kernel/user-level primitives the paper profiles:

* :class:`Mutex` — a FIFO mutual-exclusion lock that records per-request
  wait and hold times (the paper's Fig. 1b reports exactly these).
* :class:`Semaphore` — a counted resource (run-queue slots, queue depth).
* :class:`Store` — a FIFO message channel used for request queues.
"""

from collections import deque

from repro.common.errors import SimulationError
from repro.sim.engine import Event

__all__ = ["LockStats", "Mutex", "Semaphore", "Store"]


class LockStats(object):
    """Aggregate wait/hold accounting for one lock.

    ``avg_wait``/``avg_hold`` are *per lock request*, matching the metric
    in the paper's motivation figure.
    """

    __slots__ = (
        "acquisitions",
        "contended",
        "total_wait",
        "total_hold",
        "max_wait",
        "max_hold",
    )

    def __init__(self):
        self.acquisitions = 0
        self.contended = 0
        self.total_wait = 0.0
        self.total_hold = 0.0
        self.max_wait = 0.0
        self.max_hold = 0.0

    @property
    def avg_wait(self):
        """Mean wait time per lock request (seconds)."""
        return self.total_wait / self.acquisitions if self.acquisitions else 0.0

    @property
    def avg_hold(self):
        """Mean hold time per lock request (seconds)."""
        return self.total_hold / self.acquisitions if self.acquisitions else 0.0

    def record_wait(self, wait):
        self.acquisitions += 1
        if wait > 0:
            self.contended += 1
            self.total_wait += wait
            if wait > self.max_wait:
                self.max_wait = wait

    def record_hold(self, hold):
        self.total_hold += hold
        if hold > self.max_hold:
            self.max_hold = hold

    def merge(self, other):
        """Fold another :class:`LockStats` into this one (for rollups)."""
        self.acquisitions += other.acquisitions
        self.contended += other.contended
        self.total_wait += other.total_wait
        self.total_hold += other.total_hold
        self.max_wait = max(self.max_wait, other.max_wait)
        self.max_hold = max(self.max_hold, other.max_hold)


class Mutex(object):
    """FIFO mutual exclusion with wait/hold statistics.

    Usage inside a process::

        yield lock.acquire()
        try:
            ...critical section...
        finally:
            lock.release()
    """

    __slots__ = ("sim", "name", "stats", "_owner", "_granted_at", "_waiters",
                 "_acq_name")

    def __init__(self, sim, name="lock"):
        self.sim = sim
        self.name = name
        self.stats = LockStats()
        self._owner = None
        self._granted_at = 0.0
        self._waiters = deque()
        self._acq_name = "acquire:%s" % name  # formatted once, not per call

    @property
    def locked(self):
        return self._owner is not None

    @property
    def queue_len(self):
        """Number of waiters (excluding the current holder)."""
        return len(self._waiters)

    def acquire(self, who=None):
        """Return an event that triggers once the lock is held."""
        sim = self.sim
        if self._owner is None:
            # _grant() with a zero wait, on the shared pre-triggered event.
            event = sim.granted
            self._owner = who if who is not None else event
            self._granted_at = sim.now
            self.stats.acquisitions += 1
            return event
        event = Event(sim, name=self._acq_name)
        self._waiters.append((event, who, sim.now))
        return event

    def _grant(self, event, who, requested_at):
        self._owner = who if who is not None else event
        self._granted_at = self.sim.now
        self.stats.record_wait(self.sim.now - requested_at)

    def release(self):
        """Release the lock, handing it to the next FIFO waiter."""
        if self._owner is None:
            raise SimulationError("release of unheld lock %r" % self.name)
        self.stats.record_hold(self.sim.now - self._granted_at)
        if self._waiters:
            event, who, requested_at = self._waiters.popleft()
            self._grant(event, who, requested_at)
            event.succeed()
        else:
            self._owner = None


class Semaphore(object):
    """A counting semaphore with FIFO wakeups."""

    __slots__ = ("sim", "name", "capacity", "_available", "_waiters",
                 "_acq_name")

    def __init__(self, sim, capacity, name="sem"):
        if capacity < 0:
            raise SimulationError("semaphore capacity must be >= 0")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._available = capacity
        self._waiters = deque()
        self._acq_name = "sem:%s" % name

    @property
    def available(self):
        return self._available

    @property
    def queue_len(self):
        return len(self._waiters)

    def acquire(self):
        """Return an event that triggers once a unit is held."""
        if self._available > 0:
            self._available -= 1
            return self.sim.granted
        event = Event(self.sim, name=self._acq_name)
        self._waiters.append(event)
        return event

    def release(self):
        """Return one unit, waking the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._available += 1
            if self._available > self.capacity:
                raise SimulationError(
                    "semaphore %r over-released" % self.name
                )


class Store(object):
    """An unbounded (or bounded) FIFO channel of items.

    ``put`` returns an event that triggers when the item is accepted (always
    immediately for unbounded stores); ``get`` returns an event that triggers
    with the oldest item.
    """

    __slots__ = ("sim", "name", "capacity", "_items", "_getters", "_putters",
                 "_put_name", "_get_name")

    def __init__(self, sim, capacity=None, name="store"):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items = deque()
        self._getters = deque()
        self._putters = deque()  # (event, item)
        self._put_name = "put:%s" % name
        self._get_name = "get:%s" % name

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Offer ``item``; the returned event triggers once it is enqueued."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            event = Event(self.sim, name=self._put_name)
            self._putters.append((event, item))
            return event
        return self.sim.granted

    def get(self):
        """Take the oldest item; the returned event triggers with it."""
        event = Event(self.sim, name=self._get_name)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_event, queued = self._putters.popleft()
                self._items.append(queued)
                put_event.succeed()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def abort_getters(self, exc):
        """Fail every waiting getter with ``exc``.

        Used to tear down consumer loops when the producer side dies (a
        crashed Danaus service): a blocked ``get()`` raises ``exc`` in
        the waiting process instead of leaking forever.
        """
        getters, self._getters = self._getters, deque()
        for event in getters:
            event.fail(exc)

    def try_get(self):
        """Non-blocking take; returns ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_event, queued = self._putters.popleft()
                self._items.append(queued)
                put_event.succeed()
            return True, item
        return False, None

"""Processor-core model.

Cores are the contended hardware resource at the heart of the paper's
motivation: the Linux kernel "steals" idle cores of other container pools
to flush dirty pages, so a pool's performance depends on *whose* cores its
I/O is processed on. We model each core as a FIFO run queue; computation is
expressed as ``yield from thread.run(cpu_seconds)`` which slices the work
into scheduling quanta so that competing threads interleave.

Key concepts:

* :class:`Core` — one hardware core with a run queue and cumulative busy
  time (for utilisation reporting).
* :class:`SimThread` — a schedulable entity with a *cpuset* (the cores it
  may run on, i.e. its cgroup cpuset) and optional *pinning* to a single
  core (Danaus pins service and application threads, §3.5).
* :class:`UtilizationProbe` — samples busy time over a window to report
  per-core utilisation like the paper's line charts.
"""

from math import inf

from repro.common.errors import SimulationError, ThreadKilled
from repro.sim.sync import Mutex

__all__ = ["Core", "SimThread", "UtilizationProbe", "DEFAULT_QUANTUM"]

#: Default scheduling quantum (seconds). Work longer than this is sliced so
#: that contending threads share a core rather than running to completion.
DEFAULT_QUANTUM = 0.0005


class Core(object):
    """A single hardware core: a FIFO run queue plus busy-time accounting."""

    __slots__ = ("sim", "index", "name", "_mutex", "busy_time", "last_thread")

    def __init__(self, sim, index, name=None):
        self.sim = sim
        self.index = index
        self.name = name or ("core%d" % index)
        self._mutex = Mutex(sim, name="runq:%s" % self.name)
        self.busy_time = 0.0
        self.last_thread = None

    @property
    def load(self):
        """Current run-queue length (running + waiting threads)."""
        return self._mutex.queue_len + (1 if self._mutex.locked else 0)

    def __repr__(self):
        return "<Core %s load=%d>" % (self.name, self.load)


class SimThread(object):
    """A schedulable thread of execution.

    Attributes:
        cpuset: list of :class:`Core` the thread may run on (its cgroup).
        pinned: a single :class:`Core` or None; set by Danaus drivers.
        ctx_switches: count of core handoffs where this thread displaced a
            different one — an approximation of involuntary+voluntary
            context switches, complemented by the explicit counts the FUSE
            and IPC transports record.
    """

    __slots__ = ("sim", "name", "cpuset", "pinned", "ctx_switches",
                 "cpu_time", "killed")

    def __init__(self, sim, name, cpuset):
        if not cpuset:
            raise SimulationError("thread %r needs a non-empty cpuset" % name)
        self.sim = sim
        self.name = name
        self.cpuset = list(cpuset)
        self.pinned = None
        self.ctx_switches = 0
        self.cpu_time = 0.0
        self.killed = False

    def kill(self):
        """Mark the thread dead: its owning process was killed.

        The thread is not interrupted in place (that could leak a held
        core grant); instead :meth:`run` raises
        :class:`~repro.common.errors.ThreadKilled` at the next scheduling
        point, so the executing code unwinds through its ``finally``
        blocks and stops mutating shared state.
        """
        self.killed = True

    def pin(self, core):
        """Pin the thread to ``core`` (must be inside the cpuset)."""
        if core not in self.cpuset:
            raise SimulationError(
                "cannot pin %s to %s outside its cpuset" % (self.name, core.name)
            )
        self.pinned = core

    def set_cpuset(self, cores):
        """Move the thread to a new cpuset (cgroup reconfiguration)."""
        if not cores:
            raise SimulationError("empty cpuset for %r" % self.name)
        self.cpuset = list(cores)
        if self.pinned is not None and self.pinned not in self.cpuset:
            self.pinned = None

    def pick_core(self):
        """Choose the core for the next slice: pinned, else least loaded.

        Ties on instantaneous run-queue length break toward the core with
        the least accumulated busy time — the load-balancing behaviour of
        a real scheduler. Without it, roaming kernel threads (flushers,
        kworkers) would pile onto the lowest-numbered cores and never
        spread onto idle neighbour cores, hiding the core stealing the
        paper measures (Fig. 1a).
        """
        if self.pinned is not None:
            return self.pinned
        cpuset = self.cpuset
        best = cpuset[0]
        if len(cpuset) == 1:
            return best
        mux = best._mutex
        best_load = len(mux._waiters) + (mux._owner is not None)
        best_busy = best.busy_time
        for core in cpuset[1:]:
            mux = core._mutex
            load = len(mux._waiters) + (mux._owner is not None)
            if load < best_load or (load == best_load
                                    and core.busy_time < best_busy):
                best = core
                best_load = load
                best_busy = core.busy_time
        return best

    def run(self, cpu_seconds, quantum=DEFAULT_QUANTUM):
        """Consume ``cpu_seconds`` of processor time on the cpuset.

        Generator; the work is sliced into ``quantum``-sized pieces, each
        dispatched to the currently least-loaded permitted core, so that
        contention shows up as queueing delay rather than being ignored.
        """
        if not 0 <= cpu_seconds < inf:  # NaN fails both bounds
            raise SimulationError(
                "cpu time must be finite and >= 0, got %r" % (cpu_seconds,))
        sim = self.sim
        ready = sim._ready
        heap = sim._heap
        remaining = cpu_seconds
        # pick_core() is inlined here: this loop runs once per quantum
        # for every simulated CPU charge in every experiment. On an idle
        # core the grant is taken in place and the slice is a plain
        # sleep, so a quantum costs one heap entry, no Event and one
        # generator resume; when nothing else is due before the slice
        # ends, not even those.
        while remaining > 1e-12:
            if self.killed:
                raise ThreadKilled("thread %s was killed" % self.name)
            piece = remaining if remaining < quantum else quantum
            core = self.pinned
            if core is None:
                cpuset = self.cpuset
                core = cpuset[0]
                if len(cpuset) > 1:
                    mux = core._mutex
                    best_load = len(mux._waiters) + (mux._owner is not None)
                    best_busy = core.busy_time
                    for cand in cpuset[1:]:
                        mux = cand._mutex
                        load = len(mux._waiters) + (mux._owner is not None)
                        if load < best_load or (load == best_load
                                                and cand.busy_time < best_busy):
                            core = cand
                            best_load = load
                            best_busy = cand.busy_time
            mux = core._mutex
            stop = sim._stop
            if (mux._owner is None and not (
                    ready or sim._batch
                    or (heap and heap[0][0] <= sim.now)
                    or (stop is not None and stop.triggered))):
                # Mutex.acquire's free grant plus the elision
                # Process._step would make on the sim.granted it returns:
                # same four tests, same sequence number (see "Direct
                # resumption" in repro.sim.engine).
                mux._owner = self
                mux._granted_at = sim.now
                mux.stats.acquisitions += 1
                sim._seq += 1
                sim.elided += 1
            else:
                yield mux.acquire(who=self)
            switched = core.last_thread is not self
            core.last_thread = self
            try:
                when = sim.now + piece
                if (ready or when > sim._deadline
                        or (heap and heap[0][0] <= when)):
                    yield piece
                else:
                    # The slice's wake would be the very next entry
                    # dispatched: take its sequence number and end the
                    # slice in place (see "Direct resumption" in
                    # repro.sim.engine).
                    sim._seq += 1
                    sim.elided += 1
                    sim.now = when
                core.busy_time += piece
                obs = sim.observer
                if obs is not None:
                    obs.record_cpu(core, self, piece, switched)
            finally:
                if mux._waiters:
                    mux.release()
                else:
                    # Mutex.release with nobody to hand the core to.
                    stats = mux.stats
                    hold = sim.now - mux._granted_at
                    stats.total_hold += hold
                    if hold > stats.max_hold:
                        stats.max_hold = hold
                    mux._owner = None
            if switched:
                self.ctx_switches += 1
            self.cpu_time += piece
            remaining -= piece

    def __repr__(self):
        where = self.pinned.name if self.pinned else "%d cores" % len(self.cpuset)
        return "<SimThread %s on %s>" % (self.name, where)


class UtilizationProbe(object):
    """Samples per-core busy time to compute utilisation over a window.

    The paper's line charts report "% utilisation of the cores of pool X";
    this probe snapshots cumulative busy time at start and computes
    ``(busy_delta / elapsed)`` per core on demand.
    """

    def __init__(self, sim, cores):
        self.sim = sim
        self.cores = list(cores)
        self.reset()

    def reset(self):
        self._t0 = self.sim.now
        self._busy0 = [core.busy_time for core in self.cores]

    def utilization(self):
        """Mean utilisation (0..1) per core across the window so far."""
        elapsed = self.sim.now - self._t0
        if elapsed <= 0:
            return 0.0
        busy = sum(
            core.busy_time - b0 for core, b0 in zip(self.cores, self._busy0)
        )
        return busy / (elapsed * len(self.cores))

    def total_utilization(self):
        """Summed utilisation across cores (e.g. 122% = 1.22 of one core)."""
        elapsed = self.sim.now - self._t0
        if elapsed <= 0:
            return 0.0
        busy = sum(
            core.busy_time - b0 for core, b0 in zip(self.cores, self._busy0)
        )
        return busy / elapsed

"""The unified observability core: event sink, spans, profiles.

One :class:`Observer` replaces the previously separate tracing and
metric surfaces. It is attached through ``World.observe(...)``, which
installs it as ``sim.observer`` — the one handle every layer reads,
``sim.trace`` included — and collects two kinds of evidence:

* **events** — flat flight-recorder records, in a ring buffer so the
  *most recent* window survives overflow;
* **spans** — nested begin/end intervals riding the DES clock, with
  parent/child structure and on-CPU time attribution (the profiling
  analogue of the paper's "our kernel profiling showed…").

Counters and gauges are not the observer's: components write them into
the simulator's one registry (``sim.metrics(scope)``) attached or not,
and :meth:`Observer.metrics` / :meth:`Observer.scopes` read that
registry. Events, spans and the per-op sample series are strictly
opt-in: with no observer attached, each of those sites is a single
attribute check on the simulator.
"""

from collections import deque

__all__ = ["TraceEvent", "Span", "Observer"]


class TraceEvent(object):
    """One recorded occurrence."""

    __slots__ = ("time", "category", "name", "detail")

    def __init__(self, time, category, name, detail):
        self.time = time
        self.category = category
        self.name = name
        self.detail = detail

    def __repr__(self):
        return "<TraceEvent %.6f %s/%s %r>" % (
            self.time, self.category, self.name, self.detail,
        )


class Span(object):
    """One timed interval on the simulation clock.

    Spans nest per thread: a span opened while another span of the same
    thread is open becomes its child, so exported stacks reproduce the
    layer structure (vfs → fuse → client → cluster). ``cpu`` is the
    thread's consumed CPU time over the interval; ``self_cpu`` excludes
    the CPU attributed to child spans.
    """

    __slots__ = ("obs", "name", "category", "thread", "pool", "args",
                 "t0", "t1", "cpu0", "cpu1", "parent", "path", "child_cpu",
                 "_open")

    def __init__(self, obs, name, category, thread, pool, args):
        self.obs = obs
        self.name = name
        self.category = category
        self.thread = thread
        self.pool = pool
        self.args = args
        self.t0 = obs.sim.now
        self.t1 = None
        self.cpu0 = thread.cpu_time if thread is not None else 0.0
        self.cpu1 = None
        self.parent = None
        self.path = (name,)
        self.child_cpu = 0.0
        self._open = True

    @property
    def duration(self):
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    @property
    def cpu(self):
        return (self.cpu1 - self.cpu0) if self.cpu1 is not None else 0.0

    @property
    def self_cpu(self):
        return max(self.cpu - self.child_cpu, 0.0)

    def end(self):
        """Close the span at the current simulation time."""
        if self._open:
            self._open = False
            self.obs._end_span(self)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end()
        return False

    def __repr__(self):
        state = "open" if self._open else "%.6fs" % self.duration
        return "<Span %s %s>" % ("/".join(self.path), state)


def _dispatch_row(label, registry, samples):
    """One dispatch-profile row: the ``samples`` histogram's
    distribution plus the ``inflight`` gauge's high-water mark."""
    hist = registry.histograms.get(samples)
    inflight = registry.gauges.get("inflight")
    return {
        "scope": label,
        "samples": hist.count if hist is not None else 0,
        "mean": hist.mean if hist is not None else 0.0,
        "max": hist.max if hist is not None else 0,
        "inflight_hw": inflight.high_water if inflight is not None else 0,
    }


class Observer(object):
    """One attached observability instance: events, spans, profiles."""

    def __init__(self, sim, categories=None, capacity=100000, world=None):
        self.sim = sim
        self.world = world
        self.categories = set(categories) if categories is not None else None
        self.capacity = capacity
        self.records = deque(maxlen=capacity)
        self.dropped = 0
        self.spans = deque(maxlen=capacity)
        self._stacks = {}  # SimThread -> [open Span, ...]
        self._timelines = {}  # name -> [(t, value), ...]
        self._cpu = {}  # (core name, thread name) -> seconds
        self._switches = {}  # thread name -> involuntary switch count

    # -- event sink ------------------------------------------------------

    def wants(self, category):
        return self.categories is None or category in self.categories

    def emit(self, time, category, name, **detail):
        if not self.wants(category):
            return
        if len(self.records) >= self.capacity:
            self.dropped += 1  # ring buffer: the oldest record falls off
        self.records.append(TraceEvent(time, category, name, detail))

    def events(self, category=None, name=None):
        """Recorded events, optionally filtered."""
        out = list(self.records)
        if category is not None:
            out = [e for e in out if e.category == category]
        if name is not None:
            out = [e for e in out if e.name == name]
        return out

    def summary(self):
        """Counts per (category, name), sorted by frequency.

        When the ring buffer overflowed, a ``("trace", "dropped")`` entry
        reports how many old events were evicted to keep the most recent
        window.
        """
        counts = {}
        for event in self.records:
            key = (event.category, event.name)
            counts[key] = counts.get(key, 0) + 1
        out = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)
        if self.dropped:
            out.append((("trace", "dropped"), self.dropped))
        return out

    def clear(self):
        self.records.clear()
        self.dropped = 0
        self.spans.clear()
        self._stacks.clear()
        self._timelines.clear()
        self._cpu.clear()
        self._switches.clear()

    # -- metric registries (a view of the simulator's) --------------------

    def metrics(self, scope):
        """The simulator's registry for ``scope`` (get-or-create)."""
        return self.sim.metrics(scope)

    def scopes(self):
        """Sorted scope names of the simulator's registry."""
        return self.sim.scopes()

    # -- spans -------------------------------------------------------------

    @staticmethod
    def _thread_of(owner):
        """``owner`` may be a Task, a SimThread, or None."""
        return getattr(owner, "thread", owner)

    @staticmethod
    def _pool_of(owner):
        pool = getattr(owner, "pool", None)
        return pool.name if pool is not None else None

    def span(self, owner, name, category="span", **args):
        """Open a span on ``owner`` (Task, SimThread or None).

        Returns the open :class:`Span`; close it with ``end()`` or use it
        as a context manager. Spans of the same thread nest.
        """
        thread = self._thread_of(owner)
        span = Span(self, name, category, thread, self._pool_of(owner), args)
        if thread is not None:
            stack = self._stacks.get(thread)
            if stack is None:
                stack = self._stacks[thread] = []
            if stack:
                span.parent = stack[-1]
                span.path = span.parent.path + (name,)
            stack.append(span)
        return span

    def _end_span(self, span):
        span.t1 = self.sim.now
        span.cpu1 = (
            span.thread.cpu_time if span.thread is not None else span.cpu0
        )
        if span.thread is not None:
            stack = self._stacks.get(span.thread)
            if stack is not None:
                # Remove by identity: concurrent coroutines may share a
                # thread (the flusher pool), so strict LIFO cannot be
                # assumed.
                for index in range(len(stack) - 1, -1, -1):
                    if stack[index] is span:
                        del stack[index]
                        break
                if not stack:
                    del self._stacks[span.thread]
        if span.parent is not None:
            span.parent.child_cpu += span.cpu
        if len(self.spans) >= self.capacity:
            self.dropped += 1
        self.spans.append(span)

    def span_summary(self):
        """Per span name: count, wall seconds, CPU seconds (sorted)."""
        rollup = {}
        for span in self.spans:
            entry = rollup.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
            entry[2] += span.cpu
        return sorted(
            ((name, count, wall, cpu)
             for name, (count, wall, cpu) in rollup.items()),
            key=lambda row: row[2], reverse=True,
        )

    # -- profiling hooks (called by instrumented layers) -------------------

    def record_cpu(self, core, thread, seconds, switched):
        """Attribute one scheduling slice of ``thread`` to ``core``."""
        name = thread.name if thread is not None else "<anon>"
        key = (core.name, name)
        self._cpu[key] = self._cpu.get(key, 0.0) + seconds
        if switched:
            self._switches[name] = self._switches.get(name, 0) + 1

    def sample(self, timeline, value):
        """Append ``(now, value)`` to a named timeline (queue depth, dirty).

        Timelines are rings like the event buffer: the most recent
        ``capacity`` samples survive.
        """
        series = self._timelines.get(timeline)
        if series is None:
            series = self._timelines[timeline] = deque(maxlen=self.capacity)
        series.append((self.sim.now, value))

    def timeline(self, name):
        """The recorded ``(time, value)`` series for ``name`` (may be empty)."""
        return list(self._timelines.get(name, ()))

    def timelines(self):
        return sorted(self._timelines)

    # -- derived profiles ---------------------------------------------------

    def cpu_profile(self):
        """Per-core CPU attribution: {core: {thread: seconds}}."""
        out = {}
        for (core, thread), seconds in self._cpu.items():
            out.setdefault(core, {})[thread] = seconds
        return out

    def ctx_switch_profile(self):
        """Involuntary core-handoff counts per thread name."""
        return dict(self._switches)

    def _pool_names(self):
        pools = set()
        if self.world is not None:
            for host in self.world.hosts:
                for pool in host.engine.pools.values():
                    pools.add(pool.name)
        return pools

    def _core_owners(self):
        """core name -> owning pool name, from the attached world."""
        owners = {}
        if self.world is not None:
            for host in self.world.hosts:
                for pool in host.engine.pools.values():
                    for core in pool.cores:
                        owners[core.name] = pool.name
        return owners

    def core_steal_profile(self):
        """Foreign CPU time per pool-owned core (the paper's Fig. 1a).

        A slice is *foreign* when the running thread does not belong to
        the core's owning pool (pool threads are named ``<pool>.…``) —
        kernel flushers and kworkers burning a reserved neighbour core
        show up here.
        """
        owners = self._core_owners()
        rows = []
        for core, threads in sorted(self.cpu_profile().items()):
            pool = owners.get(core)
            if pool is None:
                continue
            prefix = pool + "."
            busy = sum(threads.values())
            foreign = {
                name: seconds for name, seconds in threads.items()
                if not name.startswith(prefix)
            }
            stolen = sum(foreign.values())
            rows.append({
                "core": core,
                "pool": pool,
                "busy_s": busy,
                "foreign_s": stolen,
                "foreign_pct": 100.0 * stolen / busy if busy else 0.0,
                "top_thieves": sorted(
                    foreign, key=foreign.get, reverse=True
                )[:3],
            })
        return rows

    def lock_table(self):
        """The lock-contention table: wait/hold per lock class, per pool.

        Reads the locks registered on the simulator (kernel lockdep
        classes, Danaus ``client_lock``/per-inode locks) and aggregates
        their :class:`~repro.sim.sync.LockStats` per ``(pool, class)`` —
        the paper's Fig. 1b attribution of ``i_mutex`` versus
        ``client_lock`` wait time.
        """
        from repro.common import units

        pools = self._pool_names()
        merged = {}  # (pool, lock_class) -> [stats fields]
        for scope, lock_class, _instance, lock in self.sim.registered_locks():
            # Scopes look like "fls0.cephk" / "fls0.libceph" (pool-owned
            # mounts) or "kernel" (host-global); the prefix before the
            # first dot is the owning pool when it names one.
            head = scope.split(".", 1)[0]
            pool = head if (not pools or head in pools) and "." in scope \
                else "-"
            stats = lock.stats
            entry = merged.setdefault(
                (pool, lock_class), [0, 0, 0.0, 0.0, 0.0, 0.0]
            )
            entry[0] += stats.acquisitions
            entry[1] += stats.contended
            entry[2] += stats.total_wait
            entry[3] += stats.total_hold
            entry[4] = max(entry[4], stats.max_wait)
            entry[5] = max(entry[5], stats.max_hold)
        rows = []
        for (pool, lock_class), (acq, cont, wait, hold, mw, mh) in sorted(
                merged.items()):
            rows.append({
                "pool": pool,
                "lock_class": lock_class,
                "acquisitions": acq,
                "contended": cont,
                "total_wait_s": wait,
                "total_hold_s": hold,
                "avg_wait_us": (wait / acq / units.USEC) if acq else 0.0,
                "avg_hold_us": (hold / acq / units.USEC) if acq else 0.0,
                "max_wait_us": mw / units.USEC,
                "max_hold_us": mh / units.USEC,
            })
        rows.sort(key=lambda row: row["total_wait_s"], reverse=True)
        return rows

    def dispatch_profile(self):
        """Fan-out dispatch and per-OSD inflight rows (parallel data path).

        One ``client`` row summarises the striped fan-out at the
        dispatch point — how many multi-object calls fanned out, how
        wide, and the inflight-window occupancy high-water — followed by
        one row per ``osdN`` metric scope that served an op, showing the
        server side: ops inflight high-water and the queue depth seen at
        op arrival (the two distributions are per-op samples, kept only
        while an observer is attached).
        """
        scopes = self.scopes()
        rows = []
        if "dispatch" in scopes:
            rows.append(_dispatch_row("client", self.metrics("dispatch"),
                                      "width"))
        osd_scopes = sorted(
            (int(scope[3:]), scope) for scope in scopes
            if scope.startswith("osd") and scope[3:].isdigit()
        )
        for _osd_id, scope in osd_scopes:
            registry = self.metrics(scope)
            if "inflight" in registry.gauges:
                rows.append(_dispatch_row(scope, registry, "qdepth"))
        return rows

    def fabric_profile(self):
        """Cross-machine RPC rows from the world's fabric edge accounting.

        One row per labeled remote endpoint (``osd3``, ``mds.1``):
        round-trip count plus payload bytes sent/received — everything
        that leaves the client machine, as a per-edge load table. Empty
        when the observer has no world or no RPC carried an edge label.
        """
        if self.world is None:
            return []
        return self.world.fabric.edge_profile()

    def fold(self):
        """Flamegraph-style folded stacks from the completed spans.

        One line per distinct span path: ``a;b;c <self-cpu-usec>`` —
        pipe into any flamegraph renderer.
        """
        folded = {}
        for span in self.spans:
            key = ";".join(span.path)
            folded[key] = folded.get(key, 0.0) + span.self_cpu
        return [
            "%s %d" % (key, round(seconds * 1e6))
            for key, seconds in sorted(folded.items())
        ]

    def chrome_trace(self):
        """The run as a Chrome ``trace_event`` JSON dict (Perfetto-ready)."""
        from repro.obs.export import chrome_trace

        return chrome_trace([self])

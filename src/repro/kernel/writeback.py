"""Kernel writeback: flusher threads, dirty thresholds, writer throttling.

This module encodes the paper's *core stealing* mechanism (Fig. 1a): the
kernel's flusher threads are not confined to any container pool's cpuset —
they run on **any activated core of the host**. When a pool's neighbours
are idle, the kernel happily burns their cores to flush the pool's dirty
pages (the paper measures 87-122 % utilisation of the neighbour's cores);
when the neighbours become busy, that capacity disappears and the
write-intensive workload collapses behind dirty throttling.

Components:

* :class:`WritebackDaemon` — ``nr_flushers`` threads waking every
  ``writeback_interval`` (1 s), flushing pages dirtied longer than
  ``expire_interval`` (5 s) ago, and *all* dirty pages of any cgroup above
  its background threshold.
* ``balance_dirty_pages`` — writer-side throttling: a task whose cgroup
  exceeds its ``max_dirty`` limit blocks until flushers make progress.
"""

from repro.common.errors import SimulationError
from repro.sim.cpu import SimThread

__all__ = ["WritebackDaemon"]


class WritebackDaemon(object):
    """Host-wide flusher thread pool with per-cgroup dirty limits."""

    def __init__(self, sim, machine, page_cache, costs, lock_registry):
        self.sim = sim
        self.machine = machine
        self.page_cache = page_cache
        self.costs = costs
        self.locks = lock_registry
        self.metrics = sim.metrics("writeback:%s" % machine.name)
        self._max_dirty = {}  # account -> byte limit
        self._progress_waiters = []
        self._kick_events = []
        self._threads = []
        self._stopped = False
        self._stalled_until = 0.0
        for index in range(costs.nr_flushers):
            thread = SimThread(
                sim, "flusher%d" % index, machine.activated
            )
            self._threads.append(thread)
            sim.spawn(self._flusher_loop(thread), name=thread.name)

    # -- configuration ---------------------------------------------------

    def set_max_dirty(self, account, limit_bytes):
        """Set the dirty-byte ceiling of a cgroup (paper: 50 % of pool RAM)."""
        self._max_dirty[account] = limit_bytes

    def max_dirty(self, account):
        # Default: 20% of the account capacity, echoing dirty_ratio.
        return self._max_dirty.get(account, account.capacity // 5)

    def background_threshold(self, account):
        return self.max_dirty(account) // 2

    def stop(self):
        """Stop the flusher loops (used by tests)."""
        self._stopped = True
        self._kick()

    def stall(self, duration):
        """Fault injection: freeze writeback progress for ``duration``.

        Models a hung kernel flusher (device stall, lock convoy). Because
        the flusher pool is *host-wide*, every colocated container's
        writers pile up in ``balance_dirty_pages`` for the whole window —
        the contrast to a Danaus service crash, whose damage stays inside
        one pool.
        """
        self._stalled_until = max(self._stalled_until, self.sim.now + duration)
        self.sim.trace("wb", "stall", duration=duration)
        self.metrics.counter("wb.stalls").add(1)

    def _wait_stall(self):
        while self.sim.now < self._stalled_until and not self._stopped:
            yield self._stalled_until - self.sim.now

    # -- flusher threads -----------------------------------------------------

    def _kick(self):
        events, self._kick_events = self._kick_events, []
        for event in events:
            event.succeed()

    def _notify_progress(self):
        waiters, self._progress_waiters = self._progress_waiters, []
        for event in waiters:
            event.succeed()

    def _flusher_loop(self, thread):
        sim = self.sim
        while not self._stopped:
            kick = sim.event()
            self._kick_events.append(kick)
            yield sim.any_of([sim.timeout(self.costs.writeback_interval), kick])
            if not kick.triggered:
                # The interval won: this round's kick is dead, drop it so
                # an idle host does not accumulate one per flusher per
                # interval for the next _kick() to wade through.
                self._kick_events.remove(kick)
            if self._stopped:
                return
            yield from self._wait_stall()
            # Core stealing: flushers always run on whatever cores are
            # currently activated on the host.
            thread.set_cpuset(self.machine.activated)
            yield from self._flush_round(thread)

    def _flush_round(self, thread):
        """One pass over the dirty files, flushing what policy demands."""
        sim = self.sim
        wb_lock = self.locks.get("wb_list_lock")
        yield wb_lock.acquire(who=thread)
        try:
            yield from thread.run(self.costs.fs_op, quantum=self.costs.quantum)
            candidates = self.page_cache.dirty_files()
        finally:
            wb_lock.release()
        for cf in candidates:
            account = cf.oldest_dirty_account()
            if account is None:
                continue
            over_background = (
                self.page_cache.account_dirty(account)
                > self.background_threshold(account)
            )
            min_age = None if over_background else self.costs.expire_interval
            yield from self.flush_file(thread, cf, min_age=min_age)

    def flush_file(self, thread, cf, min_age=None, all_pages=False):
        """Flush batches of one file's dirty pages on ``thread``.

        Generator. ``min_age=None`` flushes regardless of age;
        ``all_pages`` keeps batching until no dirty page remains (fsync).
        """
        costs = self.costs
        batch_pages = max(1, costs.flush_batch // costs.page_size)
        yield from self._wait_stall()
        obs = self.sim.observer
        span = obs.span(thread, "wb.flush", "wb",
                        file=str(cf.key)) if obs is not None else None
        try:
            while True:
                picked = self.page_cache.pick_flush_batch(
                    cf, batch_pages, now=self.sim.now, min_age=min_age
                )
                if not picked:
                    return
                if all_pages:
                    # fsync: coalesce every remaining dirty page into one
                    # vectored backend call instead of N batch-sized RPCs
                    # (pick marks pages under-writeback, so repeated picks
                    # return successive disjoint batches until dry).
                    while True:
                        more = self.page_cache.pick_flush_batch(
                            cf, batch_pages, now=self.sim.now, min_age=min_age
                        )
                        if not more:
                            break
                        picked.extend(more)
                # CPU to assemble the writeback batch, on *this* thread's cores.
                yield from thread.run(
                    costs.flush_page_op * len(picked), quantum=costs.quantum
                )
                nbytes = len(picked) * costs.page_size
                if cf.flush_fn is None:
                    raise SimulationError("dirty file %r has no flush_fn" % (cf.key,))
                try:
                    yield from cf.flush_fn(nbytes, picked)
                except BaseException:
                    # The batch did not reach the backend: its pages stay
                    # dirty, and must be pickable again by the next flush.
                    self.page_cache.cancel_writeback(cf, picked)
                    raise
                self.page_cache.clean(cf, picked)
                self.metrics.counter("wb.pages_flushed").add(len(picked))
                if obs is not None:
                    self.sim.trace("wb", "flush", file=str(cf.key),
                                   pages=len(picked))
                    obs.sample("dirty_bytes", self.page_cache.dirty_bytes)
                self._notify_progress()
                if not all_pages and min_age is not None:
                    # Expire-driven flushing: one batch per round per file.
                    return
        finally:
            if span is not None:
                span.end()

    # -- writer-side throttling -------------------------------------------------

    def balance_dirty_pages(self, task, account):
        """Block the writer while its cgroup exceeds its dirty limit.

        This is the kernel's ``balance_dirty_pages``: the writing task
        kicks the flushers and sleeps until enough pages were cleaned.
        """
        if self.page_cache.account_dirty(account) <= self.max_dirty(account):
            return
        obs = self.sim.observer
        span = obs.span(task, "wb.throttle", "wb",
                        account=account.name) if obs is not None else None
        try:
            while self.page_cache.account_dirty(account) > self.max_dirty(account):
                self._kick()
                progress = self.sim.event()
                self._progress_waiters.append(progress)
                timeout = self.sim.timeout(self.costs.writeback_interval)
                yield self.sim.any_of([progress, timeout])
                if obs is not None:
                    self.sim.trace("wb", "throttle", account=account.name)
                self.metrics.counter("wb.throttle_waits").add(1)
        finally:
            if span is not None:
                span.end()

    def fsync(self, task, cf):
        """Synchronously flush every dirty page of a file on the caller."""
        yield from self.flush_file(task.thread, cf, min_age=None, all_pages=True)

"""Throttled backfill: budgeted recovery traffic under client I/O.

The one replica-recovery mechanism, for every failure. Each cluster
owns a :class:`BackfillScheduler` from construction; once started
(:meth:`CephCluster.arm_faults`, or a CRUSH mutation) its process wakes
every ``backfill_interval`` seconds and drains the under-replicated /
misplaced set of :meth:`Monitor.census`, but each target
OSD only accepts ``backfill_bytes_per_osd`` bytes and
``backfill_ops_per_osd`` pushes per cycle — recovery traffic shares the
OSD op queue (and therefore the per-OSD inflight/qdepth profiles) with
foreground client I/O instead of starving it, which is exactly the
recovery-vs-tenant interference the observer's dispatch profiles exist
to show.

Two refinements over copying everything at once:

* **Deferral for down-not-out OSDs.** An object whose only missing
  member is merely *down* (the daemon usually comes back) is deferred
  until the monitor promotes the OSD to *out* — re-replicating early
  would waste budget moving bytes the rejoining OSD already holds.
* **Trimming.** After the acting set fully holds an object, stray
  copies (on drained devices or left behind by remapping) and stale
  records are dropped, converging the cluster to exactly
  ``replicas`` current copies per object.
"""

from repro.common.errors import RETRYABLE
from repro.sim import Interrupt

__all__ = ["BackfillScheduler"]


class BackfillScheduler(object):
    """Budgeted background re-replication sharing the OSD queues."""

    def __init__(self, cluster, interval=None, bytes_per_osd=None,
                 ops_per_osd=None):
        costs = cluster.costs
        self.cluster = cluster
        self.interval = float(
            interval if interval is not None else costs.backfill_interval
        )
        self.bytes_per_osd = (
            bytes_per_osd if bytes_per_osd is not None
            else costs.backfill_bytes_per_osd
        )
        self.ops_per_osd = (
            ops_per_osd if ops_per_osd is not None
            else costs.backfill_ops_per_osd
        )
        self.metrics = cluster.sim.metrics("backfill")
        self._proc = None

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self):
        return self._proc is not None and self._proc.is_alive

    def start(self):
        """Spawn the scheduler loop (idempotent)."""
        if self.running:
            return self._proc
        self._proc = self.cluster.sim.spawn(self._loop(), name="backfill")
        return self._proc

    def stop(self):
        if self.running:
            self._proc.interrupt("backfill stopped")
        self._proc = None

    def _loop(self):
        try:
            while True:
                yield self.interval
                yield from self.cycle()
        except Interrupt:
            return

    # -- work discovery --------------------------------------------------

    def _deferred(self, key):
        """Hold off while a down-not-out OSD still holds a current copy.

        The daemon usually returns before ``osd_out_interval``; pushing
        replicas early wastes budget. Never defers without a prober —
        nothing would ever promote down to out.
        """
        monitor = self.cluster.monitor
        if not monitor.probing:
            return False
        for osd_id in monitor._down:
            if osd_id in monitor._out:
                continue
            osd = self.cluster.osds[osd_id]
            if key in osd._objects and not monitor.is_stale(osd_id, key):
                return True
        return False

    def _work(self):
        """Under-replicated objects due now: [(ino, index, missing)]."""
        return [
            (ino, index, missing)
            for ino, index, missing in self.cluster.monitor.under_replicated()
            if not self._deferred((ino, index))
        ]

    def _stray_ids(self, ino, index, acting, holders):
        """Reachable OSDs whose copy of one object can be trimmed: none
        while the acting set lacks a copy (still degraded: keep every
        copy), else every non-acting OSD storing it — a stale leftover
        or a copy orphaned by remapping/drain."""
        if not all(m in holders for m in acting):
            return []
        monitor = self.cluster.monitor
        return [
            osd.osd_id for osd in self.cluster.osds
            if osd.osd_id not in acting and (ino, index) in osd._objects
            # unreachable copies are revisited when the OSD returns
            and not osd.crashed and monitor.is_up(osd.osd_id)
        ]

    def _strays(self):
        """Live copies to trim: [(ino, index, osd_id)]."""
        return [
            (ino, index, osd_id)
            for ino, index, acting, holders in self.cluster.monitor.census()
            for osd_id in self._stray_ids(ino, index, acting, holders)
        ]

    def idle(self):
        """Nothing left to push or trim (deferred work counts as busy)."""
        for ino, index, acting, holders in self.cluster.monitor.census():
            if holders and not all(m in holders for m in acting):
                return False  # under-replicated
            if self._stray_ids(ino, index, acting, holders):
                return False
        return True

    # -- one cycle -------------------------------------------------------

    def cycle(self):
        """One budgeted pass; sim generator returning bytes moved."""
        monitor = self.cluster.monitor
        budget_bytes = {}
        budget_ops = {}
        moved = 0
        pushes = 0
        deferrals = 0
        for ino, index, missing in self._work():
            source = monitor._pick_source(ino, index)
            if source is None:
                continue  # data loss: nothing to copy from
            for osd_id in missing:
                target = self.cluster.osds[osd_id]
                if target.crashed:
                    continue
                spent = budget_bytes.get(osd_id, 0)
                ops = budget_ops.get(osd_id, 0)
                size = max(target.object_size(ino, index),
                           self.cluster.osds[source].object_size(ino, index))
                if ops >= self.ops_per_osd or (
                        spent and spent + size > self.bytes_per_osd):
                    deferrals += 1
                    continue  # over budget: next cycle
                try:
                    pushed = yield from monitor._push_object(
                        ino, index, source, osd_id
                    )
                except RETRYABLE:
                    # the fabric or the target went away mid-push: the
                    # object is still under-replicated next cycle
                    self.metrics.counter("push_errors").add(1)
                    continue
                moved += pushed
                pushes += 1
                budget_bytes[osd_id] = spent + pushed
                budget_ops[osd_id] = ops + 1
        trimmed = self._trim()
        self.metrics.counter("cycles").add(1)
        if moved:
            self.metrics.counter("bytes_moved").add(moved)
        if pushes:
            self.metrics.counter("objects_pushed").add(pushes)
        if trimmed:
            self.metrics.counter("objects_trimmed").add(trimmed)
        if deferrals:
            self.metrics.counter("budget_deferrals").add(deferrals)
        self.metrics.gauge("degraded_objects").set(
            len(monitor.under_replicated())
        )
        self.metrics.gauge("misplaced_objects").set(len(monitor.misplaced()))
        if (moved or trimmed) and self.idle():
            # Converged: remapped placements are fully materialised, so
            # the fast read path may trust CRUSH again.
            self.cluster.note_backfill_clean()
        return moved

    def _trim(self):
        """Drop stray copies once the acting set fully holds the object."""
        monitor = self.cluster.monitor
        trimmed = 0
        for ino, index, osd_id in self._strays():
            self.cluster.osds[osd_id].drop_object(ino, index)
            monitor.clear_stale(osd_id, (ino, index))
            trimmed += 1
        return trimmed

    def drain(self, max_cycles=200):
        """Run cycles until idle or the cap; sim generator -> idle()."""
        for _ in range(max_cycles):
            if self.idle():
                return True
            yield from self.cycle()
            yield self.interval
        return self.idle()

"""Cluster monitor: OSD liveness, map epochs, degraded placement.

The Ceph MON analogue. It tracks which OSDs are up, bumps a map epoch on
every change, and lets the placement logic route around failed devices:

* an object's *acting set* is its CRUSH preference order
  (:meth:`CrushMap.order`) filtered to live OSDs, so the next preferred
  live device replaces a down one;
* reads fall back to any acting replica holding the data (degraded
  reads);
* :meth:`Monitor.census` is the one scan of stored objects against their
  acting sets; the :class:`~repro.storage.backfill.BackfillScheduler`
  re-replicates what it finds under-replicated, paying real network and
  device costs.

With the heartbeat prober running (:meth:`CephCluster.arm_faults`
starts it), the monitor drives the full Ceph failure lifecycle::

    up --(missed probes / report quorum)--> suspect --> down
    down --(osd_out_interval elapses)-----> out   (backfill re-replicates)
    down --(probe answers)----------------> up    (flap damping may hold
                                                   a bouncy OSD back)

Every transition bumps the osdmap epoch and publishes an immutable
:class:`OsdMap` snapshot to subscribers; OSDs learn the epoch too and
reject data-path ops stamped with an older one (the EOLDEPOCH analogue),
forcing clients to refresh before retrying. That state is always on and
costs no events; only the prober is a process, and it does not exist —
or perturb the event schedule — until ``arm_faults`` starts it. Without
a prober ``mark_down``/``mark_up`` are the admin's (a test's) direct
switches and a client report quorum marks an OSD down on its own.

The paper leaves backend fault tolerance to future work (§9) — this
module makes the substrate whole enough to test that direction.
"""

from repro.common.errors import DataUnavailable

__all__ = ["Monitor", "OsdMap"]


class OsdMap(object):
    """An immutable published view of cluster membership at one epoch.

    Clients resolve placement against a snapshot and stamp data-path RPCs
    with its ``epoch``; OSDs holding a newer map reject the op, which is
    what forces a refresh. ``crush`` is a live reference (the map object
    mutates in place), so ``crush_version`` records the placement
    generation this snapshot was cut at.
    """

    __slots__ = ("epoch", "down", "out", "crush", "crush_version")

    def __init__(self, epoch, down, out, crush):
        self.epoch = epoch
        self.down = frozenset(down)
        self.out = frozenset(out)
        self.crush = crush
        self.crush_version = crush.map_version

    def is_up(self, osd_id):
        return osd_id not in self.down

    def acting_set(self, ino, index):
        """The live OSDs responsible for an object, primary first: its
        CRUSH preference order with down devices skipped."""
        crush = self.crush
        chosen = [
            osd_id for osd_id in crush.order(ino, index)
            if osd_id not in self.down
        ][:crush.replicas]
        if not chosen:
            raise DataUnavailable("no OSD available for (%d,%d)" % (ino, index))
        return chosen

    def __repr__(self):
        return "<OsdMap e%d down=%s out=%s>" % (
            self.epoch, sorted(self.down), sorted(self.out)
        )


class Monitor(object):
    """Tracks OSD liveness and drives recovery."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.epoch = 1
        self._down = set()       # down OR out (out is a subset)
        self._out = set()
        self._suspect = set()
        self._failure_reports = {}  # osd_id -> [report times] in the window
        self._stale = {}  # osd_id -> keys rewritten while that OSD was dead
        self.metrics = cluster.sim.metrics("monitor")
        self._down_since = {}     # osd_id -> sim time of mark_down
        self._down_reason = {}    # osd_id -> "admin" | "heartbeat" | "reports"
        self._flap_times = {}     # osd_id -> [times of down->up transitions]
        self._probation = {}      # osd_id -> earliest rejoin time
        self._hb_misses = {}      # osd_id -> consecutive missed probes
        self._heartbeat_proc = None
        self._subscribers = []
        self._map = OsdMap(self.epoch, self._down, self._out,
                           self.cluster.crush)
        #: the current MdsMap snapshot (the MdsService installs the first)
        self.mdsmap = None

    # -- map publication -------------------------------------------------

    def get_map(self):
        """The current immutable :class:`OsdMap` snapshot."""
        return self._map

    def subscribe(self, callback):
        """Call ``callback(osdmap)`` after every epoch bump (pure only:
        subscribers run inline inside the bump, never yield)."""
        self._subscribers.append(callback)

    def _bump_epoch(self, event, osd_id=None):
        self.epoch += 1
        self._map = OsdMap(self.epoch, self._down, self._out,
                           self.cluster.crush)
        trace = {"epoch": self.epoch}
        if osd_id is not None:
            trace["osd"] = osd_id
        self.cluster.sim.trace("mon", event, **trace)
        self.metrics.counter("epoch_bumps").add(1)
        self.metrics.gauge("map_epoch").set(self.epoch)
        # OSDs learn the new epoch; ops stamped older get rejected.
        for osd in self.cluster.osds:
            osd.map_epoch = self.epoch
        for callback in self._subscribers:
            callback(self._map)

    def publish_mdsmap(self, mdsmap, event="mdsmap"):
        """Publish a new :class:`~repro.storage.mds.MdsMap` snapshot.

        The metadata analogue of an osdmap epoch bump: the MdsService
        builds the immutable map (failover, restart, rejoin) and the
        monitor records + announces it. Clients send MDS ops to the
        active :attr:`mdsmap` names and refresh it on retry boundaries,
        which is what makes a deposed active's EOLDEPOCH reject
        observable.
        """
        self.mdsmap = mdsmap
        self.cluster.sim.trace("mon", event, epoch=mdsmap.epoch)
        self.metrics.counter("mdsmap_epochs").add(1)

    def note_crush_change(self, event):
        """A CRUSH mutation (add/drain/reweight) is a map change too."""
        self._bump_epoch(event)

    # -- liveness --------------------------------------------------------

    def is_up(self, osd_id):
        return osd_id not in self._down

    def is_out(self, osd_id):
        return osd_id in self._out

    def is_suspect(self, osd_id):
        return osd_id in self._suspect

    def up_osds(self):
        return [
            osd_id for osd_id in range(len(self.cluster.osds))
            if self.is_up(osd_id)
        ]

    def has_failures(self):
        """Any OSD currently down, out or under suspicion?"""
        return bool(self._down or self._suspect)

    def mark_down(self, osd_id, reason="admin"):
        """Declare an OSD failed; future placements route around it."""
        self._suspect.discard(osd_id)
        if osd_id not in self._down:
            self._down.add(osd_id)
            self._down_since[osd_id] = self.cluster.sim.now
            self._down_reason[osd_id] = reason
            self.metrics.counter("osd_failures").add(1)
            self._bump_epoch("osd_down", osd_id=osd_id)

    def mark_out(self, osd_id):
        """Down long enough: stop waiting, let backfill re-replicate."""
        if osd_id in self._down and osd_id not in self._out:
            self._out.add(osd_id)
            self.metrics.counter("osd_out").add(1)
            self._bump_epoch("osd_out", osd_id=osd_id)

    def mark_suspect(self, osd_id):
        """Blamed but unconfirmed; the next missed probe confirms down."""
        if osd_id not in self._down:
            self._suspect.add(osd_id)

    def mark_up(self, osd_id):
        """Bring an OSD back; its device contents decide what it holds.

        Records of objects rewritten while the OSD was dead are
        *retained* — the rejoined OSD is excluded from serving those
        objects until backfill pushes fresh bytes and clears the record.
        With the prober running, a bouncy OSD is also held in probation
        (flap damping) instead of rejoining instantly.
        """
        self._failure_reports.pop(osd_id, None)
        self._suspect.discard(osd_id)
        self._hb_misses.pop(osd_id, None)
        if osd_id not in self._down:
            return
        if self.probing and self._flapping(osd_id):
            # Flap damping: the rejoin waits out a probation instead of
            # thrashing the map with another down->up->down cycle.
            now = self.cluster.sim.now
            probation = now + self.cluster.costs.flap_probation
            if self._probation.get(osd_id, 0.0) < probation:
                self._probation[osd_id] = probation
                self.metrics.counter("flaps_damped").add(1)
                self.cluster.sim.trace("mon", "flap_damped", osd=osd_id,
                                       until=probation)
            return
        self._complete_up(osd_id)

    def _complete_up(self, osd_id):
        self._down.discard(osd_id)
        self._out.discard(osd_id)
        self._down_since.pop(osd_id, None)
        self._down_reason.pop(osd_id, None)
        self._probation.pop(osd_id, None)
        self._record_flap(osd_id)
        self._bump_epoch("osd_up", osd_id=osd_id)

    def _record_flap(self, osd_id):
        now = self.cluster.sim.now
        window = self.cluster.costs.flap_window
        times = [
            t for t in self._flap_times.get(osd_id, []) if now - t <= window
        ]
        times.append(now)
        self._flap_times[osd_id] = times

    def _flapping(self, osd_id):
        now = self.cluster.sim.now
        window = self.cluster.costs.flap_window
        times = [
            t for t in self._flap_times.get(osd_id, []) if now - t <= window
        ]
        return len(times) >= self.cluster.costs.flap_threshold

    def report_failure(self, osd_id):
        """Client op-timeout report; enough reports act on the OSD.

        Mirrors the Ceph failure-report path: reports against one OSD are
        counted over a sliding ``failure_report_window`` and only a
        quorum of ``osd_failure_reports`` within it acts — one transient
        blame expires harmlessly. With the prober running the quorum
        makes the OSD *suspect* (the next missed probe confirms down);
        with no prober to confirm it, the quorum marks the OSD down
        directly.
        """
        if osd_id in self._down:
            return
        now = self.cluster.sim.now
        window = self.cluster.costs.failure_report_window
        times = [
            t for t in self._failure_reports.get(osd_id, [])
            if now - t <= window
        ]
        times.append(now)
        self._failure_reports[osd_id] = times
        if len(times) < self.cluster.costs.osd_failure_reports:
            return
        self._failure_reports.pop(osd_id, None)
        if self.probing:
            self.mark_suspect(osd_id)
        else:
            self.mark_down(osd_id, reason="reports")

    def record_stale(self, osd_id, key):
        """Remember that ``key`` was rewritten while ``osd_id`` was dead."""
        self._stale.setdefault(osd_id, set()).add(key)

    def is_stale(self, osd_id, key):
        """Does ``osd_id`` hold a known-stale copy of ``key``?"""
        return key in self._stale.get(osd_id, ())

    def clear_stale(self, osd_id, key):
        """Fresh bytes landed on ``osd_id``; the copy is current again."""
        stale = self._stale.get(osd_id)
        if stale is not None:
            stale.discard(key)
            if not stale:
                del self._stale[osd_id]

    # -- heartbeats ------------------------------------------------------

    @property
    def probing(self):
        """The heartbeat prober runs: it, not the caller, decides down,
        out and rejoin (suspects, out promotion, flap damping)."""
        return self._heartbeat_proc is not None

    def start_heartbeats(self, interval=None):
        """Spawn the heartbeat prober (idempotent)."""
        if self._heartbeat_proc is not None:
            return self._heartbeat_proc
        if interval is None:
            interval = self.cluster.costs.heartbeat_interval
        self._heartbeat_proc = self.cluster.sim.spawn(
            self._heartbeat_loop(float(interval)), name="mon-heartbeat"
        )
        return self._heartbeat_proc

    def _heartbeat_loop(self, interval):
        sim = self.cluster.sim
        costs = self.cluster.costs
        while True:
            yield interval
            for osd in self.cluster.osds:
                osd_id = osd.osd_id
                if osd.crashed:
                    if osd_id in self._down:
                        continue
                    misses = self._hb_misses.get(osd_id, 0) + 1
                    self._hb_misses[osd_id] = misses
                    # A suspect OSD (blamed by reports) is confirmed on
                    # the very next miss; a quiet one gets full grace.
                    grace = 1 if osd_id in self._suspect else \
                        costs.heartbeat_grace
                    if misses >= grace:
                        self._hb_misses.pop(osd_id, None)
                        self.metrics.counter("heartbeat_failures").add(1)
                        self.mark_down(osd_id, reason="heartbeat")
                    continue
                # The probe answered.
                self._hb_misses.pop(osd_id, None)
                self._suspect.discard(osd_id)
                if osd_id in self._down:
                    reason = self._down_reason.get(osd_id)
                    probation = self._probation.get(osd_id)
                    if probation is not None:
                        if sim.now >= probation:
                            self._complete_up(osd_id)
                        continue
                    if reason in ("heartbeat", "reports"):
                        # The daemon answers again; auto-rejoin. Admin
                        # downs (tests, drains) stay down until mark_up.
                        self.mark_up(osd_id)
                    continue
            # down -> out promotion for OSDs that stayed silent
            for osd_id in list(self._down):
                if osd_id in self._out:
                    continue
                since = self._down_since.get(osd_id)
                if since is not None and \
                        sim.now - since >= costs.osd_out_interval:
                    self.mark_out(osd_id)
            # MDS liveness rides the same probe cadence; the check
            # is pure, so heartbeat-only runs keep their event schedule.
            self.cluster.mds_service.check_heartbeats()

    # -- placement under failure ------------------------------------------------

    def acting_set(self, ino, index):
        """The live OSDs responsible for an object, primary first."""
        return self._map.acting_set(ino, index)

    def holders(self, ino, index):
        """Live OSDs that currently store a *current* copy of the object.

        Known-stale copies (rewritten while the holder was dead, not yet
        backfilled) are excluded — a rejoined OSD must not serve them.
        """
        return [
            osd_id for osd_id in self.up_osds()
            if (self.cluster.osds[osd_id].object_size(ino, index) > 0
                or (ino, index) in self.cluster.osds[osd_id]._objects)
            and not self.is_stale(osd_id, (ino, index))
        ]

    # -- recovery ----------------------------------------------------------------

    def census(self):
        """Every stored object once: ``(ino, index, acting, holders)``.

        The one scan under :meth:`under_replicated`, :meth:`misplaced`
        and the backfill scheduler: ``acting`` is the object's acting
        set (primary first), ``holders`` the live OSDs with a current
        copy. A generator over live stores — materialise before mutating.
        """
        seen = set()
        for osd in self.cluster.osds:
            for key in osd._objects:
                if key in seen:
                    continue
                seen.add(key)
                ino, index = key
                yield (ino, index, self.acting_set(ino, index),
                       self.holders(ino, index))

    def under_replicated(self):
        """Objects whose acting set lacks a copy: [(ino, index, missing)]."""
        out = []
        for ino, index, acting, holders in self.census():
            missing = [m for m in acting if m not in holders]
            if missing and holders:
                out.append((ino, index, missing))
        return out

    def misplaced(self):
        """Live current copies sitting outside the acting set:
        [(ino, index, strays)]. Cleaned up by backfill trimming once the
        acting set holds the object."""
        out = []
        for ino, index, acting, holders in self.census():
            strays = [osd_id for osd_id in holders if osd_id not in acting]
            if strays:
                out.append((ino, index, strays))
        return out

    def clean_holders(self, ino, index):
        """Live holders whose copy passes digest verification (no cost).

        With integrity unarmed no digests exist, so every holder reports
        clean and this degenerates to :meth:`holders`.
        """
        return [
            osd_id for osd_id in self.holders(ino, index)
            if self.cluster.osds[osd_id].replica_clean(ino, index)
        ]

    def _pick_source(self, ino, index):
        """The best replica to copy from: clean before dirty, acting
        members before stragglers. ``None`` when nothing is stored live."""
        clean = self.clean_holders(ino, index)
        pool = clean or self.holders(ino, index)
        if not pool:
            return None
        acting = set(self.acting_set(ino, index))
        for osd_id in pool:
            if osd_id in acting:
                return osd_id
        return pool[0]

    def _push_object(self, ino, index, source_id, target_id):
        """Copy one object onto ``target`` without resurrecting stale bytes.

        A client write can land mid-copy (recovery targets are acting
        members, so foreground writes race the backfill). The push
        snapshots the source, transfers, then re-checks the source's
        mutation version: if a write raced the copy the transfer redoes
        from fresh bytes — the pg-log ordering that keeps backfill from
        clobbering newer data. Returns bytes moved.
        """
        source = self.cluster.osds[source_id]
        target = self.cluster.osds[target_id]
        moved = 0
        for _ in range(8):
            obj = source._objects.get((ino, index))
            if obj is None:
                return moved
            version = source.object_version(ino, index)
            data = bytes(obj)
            if target.object_size(ino, index) > len(data):
                # Cut a longer stale copy first so the full-object write
                # below covers every surviving chunk — a rewrite that
                # fully covers a chunk clears its poison, a partial one
                # must not.
                target.apply_truncate(ino, index, len(data))
            yield from self.cluster.fabric.rpc(
                target.write(ino, index, 0, data, self.epoch),
                send_bytes=len(data), recv_bytes=0,
                edge="osd%d" % target.osd_id,
            )
            moved += len(data)
            if source.object_version(ino, index) != version:
                continue  # a write raced the copy: redo from fresh bytes
            self.clear_stale(target_id, (ino, index))
            return moved
        self.metrics.counter("push_races_abandoned").add(1)
        return moved

    def repair_object(self, ino, index, bad):
        """Overwrite replicas that failed verification from a clean copy.

        Used by read-repair and the scrub daemon; sim generator. Returns
        the number of replicas repaired — 0 when no verified-clean source
        exists (the caller quarantines the object instead).
        """
        bad = set(bad)
        clean = [
            osd_id for osd_id in self.clean_holders(ino, index)
            if osd_id not in bad
        ]
        if not clean:
            return 0
        acting = set(self.acting_set(ino, index))
        source = next(
            (osd_id for osd_id in clean if osd_id in acting), clean[0]
        )
        repaired = 0
        for osd_id in sorted(bad):
            osd = self.cluster.osds[osd_id]
            if osd.crashed or not self.is_up(osd_id):
                continue  # a dead replica heals through rejoin + backfill
            yield from self._push_object(ino, index, source, osd_id)
            repaired += 1
        if repaired:
            self.metrics.counter("objects_repaired").add(repaired)
            self.cluster.sim.trace("mon", "repair", ino=ino, index=index,
                                   source=source, replicas=repaired)
            self.cluster.quarantined.discard((ino, index))
        return repaired

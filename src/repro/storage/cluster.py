"""The storage cluster: OSDs + MDS + placement, behind the network fabric.

This is the "server machine" of the testbed: 6 OSDs and 1 MDS in VMs over
ramdisks. Clients interact with it exclusively through the *protocol
methods* here, each of which wraps server work in a network round trip on
the shared fabric — so many clients on the host contend for the same link
and the same OSD queues, exactly like the real deployment.

File data is striped over fixed-size objects (``costs.object_size``);
object placement is computed client-side through the CRUSH map.

One path. Every client-callable op has a single body: placement is
resolved per attempt against the client's osdmap snapshot, the RPC is
stamped with that snapshot's epoch, the attempt runs through
:meth:`CephCluster._retry`, and writes stale-mark what they routed
around. Membership state is always on: every OSD fences ops stamped
with an older epoch, and a rejoined OSD's superseded copies stay
recorded stale until backfill refreshes them. The *daemons* that act on
that state — the monitor's heartbeat prober and the backfill scheduler
— have one switch, :meth:`CephCluster.arm_faults`, which a fault plan
throws on install. ``enable_integrity`` / ``enable_mds_ha`` add modelled
features with a simulated cost (digests, the MDS journal), not a
second body. While no prober runs, every OSD is up and the client's
snapshot is current, no attempt can be lost, so ``_retry`` skips the
attempt/timeout race and runs the attempt inline — the only place the
``resilient`` property is read.

Metadata has one path too. Every cluster runs an
:class:`~repro.storage.mds.MdsService` (one active MDS, no standby) and
every metadata op goes to the active its client's mdsmap snapshot names,
stamped with that snapshot's epoch. Whether mutations are journaled is
decided inside ``storage/mds.py`` alone; ``enable_mds_ha`` attaches the
journal.
"""

from repro.common.errors import (
    RETRYABLE,
    DataCorrupt,
    DataUnavailable,
    InvalidArgument,
    OldEpoch,
    OpTimeout,
)
from repro.common.rope import ByteRope
from repro.sim.sync import Semaphore
from repro.storage.backfill import BackfillScheduler
from repro.storage.crush import CrushMap
from repro.storage.mds import MdsService
from repro.storage.monitor import Monitor
from repro.storage.osd import Osd

__all__ = ["CephCluster"]


class CephCluster(object):
    """A Ceph-like cluster reachable over one network fabric."""

    def __init__(self, sim, fabric, costs, num_osds=6, replicas=1):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs
        self.crush = CrushMap(num_osds, replicas=replicas)
        self.osds = [Osd(sim, i, costs) for i in range(num_osds)]
        self.monitor = Monitor(self)
        #: the metadata service: one active MDS, no standby, no journal
        #: until enable_mds_ha attaches them.
        self.mds_service = MdsService(self)
        #: client-side MdsMap snapshot; like _osdmap, refreshed only on
        #: retry boundaries so fencing is observable.
        self._mdsmap = self.monitor.mdsmap
        self.metrics = sim.metrics("cluster")
        self._cap_clients = {}  # client_id -> client (caps-mode only)
        self._next_client_id = 1
        self._integrity_armed = False
        #: True from the first CRUSH mutation until backfill converges:
        #: placements may name OSDs that do not hold the bytes yet, so
        #: reads must not trust ``crush.primary`` blindly.
        self._remapped = False
        #: the throttled backfill scheduler; exists from construction,
        #: runs once arm_faults (or a CRUSH mutation) starts it.
        self.backfill = BackfillScheduler(self)
        #: objects with no verified-clean replica left; reads raise
        #: DataCorrupt until scrub or a fresh write clears the entry.
        self.quarantined = set()
        #: the background scrub daemon, once started (see start_scrub)
        self.scrub = None
        self._op_hooks = []  # zero-arg callbacks fired after each data op
        #: completed data ops (reads + writes), drives op-count fault triggers
        self.op_count = 0
        #: RPC attempts currently in flight through the retry machinery;
        #: chaos runs assert this drains to zero at convergence.
        self.inflight_attempts = 0
        #: fan-out inflight window: striped per-object ops dispatched
        #: concurrently per client call are bounded by this semaphore
        #: (the objecter's inflight cap). Capacity 1 degenerates to the
        #: old fully-serial dispatch.
        self._window = Semaphore(
            sim, max(1, int(costs.client_inflight_ops)), name="client_window"
        )
        #: peek() assembly memo: (ino, offset, size) -> (witness, bytes).
        #: The witness records which OSD backed each extent and its
        #: store_epoch at assembly time; any byte mutation anywhere on a
        #: backing OSD (including silent fault injection) changes the
        #: epoch and invalidates the entry. See peek().
        self._peek_memo = {}
        #: the client-side osdmap snapshot every op resolves placement
        #: against and stamps its RPCs with. Deliberately NOT refreshed
        #: on every monitor bump — only on retry boundaries
        #: (_refresh_map), which is what makes an OSD's EOLDEPOCH reject
        #: observable.
        self._osdmap = self.monitor.get_map()

    @property
    def mds(self):
        """The metadata service's current active daemon, so direct
        reaches (``.tree``, ``.session_epoch``, ``.node_of``) keep working
        across failover."""
        return self.mds_service.active_daemon()

    def mds_healthy(self):
        """The active MDS live and serving."""
        return self.mds_service.healthy()

    @property
    def degraded(self):
        """True while any OSD is marked down."""
        return bool(self.monitor._down)

    # -- arming (state the one I/O path consults) --------------------------

    def arm_faults(self):
        """Start the failure daemons: heartbeat prober + backfill.

        The one lifecycle switch, thrown by :class:`repro.faults.FaultPlan`
        on install. Once a plan can break things an attempt can be lost,
        so with the prober running ``_retry`` stops taking its inline
        exit (see :attr:`resilient`); crashes are detected by missed
        probes and healed by throttled backfill, for every fault kind.
        """
        self.monitor.start_heartbeats()
        self.backfill.start()

    def enable_integrity(self):
        """Arm end-to-end checksums: digest recording + verified reads.

        Once armed, every OSD records per-chunk digests on write, every
        object read verifies the replica it was served from, and (like
        every arm switch) attempts race the op timeout.
        """
        self._integrity_armed = True
        for osd in self.osds:
            osd.verify_enabled = True
        # Armed verification reports its read-path counters, zeros
        # included, so a clean run still shows the integrity table.
        for name in ("checksum_failures", "read_repairs", "quarantined"):
            self.metrics.counter(name)

    def enable_mds_ha(self, standbys=1):
        """Arm metadata HA: attach the journal and grow the pool to
        ``standbys`` standby-replay daemons.

        Once armed, every metadata mutation journals through the OSD
        write path before acking, and the op-id stamps every mutation
        carries make resends exactly-once. Epoch fencing, op-id stamping
        and the monitor's failover checks run armed or not; a failover
        needs a standby to promote. ``standbys=0`` journals without a
        failover pool — the honest-crash substrate for in-place
        ``mds_down`` recovery.
        """
        self.mds_service.attach_journal(standbys)
        self._mdsmap = self.monitor.mdsmap
        return self.mds_service

    def mds_session_id(self):
        """Allocate a metadata session id (shares the caps id space so
        one client is one principal across both tables)."""
        client_id = self._next_client_id
        self._next_client_id += 1
        return client_id

    def _refresh_mds_map(self):
        """Adopt the monitor's current mdsmap if ours is stale."""
        current = self.monitor.mdsmap
        if current is not self._mdsmap:
            self._mdsmap = current
            self.metrics.counter("mdsmap_refreshes").add(1)

    def add_osd(self, weight=1.0, backfill=True):
        """Grow the cluster by one OSD at runtime; returns the new OSD.

        The CRUSH mutation remaps a weight-proportional slice of objects
        onto the newcomer; the map epoch bumps so in-flight clients get
        EOLDEPOCH'd into refreshing, and backfill (started unless
        ``backfill=False``) materialises the remapped objects before
        trimming the copies they left behind.
        """
        osd_id = self.crush.add_device(osd_id=len(self.osds), weight=weight)
        osd = Osd(self.sim, osd_id, self.costs)
        osd.verify_enabled = self._integrity_armed
        self.osds.append(osd)
        self._remapped = True
        self.monitor.note_crush_change("osd_add")
        if backfill:
            self.backfill.start()
        return osd

    def drain_osd(self, osd_id, backfill=True):
        """Remove an OSD from the CRUSH map; its objects remap away.

        The drained OSD keeps serving reads for the objects it still
        holds until backfill copies them to their new acting sets and
        trims them here — a graceful drain, not a failure.
        """
        self.crush.remove_device(osd_id)
        self._remapped = True
        self.monitor.note_crush_change("osd_drain")
        if backfill:
            self.backfill.start()

    def note_backfill_clean(self):
        """Backfill converged: placements are materialised everywhere."""
        self._remapped = False

    def _refresh_map(self):
        """Adopt the monitor's current osdmap if ours is stale."""
        if self._osdmap.epoch < self.monitor.epoch:
            self._osdmap = self.monitor.get_map()
            self.metrics.counter("map_refreshes").add(1)

    @property
    def resilient(self):
        """True when an attempt can be lost: the failure daemons run,
        integrity is armed, some OSD is down, or the client's map
        snapshot is behind the monitor's (the op will be fenced). Read
        by :meth:`_retry` only — it decides whether an attempt races the
        op timeout, never which body an op runs. MDS state is not in
        it: an MDS never loses an OSD attempt, and every fault plan that
        breaks an MDS runs the prober."""
        return (
            self.monitor.probing
            or self._integrity_armed
            or self._osdmap.epoch < self.monitor.epoch
            or self.degraded
            or any(osd.crashed for osd in self.osds)
        )

    def add_op_hook(self, callback):
        """Register a zero-arg callback fired after every data op.

        Fault plans use this for op-count triggers ("crash OSD 3 after
        500 ops").
        """
        self._op_hooks.append(callback)

    def _notify_op(self):
        self.op_count += 1
        for callback in list(self._op_hooks):
            callback()

    def _attempt(self, gen):
        """Run one RPC attempt; returns ``(ok, value_or_error)``.

        Retryable failures are folded into the tuple so an attempt
        abandoned by the timeout race can never surface an unobserved
        exception and abort the whole simulation.
        """
        self.inflight_attempts += 1
        try:
            value = yield from gen
            return (True, value)
        except RETRYABLE as err:
            return (False, err)
        finally:
            self.inflight_attempts -= 1

    def _retry(self, what, resolve, timeout_scale=1):
        """The one client→OSD op loop: resolve, attempt, back off, resend.

        Each attempt races the client op timeout — unless no attempt
        can be lost (``not self.resilient``), when it runs inline: no
        spawn, no timer. Either way a :data:`RETRYABLE` failure re-enters
        the loop, never escapes raw.

        ``resolve`` re-resolves placement *per attempt* (epoch-aware
        resend) and returns ``(report_osd, gen)``: the attempt generator
        plus the OSD to blame if the race timer — rather than the attempt
        itself — declares the attempt lost (``None`` when blame would be
        ambiguous, e.g. multi-replica writes). An attempt that loses the
        race is abandoned, never interrupted: interrupting work blocked
        inside a server-side semaphore would leak the slot forever, while
        an abandoned attempt completes harmlessly against idempotent
        object state.
        """
        delay = self.costs.retry_backoff
        last_err = None
        for attempt in range(self.costs.retry_attempts):
            if attempt:
                self.metrics.counter("retries").add(1)
                self.metrics.counter("retries_%s" % what).add(1)
                self.sim.trace("cluster", "retry", what=what, attempt=attempt,
                               error=type(last_err).__name__)
                yield delay
                delay = min(delay * 2.0, self.costs.retry_backoff_max)
                # Epoch-aware resend: refresh the osdmap snapshot so
                # resolve() re-resolves against current membership.
                self._refresh_map()
            try:
                report_osd, gen = resolve()
            except RETRYABLE as err:
                last_err = err
                continue
            if not self.resilient:
                try:
                    # nothing can be lost: no spawn, no timer
                    return (yield from gen)
                except RETRYABLE as err:
                    last_err = err  # e.g. fenced: the map moved mid-op
            else:
                proc = self.sim.spawn(self._attempt(gen),
                                      name="rpc:%s" % what)
                timer = self.sim.timeout(
                    self.costs.op_timeout * timeout_scale
                )
                index, value = yield self.sim.any_of([proc, timer])
                if index == 0:
                    ok, outcome = value
                    if ok:
                        return outcome
                    last_err = outcome
                else:
                    last_err = OpTimeout("%s timed out" % what)
                    self.metrics.counter("op_timeouts").add(1)
                    self.metrics.counter("op_timeouts_%s" % what).add(1)
            if isinstance(last_err, OldEpoch):
                # The OSD holds a newer map than the stamp we sent; no
                # blame — refresh immediately so the next attempt (after
                # its backoff) resolves placement from current membership.
                self.metrics.counter("stale_map_rejects").add(1)
                self._refresh_map()
            if isinstance(last_err, OpTimeout):
                blame = getattr(last_err, "osd_id", report_osd)
                if blame is not None:
                    self.monitor.report_failure(blame)
        raise last_err

    def _object_unreachable(self, ino, index):
        """Stored bytes exist, but on no live OSD (data currently lost).

        Distinguishes *lost* data (every replica on a crashed or down
        OSD → :class:`DataUnavailable`) from a genuine hole (no replica
        stored anywhere → reads as zeros/short, never an error).
        """
        key = (ino, index)
        stored = False
        for osd in self.osds:
            if key in osd._objects:
                stored = True
                if not osd.crashed and self.monitor.is_up(osd.osd_id) \
                        and not self.monitor.is_stale(osd.osd_id, key):
                    return False
        return stored

    def _record_stale(self, ino, index):
        """Mark dead OSDs' copies of an object stale after a resend.

        A write that routed around a dead OSD leaves that OSD's surviving
        device copy outdated; the monitor keeps the record across
        ``mark_up`` and every read path skips the copy until backfill
        refreshes it, so a restarted OSD can never serve stale bytes.
        """
        key = (ino, index)
        for osd in self.osds:
            if not (osd.crashed or not self.monitor.is_up(osd.osd_id)):
                continue
            if (key in osd._objects
                    or osd.osd_id in self.crush.placement(ino, index)):
                self.monitor.record_stale(osd.osd_id, key)
        if self._remapped:
            # Remapping leaves live copies outside the acting set (on a
            # drained OSD, or stranded by a straw reshuffle). The write
            # that just landed on the acting members makes those copies
            # outdated: mark them so degraded reads never serve them.
            # Safe because the write succeeded on every acting member.
            try:
                acting = set(self.monitor.acting_set(ino, index))
            except DataUnavailable:
                return
            for osd in self.osds:
                if osd.osd_id in acting or osd.crashed \
                        or not self.monitor.is_up(osd.osd_id):
                    continue
                if key in osd._objects:
                    self.monitor.record_stale(osd.osd_id, key)

    def _read_target(self, ino, index, exclude=(), osdmap=None):
        """The OSD id to read an object from, or ``None`` when no live
        OSD can serve it.

        Honours failures (degraded reads fall back to any live holder)
        and skips ``exclude`` (replicas already rejected by checksum
        verification) as well as known-stale copies (a rejoined OSD must
        not serve bytes a write superseded while it was away). The hole
        fallback — no live OSD stores the object — picks a live,
        non-crashed acting member so the read returns zeros; it never
        targets a dead daemon just because CRUSH named it, which would be
        a doomed RPC (the caller surfaces :class:`DataUnavailable`
        instead). With ``osdmap`` given, placement resolves against that
        snapshot (the client's, whose epoch stamps the op) instead of
        the monitor's current map.
        """
        monitor = self.monitor
        if not self.degraded and not self._remapped and not exclude:
            primary = self.crush.primary(ino, index)
            if not (monitor._stale
                    and monitor.is_stale(primary, (ino, index))):
                return primary
            # The primary rejoined with a known-stale copy that backfill
            # has not refreshed yet: fall through to a current holder.
        if osdmap is None:
            osdmap = monitor.get_map()
        acting = osdmap.acting_set(ino, index)
        for osd_id in acting:
            if osd_id not in exclude \
                    and (ino, index) in self.osds[osd_id]._objects \
                    and not monitor.is_stale(osd_id, (ino, index)):
                return osd_id
        for osd_id in monitor.holders(ino, index):
            if osd_id not in exclude:
                return osd_id
        for osd_id in acting:
            if osd_id not in exclude and not self.osds[osd_id].crashed:
                return osd_id
        return None

    def _write_targets(self, ino, index, osdmap):
        if not self.degraded and not self._remapped:
            return self.crush.placement(ino, index)
        return osdmap.acting_set(ino, index)

    # -- object striping -------------------------------------------------

    def object_extents(self, offset, size):
        """Split a byte range into per-object ``(index, obj_off, length)``."""
        if offset < 0 or size < 0:
            raise InvalidArgument("negative offset/size")
        extents = []
        object_size = self.costs.object_size
        position = offset
        remaining = size
        while remaining > 0:
            index = position // object_size
            obj_off = position % object_size
            length = min(object_size - obj_off, remaining)
            extents.append((index, obj_off, length))
            position += length
            remaining -= length
        return extents

    # -- fan-out dispatch --------------------------------------------------

    def _windowed(self, gen):
        """Run one fan-out child under the inflight window.

        Failures fold into the returned ``(ok, value_or_error)`` tuple —
        a sibling's failure must never leave this child as an abandoned
        process whose late exception would abort the whole simulation
        (see :meth:`_attempt` for the same pattern on the retry path).
        """
        yield self._window.acquire()
        inflight = self.sim.metrics("dispatch").gauge("inflight")
        inflight.add(1)
        try:
            value = yield from gen
            return (True, value)
        except Exception as err:
            return (False, err)
        finally:
            inflight.add(-1)
            self._window.release()

    def _dispatch(self, jobs, what):
        """Run per-object job generators concurrently; returns their
        results in job order.

        A single job runs inline — no spawn, no window. Multiple jobs
        spawn one child each, bounded by ``costs.client_inflight_ops``;
        every child settles (fold, never raise) before the first failure,
        in dispatch order, is re-raised — so no child is ever abandoned
        mid-RPC holding a server slot.
        """
        if len(jobs) == 1:
            return [(yield from jobs[0])]
        if self.sim.observer is not None:
            self.sim.metrics("dispatch").histogram("width").observe(len(jobs))
        children = [
            self.sim.spawn(self._windowed(gen), name="fanout:%s" % what)
            for gen in jobs
        ]
        outcomes = yield self.sim.all_of(children)
        results = []
        failure = None
        for ok, value in outcomes:
            results.append(value if ok else None)
            if not ok and failure is None:
                failure = value
        if failure is not None:
            raise failure
        return results

    # -- data path (client-callable generators) ---------------------------------

    def read_extent(self, ino, offset, size):
        """Fetch ``[offset, offset+size)`` of file ``ino`` from the OSDs.

        Per-object reads of a striped range fan out concurrently under
        the inflight window. Returns the bytes actually stored (holes
        read as zeros only within stored objects; fully absent tails
        return shorter data). When every replica of a stored object sits
        on a crashed or down OSD, the retries exhaust and
        :class:`DataUnavailable` (EIO) surfaces — never silently-empty
        data.
        """
        jobs = [
            self._read_object(ino, index, obj_off, length)
            for index, obj_off, length in self.object_extents(offset, size)
        ]
        parts = yield from self._dispatch(jobs, "read")
        self.metrics.counter("read_bytes").add(size)
        self._notify_op()
        return b"".join(parts)

    def _read_object(self, ino, index, obj_off, length):
        """Read one object extent through the retry loop; with integrity
        armed, checksum-verify it with replica failover and read-repair.

        Armed, the bytes served are digest-verified against the replica
        they came from (a separate RPC, *outside* the attempt/timeout
        race — :class:`DataCorrupt` must never become an abandoned
        attempt's unobserved exception). A replica failing verification
        is set aside, the read fails over to the next copy, and the
        corrupt replica is repaired in the background from the verified
        one. Only when every live copy fails verification does
        :class:`DataCorrupt` (EIO) surface — bad bytes are never silently
        returned.
        """
        verify = self._integrity_armed
        rejected = set()
        served_by = [None]

        def resolve():
            osdmap = self._osdmap
            if self._object_unreachable(ino, index):
                raise DataUnavailable(
                    "no live replica of object (%d, %d)" % (ino, index)
                )
            osd_id = self._read_target(ino, index, exclude=rejected,
                                       osdmap=osdmap)
            if osd_id is None:
                raise DataUnavailable(
                    "no live OSD can serve object (%d, %d)" % (ino, index)
                )
            served_by[0] = osd_id
            gen = self.fabric.rpc(
                self.osds[osd_id].read(ino, index, obj_off, length,
                                       osdmap.epoch),
                send_bytes=0,
                recv_bytes=length,
                edge="osd%d" % osd_id,
            )
            return osd_id, gen

        verify_redos = 0
        while True:
            data = yield from self._retry("read", resolve)
            if not verify:
                return data
            osd_id = served_by[0]
            try:
                clean = yield from self.fabric.rpc(
                    self.osds[osd_id].verify_range(
                        ino, index, offset=obj_off, size=length
                    ),
                    send_bytes=0,
                    recv_bytes=64,
                    edge="osd%d" % osd_id,
                )
            except RETRYABLE as err:
                # The OSD or fabric died mid-verification: the bytes in
                # hand have unknown provenance, so back off and redo the
                # whole read against the then-current map.
                verify_redos += 1
                if verify_redos >= self.costs.retry_attempts:
                    raise err
                yield self.costs.retry_backoff
                continue
            if clean:
                # a fresh overwrite makes a quarantined object whole again
                self.quarantined.discard((ino, index))
                if rejected:
                    self.sim.spawn(
                        self._read_repair(ino, index, frozenset(rejected)),
                        name="read-repair",
                    )
                return data
            rejected.add(osd_id)
            self.metrics.counter("checksum_failures").add(1)
            self.sim.trace("cluster", "checksum_fail", ino=ino, index=index,
                           osd=osd_id)
            remaining = [
                holder for holder in self.monitor.holders(ino, index)
                if holder not in rejected
            ]
            if not remaining:
                self._quarantine(ino, index)
                raise DataCorrupt(
                    "object (%d, %d): every replica fails checksum "
                    "verification" % (ino, index)
                )

    def _read_repair(self, ino, index, bad):
        """Background read-repair of replicas that failed verification."""
        try:
            repaired = yield from self.monitor.repair_object(ino, index, bad)
        except RETRYABLE:
            self.metrics.counter("repair_deferred").add(1)
            return
        if repaired:
            self.metrics.counter("read_repairs").add(repaired)

    def _quarantine(self, ino, index):
        """Mark an object as having no verified-clean replica."""
        if (ino, index) not in self.quarantined:
            self.quarantined.add((ino, index))
            self.metrics.counter("quarantined").add(1)
            self.sim.trace("cluster", "quarantine", ino=ino, index=index)

    def integrity_errors(self):
        """Corrupt replicas on live OSDs: ``[(osd_id, ino, index)]``.

        Zero-cost sweep over recorded digests (no sim events); the chaos
        harness asserts this is empty at convergence.
        """
        errors = []
        for osd in self.osds:
            if osd.crashed or not self.monitor.is_up(osd.osd_id):
                continue
            for key in sorted(osd._objects):
                ino, index = key
                if not osd.replica_clean(ino, index):
                    errors.append((osd.osd_id, ino, index))
        return errors

    def start_scrub(self, **kwargs):
        """Create (if needed) and start the background scrub daemon."""
        from repro.storage.scrub import ScrubDaemon
        if self.scrub is None:
            self.scrub = ScrubDaemon(self, **kwargs)
        self.scrub.start()
        return self.scrub

    def write_extent(self, ino, offset, data):
        """Write ``data`` at ``offset`` of file ``ino`` to all replicas:
        the one-extent case of :meth:`write_vector`."""
        return self.write_vector(ino, [(offset, data)])

    def _pull_before_write(self, ino, index, targets, spans):
        """Recovery-on-write: materialise the object on copy-less targets.

        A partial overwrite sent to an acting member that never held the
        object would splice onto zero-fill, and a degraded read served
        from that member later would return fabricated zeros for the
        untouched range. Before applying such a write, push the current
        object from a surviving holder onto every acting target lacking
        a current copy. ``spans`` is ``[(obj_off, length)]`` of the
        pieces about to land; a span covering the whole stored object
        makes the pull unnecessary. Only a degraded, remapped or
        stale-holding cluster can have such a target (see the caller).
        """
        key = (ino, index)
        monitor = self.monitor
        holders = set(monitor.holders(ino, index))
        if not holders:
            return  # first write anywhere: the object is being created
        size = max(self.osds[h].object_size(ino, index) for h in holders)
        if any(off == 0 and off + length >= size for off, length in spans):
            return  # the write fully redefines the object
        for osd_id in targets:
            if osd_id in holders or self.osds[osd_id].crashed:
                continue
            source = monitor._pick_source(ino, index)
            if source is None or source == osd_id:
                continue
            yield from monitor._push_object(ino, index, source, osd_id)

    def _fanned_replicas(self, pushes):
        """Run replica-push generators concurrently inside one attempt.

        Children fold their own failures via :meth:`_attempt` (so an
        attempt abandoned by the timeout race can never strand a child
        whose late exception aborts the sim), every push settles before
        the first error re-raises, and rewriting a replica stays
        idempotent — the retry loop simply redoes the whole set.
        """
        if len(pushes) == 1:
            return (yield from pushes[0])
        children = [
            self.sim.spawn(self._attempt(gen), name="replica-push")
            for gen in pushes
        ]
        outcomes = yield self.sim.all_of(children)
        for ok, value in outcomes:
            if not ok:
                raise value
        return outcomes[0][1]

    def write_vector(self, ino, extents):
        """Write many dirty extents of one file in a single fan-out.

        ``extents`` is ``[(offset, data)]`` — a flush batch; ``data`` is
        ``bytes`` or a :class:`~repro.common.rope.ByteRope`. Extents are
        split at object boundaries and grouped per object; each object's
        pieces ship to every replica as *one* vectored RPC (one request,
        one queue slot, one journal+data commit covering their total
        bytes) instead of one RPC per dirty block, and each object
        retries on its own — blame, resend and stale-marking stay at
        object granularity. Objects dispatch concurrently under the
        inflight window. Returns the total bytes written.

        Pieces are cut by reference (see :meth:`ByteRope.split`): the
        payload is not copied here, and the views stay valid across
        retries because the chunks under them are immutable.
        """
        pieces_by_object = {}  # index -> [(obj_off, buffer)]
        total = 0
        for offset, data in extents:
            spans = self.object_extents(offset, len(data))
            pieces = ByteRope.of(data).split(
                [length for _index, _obj_off, length in spans]
            )
            for (index, obj_off, _length), piece in zip(spans, pieces):
                pieces_by_object.setdefault(index, []).append((obj_off, piece))
            total += len(data)
        if not pieces_by_object:
            return 0
        jobs = [
            self._write_object(ino, index, pieces)
            for index, pieces in sorted(pieces_by_object.items())
        ]
        yield from self._dispatch(jobs, "write")
        self.metrics.counter("write_bytes").add(total)
        self._notify_op()
        return total

    def _push_vector(self, ino, osd_id, pieces, epoch):
        """One vectored push: many pieces, one RPC, one commit."""
        nbytes = sum(len(piece) for _index, _off, piece in pieces)
        return (yield from self.fabric.rpc(
            self.osds[osd_id].write_vector(ino, pieces, epoch),
            send_bytes=nbytes,
            recv_bytes=0,
            edge="osd%d" % osd_id,
        ))

    def _write_object(self, ino, index, pieces):
        """Replicated write of one object's ``[(obj_off, buffer)]`` pieces
        with per-attempt target re-resolution.

        Each attempt pushes the *current* target set concurrently; a
        mid-attempt failure retries the whole set (rewriting a replica is
        idempotent: same bytes, same offset). The race timeout keeps the
        conservative replica scaling — a degraded backend can still
        serialise the copies behind one slow OSD.
        """
        chunk = [(index, obj_off, piece) for obj_off, piece in pieces]
        nbytes = sum(len(piece) for _off, piece in pieces)

        def resolve():
            osdmap = self._osdmap
            targets = self._write_targets(ino, index, osdmap)
            if len(targets) < self.costs.pool_min_size:
                raise DataUnavailable(
                    "acting set of (%d, %d) below min_size %d"
                    % (ino, index, self.costs.pool_min_size)
                )

            def attempt():
                if self.degraded or self._remapped or self.monitor._stale:
                    yield from self._pull_before_write(
                        ino, index, targets,
                        [(obj_off, len(piece)) for obj_off, piece in pieces],
                    )
                yield from self._fanned_replicas([
                    self._push_vector(ino, osd_id, chunk, osdmap.epoch)
                    for osd_id in targets
                ])
                return nbytes

            report = targets[0] if len(targets) == 1 else None
            return report, attempt()

        written = yield from self._retry(
            "write", resolve, timeout_scale=self.crush.replicas
        )
        self._record_stale(ino, index)
        return written

    def peek(self, ino, offset, size):
        """Zero-cost assembly of stored bytes (cache-hit reads).

        A client that holds a range resident in its cache already paid the
        network/OSD cost when it fetched the range; re-reading it costs
        nothing, so cache hits read the authoritative object store
        directly. Holes and unwritten tails read as zeros.
        """
        extents = self.object_extents(offset, size)
        sources = [
            self._peek_source(ino, index, obj_off, length)
            for index, obj_off, length in extents
        ]
        # Cache-hit reads re-assemble the same unchanged ranges thousands
        # of times per run; memoise the immutable result, validated by a
        # witness of (osd, store_epoch) per extent. The source choice is
        # recomputed on every call, so replica failover and digest-driven
        # source changes refresh the entry even with no byte mutation.
        witness = tuple(
            (osd.osd_id, osd.store_epoch) if osd is not None else (-1, -1)
            for osd in sources
        )
        key = (ino, offset, size)
        cached = self._peek_memo.get(key)
        if cached is not None and cached[0] == witness:
            return cached[1]
        parts = []
        for (index, obj_off, length), osd in zip(extents, sources):
            obj = osd._objects.get((ino, index)) if osd is not None else None
            if obj is None:
                parts.append(b"\x00" * length)
                continue
            # At most one gather, and none for a whole one-chunk object.
            piece = obj.read(obj_off, length)
            if len(piece) < length:
                piece += b"\x00" * (length - len(piece))
            parts.append(piece)
        data = parts[0] if len(parts) == 1 else b"".join(parts)
        # Only a stored chunk handed back as is goes into the memo: it
        # costs no memory the OSD does not hold anyway (immutable, so a
        # later fault on the replica cannot reach it). A gathered or
        # zero-filled result would be a private copy kept alive here.
        if len(extents) == 1 and obj is not None \
                and data is obj.chunks.get(extents[0][1]):
            if len(self._peek_memo) >= 256:
                self._peek_memo.clear()
            self._peek_memo[key] = (witness, data)
        return data

    def _peek_source(self, ino, index, obj_off, length):
        """The OSD whose store backs a zero-cost peek of one extent.

        A cache hit models re-reading the client's resident copy, which
        was verified when it was fetched — so with integrity armed the
        peek prefers a replica whose digests still pass over the peeked
        range, falling back to the primary's bytes only when every copy
        is suspect (the client's RAM copy cannot rot with the backend).
        """
        target = self._read_target(ino, index)
        if not self._integrity_armed:
            return self.osds[target] if target is not None else None
        candidates = [] if target is None else [target]
        candidates += [
            holder for holder in self.monitor.holders(ino, index)
            if holder != target
        ]
        for osd_id in candidates:
            if self.osds[osd_id].replica_clean(ino, index, obj_off, length):
                return self.osds[osd_id]
        return self.osds[target] if target is not None else None

    def purge(self, ino):
        """Background object deletion after unlink (no client-visible cost)."""
        for osd in self.osds:
            osd.purge_ino(ino)

    def cut(self, ino, size):
        """Cut every stored copy of ``ino`` to ``size`` bytes (no cost).

        The MDS calls this when it applies a truncate, as the cluster
        trims a file's objects itself: no client→OSD RPC, like
        :meth:`purge` after an unlink. A copy on a dead OSD is cut on its
        device too: the operation lands in the pg log and replays during
        recovery, so a restarted OSD can never resurrect bytes past EOF.
        """
        object_size = self.costs.object_size
        keep = (size + object_size - 1) // object_size
        tail = size % object_size
        for osd in self.osds:
            for index in osd.indices_of(ino):
                if index >= keep:
                    osd.apply_truncate(ino, index, 0)
                elif index == keep - 1 and tail:
                    osd.apply_truncate(ino, index, tail)

    # -- capabilities (caps-mode clients) -------------------------------------------

    def register_client(self, client):
        """Register a caps-mode client; returns its client id."""
        client_id = self._next_client_id
        self._next_client_id += 1
        self._cap_clients[client_id] = client
        return client_id

    def acquire_caps(self, client_id, ino, want):
        """Grant ``want`` caps on ``ino``, revoking conflicting holders.

        Sim generator. The conflicting holders' revocation handlers run to
        completion (flushing dirty data, invalidating caches) before the
        grant commits — so the caller pays the coherence latency, exactly
        like a CephFS open racing a writer.
        """
        conflicts = yield from self.mds_call(
            "caps_conflicts", ino, client_id, want
        )
        if conflicts:
            pending = []
            for holder_id, caps in conflicts:
                holder = self._cap_clients.get(holder_id)
                if holder is None:
                    continue
                pending.append(self.sim.spawn(
                    holder.handle_cap_revoke(ino, caps),
                    name="cap-revoke",
                ))
            if pending:
                yield self.sim.all_of(pending)
        held = yield from self.mds_call(
            "caps_commit", ino, client_id, want, conflicts
        )
        self.metrics.counter("caps_grants").add(1)
        return held

    # -- metadata path ------------------------------------------------------------

    def mds_call(self, op_name, *args, **kwargs):
        """Run an MDS operation over the network; returns its result."""
        inner = self._mds_retry(op_name, args, kwargs)
        obs = self.sim.observer
        if obs is None:
            return inner
        return self._observed_mds_call(op_name, inner, obs)

    def _observed_mds_call(self, op_name, inner, obs):
        """Time one MDS round trip: a span on the "net" track plus a
        service-time histogram (runs only with an observer attached)."""
        span = obs.span(None, "mds.%s" % op_name, "mds")
        try:
            result = yield from inner
        finally:
            span.end()
        self.sim.metrics("mds").histogram("service_s").observe(span.duration)
        return result

    def _mds_retry(self, op_name, args, kwargs):
        """Backed-off MDS resend: at-least-once metadata semantics.

        Only transport-level failures (:data:`RETRYABLE`) are retried;
        filesystem errors (``FileNotFound``, ``FileExists``, …) are real
        answers and propagate immediately. No race is needed here — a
        dead MDS raises its own :class:`OpTimeout` after the detection
        window.

        The target daemon is re-resolved *per attempt*: the active its
        client's mdsmap snapshot names — refreshed only on retry boundaries,
        so a deposed active observably fences a stale op
        (:class:`OldEpoch`) before the resend re-routes to the promoted
        standby — and every op is stamped with the snapshot's epoch.
        Client op-id stamps (exactly-once dedup) ride through in
        ``kwargs`` untouched.
        """
        delay = self.costs.retry_backoff
        last_err = None
        for attempt in range(self.costs.retry_attempts):
            if attempt:
                self.metrics.counter("mds_retries").add(1)
                self.sim.trace("cluster", "mds_retry", op=op_name,
                               attempt=attempt,
                               error=type(last_err).__name__)
                yield delay
                delay = min(delay * 2.0, self.costs.retry_backoff_max)
                self._refresh_mds_map()
            mdsmap = self._mdsmap
            daemon = self.mds_service.daemons[mdsmap.active]
            kwargs["map_epoch"] = mdsmap.epoch
            try:
                return (yield from self.fabric.rpc(
                    getattr(daemon, op_name)(*args, **kwargs),
                    send_bytes=256, recv_bytes=256, edge=daemon.edge,
                ))
            except OldEpoch as err:
                self.metrics.counter("mds_stale_map_rejects").add(1)
                last_err = err
            except RETRYABLE as err:
                last_err = err
        raise last_err

    # -- reporting ---------------------------------------------------------------

    @property
    def stored_bytes(self):
        return sum(osd.stored_bytes for osd in self.osds)

    def file_bytes(self, ino):
        """Total stored bytes of a file across OSDs (test helper)."""
        return sum(
            osd.object_size(ino, index)
            for osd in self.osds
            for index in osd.indices_of(ino)
        )

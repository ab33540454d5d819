"""Deterministic fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is a seeded schedule of :class:`FaultAction`\\ s over
one :class:`~repro.world.World`. Every action fires either at a simulated
time (``at=``) or once the cluster has completed a number of data ops
(``after_ops=``); windowed actions (``duration=``) heal themselves. The
plan records every injection in :attr:`FaultPlan.log`, so two runs with
the same seed produce byte-identical fault schedules — the property the
chaos tests assert.

Supported action kinds:

=================  ==========================================================
``osd_crash``      kill OSD ``target`` (daemon dies, device survives)
``osd_restart``    restart OSD ``target`` (the prober rejoins it, backfill
                   refreshes what it missed)
``disk_slow``      multiply OSD ``target``'s device service time by
                   ``factor`` (default 4.0) for ``duration`` (or forever)
``partition``      partition the client-storage fabric for ``duration``
``link_degrade``   stretch fabric latency by ``delay_factor`` and drop
                   ``loss_rate`` of messages for ``duration``
``mds_down``       MDS unavailability window; heals through
                   ``MdsService.restore`` (journal replay: sessions lost,
                   acked namespace rebuilt)
``mds_crash``      SIGKILL the active MDS (un-journaled in-flight
                   mutations are honestly lost; a standby promotes via
                   heartbeats, or ``duration`` restores the daemon in
                   place through journal replay); takes no ``target``
``mds_failover``   administratively promote a standby over the live
                   active (the deposed daemon is fenced by mdsmap epoch,
                   then rejoins as a standby); takes no ``target``
``service_crash``  crash the named Danaus :class:`FilesystemService`
``flusher_stall``  stall the host kernel's writeback for ``duration``
``bitrot``         silently flip ``flips`` bits in one stored replica of a
                   deterministically chosen object (``target`` pins the OSD)
``torn_write``     silently truncate one replica's copy to
                   ``keep_fraction`` of its size (a torn replica write)
``osd_flap``       bounce OSD ``target`` down/up ``count`` times ``period``
                   seconds apart (exercises monitor flap damping)
``osd_add``        grow the cluster by one OSD at runtime (CRUSH remap,
                   throttled backfill onto the newcomer)
``osd_drain``      gracefully drain OSD ``target`` out of the CRUSH map
                   (its objects remap away; backfill migrates, then trims)
=================  ==========================================================

Installing any plan starts the failure daemons
(:meth:`CephCluster.arm_faults`): the monitor's heartbeat prober detects
every crash and rejoins every restart — a plan only kills and revives
daemons, it never tells the monitor — and the throttled backfill
scheduler re-replicates what failures and churn displace. Scheduling any
corruption kind additionally arms cluster integrity (checksum recording,
verified reads, read-repair): the silent faults are only survivable with
verification on.
"""

from repro.common.errors import ConfigError
from repro.common.rng import make_rng

__all__ = [
    "CORRUPTION_KINDS",
    "FaultAction",
    "FaultPlan",
    "KINDS",
    "MDS_HA_KINDS",
]

KINDS = (
    "osd_crash",
    "osd_restart",
    "disk_slow",
    "partition",
    "link_degrade",
    "mds_down",
    "service_crash",
    "flusher_stall",
    "bitrot",
    "torn_write",
    "osd_flap",
    "osd_add",
    "osd_drain",
    "mds_crash",
    "mds_failover",
)

#: Fault kinds that silently corrupt stored replicas (integrity required).
CORRUPTION_KINDS = ("bitrot", "torn_write")

#: Fault kinds that need the metadata-HA machinery (the journal +
#: standby pool + heartbeat-driven failover) armed on install.
MDS_HA_KINDS = ("mds_crash", "mds_failover")

#: poll cadence and bound for corruption actions waiting on stored bytes
#: (client caches hold dirty data until flush, so a mid-run replica store
#: can be legitimately empty — the rot lands once real bytes exist).
_CORRUPT_DEFER_DELAY = 0.25
_CORRUPT_DEFER_POLLS = 240


def _leaves_clean_copy(cluster, pick):
    """Whether another live holder of ``pick``'s object passes its digests."""
    osd_id, (ino, index) = pick
    return any(
        other != osd_id for other in cluster.monitor.clean_holders(ino, index)
    )


class FaultAction(object):
    """One scheduled fault: a kind, a trigger, an optional heal window."""

    __slots__ = ("kind", "at", "after_ops", "target", "duration", "params")

    def __init__(self, kind, at=None, after_ops=None, target=None,
                 duration=None, **params):
        if kind not in KINDS:
            raise ConfigError("unknown fault kind %r" % kind)
        if (at is None) == (after_ops is None):
            raise ConfigError(
                "fault %r needs exactly one of at=/after_ops=" % kind
            )
        if kind in MDS_HA_KINDS and target is not None:
            # The metadata service has one active: there is nothing to
            # aim at.
            raise ConfigError(
                "fault %r takes no target, got %r" % (kind, target)
            )
        self.kind = kind
        self.at = at
        self.after_ops = after_ops
        self.target = target
        self.duration = duration
        self.params = params

    def __repr__(self):
        trigger = (
            "at=%.3f" % self.at if self.at is not None
            else "after_ops=%d" % self.after_ops
        )
        return "<FaultAction %s %s target=%r>" % (self.kind, trigger,
                                                  self.target)


class FaultPlan(object):
    """A seeded, reproducible schedule of faults over one world."""

    def __init__(self, seed=0, mds_standbys=1):
        self.seed = seed
        #: standby-replay daemons created when an HA kind arms the pool
        self.mds_standbys = mds_standbys
        self.actions = []
        #: fired injections, in order: (sim_time, event, kind, target).
        self.log = []
        #: the world's "faults" metric scope, once installed
        self.metrics = None
        #: corruption actions still waiting for stored bytes to damage;
        #: the chaos pipeline waits for this to drain before its final
        #: scrub, so every scheduled corruption lands inside the run.
        self.pending_corruptions = 0
        self._world = None
        self._services = {}
        self._op_triggers = []
        self._installed = False

    # -- authoring -------------------------------------------------------

    def schedule(self, kind, at=None, after_ops=None, target=None,
                 duration=None, **params):
        """Add one action; returns it (plans are built before install)."""
        if self._installed:
            raise ConfigError("plan already installed")
        action = FaultAction(kind, at=at, after_ops=after_ops, target=target,
                             duration=duration, **params)
        self.actions.append(action)
        return action

    @classmethod
    def generate(cls, seed, horizon, num_osds, services=(), osd_crashes=1,
                 partitions=1, service_crashes=1, mds_windows=0,
                 slow_disks=0, bitrot=0, torn_writes=0, flaps=0,
                 osd_adds=0, osd_drains=0, mds_crashes=0, mds_failovers=0,
                 mds_standbys=1):
        """A random-but-reproducible plan over ``horizon`` seconds.

        Every crash gets a matching restart and every window heals well
        inside the horizon, so a workload outliving the plan converges.
        ``flaps``/``osd_adds``/``osd_drains`` schedule membership
        churn. The metadata kinds (``mds_crashes``/``mds_failovers``,
        see :data:`MDS_HA_KINDS`) arm the MDS journal with
        ``mds_standbys`` standby-replay daemons. New kinds draw from the
        rng strictly after the historical ones and only when requested,
        so plans generated with the legacy knobs are bit-identical.
        """
        rng = make_rng(seed, "fault-plan")
        plan = cls(seed, mds_standbys=mds_standbys)
        for _ in range(osd_crashes):
            osd = rng.randrange(num_osds)
            start = horizon * rng.uniform(0.15, 0.40)
            plan.schedule("osd_crash", at=start, target=osd)
            plan.schedule(
                "osd_restart",
                at=start + horizon * rng.uniform(0.10, 0.25),
                target=osd,
            )
        for _ in range(partitions):
            plan.schedule(
                "partition",
                at=horizon * rng.uniform(0.45, 0.60),
                duration=horizon * rng.uniform(0.03, 0.08),
            )
        services = list(services)
        for _ in range(service_crashes if services else 0):
            plan.schedule(
                "service_crash",
                at=horizon * rng.uniform(0.30, 0.75),
                target=services[rng.randrange(len(services))],
            )
        for _ in range(mds_windows):
            plan.schedule(
                "mds_down",
                at=horizon * rng.uniform(0.20, 0.70),
                duration=horizon * rng.uniform(0.02, 0.05),
            )
        for _ in range(slow_disks):
            plan.schedule(
                "disk_slow",
                at=horizon * rng.uniform(0.20, 0.60),
                target=rng.randrange(num_osds),
                duration=horizon * rng.uniform(0.10, 0.20),
                factor=float(rng.choice([2, 4, 8])),
            )
        # Corruption fires mid-run: late enough that data exists to rot,
        # early enough that scrub/read-repair converge inside the horizon.
        for _ in range(bitrot):
            plan.schedule(
                "bitrot",
                at=horizon * rng.uniform(0.30, 0.65),
                flips=int(rng.choice([4, 8, 16])),
            )
        for _ in range(torn_writes):
            plan.schedule(
                "torn_write",
                at=horizon * rng.uniform(0.30, 0.65),
                keep_fraction=rng.uniform(0.25, 0.75),
            )
        # Membership churn: flaps fire early enough that damping and the
        # subsequent rejoin settle in-horizon; adds/drains fire mid-run so
        # backfill migrates remapped objects while the workload mutates.
        for _ in range(flaps):
            plan.schedule(
                "osd_flap",
                at=horizon * rng.uniform(0.20, 0.45),
                target=rng.randrange(num_osds),
                count=2 + rng.randrange(2),
                period=rng.uniform(0.2, 0.5),
            )
        for _ in range(osd_adds):
            plan.schedule("osd_add", at=horizon * rng.uniform(0.30, 0.55))
        for _ in range(osd_drains):
            plan.schedule(
                "osd_drain",
                at=horizon * rng.uniform(0.35, 0.60),
                target=rng.randrange(num_osds),
            )
        # Metadata HA: crashes early enough that promotion + replay (and
        # the duration-healed rejoin) settle in-horizon.
        for _ in range(mds_crashes):
            plan.schedule(
                "mds_crash",
                at=horizon * rng.uniform(0.25, 0.50),
                duration=horizon * rng.uniform(0.15, 0.25),
            )
        for _ in range(mds_failovers):
            plan.schedule("mds_failover",
                          at=horizon * rng.uniform(0.30, 0.60))
        return plan

    def end_time(self):
        """Sim time by which every timed action has fired and healed."""
        end = 0.0
        for action in self.actions:
            if action.at is None:
                continue
            window = action.duration or 0.0
            if action.kind == "osd_flap":
                # A flap bounces for count down+up periods past its start.
                window = max(
                    window,
                    action.params.get("count", 3)
                    * 2.0 * action.params.get("period", 0.3),
                )
            end = max(end, action.at + window)
        return end

    # -- installation ----------------------------------------------------

    def install(self, world, services=()):
        """Arm the world and start the injection driver; returns self.

        ``services`` are the Danaus services addressable by
        ``service_crash`` actions (by ``.name``).
        """
        self._world = world
        self.metrics = world.sim.metrics("faults")
        self._services = {service.name: service for service in services}
        for action in self.actions:
            if action.kind == "service_crash" \
                    and action.target not in self._services:
                raise ConfigError(
                    "service_crash target %r not installed" % action.target
                )
        world.cluster.arm_faults()
        if any(action.kind in CORRUPTION_KINDS for action in self.actions):
            world.cluster.enable_integrity()
        if any(action.kind in MDS_HA_KINDS for action in self.actions):
            world.cluster.enable_mds_ha(standbys=max(1, self.mds_standbys))
        elif any(action.kind == "mds_down" for action in self.actions):
            # Honest mds_down: journal without a failover pool, so the
            # heal replays instead of resurrecting un-acked mutations.
            world.cluster.enable_mds_ha(standbys=0)
        timed = sorted(
            (action for action in self.actions if action.at is not None),
            key=lambda action: action.at,
        )
        self._op_triggers = sorted(
            (action for action in self.actions if action.after_ops is not None),
            key=lambda action: action.after_ops,
        )
        if self._op_triggers:
            world.cluster.add_op_hook(self._on_op)
        world.sim.spawn(self._driver(timed), name="fault-driver")
        self._installed = True
        return self

    # -- firing ----------------------------------------------------------

    def _on_op(self):
        count = self._world.cluster.op_count
        while self._op_triggers and self._op_triggers[0].after_ops <= count:
            self._fire(self._op_triggers.pop(0))

    def _driver(self, timed):
        sim = self._world.sim
        for action in timed:
            if action.at > sim.now:
                yield float(action.at - sim.now)
            self._fire(action)

    def _log(self, action, event):
        sim = self._world.sim
        self.log.append((round(sim.now, 9), event, action.kind, action.target))
        self.metrics.counter("events").add(1)
        sim.trace("fault", event, kind=action.kind, target=action.target)

    def _fire(self, action):
        world = self._world
        cluster = world.cluster
        self._log(action, "inject")
        self.metrics.counter(action.kind).add(1)
        if action.kind == "osd_crash":
            # the monitor detects the silence itself (missed probes)
            cluster.osds[action.target].crash()
        elif action.kind == "osd_restart":
            # the prober rejoins the responding OSD (flap-damped) and
            # the backfill scheduler re-replicates what it missed
            cluster.osds[action.target].restart()
        elif action.kind == "disk_slow":
            factor = action.params.get("factor", 4.0)
            cluster.osds[action.target].device.set_slow_factor(factor)
            if action.duration:
                world.sim.spawn(self._heal(action), name="fault-heal")
        elif action.kind == "partition":
            world.fabric.set_partitioned(True)
            if action.duration:
                world.sim.spawn(self._heal(action), name="fault-heal")
        elif action.kind == "link_degrade":
            world.fabric.set_degraded(
                delay_factor=action.params.get("delay_factor", 1.0),
                loss_rate=action.params.get("loss_rate", 0.0),
                rng=make_rng(self.seed, "link-loss", len(self.log)),
            )
            if action.duration:
                world.sim.spawn(self._heal(action), name="fault-heal")
        elif action.kind == "mds_down":
            daemon = cluster.mds
            action.params["gid"] = daemon.gid  # heal restores this daemon
            daemon.set_available(False)
            if action.duration:
                world.sim.spawn(self._heal(action), name="fault-heal")
        elif action.kind == "mds_crash":
            daemon = cluster.mds
            action.params["gid"] = daemon.gid  # heal restores this daemon
            daemon.crash()
            if action.duration:
                world.sim.spawn(self._heal(action), name="fault-heal")
        elif action.kind == "mds_failover":
            world.sim.spawn(
                cluster.mds_service.failover(),
                name="fault-mds-failover",
            )
        elif action.kind == "service_crash":
            self._services[action.target].crash()
        elif action.kind == "osd_flap":
            world.sim.spawn(self._flap(action), name="fault-flap")
        elif action.kind == "osd_add":
            cluster.add_osd()
        elif action.kind == "osd_drain":
            if action.target in cluster.crush:
                try:
                    cluster.drain_osd(action.target)
                except ConfigError:
                    # Draining would drop capacity below the replica
                    # count (e.g. a concurrent drain got there first).
                    self.metrics.counter("drain_noop").add(1)
                    self._log(action, "noop")
            else:
                self.metrics.counter("drain_noop").add(1)
                self._log(action, "noop")
        elif action.kind == "flusher_stall":
            world.primary.kernel.writeback.stall(action.duration or 1.0)
        elif action.kind in CORRUPTION_KINDS:
            if not self._try_corrupt(action):
                # Nothing flushed yet (dirty data still client-side):
                # defer until some replica holds bytes to damage.
                self.pending_corruptions += 1
                world.sim.spawn(
                    self._deferred_corruption(action),
                    name="fault-corrupt",
                )

    def _try_corrupt(self, action):
        """Inject one corruption action now; False when nothing is stored."""
        cluster = self._world.cluster
        label = "bitrot" if action.kind == "bitrot" else "torn"
        rng = make_rng(self.seed, label, len(self.log))
        victim = self._pick_replica(cluster, rng, action.target)
        if victim is None:
            return False
        osd_id, (ino, index) = victim
        if action.kind == "bitrot":
            cluster.osds[osd_id].inject_bitrot(
                ino, index, rng, flips=action.params.get("flips", 8)
            )
        else:
            cluster.osds[osd_id].inject_torn_write(
                ino, index,
                keep_fraction=action.params.get("keep_fraction", 0.5),
            )
        self._log(action, "corrupt")
        return True

    def _deferred_corruption(self, action):
        """Poll until stored bytes exist, then damage them (bounded)."""
        try:
            for _ in range(_CORRUPT_DEFER_POLLS):
                yield _CORRUPT_DEFER_DELAY
                if self._try_corrupt(action):
                    return
            self.metrics.counter("corruption_noop").add(1)
            self._log(action, "noop")
        finally:
            self.pending_corruptions -= 1

    @staticmethod
    def _pick_replica(cluster, rng, target=None):
        """A deterministic ``(osd_id, (ino, index))`` corruption victim.

        Drawn from the sorted set of non-trivial replicas on live,
        running OSDs at fire time (``target`` pins the OSD), so the same
        seed corrupts the same replica given the same cluster history.
        A draw that would damage an object's last clean replica is
        redrawn from the candidates that would not (a plan never destroys
        data outright); when there are none — a single-replica pool — the
        draw stands. Returns None when nothing is stored yet.
        """
        candidates = []
        for osd in cluster.osds:
            if osd.crashed or not cluster.monitor.is_up(osd.osd_id):
                continue
            if target is not None and osd.osd_id != target:
                continue
            for key, obj in osd._objects.items():
                if len(obj) >= 2:
                    candidates.append((osd.osd_id, key))
        if not candidates:
            return None
        candidates.sort()
        victim = candidates[rng.randrange(len(candidates))]
        if _leaves_clean_copy(cluster, victim):
            return victim
        safe = [pick for pick in candidates
                if _leaves_clean_copy(cluster, pick)]
        return safe[rng.randrange(len(safe))] if safe else victim

    def _flap(self, action):
        """Bounce one OSD down/up repeatedly (the flap-damping fodder)."""
        osd = self._world.cluster.osds[action.target]
        count = action.params.get("count", 3)
        period = float(action.params.get("period", 0.3))
        for _ in range(count):
            if not osd.crashed:
                osd.crash()
            yield period
            osd.restart()
            yield period
        self._log(action, "flap-done")

    def _heal(self, action):
        world = self._world
        yield float(action.duration)
        self._log(action, "heal")
        if action.kind == "partition":
            world.fabric.set_partitioned(False)
        elif action.kind == "link_degrade":
            world.fabric.set_degraded()
        elif action.kind == "disk_slow":
            world.cluster.osds[action.target].device.set_slow_factor(1.0)
        elif action.kind in ("mds_down", "mds_crash"):
            yield from world.cluster.mds_service.restore(
                action.params["gid"]
            )

"""Chaos harness: run a workload under a fault plan, prove integrity.

A :class:`ChaosConfig` wires a complete testbed (world, pool, container
mount, supervised Danaus service), installs a :class:`FaultPlan`, drives a
mutating workload through the fault windows, waits for the system to
*converge* (every fault healed, every retry drained, dirty data flushed)
and then verifies end-to-end data integrity: every file whose last write
was acknowledged must read back with exactly the acknowledged content.

Files whose last write *failed* (an error surfaced to the application)
are excluded — the workload cannot know how much of that write landed —
which mirrors what a real application can assume from POSIX error
returns.

The whole pipeline is deterministic: two calls with the same seed yield
identical fault logs, identical op counts and identical file digests.
"""

import dataclasses
import hashlib

from repro.common import units
from repro.common.errors import ConfigError, FsError, SimulationError
from repro.core import ServiceSupervisor
from repro.faults.plan import FaultPlan
from repro.stacks import StackFactory
from repro.workloads.base import Workload
from repro.world import World, releases_world

__all__ = [
    "ChaosConfig",
    "ChaosFileserver",
    "ChaosResult",
    "run_membership_churn",
]

#: Marks a file whose on-disk content cannot be asserted (failed write).
UNKNOWN = "unknown"

#: Settling time after the last fault heals, before verification.
SETTLE_TIME = 3.0

#: The chaos testbed: an 8-core, 16 GiB client host with 4 cores active
#: and one 2-core, 4 GiB pool.
NUM_CORES = 8
ACTIVE_CORES = 4
RAM_GIB = 16
POOL_CORES = 2
POOL_RAM_GIB = 4

#: Simulated-time budget for one run to converge.
UNTIL = 600.0


class ChaosFileserver(Workload):
    """A mutating fileserver that remembers what it acknowledged.

    Each worker owns a disjoint slice of the file set (no cross-thread
    write races), overwrites its files with deterministic payloads and
    re-reads them while faults fire. The expected-content registry maps
    every file to the payload tag of its last *acknowledged* write; a
    write that errored marks the file :data:`UNKNOWN` until it is
    successfully overwritten.
    """

    name = "chaos-fileserver"

    def __init__(self, fs, pool, duration=12.0, threads=2, nfiles=24,
                 mean_size=32 * 1024, seed=0, directory="/chaos"):
        super().__init__(fs, pool, duration=duration, threads=threads,
                         seed=seed)
        self.nfiles = nfiles
        self.mean_size = mean_size
        self.directory = directory
        self.expected = {}  # index -> (size, tag) | UNKNOWN
        self.read_mismatches = []  # online read-back failures

    def _path(self, index):
        return "%s/f%04d" % (self.directory, index)

    def _payload_for(self, index, worker_id, round_no, rng):
        size = max(int(self.mean_size * rng.uniform(0.5, 1.5)), 4096)
        tag = (index, worker_id, round_no)
        return size, tag, self.payload(size, tag)

    def setup(self, task):
        yield from self.fs.makedirs(task, self.directory)

    def worker(self, task, worker_id, rng):
        owned = [
            index for index in range(self.nfiles)
            if index % self.threads == worker_id
        ]
        round_no = 0
        while not self.expired:
            round_no += 1
            index = owned[rng.randrange(len(owned))]
            size, tag, data = self._payload_for(index, worker_id, round_no, rng)
            self.expected[index] = UNKNOWN  # in flight: content undecided
            try:
                yield from self.timed_op(
                    self.fs.write_file(task, self._path(index), data)
                )
            except FsError:
                self.result.errors += 1
                continue
            self.expected[index] = (size, tag)
            self.result.bytes_written += size
            if self.expired:
                break
            check = owned[rng.randrange(len(owned))]
            expectation = self.expected.get(check)
            try:
                got = yield from self.timed_op(
                    self.fs.read_file(task, self._path(check))
                )
            except FsError:
                self.result.errors += 1
                continue
            self.result.bytes_read += len(got)
            if expectation not in (None, UNKNOWN) \
                    and self.expected.get(check) is expectation:
                want_size, want_tag = expectation
                want = self.payload(want_size, want_tag)
                if got != want:
                    diff_at = next(
                        (i for i, (a, b) in enumerate(zip(got, want))
                         if a != b),
                        min(len(got), len(want)),
                    )
                    self.read_mismatches.append(
                        (check, want_tag, round(self.sim.now, 6),
                         len(got), want_size, diff_at)
                    )

    # -- final verification ------------------------------------------------

    def verify(self, task):
        """Re-read every acknowledged file and compare checksums.

        Sim generator; returns ``(digests, checked, skipped, mismatches)``
        where ``digests`` maps file index to the blake2b hex digest of
        the bytes read back (the determinism fingerprint).
        """
        digests = {}
        checked = 0
        skipped = 0
        mismatches = []
        for index in sorted(self.expected):
            expectation = self.expected[index]
            if expectation is UNKNOWN:
                skipped += 1
                continue
            size, tag = expectation
            try:
                data = yield from self.fs.read_file(task, self._path(index))
            except FsError as err:
                # An acknowledged file that cannot be read back (e.g.
                # DataCorrupt on an unrepairable object) is an integrity
                # failure, not a harness crash.
                digests[index] = "error:%s" % type(err).__name__
                checked += 1
                mismatches.append((index, tag, -1, size))
                continue
            digests[index] = hashlib.blake2b(data, digest_size=16).hexdigest()
            checked += 1
            if data != self.payload(size, tag):
                mismatches.append((index, tag, len(data), size))
        return digests, checked, skipped, mismatches


class ChaosResult(object):
    """Outcome of one chaos run: integrity verdict + determinism handles."""

    def __init__(self, seed, plan_log, digests, checked, skipped, mismatches,
                 read_mismatches, workload_result, converged, retries,
                 service_restarts, corruptions=0, integrity_errors=(),
                 quarantined=(), repairs=0, scrub_converged=True,
                 membership_converged=True, under_replicated=(),
                 map_epoch=0, backfill_objects=0, backfill_bytes=0):
        self.seed = seed
        self.plan_log = plan_log
        self.digests = digests
        self.files_checked = checked
        self.files_skipped = skipped
        self.mismatches = mismatches
        self.read_mismatches = read_mismatches
        self.workload_result = workload_result
        self.converged = converged
        self.retries = retries
        self.service_restarts = service_restarts
        #: corruption injections that found a replica to damage
        self.corruptions = corruptions
        #: corrupt replicas still live at convergence: [(osd, ino, index)]
        self.integrity_errors = list(integrity_errors)
        #: objects quarantined (no clean replica) at convergence
        self.quarantined = sorted(quarantined)
        #: replicas repaired (read-repair + scrub) over the run
        self.repairs = repairs
        #: True when the final deep-scrub drain reached a clean pass
        self.scrub_converged = scrub_converged
        #: True when membership settled: the prober rejoined every OSD
        #: and the backfill drain reached idle (part of ``ok`` for every
        #: run — every plan runs on heartbeats and backfill)
        self.membership_converged = membership_converged
        #: object keys still under-replicated at convergence
        self.under_replicated = sorted(under_replicated)
        #: final osdmap epoch (1 when membership never changed)
        self.map_epoch = map_epoch
        #: objects and bytes the backfill scheduler pushed over the run
        self.backfill_objects = backfill_objects
        self.backfill_bytes = backfill_bytes

    @property
    def ok(self):
        return (
            self.converged
            and self.scrub_converged
            and self.membership_converged
            and not self.under_replicated
            and not self.mismatches
            and not self.read_mismatches
            and not self.integrity_errors
            and not self.quarantined
        )

    def fingerprint(self):
        """A hashable determinism fingerprint of the whole run."""
        return (
            tuple(self.plan_log),
            tuple(sorted(self.digests.items())),
            self.workload_result.ops,
            self.workload_result.bytes_written,
        )

    def fingerprint_hex(self):
        """:meth:`fingerprint` as a stable hex string: the form run
        records and committed fingerprint tables hold."""
        return hashlib.blake2b(
            repr(self.fingerprint()).encode(), digest_size=16
        ).hexdigest()

    def __repr__(self):
        return "<ChaosResult seed=%s ok=%s checked=%d skipped=%d>" % (
            self.seed, self.ok, self.files_checked, self.files_skipped,
        )


@dataclasses.dataclass
class ChaosConfig:
    """Declarative configuration of one chaos run.

    One record the spec compiler can build from a plain dict. Fields
    group into workload shape (``symbol``/``duration``/``threads``/...),
    cluster topology (``num_osds``/``replicas``), the fault mix (counts
    per :class:`FaultPlan` kind) and the ``scrub`` switch. The host and
    pool sizing and the convergence budget are module constants
    (:data:`NUM_CORES` ... :data:`UNTIL`), and the pool's Danaus services
    always run under a :class:`~repro.core.ServiceSupervisor`.

    ``plan`` carries a pre-built :class:`FaultPlan`; when None a plan is
    generated from the seed and the fault-count fields.
    """

    seed: int = 0
    symbol: str = "D"
    # -- workload shape --------------------------------------------------
    duration: float = 12.0
    threads: int = 2
    nfiles: int = 24
    mean_size: int = 32 * 1024
    # -- cluster topology ------------------------------------------------
    num_osds: int = 6
    replicas: int = 1
    # -- fault mix -------------------------------------------------------
    osd_crashes: int = 1
    partitions: int = 1
    service_crashes: int = 1
    mds_windows: int = 0
    slow_disks: int = 0
    bitrot: int = 0
    torn_writes: int = 0
    flaps: int = 0
    osd_adds: int = 0
    osd_drains: int = 0
    mds_crashes: int = 0
    mds_failovers: int = 0
    mds_standbys: int = 1
    # -- pipeline switches -----------------------------------------------
    scrub: bool = False
    plan: FaultPlan = None

    @classmethod
    def field_names(cls):
        """The spec-able field names (everything but ``plan``)."""
        return tuple(
            f.name for f in dataclasses.fields(cls) if f.name != "plan"
        )

    @classmethod
    def from_dict(cls, values, **overrides):
        """Build a config from a plain dict; unknown keys are errors."""
        merged = dict(values or {})
        merged.update(overrides)
        unknown = sorted(set(merged) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(
                "unknown ChaosConfig fields: %s (known: %s)"
                % (", ".join(unknown), ", ".join(cls.field_names()))
            )
        return cls(**merged)

    def to_dict(self):
        """A JSON-safe field dict (``plan`` omitted)."""
        return {name: getattr(self, name) for name in self.field_names()}

    def run(self):
        """Execute the full chaos pipeline; returns a :class:`ChaosResult`.

        Builds a one-pool testbed of stack :attr:`symbol` over the
        configured cluster topology, generates (or takes) a fault plan,
        runs :class:`ChaosFileserver` under it, settles, verifies.

        ``bitrot``/``torn_writes`` schedule silent-corruption faults
        (arming cluster integrity); ``scrub=True`` starts the background
        scrub daemon and ends the run with a deep-scrub drain, so the
        result also asserts that every injected corruption was repaired
        (``integrity_errors``, ``scrub_converged``). Corruption runs want
        ``replicas >= 2`` — with a single replica there is nothing to
        repair from, only quarantine.

        Installing the plan starts the heartbeat prober and the
        throttled backfill scheduler, whatever it schedules, and the
        pipeline always waits for every OSD to rejoin and for backfill
        to drain before verifying (``membership_converged``,
        ``under_replicated``). ``flaps``/``osd_adds``/``osd_drains``
        add membership churn on top of the crash/restart pairs; churn
        runs want ``replicas >= 2`` so degraded windows stay readable.
        """
        return _run_chaos_config(self)


@releases_world
def _run_chaos_config(config):
    seed = config.seed
    duration = config.duration
    world = World(
        num_cores=NUM_CORES,
        ram_bytes=units.gib(RAM_GIB),
        num_osds=config.num_osds,
        replicas=config.replicas,
    )
    host = world.primary
    host.activate_cores(ACTIVE_CORES)
    pool = host.engine.create_pool(
        "p0", num_cores=POOL_CORES, ram_bytes=units.gib(POOL_RAM_GIB),
    )
    factory = StackFactory(pool, config.symbol)
    mount = factory.mount_root("c0")
    services = list(pool.services)
    if services:
        supervisor = ServiceSupervisor(world.sim, world.costs)
        for service in services:
            supervisor.watch(service)
    plan = config.plan
    if plan is None:
        plan = FaultPlan.generate(
            seed,
            horizon=duration,
            num_osds=len(world.cluster.osds),
            services=[service.name for service in services],
            osd_crashes=config.osd_crashes,
            partitions=config.partitions,
            service_crashes=config.service_crashes,
            mds_windows=config.mds_windows,
            slow_disks=config.slow_disks,
            bitrot=config.bitrot,
            torn_writes=config.torn_writes,
            flaps=config.flaps,
            osd_adds=config.osd_adds,
            osd_drains=config.osd_drains,
            mds_crashes=config.mds_crashes,
            mds_failovers=config.mds_failovers,
            mds_standbys=config.mds_standbys,
        )
    workload = ChaosFileserver(
        mount.fs, pool, duration=duration, threads=config.threads,
        nfiles=config.nfiles, mean_size=config.mean_size, seed=seed,
    )
    plan.install(world, services=services)
    scrub_daemon = None
    if config.scrub:
        scrub_daemon = world.cluster.start_scrub()

    def pipeline():
        result = yield from workload.run()
        # Convergence: wait out the plan's last heal, then settle so
        # retries drain and the flusher pushes re-dirtied data out.
        remaining = plan.end_time() - world.sim.now
        if remaining > 0:
            yield remaining
        yield SETTLE_TIME
        client = factory._shared.get("lib_client")
        if client is not None:
            flush_task = pool.new_task("chaos.flush")
            yield from client.flush_all(flush_task)
        yield SETTLE_TIME
        # Corruption actions that fired while all data was still dirty
        # client-side defer until replicas hold real bytes; the flush
        # above provides them, so wait for every injection to land
        # before the final scrub pass judges convergence.
        for _ in range(300):
            if not plan.pending_corruptions:
                break
            yield 0.25
        # Membership convergence: wait for the heartbeat prober to
        # rejoin every bounced OSD (flap probations included), then
        # drain backfill so remapped/degraded objects are materialised
        # on their acting sets and strays are trimmed.
        monitor = world.cluster.monitor
        backfill = world.cluster.backfill
        for _ in range(600):
            if not monitor.has_failures():
                break
            yield 0.25
        membership_converged = (
            (yield from backfill.drain()) and not monitor.has_failures()
        )
        # Metadata convergence: give standby promotion + journal replay
        # (and duration-healed crash recoveries) time to finish before
        # the final verification sweeps the namespace.
        for _ in range(600):
            if world.cluster.mds_healthy():
                break
            yield 0.25
        scrub_converged = True
        if scrub_daemon is not None:
            # Stop the periodic loop, then deep-scrub to convergence so
            # every latent corruption is found and repaired before the
            # integrity sweep below.
            scrub_daemon.stop()
            scrub_converged = yield from scrub_daemon.drain()
        integrity_errors = world.cluster.integrity_errors()
        verify_task = pool.new_task("chaos.verify")
        digests, checked, skipped, mismatches = (
            yield from workload.verify(verify_task)
        )
        converged = (
            world.cluster.inflight_attempts == 0
            and not world.fabric.partitioned
            and world.cluster.mds_healthy()
            and all(not service.crashed for service in services)
        )
        cluster_metrics = world.cluster.metrics
        monitor_metrics = monitor.metrics
        corruptions = sum(
            int(osd.metrics.counter("bitrot_injected").value)
            + int(osd.metrics.counter("torn_injected").value)
            for osd in world.cluster.osds
        )
        return ChaosResult(
            seed,
            list(plan.log),
            digests,
            checked,
            skipped,
            mismatches,
            list(workload.read_mismatches),
            result,
            converged,
            int(cluster_metrics.counter("retries").value),
            sum(
                int(service.metrics.counter("restarts").value)
                for service in services
            ),
            corruptions=corruptions,
            integrity_errors=integrity_errors,
            quarantined=set(world.cluster.quarantined),
            repairs=int(monitor_metrics.counter("objects_repaired").value),
            scrub_converged=scrub_converged,
            membership_converged=membership_converged,
            under_replicated=[
                (ino, index)
                for ino, index, _missing in monitor.under_replicated()
            ],
            map_epoch=monitor.epoch,
            backfill_objects=int(
                backfill.metrics.counter("objects_pushed").value
            ),
            backfill_bytes=int(
                backfill.metrics.counter("bytes_moved").value
            ),
        )

    process = world.sim.spawn(pipeline(), name="chaos-run")
    finished = world.sim.run_until(process, world.sim.now + UNTIL)
    if not finished:
        raise SimulationError("chaos run did not converge by t=%s" % UNTIL)
    return process.value


#: The membership-churn preset fields (see :func:`run_membership_churn`).
CHURN_PRESET = dict(
    replicas=2,
    osd_crashes=1,
    flaps=1,
    osd_adds=1,
    osd_drains=1,
    partitions=0,
    service_crashes=0,
)


def run_membership_churn(seed=0, duration=14.0, **overrides):
    """Membership-churn chaos preset; returns a :class:`ChaosResult`.

    One heartbeat-detected crash/restart, one flapping OSD, one runtime
    ``osd_add`` and one graceful ``osd_drain`` over a two-replica pool —
    the full monitor lifecycle (up → suspect → down → out → rejoin),
    epoch-fenced client ops and throttled backfill, all in one run. The
    result's :attr:`ChaosResult.ok` additionally asserts that membership
    converged and nothing is left under-replicated. Extra
    :class:`ChaosConfig` fields (``symbol=``, ``scrub=``, ...) pass
    through as overrides.
    """
    fields = dict(CHURN_PRESET)
    fields.update(overrides)
    return ChaosConfig.from_dict(fields, seed=seed, duration=duration).run()

"""Tests for the fault-injection subsystem (``repro.faults``).

Covers the three layers of ``docs/faults.md``:

* injection — :class:`FaultPlan` authoring, validation and determinism;
* recovery — cluster retry/backoff, MDS session reestablishment, service
  crash semantics and the :class:`ServiceSupervisor`;
* chaos — end-to-end integrity runs (marked ``chaos``) and the isolation
  regression the paper's fault-containment story requires (§5): a Danaus
  service crash delays only its own pool, a kernel flusher stall delays
  every colocated container.
"""

import functools

import pytest

from repro.cephclient import CephLibClient
from repro.common import units
from repro.common.errors import (
    ConfigError,
    FsError,
    OpTimeout,
    ServiceFailed,
    ThreadKilled,
)
from repro.core import ServiceSupervisor
from repro.costs import CostModel
from repro.faults import KINDS, ChaosConfig, FaultAction, FaultPlan
from repro.fs.api import OpenFlags
from repro.net import Fabric
from repro.stacks import StackFactory
from repro.storage import CephCluster
from repro.world import World
from tests.conftest import committed_fingerprint, make_task, run


# --- testbed helpers ---------------------------------------------------------

def make_world(symbol="D", pools=1):
    """A world with ``pools`` container pools each mounting ``symbol``."""
    world = World(num_cores=8, ram_bytes=units.gib(16))
    host = world.primary
    host.activate_cores(2 * pools)
    mounted = []
    for index in range(pools):
        pool = host.engine.create_pool(
            "p%d" % index, num_cores=2, ram_bytes=units.gib(4)
        )
        factory = StackFactory(pool, symbol)
        mount = factory.mount_root("c%d" % index)
        mounted.append((pool, factory, mount))
    return world, mounted


# --- fault plan authoring ----------------------------------------------------

def test_fault_action_validates_kind_and_trigger():
    with pytest.raises(ConfigError):
        FaultAction("meteor_strike", at=1.0)
    with pytest.raises(ConfigError):
        FaultAction("osd_crash")  # no trigger
    with pytest.raises(ConfigError):
        FaultAction("osd_crash", at=1.0, after_ops=10)  # two triggers
    action = FaultAction("osd_crash", at=1.0, target=2)
    assert action.kind in KINDS


@pytest.mark.parametrize("kind", ["mds_crash", "mds_failover"])
def test_mds_faults_take_no_target(kind):
    """The metadata service has one active, so an MDS fault has nothing
    to aim at: a target is refused when the plan is authored, not when
    the action fires."""
    with pytest.raises(ConfigError, match="takes no target"):
        FaultPlan(1).schedule(kind, at=1.0, target=1)
    with pytest.raises(ConfigError, match="takes no target"):
        FaultPlan(1).schedule(kind, at=1.0, target=0)
    assert FaultPlan(1).schedule(kind, at=1.0).target is None


def test_fault_plan_generation_is_deterministic():
    def snapshot(plan):
        return [
            (a.kind, a.at, a.after_ops, a.target, a.duration,
             sorted(a.params.items()))
            for a in plan.actions
        ]

    kwargs = dict(
        horizon=10.0, num_osds=6, services=["p0.fsvc"],
        osd_crashes=2, partitions=1, service_crashes=1,
        mds_windows=1, slow_disks=1,
    )
    one = FaultPlan.generate(42, **kwargs)
    two = FaultPlan.generate(42, **kwargs)
    assert snapshot(one) == snapshot(two)
    other = FaultPlan.generate(43, **kwargs)
    assert snapshot(one) != snapshot(other)
    # Every timed action fires inside the horizon and heals within it.
    assert 0 < one.end_time() <= 10.0


def test_fault_plan_rejects_unknown_service_target():
    world, [(pool, _factory, _mount)] = make_world()
    plan = FaultPlan(seed=1)
    plan.schedule("service_crash", at=0.5, target="nonexistent.fsvc")
    with pytest.raises(ConfigError):
        plan.install(world, services=pool.services)


def test_op_count_trigger_fires_after_n_ops(sim):
    costs = CostModel(object_size=units.kib(64))
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)

    class _W(object):
        def __init__(self):
            self.sim = sim
            self.cluster = cluster
            self.fabric = cluster.fabric

    world = _W()
    plan = FaultPlan(seed=0)
    plan.schedule("partition", after_ops=3, duration=0.05)
    plan.install(world, services=())

    def proc():
        for index in range(3):
            yield from cluster.write_extent(7, index, b"x" * 1024)
        # The trigger fires inside the third op's hook; give the
        # partition window (0.05s) time to open and heal.
        yield sim.timeout(0.2)
        return cluster.op_count

    run(sim, proc())
    assert [entry[1:] for entry in plan.log] == [
        ("inject", "partition", None),
        ("heal", "partition", None),
    ]


# --- cluster retry / backoff -------------------------------------------------

def test_write_rides_out_unmarked_osd_crash(sim):
    """A crashed-but-not-yet-marked OSD times ops out; failure reports
    accumulate at the monitor until it is marked down, then the retry
    resends against the new map and succeeds."""
    costs = CostModel(object_size=units.kib(64))
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)
    payload = b"r" * units.kib(16)

    def proc():
        primary = cluster.crush.primary(9, 0)
        cluster.osds[primary].crash()  # daemon dead, monitor unaware
        yield from cluster.write_extent(9, 0, payload)
        return primary, (yield from cluster.read_extent(9, 0, len(payload)))

    primary, data = run(sim, proc())
    assert data == payload
    # Timeouts were reported; quorum marked the OSD down and the resend
    # landed on the surviving replica.
    assert not cluster.monitor.is_up(primary)
    assert cluster.metrics.counter("retries").value >= 1


def test_ops_ride_out_a_partition(sim):
    costs = CostModel(object_size=units.kib(64))
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)
    cluster.arm_faults()  # partitions leave every OSD up: opt in to retry
    payload = b"p" * units.kib(8)

    def proc():
        yield from cluster.write_extent(11, 0, payload)
        cluster.fabric.set_partitioned(True)

        def heal():
            yield sim.timeout(0.4)
            cluster.fabric.set_partitioned(False)

        sim.spawn(heal())
        start = sim.now
        data = yield from cluster.read_extent(11, 0, len(payload))
        return data, sim.now - start

    data, elapsed = run(sim, proc())
    assert data == payload
    assert elapsed >= 0.4  # blocked until the partition healed


def test_truncate_rides_out_a_partition(sim, machine):
    """A truncating open is one MDS op: a partition window delays it on
    the MDS retry instead of surfacing NetworkPartitioned, and the MDS
    cuts both replicas of every object once, when the op lands."""
    costs = CostModel(object_size=units.kib(64))
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)
    cluster.arm_faults()
    client = CephLibClient(
        sim, cluster, costs, machine.ram.child(units.mib(64), "tr.ram"),
        machine.activated, name="tr", start_flusher=False,
    )
    task = make_task(sim, machine)
    cuts = []
    trim = cluster.mds._trim
    cluster.mds._trim = lambda ino, size: (cuts.append(ino), trim(ino, size))
    payload = b"t" * units.kib(160)  # three objects

    def proc():
        yield from client.write_file(task, "/t", payload, sync=True)
        ino = (yield from client.stat(task, "/t")).ino
        cluster.fabric.set_partitioned(True)

        def heal():
            yield sim.timeout(0.05)
            cluster.fabric.set_partitioned(False)

        sim.spawn(heal())
        start = sim.now
        yield from client.open(
            task, "/t", OpenFlags.CREAT | OpenFlags.TRUNC | OpenFlags.WRONLY
        )
        return ino, sim.now - start

    ino, elapsed = run(sim, proc())
    assert elapsed >= 0.05  # blocked until the partition healed
    assert int(cluster.metrics.counter("mds_retries").value) >= 1
    assert cuts == [ino]
    assert cluster.file_bytes(ino) == 0
    assert sum(len(osd.indices_of(ino)) for osd in cluster.osds) == 2 * 3
    assert cluster.inflight_attempts == 0


def test_mds_outage_then_restart_recovers_sessions(sim, machine):
    """An MDS crash and journal-replay restart loses sessions and caps;
    the client reestablishes its session and reacquires held caps on the
    next operation."""
    costs = CostModel(object_size=units.kib(64))
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)
    cluster.enable_mds_ha(standbys=0)
    account = machine.ram.child(units.mib(64), "caps.ram")
    client = CephLibClient(
        sim, cluster, costs, account, machine.activated, name="caps-client",
        consistency="caps",
    )
    task = make_task(sim, machine)

    def proc():
        handle = yield from client.open(
            task, "/session-file", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from client.write(task, handle, 0, b"pre-restart")
        yield from client.close(task, handle)
        epoch_before = cluster.mds.session_epoch
        cluster.mds.crash()
        yield from cluster.mds_service.restore(cluster.mds.gid)
        assert cluster.mds.session_epoch == epoch_before + 1
        # Next open reestablishes the session and reacquires caps.
        handle = yield from client.open(task, "/session-file", OpenFlags.RDWR)
        data = yield from client.read(task, handle, 0, 11)
        yield from client.close(task, handle)
        return data

    assert run(sim, proc()) == b"pre-restart"
    assert client.metrics.counter("sessions_reestablished").value >= 1


def test_mds_down_window_heals_through_journal_replay():
    """A plan's ``mds_down`` window over a D workload: the heal restarts
    the daemon through ``MdsService.restore``, which replays the journal
    (the plan attached it), and every file the app saw acked reads back
    intact."""
    world, [(pool, _factory, mount)] = make_world("D")
    plan = FaultPlan(seed=7)
    plan.schedule("mds_down", at=0.005, duration=0.3)
    plan.install(world)
    task = pool.new_task("mds-down")

    def proc():
        acked = {}
        for index in range(16):
            path, data = "/f%d" % index, bytes([index + 1]) * 6000
            try:
                yield from mount.fs.write_file(task, path, data, sync=True)
            except FsError:
                continue
            acked[path] = data
        read = {}
        for path in acked:
            read[path] = yield from mount.fs.read_file(task, path)
        return acked, read

    acked, read = run(world.sim, proc(), until=60.0)
    # The window opens mid-workload: a write waits it out and resends.
    assert [entry[1:3] for entry in plan.log] == [
        ("inject", "mds_down"), ("heal", "mds_down")]
    assert world.cluster.metrics.counter("mds_retries").value >= 1
    mds = world.cluster.mds
    assert mds.metrics.counter("replays").value == 1
    assert mds.metrics.counter("replayed_records").value > 0
    assert world.cluster.mds_healthy()
    assert len(acked) > 8
    assert read == acked


# --- service crash semantics (no caller left blocked) ------------------------

def test_service_crash_fails_queued_and_inflight_requests():
    """Satellite guarantee: crash() fails every queued and in-flight
    request immediately — no application thread is ever left blocked on a
    reply that will never come."""
    world, [(pool, _factory, mount)] = make_world("D")
    service = pool.services[0]
    payload = b"q" * units.kib(64)
    outcomes = []

    def app(index):
        task = pool.new_task("app%d" % index)
        try:
            # Sync writes keep requests in the service's queue when the
            # crash lands mid-window.
            while world.sim.now < 0.5:
                yield from mount.fs.write_file(
                    task, "/burst%d" % index, payload, sync=True
                )
            outcomes.append("ok")
        except (ServiceFailed, FsError):
            outcomes.append("error")

    def crasher():
        yield world.sim.timeout(0.05)
        service.crash()

    procs = [world.sim.spawn(app(i)) for i in range(8)]
    world.sim.spawn(crasher())

    def waiter():
        yield world.sim.all_of(procs)

    run(world.sim, waiter(), until=5.0)  # completion here IS the assertion
    assert len(outcomes) == 8
    assert outcomes.count("error") == 8, "every caller must fail, not block"
    assert service.crashed
    # Later calls are refused outright, not queued into the void.
    def late():
        task = pool.new_task("late")
        try:
            yield from mount.fs.write_file(task, "/late", b"x")
        except ServiceFailed:
            return "refused"
        return "served"

    assert run(world.sim, late(), until=5.0) == "refused"


def test_service_threads_stop_at_crash():
    """SIGKILL semantics: a crashed service's threads abort at their next
    scheduling point instead of completing in-flight handlers."""
    world, [(pool, _factory, _mount)] = make_world("D")
    service = pool.services[0]
    service.crash()
    for thread in service._threads:
        assert thread.killed

    def doomed():
        task = pool.new_task("doomed")
        thread = task.thread
        thread.kill()
        try:
            yield from task.cpu(0.001)
        except ThreadKilled:
            return "stopped"
        return "ran"

    assert run(world.sim, doomed()) == "stopped"


def test_unsupervised_restart_brings_service_back():
    world, [(pool, _factory, mount)] = make_world("D")
    service = pool.services[0]

    def proc():
        task = pool.new_task("app")
        yield from mount.fs.write_file(task, "/before", b"alpha")
        service.crash()
        try:
            yield from mount.fs.write_file(task, "/during", b"beta")
        except ServiceFailed:
            pass
        service.restart()
        yield from mount.fs.write_file(task, "/after", b"gamma")
        return (yield from mount.fs.read_file(task, "/after"))

    assert run(world.sim, proc(), until=30.0) == b"gamma"
    assert service.generation == 1
    assert int(service.metrics.counter("restarts").value) == 1


# --- supervised restart ------------------------------------------------------

def test_supervised_crash_is_transparent_to_the_app():
    """Under a supervisor the crash surfaces as a latency bubble, not an
    error: the library rides out ServiceRestarting and resubmits."""
    world, [(pool, _factory, mount)] = make_world("D")
    service = pool.services[0]
    supervisor = ServiceSupervisor(world.sim, world.costs)
    supervisor.watch(service)

    def crasher():
        yield world.sim.timeout(0.004)
        service.crash()

    def app():
        task = pool.new_task("app")
        gaps = []
        for index in range(60):
            start = world.sim.now
            yield from mount.fs.write_file(
                task, "/steady", b"s" * 4096
            )
            gaps.append(world.sim.now - start)
        return gaps

    world.sim.spawn(crasher())
    gaps = run(world.sim, app(), until=30.0)  # no exception: transparent
    assert len(gaps) == 60
    assert max(gaps) >= world.costs.restart_delay  # the bubble
    assert int(service.metrics.counter("restarts").value) == 1
    assert int(supervisor.metrics.counter("restarts").value) == 1


def test_supervisor_replays_buffered_writes_after_restart():
    """Dirty write-behind data lives in the pool's shared memory and
    survives the service process; the supervisor flushes it on restart
    (journal replay), so an acknowledged buffered write is never lost."""
    world, [(pool, _factory, mount)] = make_world("D")
    service = pool.services[0]
    supervisor = ServiceSupervisor(world.sim, world.costs)
    supervisor.watch(service)
    payload = b"durable" * 1000

    def proc():
        task = pool.new_task("app")
        yield from mount.fs.write_file(task, "/journal", payload)
        # Acknowledged but still buffered (write-behind): crash now.
        service.crash()
        # Ride out restart (0.5s) + replay, then read it back.
        yield world.sim.timeout(world.costs.restart_delay + 0.5)
        return (yield from mount.fs.read_file(task, "/journal"))

    assert run(world.sim, proc(), until=30.0) == payload
    assert not service.crashed
    assert int(supervisor.metrics.counter("restarts").value) == 1
    assert (
        int(supervisor.metrics.counter("replayed_bytes").value)
        + int(supervisor.metrics.counter("replay_deferred").value)
    ) > 0


# --- isolation regression (the paper's fault-containment story) --------------

def _paced_writers(world, mounted, until_time):
    """Spawn one sync-writing app per pool; returns completion-time lists."""
    stamps = [[] for _ in mounted]

    def writer(index, pool, mount):
        task = pool.new_task("iso%d" % index)
        data = b"w" * 8192
        while world.sim.now < until_time:
            yield from mount.fs.write_file(
                task, "/iso%d" % index, data, sync=True
            )
            stamps[index].append(world.sim.now)

    procs = [
        world.sim.spawn(writer(i, pool, mount))
        for i, (pool, _factory, mount) in enumerate(mounted)
    ]
    return stamps, procs


def _ops_in(stamps, start, end):
    return sum(1 for t in stamps if start <= t < end)


def test_danaus_service_crash_delays_only_its_own_pool():
    world, mounted = make_world("D", pools=2)
    pool0 = mounted[0][0]
    supervisor = ServiceSupervisor(world.sim, world.costs)
    for service in pool0.services:
        supervisor.watch(service)

    def crasher():
        yield world.sim.timeout(1.0)
        pool0.services[0].crash()

    world.sim.spawn(crasher())
    stamps, procs = _paced_writers(world, mounted, until_time=2.0)

    def waiter():
        yield world.sim.all_of(procs)

    run(world.sim, waiter(), until=60.0)
    window = (1.0, 1.0 + world.costs.restart_delay)
    control = (0.4, 0.4 + world.costs.restart_delay)
    p0_window = _ops_in(stamps[0], *window)
    p1_window = _ops_in(stamps[1], *window)
    p1_control = _ops_in(stamps[1], *control)
    # The crashed pool stalls through the restart window...
    assert p0_window <= 2
    # ...while the colocated pool keeps its pace.
    assert p1_window >= 0.5 * p1_control > 0


def test_kernel_flusher_stall_delays_every_colocated_pool():
    """The contrast case: the shared kernel writeback path is a single
    failure domain — stalling it freezes sync writers of ALL pools."""
    world, mounted = make_world("K", pools=2)
    kernel = world.primary.kernel

    def staller():
        yield world.sim.timeout(1.0)
        kernel.writeback.stall(world.costs.restart_delay)

    world.sim.spawn(staller())
    stamps, procs = _paced_writers(world, mounted, until_time=2.0)

    def waiter():
        yield world.sim.all_of(procs)

    run(world.sim, waiter(), until=60.0)
    window = (1.0, 1.0 + world.costs.restart_delay)
    control = (0.4, 0.4 + world.costs.restart_delay)
    for index in range(2):
        in_window = _ops_in(stamps[index], *window)
        in_control = _ops_in(stamps[index], *control)
        assert in_control > 0
        assert in_window <= 0.5 * in_control, (
            "pool %d should stall with the shared flusher" % index
        )
    assert int(kernel.writeback.metrics.counter("wb.stalls").value) >= 1


# --- chaos harness -----------------------------------------------------------

#: The corruption-under-scrub config, shared by its two tests.
_SCRUB_KW = dict(seed=11, duration=10.0, replicas=2, bitrot=2, torn_writes=1,
                 scrub=True)


@functools.lru_cache(maxsize=None)
def _first_run(**fields):
    """The first chaos run of a config, shared by every test that reads it
    (a determinism check compares it with ``tests/chaos_fingerprints.json``)."""
    return ChaosConfig(**fields).run()


@pytest.mark.chaos
def test_chaos_run_keeps_acknowledged_data_intact():
    result = _first_run(seed=7)
    assert result.converged
    assert result.mismatches == []
    assert result.read_mismatches == []
    assert result.ok
    assert result.files_checked > 0
    assert result.service_restarts >= 1
    kinds = {entry[2] for entry in result.plan_log}
    assert {"osd_crash", "partition", "service_crash"} <= kinds


@pytest.mark.chaos
def test_chaos_same_seed_reproduces_identical_run():
    # One run against the committed fingerprint, which covers the plan
    # log, the file digests and the op and byte counts.
    one = _first_run(seed=7)
    assert one.ok
    assert one.plan_log
    assert one.fingerprint_hex() == committed_fingerprint("chaos_default", 7)


@pytest.mark.chaos
@pytest.mark.scrub
def test_chaos_corruption_is_repaired_by_scrub():
    """Silent corruption (bit flips + torn replica writes) under the full
    fault mix: every acknowledged write reads back intact, the scrub
    drain converges and no corrupt replica or quarantined object is left."""
    result = _first_run(**_SCRUB_KW)
    assert result.corruptions >= 1, "the plan must actually damage replicas"
    assert result.scrub_converged
    assert result.integrity_errors == []
    assert result.quarantined == []
    assert result.repairs >= 1
    assert result.ok
    kinds = {entry[2] for entry in result.plan_log}
    assert kinds & {"bitrot", "torn_write"}


@pytest.mark.chaos
@pytest.mark.scrub
def test_corruption_plan_spares_the_last_clean_replica():
    """Seed 0 of the corruption mix draws a second corruption onto the
    other replica of an already damaged object; the plan redraws it, so
    scrub repairs every object instead of quarantining one."""
    result = ChaosConfig(seed=0, duration=4.0, replicas=2, bitrot=2,
                         torn_writes=1, scrub=True).run()
    assert result.corruptions == 3
    assert result.integrity_errors == []
    assert result.quarantined == []
    assert result.ok


@pytest.mark.chaos
@pytest.mark.scrub
@pytest.mark.parametrize("seed", [7, 1])
def test_standby_replays_a_journal_the_plan_left_a_clean_replica(seed):
    """Corruption under an MDS crash and failover. At seeds 7 and 1 the
    plan used to damage both replicas of the journal object, and the
    promoted standby's replay raised ``DataCorrupt``. The plan's
    last-clean-replica rule keeps that state from being generated; it
    is a guard, not a repair (``docs/faults.md``)."""
    result = ChaosConfig(seed=seed, duration=4.0, replicas=2, bitrot=2,
                         torn_writes=1, mds_crashes=1, mds_failovers=1,
                         mds_standbys=2, scrub=True).run()
    assert result.corruptions >= 1
    kinds = {entry[2] for entry in result.plan_log}
    assert {"mds_crash", "mds_failover"} <= kinds
    assert result.quarantined == []
    assert result.ok


@pytest.mark.chaos
@pytest.mark.scrub
def test_service_crash_in_an_enqueue_charge_leaves_no_caller_stranded():
    """At seed 7 the service crashes (1.422 s) while a worker's ``write``
    pays its enqueue CPU. The worker used to put the request into the
    queue the crash had drained, where nothing reads, so the run raised
    ``chaos run did not converge by t=600.0`` after the restart."""
    result = ChaosConfig(seed=7, duration=4.0, replicas=3, osd_crashes=1,
                         partitions=0, service_crashes=1, bitrot=1,
                         torn_writes=1, scrub=True).run()
    assert result.converged
    assert result.service_restarts >= 1
    assert result.ok


@pytest.mark.chaos
@pytest.mark.scrub
def test_chaos_corruption_run_is_deterministic():
    one = _first_run(**_SCRUB_KW)
    assert one.ok
    assert one.fingerprint_hex() == committed_fingerprint(
        "chaos_corruption", _SCRUB_KW["seed"])
    # Not in the fingerprint; the values the committed run has.
    assert (one.corruptions, one.repairs) == (3, 3)


# --- one lifecycle for every data-side kind ----------------------------------

#: One short schedule per data-side fault kind: ``[(kind, fields)]``.
_DATA_SIDE = {
    "osd_crash": [("osd_crash", dict(at=0.3, target=1)),
                  ("osd_restart", dict(at=0.7, target=1))],
    "osd_flap": [("osd_flap", dict(at=0.2, target=1, count=2, period=0.45))],
    "osd_add": [("osd_add", dict(at=0.5))],
    "osd_drain": [("osd_drain", dict(at=0.5, target=1))],
    "partition": [("partition", dict(at=0.5, duration=0.1))],
    "link_degrade": [("link_degrade", dict(at=0.4, duration=0.4,
                                           delay_factor=4.0,
                                           loss_rate=0.05))],
    "disk_slow": [("disk_slow", dict(at=0.4, target=1, duration=0.4,
                                     factor=8.0))],
    "bitrot": [("bitrot", dict(at=0.6, flips=8))],
    "torn_write": [("torn_write", dict(at=0.6, keep_fraction=0.5))],
}


def _plan(actions, seed=7):
    plan = FaultPlan(seed=seed)
    for kind, fields in actions:
        plan.schedule(kind, **fields)
    return plan


@pytest.mark.chaos
@pytest.mark.parametrize("replicas", [2, 3])
@pytest.mark.parametrize("kind", sorted(_DATA_SIDE))
def test_every_data_side_kind_converges_on_the_one_lifecycle(kind, replicas):
    """Every plan runs on heartbeats + backfill, so every data-side kind
    must end with membership converged — not just the churn kinds."""
    corrupting = kind in ("bitrot", "torn_write")
    result = ChaosConfig(
        seed=7, duration=1.2, replicas=replicas, nfiles=8,
        mean_size=16 * 1024, scrub=corrupting, plan=_plan(_DATA_SIDE[kind]),
    ).run()
    assert result.ok, result
    assert result.membership_converged
    assert result.under_replicated == []
    assert result.files_checked > 0
    assert kind in {entry[2] for entry in result.plan_log}
    if corrupting:
        assert result.corruptions == 1 and result.repairs >= 1
    if kind in ("osd_crash", "osd_flap", "osd_add", "osd_drain"):
        assert result.map_epoch > 1, "the membership change must be seen"


def _crash_restart_history(with_flap):
    """Run a crash/restart-only plan (optionally beside a flap of another
    OSD); returns OSD 1's ``(transitions, plan log rows)``."""
    world = World(num_cores=2, ram_bytes=units.gib(1), num_osds=4, replicas=2)
    actions = list(_DATA_SIDE["osd_crash"])
    if with_flap:
        actions += [("osd_flap", dict(at=0.2, target=3, count=2,
                                      period=0.45))]
    plan = _plan(actions).install(world)
    monitor = world.cluster.monitor
    assert monitor.probing and world.cluster.backfill.running
    transitions = []

    def watch(osdmap):
        state = "up" if osdmap.is_up(1) else "down"
        if not transitions or transitions[-1][0] != state:
            transitions.append((state, monitor._down_reason.get(1)))

    monitor.subscribe(watch)
    world.sim.run(until=4.0)
    assert not monitor.has_failures()
    return transitions, [row[1:] for row in plan.log if row[3] == 1]


def test_crash_only_plan_is_detected_by_the_monitor_not_told():
    alone, alone_log = _crash_restart_history(with_flap=False)
    beside, beside_log = _crash_restart_history(with_flap=True)
    # crash -> down -> up, the down decided by probes or reports: a plan
    # never tells the monitor ("admin") what it did to a daemon
    assert [state for state, _reason in alone] == ["down", "up"]
    assert alone[0][1] in ("heartbeat", "reports")
    assert alone_log == [("inject", "osd_crash", 1),
                         ("inject", "osd_restart", 1)]
    # and what osd_crash means does not depend on the rest of the plan
    assert beside == alone
    assert beside_log == alone_log

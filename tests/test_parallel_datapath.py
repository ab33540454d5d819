"""Tests for the parallel striped data path.

Fan-out dispatch of per-object ops, replica-push overlap, the inflight
window cap, vectored OSD writes, and per-seed schedule determinism with
fan-out enabled — including an OSD crash landing mid-fan-out.
"""

import hashlib
import itertools

import pytest

from repro.costs import CostModel
from repro.net import Fabric
from repro.obs import Observer
from repro.sim import Simulator
from repro.sim.bench import stripe_fanout_reference
from repro.storage import CephCluster, CrushMap
from tests.conftest import run

def _first_spread_ino(num_osds=6):
    crush = CrushMap(num_osds)
    return next(
        ino for ino in itertools.count(1)
        if len({crush.primary(ino, index) for index in range(num_osds)})
        == num_osds
    )


#: The first ino whose six objects land on six *distinct* primaries, so
#: striped-read completion time measures dispatch concurrency rather
#: than placement collisions (many small inos hash several objects onto
#: one OSD, which would serialise at the device regardless of dispatch).
SPREAD_INO = _first_spread_ino()


def make_cluster(sim, costs, num_osds=6, replicas=1):
    return CephCluster(sim, Fabric(sim), costs, num_osds=num_osds,
                       replicas=replicas)


def test_spread_ino_puts_each_object_on_its_own_primary(sim):
    cluster = make_cluster(sim, CostModel())
    primaries = {cluster.crush.primary(SPREAD_INO, index) for index in range(6)}
    assert len(primaries) == 6


def test_stripe_read_completes_in_about_one_rpc_latency(sim):
    # Tiny objects: per-object service is dominated by fixed RPC latency,
    # so a serial 6-object read costs ~6 round trips while the fan-out
    # read overlaps them into ~1.
    costs = CostModel(object_size=4096)
    cluster = make_cluster(sim, costs)
    size = 6 * costs.object_size
    times = {}

    def proc():
        yield from cluster.write_extent(SPREAD_INO, 0, bytes(size))
        t0 = sim.now
        single = yield from cluster.read_extent(
            SPREAD_INO, 0, costs.object_size
        )
        times["single"] = sim.now - t0
        t0 = sim.now
        striped = yield from cluster.read_extent(SPREAD_INO, 0, size)
        times["striped"] = sim.now - t0
        assert len(single) == costs.object_size
        assert len(striped) == size

    run(sim, proc())
    assert times["striped"] < 2 * times["single"], (
        "6-object fan-out read took %.1fx one object RPC"
        % (times["striped"] / times["single"])
    )


def _timed_object_write(replicas, inflight=16):
    sim = Simulator()
    costs = CostModel(object_size=4096, client_inflight_ops=inflight)
    cluster = make_cluster(sim, costs, replicas=replicas)
    out = {}

    def proc():
        t0 = sim.now
        yield from cluster.write_extent(SPREAD_INO, 0, b"x" * 4096)
        out["elapsed"] = sim.now - t0

    run(sim, proc())
    return out["elapsed"]


def test_write_fanout_overlaps_replica_pushes():
    # One object, three replicas: the three pushes of one attempt land
    # on distinct OSDs concurrently, so replication costs well under a
    # second serial push. The inflight window bounds stripe fan-out
    # (test_inflight_window_caps_concurrency), never the replica pushes
    # inside one object's attempt.
    single = _timed_object_write(replicas=1)
    triple = _timed_object_write(replicas=3)
    assert triple < 2 * single, (
        "replica pushes did not overlap: %.6fs x3 vs %.6fs x1"
        % (triple, single)
    )
    assert _timed_object_write(replicas=3, inflight=1) == triple


def test_inflight_window_caps_concurrency():
    sim = Simulator()
    sim.observer = Observer(sim=sim)
    costs = CostModel(object_size=4096, client_inflight_ops=2)
    cluster = make_cluster(sim, costs)
    size = 6 * costs.object_size

    def proc():
        yield from cluster.write_extent(SPREAD_INO, 0, bytes(size))
        yield from cluster.read_extent(SPREAD_INO, 0, size)

    run(sim, proc())
    registry = sim.observer.metrics("dispatch")
    assert registry.gauge("inflight").high_water == 2
    width = registry.histogram("width")
    assert width.count >= 2  # the striped write and the striped read
    assert width.max == 6
    rows = sim.observer.dispatch_profile()
    assert rows[0]["scope"] == "client"
    assert rows[0]["inflight_hw"] == 2
    osd_rows = [row for row in rows if row["scope"].startswith("osd")]
    assert osd_rows, "per-OSD inflight rows missing from the profile"
    assert all(row["inflight_hw"] >= 1 for row in osd_rows)


def test_vectored_write_is_one_rpc_per_osd():
    sim = Simulator()
    costs = CostModel(object_size=4096)
    cluster = make_cluster(sim, costs)
    # Two dirty extents inside object 0 plus one in object 1: the flush
    # ships one vectored RPC per object (each on its own OSD here), not
    # one RPC per extent.
    extents = [(0, b"a" * 512), (1024, b"b" * 512), (4096, b"c" * 512)]

    def proc():
        total = yield from cluster.write_vector(SPREAD_INO, extents)
        assert total == 1536

    run(sim, proc())
    writes = sum(
        int(osd.metrics.counter("writes").value) for osd in cluster.osds
    )
    vector_writes = sum(
        int(osd.metrics.counter("vector_writes").value)
        for osd in cluster.osds
    )
    pieces = sum(
        int(osd.metrics.counter("vector_pieces").value)
        for osd in cluster.osds
    )
    assert writes == 2  # objects 0 and 1 live on different OSDs
    assert vector_writes == 2
    assert pieces == 3
    assert cluster.osds[cluster.crush.primary(SPREAD_INO, 0)].object_size(
        SPREAD_INO, 0
    ) == 1536


def test_reference_scenario_speedup_at_least_2x():
    serial = stripe_fanout_reference(inflight=1)
    fanout = stripe_fanout_reference(inflight=16)
    assert serial["read_ok"] and fanout["read_ok"]
    speedup = serial["read_s"] / fanout["read_s"]
    assert speedup >= 2.0, "fan-out read only %.2fx faster" % speedup


def test_fanout_schedule_is_deterministic():
    one = stripe_fanout_reference(inflight=16)
    two = stripe_fanout_reference(inflight=16)
    assert one == two


def _crash_mid_fanout_run():
    """One striped replicated write with an OSD crash landing mid-fan-out.

    Returns a schedule-sensitive fingerprint dict; two runs of the same
    build must produce identical dicts.
    """
    sim = Simulator()
    costs = CostModel(object_size=4096)
    cluster = make_cluster(sim, costs, replicas=2)
    cluster.arm_faults()
    size = 6 * costs.object_size
    payload = bytes(
        hashlib.blake2b(b"%d" % i, digest_size=1).digest()[0]
        for i in range(size)
    )
    victim = cluster.crush.primary(SPREAD_INO, 2)
    out = {}

    def saboteur():
        # Land the crash while the fan-out children are mid-RPC.
        yield sim.timeout(costs.osd_op / 2)
        cluster.osds[victim].crash()

    def proc():
        sim.spawn(saboteur(), name="saboteur")
        t0 = sim.now
        yield from cluster.write_extent(SPREAD_INO, 0, payload)
        out["write_s"] = sim.now - t0
        data = yield from cluster.read_extent(SPREAD_INO, 0, size)
        out["read_back_ok"] = data == payload
        out["retries"] = int(cluster.metrics.counter("retries").value)

    run(sim, proc())
    out["inflight_attempts"] = cluster.inflight_attempts
    # No double-apply: every surviving replica of every object holds
    # exactly the acknowledged bytes (a replayed retry would have
    # re-spliced identical bytes — idempotent — never appended).
    for index in range(6):
        piece = payload[index * 4096:(index + 1) * 4096]
        holders = 0
        for osd in cluster.osds:
            obj = osd._objects.get((SPREAD_INO, index))
            if obj is None or osd.osd_id == victim:
                continue
            holders += 1
            assert bytes(obj) == piece, (
                "object %d corrupted on osd %d" % (index, osd.osd_id)
            )
        out["holders_%d" % index] = holders
        assert holders >= 1
    return out


@pytest.mark.chaos
def test_osd_crash_mid_fanout_retries_without_double_apply():
    result = _crash_mid_fanout_run()
    assert result["read_back_ok"]
    assert result["retries"] >= 1, "the crash must actually force a retry"
    assert result["inflight_attempts"] == 0
    # Same seed, same build: the recovery schedule is reproducible.
    assert _crash_mid_fanout_run() == result


def _churn_mid_fanout_run():
    """A striped replicated write with an osd_add landing mid-fan-out.

    The membership change bumps the map epoch while the fan-out children
    are mid-RPC, so some pushes are stamped with the pre-add epoch and
    get EOLDEPOCH'd; the retry refreshes the map and the write completes
    against the new placement. Returns a schedule-sensitive fingerprint
    dict; two runs must produce identical dicts.
    """
    sim = Simulator()
    costs = CostModel(object_size=4096)
    cluster = make_cluster(sim, costs, replicas=2)
    size = 6 * costs.object_size
    payload = bytes(
        hashlib.blake2b(b"%d" % i, digest_size=1).digest()[0]
        for i in range(size)
    )
    out = {}

    def saboteur():
        # Land the membership change while fan-out children are mid-RPC.
        yield sim.timeout(costs.osd_op / 2)
        cluster.add_osd(backfill=False)

    def proc():
        sim.spawn(saboteur(), name="saboteur")
        yield from cluster.write_extent(SPREAD_INO, 0, payload)
        out["epoch_after_write"] = cluster._osdmap.epoch
        cluster.backfill.start()
        yield from cluster.backfill.drain()
        data = yield from cluster.read_extent(SPREAD_INO, 0, size)
        out["read_back_ok"] = data == payload
        out["retries"] = int(cluster.metrics.counter("retries").value)
        out["stale_rejects"] = int(
            cluster.metrics.counter("stale_map_rejects").value
        )

    run(sim, proc())
    out["inflight_attempts"] = cluster.inflight_attempts
    out["under_replicated"] = len(cluster.monitor.under_replicated())
    out["misplaced"] = len(cluster.monitor.misplaced())
    for index in range(6):
        piece = payload[index * 4096:(index + 1) * 4096]
        acting = cluster.monitor.acting_set(SPREAD_INO, index)
        for osd_id in acting:
            obj = cluster.osds[osd_id]._objects.get((SPREAD_INO, index))
            assert obj is not None, (
                "acting osd %d missing object %d" % (osd_id, index)
            )
            assert bytes(obj) == piece, (
                "object %d corrupted on osd %d" % (index, osd_id)
            )
    return out


@pytest.mark.chaos
def test_osd_add_mid_fanout_converges_deterministically():
    result = _churn_mid_fanout_run()
    assert result["read_back_ok"]
    assert result["inflight_attempts"] == 0
    assert result["under_replicated"] == 0
    assert result["misplaced"] == 0
    # Same seed, same build: the churn schedule is reproducible.
    assert _churn_mid_fanout_run() == result


# --- the single path: disarmed = race skipped, not a second body -----------

def test_never_armed_ops_skip_the_race():
    # Nothing armed, every daemon up: no attempt can be lost, so no op
    # may spawn an rpc:* attempt process, enter _attempt, or leave an
    # op_timeout timer behind. Fails if the fast exit ever regresses
    # into an always-on race.
    sim = Simulator()
    costs = CostModel(object_size=4096)
    cluster = make_cluster(sim, costs)
    spawned = []
    real_spawn = sim.spawn

    def recording_spawn(gen, name=None):
        spawned.append(name)
        return real_spawn(gen, name=name)

    def no_attempt(gen):
        raise AssertionError("disarmed op entered the attempt race")

    sim.spawn = recording_spawn
    cluster._attempt = no_attempt
    size = 3 * costs.object_size
    seen = []

    def proc():
        yield from cluster.mds_call("mkdir", "/d")
        seen.append(cluster.inflight_attempts)
        yield from cluster.write_extent(SPREAD_INO, 0, b"w" * size)
        seen.append(cluster.inflight_attempts)
        yield from cluster.write_vector(
            SPREAD_INO, [(0, b"v" * 512), (4096, b"v" * 512)]
        )
        seen.append(cluster.inflight_attempts)
        data = yield from cluster.read_extent(SPREAD_INO, 0, size)
        seen.append(cluster.inflight_attempts)
        assert len(data) == size

    run(sim, proc())
    assert not cluster.resilient
    assert seen == [0, 0, 0, 0]
    assert not [name for name in spawned if name and name.startswith("rpc:")]
    assert int(cluster.metrics.counter("retries").value) == 0
    # quiescent: no pending op_timeout (or any other) timer left behind
    assert not sim._heap and not sim._ready


def test_disarmed_replicated_write_lands_on_both_acting_osds(sim):
    costs = CostModel(object_size=4096)
    cluster = make_cluster(sim, costs, replicas=2)
    payload = bytes(range(256)) * 48  # three objects

    def proc():
        yield from cluster.write_extent(SPREAD_INO, 0, payload)

    run(sim, proc())
    assert not cluster.resilient
    for index in range(3):
        piece = payload[index * 4096:(index + 1) * 4096]
        acting = cluster.crush.placement(SPREAD_INO, index)
        assert len(acting) == 2
        for osd_id in acting:
            stored = cluster.osds[osd_id]._objects[(SPREAD_INO, index)]
            assert bytes(stored) == piece
    assert not cluster.monitor._stale, "a clean write must mark nothing stale"


def _one_piece_write(vectored, integrity):
    """One 3-replica object write via write_vector or write_extent;
    returns everything the two spellings must agree on."""
    sim = Simulator()
    costs = CostModel(object_size=4096)
    cluster = make_cluster(sim, costs, replicas=3)
    if integrity:
        cluster.enable_integrity()
    payload = b"p" * 1000 + b"q" * 1000
    out = {}

    def proc():
        t0 = sim.now
        if vectored:
            wrote = yield from cluster.write_vector(
                SPREAD_INO, [(100, payload)]
            )
        else:
            wrote = yield from cluster.write_extent(SPREAD_INO, 100, payload)
        out["elapsed"] = sim.now - t0
        out["wrote"] = wrote

    run(sim, proc())
    out["op_count"] = cluster.op_count
    out["osds"] = [
        (
            sorted((key, bytes(obj)) for key, obj in osd._objects.items()),
            sorted(
                (key, sorted(dig.items()))
                for key, dig in osd._digests.items()
            ),
            sorted(osd._versions.items()),
            int(osd.metrics.counter("writes").value),
            int(osd.metrics.counter("bytes_written").value),
        )
        for osd in cluster.osds
    ]
    return out


@pytest.mark.parametrize("integrity", [False, True])
def test_write_extent_is_the_one_piece_write_vector(integrity):
    vector = _one_piece_write(vectored=True, integrity=integrity)
    extent = _one_piece_write(vectored=False, integrity=integrity)
    assert vector == extent
    assert vector["wrote"] == 2000
    holders = [state for state in vector["osds"] if state[0]]
    assert len(holders) == 3
    if integrity:
        assert all(state[1] for state in holders), "digests not recorded"

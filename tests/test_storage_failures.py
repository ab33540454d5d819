"""Tests for OSD failure handling, degraded I/O and recovery."""

import errno

import pytest

from repro.common import units
from repro.common.errors import DataUnavailable
from repro.costs import CostModel
from repro.net import Fabric
from repro.sim import Simulator
from repro.storage import CephCluster
from tests.conftest import run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(64))


def make_cluster(sim, costs, replicas=2, num_osds=4):
    return CephCluster(sim, Fabric(sim), costs, num_osds=num_osds,
                       replicas=replicas)


def test_monitor_tracks_epochs(sim, costs):
    cluster = make_cluster(sim, costs)
    monitor = cluster.monitor
    assert monitor.epoch == 1
    monitor.mark_down(0)
    assert monitor.epoch == 2
    assert not monitor.is_up(0)
    monitor.mark_down(0)  # idempotent
    assert monitor.epoch == 2
    monitor.mark_up(0)
    assert monitor.epoch == 3
    assert monitor.is_up(0)


def test_replicated_read_survives_primary_failure(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)
    payload = b"replicated-payload" * 100

    def proc():
        yield from cluster.write_extent(1, 0, payload)
        primary = cluster.crush.primary(1, 0)
        cluster.monitor.mark_down(primary)
        return (yield from cluster.read_extent(1, 0, len(payload)))

    assert run(sim, proc()) == payload


def test_unreplicated_data_lost_on_failure(sim, costs):
    cluster = make_cluster(sim, costs, replicas=1)
    payload = b"single-copy"

    def proc():
        yield from cluster.write_extent(2, 0, payload)
        primary = cluster.crush.primary(2, 0)
        cluster.monitor.mark_down(primary)
        try:
            yield from cluster.read_extent(2, 0, len(payload))
        except DataUnavailable as err:
            return err
        return None

    # With one replica on the failed device the read must surface EIO —
    # never silently return truncated data. The client retries while the
    # OSD stays down, then propagates.
    err = run(sim, proc())
    assert isinstance(err, DataUnavailable)
    assert err.errno == errno.EIO


def test_unreplicated_data_returns_after_osd_recovers(sim, costs):
    cluster = make_cluster(sim, costs, replicas=1)
    payload = b"single-copy-come-back"

    def proc():
        yield from cluster.write_extent(2, 0, payload)
        primary = cluster.crush.primary(2, 0)
        cluster.monitor.mark_down(primary)

        def heal():
            yield sim.timeout(0.3)
            cluster.monitor.mark_up(primary)

        sim.spawn(heal())
        # The retry loop rides out the outage and the data reappears.
        return (yield from cluster.read_extent(2, 0, len(payload)))

    assert run(sim, proc()) == payload


def test_writes_route_around_failed_osd(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)

    def proc():
        primary = cluster.crush.primary(3, 0)
        cluster.monitor.mark_down(primary)
        yield from cluster.write_extent(3, 0, b"detour")
        return (yield from cluster.read_extent(3, 0, 6))

    assert run(sim, proc()) == b"detour"
    # The failed OSD holds nothing.
    failed = cluster.crush.primary(3, 0)
    assert cluster.osds[failed].object_size(3, 0) == 0


def test_under_replicated_detection_and_recovery(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)
    payload = b"x" * units.kib(32)

    def proc():
        yield from cluster.write_extent(4, 0, payload)
        victim = cluster.crush.primary(4, 0)
        cluster.monitor.mark_down(victim)
        missing = cluster.monitor.under_replicated()
        done = yield from cluster.backfill.drain()
        after = cluster.monitor.under_replicated()
        return missing, done, after

    missing, done, after = run(sim, proc())
    moved = int(cluster.backfill.metrics.counter("bytes_moved").value)
    assert missing, "the object should be under-replicated after the failure"
    assert done
    assert moved >= units.kib(32)
    assert after == []


def test_recovered_object_readable_from_new_member(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)
    payload = b"move me" * 50

    def proc():
        yield from cluster.write_extent(5, 0, payload)
        victim = cluster.crush.primary(5, 0)
        cluster.monitor.mark_down(victim)
        yield from cluster.backfill.drain()
        # Even the surviving original replica can now fail.
        survivors = [
            osd_id for osd_id in cluster.crush.placement(5, 0)
            if osd_id != victim
        ]
        for osd_id in survivors:
            cluster.monitor.mark_down(osd_id)
        return (yield from cluster.read_extent(5, 0, len(payload)))

    assert run(sim, proc()) == payload


def test_recovery_never_resurrects_stale_bytes(sim, costs):
    """A backfill drain racing a concurrent write must not push its
    stale source snapshot over newer bytes: the push re-checks the
    source's mutation version and redoes the copy from fresh data."""
    cluster = make_cluster(sim, costs, replicas=2)
    old = b"o" * units.kib(64)   # full object: a slow recovery copy
    piece = b"NEWDATA!" * 512    # 4 KiB overwrite racing the copy

    def proc():
        yield from cluster.write_extent(6, 0, old)
        source, victim = cluster.monitor.acting_set(6, 0)
        # The small write is already in service on the OSDs — past the
        # epoch fence, resolved against the healthy map so nothing
        # pulled the object first — when the victim dies: it lands on
        # the surviving source while recovery's 64 KiB copy of that
        # source is in flight.
        writer = sim.spawn(cluster.write_extent(6, 0, piece), name="writer")
        while not cluster.osds[source].inflight:
            yield sim.timeout(1e-6)
        cluster.osds[victim].crash()
        cluster.monitor.mark_down(victim)
        recovery = sim.spawn(cluster.backfill.drain(), name="recover")
        yield sim.all_of([writer, recovery])
        data = yield from cluster.read_extent(6, 0, len(old))
        return data, recovery.value

    expected = piece + old[len(piece):]
    data, done = run(sim, proc())
    moved = int(cluster.backfill.metrics.counter("bytes_moved").value)
    assert done
    assert data == expected
    # every live holder converged on the post-race content
    holders = cluster.monitor.holders(6, 0)
    assert len(holders) >= 2
    for osd_id in holders:
        assert bytes(cluster.osds[osd_id]._objects[(6, 0)]) == expected
    # the version check detected the racing write and redid the copy
    assert moved > len(old)


def test_rejoined_osd_never_serves_stale_reads(sim, costs):
    """Rejoin semantics: a rejoined OSD holding a copy that a
    write superseded while it was down must not serve it — the stale
    record is retained until backfill pushes fresh bytes, and every read
    path (including the non-degraded fast path) excludes the copy."""
    cluster = make_cluster(sim, costs, replicas=2)
    old = b"old" * units.kib(8)
    new = b"new" * units.kib(8)

    def proc():
        yield from cluster.write_extent(8, 0, old)
        victim = cluster.monitor.acting_set(8, 0)[0]  # the primary
        cluster.osds[victim].crash()
        cluster.monitor.mark_down(victim)
        yield from cluster.write_extent(8, 0, new)  # routes around victim
        cluster.osds[victim].restart()
        cluster.monitor.mark_up(victim)
        # not degraded any more: the fast path would hit the primary
        assert not cluster.degraded
        data = yield from cluster.read_extent(8, 0, len(new))
        return victim, data

    victim, data = run(sim, proc())
    assert data == new, "a rejoined OSD must not serve stale bytes"
    # the stale copy is still recorded (backfill clears it, not rejoin)
    assert cluster.monitor.is_stale(victim, (8, 0))

    def backfill_proc():
        cluster.backfill.start()
        done = yield from cluster.backfill.drain()
        data = yield from cluster.read_extent(8, 0, len(new))
        return done, data

    done, data = run(sim, backfill_proc())
    assert done and data == new
    assert not cluster.monitor.is_stale(victim, (8, 0))
    assert bytes(cluster.osds[victim]._objects[(8, 0)]) == new


def test_degraded_partial_write_pulls_object_first(sim, costs):
    """A partial overwrite landing on an acting member that never held
    the object must not splice onto zero-fill: the degraded write path
    pulls the full object onto the copy-less target first."""
    cluster = make_cluster(sim, costs, replicas=2)
    base = b"B" * units.kib(64)   # full object
    patch = b"patch!" * 100       # partial overwrite, offset 0

    def proc():
        yield from cluster.write_extent(9, 0, base)
        victim = cluster.monitor.acting_set(9, 0)[0]
        cluster.osds[victim].crash()
        cluster.monitor.mark_down(victim)
        # the acting set now includes a replacement without a copy
        yield from cluster.write_extent(9, 0, patch)
        replacement = [
            osd_id for osd_id in cluster.monitor.acting_set(9, 0)
            if osd_id != victim
        ]
        # every acting member holds the *full* patched object
        copies = {
            osd_id: bytes(cluster.osds[osd_id]._objects[(9, 0)])
            for osd_id in replacement
        }
        data = yield from cluster.read_extent(9, 0, len(base))
        return copies, data

    expected = patch + base[len(patch):]
    copies, data = run(sim, proc())
    assert data == expected
    for osd_id, copy in copies.items():
        assert copy == expected, \
            "OSD %d spliced a partial write onto zero-fill" % osd_id


def test_backfill_push_racing_inflight_write(sim, costs):
    """A foreground write landing mid-backfill-push must win: the push
    re-checks the source version and redoes the copy from fresh bytes."""
    cluster = make_cluster(sim, costs, replicas=2)
    old = b"o" * units.kib(64)
    piece = b"RACER!!!" * 512  # 4 KiB overwrite racing the push

    def proc():
        yield from cluster.write_extent(10, 0, old)
        victim = cluster.monitor.acting_set(10, 0)[-1]
        cluster.osds[victim].crash()
        cluster.monitor.mark_down(victim)
        cluster.monitor.mark_out(victim)
        backfill = cluster.backfill
        backfill.start()
        push = sim.spawn(backfill.cycle(), name="backfill-cycle")
        # let the cycle snapshot its source and start the 64 KiB push,
        # then land a small write while the copy is in flight
        yield sim.timeout(1e-5)
        yield from cluster.write_extent(10, 0, piece)
        yield sim.all_of([push])
        yield from backfill.drain()
        return (yield from cluster.read_extent(10, 0, len(old)))

    expected = piece + old[len(piece):]
    assert run(sim, proc()) == expected
    for osd_id in cluster.monitor.holders(10, 0):
        assert bytes(cluster.osds[osd_id]._objects[(10, 0)]) == expected


def test_degraded_flag(sim, costs):
    cluster = make_cluster(sim, costs)
    assert not cluster.degraded
    cluster.monitor.mark_down(1)
    assert cluster.degraded
    cluster.monitor.mark_up(1)
    assert not cluster.degraded


def test_client_io_survives_osd_failure(sim, machine, costs):
    """End to end: a user-level client keeps working through a failure."""
    from repro.cephclient import CephLibClient
    from tests.conftest import make_task

    cluster = make_cluster(sim, costs, replicas=2)
    account = machine.ram.child(units.mib(64), "ha.ram")
    client = CephLibClient(
        sim, cluster, costs, account, machine.activated, name="ha"
    )
    task = make_task(sim, machine)

    def proc():
        yield from client.write_file(task, "/critical", b"do not lose", sync=True)
        info = client.attr_cache["/critical"]
        cluster.monitor.mark_down(cluster.crush.primary(info.ino, 0))
        client.cache.drop_ino(info.ino)  # force a backend read
        return (yield from client.read_file(task, "/critical"))

    assert run(sim, proc()) == b"do not lose"


def test_hand_crashed_osd_on_unarmed_cluster_takes_the_race(sim, costs):
    # No plan installed, nothing armed: the crashed-daemon leg of
    # ``resilient`` is the only thing that makes the *next* op race its
    # attempts — so a dead primary surfaces as retries + EIO (one
    # replica) or a reroute (two), never as a hang on the inline exit.
    lone = make_cluster(sim, costs, replicas=1)
    payload = b"only-copy" * 50

    def lose_it():
        yield from lone.write_extent(3, 0, payload)
        assert not lone.resilient
        assert int(lone.metrics.counter("retries").value) == 0
        lone.osds[lone.crush.primary(3, 0)].crash()  # no mark_down, no arm
        assert lone.resilient
        try:
            yield from lone.read_extent(3, 0, len(payload))
        except DataUnavailable as err:
            return err
        return None

    err = run(sim, lose_it())
    assert isinstance(err, DataUnavailable)
    assert int(lone.metrics.counter("retries").value) >= 1
    assert lone.inflight_attempts == 0

    # A world of its own: one cluster per simulator, so the retries
    # counted below are the pair's and not the lone cluster's.
    pair = make_cluster(Simulator(), costs, replicas=2)

    def route_around():
        yield from pair.write_extent(4, 0, payload)
        victim = pair.crush.primary(4, 0)
        pair.osds[victim].crash()
        # The write's first attempt hits the dead daemon, whose silence
        # surfaces as an OpTimeout inside the raced attempt; the retry
        # blames it, the monitor marks it down and the resend lands on
        # the survivor.
        yield from pair.write_extent(4, 0, payload[::-1])
        data = yield from pair.read_extent(4, 0, len(payload))
        return victim, data

    victim, data = run(pair.sim, route_around())
    assert data == payload[::-1]
    assert int(pair.metrics.counter("retries").value) >= 1
    assert not pair.monitor.is_up(victim)
    assert pair.inflight_attempts == 0

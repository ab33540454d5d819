"""Tests for the membership lifecycle: heartbeats, map epochs, backfill.

Covers the monitor-driven failure state machine (up -> suspect -> down ->
out -> rejoin with flap damping), CRUSH map mutation with minimal
remapping, EOLDEPOCH fencing of stale-map clients, the throttled
backfill scheduler, and the membership-churn chaos preset's determinism
and convergence guarantees.
"""

import pytest

from repro.common import units
from repro.common.errors import ConfigError, OldEpoch
from repro.costs import CostModel
from repro.net import Fabric
from repro.storage import CephCluster, CrushMap
from tests.conftest import committed_fingerprint, run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(64))


def make_cluster(sim, costs, replicas=2, num_osds=4):
    return CephCluster(sim, Fabric(sim), costs, num_osds=num_osds,
                       replicas=replicas)


# -- CRUSH map mutation -------------------------------------------------


def test_straw2_add_remaps_minimally():
    """Adding a device only moves objects the newcomer wins."""
    crush = CrushMap(6, replicas=2)
    objects = [(ino, index) for ino in range(1, 60) for index in range(2)]
    before = {key: crush.placement(*key) for key in objects}
    new_id = crush.add_device()
    assert new_id == 6
    moved = 0
    for key, old in before.items():
        new = crush.placement(*key)
        assert len(new) == 2 and len(set(new)) == 2
        if new != old:
            moved += 1
            # The only legitimate change is the newcomer displacing one
            # member; the survivor must come from the old placement.
            assert new_id in new
            assert set(new) - {new_id} <= set(old)
    # Weight-proportional: roughly 2/7 of placements gain the new device.
    assert 0 < moved < len(objects) // 2


def test_straw2_remove_remaps_only_affected():
    """Removing a device leaves placements that never used it alone."""
    crush = CrushMap(6, replicas=2)
    objects = [(ino, index) for ino in range(1, 60) for index in range(2)]
    before = {key: crush.placement(*key) for key in objects}
    crush.remove_device(3)
    for key, old in before.items():
        new = crush.placement(*key)
        assert 3 not in new
        if 3 not in old:
            assert new == old
        else:
            # Surviving members keep their slots; only the hole refills.
            assert set(old) - {3} <= set(new)


def test_crush_capacity_guard():
    crush = CrushMap(2, replicas=2)
    with pytest.raises(ConfigError):
        crush.remove_device(0)
    with pytest.raises(ConfigError):
        crush.reweight(1, 0)
    crush.add_device()
    crush.remove_device(0)  # three devices: now removable
    assert 0 not in crush


# -- failure reports and debounce ----------------------------------------


def test_failure_reports_debounced_by_window(sim, costs):
    """A transient blame expires; only a quorum inside the window acts."""
    cluster = make_cluster(sim, costs)
    monitor = cluster.monitor
    window = costs.failure_report_window

    def proc():
        monitor.report_failure(1)
        # let the first report age out of the sliding window
        yield sim.timeout(window + 0.5)
        monitor.report_failure(1)
        spread_down = not monitor.is_up(1)
        # two reports in quick succession meet the quorum
        monitor.report_failure(2)
        yield sim.timeout(0.05)
        monitor.report_failure(2)
        return spread_down, monitor.is_up(2)

    spread_down, burst_up = run(sim, proc())
    assert not spread_down, "reports outside the window must not act"
    assert not burst_up, "a quorum inside the window must mark down"


# -- heartbeat state machine ---------------------------------------------


def test_heartbeat_detects_crash_then_out_then_rejoin(sim, costs):
    cluster = make_cluster(sim, costs)
    monitor = cluster.monitor
    monitor.start_heartbeats()

    def proc():
        cluster.osds[2].crash()  # silent: no oracle mark_down
        yield sim.timeout(
            costs.heartbeat_interval * (costs.heartbeat_grace + 1)
        )
        detected = not monitor.is_up(2)
        yield sim.timeout(costs.osd_out_interval + costs.heartbeat_interval)
        outed = monitor.is_out(2)
        cluster.osds[2].restart()
        yield sim.timeout(costs.heartbeat_interval * 2)
        return detected, outed, monitor.is_up(2), monitor.is_out(2)

    detected, outed, rejoined, still_out = run(sim, proc())
    assert detected, "missed probes must mark the OSD down"
    assert outed, "a silent OSD must be promoted down -> out"
    assert rejoined, "a responding OSD must auto-rejoin"
    assert not still_out


def test_report_quorum_makes_suspect_then_confirms(sim, costs):
    """Blamed OSDs are confirmed on the next miss, faster than grace."""
    cluster = make_cluster(sim, costs)
    monitor = cluster.monitor
    monitor.start_heartbeats()

    def proc():
        cluster.osds[1].crash()
        monitor.report_failure(1)
        monitor.report_failure(1)
        suspect = monitor.is_suspect(1)
        # one probe interval suffices (grace collapses to 1 for suspects)
        yield sim.timeout(costs.heartbeat_interval * 1.5)
        return suspect, monitor.is_up(1)

    suspect, up = run(sim, proc())
    assert suspect, "a report quorum under heartbeats makes a suspect"
    assert not up, "the next missed probe must confirm a suspect down"


def test_flap_damping_holds_bouncy_osd_in_probation(sim, costs):
    cluster = make_cluster(sim, costs)
    monitor = cluster.monitor
    monitor.start_heartbeats()
    victim = 3

    def bounce():
        cluster.osds[victim].crash()
        for _ in range(200):
            yield sim.timeout(costs.heartbeat_interval)
            if not monitor.is_up(victim):
                break
        cluster.osds[victim].restart()
        for _ in range(200):
            yield sim.timeout(costs.heartbeat_interval)
            if monitor.is_up(victim):
                return

    def proc():
        for _ in range(costs.flap_threshold):
            yield from bounce()
        # Past the threshold the next rejoin must serve a probation.
        cluster.osds[victim].crash()
        for _ in range(200):
            yield sim.timeout(costs.heartbeat_interval)
            if not monitor.is_up(victim):
                break
        cluster.osds[victim].restart()
        held = sim.now
        for _ in range(600):
            yield sim.timeout(costs.heartbeat_interval)
            if monitor.is_up(victim):
                break
        return sim.now - held

    rejoin_delay = run(sim, proc())
    assert int(monitor.metrics.counter("flaps_damped").value) >= 1
    assert rejoin_delay >= costs.flap_probation
    assert monitor.is_up(victim)


# -- EOLDEPOCH fencing ---------------------------------------------------


def test_osd_rejects_ops_stamped_with_old_epoch(sim, costs):
    cluster = make_cluster(sim, costs)
    osd = cluster.osds[0]
    osd.map_epoch = 5

    def proc():
        try:
            yield from osd.read(1, 0, 0, 16, epoch=4)
        except OldEpoch as err:
            return err
        return None

    err = run(sim, proc())
    assert isinstance(err, OldEpoch)
    assert int(osd.metrics.counter("epoch_rejects").value) == 1


def test_stale_map_client_refreshes_and_retries(sim, costs):
    """A client on an old osdmap gets EOLDEPOCH'd, refreshes, succeeds."""
    cluster = make_cluster(sim, costs)
    payload = b"fence me" * 64

    def proc():
        yield from cluster.write_extent(7, 0, payload)
        stale_map = cluster._osdmap
        # Membership changes behind the client's back; its snapshot is
        # now an epoch behind what every OSD knows.
        cluster.monitor.mark_down(3)
        cluster.monitor.mark_up(3)
        cluster._osdmap = stale_map
        data = yield from cluster.read_extent(7, 0, len(payload))
        return data

    assert run(sim, proc()) == payload
    assert int(cluster.metrics.counter("stale_map_rejects").value) >= 1
    assert cluster._osdmap.epoch == cluster.monitor.epoch


# -- throttled backfill --------------------------------------------------


def test_backfill_drains_under_budget(sim, costs):
    """An outed OSD's objects re-replicate over several bounded cycles."""
    cluster = make_cluster(sim, costs, replicas=2, num_osds=4)
    payload = b"b" * units.kib(64)

    def proc():
        for ino in range(1, 9):
            yield from cluster.write_extent(ino, 0, payload)
        victim = cluster.crush.primary(1, 0)
        cluster.osds[victim].crash()
        cluster.monitor.mark_down(victim)
        cluster.monitor.mark_out(victim)
        degraded_before = len(cluster.monitor.under_replicated())
        backfill = cluster.backfill
        backfill.bytes_per_osd = units.kib(64)
        backfill.ops_per_osd = 1
        backfill.start()
        done = yield from backfill.drain()
        return degraded_before, done, backfill

    degraded_before, done, backfill = run(sim, proc())
    assert degraded_before > 1
    assert done, "backfill must reach idle"
    assert cluster.monitor.under_replicated() == []
    # The one-push-per-target budget spreads convergence over multiple
    # cycles: each cycle moves at most one object per live target OSD.
    live_targets = len(cluster.osds) - 1
    min_cycles = -(-degraded_before // live_targets)  # ceil division
    assert min_cycles >= 2, "fixture must need more than one cycle"
    assert int(backfill.metrics.counter("cycles").value) >= min_cycles
    assert int(backfill.metrics.counter("bytes_moved").value) \
        >= degraded_before * units.kib(64)


def test_backfill_defers_down_not_out_osd(sim, costs):
    """Re-replicating a merely-down OSD's data wastes budget; wait for
    the out promotion (heartbeats decide) before moving bytes."""
    cluster = make_cluster(sim, costs, replicas=2, num_osds=4)
    monitor = cluster.monitor
    payload = b"d" * units.kib(8)

    def proc():
        yield from cluster.write_extent(1, 0, payload)
        monitor.start_heartbeats()
        backfill = cluster.backfill
        backfill.start()
        victim = monitor.acting_set(1, 0)[-1]
        cluster.osds[victim].crash()
        # wait until heartbeats confirm down (but well before out)
        for _ in range(100):
            yield sim.timeout(costs.heartbeat_interval)
            if not monitor.is_up(victim):
                break
        yield from backfill.cycle()
        moved_while_down = int(backfill.metrics.counter("bytes_moved").value)
        yield sim.timeout(costs.osd_out_interval + costs.heartbeat_interval)
        outed = monitor.is_out(victim)
        done = yield from backfill.drain()
        return moved_while_down, outed, done

    moved_while_down, outed, done = run(sim, proc())
    assert moved_while_down == 0, "down-not-out objects must be deferred"
    assert outed and done
    assert cluster.monitor.under_replicated() == []


def test_backfill_push_rides_out_a_partition(sim, costs):
    """Backfill runs under every plan, partitions included: a push that
    loses the fabric is dropped, not fatal, and redone next cycle."""
    cluster = make_cluster(sim, costs, replicas=2, num_osds=4)
    payload = b"p" * units.kib(16)

    def proc():
        yield from cluster.write_extent(1, 0, payload)
        victim = cluster.monitor.acting_set(1, 0)[-1]
        cluster.osds[victim].crash()
        cluster.monitor.mark_down(victim)
        cluster.monitor.mark_out(victim)
        cluster.fabric.set_partitioned(True)
        moved = yield from cluster.backfill.cycle()
        cluster.fabric.set_partitioned(False)
        done = yield from cluster.backfill.drain()
        return moved, done

    moved, done = run(sim, proc())
    assert moved == 0
    assert int(cluster.backfill.metrics.counter("push_errors").value) == 1
    assert done and cluster.monitor.under_replicated() == []


# -- runtime add / drain -------------------------------------------------


def test_add_osd_backfills_and_trims(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2, num_osds=4)
    payloads = {ino: bytes([ino]) * units.kib(64) for ino in range(1, 17)}

    def proc():
        for ino, payload in payloads.items():
            yield from cluster.write_extent(ino, 0, payload)
        newcomer = cluster.add_osd()
        done = yield from cluster.backfill.drain()
        reads = {}
        for ino, payload in payloads.items():
            reads[ino] = yield from cluster.read_extent(ino, 0, len(payload))
        return newcomer, done, reads

    newcomer, done, reads = run(sim, proc())
    assert done
    assert newcomer.osd_id == 4
    assert len(newcomer._objects) > 0, "the newcomer must win objects"
    assert cluster.monitor.under_replicated() == []
    assert cluster.monitor.misplaced() == []
    assert not cluster._remapped, "convergence must restore the fast path"
    for ino, payload in payloads.items():
        assert reads[ino] == payload
    # exactly replicas copies per object survive the trim
    for ino in payloads:
        copies = sum(
            1 for osd in cluster.osds if (ino, 0) in osd._objects
        )
        assert copies == 2


def test_first_add_osd_remaps_minimally(sim, costs):
    """The first device added to a fresh cluster changes only the acting
    sets the newcomer joins, and keeps one old member in each."""
    cluster = make_cluster(sim, costs, replicas=2, num_osds=6)
    objects = [(ino, index) for ino in range(1, 60) for index in range(2)]
    before = {key: cluster.monitor.acting_set(*key) for key in objects}
    newcomer = cluster.add_osd(backfill=False).osd_id
    moved = 0
    for key, old in before.items():
        new = cluster.monitor.acting_set(*key)
        if new != old:
            moved += 1
            assert newcomer in new
            assert set(new) - {newcomer} <= set(old)
    assert 0 < moved < len(objects) // 2


def test_drain_osd_migrates_and_empties_device(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2, num_osds=4)
    payloads = {ino: bytes([ino]) * units.kib(64) for ino in range(1, 17)}

    def proc():
        for ino, payload in payloads.items():
            yield from cluster.write_extent(ino, 0, payload)
        victim = cluster.crush.primary(1, 0)
        cluster.drain_osd(victim)
        done = yield from cluster.backfill.drain()
        reads = {}
        for ino, payload in payloads.items():
            reads[ino] = yield from cluster.read_extent(ino, 0, len(payload))
        return victim, done, reads

    victim, done, reads = run(sim, proc())
    assert done
    assert victim not in cluster.crush
    assert len(cluster.osds[victim]._objects) == 0, \
        "a drained OSD must end empty"
    assert cluster.monitor.under_replicated() == []
    for ino, payload in payloads.items():
        assert reads[ino] == payload


# -- churn chaos ---------------------------------------------------------


def test_membership_churn_converges_and_is_deterministic():
    from repro.faults import run_membership_churn

    first = run_membership_churn(seed=11)
    assert first.ok, (
        first.mismatches, first.read_mismatches, first.under_replicated,
        first.membership_converged,
    )
    assert first.membership_converged
    assert first.under_replicated == []
    assert first.map_epoch > 1, "churn must bump the osdmap epoch"
    assert first.backfill_objects > 0, "churn must exercise backfill"
    assert first.fingerprint_hex() == committed_fingerprint(
        "membership_churn", 11), "same-seed churn runs must be byte-identical"

"""Tests for end-to-end data integrity: checksums, read-repair, scrub.

Covers the integrity subsystem bottom-up:

* OSD digest bookkeeping — chunk digests on write, poison on partial
  overwrites of corrupt chunks, torn-replica detection, truncation;
* verified reads — a single corrupt replica is masked (failover +
  background read-repair), all-replica corruption surfaces
  :class:`DataCorrupt` (EIO) and quarantines the object;
* the background scrub daemon — light/deep cycles, repair, quarantine
  of unrepairable objects, and un-quarantine after a fresh write;
* the fast-path guard — integrity off records nothing and keeps the
  cluster off the resilient path.
"""

import errno

import pytest

from repro.common import units
from repro.common.errors import DataCorrupt, DataUnavailable, FsError
from repro.common.rng import make_rng
from repro.costs import CostModel
from repro.net import Fabric
from repro.obs import Observer, merge_profiles
from repro.storage import CephCluster, ScrubDaemon
from tests.conftest import run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(64))


def make_cluster(sim, costs, replicas=2, num_osds=4, integrity=True):
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=num_osds,
                          replicas=replicas)
    if integrity:
        cluster.enable_integrity()
    return cluster


def store(sim, cluster, ino, payload):
    def proc():
        yield from cluster.write_extent(ino, 0, payload)
    run(sim, proc())


# --- OSD digest bookkeeping --------------------------------------------------

def test_write_records_digests_and_detects_bitrot(sim, costs):
    cluster = make_cluster(sim, costs)
    payload = bytes(range(256)) * 64  # 16 KiB = 4 chunks
    store(sim, cluster, 7, payload)
    for osd_id in cluster.monitor.holders(7, 0):
        osd = cluster.osds[osd_id]
        assert osd._digests[(7, 0)], "write must record chunk digests"
        assert osd.replica_clean(7, 0)
    victim = cluster.osds[cluster.monitor.holders(7, 0)[0]]
    assert victim.inject_bitrot(7, 0, make_rng(1, "bitrot-unit")) > 0
    assert not victim.replica_clean(7, 0)
    # the other replica is untouched
    other = cluster.monitor.holders(7, 0)[1]
    assert cluster.osds[other].replica_clean(7, 0)


def test_partial_overwrite_cannot_bless_corruption(sim, costs):
    """A partial overwrite of a chunk whose surviving bytes are corrupt
    must poison the chunk, not re-digest the bad bytes into legitimacy."""
    cluster = make_cluster(sim, costs)
    chunk = costs.integrity_chunk_size
    payload = b"a" * (3 * chunk)
    store(sim, cluster, 8, payload)
    victim_id = cluster.monitor.holders(8, 0)[0]
    victim = cluster.osds[victim_id]
    # silent flip deep inside chunk 1, past the coming overwrite
    victim._objects[(8, 0)].flip(chunk + 100, 0xFF)

    def overwrite(offset, data):
        def proc():
            yield from cluster.write_extent(8, offset, data)
        run(sim, proc())

    # overwrite only the head of chunk 1: the flip survives, the chunk
    # must stay dirty even though its digest was just recomputed
    overwrite(chunk, b"Z" * 16)
    assert not victim.replica_clean(8, 0)
    # replicas that were never corrupted stay clean through the same write
    other = [o for o in cluster.monitor.holders(8, 0) if o != victim_id][0]
    assert cluster.osds[other].replica_clean(8, 0)
    # a write fully covering the object replaces every chunk: poison clears
    overwrite(0, b"b" * (3 * chunk))
    assert victim.replica_clean(8, 0)


def test_torn_replica_detected_despite_intact_prefix(sim, costs):
    """A torn replica lost its tail; every byte it still holds is intact,
    so only the recorded digests can tell the copy is short."""
    cluster = make_cluster(sim, costs)
    payload = b"t" * units.kib(16)
    store(sim, cluster, 9, payload)
    victim = cluster.osds[cluster.monitor.holders(9, 0)[0]]
    assert victim.inject_torn_write(9, 0) > 0
    assert not victim.replica_clean(9, 0)


def test_truncate_keeps_digests_consistent(sim, costs):
    cluster = make_cluster(sim, costs, replicas=1)
    payload = bytes(range(256)) * 40  # 10240 bytes
    cut = 5000  # mid-chunk

    def proc():
        yield from cluster.write_extent(10, 0, payload)
        yield from cluster.truncate(10, cut)
        return (yield from cluster.read_extent(10, 0, len(payload)))

    assert run(sim, proc()) == payload[:cut]
    holder = cluster.osds[cluster.monitor.holders(10, 0)[0]]
    assert holder.replica_clean(10, 0)
    assert cluster.integrity_errors() == []


# --- verified reads: masking, read-repair, EIO -------------------------------

def test_single_corrupt_replica_is_masked_and_repaired(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)
    payload = b"m" * units.kib(32)

    def proc():
        yield from cluster.write_extent(11, 0, payload)
        primary = cluster.crush.primary(11, 0)
        assert cluster.osds[primary].inject_bitrot(
            11, 0, make_rng(2, "mask")
        )
        data = yield from cluster.read_extent(11, 0, len(payload))
        yield sim.timeout(1.0)  # background read-repair completes
        return data, primary

    data, primary = run(sim, proc())
    assert data == payload, "corruption must never reach the caller"
    assert cluster.metrics.counter("checksum_failures").value >= 1
    assert cluster.metrics.counter("read_repairs").value >= 1
    assert cluster.osds[primary].replica_clean(11, 0)
    assert bytes(cluster.osds[primary]._objects[(11, 0)]) == payload


def test_all_replica_corruption_surfaces_eio_and_quarantines(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)
    payload = b"e" * units.kib(16)

    def proc():
        yield from cluster.write_extent(12, 0, payload)
        for n, osd_id in enumerate(cluster.monitor.holders(12, 0)):
            assert cluster.osds[osd_id].inject_bitrot(
                12, 0, make_rng(3, "allbad", n)
            )
        try:
            yield from cluster.read_extent(12, 0, len(payload))
            caught = None
        except DataCorrupt as err:
            caught = err
        quarantined = (12, 0) in cluster.quarantined
        # a fresh full write replaces the data and makes reads whole again
        yield from cluster.write_extent(12, 0, payload)
        data = yield from cluster.read_extent(12, 0, len(payload))
        return caught, quarantined, data

    caught, quarantined, data = run(sim, proc())
    assert isinstance(caught, DataCorrupt)
    assert caught.errno == errno.EIO
    assert quarantined, "an object with no clean replica is quarantined"
    assert data == payload
    assert (12, 0) not in cluster.quarantined


# --- read targeting (degraded/hole fallbacks) --------------------------------

def test_hole_read_skips_crashed_acting_member(sim, costs):
    """The hole fallback must not hand back a crashed acting member: that
    is a doomed RPC. With no live OSD left the read surfaces
    DataUnavailable without ever dialling the corpse."""
    cluster = make_cluster(sim, costs, replicas=1, num_osds=2,
                           integrity=False)

    def proc():
        # object (14, 0) is a hole: never written anywhere
        primary = cluster.crush.primary(14, 0)
        other = 1 - primary
        cluster.monitor.mark_down(primary)
        cluster.osds[other].crash()
        try:
            yield from cluster.read_extent(14, 0, 4096)
        except DataUnavailable as err:
            return err
        return None

    err = run(sim, proc())
    assert isinstance(err, DataUnavailable)
    assert err.errno == errno.EIO
    # no RPC ever reached the crashed daemon, so no op ever timed out
    # against it and no failure report was filed
    assert cluster.monitor._failure_reports == {}


def test_hole_read_served_by_live_acting_member(sim, costs):
    """The positive half of the fallback: with a live acting member the
    hole still reads as absent data (short read), never an error."""
    cluster = make_cluster(sim, costs, replicas=1, num_osds=4,
                           integrity=False)

    def proc():
        cluster.monitor.mark_down(cluster.crush.primary(15, 0))
        return (yield from cluster.read_extent(15, 0, 4096))

    assert run(sim, proc()) == b""


# --- retry metrics labeled by op kind ----------------------------------------

def test_retry_metrics_labeled_read(sim, costs):
    cluster = make_cluster(sim, costs, replicas=1, integrity=False)
    payload = b"label" * 20

    def proc():
        yield from cluster.write_extent(16, 0, payload)
        primary = cluster.crush.primary(16, 0)
        cluster.monitor.mark_down(primary)

        def heal():
            yield sim.timeout(0.3)
            cluster.monitor.mark_up(primary)

        sim.spawn(heal())
        return (yield from cluster.read_extent(16, 0, len(payload)))

    assert run(sim, proc()) == payload
    assert cluster.metrics.counter("retries_read").value >= 1
    assert cluster.metrics.counter("retries_write").value == 0
    assert (cluster.metrics.counter("retries").value
            == cluster.metrics.counter("retries_read").value)


def test_retry_metrics_labeled_write(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2, integrity=False)
    payload = b"w" * units.kib(8)

    def proc():
        primary = cluster.crush.primary(17, 0)
        cluster.osds[primary].crash()  # dead but not yet marked down
        yield from cluster.write_extent(17, 0, payload)
        return (yield from cluster.read_extent(17, 0, len(payload)))

    assert run(sim, proc()) == payload
    assert cluster.metrics.counter("retries_write").value >= 1
    total_timeouts = cluster.metrics.counter("op_timeouts").value
    assert (cluster.metrics.counter("op_timeouts_write").value
            + cluster.metrics.counter("op_timeouts_read").value
            == total_timeouts)


# --- background scrub --------------------------------------------------------

@pytest.mark.scrub
def test_scrub_repairs_bitrot(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)
    payload = b"s" * units.kib(16)

    def proc():
        for ino in (20, 21, 22):
            yield from cluster.write_extent(ino, 0, payload)
        victim = cluster.monitor.holders(21, 0)[0]
        assert cluster.osds[victim].inject_bitrot(
            21, 0, make_rng(5, "scrub-bitrot")
        )
        daemon = cluster.start_scrub(interval=0.5, deep_every=1, batch=100)
        yield sim.timeout(3.0)
        daemon.stop()
        return victim, daemon

    victim, daemon = run(sim, proc())
    assert daemon.metrics.counter("errors_found").value >= 1
    assert daemon.metrics.counter("repaired").value >= 1
    assert cluster.osds[victim].replica_clean(21, 0)
    assert bytes(cluster.osds[victim]._objects[(21, 0)]) == payload
    assert cluster.integrity_errors() == []


@pytest.mark.scrub
def test_light_scrub_escalates_torn_replica(sim, costs):
    """Light cycles compare size + digest fingerprints only; a torn
    replica's short copy trips the metadata comparison, escalates to a
    deep check and gets repaired — without deep-reading every object."""
    cluster = make_cluster(sim, costs, replicas=2)
    payload = b"l" * units.kib(16)

    def proc():
        yield from cluster.write_extent(24, 0, payload)
        victim = cluster.monitor.holders(24, 0)[0]
        assert cluster.osds[victim].inject_torn_write(24, 0) > 0
        daemon = cluster.start_scrub(interval=0.5, deep_every=0, batch=100)
        yield sim.timeout(3.0)
        daemon.stop()
        return victim, daemon

    victim, daemon = run(sim, proc())
    assert daemon.metrics.counter("meta_mismatches").value >= 1
    assert daemon.metrics.counter("repaired").value >= 1
    assert cluster.osds[victim].replica_clean(24, 0)
    assert bytes(cluster.osds[victim]._objects[(24, 0)]) == payload


@pytest.mark.scrub
def test_scrub_quarantines_unrepairable_object(sim, costs):
    """One replica, rotten: nothing to repair from. The scrub quarantines
    the object, reads refuse to return garbage, and a fresh full write
    lifts the quarantine."""
    cluster = make_cluster(sim, costs, replicas=1)
    payload = b"q" * units.kib(8)

    def proc():
        yield from cluster.write_extent(23, 0, payload)
        holder = cluster.monitor.holders(23, 0)[0]
        assert cluster.osds[holder].inject_bitrot(
            23, 0, make_rng(6, "quarantine")
        )
        daemon = ScrubDaemon(cluster)
        converged = yield from daemon.drain(max_passes=2)
        try:
            yield from cluster.read_extent(23, 0, len(payload))
            caught = None
        except DataCorrupt as err:
            caught = err
        quarantined = (23, 0) in cluster.quarantined
        yield from cluster.write_extent(23, 0, payload)
        errors_after = yield from daemon.sweep(deep=True)
        data = yield from cluster.read_extent(23, 0, len(payload))
        return converged, caught, quarantined, errors_after, data

    converged, caught, quarantined, errors_after, data = run(sim, proc())
    assert converged is False, "a quarantined object is never scrub-clean"
    assert isinstance(caught, DataCorrupt)
    assert quarantined
    assert errors_after == 0
    assert data == payload
    assert not cluster.quarantined


@pytest.mark.scrub
def test_scrub_table_counts_a_drain_once(sim, costs):
    """``drain()`` sweeps, the path that ends a chaos run: its scrubbed
    objects and corrupt replicas reach the scrub table, counted once."""
    cluster = make_cluster(sim, costs, replicas=2)
    store(sim, cluster, 25, b"d" * units.kib(16))
    victim = cluster.monitor.holders(25, 0)[0]
    assert cluster.osds[victim].inject_bitrot(25, 0, make_rng(9, "drain"))
    observer = Observer(sim)
    sim.observer = observer
    daemon = ScrubDaemon(cluster)
    assert run(sim, daemon.drain()) is True
    table = {row["metric"]: row["value"]
             for row in merge_profiles([observer])["scrub"]}
    assert daemon.metrics.counter("errors_found").value == 1
    assert table["errors_found"] == 1
    # Two sweeps over the one object: the repairing pass, the clean pass.
    assert table["objects_scrubbed"] == 2
    assert table["repaired"] == 1


# --- fast-path guard ---------------------------------------------------------

def test_integrity_off_records_nothing_and_keeps_fast_path(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2, integrity=False)
    payload = b"fast" * 100

    def proc():
        yield from cluster.write_extent(18, 0, payload)
        return (yield from cluster.read_extent(18, 0, len(payload)))

    assert run(sim, proc()) == payload
    assert not cluster.resilient
    assert all(not osd._digests for osd in cluster.osds)
    assert cluster.metrics.counter("checksum_failures").value == 0
    cluster.enable_integrity()
    assert cluster.resilient, "arming integrity opts into verified reads"


# --- client-visible semantics (EIO through the filesystem API) ---------------

def _make_client(sim, machine, cluster, costs, name):
    from repro.cephclient import CephLibClient
    account = machine.ram.child(units.mib(64), "%s.ram" % name)
    return CephLibClient(
        sim, cluster, costs, account, machine.activated, name=name
    )


def test_client_read_masks_single_corrupt_replica(sim, machine, costs):
    from tests.conftest import make_task

    cluster = make_cluster(sim, costs, replicas=2)
    client = _make_client(sim, machine, cluster, costs, "mask")
    task = make_task(sim, machine)
    payload = b"precious bytes" * 200

    def proc():
        yield from client.write_file(task, "/f", payload, sync=True)
        info = client.attr_cache["/f"]
        primary = cluster.crush.primary(info.ino, 0)
        assert cluster.osds[primary].inject_bitrot(
            info.ino, 0, make_rng(7, "client-mask")
        )
        client.cache.drop_ino(info.ino)  # force a backend read
        data = yield from client.read_file(task, "/f")
        yield sim.timeout(1.0)  # background read-repair completes
        return data, info.ino, primary

    data, ino, primary = run(sim, proc())
    assert data == payload
    assert cluster.osds[primary].replica_clean(ino, 0)


def test_client_read_surfaces_eio_when_all_replicas_corrupt(
        sim, machine, costs):
    from tests.conftest import make_task

    cluster = make_cluster(sim, costs, replicas=2)
    client = _make_client(sim, machine, cluster, costs, "eio")
    task = make_task(sim, machine)
    payload = b"unlucky" * 300

    def proc():
        yield from client.write_file(task, "/g", payload, sync=True)
        info = client.attr_cache["/g"]
        for n, osd_id in enumerate(cluster.monitor.holders(info.ino, 0)):
            assert cluster.osds[osd_id].inject_bitrot(
                info.ino, 0, make_rng(8, "client-eio", n)
            )
        client.cache.drop_ino(info.ino)
        try:
            yield from client.read_file(task, "/g")
        except FsError as err:
            return err
        return None

    err = run(sim, proc())
    assert isinstance(err, DataCorrupt), (
        "all-replica corruption must surface, not read back garbage"
    )
    assert err.errno == errno.EIO

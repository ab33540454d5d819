"""Tests for metadata high availability.

Three layers:

* the :class:`MdsMap` routing arithmetic (pure);
* journal-before-apply, torn tails, crash recovery, heartbeat-driven
  standby promotion, epoch fencing and exactly-once resends against a
  live cluster;
* the end-to-end failover chaos runs (marked ``chaos``): SIGKILL the
  active MDS under a metadata-heavy multi-tenant workload and assert
  zero lost acked mutations plus a deterministic fingerprint per seed.
"""

import functools

import pytest

from repro.common import units
from repro.common.errors import FileExists, OldEpoch, OpTimeout
from repro.costs import CostModel
from repro.faults.chaos import ChaosConfig
from repro.net import Fabric
from repro.storage import CephCluster
from repro.storage.mdsmap import MdsMap
from tests.conftest import run


# --- MdsMap routing (pure) ---------------------------------------------------

def test_single_rank_map_routes_everything_to_zero():
    mdsmap = MdsMap(1, ranks=[0], standbys=[1])
    assert mdsmap.rank_for("create", ("/a/b",)) == 0
    assert mdsmap.rank_for("readdir", ("/a",)) == 0
    assert mdsmap.rank_for("caps_commit", (12345,)) == 0
    assert mdsmap.gid_of(0) == 0


def test_multi_rank_map_partitions_by_parent_directory():
    mdsmap = MdsMap(3, ranks=[0, 1], standbys=[])
    # Entries of the same directory share a rank (dentry + dir journal
    # locality); the mapping itself is deterministic.
    rank = mdsmap.rank_for("create", ("/proj/a",))
    assert mdsmap.rank_for("unlink", ("/proj/b",)) == rank
    assert mdsmap.rank_for("readdir", ("/proj",)) == mdsmap.rank_of_dir("/proj")
    assert mdsmap.rank_for("create", ("/proj/a",)) == rank  # stable
    # Inode-addressed ops route by ino, spanning both ranks.
    assert {mdsmap.rank_for("caps_commit", (n,)) for n in range(4)} == {0, 1}


def test_rename_routes_by_source_path():
    mdsmap = MdsMap(3, ranks=[0, 1], standbys=[])
    rank = mdsmap.rank_of_path("/src/f")
    assert mdsmap.rank_for("rename", ("/src/f", "/dst/f")) == rank


# --- cluster-level HA machinery ---------------------------------------------

@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(64))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)


def test_mutations_journal_before_ack(sim, cluster):
    service = cluster.enable_mds_ha(standbys=1)

    def proc():
        yield from cluster.mds_call("create", "/a", exclusive=True,
                                    client_id=1, op_id=1)
        yield from cluster.mds_call("mkdir", "/d", client_id=1, op_id=2)
        yield from cluster.mds_call("rename", "/a", "/d/a",
                                    client_id=1, op_id=3)

    run(sim, proc())
    journal = service.journals[0]
    assert journal.entries == 3
    assert journal.length > 0
    # The journal is real object data on the OSDs, not bookkeeping.
    assert cluster.stored_bytes >= journal.length
    # Reads never journal.
    assert cluster.mds.metrics.counter("journal_entries").value == 3


def test_torn_journal_tail_is_dropped_by_replay(sim, cluster):
    service = cluster.enable_mds_ha(standbys=0)
    journal = service.journals[0]

    def proc():
        yield from cluster.mds_call("create", "/whole", exclusive=True,
                                    client_id=1, op_id=1)
        # A SIGKILL mid-append leaves a torn, newline-less tail.
        torn = b'{"op":"create","path":"/torn","seq":'
        yield from cluster.write_extent(journal.ino, journal.length, torn)
        journal.length += len(torn)
        return (yield from journal.read_from(0))

    records, consumed = run(sim, proc())
    assert [r["path"] for r in records] == ["/whole"]
    assert consumed < journal.length  # the torn suffix was not trusted


def test_crash_then_recover_local_replays_the_journal(sim, cluster):
    cluster.enable_mds_ha(standbys=0)

    def proc():
        yield from cluster.mds_call("mkdir", "/kept", client_id=1, op_id=1)
        yield from cluster.mds_call("create", "/kept/f", exclusive=True,
                                    client_id=1, op_id=2)
        mds = cluster.mds
        epoch_before = mds.session_epoch
        mds.crash()
        # SIGKILL answers nothing: a bare op times out.
        with pytest.raises(OpTimeout):
            yield from mds.lookup("/kept/f")
        yield from mds.recover_local()
        assert mds.session_epoch == epoch_before + 1
        info = yield from mds.lookup("/kept/f")
        return info, mds

    info, mds = run(sim, proc())
    assert not info.is_dir
    # The dedup table was rebuilt from the journal, not lost.
    assert (1, 2) in mds.dedup
    assert mds.sessions.get(1) == 2


def test_heartbeats_promote_standby_and_ops_continue(sim, cluster):
    service = cluster.enable_mds_ha(standbys=1)
    cluster.monitor.start_heartbeats()

    def proc():
        yield from cluster.mds_call("mkdir", "/t", client_id=1, op_id=1)
        yield from cluster.mds_call("create", "/t/a", exclusive=True,
                                    client_id=1, op_id=2)
        old_gid = service.active_gids[0]
        service.active_daemon(0).crash()
        # The next op rides detection + promotion + replay transparently.
        info = yield from cluster.mds_call("lookup", "/t/a")
        return old_gid, info

    old_gid, info = run(sim, proc())
    assert service.active_gids[0] != old_gid
    assert service.daemons[old_gid].state in ("stopped", "standby")
    assert service.metrics.counter("failovers").value == 1
    assert not info.is_dir
    # The promoted standby holds the journaled namespace.
    assert cluster.mds.path_exists("/t/a")


def test_resent_mutation_is_exactly_once_across_failover(sim, cluster):
    """A rename whose ack died with the old active must not double-apply:
    the resend carries the same (client_id, op_id) and dedups against
    the table the standby rebuilt during replay."""
    service = cluster.enable_mds_ha(standbys=1)
    cluster.monitor.start_heartbeats()

    def proc():
        yield from cluster.mds_call("mkdir", "/d", client_id=9, op_id=1)
        yield from cluster.mds_call("create", "/src", exclusive=True,
                                    client_id=9, op_id=2)
        yield from cluster.mds_call("rename", "/src", "/d/dst",
                                    client_id=9, op_id=3)
        service.active_daemon(0).crash()
        # The ack above was delivered, but pretend the client never saw
        # it: resend with the identical op id after the failover.
        yield from cluster.mds_call("rename", "/src", "/d/dst",
                                    client_id=9, op_id=3)
        # Resending the original create dedups too: it must NOT
        # resurrect /src, which the (applied) rename already moved.
        yield from cluster.mds_call("create", "/src", exclusive=True,
                                    client_id=9, op_id=2)
        assert not cluster.mds.path_exists("/src")
        # A genuinely new create of the now-free name is not confused
        # with the replayed one.
        yield from cluster.mds_call("create", "/src", exclusive=True,
                                    client_id=9, op_id=99)
        with pytest.raises(FileExists):
            yield from cluster.mds_call("create", "/src", exclusive=True,
                                        client_id=9, op_id=100)

    run(sim, proc())
    active = cluster.mds
    assert active.metrics.counter("dedup_hits").value >= 2
    assert active.path_exists("/d/dst")
    assert active.path_exists("/src")


def test_deposed_active_fences_stale_epoch_ops(sim, cluster):
    service = cluster.enable_mds_ha(standbys=1)

    def proc():
        yield from cluster.mds_call("mkdir", "/pre", client_id=1, op_id=1)
        old = service.active_daemon(0)
        stale_epoch = old.map_epoch
        yield from service.failover(0)
        # The deposed daemon is alive but must reject everything: both
        # stale-stamped ops and current-stamped ones (it holds no rank).
        with pytest.raises(OldEpoch):
            yield from old.mkdir("/rogue", client_id=1, op_id=2,
                                 map_epoch=stale_epoch)
        return old

    old = run(sim, proc())
    assert old.metrics.counter("fenced_ops").value >= 1
    assert not cluster.mds.path_exists("/rogue")
    assert cluster.mds is not old


def test_rank_split_repartitions_and_keeps_namespace(sim, cluster):
    service = cluster.enable_mds_ha(standbys=1)

    def proc():
        yield from cluster.mds_call("mkdir", "/a", client_id=1, op_id=1)
        yield from cluster.mds_call("mkdir", "/b", client_id=1, op_id=2)
        service.split_rank()
        assert service.num_ranks == 2
        # Ops now route across both ranks; everything stays visible.
        for index, path in enumerate(("/a/x", "/b/y")):
            yield from cluster.mds_call("create", path, exclusive=True,
                                        client_id=1, op_id=10 + index)
        infos = []
        for path in ("/a/x", "/b/y"):
            infos.append((yield from cluster.mds_call("lookup", path)))
        return infos

    infos = run(sim, proc())
    assert all(not info.is_dir for info in infos)
    assert service.metrics.counter("rank_splits").value == 1
    mdsmap = cluster.monitor.mdsmap
    assert mdsmap.num_ranks == 2
    # Each creation journaled on the rank owning its parent directory.
    ranks_used = {mdsmap.rank_of_path(p) for p in ("/a/x", "/b/y")}
    for rank in ranks_used:
        assert service.journals[rank].entries >= 1


def test_disarmed_cluster_keeps_single_mds_surface(sim, cluster):
    """No service, no journal, no op ids: the legacy single-MDS shape."""
    assert cluster.mds_service is None
    assert cluster.mds is cluster._mds
    assert cluster.mds.journal is None
    assert cluster.mds_healthy()

    def proc():
        yield from cluster.mds_call("create", "/plain", exclusive=True)
        return (yield from cluster.mds_call("lookup", "/plain"))

    info = run(sim, proc())
    assert info.nlink == 1
    assert cluster.mds.metrics.counter("journal_entries").value == 0


# --- end-to-end failover chaos ----------------------------------------------

_CHAOS_KW = dict(
    duration=8.0,
    replicas=2,
    threads=3,        # multiple tenants mutating concurrently
    nfiles=36,
    mean_size=8 * 1024,   # metadata-heavy: many small files
    mds_crashes=1,
    mds_failovers=1,
    mds_standbys=2,
    osd_crashes=0,
    partitions=0,
    service_crashes=0,
)


@functools.lru_cache(maxsize=None)
def _first_run(seed):
    """The first chaos run of ``seed``, shared by every test that reads it
    (the determinism check still makes its second run fresh)."""
    return ChaosConfig(seed=seed, **_CHAOS_KW).run()


@pytest.mark.chaos
def test_chaos_mds_failover_loses_no_acked_mutations():
    result = _first_run(7)
    assert result.ok
    assert result.mismatches == []
    assert result.read_mismatches == []
    kinds = {entry[2] for entry in result.plan_log}
    assert "mds_crash" in kinds and "mds_failover" in kinds


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_chaos_mds_failover_is_deterministic_per_seed(seed):
    one = _first_run(seed)
    two = ChaosConfig(seed=seed, **_CHAOS_KW).run()
    assert one.ok and two.ok
    assert one.fingerprint() == two.fingerprint()
    assert one.plan_log == two.plan_log

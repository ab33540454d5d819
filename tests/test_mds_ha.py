"""Tests for metadata high availability.

Two layers:

* the published :class:`MdsMap`, journal-before-apply, torn tails,
  crash recovery, heartbeat-driven standby promotion, epoch fencing and
  exactly-once resends against a live cluster;
* the end-to-end failover chaos runs (marked ``chaos``): SIGKILL the
  active MDS under a metadata-heavy multi-tenant workload and assert
  zero lost acked mutations plus a deterministic fingerprint per seed.
"""

import functools

import pytest

from repro.common import units
from repro.common.errors import FileExists, FsError, OldEpoch, OpTimeout
from repro.costs import CostModel
from repro.faults.chaos import ChaosConfig
from repro.net import Fabric
from repro.storage import CephCluster
from repro.sim import Simulator
from repro.storage.mds import (
    JOURNAL_INO_BASE,
    InodeInfo,
    Mds,
    MdsMap,
    MdsStore,
)
from tests.conftest import committed_fingerprint, run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(64))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)


def test_single_rank_map_routes_everything_to_zero(sim, cluster):
    """The published map names the one active gid and its epoch: gid 0
    at a fresh cluster, the promoted standby at a bumped epoch after a
    failover."""
    assert cluster.monitor.mdsmap == MdsMap(epoch=1, active=0)
    service = cluster.enable_mds_ha(standbys=1)
    assert cluster.monitor.mdsmap == MdsMap(epoch=2, active=0)
    run(sim, service.failover())
    mdsmap = cluster.monitor.mdsmap
    assert mdsmap.active == service.active_gid != 0
    assert mdsmap.epoch == service.epoch > 2
    assert cluster.mds is service.daemons[mdsmap.active]


def test_mutations_journal_before_ack(sim, cluster):
    service = cluster.enable_mds_ha(standbys=1)

    def proc():
        yield from cluster.mds_call("create", "/a", exclusive=True,
                                    client_id=1, op_id=1)
        yield from cluster.mds_call("mkdir", "/d", client_id=1, op_id=2)
        yield from cluster.mds_call("rename", "/a", "/d/a",
                                    client_id=1, op_id=3)

    run(sim, proc())
    journal = service.journal
    assert journal.entries == 3
    assert journal.length > 0
    # The journal is real object data on the OSDs, not bookkeeping.
    assert cluster.stored_bytes >= journal.length
    # Reads never journal.
    assert cluster.mds.metrics.counter("journal_entries").value == 3


def test_torn_journal_tail_is_dropped_by_replay(sim, cluster):
    service = cluster.enable_mds_ha(standbys=0)
    journal = service.journal

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


def test_crash_then_restore_replays_the_journal(sim, cluster):
    service = cluster.enable_mds_ha(standbys=0)

    def proc():
        yield from cluster.mds_call("mkdir", "/kept", client_id=1, op_id=1)
        yield from cluster.mds_call("create", "/kept/f", exclusive=True,
                                    client_id=1, op_id=2)
        mds = cluster.mds
        mds.crash()
        # SIGKILL answers nothing: a bare op times out.
        with pytest.raises(OpTimeout):
            yield from mds.lookup("/kept/f")
        yield from service.restore(mds.gid)
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
        old_gid = service.active_gid
        service.active_daemon().crash()
        # The next op rides detection + promotion + replay transparently.
        info = yield from cluster.mds_call("lookup", "/t/a")
        return old_gid, info

    old_gid, info = run(sim, proc())
    assert service.active_gid != old_gid
    assert service.daemons[old_gid].state in ("stopped", "standby")
    assert service.metrics.counter("failovers").value == 1
    assert not info.is_dir
    # The promoted standby holds the journaled namespace.
    assert cluster.mds.tree.try_lookup("/t/a") is not None


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
        service.active_daemon().crash()
        # The ack above was delivered, but pretend the client never saw
        # it: resend with the identical op id after the failover.
        yield from cluster.mds_call("rename", "/src", "/d/dst",
                                    client_id=9, op_id=3)
        # Resending the original create dedups too: it must NOT
        # resurrect /src, which the (applied) rename already moved.
        yield from cluster.mds_call("create", "/src", exclusive=True,
                                    client_id=9, op_id=2)
        assert cluster.mds.tree.try_lookup("/src") is None
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
    assert active.tree.try_lookup("/d/dst") is not None
    assert active.tree.try_lookup("/src") is not None


def test_deposed_active_fences_stale_epoch_ops(sim, cluster):
    service = cluster.enable_mds_ha(standbys=1)

    def proc():
        yield from cluster.mds_call("mkdir", "/pre", client_id=1, op_id=1)
        old = service.active_daemon()
        stale_epoch = old.map_epoch
        yield from service.failover()
        # The deposed daemon is alive but must reject everything: both
        # stale-stamped ops and current-stamped ones (it is no longer
        # the active).
        with pytest.raises(OldEpoch):
            yield from old.mkdir("/rogue", client_id=1, op_id=2,
                                 map_epoch=stale_epoch)
        return old

    old = run(sim, proc())
    assert old.metrics.counter("fenced_ops").value >= 1
    assert cluster.mds.tree.try_lookup("/rogue") is None
    assert cluster.mds is not old


def test_daemon_deposed_while_serving_applies_nothing(sim, cluster):
    """A failover that lands inside a mutation's service time leaves the
    deposed daemon without its journal: the op must be fenced, not
    applied to the shared store unjournaled."""
    service = cluster.enable_mds_ha(standbys=1)
    old = service.active_daemon()

    def serve():
        with pytest.raises(OldEpoch):
            yield from old.mkdir("/late", client_id=1, op_id=1,
                                 map_epoch=old.map_epoch)

    def proc():
        op = sim.spawn(serve())
        yield cluster.costs.mds_op / 4  # the op is inside its service time
        yield from service.failover()
        yield op

    run(sim, proc())
    assert cluster.mds is not old
    assert cluster.mds.tree.try_lookup("/late") is None
    assert service.journal.entries == 0


def _namespace(tree):
    return [(path, node.ino, node.is_dir, node.size, node.mtime)
            for path, node in tree.walk("/")]


#: one of each mutation, stamped in order with op ids 1, 2, …
_OPS = [
    ("mkdir", ("/d",), {}),
    ("create", ("/d/f",), {"exclusive": True}),
    ("create", ("/d/g",), {}),
    ("setattr_size", ("/d/f", 5000), {}),
    ("setattr_size", ("/d/g", 100), {"truncate": True}),
    ("rename", ("/d/f", "/d/h"), {}),
    ("unlink", ("/d/g",), {}),
    ("mkdir", ("/d/e",), {}),
    ("rmdir", ("/d/e",), {}),
]


def _run_ops(cluster):
    """Run :data:`_OPS` as client 1 (sim generator); returns the
    results."""
    results = []
    for op_id, (op, args, kwargs) in enumerate(_OPS, 1):
        results.append((yield from cluster.mds_call(
            op, *args, client_id=1, op_id=op_id, **kwargs)))
    return results


def test_replaying_the_journal_rebuilds_the_live_namespace(sim, cluster):
    """Live ops and replay apply the same records: a fresh daemon that
    replays the journal holds the namespace the clients saw, down
    to every directory's mtime."""
    service = cluster.enable_mds_ha(standbys=0)

    def proc():
        yield from _run_ops(cluster)
        fresh = Mds(sim, cluster.costs, lambda ino, size: None,
                    store=MdsStore(), gid=99)
        replayed = yield from fresh.replay_journal(service.journal)
        return fresh, replayed

    fresh, replayed = run(sim, proc())
    assert replayed == len(_OPS)
    live = _namespace(cluster.mds.tree)
    assert [entry[0] for entry in live] == ["/", "/d", "/d/h"]
    assert _namespace(fresh.tree) == live


def _untimed(result):
    """A result without its mtime: a journaled op acks later, so the
    clock is all that differs between a detached and an attached run."""
    if isinstance(result, InodeInfo):
        return (result.ino, result.is_dir, result.size, result.nlink,
                result.version)
    return result


def test_detached_journal_answers_like_the_attached_one(costs):
    """A fresh cluster's MDS has no journal: it writes no journal
    object, keeps no dedup or session table, and answers a fixed op
    sequence with the results and the namespace an attached journal
    gives, times aside."""
    runs = {}
    for journal in ("detached", "attached"):
        sim = Simulator()
        cluster = CephCluster(sim, Fabric(sim), costs, num_osds=4,
                              replicas=2)
        if journal == "attached":
            cluster.enable_mds_ha(standbys=0)
        assert cluster.mds_healthy()
        runs[journal] = (cluster, run(sim, _run_ops(cluster)))

    detached, results = runs["detached"]
    attached, attached_results = runs["attached"]
    journal_ino = JOURNAL_INO_BASE
    assert all(not osd.indices_of(journal_ino) for osd in detached.osds)
    assert any(osd.indices_of(journal_ino) for osd in attached.osds)
    assert detached.mds.dedup == {} and detached.mds.sessions == {}
    assert len(attached.mds.dedup) == len(_OPS)
    assert [_untimed(r) for r in results] == \
        [_untimed(r) for r in attached_results]
    assert [entry[:4] for entry in _namespace(detached.mds.tree)] == \
        [entry[:4] for entry in _namespace(attached.mds.tree)]


def _answer(gen):
    """Run one MDS call to its answer (sim generator): ``("ok",
    result)``, or ``("error", name)`` for a filesystem error."""
    try:
        return ("ok", (yield from gen))
    except FsError as err:
        return ("error", type(err).__name__)


@pytest.mark.parametrize("rival", ["unlink", "rename"])
@pytest.mark.parametrize("journal", ["detached", "attached"])
def test_racing_mutations_see_one_namespace(sim, cluster, journal, rival):
    """The MDS's mutations are atomic from their checks to their apply,
    with or without a journal: a truncating create racing an unlink or
    a rename of its file finds the file gone and creates a fresh one,
    instead of journaling a truncate of a file that is no longer
    there."""
    if journal == "attached":
        cluster.enable_mds_ha(standbys=0)
    rival_args = ("/f",) if rival == "unlink" else ("/f", "/h")

    def proc():
        old = yield from cluster.mds_call("create", "/f", client_id=1,
                                          op_id=1)
        first = sim.spawn(_answer(cluster.mds_call(
            rival, *rival_args, client_id=2, op_id=1)))
        second = sim.spawn(_answer(cluster.mds_call(
            "create", "/f", truncate=True, client_id=3, op_id=1)))
        yield sim.all_of([first, second])
        return old, first.value, second.value

    old, rival_answer, create_answer = run(sim, proc())
    assert rival_answer == ("ok", (old.ino, 0) if rival == "unlink" else None)
    status, info = create_answer
    assert status == "ok", create_answer
    assert info.ino != old.ino and info.size == 0
    tree = cluster.mds.tree
    assert tree.lookup("/f").ino == info.ino
    moved = tree.try_lookup("/h")
    assert (moved and moved.ino) == (old.ino if rival == "rename" else None)


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
    """The one chaos run of ``seed``, shared by every test that reads it."""
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
    # The fingerprint covers the plan log, the file digests and the op
    # and byte counts.
    one = _first_run(seed)
    assert one.ok
    assert one.fingerprint_hex() == committed_fingerprint(
        "chaos_mds_failover", seed)

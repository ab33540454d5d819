"""Tests for the capabilities-based consistency mode."""

import pytest

from repro.cephclient import CephLibClient
from repro.common import units
from repro.common.errors import InvalidArgument
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.net import Fabric
from repro.storage import CephCluster
from repro.storage.caps import (
    CAP_READ_CACHE,
    CAP_WRITE_BUFFER,
    CapsTable,
)
from tests.conftest import make_task, run


# --- the caps table (pure logic) -------------------------------------------

def test_concurrent_readers_do_not_conflict():
    table = CapsTable()
    table.grant(1, 10, CAP_READ_CACHE)
    table.grant(1, 11, CAP_READ_CACHE)
    assert table.conflicts(1, 12, CAP_READ_CACHE) == []


def test_writer_revokes_everyone():
    table = CapsTable()
    table.grant(1, 10, CAP_READ_CACHE)
    table.grant(1, 11, CAP_READ_CACHE | CAP_WRITE_BUFFER)
    conflicts = dict(table.conflicts(1, 12, CAP_WRITE_BUFFER))
    assert conflicts[10] == CAP_READ_CACHE
    assert conflicts[11] == CAP_READ_CACHE | CAP_WRITE_BUFFER


def test_reader_revokes_only_write_caps():
    table = CapsTable()
    table.grant(1, 10, CAP_READ_CACHE | CAP_WRITE_BUFFER)
    conflicts = dict(table.conflicts(1, 11, CAP_READ_CACHE))
    assert conflicts == {10: CAP_WRITE_BUFFER}


def test_own_caps_never_conflict():
    table = CapsTable()
    table.grant(1, 10, CAP_WRITE_BUFFER)
    assert table.conflicts(1, 10, CAP_WRITE_BUFFER | CAP_READ_CACHE) == []


def test_revoke_and_cleanup():
    table = CapsTable()
    table.grant(1, 10, CAP_READ_CACHE | CAP_WRITE_BUFFER)
    table.revoke(1, 10, CAP_WRITE_BUFFER)
    assert table.held(1, 10) == CAP_READ_CACHE
    table.revoke(1, 10, CAP_READ_CACHE)
    assert table.held(1, 10) == 0
    assert table.holders(1) == {}


# --- end-to-end coherence ----------------------------------------------------

@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4)


def make_caps_client(sim, machine, cluster, costs, name):
    account = machine.ram.child(units.mib(64), name + ".ram")
    return CephLibClient(
        sim, cluster, costs, account, machine.activated, name=name,
        consistency="caps",
    )


def test_unknown_consistency_rejected(sim, machine, cluster, costs):
    account = machine.ram.child(units.mib(8), "bad.ram")
    with pytest.raises(InvalidArgument):
        CephLibClient(
            sim, cluster, costs, account, machine.activated,
            consistency="eventual",
        )


def test_caps_reader_sees_unflushed_writer_data(sim, machine, cluster, costs):
    """The coherence upgrade: opening a file a writer is buffering forces
    the writer's flush, so the reader sees the bytes immediately — no
    fsync needed (contrast tests/test_cephclient.py's close-to-open
    behaviour)."""
    writer = make_caps_client(sim, machine, cluster, costs, "w")
    reader = make_caps_client(sim, machine, cluster, costs, "r")
    task = make_task(sim, machine)

    def proc():
        handle = yield from writer.open(
            task, "/doc", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from writer.write(task, handle, 0, b"unflushed brilliance")
        # No fsync, no close: the data only lives in w's write buffer.
        assert cluster.stored_bytes == 0
        data = yield from reader.read_file(task, "/doc")
        yield from writer.close(task, handle)
        return data

    assert run(sim, proc()) == b"unflushed brilliance"
    assert writer.metrics.counter("caps_revoked").value >= 1


def test_caps_writer_invalidates_stale_reader(sim, machine, cluster, costs):
    reader = make_caps_client(sim, machine, cluster, costs, "r2")
    writer = make_caps_client(sim, machine, cluster, costs, "w2")
    task = make_task(sim, machine)

    def proc():
        yield from writer.write_file(task, "/state", b"version-1", sync=True)
        first = yield from reader.read_file(task, "/state")
        # Writer updates; the write-open revokes the reader's caps.
        yield from writer.write_file(task, "/state", b"version-2")
        second = yield from reader.read_file(task, "/state")
        return first, second

    first, second = run(sim, proc())
    assert first == b"version-1"
    assert second == b"version-2"
    assert reader.metrics.counter("caps_revoked").value >= 1


def test_caps_grant_latency_includes_flush(sim, machine, cluster, costs):
    """The conflicting open pays for the writer's flush — coherence is
    not free, which is why it is opt-in."""
    writer = make_caps_client(sim, machine, cluster, costs, "w3")
    reader = make_caps_client(sim, machine, cluster, costs, "r3")
    task = make_task(sim, machine)
    payload = b"h" * units.mib(2)

    def proc():
        handle = yield from writer.open(
            task, "/big", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from writer.write(task, handle, 0, payload)
        start = sim.now
        read_handle = yield from reader.open(task, "/big")
        open_latency = sim.now - start
        yield from reader.close(task, read_handle)
        yield from writer.close(task, handle)
        return open_latency

    open_latency = run(sim, proc())
    # 2 MiB must cross the network during the open.
    assert open_latency > units.mib(2) / (4 * units.GIB)


def test_cap_revoke_racing_client_crash_does_not_block(sim, machine, cluster,
                                                       costs):
    """A revoke aimed at a client that died mid-protocol must neither
    block the conflicting open nor resurrect the dead client's unflushed
    buffer; its stale cap records are cleaned up by the grant commit."""
    writer = make_caps_client(sim, machine, cluster, costs, "wc")
    reader = make_caps_client(sim, machine, cluster, costs, "rc")
    task = make_task(sim, machine)

    def proc():
        yield from writer.write_file(task, "/race", b"durable!", sync=True)
        handle = yield from writer.open(task, "/race", OpenFlags.RDWR)
        yield from writer.write(task, handle, 0, b"buffered")
        # SIGKILL between the conflict computation and the revoke
        # delivery: the client vanishes from the registry while its cap
        # records linger at the MDS.
        del cluster._cap_clients[writer.client_id]
        return (yield from reader.read_file(task, "/race"))

    data = run(sim, proc())
    # The dirty buffer died with the process; only durable bytes remain.
    assert data == b"durable!"
    ino = cluster.mds.node_of("/race").ino
    # The grant commit cleaned up the dead holder's conflicting cap.
    assert not cluster.mds.caps.held(ino, writer.client_id) & CAP_WRITE_BUFFER
    assert cluster.mds.caps.held(ino, reader.client_id) & CAP_READ_CACHE
    assert reader.metrics.counter("caps_revoked").value == 0


def test_caps_reacquired_after_session_reconnect(sim, machine, cluster, costs):
    """An MDS crash and journal-replay restart empties the caps table;
    the holder's next metadata op reestablishes the session and
    re-grants what it held."""
    cluster.enable_mds_ha(standbys=0)
    client = make_caps_client(sim, machine, cluster, costs, "rw")
    task = make_task(sim, machine)

    def proc():
        handle = yield from client.open(
            task, "/held", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from client.write(task, handle, 0, b"mine")
        ino = cluster.mds.node_of("/held").ino
        held_before = cluster.mds.caps.held(ino, client.client_id)
        cluster.mds.crash()
        yield from cluster.mds_service.restore(cluster.mds.gid)
        assert cluster.mds.caps.held(ino, client.client_id) == 0
        # Any metadata op triggers the reconnect protocol first.
        yield from client.open(task, "/held", OpenFlags.RDWR)
        return ino, held_before

    ino, held_before = run(sim, proc())
    assert held_before & CAP_WRITE_BUFFER
    assert cluster.mds.caps.held(ino, client.client_id) == held_before
    assert client.metrics.counter("sessions_reestablished").value == 1


def test_conflicting_writers_stay_coherent_across_failover(sim, machine,
                                                           cluster, costs):
    """Caps survive an MDS failover through reacquisition: the first
    writer reconnects to the promoted standby, and a second writer's
    conflicting open still forces its flush — buffered data crosses the
    failover boundary instead of being lost or served stale."""
    first = make_caps_client(sim, machine, cluster, costs, "fw")
    second = make_caps_client(sim, machine, cluster, costs, "sw")
    task = make_task(sim, machine)
    service = cluster.enable_mds_ha(standbys=1)

    def proc():
        handle = yield from first.open(
            task, "/shared", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from first.write(task, handle, 0, b"pre-failover bytes")
        yield from service.failover()
        # The first writer's next op reconnects under the new session
        # epoch and reacquires its write caps from the promoted active.
        yield from first.open(task, "/shared", OpenFlags.RDWR)
        # The second writer's conflicting open must revoke them, forcing
        # the pre-failover buffer to flush before it reads.
        return (yield from second.read_file(task, "/shared"))

    data = run(sim, proc())
    assert data == b"pre-failover bytes"
    assert service.metrics.counter("failovers").value == 1
    assert first.metrics.counter("sessions_reestablished").value >= 1
    assert first.metrics.counter("caps_revoked").value >= 1


def test_close_to_open_clients_skip_caps_entirely(sim, machine, cluster, costs):
    account = machine.ram.child(units.mib(64), "plain.ram")
    client = CephLibClient(
        sim, cluster, costs, account, machine.activated, name="plain"
    )
    task = make_task(sim, machine)

    def proc():
        yield from client.write_file(task, "/f", b"x")

    run(sim, proc())
    assert client.client_id is None
    assert cluster.metrics.counter("caps_grants").value == 0

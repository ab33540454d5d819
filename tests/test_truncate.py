"""O_TRUNC and ``truncate()`` ride on one MDS op; the cluster cuts.

A truncating open sends its ``create`` (or, without O_CREAT, a
``setattr_size``) with ``truncate=True``, and ``truncate()`` sends
``setattr_size`` with it: the MDS journals one ``setattr`` record, sets
the size and cuts every stored copy through ``CephCluster.cut`` — no
client→OSD RPC. What the client holds across that op is pinned here:
the lib client's flush mutex of the inode and nothing else, no lock at
all on the kernel client. The in-flight batch case lives in
``tests/test_flush_inflight.py``.
"""

import pytest

from repro.cephclient import CephKernelFs, CephLibClient
from repro.common import units
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.net import Fabric
from repro.storage import CephCluster
from tests.conftest import make_task, run

SIZE = units.kib(600)  # three 256 KiB objects
PAYLOAD = bytes(range(256)) * (SIZE // 256)


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)


def lib_client(sim, machine, cluster, costs, name, **kwargs):
    account = machine.ram.child(units.mib(64), name + ".ram")
    return CephLibClient(sim, cluster, costs, account, machine.activated,
                         name=name, start_flusher=False, **kwargs)


def edge_rpcs(cluster):
    """RPCs so far per edge kind: ``{"mds": n, "osd": n}``."""
    counts = {"mds": 0, "osd": 0}
    for row in cluster.fabric.edge_profile():
        kind = "osd" if row["edge"].startswith("osd") else "mds"
        counts[kind] += row["rpcs"]
    return counts


def watch_mds_ops(cluster, held):
    """Record ``(op, held())`` as each MDS op starts to run."""
    seen = []
    real = cluster.mds_call

    def mds_call(op_name, *args, **kwargs):
        inner = real(op_name, *args, **kwargs)

        def observed():
            seen.append((op_name, held()))
            return (yield from inner)

        return observed()

    cluster.mds_call = mds_call
    return seen


def stored_file(sim, task, fs):
    """Write and sync ``/f`` (three objects); returns its ino."""

    def proc():
        handle = yield from fs.open(task, "/f",
                                    OpenFlags.CREAT | OpenFlags.RDWR)
        yield from fs.write(task, handle, 0, PAYLOAD)
        yield from fs.fsync(task, handle)
        yield from fs.close(task, handle)
        return handle.ino

    return run(sim, proc())


def truncating_call(how, fs, task):
    if how == "open":
        flags = OpenFlags.CREAT | OpenFlags.TRUNC | OpenFlags.WRONLY
        return 0, fs.open(task, "/f", flags)
    cut = units.kib(300)  # inside the second object
    return cut, fs.truncate(task, "/f", cut)


@pytest.mark.parametrize("how", ["open", "truncate"])
@pytest.mark.parametrize("which", ["lib", "kernel"])
def test_a_truncate_is_one_mds_rpc_and_no_osd_rpc(sim, machine, kernel,
                                                  cluster, costs, which, how):
    task = make_task(sim, machine)
    if which == "lib":
        fs = lib_client(sim, machine, cluster, costs, "lt")
    else:
        fs = CephKernelFs(kernel, cluster, name="kt")
    ino = stored_file(sim, task, fs)
    if which == "lib":
        def held():
            return (fs.client_lock.locked,
                    fs._locking.flush_lock(ino).locked)
        expect = (False, True)  # only the flush mutex spans the op
    else:
        def held():
            return (fs._inode_lock(ino).locked,)
        expect = (False,)
    seen = watch_mds_ops(cluster, held)
    before = edge_rpcs(cluster)
    cut, call = truncating_call(how, fs, task)
    run(sim, call)
    after = edge_rpcs(cluster)
    assert after["mds"] - before["mds"] == 1
    assert after["osd"] - before["osd"] == 0
    op = "create" if how == "open" else "setattr_size"
    assert seen == [(op, expect)]
    assert cluster.file_bytes(ino) == 2 * cut  # both replicas cut
    assert cluster.mds.node_of("/f").size == cut
    assert run(sim, fs.read_file(task, "/f")) == PAYLOAD[:cut]


def test_a_failover_after_the_journal_append_cuts_once(sim, machine, cluster,
                                                       costs):
    """The active dies between journaling the truncating op and
    replying: the promoted standby's replay applies the record — size
    and cut — and the client's resend dedups against it."""
    service = cluster.enable_mds_ha(standbys=1)
    cluster.monitor.start_heartbeats()
    client = lib_client(sim, machine, cluster, costs, "ha")
    task = make_task(sim, machine)
    ino = stored_file(sim, task, client)
    old_gid = service.active_gid
    journal = service.journal
    real_append = journal.append

    def append(record):
        yield from real_append(record)
        if record.get("truncate") and journal.append is append:
            del journal.append  # one crash only
            service.active_daemon().crash()

    journal.append = append
    cuts = []
    real_cut = cluster.cut

    def cut(ino, size):
        cuts.append((ino, size))
        real_cut(ino, size)

    for daemon in service.daemons.values():
        daemon._trim = cut
    flags = OpenFlags.CREAT | OpenFlags.TRUNC | OpenFlags.WRONLY
    handle = run(sim, client.open(task, "/f", flags))
    assert handle.ino == ino
    assert service.active_gid != old_gid
    assert cuts == [(ino, 0)]
    assert cluster.mds.metrics.counter("dedup_hits").value >= 1
    info = run(sim, cluster.mds_call("lookup", "/f"))
    assert info.size == 0
    assert cluster.file_bytes(ino) == 0
    assert run(sim, client.read_file(task, "/f")) == b""


def test_caps_the_cut_follows_the_revoked_writers_flush(sim, machine,
                                                        cluster, costs):
    """Client A buffers a write; client B's O_TRUNC open revokes A's
    write caps — A's flush lands — and only then cuts."""
    writer = lib_client(sim, machine, cluster, costs, "ca",
                        consistency="caps")
    truncator = lib_client(sim, machine, cluster, costs, "cb",
                           consistency="caps")
    task = make_task(sim, machine)

    def proc():
        handle = yield from writer.open(task, "/f",
                                        OpenFlags.CREAT | OpenFlags.RDWR)
        yield from writer.write(task, handle, 0, PAYLOAD)
        assert cluster.stored_bytes == 0  # buffered in A only
        trunc = yield from truncator.open(
            task, "/f", OpenFlags.CREAT | OpenFlags.TRUNC | OpenFlags.WRONLY
        )
        size = (yield from truncator.stat(task, "/f")).size
        yield from truncator.close(task, trunc)
        yield from writer.close(task, handle)
        seen = yield from writer.read_file(task, "/f")
        return handle.ino, size, seen

    ino, size, seen = run(sim, proc())
    assert writer.metrics.counter("caps_revoked").value >= 1
    assert writer.metrics.counter("bytes_flushed").value == SIZE
    assert size == 0
    assert cluster.file_bytes(ino) == 0
    assert seen == b""

"""The protocol engine under both client personalities (CephMount).

Every case runs against a ``CephLibClient`` and a ``CephKernelFs`` built
on one cluster: what is pinned here is the base, so it must hold
whichever personality sits on top.
"""

import pytest

from repro.cephclient import CephKernelFs, CephLibClient
from repro.common import units
from repro.common.errors import FileNotFound, InvalidArgument
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.net import Fabric
from repro.storage import CephCluster
from tests.conftest import make_task, run

CLIENTS = ["lib", "kernel"]


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4)


@pytest.fixture
def mounts(sim, machine, kernel, cluster, costs):
    """Two mounts of each personality, all on the same cluster."""

    def lib(name, locking="global"):
        account = machine.ram.child(units.mib(128), name)
        return CephLibClient(
            sim, cluster, costs, account, machine.activated, name=name,
            locking=locking,
        )

    return {
        "lib": lib("lib-a"),
        "kernel": CephKernelFs(kernel, cluster, name="cephk-a"),
        "lib2": lib("lib-b"),
        "kernel2": CephKernelFs(kernel, cluster, name="cephk-b"),
        "lib-range": lib("lib-r", locking="range"),
    }


def mds_ops(cluster):
    return cluster.mds.metrics.counter("ops").value


@pytest.mark.parametrize("which", CLIENTS)
def test_failed_lookup_is_cached_until_a_local_create_or_rename(
    sim, machine, cluster, mounts, which
):
    fs = mounts[which]
    task = make_task(sim, machine)

    def proc():
        with pytest.raises(FileNotFound):
            yield from fs.open(task, "/a")
        with pytest.raises(FileNotFound):
            yield from fs.stat(task, "/b")
        before = mds_ops(cluster)
        for path in ("/a", "/b"):
            with pytest.raises(FileNotFound):
                yield from fs.stat(task, path)
        assert mds_ops(cluster) == before  # negative dentries answered
        # a local create clears the negative for its own path ...
        yield from fs.write_file(task, "/a", b"here")
        assert (yield from fs.stat(task, "/a")).size == 4
        # ... and a local rename clears it for the target
        yield from fs.rename(task, "/a", "/b")
        assert (yield from fs.stat(task, "/b")).size == 4
        before = mds_ops(cluster)
        with pytest.raises(FileNotFound):
            yield from fs.stat(task, "/a")  # the source is negative now
        assert mds_ops(cluster) == before

    run(sim, proc())


@pytest.mark.parametrize("which,other", [
    ("lib", "lib2"), ("lib", "kernel"), ("kernel", "kernel2"), ("kernel", "lib"),
])
def test_handle_of_another_mount_is_rejected(
    sim, machine, mounts, which, other
):
    """One shared handle class must not make mounts interchangeable."""
    fs = mounts[which]
    foreign = mounts[other]
    task = make_task(sim, machine)

    def proc():
        yield from foreign.write_file(task, "/f", b"data", sync=True)
        handle = yield from foreign.open(task, "/f", OpenFlags.RDWR)
        with pytest.raises(InvalidArgument):
            yield from fs.read(task, handle, 0, 4)
        with pytest.raises(InvalidArgument):
            yield from fs.write(task, handle, 0, b"nope")
        with pytest.raises(InvalidArgument):
            yield from fs.fsync(task, handle)
        # still good where it was opened
        assert (yield from foreign.read(task, handle, 0, 4)) == b"data"
        yield from foreign.close(task, handle)

    run(sim, proc())


def test_both_personalities_stamp_the_same_ops(sim, machine, cluster, mounts):
    """With HA armed, mutations consume op ids; lookups and readdirs none."""
    cluster.enable_mds_ha()
    task = make_task(sim, machine)

    def script(fs, root):
        used = []

        def step(gen):
            before = fs._mds_op_seq
            yield from gen
            used.append(fs._mds_op_seq - before)

        yield from step(fs.mkdir(task, root))
        yield from step(fs.open(
            task, root + "/f", OpenFlags.WRONLY | OpenFlags.CREAT
        ))
        yield from step(fs.rename(task, root + "/f", root + "/g"))
        yield from step(fs.truncate(task, root + "/g", 10))
        yield from step(fs.stat(task, root + "/g"))
        yield from step(fs.open(task, root + "/g"))  # revalidating lookup
        yield from step(fs.readdir(task, root))
        yield from step(fs.unlink(task, root + "/g"))
        yield from step(fs.rmdir(task, root))
        return used

    lib = run(sim, script(mounts["lib"], "/d-lib"))
    kernel = run(sim, script(mounts["kernel"], "/d-kernel"))
    #      mkdir create rename truncate stat open readdir unlink rmdir
    assert lib == kernel == [1, 1, 1, 1, 0, 0, 0, 1, 1]
    # distinct sessions, so the MDS dedup tables cannot collide
    assert mounts["lib"]._mds_session_id != mounts["kernel"]._mds_session_id


_OPENS = {
    "rdonly": (True, OpenFlags.RDONLY),
    "creat-new": (False, OpenFlags.WRONLY | OpenFlags.CREAT),
    "creat-existing": (True, OpenFlags.WRONLY | OpenFlags.CREAT),
    "trunc": (True, OpenFlags.WRONLY | OpenFlags.TRUNC),
    "creat-trunc": (True, OpenFlags.WRONLY | OpenFlags.CREAT | OpenFlags.TRUNC),
    "creat-excl": (False, OpenFlags.WRONLY | OpenFlags.CREAT | OpenFlags.EXCL),
}


@pytest.mark.parametrize("kind", sorted(_OPENS))
@pytest.mark.parametrize("which", CLIENTS)
def test_each_kind_of_open_costs_one_mds_op(
    sim, machine, cluster, mounts, which, kind
):
    """An open is one MDS op whatever its flags: the revalidating lookup,
    the create, or the create/setattr that carries an O_TRUNC cut."""
    fs = mounts[which]
    exists, flags = _OPENS[kind]
    task = make_task(sim, machine)

    def proc():
        if exists:
            yield from fs.write_file(task, "/f", b"x" * 1000, sync=True)
        before = mds_ops(cluster)
        handle = yield from fs.open(task, "/f", flags)
        assert mds_ops(cluster) == before + 1
        yield from fs.close(task, handle)

    run(sim, proc())


@pytest.mark.parametrize("which", CLIENTS)
def test_peek_returns_unflushed_bytes(sim, machine, cluster, mounts, which):
    fs = mounts[which]
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"0123456789", sync=True)
        handle = yield from fs.open(task, "/f", OpenFlags.WRONLY)
        yield from fs.write(task, handle, 4, b"XYZ")
        yield from fs.write(task, handle, 10, b"tail")  # past the flushed end
        return handle.ino

    ino = run(sim, proc(), until=0.5)
    assert cluster.peek(ino, 0, 10) == b"0123456789"  # nothing flushed yet
    assert fs.peek("/f", 0, 100) == b"0123XYZ789tail"
    assert fs.peek("/f", 12, 100) == b"il"
    assert fs.peek("/f", 14, 100) == b""
    assert fs.peek("/missing", 0, 10) is None


@pytest.mark.parametrize("which", CLIENTS + ["lib-range"])
def test_unlink_drops_every_per_inode_entry(
    sim, machine, kernel, cluster, mounts, which
):
    fs = mounts[which]
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"r" * units.kib(128), sync=True)
        yield from fs.read_file(task, "/f")  # cached blocks / pages
        handle = yield from fs.open(task, "/f", OpenFlags.WRONLY)
        yield from fs.write(task, handle, 0, b"dirty")  # unflushed bytes
        ino = handle.ino
        fs._size_pin(ino)  # as if a size resend were owed
        assert ino in fs._sizes and ino in fs._paths
        assert fs.unflushed.dirty(ino)
        if which == "lib-range":
            assert fs._locking._range_locks[ino]
        yield from fs.unlink(task, "/f")
        return ino

    ino = run(sim, proc(), until=0.5)
    assert ino not in fs._sizes
    assert ino not in fs._paths
    assert ino not in fs._size_flushing
    assert ino not in fs.unflushed
    assert fs.unflushed.dirty_bytes == 0
    assert fs.peek("/f", 0, 1) is None  # a negative dentry now
    assert ino not in fs._readahead._ends
    assert ino not in fs._readahead._inflight
    if which != "kernel":
        assert ino not in fs.cache._blocks
        assert ino not in fs._dirty_since
        assert ino not in fs._locking._ino_locks
        assert ino not in fs._locking._range_locks
        assert fs.cache.cached_bytes == 0
    else:
        assert kernel.page_cache.peek(fs._cache_key(ino)) is None


@pytest.mark.parametrize("which", CLIENTS)
def test_size_survives_an_mds_outage_during_the_flush(
    sim, machine, cluster, mounts, which
):
    """The data lands while the MDS is away: the size is owed, pinned,
    and re-sent — the mount's own re-open must not adopt the stale 0."""
    fs = mounts[which]
    task = make_task(sim, machine)
    payload = bytes(range(250)) * 800  # 200 000 B

    def proc():
        handle = yield from fs.open(
            task, "/f", OpenFlags.WRONLY | OpenFlags.CREAT
        )
        yield from fs.write(task, handle, 0, payload)
        cluster.mds.set_available(False)
        yield from fs.fsync(task, handle)
        assert cluster.stored_bytes == len(payload)
        assert fs._size_authoritative(handle.ino)  # the resend is owed
        cluster.mds.set_available(True)
        yield 30.0  # let the backoff run
        yield from fs.fsync(task, handle)
        yield from fs.close(task, handle)
        assert not fs._size_authoritative(handle.ino)
        reopened = yield from fs.open(task, "/f")
        data = yield from fs.read(task, reopened, 0, 1 << 20)
        yield from fs.close(task, reopened)
        return data, (yield from fs.stat(task, "/f")).size

    data, stat_size = run(sim, proc())
    assert cluster.mds.tree.lookup("/f").size == len(payload)
    assert cluster.stored_bytes == len(payload)
    assert data == payload
    assert stat_size == len(payload)
    assert fs.metrics.counter("size_flush_failures").value == 1

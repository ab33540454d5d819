"""Integration tests for both Ceph client personalities."""

import pytest

from repro.cephclient import CephKernelFs, CephLibClient
from repro.common import units
from repro.common.errors import DataUnavailable, FileNotFound
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.net import Fabric
from repro.storage import CephCluster
from tests.conftest import make_task, run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4)


@pytest.fixture
def libclient(sim, machine, cluster, costs):
    account = machine.ram.child(units.mib(256), "pool-ram")
    return CephLibClient(
        sim, cluster, costs, account, machine.activated, name="libc-test"
    )


@pytest.fixture
def kernelclient(kernel, cluster):
    return CephKernelFs(kernel, cluster, name="cephk-test")


CLIENTS = ["lib", "kernel"]


def pick(which, libclient, kernelclient):
    return libclient if which == "lib" else kernelclient


@pytest.mark.parametrize("which", CLIENTS)
def test_roundtrip(sim, machine, libclient, kernelclient, which):
    fs = pick(which, libclient, kernelclient)
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"payload-bytes")
        return (yield from fs.read_file(task, "/f"))

    assert run(sim, proc()) == b"payload-bytes"


@pytest.mark.parametrize("which", CLIENTS)
def test_stat_tracks_local_writes(sim, machine, libclient, kernelclient, which):
    fs = pick(which, libclient, kernelclient)
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"x" * 1000)
        stat = yield from fs.stat(task, "/f")
        return stat.size

    assert run(sim, proc()) == 1000


@pytest.mark.parametrize("which", CLIENTS)
def test_append_mode(sim, machine, libclient, kernelclient, which):
    fs = pick(which, libclient, kernelclient)
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/log", b"aaa")
        handle = yield from fs.open(
            task, "/log", OpenFlags.WRONLY | OpenFlags.APPEND
        )
        yield from fs.write(task, handle, 0, b"bbb")
        yield from fs.close(task, handle)
        return (yield from fs.read_file(task, "/log"))

    assert run(sim, proc()) == b"aaabbb"


@pytest.mark.parametrize("which", CLIENTS)
def test_namespace_ops(sim, machine, libclient, kernelclient, which):
    fs = pick(which, libclient, kernelclient)
    task = make_task(sim, machine)

    def proc():
        yield from fs.mkdir(task, "/d")
        yield from fs.write_file(task, "/d/a", b"1")
        yield from fs.write_file(task, "/d/b", b"2")
        names = yield from fs.readdir(task, "/d")
        yield from fs.unlink(task, "/d/a")
        yield from fs.rename(task, "/d/b", "/d/c")
        after = yield from fs.readdir(task, "/d")
        return names, after

    names, after = run(sim, proc())
    assert names == ["a", "b"]
    assert after == ["c"]


@pytest.mark.parametrize("which", CLIENTS)
def test_truncate_resets_content(sim, machine, libclient, kernelclient, which):
    fs = pick(which, libclient, kernelclient)
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"0123456789", sync=True)
        yield from fs.truncate(task, "/f", 4)
        stat = yield from fs.stat(task, "/f")
        data = yield from fs.read_file(task, "/f")
        return stat.size, data

    size, data = run(sim, proc())
    assert size == 4
    assert data == b"0123"


def test_lib_write_is_buffered_until_flush(sim, machine, cluster, libclient):
    task = make_task(sim, machine)

    def proc():
        yield from libclient.write_file(task, "/f", b"d" * units.kib(100))
        return cluster.file_bytes_now()

    # Helper: measure stored bytes right after the un-synced write.
    cluster.file_bytes_now = lambda: cluster.stored_bytes
    stored = run(sim, proc(), until=0.5)
    assert stored == 0  # still in the client write-behind buffer
    assert libclient.unflushed.dirty_bytes == units.kib(100)


def test_lib_fsync_pushes_to_osds(sim, machine, cluster, libclient):
    task = make_task(sim, machine)

    def proc():
        yield from libclient.write_file(task, "/f", b"d" * units.kib(100), sync=True)

    run(sim, proc())
    assert cluster.stored_bytes == units.kib(100)
    assert libclient.unflushed.dirty_bytes == 0


def test_lib_background_flusher_eventually_flushes(sim, machine, cluster, libclient):
    task = make_task(sim, machine)

    def proc():
        yield from libclient.write_file(task, "/f", b"d" * units.kib(64))

    run(sim, proc(), until=0.5)
    assert cluster.stored_bytes == 0
    sim.run(until=30)  # expire interval (5s) + flusher interval (1s)
    assert cluster.stored_bytes == units.kib(64)


def test_kernel_writeback_flushes_ceph_dirty_pages(
    sim, machine, kernel, cluster, kernelclient
):
    task = make_task(sim, machine)

    def proc():
        yield from kernelclient.write_file(task, "/f", b"d" * units.kib(64))

    run(sim, proc(), until=0.5)
    assert cluster.stored_bytes == 0
    sim.run(until=30)
    assert cluster.stored_bytes == units.kib(64)
    assert kernel.page_cache.dirty_bytes == 0


def test_failed_kernel_flush_keeps_the_data_and_the_pages(
    sim, machine, kernel, cluster, kernelclient
):
    """A K flush that fails loses nothing: the taken extents go back to
    the buffer, the batch stops being under writeback, and the next fsync
    delivers the bytes."""
    task = make_task(sim, machine)
    payload = bytes(range(256)) * 256  # 64 KiB

    def proc():
        handle = yield from kernelclient.open(
            task, "/f", OpenFlags.WRONLY | OpenFlags.CREAT
        )
        yield from kernelclient.write(task, handle, 0, payload)
        for osd in cluster.osds:
            osd.crash()
        with pytest.raises(DataUnavailable):
            yield from kernelclient.fsync(task, handle)
        cf = kernel.page_cache.peek(kernelclient._cache_key(handle.ino))
        assert kernelclient.unflushed.dirty_bytes == len(payload)
        assert kernelclient.unflushed.dirty(handle.ino).extents() == [
            (0, payload)
        ]
        assert not kernelclient.unflushed.batches(handle.ino)
        assert cf.nr_dirty == len(payload) // kernel.costs.page_size
        assert cluster.stored_bytes == 0
        for osd in cluster.osds:
            osd.restart()
            cluster.monitor.mark_up(osd.osd_id)
        yield from kernelclient.fsync(task, handle)
        assert handle.ino not in kernelclient.unflushed
        assert kernelclient.unflushed.dirty_bytes == 0
        assert cf.nr_dirty == 0
        return handle.ino

    ino = run(sim, proc())
    assert cluster.peek(ino, 0, len(payload)) == payload
    assert kernel.page_cache.dirty_bytes == 0


@pytest.mark.parametrize("locking", ["global", "range"])
def test_failed_lib_flush_redirties_unpins_and_unlocks(
    sim, machine, cluster, costs, locking
):
    """Both flush shapes send through one ``_send_batch``: when its
    ``write_vector`` fails the batch is dirty again, the size pin is gone
    and no lock stays held — under ``range`` that is the network leg,
    which runs under the range locks alone."""
    account = machine.ram.child(units.mib(64), "ff")
    client = CephLibClient(
        sim, cluster, costs, account, machine.activated, name="ff",
        locking=locking, start_flusher=False,
    )
    task = make_task(sim, machine)
    payload = bytes(range(256)) * 2048  # 512 KiB: two range stripes

    def proc():
        handle = yield from client.open(
            task, "/f", OpenFlags.WRONLY | OpenFlags.CREAT
        )
        yield from client.write(task, handle, 0, payload)
        ino = handle.ino
        for osd in cluster.osds:
            osd.crash()
        with pytest.raises(DataUnavailable):
            yield from client.fsync(task, handle)
        assert client.unflushed.dirty_bytes == len(payload)
        assert client.unflushed.dirty(ino).extents() == [(0, payload)]
        assert ino not in client._size_flushing
        assert client.metrics.counter("flush_failures").value == 1
        policy = client._locking
        held = [client.client_lock]
        if locking == "range":
            held.append(policy._ino_locks[ino])
            held += policy._range_locks[ino].values()
            assert len(held) == 4  # two stripes
        assert not any(lock.locked for lock in held)
        assert cluster.stored_bytes == 0
        for osd in cluster.osds:
            osd.restart()
            cluster.monitor.mark_up(osd.osd_id)
        yield from client.fsync(task, handle)
        assert client.unflushed.dirty_bytes == 0
        assert not any(lock.locked for lock in held)
        return ino

    ino = run(sim, proc())
    assert cluster.peek(ino, 0, len(payload)) == payload
    assert cluster.mds.tree.lookup("/f").size == len(payload)


def test_close_to_open_consistency_across_clients(sim, machine, cluster, costs):
    """Writer flushes on fsync; a second client sees the data on open."""
    account_a = machine.ram.child(units.mib(64), "a")
    account_b = machine.ram.child(units.mib(64), "b")
    client_a = CephLibClient(
        sim, cluster, costs, account_a, machine.activated, name="a"
    )
    client_b = CephLibClient(
        sim, cluster, costs, account_b, machine.activated, name="b"
    )
    task = make_task(sim, machine)

    def proc():
        yield from client_a.write_file(task, "/shared", b"from-a", sync=True)
        data = yield from client_b.read_file(task, "/shared")
        return data

    assert run(sim, proc()) == b"from-a"


def test_unflushed_write_invisible_to_other_client(sim, machine, cluster, costs):
    """Before any flush another client reads stale (empty) content (§3.4)."""
    account_a = machine.ram.child(units.mib(64), "a2")
    account_b = machine.ram.child(units.mib(64), "b2")
    client_a = CephLibClient(
        sim, cluster, costs, account_a, machine.activated, name="a2",
        start_flusher=False,
    )
    client_b = CephLibClient(
        sim, cluster, costs, account_b, machine.activated, name="b2"
    )
    task = make_task(sim, machine)

    def proc():
        yield from client_a.write_file(task, "/shared", b"pending")
        stat = yield from client_b.stat(task, "/shared")
        return stat.size

    assert run(sim, proc(), until=0.5) == 0


def test_lib_cached_read_faster_than_cold(sim, machine, libclient):
    task = make_task(sim, machine)
    payload = b"z" * units.mib(1)

    def proc():
        yield from libclient.write_file(task, "/big", payload, sync=True)
        libclient.cache.drop_ino(libclient.attr_cache["/big"].ino)
        handle = yield from libclient.open(task, "/big")
        start = sim.now
        yield from libclient.read(task, handle, 0, len(payload))
        cold = sim.now - start
        start = sim.now
        yield from libclient.read(task, handle, 0, len(payload))
        warm = sim.now - start
        yield from libclient.close(task, handle)
        return cold, warm

    cold, warm = run(sim, proc())
    assert warm < cold / 2


def test_client_lock_serialises_cached_reads(sim, machine, cluster, costs):
    """Coarse locking makes N concurrent cached readers ~N times slower
    than fine-grained locking — the paper's Seqread bottleneck."""

    def measure(fine_grained):
        from repro.sim import Simulator
        from repro.hw import Machine

        local_sim = Simulator()
        local_machine = Machine(local_sim, num_cores=8, ram_bytes=units.gib(4))
        local_cluster = CephCluster(local_sim, Fabric(local_sim), costs, num_osds=4)
        account = local_machine.ram.child(units.mib(512), "pool")
        client = CephLibClient(
            local_sim, local_cluster, costs, account, local_machine.activated,
            name="c", locking="range" if fine_grained else "global",
        )
        payload = b"y" * units.mib(2)
        setup = make_task(local_sim, local_machine, "setup")

        def prepare():
            for index in range(4):
                yield from client.write_file(
                    setup, "/f%d" % index, payload, sync=True
                )
            # warm the cache
            for index in range(4):
                yield from client.read_file(setup, "/f%d" % index)

        run(local_sim, prepare())
        start = local_sim.now
        done = []

        def reader(index):
            reader_task = make_task(local_sim, local_machine, "r%d" % index)
            yield from client.read_file(reader_task, "/f%d" % index)
            done.append(local_sim.now)

        for index in range(4):
            local_sim.spawn(reader(index))
        local_sim.run(until=start + 100)
        assert len(done) == 4
        return max(done) - start

    coarse = measure(fine_grained=False)
    fine = measure(fine_grained=True)
    assert coarse > fine * 1.5


def test_lib_open_missing_raises(sim, machine, libclient):
    task = make_task(sim, machine)

    def proc():
        with pytest.raises(FileNotFound):
            yield from libclient.open(task, "/nope")
        return True

    assert run(sim, proc())


def test_lib_cache_memory_is_charged_to_pool(sim, machine, cluster, costs):
    account = machine.ram.child(units.mib(64), "charged")
    client = CephLibClient(
        sim, cluster, costs, account, machine.activated, name="chg"
    )
    task = make_task(sim, machine)

    def proc():
        yield from client.write_file(task, "/f", b"m" * units.mib(1))

    run(sim, proc(), until=0.5)
    assert account.used >= units.mib(1)


def test_lib_cache_capacity_evicts(sim, machine, cluster, costs):
    account = machine.ram.child(units.mib(64), "small")
    client = CephLibClient(
        sim, cluster, costs, account, machine.activated, name="small",
        cache_bytes=units.mib(1),
    )
    task = make_task(sim, machine)

    def proc():
        yield from client.write_file(task, "/f", b"v" * units.mib(4), sync=True)
        yield from client.read_file(task, "/f")

    run(sim, proc())
    assert client.cache.cached_bytes <= units.mib(1)
    assert client.cache.evictions > 0

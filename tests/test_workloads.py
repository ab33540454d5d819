"""Tests for the workload generators."""

import pytest

from repro.common import units
from repro.stacks import StackFactory, mount_local
from repro.workloads import (
    Fileappend,
    Fileread,
    Fileserver,
    LighttpdFleet,
    MiniRocksDB,
    RandomIO,
    RocksDbGet,
    RocksDbPut,
    Seqread,
    Seqwrite,
    SysbenchCpu,
    Webserver,
    start_lighttpd,
)
from repro.world import World
from tests.conftest import run


@pytest.fixture
def world():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    world.primary.activate_cores(4)
    return world


@pytest.fixture
def pool(world):
    return world.primary.engine.create_pool(
        "p0", num_cores=2, ram_bytes=units.gib(4)
    )


@pytest.fixture
def dmount(world, pool):
    return StackFactory(pool, "D").mount_root("c0")


def test_fileserver_produces_throughput(world, pool, dmount):
    workload = Fileserver(
        dmount.fs, pool, duration=3.0, threads=2, nfiles=20,
        mean_size=units.kib(32),
    )
    result = run(world.sim, workload.run(), until=60)
    assert result.ops > 10
    assert result.bytes_written > 0
    assert result.bytes_read > 0
    assert result.ops_per_sec > 0
    assert result.duration == pytest.approx(3.0, rel=0.5)


def test_fileserver_deterministic_given_seed(world):
    def measure():
        local_world = World(num_cores=8, ram_bytes=units.gib(16))
        local_host = local_world.primary
        local_host.activate_cores(4)
        local_pool = local_host.engine.create_pool(
            "p0", num_cores=2, ram_bytes=units.gib(4)
        )
        mount = StackFactory(local_pool, "D").mount_root("c0")
        workload = Fileserver(
            mount.fs, local_pool, duration=2.0, threads=2, nfiles=10,
            mean_size=units.kib(16), seed=42,
        )
        result = run(local_world.sim, workload.run(), until=60)
        return result.ops, result.bytes_written

    assert measure() == measure()


def test_webserver_is_read_dominated(world, pool):
    mount = mount_local(pool)
    workload = Webserver(
        mount.fs, pool, duration=0.2, threads=4, nfiles=40,
        mean_size=units.kib(8),
    )
    result = run(world.sim, workload.run(), until=60)
    assert result.bytes_read > result.bytes_written


def test_randomio_mixes_reads_and_writes(world, pool):
    mount = mount_local(pool)
    workload = RandomIO(
        mount.fs, pool, duration=0.2, file_size=units.mib(2), seed=3
    )
    result = run(world.sim, workload.run(), until=60)
    assert result.bytes_read > 0
    assert result.bytes_written > 0
    assert result.ops > 20


def test_seqwrite_streams(world, pool, dmount):
    workload = Seqwrite(
        dmount.fs, pool, duration=2.0, threads=2,
        file_size=units.mib(2), iosize=units.kib(256),
    )
    result = run(world.sim, workload.run(), until=60)
    assert result.bytes_written >= units.mib(1)


def test_seqread_hits_cache(world, pool, dmount):
    workload = Seqread(
        dmount.fs, pool, duration=2.0, threads=2,
        file_size=units.mib(1), iosize=units.kib(256),
    )
    result = run(world.sim, workload.run(), until=120)
    assert result.bytes_read > units.mib(2)  # multiple passes => cache hits
    assert dmount.client.cache.hits > 0


def test_sysbench_latency_tracks_request_cost(world, pool):
    workload = SysbenchCpu(pool, duration=2.0, threads=2, request_cpu=0.002)
    result = run(world.sim, workload.run(), until=30)
    assert result.ops > 100
    # Two threads on two cores: latency should be near the request cost.
    assert result.latency.mean == pytest.approx(0.002, rel=0.5)


def test_minirocksdb_roundtrip(world, pool, dmount):
    db = MiniRocksDB(
        dmount.fs, pool, memtable_bytes=units.kib(64)
    )
    task = pool.new_task()

    def proc():
        yield from db.open(task)
        for index in range(20):
            yield from db.put(task, "key%03d" % index, b"value-%03d" % index)
        yield from db.close(task)
        yield from db.open(task)
        values = []
        for index in (0, 7, 19):
            value = yield from db.get(task, "key%03d" % index)
            values.append(value)
        missing = yield from db.get(task, "nope")
        return values, missing, db.stats["flushes"]

    values, missing, flushes = run(world.sim, proc(), until=120)
    assert values == [b"value-000", b"value-007", b"value-019"]
    assert missing is None
    assert flushes >= 1  # tiny memtable forced SST flushes


def test_minirocksdb_overwrite_returns_latest(world, pool, dmount):
    db = MiniRocksDB(dmount.fs, pool, memtable_bytes=units.kib(32))
    task = pool.new_task()

    def proc():
        yield from db.open(task)
        yield from db.put(task, "k", b"old")
        for index in range(40):  # force flush cycles between versions
            yield from db.put(task, "pad%02d" % index, b"x" * 2048)
        yield from db.put(task, "k", b"new")
        yield from db.close(task)
        return (yield from db.get(task, "k"))

    assert run(world.sim, proc(), until=120) == b"new"


def test_minirocksdb_compaction_keeps_data(world, pool, dmount):
    db = MiniRocksDB(
        dmount.fs, pool, memtable_bytes=units.kib(16), l0_compaction_trigger=2
    )
    task = pool.new_task()

    def proc():
        yield from db.open(task)
        for index in range(60):
            yield from db.put(task, "key%03d" % index, b"v%03d" % index * 512)
        yield from db.close(task)
        checks = []
        for index in (0, 30, 59):
            value = yield from db.get(task, "key%03d" % index)
            checks.append(value == b"v%03d" % index * 512)
        return checks, db.stats["compactions"]

    checks, compactions = run(world.sim, proc(), until=240)
    assert all(checks)
    assert compactions >= 1


def test_rocksdb_put_workload(world, pool, dmount):
    workload = RocksDbPut(
        dmount.fs, pool, total_bytes=units.kib(512), value_size=units.kib(32),
        memtable_bytes=units.kib(128),
    )
    result = run(world.sim, workload.run(), until=120)
    assert result.ops == 16
    assert result.latency.mean > 0


def test_rocksdb_get_workload_out_of_core(world, pool, dmount):
    workload = RocksDbGet(
        dmount.fs, pool, populate_bytes=units.kib(512),
        value_size=units.kib(32), memtable_bytes=units.kib(128),
    )
    result = run(world.sim, workload.run(), until=240)
    assert result.bytes_read >= units.kib(512)
    assert result.errors == 0


def test_fileappend_triggers_cow(world, pool):
    from repro.containers import debian_base
    from tests.test_stacks import seed_image

    image, path = seed_image(world)
    factory = StackFactory(pool, "D")
    mount = factory.mount_root("c0", image_path=path)
    task = pool.new_task()
    shared = sorted(image.flat())[0]  # a file from the read-only lower

    workload = Fileappend(mount.fs, pool, path=shared, append_size=units.kib(64))
    result = run(world.sim, workload.run(), until=240)
    assert result.bytes_written == units.kib(64)
    assert mount.union.metrics.counter("copy_ups").value == 1
    # COW reads the whole lower file: read bytes on the client side.
    assert mount.union.metrics.counter("copy_up_bytes").value > 0


def test_fileread_reads_whole_file(world, pool, dmount):
    task = pool.new_task()
    payload = b"r" * units.mib(2)

    def prep():
        yield from dmount.fs.write_file(task, "/shared.bin", payload)

    run(world.sim, prep(), until=60)
    workload = Fileread(dmount.fs, pool, path="/shared.bin")
    result = run(world.sim, workload.run(), until=120)
    assert result.bytes_read == len(payload)


def test_lighttpd_startup_sequence(world, pool):
    from repro.containers import Container, lighttpd_image
    from tests.test_stacks import seed_image

    host = world.primary
    task = host.task("seed")
    image = lighttpd_image(scale=1.0 / 8192)
    # Seed the image into the shared namespace via a temporary client.
    from repro.cephclient import CephLibClient

    account = host.machine.ram.child(units.mib(64), "seed.ram")
    client = CephLibClient(
        world.sim, world.cluster, world.costs, account, host.machine.cores,
        name="seeder",
    )

    def seed():
        yield from host.engine.registry.materialize(
            task, host.engine.registry.push(image), client, "/images/lighttpd"
        )
        yield from client.flush_all(task)
        client.stop()

    run(world.sim, seed(), until=2000)
    factory = StackFactory(pool, "D")
    mount = factory.mount_root("c0", image_path="/images/lighttpd")
    container = Container(pool, "c0", mount)
    fleet = LighttpdFleet([container], image)
    elapsed = run(world.sim, fleet.run(), until=2000)
    assert elapsed > 0
    assert len(fleet.per_container) == 1
    # exec/mmap crossed the legacy FUSE path.
    assert mount.ctx_switches() > 0


def test_minirocksdb_recovery_from_fresh_instance(world, pool, dmount):
    """A brand-new MiniRocksDB instance recovers SSTs and WAL records."""
    db = MiniRocksDB(dmount.fs, pool, memtable_bytes=units.kib(8))
    task = pool.new_task()

    def write_phase():
        yield from db.open(task)
        for index in range(30):
            yield from db.put(task, "key%03d" % index, b"v%03d" % index * 128)
        # Deliberately no close(): the last records live only in the WAL.

    run(world.sim, write_phase(), until=120)
    world.sim.run(until=world.sim.now + 5)  # let background flushes settle

    fresh = MiniRocksDB(dmount.fs, pool, memtable_bytes=units.kib(8))

    def recover_phase():
        yield from fresh.open(task)
        values = []
        for index in (0, 15, 29):
            value = yield from fresh.get(task, "key%03d" % index)
            values.append(value)
        return values

    values = run(world.sim, recover_phase(), until=120)
    assert values == [b"v%03d" % i * 128 for i in (0, 15, 29)]


def test_minirocksdb_recovery_prefers_newer_values(world, pool, dmount):
    """Stale WAL records must not shadow newer SST data after recovery."""
    db = MiniRocksDB(dmount.fs, pool, memtable_bytes=units.kib(4))
    task = pool.new_task()

    def write_phase():
        yield from db.open(task)
        yield from db.put(task, "k", b"old-value")
        for index in range(30):  # force flush cycles (old WAL retired)
            yield from db.put(task, "pad%02d" % index, b"x" * 512)
        yield from db.put(task, "k", b"new-value")
        yield from db.close(task)

    run(world.sim, write_phase(), until=120)

    fresh = MiniRocksDB(dmount.fs, pool, memtable_bytes=units.kib(4))

    def recover_phase():
        yield from fresh.open(task)
        return (yield from fresh.get(task, "k"))

    assert run(world.sim, recover_phase(), until=120) == b"new-value"


# --- Workload.fill is write_file(payload), from one buffer --------------------

MIB = units.mib(1)
FILL_SIZES = [0, 1, 63, 64, MIB - 1, MIB, MIB + 1, 5 * MIB // 2]


def _prealloc(stack, size, spelling):
    """Preallocate ``size`` bytes on a fresh world; what the file holds,
    when the call returned and how many entries the simulator scheduled."""
    from repro.workloads.base import Workload

    world = World(num_cores=8, ram_bytes=units.gib(16))
    host = world.primary
    host.activate_cores(4)
    pool = host.engine.create_pool("p0", num_cores=2, ram_bytes=units.gib(4))
    if stack == "local":
        mount = mount_local(pool)
    else:
        mount = StackFactory(pool, stack).mount_root("c0")
    workload = Workload(mount.fs, pool, seed=3)
    task = pool.new_task()

    def proc():
        if spelling == "fill":
            written = yield from workload.fill(
                task, "/big", size, "tag", sync=True
            )
        else:
            written = yield from mount.fs.write_file(
                task, "/big", workload.payload(size, "tag"), sync=True
            )
        done = (written, world.sim.now, world.sim._seq)
        data = yield from mount.fs.read_file(task, "/big")
        return done, data

    done, data = run(world.sim, proc(), until=600)
    assert data == workload.payload(size, "tag")
    return done


@pytest.mark.parametrize("stack", ["local", "K", "D"])
def test_fill_issues_what_write_file_of_the_payload_issues(stack):
    for size in FILL_SIZES:
        filled = _prealloc(stack, size, "fill")
        assert filled == _prealloc(stack, size, "write_file"), size
        assert filled[0] == size


def test_fill_writes_one_buffer_over_and_over(world, pool):
    from repro.fs.api import WRITE_PIECE
    from repro.workloads.base import Workload

    mount = mount_local(pool)
    workload = Workload(mount.fs, pool, seed=3)
    size = 2 * WRITE_PIECE + 100
    run(world.sim, workload.fill(pool.new_task(), "/big", size, "tag"))
    stored = mount.client.tree.lookup("/big").data
    first = stored.read(0, WRITE_PIECE)
    assert first is stored.read(WRITE_PIECE, WRITE_PIECE)
    assert first == workload.payload(WRITE_PIECE, "tag")
    assert stored.read(2 * WRITE_PIECE, WRITE_PIECE) == first[:100]

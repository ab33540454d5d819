"""Tests for the Table-1 stack configurations (and the World wiring)."""

import pytest

from repro.common import units
from repro.common.errors import ConfigError
from repro.containers import debian_base
from repro.fs.api import OpenFlags
from repro.stacks import SYMBOLS, StackFactory, mount_local
from repro.world import World
from tests.conftest import run

UNION_SYMBOLS = [s for s in SYMBOLS if "/" in s]
PLAIN_SYMBOLS = [s for s in SYMBOLS if "/" not in s]


@pytest.fixture
def world():
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.primary.activate_cores(4)
    return world


def seed_image(world, path="/images/test"):
    """Put a tiny image tree into the shared cluster namespace."""
    host = world.primary
    task = host.task("seed")
    image = debian_base(scale=1.0 / 8192)
    client = None

    def proc():
        from repro.cephclient import CephLibClient

        nonlocal client
        account = host.machine.ram.child(units.mib(64), "seed.ram")
        client = CephLibClient(
            world.sim, world.cluster, world.costs, account,
            host.machine.cores, name="seed",
        )
        yield from host.engine.registry.materialize(
            task, host.engine.push_image(image), client, path
        )
        yield from client.flush_all(task)
        client.stop()

    run(world.sim, proc(), until=2000)
    return image, path


@pytest.mark.parametrize("symbol", PLAIN_SYMBOLS)
def test_plain_stack_roundtrip(world, symbol):
    pool = world.primary.engine.create_pool(
        "p0", num_cores=2, ram_bytes=units.gib(2)
    )
    factory = StackFactory(world, pool, symbol)
    mount = factory.mount_root("c0")
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/data", b"hello " + symbol.encode())
        return (yield from mount.fs.read_file(task, "/data"))

    assert run(world.sim, proc()) == b"hello " + symbol.encode()


@pytest.mark.parametrize("symbol", UNION_SYMBOLS)
def test_union_stack_sees_image_and_writes_cow(world, symbol):
    image, path = seed_image(world)
    pool = world.primary.engine.create_pool(
        "p0", num_cores=2, ram_bytes=units.gib(2)
    )
    factory = StackFactory(world, pool, symbol)
    mount = factory.mount_root("c0", image_path=path)
    task = pool.new_task()
    some_file = sorted(image.flat())[0]

    def proc():
        base = yield from mount.fs.read_file(task, some_file)
        yield from mount.fs.write_file(task, "/private.txt", b"mine")
        mine = yield from mount.fs.read_file(task, "/private.txt")
        return base, mine

    base, mine = run(world.sim, proc(), until=3000)
    assert base == image.flat()[some_file]
    assert mine == b"mine"


@pytest.mark.parametrize("symbol", UNION_SYMBOLS + ["D"])
def test_clones_share_lower_but_not_upper(world, symbol):
    image, path = seed_image(world)
    pool = world.primary.engine.create_pool(
        "p0", num_cores=2, ram_bytes=units.gib(2)
    )
    factory = StackFactory(world, pool, symbol)
    mount_a = factory.mount_root("c0", image_path=path)
    mount_b = factory.mount_root("c1", image_path=path)
    task_a = pool.new_task("a")
    task_b = pool.new_task("b")

    def proc():
        yield from mount_a.fs.write_file(task_a, "/etc/conf.d/00.conf", b"A's")
        b_view = yield from mount_b.fs.read_file(task_b, "/etc/conf.d/00.conf")
        a_view = yield from mount_a.fs.read_file(task_a, "/etc/conf.d/00.conf")
        return a_view, b_view

    a_view, b_view = run(world.sim, proc(), until=3000)
    assert a_view == b"A's"
    assert b_view == image.flat()["/etc/conf.d/00.conf"]


def test_union_symbol_requires_image(world):
    pool = world.primary.engine.create_pool("p0")
    factory = StackFactory(world, pool, "K/K")
    with pytest.raises(ConfigError):
        factory.mount_root("c0")


def test_unknown_symbol_rejected(world):
    pool = world.primary.engine.create_pool("p0")
    with pytest.raises(ConfigError):
        StackFactory(world, pool, "X/Y")


def test_danaus_mount_has_service_and_legacy_path(world):
    pool = world.primary.engine.create_pool(
        "p0", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = StackFactory(world, pool, "D").mount_root("c0")
    assert mount.service is not None
    assert mount.library is not None
    assert mount.legacy_fs is not None
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/bin.sh", b"ELF binary")
        # exec goes through the kernel FUSE endpoint of the same service.
        return (yield from mount.exec_read(task, "/bin.sh"))

    assert run(world.sim, proc()) == b"ELF binary"
    assert mount.ctx_switches() > 0  # the legacy path crossed FUSE


def test_danaus_default_path_bypasses_kernel(world):
    host = world.primary
    pool = host.engine.create_pool("p0", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "D").mount_root("c0")
    task = pool.new_task()

    def proc():
        before = host.kernel.metrics.counter("syscalls").value
        yield from mount.fs.write_file(task, "/f", b"no syscalls")
        yield from mount.fs.read_file(task, "/f")
        after = host.kernel.metrics.counter("syscalls").value
        return after - before

    assert run(world.sim, proc()) == 0


def test_kernel_stack_pays_syscalls(world):
    host = world.primary
    pool = host.engine.create_pool("p0", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "K").mount_root("c0")
    task = pool.new_task()

    def proc():
        before = host.kernel.metrics.counter("syscalls").value
        yield from mount.fs.write_file(task, "/f", b"syscalls")
        after = host.kernel.metrics.counter("syscalls").value
        return after - before

    assert run(world.sim, proc()) > 0


def test_two_pools_have_disjoint_cores_and_ram(world):
    host = world.primary
    pool_a = host.engine.create_pool("a", num_cores=2, ram_bytes=units.gib(2))
    pool_b = host.engine.create_pool("b", num_cores=2, ram_bytes=units.gib(2))
    assert not set(pool_a.cores) & set(pool_b.cores)
    pool_a.ram.charge(units.gib(1))
    assert pool_b.ram.used == 0
    assert host.machine.ram.used == units.gib(1)


def test_pool_cannot_exceed_activated_cores(world):
    host = world.primary
    host.engine.create_pool("a", num_cores=2)
    host.engine.create_pool("b", num_cores=2)
    with pytest.raises(ConfigError):
        host.engine.create_pool("c", num_cores=2)


def test_mount_local_roundtrip(world):
    pool = world.primary.engine.create_pool(
        "p0", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = mount_local(pool)
    task = pool.new_task()

    def proc():
        yield from mount.fs.write_file(task, "/f", b"local bytes")
        return (yield from mount.fs.read_file(task, "/f"))

    assert run(world.sim, proc()) == b"local bytes"


def test_fp_stack_uses_page_cache_and_user_cache(world):
    host = world.primary
    pool = host.engine.create_pool("p0", num_cores=2, ram_bytes=units.gib(2))
    factory = StackFactory(world, pool, "FP")
    mount = factory.mount_root("c0")
    task = pool.new_task()
    payload = b"pp" * units.kib(32)

    def proc():
        yield from mount.fs.write_file(task, "/f", payload)
        yield from mount.fs.read_file(task, "/f")

    run(world.sim, proc())
    # Double caching: page cache holds the fuse layer's pages while the
    # user-level client cache holds its own copy.
    fuse_pages = sum(
        cf.nr_pages for key, cf in host.kernel.page_cache._files.items()
        if key[0] == "fuse"
    )
    assert fuse_pages > 0
    assert factory.lib_client().cache.cached_bytes > 0


def test_danaus_service_crash_contained(world):
    host = world.primary
    image, path = seed_image(world)
    pool_a = host.engine.create_pool("a", num_cores=2, ram_bytes=units.gib(2))
    pool_b = host.engine.create_pool("b", num_cores=2, ram_bytes=units.gib(2))
    mount_a = StackFactory(world, pool_a, "D").mount_root("c0")
    mount_b = StackFactory(world, pool_b, "D").mount_root("c0")
    task_a = pool_a.new_task()
    task_b = pool_b.new_task()

    def proc():
        from repro.common.errors import ServiceFailed

        yield from mount_a.fs.write_file(task_a, "/f", b"a")
        mount_a.service.crash()
        with pytest.raises(ServiceFailed):
            yield from mount_a.fs.read_file(task_a, "/f")
        yield from mount_b.fs.write_file(task_b, "/f", b"b is fine")
        return (yield from mount_b.fs.read_file(task_b, "/f"))

    assert run(world.sim, proc(), until=3000) == b"b is fine"

"""Tests for images, registry, pools and the container engine."""

import pytest

from repro.common import units
from repro.common.errors import ConfigError
from repro.containers import (
    Container,
    ContainerPool,
    Image,
    Registry,
    debian_base,
    lighttpd_image,
)
from repro.hw import RamDisk
from repro.kernel import LocalFs
from repro.world import World
from tests.conftest import make_task, run


# --- images -----------------------------------------------------------------

def test_image_flat_merges_layers():
    image = Image("test", [
        {"/a": b"lower", "/b": b"keep"},
        {"/a": b"upper"},
    ])
    flat = image.flat()
    assert flat["/a"] == b"upper"
    assert flat["/b"] == b"keep"
    assert image.file_count == 2
    assert image.total_bytes == len(b"upper") + len(b"keep")


def test_debian_base_shape():
    image = debian_base(scale=1.0 / 1024)
    flat = image.flat()
    libs = [p for p in flat if p.startswith("/lib/")]
    confs = [p for p in flat if p.startswith("/etc/")]
    assert len(libs) >= 4
    assert len(confs) >= 40
    # Libraries are the big files, configs the small ones.
    assert max(len(flat[p]) for p in libs) > max(len(flat[p]) for p in confs)


def test_debian_base_deterministic():
    a = debian_base(scale=1.0 / 2048, seed=5)
    b = debian_base(scale=1.0 / 2048, seed=5)
    assert a.flat() == b.flat()


def test_lighttpd_image_extends_base():
    image = lighttpd_image(scale=1.0 / 2048)
    flat = image.flat()
    assert "/usr/sbin/lighttpd" in flat
    assert "/etc/lighttpd/lighttpd.conf" in flat
    assert any(p.startswith("/var/www/") for p in flat)
    assert any(p.startswith("/lib/") for p in flat)  # base retained


def test_registry_push_get():
    registry = Registry()
    image = debian_base(scale=1.0 / 4096)
    registry.push(image)
    assert registry.get(image.name) is image
    assert image.name in registry


def test_registry_materialize_writes_tree(sim, kernel, machine):
    fs = LocalFs(kernel, RamDisk(sim), name="reg")
    registry = Registry()
    image = Image("tiny", [{"/bin/sh": b"#!sh", "/etc/x/y.conf": b"k=v"}])
    registry.push(image)
    task = make_task(sim, machine)

    def proc():
        written = yield from registry.materialize(task, image, fs, "/img")
        sh = yield from fs.read_file(task, "/img/bin/sh")
        conf = yield from fs.read_file(task, "/img/etc/x/y.conf")
        return written, sh, conf

    written, sh, conf = run(sim, proc())
    assert written == image.total_bytes
    assert sh == b"#!sh"
    assert conf == b"k=v"


# --- pools -------------------------------------------------------------------

def test_pool_threads_confined_to_cpuset():
    host = World(num_cores=8).primary
    cores = host.machine.cores[:2]
    pool = ContainerPool(host, "p", cores, units.gib(1))
    assert pool.host is host and pool.machine is host.machine
    thread = pool.new_thread()
    assert set(thread.cpuset) == set(cores)
    task = pool.new_task()
    assert task.pool is pool


def test_pool_requires_cores():
    host = World(num_cores=8).primary
    with pytest.raises(ConfigError):
        ContainerPool(host, "p", [], units.gib(1))


def test_pool_utilization_probe():
    world = World(num_cores=8)
    host = world.primary
    pool = ContainerPool(host, "p", host.machine.cores[:2], units.gib(1))
    task = pool.new_task()

    def proc():
        yield from task.cpu(0.1)

    pool.probe.reset()
    run(world.sim, proc())
    assert pool.utilization() > 0


# --- engine --------------------------------------------------------------------

def test_engine_creates_disjoint_pools():
    world = World(num_cores=8)
    host = world.primary
    host.activate_cores(8)
    pools = host.engine.create_pools(3, num_cores=2, ram_bytes=units.gib(1))
    cores = [core for pool in pools for core in pool.cores]
    assert len(cores) == len(set(cores)) == 6


def test_engine_duplicate_pool_name_rejected():
    world = World(num_cores=8)
    host = world.primary
    host.engine.create_pool("same")
    with pytest.raises(ConfigError):
        host.engine.create_pool("same")


def test_container_wraps_mount():
    from repro.stacks import StackFactory

    world = World(num_cores=8, ram_bytes=units.gib(8))
    host = world.primary
    host.activate_cores(4)
    pool = host.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "D").mount_root("c0")
    container = Container(pool, "c0", mount)
    assert container.fs is mount.fs
    assert container in pool.containers
    task = container.new_task()

    def proc():
        yield from container.fs.write_file(task, "/x", b"1")
        return (yield from container.fs.read_file(task, "/x"))

    assert run(world.sim, proc()) == b"1"

"""Tests for container migration between pools and hosts (§9)."""

import pytest

from repro.common import units
from repro.containers import Container, migrate_container
from repro.fs.api import OpenFlags
from repro.stacks import StackFactory
from repro.world import World
from tests.conftest import run


@pytest.fixture
def world():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    world.primary.activate_cores(8)
    return world


def launch(world, pool, cid="c0"):
    mount = StackFactory(world, pool, "D").mount_root(cid)
    return Container(pool, cid, mount)


def test_migration_preserves_data_across_pools(world):
    host = world.primary
    source = host.engine.create_pool("src", num_cores=2,
                                     ram_bytes=units.gib(2))
    target = host.engine.create_pool("dst", num_cores=2,
                                     ram_bytes=units.gib(2))
    container = launch(world, source)
    task = container.new_task()

    def proc():
        yield from container.fs.write_file(
            task, "/state.db", b"precious tenant state"
        )
        report = yield from migrate_container(world, container, target)
        new_task = report.container.new_task()
        data = yield from report.container.fs.read_file(new_task, "/state.db")
        return report, data

    report, data = run(world.sim, proc())
    assert data == b"precious tenant state"
    assert report.container.pool is target
    assert container not in source.containers
    assert report.flushed_bytes >= len(b"precious tenant state")
    assert report.downtime > 0


def test_migration_moves_execution_to_target_cores(world):
    host = world.primary
    source = host.engine.create_pool("src", num_cores=2,
                                     ram_bytes=units.gib(2))
    target = host.engine.create_pool("dst", num_cores=2,
                                     ram_bytes=units.gib(2))
    container = launch(world, source)

    def proc():
        task = container.new_task()
        yield from container.fs.write_file(task, "/f", b"x" * units.kib(64))
        report = yield from migrate_container(world, container, target)
        target.probe.reset()
        new_task = report.container.new_task()
        yield from report.container.fs.read_file(new_task, "/f")
        return target.utilization()

    util = run(world.sim, proc())
    assert util > 0  # I/O now runs on the destination pool's cores


def test_migration_across_hosts(world):
    """The §9 scenario proper: a second host adopts the container."""
    host_b = world.add_host("client-b", num_cores=8, ram_bytes=units.gib(16))
    host_b.activate_cores(4)
    source = world.primary.engine.create_pool("src", num_cores=2,
                                              ram_bytes=units.gib(2))
    target = host_b.engine.create_pool("dst", num_cores=2,
                                       ram_bytes=units.gib(2))
    container = launch(world, source)

    def proc():
        task = container.new_task()
        yield from container.fs.makedirs(task, "/var")
        yield from container.fs.write_file(task, "/var/journal", b"entries" * 100)
        report = yield from migrate_container(world, container, target)
        new_task = report.container.new_task()
        data = yield from report.container.fs.read_file(
            new_task, "/var/journal"
        )
        return report, data

    report, data = run(world.sim, proc())
    assert data == b"entries" * 100
    assert report.container.pool.host is host_b
    # The new mount's client runs against the second host's kernel-free
    # user-level stack; its service is owned by the destination pool.
    assert report.container.mount.service in target.services


def test_migration_after_source_service_crash(world):
    """Migration doubles as recovery: a dead source service is fine as
    long as the flushed state already reached the cluster."""
    host = world.primary
    source = host.engine.create_pool("src", num_cores=2,
                                     ram_bytes=units.gib(2))
    target = host.engine.create_pool("dst", num_cores=2,
                                     ram_bytes=units.gib(2))
    container = launch(world, source)

    def proc():
        task = container.new_task()
        handle = yield from container.fs.open(
            task, "/data", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from container.fs.write(task, handle, 0, b"durable")
        yield from container.fs.fsync(task, handle)
        yield from container.fs.close(task, handle)
        container.mount.service.crash()
        report = yield from migrate_container(world, container, target)
        new_task = report.container.new_task()
        return (yield from report.container.fs.read_file(new_task, "/data"))

    assert run(world.sim, proc()) == b"durable"


def test_two_hosts_have_independent_kernels(world):
    host = world.primary
    host_b = world.add_host("client-b", num_cores=4, ram_bytes=units.gib(8))
    assert world.hosts == [host, host_b]
    assert host.kernel is not host_b.kernel
    # A pool carries its host, and its stacks mount in that host's kernel.
    pool = host_b.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(1))
    assert pool.host is host_b
    assert StackFactory(world, pool, "K").kernel is host_b.kernel
    with pytest.raises(Exception):
        world.add_host("client-b")  # duplicate name

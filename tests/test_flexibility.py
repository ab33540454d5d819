"""Scenario tests for the paper's flexibility claims (§5).

* a tenant may run *multiple* filesystem services with distinct settings;
* tenants can collaborate through the shared backend filesystem;
* casual administration (scans, updates) can run centrally through the
  backend storage rather than inside each container.
"""

import pytest

from repro.cephclient import CephLibClient
from repro.common import units
from repro.fs.api import OpenFlags
from repro.stacks import StackFactory
from repro.world import World
from tests.conftest import run


@pytest.fixture
def world():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    world.primary.activate_cores(8)
    return world


def test_tenant_runs_multiple_services_with_distinct_settings(world):
    pool = world.primary.engine.create_pool("tenant", num_cores=4,
                                            ram_bytes=units.gib(4))
    # Service 1: default consistency; Service 2: fine-grained locking and
    # a small cache — "multiple filesystem services with distinct settings
    # in resource naming, memory reservation, ... " (§5).
    factory_a = StackFactory(world, pool, "D", cache_bytes=units.mib(64))
    mount_a = factory_a.mount_root("c0")
    factory_b = StackFactory(
        world, pool, "D", cache_bytes=units.mib(4), locking="inode"
    )
    factory_b._shared.clear()  # force a second service + client
    mount_b = factory_b.mount_root("c1")
    assert mount_a.service is not mount_b.service
    assert mount_a.client is not mount_b.client
    assert mount_b.client._locking.policy == "inode"
    assert mount_a.client.cache.capacity != mount_b.client.cache.capacity
    task = pool.new_task()

    def proc():
        yield from mount_a.fs.write_file(task, "/a", b"service A")
        yield from mount_b.fs.write_file(task, "/b", b"service B")
        a = yield from mount_a.fs.read_file(task, "/a")
        b = yield from mount_b.fs.read_file(task, "/b")
        return a, b

    assert run(world.sim, proc()) == (b"service A", b"service B")


def test_tenants_collaborate_through_shared_backend(world):
    host = world.primary
    pool_a = host.engine.create_pool("a", num_cores=2, ram_bytes=units.gib(2))
    pool_b = host.engine.create_pool("b", num_cores=2, ram_bytes=units.gib(2))
    mount_a = StackFactory(world, pool_a, "D").mount_root("c0")
    mount_b = StackFactory(world, pool_b, "D").mount_root("c0")
    task_a = pool_a.new_task()
    task_b = pool_b.new_task()
    # Both tenants also mount a shared path of the backend filesystem.
    shared_a = mount_a.client  # tenant A's client sees the full namespace
    shared_b = mount_b.client

    def proc():
        yield from shared_a.makedirs(task_a, "/shared")
        handle = yield from shared_a.open(
            task_a, "/shared/doc", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from shared_a.write(task_a, handle, 0, b"from tenant A")
        yield from shared_a.fsync(task_a, handle)
        yield from shared_a.close(task_a, handle)
        # Tenant B revalidates on open (close-to-open) and sees the data.
        return (yield from shared_b.read_file(task_b, "/shared/doc"))

    assert run(world.sim, proc()) == b"from tenant A"


def test_central_administration_through_backend(world):
    """Malware-scan-style admin task reads tenant files centrally."""
    host = world.primary
    pool = host.engine.create_pool("tenant", num_cores=2,
                                   ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "D").mount_root("c0")
    task = pool.new_task()

    def tenant_writes():
        yield from mount.fs.makedirs(task, "/app")
        yield from mount.fs.write_file(task, "/app/data.bin", b"tenant bits")
        yield from mount.client.flush_all(task)

    run(world.sim, tenant_writes())

    # The admin uses its own host-side client over the same backend; it
    # never enters the tenant's container.
    admin_account = host.machine.ram.child(units.mib(64), "admin.ram")
    admin = CephLibClient(
        world.sim, world.cluster, world.costs, admin_account,
        host.machine.cores, name="admin",
    )
    admin_task = host.task("admin")

    def scan():
        names = yield from admin.readdir(admin_task, "/pools/tenant/c0/app")
        data = yield from admin.read_file(
            admin_task, "/pools/tenant/c0/app/data.bin"
        )
        return names, data

    names, data = run(world.sim, scan())
    assert names == ["data.bin"]
    assert data == b"tenant bits"


def test_writable_sharing_mode_between_containers(world):
    """Two containers of one tenant share a writable directory (§5)."""
    pool = world.primary.engine.create_pool("tenant", num_cores=4,
                                            ram_bytes=units.gib(2))
    factory = StackFactory(world, pool, "D")
    mount_a = factory.mount_root("c0")
    mount_b = factory.mount_root("c1")
    # Shared client: both containers reach the full tenant namespace.
    client = factory.lib_client()
    assert mount_a.client is client and mount_b.client is client
    task = pool.new_task()

    def proc():
        yield from client.makedirs(task, "/pools/tenant/shared")
        yield from client.write_file(
            task, "/pools/tenant/shared/state", b"round 1"
        )
        data = yield from client.read_file(
            task, "/pools/tenant/shared/state"
        )
        return data

    assert run(world.sim, proc()) == b"round 1"

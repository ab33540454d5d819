"""Tests for the serverless workload (§9 extension)."""

import pytest

from repro.common import units
from repro.stacks import StackFactory
from repro.workloads import ServerlessTenant
from repro.world import World
from tests.conftest import run


@pytest.fixture
def world():
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.primary.activate_cores(4)
    return world


@pytest.fixture
def tenant(world):
    pool = world.primary.engine.create_pool(
        "fn", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = StackFactory(pool, "D").mount_root("c0")
    return ServerlessTenant(
        mount, pool, duration=2.0, threads=2, n_functions=3,
        handler_size=units.kib(16), state_size=units.kib(4),
        warm_fraction=0.5, seed=7,
    )


def test_invocations_complete_and_split_cold_warm(world, tenant):
    result = run(world.sim, tenant.run(), until=120)
    assert result.ops > 10
    assert tenant.cold_latency.count >= 3  # first touch of each function
    assert tenant.warm_latency.count > 0
    total = tenant.cold_latency.count + tenant.warm_latency.count
    assert total == result.ops


def test_cold_invocations_slower_than_warm(world, tenant):
    run(world.sim, tenant.run(), until=120)
    assert tenant.cold_latency.mean > tenant.warm_latency.mean


def test_cold_starts_use_legacy_path(world, tenant):
    run(world.sim, tenant.run(), until=120)
    # exec of the handler binary crossed the Danaus legacy FUSE endpoint.
    assert tenant.mount.ctx_switches() > 0


def test_results_are_persisted(world, tenant):
    result = run(world.sim, tenant.run(), until=120)
    task = tenant.pool.new_task("audit")

    def audit():
        names = yield from tenant.mount.fs.readdir(task, "/invocations")
        return names

    names = run(world.sim, audit())
    assert len(names) == result.ops

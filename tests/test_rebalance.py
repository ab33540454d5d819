"""Tests for the dynamic memory rebalancer (§9 extension)."""

import pytest

from repro.common import units
from repro.common.errors import ConfigError
from repro.containers.rebalance import MemoryRebalancer
from repro.world import World


@pytest.fixture
def world():
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.primary.activate_cores(8)
    return world


def make_pools(world, count=2, ram=units.mib(100)):
    return [
        world.primary.engine.create_pool(
            "p%d" % index, num_cores=2, ram_bytes=ram
        )
        for index in range(count)
    ]


def test_idle_donor_feeds_pressured_receiver(world):
    cold, hot = make_pools(world)
    rebalancer = MemoryRebalancer(world.sim, [cold, hot])
    hot.ram.charge(units.mib(90))  # 90% used: pressured
    moved = rebalancer.rebalance_once()
    assert moved > 0
    assert hot.ram.capacity > units.mib(100)
    assert cold.ram.capacity < units.mib(100)


def test_guarantee_floor_is_never_violated(world):
    cold, hot = make_pools(world)
    rebalancer = MemoryRebalancer(
        world.sim, [cold, hot], guarantee_fraction=0.8
    )
    hot.ram.charge(units.mib(95))
    for _ in range(50):
        rebalancer.rebalance_once()
    assert cold.ram.capacity >= units.mib(80)  # the SLA floor


def test_donor_never_shrinks_below_usage(world):
    cold, hot = make_pools(world)
    cold.ram.charge(units.mib(40))  # in use, though below donor threshold
    rebalancer = MemoryRebalancer(
        world.sim, [cold, hot], guarantee_fraction=0.1
    )
    hot.ram.charge(units.mib(90))
    for _ in range(50):
        rebalancer.rebalance_once()
    assert cold.ram.capacity >= cold.ram.used


def test_no_move_without_pressure(world):
    a, b = make_pools(world)
    rebalancer = MemoryRebalancer(world.sim, [a, b])
    assert rebalancer.rebalance_once() == 0
    assert a.ram.capacity == b.ram.capacity == units.mib(100)


def test_background_loop_runs(world):
    cold, hot = make_pools(world)
    MemoryRebalancer(world.sim, [cold, hot], interval=0.5)
    hot.ram.charge(units.mib(90))
    world.sim.run(until=2.0)
    assert hot.ram.capacity > units.mib(100)


def test_invalid_guarantee_rejected(world):
    pools = make_pools(world)
    with pytest.raises(ConfigError):
        MemoryRebalancer(world.sim, pools, guarantee_fraction=0.0)


def test_extra_capacity_is_actually_usable(world):
    """The receiver can charge beyond its original reservation."""
    cold, hot = make_pools(world)
    rebalancer = MemoryRebalancer(world.sim, [cold, hot])
    hot.ram.charge(units.mib(90))
    rebalancer.rebalance_once()
    headroom = hot.ram.capacity - hot.ram.used
    assert headroom > units.mib(5)
    hot.ram.charge(units.mib(12))  # would have OOMed before the move
    assert hot.ram.used == units.mib(102)

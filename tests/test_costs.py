"""Unit tests for the cost model."""

import pytest

from repro.common import units
from repro.costs import CostModel


def test_defaults_are_positive():
    costs = CostModel()
    for name, value in vars(costs).items():
        if isinstance(value, (int, float)):
            assert value > 0, name


def test_override_in_constructor():
    costs = CostModel(syscall=1e-6)
    assert costs.syscall == 1e-6


def test_unknown_override_rejected():
    with pytest.raises(AttributeError):
        CostModel(nonsense=1)


def test_replace_returns_modified_copy():
    base = CostModel()
    tweaked = base.replace(object_size=units.kib(64))
    assert tweaked.object_size == units.kib(64)
    assert base.object_size != units.kib(64)
    with pytest.raises(AttributeError):
        base.replace(bogus=1)


def test_copy_cost_scales_linearly():
    costs = CostModel()
    assert costs.copy_cost(0) == 0
    assert costs.copy_cost(2 * units.MIB) == pytest.approx(
        2 * costs.copy_cost(units.MIB)
    )


def test_pages_of():
    costs = CostModel()
    page = costs.page_size
    assert costs.pages_of(0, 0) == 0
    assert costs.pages_of(0, 1) == 1
    assert costs.pages_of(0, page) == 1
    assert costs.pages_of(0, page + 1) == 2
    assert costs.pages_of(page - 1, 2) == 2  # straddles a boundary


def test_units_helpers():
    assert units.kib(2) == 2048
    assert units.mib(1) == 1 << 20
    assert units.gib(1) == 1 << 30
    assert units.usec(2) == pytest.approx(2e-6)
    assert units.msec(3) == pytest.approx(3e-3)
    assert units.fmt_bytes(1536) == "1.5KiB"

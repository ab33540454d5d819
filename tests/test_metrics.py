"""Unit tests for the metric primitives."""

import pytest

from repro.metrics import Counter, Gauge, Histogram, MetricSet


def test_counter_accumulates():
    counter = Counter("ops")
    counter.add()
    counter.add(4)
    assert counter.value == 5


def test_counter_rejects_decrease():
    counter = Counter("ops")
    with pytest.raises(ValueError):
        counter.add(-1)


def test_gauge_high_water():
    gauge = Gauge("depth")
    gauge.set(5)
    gauge.set(2)
    gauge.add(1)
    assert gauge.value == 3
    assert gauge.high_water == 5


def test_histogram_mean_and_count():
    hist = Histogram("lat")
    for value in (1.0, 2.0, 3.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.mean == pytest.approx(2.0)
    assert hist.min == 1.0
    assert hist.max == 3.0


def test_histogram_percentiles():
    hist = Histogram("lat")
    for value in range(1, 101):
        hist.observe(float(value))
    assert hist.p50 == pytest.approx(50.5)
    assert hist.percentile(0) == 1.0
    assert hist.percentile(100) == 100.0
    assert hist.p99 == pytest.approx(99.01)


def test_histogram_percentile_after_more_observations():
    hist = Histogram("lat")
    hist.observe(1.0)
    assert hist.p50 == 1.0
    hist.observe(3.0)  # re-sorts lazily
    assert hist.p50 == pytest.approx(2.0)


def test_empty_histogram_is_safe():
    hist = Histogram("lat")
    assert hist.mean == 0.0
    assert hist.p99 == 0.0


def test_metricset_creates_on_first_use():
    metrics = MetricSet()
    metrics.counter("a").add(2)
    assert metrics.counter("a").value == 2
    metrics.gauge("g").set(7)
    metrics.histogram("h").observe(1.5)
    assert metrics.gauge("g").value == 7
    assert metrics.gauge("g").high_water == 7
    assert metrics.histogram("h").count == 1
    assert metrics.histogram("h").mean == 1.5
    assert sorted(metrics.counters) == ["a"]

"""Metric primitives: counters, gauges and latency histograms.

Every experiment in the paper reports one of a small set of metrics —
throughput (ops/s or bytes/s), latency (mean / p99), core utilisation,
lock wait/hold time, context switches, memory high-water mark. These
classes collect them with negligible overhead and render the summary
tables the benchmark harness prints.
"""

import math

__all__ = ["Counter", "Gauge", "Histogram", "MetricSet"]


class Counter(object):
    """A monotonically increasing count (ops completed, bytes moved)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def add(self, amount=1):
        if amount < 0:
            raise ValueError("counter %r cannot decrease" % self.name)
        self.value += amount

    def __repr__(self):
        return "<Counter %s=%r>" % (self.name, self.value)


class Gauge(object):
    """An instantaneous value with a high-water mark (cache bytes, queue depth)."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name):
        self.name = name
        self.value = 0
        self.high_water = 0

    def set(self, value):
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, amount):
        self.set(self.value + amount)

    def __repr__(self):
        return "<Gauge %s=%r hw=%r>" % (self.name, self.value, self.high_water)


class Histogram(object):
    """Records observations and answers mean/percentile queries.

    Stores raw samples (experiments here produce at most a few hundred
    thousand), sorting lazily on the first percentile query.
    """

    __slots__ = ("name", "_samples", "_sorted", "total")

    def __init__(self, name):
        self.name = name
        self._samples = []
        self._sorted = False
        self.total = 0.0

    def observe(self, value):
        self._samples.append(value)
        self._sorted = False
        self.total += value

    @property
    def count(self):
        return len(self._samples)

    @property
    def mean(self):
        return self.total / len(self._samples) if self._samples else 0.0

    @property
    def min(self):
        return min(self._samples) if self._samples else 0.0

    @property
    def max(self):
        return max(self._samples) if self._samples else 0.0

    def percentile(self, pct):
        """Linear-interpolated percentile; ``pct`` in [0, 100]."""
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        if pct <= 0:
            return self._samples[0]
        if pct >= 100:
            return self._samples[-1]
        rank = (pct / 100.0) * (len(self._samples) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return self._samples[low]
        frac = rank - low
        return self._samples[low] * (1 - frac) + self._samples[high] * frac

    @property
    def p50(self):
        return self.percentile(50)

    @property
    def p99(self):
        return self.percentile(99)

    def __repr__(self):
        return "<Histogram %s n=%d mean=%g>" % (self.name, self.count, self.mean)


class MetricSet(object):
    """A named bag of metrics, created on first use.

    One per scope of the simulator's registry
    (:meth:`repro.sim.Simulator.metrics`): each component writes its own
    scope and the profile tables read them.
    """

    def __init__(self, name="metrics"):
        self.name = name
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def counter(self, name):
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name):
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name):
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

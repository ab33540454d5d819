"""Benchmark harness and per-figure row functions."""

from repro.bench.charts import bar_chart, grouped_bar_chart, spark
from repro.bench.harness import ExperimentResult
from repro.bench.isolation import run_colocation
from repro.bench.registry import COMPOSITES, WORKLOADS, describe, workload_class

__all__ = [
    "ExperimentResult",
    "run_colocation",
    "WORKLOADS",
    "COMPOSITES",
    "describe",
    "workload_class",
    "bar_chart",
    "grouped_bar_chart",
    "spark",
]

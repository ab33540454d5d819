"""Benchmark harness and per-figure experiment definitions."""

from repro.bench.ablation import (
    CacheDedupAblation,
    IpcQueueAblation,
    LockingPolicyAblation,
)
from repro.bench.charts import bar_chart, grouped_bar_chart, spark
from repro.bench.fileserver_exp import FileserverScaleout
from repro.bench.harness import Experiment, ExperimentResult
from repro.bench.isolation import FlsColocation, run_colocation
from repro.bench.registry import COMPOSITES, WORKLOADS, describe, workload_class
from repro.bench.rocksdb_exp import RocksDbScaleout, RocksDbScaleup
from repro.bench.scaleup import FileScaleup, PoolScaleup
from repro.bench.sequential import SequentialScaleout
from repro.bench.serverless_exp import ServerlessColocation
from repro.bench.startup import LighttpdStartup

__all__ = [
    "Experiment",
    "ExperimentResult",
    "FlsColocation",
    "run_colocation",
    "RocksDbScaleout",
    "RocksDbScaleup",
    "LighttpdStartup",
    "SequentialScaleout",
    "FileserverScaleout",
    "FileScaleup",
    "PoolScaleup",
    "ServerlessColocation",
    "CacheDedupAblation",
    "IpcQueueAblation",
    "LockingPolicyAblation",
    "WORKLOADS",
    "COMPOSITES",
    "describe",
    "workload_class",
    "bar_chart",
    "grouped_bar_chart",
    "spark",
]

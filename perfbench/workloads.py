"""The benchmark's fixed tables: workloads, metrics, bounds.

Pure data — nothing here imports ``repro``. ``worker`` turns a
workload's ``params`` into calls on the public entry points; ``driver``
and ``compare`` read the metric tables. Changing any value in this file
changes what the benchmark measures, so result files record ``params``
and ``compare`` refuses to diff two files that disagree on them.
"""

#: Untraced repetitions per workload (fresh subprocess each).
REPETITIONS = 5

#: Default ``--seed``; feeds every row function's ``seed=``.
DEFAULT_SEED = 7

#: (name, unit, better, bound). ``bound`` is the share of the reference
#: value by which the metric may worsen before ``compare`` exits
#: non-zero: two result files of the *same seed* on the same box.
#: ``failed_share`` is listed last and may not increase at all.
END_TO_END = (
    ("host_cpu_s", "s", "lower", 0.08),
    # Identical between runs of one tree, but seqwrite_k's moved 185.6 ->
    # 208.6 MB across edits to this package alone (allocator layout).
    ("host_peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("sim_throughput", "units/s", "higher", 0.01),
    ("failed_share", "ratio", "lower", 0.0),
)

#: Bounds of ``BENCHMARK.json``, for a driver that compares medians of
#: runs on *different seeds*: each must stay above three times the
#: quartile spread of ten such runs, and that spread is mostly what the
#: seed does to the workload (fileserver ops/s move 6 %, the chaos
#: worker's RSS 9-20 %) plus the sandbox's slow drifts in CPU speed
#: (README, "Steadiness"). Capped at 0.25 by that driver.
GATE_BOUNDS = {
    "host_cpu_s": 0.25,
    "host_peak_rss_mb": 0.25,
    "setup_s": 0.25,
    "sim_throughput": 0.20,
}

#: ``setup_s`` is ~0.15 s, so a relative bound alone would trip on
#: scheduler noise: it may also worsen by this many seconds.
SETUP_ABS_SLACK_S = 0.05

#: Host-clock layers: package directory under ``src/repro/`` -> layer.
#: Packages not named here (``bench``, ``experiments``, ``stacks``,
#: ``containers``, ``common``) and the top-level modules are ``harness``.
LAYER_OF_PACKAGE = {
    "sim": "sim", "hw": "hw", "kernel": "kernel", "fuse": "fuse",
    "core": "core", "cephclient": "cephclient", "unionfs": "unionfs",
    "fs": "fs", "net": "net", "storage": "storage", "faults": "faults",
    "workloads": "workloads", "metrics": "metrics", "obs": "metrics",
}
HOST_LAYERS = (
    "sim", "hw", "kernel", "fuse", "core", "cephclient", "unionfs", "fs",
    "net", "storage", "faults", "workloads", "metrics", "harness",
)

#: Simulated-clock and count metrics every workload reports from its
#: traced run: sums and counts read off instruments that exist in every
#: world, so a layer the workload bypasses reads a true zero.
SIM_COMMON = (
    ("sim.ctx_switches", "count", "lower"),
    ("hw.cpu_busy_s", "s", "lower"),
    ("core.ipc_submit_n", "count", "lower"),
    ("core.ipc_submit_s", "s", "lower"),
    ("core.svc_handle_s", "s", "lower"),
    ("core.ipc_wait_s", "s", "lower"),
    ("cephclient.read_n", "count", "higher"),
    ("cephclient.read_s", "s", "lower"),
    ("cephclient.write_n", "count", "higher"),
    ("cephclient.write_s", "s", "lower"),
    ("cephclient.flush_s", "s", "lower"),
    ("cephclient.client_lock_wait_s", "s", "lower"),
    ("cephclient.client_lock_hold_s", "s", "lower"),
    ("kernel.vfs_n", "count", "higher"),
    ("kernel.vfs_s", "s", "lower"),
    ("kernel.lock_wait_s", "s", "lower"),
    ("kernel.wb_flush_s", "s", "lower"),
    ("kernel.wb_throttle_s", "s", "lower"),
    ("net.rpcs", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("storage.mds_rpcs", "count", "lower"),
    ("storage.mds_service_s", "s", "lower"),
    ("storage.osd_ops", "count", "lower"),
    ("storage.osd_service_s", "s", "lower"),
    ("storage.osd_qdepth_mean", "ops", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("host.wall_s", "s", "lower"),
    ("host.sys_s", "s", "lower"),
    ("host.cpu_s_median", "s", "lower"),
)

#: Metrics only some workloads can produce (ratios with a possibly empty
#: denominator, values only one entry point exposes). A workload that
#: cannot produce one omits it; it is never reported as 0.
SIM_OPTIONAL = (
    ("cephclient.cache_hit_ratio", "ratio", "higher"),
    ("kernel.nbr_steal_share", "ratio", "lower"),
    ("storage.retries", "count", "lower"),
    ("storage.repairs", "count", "higher"),
    ("storage.backfill_objects", "count", "lower"),
    ("faults.injected", "count", "higher"),
    ("containers.fls_retained_d", "ratio", "higher"),
    ("containers.fls_retained_k", "ratio", "higher"),
    ("workloads.ops", "count", "higher"),
    ("workloads.op_errors", "count", "lower"),
    ("workloads.op_mean_us", "us", "lower"),
    ("workloads.op_p99_us", "us", "lower"),
    ("host.cpu_s_iqr", "s", "lower"),
)


def host_metric_table():
    """``<layer>.host_self_s`` and ``<layer>.host_calls`` for every layer."""
    rows = []
    for layer in HOST_LAYERS:
        rows.append(("%s.host_self_s" % layer, "s", "lower"))
        rows.append(("%s.host_calls" % layer, "count", "lower"))
    return tuple(rows)


#: Every per-layer metric every workload reports (the ``per_layer`` list
#: of ``BENCHMARK.json``), then the full table including optional ones.
PER_LAYER_COMMON = host_metric_table() + SIM_COMMON
PER_LAYER_ALL = PER_LAYER_COMMON + SIM_OPTIONAL
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER_ALL}

#: name -> unit of ``sim_throughput``, why the workload exists, the
#: parameters handed to the public entry point(s), and the output checks
#: that make up the ``failed_share`` denominator. ``traced_checks`` —
#: check name -> (per-layer metric, least passing value) — need the
#: traced run and are attempted only with it.
WORKLOADS = {
    "seqread_d": {
        "unit": "MB/s",
        "why": (
            "Cached sequential reads over Danaus (Fig. 9 read): client-side "
            "CPU path only, simulated bottleneck is client_lock; cluster idle "
            "and on the disarmed paths."
        ),
        "params": dict(symbol="D", n_pools=2, mode="read", duration=1.5),
        "checks": ("deterministic", "throughput_positive"),
        "traced_checks": {
            "cache_hit_ratio_ge_0.99": ("cephclient.cache_hit_ratio", 0.99),
        },
    },
    "seqwrite_k": {
        "unit": "MB/s",
        "why": (
            "Sequential writes over the kernel client past the dirty ceiling "
            "(Fig. 9 write): kernel writeback, throttling, fabric and OSDs; "
            "core and fuse are bypassed."
        ),
        "params": dict(symbol="K", n_pools=2, mode="write", duration=1.5),
        "checks": ("deterministic", "throughput_positive"),
        "traced_checks": {"net_bytes_positive": ("net.bytes", 1)},
    },
    "fileserver_coloc": {
        "unit": "ops/s",
        "why": (
            "Fileserver alone and beside a RandomIO neighbour on K and D "
            "(Figs. 1/6): every layer does moderate work, so a gain in one "
            "layer that costs another shows."
        ),
        "params": dict(symbols=["K", "D"], n_fls=1, neighbors=[None, "RND"],
                       duration=0.3),
        "checks": ("deterministic", "d_retains_ge_0.9", "k_retains_less_than_d"),
        "traced_checks": {},
    },
    "chaos_faults": {
        "unit": "ops/s",
        "why": (
            "MDS crash+failover with standby replay, then a corruption+crash "
            "mix under scrub: the only workload on the armed cluster paths "
            "and the only one where the faults package runs."
        ),
        "params": {
            # The larger cell runs first, so the worker's peak RSS is that
            # cell's footprint and not an accident of heap reuse. Three
            # replicas and two corruptions: a clean copy always survives.
            # No service crash: with an OSD crash it can hang the final
            # flush (README, "Findings").
            "mds_failover": dict(
                duration=2.0, replicas=2, osd_crashes=0, partitions=0,
                service_crashes=0, mds_crashes=1, mds_failovers=1,
                mds_standbys=2,
            ),
            "corruption": dict(
                duration=2.0, replicas=3, osd_crashes=1, partitions=1,
                service_crashes=0, bitrot=1, torn_writes=1, scrub=True,
            ),
        },
        "checks": (
            "deterministic", "corruption_ok", "mds_failover_ok",
            "corruptions_ge_1", "repairs_ge_1", "mds_failover_fired",
        ),
        "traced_checks": {},
    },
}

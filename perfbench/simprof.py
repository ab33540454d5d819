"""Simulated-clock attribution from the ``repro.obs`` auto-observers.

:func:`merged_report` folds every observer a traced run attached (one
per ``World``; the colocation workload builds four) into one JSON-safe
dict: ``obs.merge_profiles`` (lock contention, core stealing, fabric
edges, ...) plus the pieces ``merge_profiles`` leaves per observer —
span roll-ups, context switches, per-core CPU and the metric scopes.
:func:`sim_metrics` is a pure function from that dict to the named
per-layer metrics, so it is testable on a hand-written report.
"""

#: Lock classes registered by ``repro.cephclient`` (the global
#: ``client_lock`` and what the finer locking policies put in its place).
#: Every other registered class is a kernel lock.
CLIENT_LOCK_CLASSES = ("client_lock", "ino_lock", "range_lock")


def merged_report(observers):
    """One JSON-safe profile report over all ``observers``."""
    from repro import obs

    report = obs.merge_profiles(observers)
    spans = {}
    scopes = {}
    ctx_switches = 0
    cpu_busy_s = 0.0
    span_count = 0
    dropped = 0
    for index, observer in enumerate(observers):
        for name, count, wall_s, cpu_s in observer.span_summary():
            row = spans.setdefault(
                name, {"name": name, "count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            row["count"] += count
            row["wall_s"] += wall_s
            row["cpu_s"] += cpu_s
        ctx_switches += sum(observer.ctx_switch_profile().values())
        cpu_busy_s += sum(
            seconds
            for threads in observer.cpu_profile().values()
            for seconds in threads.values()
        )
        span_count += len(observer.spans)
        dropped += observer.dropped
        for scope in observer.scopes():
            registry = observer.metrics(scope)
            scopes["w%d/%s" % (index, scope)] = {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(registry.counters.items())
                },
                "histograms": {
                    name: {"count": hist.count, "total": hist.total}
                    for name, hist in sorted(registry.histograms.items())
                },
            }
    report["span_summary"] = sorted(
        spans.values(), key=lambda row: row["wall_s"], reverse=True
    )
    report["ctx_switches"] = ctx_switches
    report["cpu_busy_s"] = cpu_busy_s
    report["spans"] = span_count
    report["dropped"] = dropped
    report["scopes"] = scopes
    return report


def _span_totals(report, name):
    """(count, simulated seconds) of the spans called ``name``; a name
    ending in ``.*`` takes every span with that prefix."""
    if name.endswith(".*"):
        rows = [row for row in report["span_summary"]
                if row["name"].startswith(name[:-1])]
    else:
        rows = [row for row in report["span_summary"] if row["name"] == name]
    return (sum(row["count"] for row in rows),
            sum(row["wall_s"] for row in rows))


def _lock_totals(report, client):
    wait_s, hold_s = 0.0, 0.0
    for row in report["lock_contention"]:
        if (row["lock_class"] in CLIENT_LOCK_CLASSES) == client:
            wait_s += row["total_wait_s"]
            hold_s += row["total_hold_s"]
    return wait_s, hold_s


def sim_metrics(report):
    """``{metric name: value}`` read off a :func:`merged_report` dict.

    Sums and counts are always present (a bypassed layer reads zero);
    ratios and means are present only when their denominator is not
    empty.
    """
    out = {
        "sim.ctx_switches": report["ctx_switches"],
        "hw.cpu_busy_s": report["cpu_busy_s"],
        "obs.spans": report["spans"],
    }
    submit_n, submit_s = _span_totals(report, "ipc.submit")
    _n, handle_s = _span_totals(report, "svc.handle")
    out["core.ipc_submit_n"] = submit_n
    out["core.ipc_submit_s"] = submit_s
    out["core.svc_handle_s"] = handle_s
    out["core.ipc_wait_s"] = submit_s - handle_s

    out["cephclient.read_n"], out["cephclient.read_s"] = _span_totals(
        report, "client.read")
    out["cephclient.write_n"], out["cephclient.write_s"] = _span_totals(
        report, "client.write")
    _n, out["cephclient.flush_s"] = _span_totals(
        report, "client.flush")
    (out["cephclient.client_lock_wait_s"],
     out["cephclient.client_lock_hold_s"]) = _lock_totals(report, client=True)

    out["kernel.vfs_n"], out["kernel.vfs_s"] = _span_totals(
        report, "vfs.*")
    out["kernel.lock_wait_s"], _hold = _lock_totals(report, client=False)
    _n, out["kernel.wb_flush_s"] = _span_totals(report, "wb.flush")
    _n, out["kernel.wb_throttle_s"] = _span_totals(
        report, "wb.throttle")

    out["net.rpcs"] = sum(row["rpcs"] for row in report["fabric"])
    out["net.bytes"] = sum(
        row["send_bytes"] + row["recv_bytes"] for row in report["fabric"]
    )
    out["storage.mds_rpcs"] = sum(
        row["rpcs"] for row in report["fabric"]
        if row["edge"].startswith("mds")
    )

    hits = misses = 0
    mds_service_s = 0.0
    osd_ops, osd_service_s, qdepth_total = 0, 0.0, 0.0
    for key, scope in report["scopes"].items():
        name = key.split("/", 1)[1]
        counters, histograms = scope["counters"], scope["histograms"]
        hits += counters.get("cache_hit_blocks", 0)
        misses += counters.get("cache_miss_ranges", 0)
        if name == "mds":
            mds_service_s += histograms.get("service_s", {}).get("total", 0.0)
        elif name.startswith("osd") and name[3:].isdigit():
            qdepth = histograms.get("qdepth", {})
            osd_ops += qdepth.get("count", 0)
            qdepth_total += qdepth.get("total", 0.0)
            osd_service_s += sum(
                hist["total"] for hist_name, hist in histograms.items()
                if hist_name.endswith("_service_s")
            )
    out["storage.mds_service_s"] = mds_service_s
    out["storage.osd_ops"] = osd_ops
    out["storage.osd_service_s"] = osd_service_s
    if osd_ops:
        out["storage.osd_qdepth_mean"] = qdepth_total / osd_ops
    if hits + misses:
        out["cephclient.cache_hit_ratio"] = hits / (hits + misses)

    nbr_busy = nbr_foreign = 0.0
    for row in report["core_steal"]:
        if row["pool"] == "nbr":
            nbr_busy += row["busy_s"]
            nbr_foreign += row["foreign_s"]
    if nbr_busy:
        out["kernel.nbr_steal_share"] = nbr_foreign / nbr_busy
    return out

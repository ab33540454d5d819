"""Text renderers for the derived profiles.

The CLI prints these after a ``--profile`` run; they are deliberately
plain fixed-width tables so diffs between runs stay readable.
"""

__all__ = [
    "format_lock_table",
    "format_core_steal",
    "format_dispatch_table",
    "format_fabric_table",
    "format_locking_table",
    "format_mds_table",
    "format_partitions_table",
    "format_recovery_table",
    "format_trace_summary",
]


def _render(headers, rows):
    widths = [len(h) for h in headers]
    cells = []
    for row in rows:
        rendered = [str(value) for value in row]
        cells.append(rendered)
        for index, value in enumerate(rendered):
            widths[index] = max(widths[index], len(value))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for rendered in cells:
        lines.append(
            "  ".join(rendered[i].ljust(widths[i]) for i in range(len(rendered)))
        )
    return "\n".join(lines)


def format_lock_table(rows, limit=20):
    """Render lock-contention rows (dicts from ``Observer.lock_table``)."""
    if not rows:
        return "(no locks registered)"
    tagged = any("world" in row for row in rows)
    headers = (["world"] if tagged else []) + [
        "pool", "lock_class", "acq", "contended",
        "wait_ms", "hold_ms", "avg_wait_us", "max_wait_us",
    ]
    body = []
    for row in rows[:limit]:
        body.append(([row.get("world", "-")] if tagged else []) + [
            row.get("pool", "-"),
            row["lock_class"],
            row["acquisitions"],
            row["contended"],
            "%.3f" % (row["total_wait_s"] * 1e3),
            "%.3f" % (row["total_hold_s"] * 1e3),
            "%.2f" % row["avg_wait_us"],
            "%.2f" % row["max_wait_us"],
        ])
    out = _render(headers, body)
    if len(rows) > limit:
        out += "\n(+%d more lock classes)" % (len(rows) - limit)
    return out


def format_core_steal(rows):
    """Render per-core foreign-CPU rows (``Observer.core_steal_profile``)."""
    if not rows:
        return "(no pool-owned cores saw CPU time)"
    tagged = any("world" in row for row in rows)
    headers = (["world"] if tagged else []) + [
        "core", "pool", "busy_ms", "foreign_ms", "foreign_%", "top thieves",
    ]
    body = []
    for row in rows:
        body.append(([row.get("world", "-")] if tagged else []) + [
            row["core"],
            row["pool"],
            "%.3f" % (row["busy_s"] * 1e3),
            "%.3f" % (row["foreign_s"] * 1e3),
            "%.1f" % row["foreign_pct"],
            ", ".join(row["top_thieves"]) or "-",
        ])
    return _render(headers, body)


def format_dispatch_table(rows):
    """Render fan-out dispatch rows (``Observer.dispatch_profile``).

    The ``client`` row's distribution is the dispatch *width* (objects
    per striped call); the ``osdN`` rows' distribution is the queue
    depth each arriving op saw.
    """
    if not rows:
        return "(no fan-out dispatches recorded)"
    tagged = any("world" in row for row in rows)
    headers = (["world"] if tagged else []) + [
        "scope", "samples", "width/qdepth mean", "max", "inflight_hw",
    ]
    body = []
    for row in rows:
        body.append(([row.get("world", "-")] if tagged else []) + [
            row["scope"],
            row["samples"],
            "%.2f" % row["mean"],
            row["max"],
            row["inflight_hw"],
        ])
    return _render(headers, body)


def format_recovery_table(rows):
    """Render recovery rows (dicts from ``Observer.recovery_profile``).

    Counters show their totals; gauges additionally show the high-water
    mark (``-`` for counters, which have none).
    """
    if not rows:
        return "(no membership change, no recovery traffic)"
    tagged = any("world" in row for row in rows)
    headers = (["world"] if tagged else []) + [
        "metric", "value", "high_water",
    ]
    body = []
    for row in rows:
        high = row.get("high_water")
        body.append(([row.get("world", "-")] if tagged else []) + [
            row["metric"],
            row["value"],
            "-" if high is None else high,
        ])
    return _render(headers, body)


def format_mds_table(rows):
    """Render metadata-HA rows (dicts from ``Observer.mds_profile``).

    Same shape as the recovery table: counters show totals, gauges show
    the final value plus high-water mark.
    """
    if not rows:
        return "(metadata HA never armed)"
    tagged = any("world" in row for row in rows)
    headers = (["world"] if tagged else []) + [
        "metric", "value", "high_water",
    ]
    body = []
    for row in rows:
        high = row.get("high_water")
        body.append(([row.get("world", "-")] if tagged else []) + [
            row["metric"],
            row["value"],
            "-" if high is None else high,
        ])
    return _render(headers, body)


def format_locking_table(rows):
    """Render adaptive-locking rows (dicts from ``Observer.locking_profile``).

    Same shape as the recovery table: counters show totals, gauges show
    the final value plus high-water mark (the ``mode`` gauge is the mode
    index: 0=global, 1=inode, 2=range).
    """
    if not rows:
        return "(no adaptive locking policy ran)"
    tagged = any("world" in row for row in rows)
    headers = (["world"] if tagged else []) + [
        "metric", "value", "high_water",
    ]
    body = []
    for row in rows:
        high = row.get("high_water")
        body.append(([row.get("world", "-")] if tagged else []) + [
            row["metric"],
            row["value"],
            "-" if high is None else high,
        ])
    return _render(headers, body)


def format_fabric_table(rows):
    """Render per-edge RPC rows (dicts from ``Observer.fabric_profile``).

    One row per remote endpoint of a labeled fabric round trip: RPC
    count plus payload bytes in each direction — the traffic that
    leaves the client machine.
    """
    if not rows:
        return "(no labeled fabric RPCs)"
    tagged = any("world" in row for row in rows)
    headers = (["world"] if tagged else []) + [
        "edge", "rpcs", "send_bytes", "recv_bytes",
    ]
    body = []
    for row in rows:
        body.append(([row.get("world", "-")] if tagged else []) + [
            row["edge"],
            row["rpcs"],
            row["send_bytes"],
            row["recv_bytes"],
        ])
    return _render(headers, body)


def format_partitions_table(rows):
    """Render the ``partitions`` rows of a ``--parallel`` run.

    One row per ``map_tasks`` task (a seed or sweep cell): its label
    under ``partition``, then ``wall_s``, the ``worker`` pid that ran
    it and the ``mode`` (``fork`` or ``inline``).
    """
    if not rows:
        return "(sequential run: no partitions)"
    keys = []
    for row in rows:
        for key in row:
            if key != "partition" and key not in keys:
                keys.append(key)
    headers = ["partition"] + keys
    body = []
    for row in rows:
        line = [row["partition"]]
        for key in keys:
            value = row.get(key)
            if value is None:
                line.append("-")
            elif isinstance(value, float):
                line.append("%.4f" % value)
            else:
                line.append(value)
        body.append(line)
    return _render(headers, body)


def format_trace_summary(summary, limit=15):
    """Render (category, name) -> count pairs from ``Observer.summary``."""
    if not summary:
        return "(no trace events)"
    body = [[cat, name, count] for (cat, name), count in summary[:limit]]
    out = _render(["category", "name", "count"], body)
    if len(summary) > limit:
        out += "\n(+%d more event kinds)" % (len(summary) - limit)
    return out

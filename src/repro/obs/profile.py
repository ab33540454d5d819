"""The profile tables: one spec, one renderer.

Every table a profiled run reports is one :data:`TABLES` entry — its
report key, the title the CLI prints over it, the text shown when it
has no rows, where its rows come from, its columns and an optional row
limit. ``merge_profiles`` collects the per-world rows of every entry
that has a source, the CLI prints them in this order, and
:func:`format_table` renders any of them; adding a metric scope to the
profile is one entry here. The tables are deliberately plain
fixed-width text so diffs between runs stay readable.
"""

from collections import namedtuple
from fnmatch import fnmatchcase

from repro.obs.observer import Observer

__all__ = ["Table", "TABLES", "format_table"]

#: ``source`` is ``Observer -> rows`` (None: rows the CLI supplies);
#: ``columns`` are ``(header, row key, format)`` triples; ``limit`` is
#: None or ``(max rows, noun for the "(+N more …)" footer)``.
Table = namedtuple("Table", "key title empty source columns limit")


def _metrics(*picks):
    """Row source over the simulator's metric registry.

    Each pick is ``(scope pattern, metric names)``: every scope matching
    the glob pattern contributes one row per counter (its running total)
    and then per gauge (final value plus high-water mark), restricted to
    ``metric names`` unless that is None. A metric nobody wrote yet has
    no row, so a table stays empty until its facts happen.
    """
    def rows(observer):
        out = []
        for pattern, names in picks:
            for scope in observer.scopes():
                if not fnmatchcase(scope, pattern):
                    continue
                registry = observer.metrics(scope)
                values = [
                    (name, counter.value, None)
                    for name, counter in sorted(registry.counters.items())
                ] + [
                    (name, gauge.value, gauge.high_water)
                    for name, gauge in sorted(registry.gauges.items())
                ]
                out.extend(
                    {"scope": scope, "metric": name, "value": value,
                     "high_water": high_water}
                    for name, value, high_water in values
                    if names is None or name in names
                )
        return out
    return rows


def _fixed(pattern):
    return lambda value: pattern % value


def _ms(seconds):
    return "%.3f" % (seconds * 1e3)


def _thieves(names):
    return ", ".join(names) or "-"


#: Counters show their totals; gauges also show the high-water mark
#: (``-`` for counters, which have none).
_METRIC_COLUMNS = (
    ("scope", "scope", str),
    ("metric", "metric", str),
    ("value", "value", str),
    ("high_water", "high_water", str),
)

TABLES = (
    Table(
        "lock_contention", "lock contention (wait/hold per class, per pool):",
        "(no locks registered)", Observer.lock_table,
        (("pool", "pool", str),
         ("lock_class", "lock_class", str),
         ("acq", "acquisitions", str),
         ("contended", "contended", str),
         ("wait_ms", "total_wait_s", _ms),
         ("hold_ms", "total_hold_s", _ms),
         ("avg_wait_us", "avg_wait_us", _fixed("%.2f")),
         ("max_wait_us", "max_wait_us", _fixed("%.2f"))),
        (20, "lock classes"),
    ),
    Table(
        "core_steal", "core stealing (foreign CPU on pool-reserved cores):",
        "(no pool-owned cores saw CPU time)", Observer.core_steal_profile,
        (("core", "core", str),
         ("pool", "pool", str),
         ("busy_ms", "busy_s", _ms),
         ("foreign_ms", "foreign_s", _ms),
         ("foreign_%", "foreign_pct", _fixed("%.1f")),
         ("top thieves", "top_thieves", _thieves)),
        None,
    ),
    # The client row's distribution is the dispatch width (objects per
    # striped call); the osdN rows' is the queue depth each op saw.
    Table(
        "dispatch", "data-path fan-out (dispatch width, per-OSD inflight):",
        "(no fan-out dispatches recorded)", Observer.dispatch_profile,
        (("scope", "scope", str),
         ("samples", "samples", str),
         ("width/qdepth mean", "mean", _fixed("%.2f")),
         ("max", "max", str),
         ("inflight_hw", "inflight_hw", str)),
        None,
    ),
    # Map-epoch bumps and the epoch, client map refreshes and EOLDEPOCH
    # rejects, backfill bytes/pushes/trims and budget deferrals, degraded
    # and misplaced object gauges.
    Table(
        "recovery", "membership recovery (map epochs, backfill, degraded):",
        "(no membership change, no recovery traffic)",
        _metrics(("monitor", ("epoch_bumps", "map_epoch")),
                 ("cluster", ("map_refreshes", "stale_map_rejects")),
                 ("backfill", ("bytes_moved", "objects_pushed",
                               "objects_trimmed", "budget_deferrals",
                               "degraded_objects", "misplaced_objects"))),
        _METRIC_COLUMNS, None,
    ),
    # The MdsService's failovers, rank splits, rejoins, heartbeat
    # failures, mdsmap epoch and per-rank journal lag; each daemon's
    # (mds:<gid>) journal appends, fenced ops, dedup hits, replays and
    # last replay's duration and sessions. The "mds" scope's service_s
    # histogram produces no rows.
    Table(
        "mds", "metadata HA (journal, sessions, failover):",
        "(metadata HA never armed)",
        _metrics(("mds", None),
                 ("mds:*", ("dedup_hits", "fenced_ops", "journal_entries",
                            "replays", "replay_s", "sessions"))),
        _METRIC_COLUMNS, None,
    ),
    Table(
        "fabric", "fabric edges (cross-machine RPCs per remote endpoint):",
        "(no labeled fabric RPCs)", Observer.fabric_profile,
        (("edge", "edge", str),
         ("rpcs", "rpcs", str),
         ("send_bytes", "send_bytes", str),
         ("recv_bytes", "recv_bytes", str)),
        None,
    ),
    Table(
        "integrity",
        "end-to-end integrity (checksum failures, read repairs, quarantines):",
        "(no checksum failure, no repair)",
        _metrics(("cluster", ("checksum_failures", "quarantined",
                              "read_repairs"))),
        _METRIC_COLUMNS, None,
    ),
    Table(
        "scrub", "scrub (objects scanned, errors found, repaired):",
        "(scrub never ran)", _metrics(("scrub", None)), _METRIC_COLUMNS,
        None,
    ),
    Table(
        "trace_summary", "trace summary:", "(no trace events)", None,
        (("category", "category", str),
         ("name", "name", str),
         ("count", "count", str)),
        (15, "event kinds"),
    ),
    # One row per map_tasks task of a --parallel run; the title takes
    # the worker count.
    Table(
        "partitions", "partitions (one task per seed and cell, %d workers):",
        "(sequential run: no partitions)", None,
        (("partition", "partition", str),
         ("wall_s", "wall_s", _fixed("%.4f")),
         ("worker", "worker", str),
         ("mode", "mode", str)),
        None,
    ),
)

_BY_KEY = {table.key: table for table in TABLES}


def _render(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
        )
    return "\n".join(lines)


def format_table(key, rows):
    """Render the rows of table ``key`` as fixed-width text.

    A row tagged with a ``world`` (``merge_profiles`` output) adds a
    leading ``world`` column; a missing or None cell prints ``-``.
    """
    table = _BY_KEY[key]
    if not rows:
        return table.empty
    tagged = any("world" in row for row in rows)
    columns = ((("world", "world", str),) if tagged else ()) + table.columns
    shown = rows if table.limit is None else rows[:table.limit[0]]
    body = []
    for row in shown:
        line = []
        for _header, row_key, fmt in columns:
            value = row.get(row_key)
            line.append("-" if value is None else fmt(value))
        body.append(line)
    out = _render([header for header, _key, _fmt in columns], body)
    if len(shown) < len(rows):
        out += "\n(+%d more %s)" % (len(rows) - len(shown), table.limit[1])
    return out

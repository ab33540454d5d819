"""Chrome ``trace_event`` export.

Builds the JSON object format understood by ``chrome://tracing`` and
Perfetto: spans become ``"ph": "X"`` complete events, flat trace events
become ``"ph": "i"`` instants, and metadata events name the processes
and threads. Timestamps are microseconds of simulated time.

Multiple observers (experiments that build several worlds, e.g. the
per-symbol colocation sweeps) merge into one trace with a distinct
``pid`` per world.
"""

from repro.obs.profile import TABLES

__all__ = ["chrome_trace", "merge_profiles"]

_USEC = 1e6  # simulated seconds -> trace microseconds


def _tid_of(span):
    if span.thread is not None:
        return span.thread.name
    return "net"


def chrome_trace(observers, labels=None):
    """A ``trace_event`` dict covering every observer's spans and events.

    ``labels`` optionally names each observer's process; the default is
    ``w0``, ``w1``, … when there are several and ``sim`` for a single one.
    """
    observers = [obs for obs in observers if obs is not None]
    events = []
    for pid, obs in enumerate(observers):
        if labels is not None:
            label = labels[pid]
        else:
            label = "sim" if len(observers) == 1 else "w%d" % pid
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": label},
        })
        tids = {}

        def tid_for(name, pid=pid, tids=tids):
            tid = tids.get(name)
            if tid is None:
                tid = tids[name] = len(tids) + 1
                events.append({
                    "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                    "args": {"name": name},
                })
            return tid

        for span in obs.spans:
            args = dict(span.args)
            args["cpu_us"] = round(span.cpu * _USEC, 3)
            events.append({
                "ph": "X",
                "pid": pid,
                "tid": tid_for(_tid_of(span)),
                "ts": span.t0 * _USEC,
                "dur": span.duration * _USEC,
                "name": span.name,
                "cat": span.category,
                "args": args,
            })
        for event in obs.records:
            events.append({
                "ph": "i",
                "pid": pid,
                "tid": tid_for("events/" + event.category),
                "ts": event.time * _USEC,
                "name": event.name,
                "cat": event.category,
                "s": "t",
                "args": dict(event.detail),
            })
        for name in obs.timelines():
            counter_tid = tid_for("timeline/" + name)
            for when, value in obs.timeline(name):
                events.append({
                    "ph": "C",
                    "pid": pid,
                    "tid": counter_tid,
                    "ts": when * _USEC,
                    "name": name,
                    "args": {"value": value},
                })
    events.sort(key=lambda ev: (ev["pid"], ev.get("ts", -1.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def merge_profiles(observers):
    """Combine per-world derived profiles into one report dict.

    Every :data:`~repro.obs.profile.TABLES` entry with a row source
    concatenates its rows with a ``world`` column; trace summaries sum
    per (category, name); folds concatenate.
    """
    observers = [obs for obs in observers if obs is not None]
    world_tables = [table for table in TABLES if table.source is not None]
    tables = {table.key: [] for table in world_tables}
    fold = []
    trace_counts = {}
    for index, obs in enumerate(observers):
        tag = "w%d" % index
        for table in world_tables:
            for row in table.source(obs):
                row = dict(row)
                row["world"] = tag
                tables[table.key].append(row)
        for (cat, name), count in obs.summary():
            key = (cat, name)
            trace_counts[key] = trace_counts.get(key, 0) + count
        fold.extend(fold_line for fold_line in obs.fold())
    tables["lock_contention"].sort(
        key=lambda row: row["total_wait_s"], reverse=True
    )
    return {
        **tables,
        "trace_summary": [
            {"category": cat, "name": name, "count": count}
            for (cat, name), count in sorted(
                trace_counts.items(), key=lambda kv: kv[1], reverse=True,
            )
        ],
        "fold": fold,
    }

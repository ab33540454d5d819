"""Host-clock attribution: bucket a ``cProfile`` table by ``repro`` layer.

Input is the ``stats`` dict of a :class:`pstats.Stats` —
``{(file, line, name): (cc, nc, tt, ct, callers)}`` with
``callers = {(file, line, name): (nc, cc, tt, ct)}`` — so the functions
here are pure and testable on a hand-written table.

A function defined under ``src/repro/<package>/`` belongs to that
package's layer: its self time and its call count go there. Built-in and
standard-library functions have no layer of their own; their self time
is charged to whichever layer *called* them, through the ``callers``
table (``heapq.heappush`` called from ``sim/engine.py`` is ``sim`` time),
following foreign callers upwards until a ``repro`` frame is reached.
Their calls are not counted: ``host_calls`` is the exact number of calls
of functions the layer itself defines.
"""

import os

from perfbench.workloads import HOST_LAYERS, LAYER_OF_PACKAGE

#: Bucket for time no ``repro`` frame can be blamed for (the profiler's
#: own enable/disable, frames of this package). Reported in the
#: artifact table only; it is not a named metric.
UNATTRIBUTED = "unattributed"


def layer_of(filename, src_root):
    """The layer that defines ``filename``; None when outside ``repro``."""
    prefix = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    return LAYER_OF_PACKAGE.get(head, "harness")


def _shares(func, stats, src_root, memo, active):
    """``{layer: fraction}`` of a foreign function's callers, recursively."""
    layer = layer_of(func[0], src_root)
    if layer is not None:
        return {layer: 1.0}
    if func in memo:
        return memo[func]
    if func in active:  # recursion among foreign frames: no new blame
        return {}
    active.add(func)
    weights = {}
    entry = stats.get(func)
    callers = entry[4] if entry is not None else {}
    for caller, (_nc, _cc, _tt, ct) in callers.items():
        for name, fraction in _shares(
                caller, stats, src_root, memo, active).items():
            weights[name] = weights.get(name, 0.0) + fraction * ct
    active.discard(func)
    total = sum(weights.values())
    shares = (
        {name: weight / total for name, weight in weights.items()}
        if total > 0 else {UNATTRIBUTED: 1.0}
    )
    memo[func] = shares
    return shares


def bucket(stats, src_root):
    """``{layer: {"self_s": float, "calls": int}}`` for every host layer."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in HOST_LAYERS}
    out[UNATTRIBUTED] = {"self_s": 0.0, "calls": 0}
    memo = {}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0], src_root)
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        if not callers:
            out[UNATTRIBUTED]["self_s"] += tt
            continue
        for caller, (_nc, _ccc, caller_tt, _ct2) in callers.items():
            for name, fraction in _shares(
                    caller, stats, src_root, memo, set()).items():
                out[name]["self_s"] += fraction * caller_tt
    return out


def top_functions(stats, src_root, limit=25):
    """The ``limit`` largest self-time rows, for the human-facing artifact."""
    rows = []
    for (filename, line, name), (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(filename, src_root)
        where = (
            os.path.relpath(filename, src_root) if layer is not None
            else filename
        )
        rows.append({
            "function": "%s:%d(%s)" % (where, line, name),
            "layer": layer or "-",
            "calls": nc,
            "self_s": tt,
        })
    rows.sort(key=lambda row: row["self_s"], reverse=True)
    return rows[:limit]


def format_top(rows):
    """Fixed-width text table of :func:`top_functions` rows."""
    lines = ["%10s %10s  %-10s %s" % ("self_s", "calls", "layer", "function")]
    for row in rows:
        lines.append("%10.4f %10d  %-10s %s" % (
            row["self_s"], row["calls"], row["layer"], row["function"],
        ))
    return "\n".join(lines)

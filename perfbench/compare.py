"""``python -m perfbench compare A.json B.json`` — A is the reference.

Per workload and end-to-end metric: both values, the relative change of
B against A and the bound; exit status 1 when any bound is exceeded.
Then every per-layer *count* metric whose value differs between the two
files — on two runs of one commit that list shows which counts repeat
exactly and may therefore support a later count-based claim.

Files recorded under different Python minor versions or with different
workload parameters do not measure the same thing; comparing them is
refused with exit status 2.
"""

import json

from perfbench.workloads import END_TO_END, SETUP_ABS_SLACK_S


class Incomparable(Exception):
    """The two result files do not describe the same benchmark."""


def _minor(version):
    return ".".join(version.split(".")[:2])


def check_comparable(ref, new):
    """Raise :class:`Incomparable` unless ``ref`` and ``new`` may be diffed."""
    ref_py = _minor(ref["environment"]["python"])
    new_py = _minor(new["environment"]["python"])
    if ref_py != new_py:
        raise Incomparable(
            "Python minor versions differ: %s vs %s" % (ref_py, new_py)
        )
    if sorted(ref["workloads"]) != sorted(new["workloads"]):
        raise Incomparable(
            "workload sets differ: %s vs %s"
            % (sorted(ref["workloads"]), sorted(new["workloads"]))
        )
    for name in sorted(ref["workloads"]):
        if ref["workloads"][name]["params"] != new["workloads"][name]["params"]:
            raise Incomparable("parameters of %s differ" % name)
        if ref["workloads"][name]["seed"] != new["workloads"][name]["seed"]:
            raise Incomparable("seed of %s differs" % name)


def worsening(better, ref_value, new_value):
    """How much worse ``new_value`` is, as a share of ``ref_value``."""
    if ref_value == 0:
        return 0.0 if new_value == ref_value else float("inf")
    delta = (new_value - ref_value) / ref_value
    return delta if better == "lower" else -delta


def exceeded(metric, better, bound, ref_value, new_value):
    """True when ``new_value`` is worse than ``ref_value`` beyond the bound."""
    if metric == "failed_share":
        return new_value > ref_value
    if metric == "setup_s" and new_value - ref_value <= SETUP_ABS_SLACK_S:
        return False
    return worsening(better, ref_value, new_value) > bound


def compare(ref, new):
    """``(lines, regressions)`` for two loaded result files."""
    check_comparable(ref, new)
    lines = []
    regressions = []
    for name in sorted(ref["workloads"]):
        ref_wl, new_wl = ref["workloads"][name], new["workloads"][name]
        lines.append(name)
        if "end_to_end" not in ref_wl or "end_to_end" not in new_wl:
            lines.append("  no end-to-end metrics (workers failed): %s"
                         % (ref_wl["errors"] + new_wl["errors"]))
            regressions.append((name, "errors"))
            continue
        for metric, _unit, better, bound in END_TO_END:
            ref_m = ref_wl["end_to_end"][metric]
            new_m = new_wl["end_to_end"][metric]
            bad = exceeded(metric, better, bound,
                           ref_m["value"], new_m["value"])
            worse_by = worsening(better, ref_m["value"], new_m["value"])
            lines.append(
                "  %-18s %14.6g -> %-14.6g %-6s worse by %+7.2f%%"
                "  (bound %.0f%%)  %s" % (
                    metric, ref_m["value"], new_m["value"], ref_m["unit"],
                    100.0 * worse_by, 100.0 * bound,
                    "EXCEEDED" if bad else "ok",
                )
            )
            if bad:
                regressions.append((name, metric))
        lines.append("  %-18s %s" % (
            "fingerprint",
            "identical" if ref_wl["fingerprint"] == new_wl["fingerprint"]
            else "DIFFERENT (the simulated outcome changed)",
        ))
    lines.append("")
    lines.append("per-layer count metrics that differ:")
    differing = 0
    for name in sorted(ref["workloads"]):
        ref_pl = ref["workloads"][name].get("per_layer", {})
        new_pl = new["workloads"][name].get("per_layer", {})
        for metric in sorted(set(ref_pl) | set(new_pl)):
            ref_m, new_m = ref_pl.get(metric), new_pl.get(metric)
            if (ref_m or new_m)["unit"] != "count":
                continue
            ref_v = ref_m["value"] if ref_m else None
            new_v = new_m["value"] if new_m else None
            if ref_v != new_v:
                differing += 1
                lines.append("  %s %-28s %s -> %s" % (name, metric,
                                                      ref_v, new_v))
    if not differing:
        lines.append("  none: every count repeats exactly")
    return lines, regressions


def main(ref_path, new_path):
    """Print the comparison; 0 ok, 1 bound exceeded, 2 incomparable."""
    with open(ref_path) as handle:
        ref = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    try:
        lines, regressions = compare(ref, new)
    except Incomparable as err:
        print("refusing to compare: %s" % err)
        return 2
    print("\n".join(lines))
    if regressions:
        print("\nbounds exceeded: %s" % ", ".join(
            "%s/%s" % pair for pair in regressions
        ))
        return 1
    return 0

"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Not part of tier-1 (``testpaths`` is ``tests/``). The attribution code
is tested on hand-written tables; one real ``seqread_d`` measurement
(one repetition and the traced run) checks that every promised metric
comes out under a well-formed name.
"""

import json
import os
import re

import pytest

from perfbench import REPO_ROOT, compare, driver, hostprof, simprof
from perfbench.workloads import (
    END_TO_END, GATE_BOUNDS, PER_LAYER_ALL, PER_LAYER_COMMON, WORKLOADS,
)

SRC = "/x/src"
ENGINE = (SRC + "/repro/sim/engine.py", 10, "_step")
CLIENT = (SRC + "/repro/cephclient/client.py", 20, "_read")
EXPERIMENT = (SRC + "/repro/bench/sequential.py", 30, "run_sequential")
WORLD = (SRC + "/repro/world.py", 5, "__init__")
OBSERVER = (SRC + "/repro/obs/observer.py", 7, "span")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
STDLIB = ("/usr/lib/python3/random.py", 1, "uniform")
RANDOM = ("~", 0, "<method 'random' of '_random.Random' objects>")
DISABLE = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")


def _pstats_table():
    """(cc, nc, tt, ct, callers); callers: caller -> (nc, cc, tt, ct)."""
    return {
        EXPERIMENT: (1, 1, 0.5, 10.0, {}),
        WORLD: (1, 1, 0.25, 0.25, {EXPERIMENT: (1, 1, 0.25, 0.25)}),
        ENGINE: (100, 100, 4.0, 9.0, {EXPERIMENT: (100, 100, 4.0, 9.0)}),
        CLIENT: (40, 40, 2.0, 3.0, {ENGINE: (40, 40, 2.0, 3.0)}),
        OBSERVER: (40, 40, 0.5, 0.5, {CLIENT: (40, 40, 0.5, 0.5)}),
        # heappush: 3/4 of its time under the engine, 1/4 under the client
        HEAPPUSH: (80, 80, 0.8, 0.8, {
            ENGINE: (60, 60, 0.6, 0.6), CLIENT: (20, 20, 0.2, 0.2),
        }),
        # random.uniform is stdlib called by the client; the C method it
        # calls must be blamed on the client through the stdlib frame
        STDLIB: (10, 10, 0.1, 0.3, {CLIENT: (10, 10, 0.1, 0.3)}),
        RANDOM: (10, 10, 0.2, 0.2, {STDLIB: (10, 10, 0.2, 0.2)}),
        DISABLE: (1, 1, 0.01, 0.01, {}),
    }


def test_layer_of_maps_packages_and_top_level_modules():
    assert hostprof.layer_of(ENGINE[0], SRC) == "sim"
    assert hostprof.layer_of(OBSERVER[0], SRC) == "metrics"
    assert hostprof.layer_of(EXPERIMENT[0], SRC) == "harness"
    assert hostprof.layer_of(WORLD[0], SRC) == "harness"
    assert hostprof.layer_of(STDLIB[0], SRC) is None
    assert hostprof.layer_of("~", SRC) is None
    assert hostprof.layer_of("/x/srcfoo/repro/sim/engine.py", SRC) is None


def test_bucket_charges_self_time_and_calls_to_the_defining_layer():
    buckets = hostprof.bucket(_pstats_table(), SRC)
    assert buckets["harness"]["calls"] == 2
    assert buckets["harness"]["self_s"] == pytest.approx(0.75)
    assert buckets["sim"]["calls"] == 100
    assert buckets["cephclient"]["calls"] == 40
    assert buckets["metrics"] == {"self_s": 0.5, "calls": 40}
    assert buckets["fuse"] == {"self_s": 0.0, "calls": 0}


def test_bucket_charges_builtins_to_the_calling_layer():
    buckets = hostprof.bucket(_pstats_table(), SRC)
    # engine: own 4.0 + heappush 0.6
    assert buckets["sim"]["self_s"] == pytest.approx(4.6)
    # client: own 2.0 + heappush 0.2 + uniform 0.1 + random() via uniform 0.2
    assert buckets["cephclient"]["self_s"] == pytest.approx(2.5)
    assert buckets[hostprof.UNATTRIBUTED]["self_s"] == pytest.approx(0.01)
    total = sum(row[2] for row in _pstats_table().values())
    assert sum(b["self_s"] for b in buckets.values()) == pytest.approx(total)


def test_top_functions_sorted_and_limited():
    rows = hostprof.top_functions(_pstats_table(), SRC, limit=3)
    assert [row["self_s"] for row in rows] == [4.0, 2.0, 0.8]
    assert rows[0]["function"] == "repro/sim/engine.py:10(_step)"
    assert rows[0]["layer"] == "sim" and rows[2]["layer"] == "-"
    assert "repro/sim/engine.py:10(_step)" in hostprof.format_top(rows)


def _profile_report():
    def lock(pool, lock_class, wait, hold):
        return {"pool": pool, "lock_class": lock_class,
                "total_wait_s": wait, "total_hold_s": hold}

    def span(name, count, wall):
        return {"name": name, "count": count, "wall_s": wall, "cpu_s": 0.0}

    return {
        "lock_contention": [
            lock("p0", "client_lock", 4.0, 1.5),
            lock("p1", "ino_lock", 1.0, 0.5),
            lock("p0", "i_mutex_key", 0.25, 0.1),
            lock("-", "lru_lock", 0.5, 0.2),
        ],
        "core_steal": [
            {"core": "c0", "pool": "fls0", "busy_s": 1.0, "foreign_s": 0.9},
            {"core": "c2", "pool": "nbr", "busy_s": 2.0, "foreign_s": 0.5},
            {"core": "c3", "pool": "nbr", "busy_s": 2.0, "foreign_s": 1.5},
        ],
        "fabric": [
            {"edge": "mds", "rpcs": 40, "send_bytes": 100, "recv_bytes": 50},
            {"edge": "mds.1", "rpcs": 2, "send_bytes": 10, "recv_bytes": 10},
            {"edge": "osd0", "rpcs": 5, "send_bytes": 1000, "recv_bytes": 0},
        ],
        "span_summary": [
            span("ipc.submit", 10, 12.0), span("svc.handle", 10, 8.5),
            span("client.read", 7, 8.0), span("client.write", 3, 0.5),
            span("client.flush", 1, 0.25), span("vfs.write", 4, 2.0),
            span("vfs.open", 2, 0.5), span("wb.flush", 3, 6.0),
            span("wb.throttle", 9, 11.0), span("mds.lookup", 5, 0.1),
        ],
        "ctx_switches": 123,
        "cpu_busy_s": 4.5,
        "spans": 54,
        "dropped": 0,
        "scopes": {
            "w0/p0.libceph": {
                "counters": {"cache_hit_blocks": 90, "cache_miss_ranges": 10},
                "histograms": {},
            },
            "w0/mds": {
                "counters": {},
                "histograms": {"service_s": {"count": 42, "total": 0.005}},
            },
            "w0/osd0": {"counters": {}, "histograms": {
                "qdepth": {"count": 6, "total": 3.0},
                "write_service_s": {"count": 4, "total": 0.25},
                "read_service_s": {"count": 2, "total": 0.5},
            }},
            "w1/osd12": {"counters": {}, "histograms": {
                "qdepth": {"count": 2, "total": 1.0},
                "verify_service_s": {"count": 2, "total": 0.25},
            }},
            "w1/dispatch": {"counters": {}, "histograms": {
                "width": {"count": 8, "total": 37.0},
            }},
        },
    }


def test_sim_metrics_reads_spans_locks_and_fabric():
    metrics = simprof.sim_metrics(_profile_report())
    assert metrics["core.ipc_submit_n"] == 10
    assert metrics["core.ipc_submit_s"] == 12.0
    assert metrics["core.svc_handle_s"] == 8.5
    assert metrics["core.ipc_wait_s"] == 3.5
    assert (metrics["cephclient.read_n"], metrics["cephclient.read_s"]) == (7, 8.0)
    assert (metrics["cephclient.write_n"], metrics["cephclient.write_s"]) == (3, 0.5)
    assert metrics["cephclient.flush_s"] == 0.25
    assert metrics["cephclient.client_lock_wait_s"] == 5.0
    assert metrics["cephclient.client_lock_hold_s"] == 2.0
    assert metrics["kernel.lock_wait_s"] == 0.75
    assert (metrics["kernel.vfs_n"], metrics["kernel.vfs_s"]) == (6, 2.5)
    assert metrics["kernel.wb_flush_s"] == 6.0
    assert metrics["kernel.wb_throttle_s"] == 11.0
    assert metrics["net.rpcs"] == 47
    assert metrics["net.bytes"] == 1170
    assert metrics["storage.mds_rpcs"] == 42
    assert metrics["storage.mds_service_s"] == 0.005
    assert metrics["storage.osd_ops"] == 8
    assert metrics["storage.osd_service_s"] == 1.0
    assert metrics["storage.osd_qdepth_mean"] == 0.5
    assert metrics["cephclient.cache_hit_ratio"] == 0.9
    assert metrics["kernel.nbr_steal_share"] == 0.5
    assert metrics["sim.ctx_switches"] == 123
    assert metrics["hw.cpu_busy_s"] == 4.5
    assert metrics["obs.spans"] == 54


def test_sim_metrics_omits_ratios_without_a_denominator():
    report = _profile_report()
    report["core_steal"] = report["core_steal"][:1]
    report["scopes"] = {}
    metrics = simprof.sim_metrics(report)
    for name in ("cephclient.cache_hit_ratio", "kernel.nbr_steal_share",
                 "storage.osd_qdepth_mean"):
        assert name not in metrics
    assert metrics["storage.osd_ops"] == 0  # a count stays, as a true zero


def _result_file():
    def entry(value, unit):
        return {"value": value, "unit": unit}

    return {
        "environment": {"python": "3.11.7"},
        "workloads": {
            "seqread_d": {
                "params": {"duration": 1.5}, "seed": 7, "errors": [],
                "fingerprint": "abc",
                "end_to_end": {
                    "host_cpu_s": entry(2.0, "s"),
                    "host_peak_rss_mb": entry(100.0, "MB"),
                    "setup_s": entry(0.16, "s"),
                    "sim_throughput": entry(1000.0, "MB/s"),
                    "failed_share": entry(0.0, "ratio"),
                },
                "per_layer": {
                    "sim.host_calls": entry(500, "count"),
                    "net.rpcs": entry(79, "count"),
                    "sim.host_self_s": entry(1.0, "s"),
                },
            },
        },
    }


def test_compare_same_file_is_clean():
    lines, regressions = compare.compare(_result_file(), _result_file())
    assert regressions == []
    assert any("every count repeats exactly" in line for line in lines)
    assert any("identical" in line for line in lines)


def test_compare_flags_each_bound_in_its_direction():
    new = _result_file()
    e2e = new["workloads"]["seqread_d"]["end_to_end"]
    e2e["host_cpu_s"]["value"] = 2.2  # +10 % > 8 %
    e2e["host_peak_rss_mb"]["value"] = 90.0  # better
    e2e["sim_throughput"]["value"] = 900.0  # -10 %
    e2e["setup_s"]["value"] = 0.20  # +25 % but within the absolute slack
    _lines, regressions = compare.compare(_result_file(), new)
    assert regressions == [("seqread_d", "host_cpu_s"),
                           ("seqread_d", "sim_throughput")]
    e2e["setup_s"]["value"] = 0.30
    e2e["failed_share"]["value"] = 0.5
    _lines, regressions = compare.compare(_result_file(), new)
    assert ("seqread_d", "setup_s") in regressions
    assert ("seqread_d", "failed_share") in regressions


def test_compare_lists_differing_counts_only():
    new = _result_file()
    per_layer = new["workloads"]["seqread_d"]["per_layer"]
    per_layer["sim.host_calls"]["value"] = 501
    per_layer["sim.host_self_s"]["value"] = 9.0  # a time, not a count
    del per_layer["net.rpcs"]
    lines, _regressions = compare.compare(_result_file(), new)
    tail = lines[lines.index("per-layer count metrics that differ:") + 1:]
    assert len(tail) == 2
    assert "net.rpcs" in tail[0] and "79 -> None" in tail[0]
    assert "sim.host_calls" in tail[1] and "500 -> 501" in tail[1]


def test_compare_refuses_other_python_or_parameters(tmp_path, capsys):
    other_python = _result_file()
    other_python["environment"]["python"] = "3.12.1"
    with pytest.raises(compare.Incomparable):
        compare.compare(_result_file(), other_python)
    patch_level = _result_file()
    patch_level["environment"]["python"] = "3.11.9"
    compare.compare(_result_file(), patch_level)
    other_params = _result_file()
    other_params["workloads"]["seqread_d"]["params"]["duration"] = 3.0
    with pytest.raises(compare.Incomparable):
        compare.compare(_result_file(), other_params)
    paths = []
    for index, record in enumerate((_result_file(), other_params)):
        paths.append(str(tmp_path / ("r%d.json" % index)))
        with open(paths[-1], "w") as handle:
            json.dump(record, handle)
    assert compare.main(*paths) == 2
    assert "refusing to compare" in capsys.readouterr().out


def _record(user_s, fingerprint="f", cells=None, **checks):
    return {
        "setup_s": 0.2, "user_s": user_s, "cell_user_s": cells or [user_s], "sys_s": 0.1, "wall_s": user_s + 0.1,
        "rss_mb": 100.0, "throughput": 10.0, "fingerprint": fingerprint,
        "checks": dict({"throughput_positive": True}, **checks), "extra": {},
    }


def test_summarize_takes_minimum_and_checks_determinism():
    result = driver.summarize(
        "seqread_d", 7, [_record(2.5), _record(2.0), _record(3.0)])
    assert result["end_to_end"]["host_cpu_s"]["value"] == 2.0
    assert result["end_to_end"]["sim_throughput"]["unit"] == "MB/s"
    assert result["spread"]["host_cpu_s"]["median"] == 2.5
    assert (result["attempted"], result["failed"]) == (2, 0)
    # each cell's minimum is taken on its own: 1.0 + 0.5, not min(2.5, 2.0)
    result = driver.summarize("seqread_d", 7, [
        _record(2.5, cells=[1.0, 1.5]), _record(2.0, cells=[1.5, 0.5])])
    assert result["end_to_end"]["host_cpu_s"]["value"] == 1.5
    result = driver.summarize(
        "seqread_d", 7, [_record(2.5), _record(2.0, fingerprint="g")])
    assert result["checks"]["deterministic"] is False
    assert result["end_to_end"]["failed_share"]["value"] == 0.5


def test_summarize_failed_worker_fails_every_check():
    result = driver.summarize(
        "chaos_faults", 7, [_record(2.0), {"error": "worker exited 1: boom"}])
    assert result["errors"] == ["worker exited 1: boom"]
    assert result["failed"] == result["attempted"] == 6
    assert "end_to_end" not in result


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]]
    assert declared == [
        (name, unit, better, GATE_BOUNDS[name])
        for name, unit, better, _bound in END_TO_END if name != "failed_share"
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER_COMMON)
    assert spec["paths"] == ["perfbench"]


def test_metric_names_are_well_formed_and_within_limits():
    names = [row[0] for row in END_TO_END] + [row[0] for row in PER_LAYER_ALL]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(END_TO_END) <= 16
    assert len(PER_LAYER_ALL) <= 128


def test_seqread_d_reports_every_promised_metric():
    result = driver.measure("seqread_d", 7, repetitions=1, trace=True)
    assert result["errors"] == []
    assert result["failed"] == 0, result["checks"]
    assert sorted(result["checks"]) == sorted(
        list(WORKLOADS["seqread_d"]["checks"])
        + list(WORKLOADS["seqread_d"]["traced_checks"]))
    assert list(result["end_to_end"]) == [row[0] for row in END_TO_END]
    promised = {row[0] for row in PER_LAYER_COMMON}
    promised.add("cephclient.cache_hit_ratio")
    assert promised <= set(result["per_layer"])
    known = {row[0]: row[1] for row in PER_LAYER_ALL}
    for name, entry in result["per_layer"].items():
        assert entry["unit"] == known[name]
        assert isinstance(entry["value"], (int, float))
    per_layer = result["per_layer"]
    assert per_layer["cephclient.cache_hit_ratio"]["value"] >= 0.99
    assert per_layer["sim.host_calls"]["value"] > 0
    assert per_layer["kernel.vfs_n"]["value"] == 0  # D bypasses the VFS
    assert per_layer["obs.trace_overhead"]["value"] > 1.0
    assert json.loads(json.dumps(result)) == result

"""Fig. 6: workload interference under D vs K (the isolation result).

Three panels: Fileserver colocated with (a) RandomIO, (b) Webserver,
(c) Sysbench CPU. The paper's claim: the kernel client collapses by up to
16.5x next to a neighbour while Danaus loses at most ~16%, because Danaus
serves I/O strictly with the pool's own cores and user-level locks.
"""

from repro.bench.isolation import run_colocation


def _drop(result, symbol, n_fls, neighbor):
    alone = result.value("fls_ops_per_sec", symbol=symbol, n_fls=n_fls,
                         neighbor="-")
    coloc = result.value("fls_ops_per_sec", symbol=symbol, n_fls=n_fls,
                         neighbor=neighbor)
    return alone / coloc if coloc else float("inf")


def test_fig6a_randomio(once, figure):
    experiment = figure(
        "fig6a", {"symbol": ["K", "D"], "n_fls": [1, 3]},
        neighbor="RND", duration=3.0,
    )
    result = once(experiment.run)
    print()
    print(result.report())
    for n_fls in (1, 3):
        k_drop = _drop(result, "K", n_fls, "RND")
        d_drop = _drop(result, "D", n_fls, "RND")
        # Shape: K collapses, D barely moves.
        assert k_drop > 2.0, "K drop only %.2fx at %dFLS" % (k_drop, n_fls)
        assert d_drop < 1.5, "D drop %.2fx at %dFLS" % (d_drop, n_fls)
        assert k_drop > 2 * d_drop
    # Line chart: K-alone leans on the neighbour's reserved cores, D not.
    k_util = result.value("nbr_core_util_pct", symbol="K", n_fls=3,
                          neighbor="-")
    d_util = result.value("nbr_core_util_pct", symbol="D", n_fls=3,
                          neighbor="-")
    assert k_util > 4 * max(d_util, 0.5)


def test_fig6b_webserver(once, figure):
    experiment = figure(
        "fig6b", {"symbol": ["K", "D"], "n_fls": [1, 3]},
        title="Fileserver colocated with Webserver (D vs K)",
        expectation=(
            "K drops 2.3x (1FLS+WBS) / 4.2x (7FLS+WBS); 7FLS/D+WBS is 3.2x "
            "faster than 7FLS/K+WBS."
        ),
        neighbor="WBS", duration=3.0,
    )
    result = once(experiment.run)
    print()
    print(result.report())
    # The WBS effect is milder than RND's in the paper too (2.3-4.2x vs
    # 7.4-16.5x); at our scale it shows at 1FLS and vanishes at 3FLS
    # where the backend, not stolen cores, bounds the kernel client (see
    # EXPERIMENTS.md). Assert the robust direction: K degrades, D not.
    k_drop = _drop(result, "K", 1, "WBS")
    d_drop = _drop(result, "D", 1, "WBS")
    assert k_drop > 1.2, "K drop only %.2fx at 1FLS" % k_drop
    assert d_drop < 1.1
    assert k_drop > d_drop
    assert _drop(result, "D", 3, "WBS") < 1.1
    # Colocated, D beats K (paper: 3.2x at 7FLS).
    k_coloc = result.value("fls_ops_per_sec", symbol="K", n_fls=3,
                           neighbor="WBS")
    d_coloc = result.value("fls_ops_per_sec", symbol="D", n_fls=3,
                           neighbor="WBS")
    assert d_coloc > k_coloc


def test_fig6c_sysbench(once):
    def sweep():
        from repro.bench.harness import ExperimentResult

        result = ExperimentResult(
            "fig6c", "Sysbench p99 and Fileserver latency under colocation",
            "SSB p99 +93% and FLS +28% on K, only +27% and +2% on D.",
        )
        for symbol in ("K", "D"):
            for neighbor in (None, "SSB"):
                row = run_colocation(symbol, 1, neighbor, duration=3.0)
                result.add_row(**row)
        return result

    result = once(sweep)
    print()
    print(result.report())
    # The kernel-served FLS inflates SSB's p99 more than Danaus does.
    k_ssb = result.value("ssb_p99_ms", symbol="K", neighbor="SSB")
    d_ssb = result.value("ssb_p99_ms", symbol="D", neighbor="SSB")
    assert k_ssb > d_ssb, "SSB p99: K %.2fms vs D %.2fms" % (k_ssb, d_ssb)
    # FLS latency suffers less from SSB on D than on K.
    for symbol in ("K", "D"):
        alone = result.value("fls_mean_latency", symbol=symbol, neighbor="-")
        coloc = result.value("fls_mean_latency", symbol=symbol, neighbor="SSB")
        result.note(
            "%s: FLS latency +%.0f%% under SSB"
            % (symbol, 100 * (coloc / alone - 1) if alone else 0)
        )
    k_rise = (
        result.value("fls_mean_latency", symbol="K", neighbor="SSB")
        / result.value("fls_mean_latency", symbol="K", neighbor="-")
    )
    d_rise = (
        result.value("fls_mean_latency", symbol="D", neighbor="SSB")
        / result.value("fls_mean_latency", symbol="D", neighbor="-")
    )
    assert d_rise < k_rise * 1.2

"""Fig. 7: RocksDB latency — scaleout (a: put, b: get) and scaleup
(c: put, d: get)."""


def test_fig7a_put_scaleout(once, figure):
    experiment = figure(
        "fig7a", {"symbol": ["D", "F", "K"], "pools": [1, 4]}, mode="put"
    )
    result = once(experiment.run)
    print()
    print(result.report())
    # Paper shape: D < F < K. The D-F gap is a few percent at our pool
    # counts (the paper's 5.9x appears at 32 pools); the D-K gap is the
    # load-bearing one and must hold strictly at scale.
    d1 = result.value("mean_latency_ms", symbol="D", pools=1)
    f1 = result.value("mean_latency_ms", symbol="F", pools=1)
    k1 = result.value("mean_latency_ms", symbol="K", pools=1)
    assert d1 < f1 < k1, (
        "put@1: want D<F<K, got %.2f/%.2f/%.2f" % (d1, f1, k1)
    )
    pools = max(result.column("pools"))
    d = result.value("mean_latency_ms", symbol="D", pools=pools)
    f = result.value("mean_latency_ms", symbol="F", pools=pools)
    k = result.value("mean_latency_ms", symbol="K", pools=pools)
    assert d <= f * 1.05, "put: D %.2fms !<= F %.2fms" % (d, f)
    assert d < k, "put: D %.2fms !< K %.2fms" % (d, k)
    # K's disadvantage grows with pool count (the paper's divergence).
    assert (k / d) > (k1 / d1)


def test_fig7b_get_scaleout(once, figure):
    experiment = figure(
        "fig7b", {"symbol": ["D", "F", "K"], "pools": [1, 4]}, mode="get"
    )
    result = once(experiment.run)
    print()
    print(result.report())
    pools = max(result.column("pools"))
    d = result.value("mean_latency_ms", symbol="D", pools=pools)
    f = result.value("mean_latency_ms", symbol="F", pools=pools)
    k = result.value("mean_latency_ms", symbol="K", pools=pools)
    # Paper shape: D up to 1.4x over F and 2.2x over K (milder than put).
    assert d < f
    assert d < k * 1.1


def test_fig7c_put_scaleup(once, figure):
    experiment = figure(
        "fig7c", {"symbol": ["D", "F/F", "F/K", "K/K"], "clones": [2, 6]},
        mode="put",
    )
    result = once(experiment.run)
    print()
    print(result.report())
    clones = max(result.column("clones"))
    d = result.value("mean_latency_ms", symbol="D", clones=clones)
    ff = result.value("mean_latency_ms", symbol="F/F", clones=clones)
    fk = result.value("mean_latency_ms", symbol="F/K", clones=clones)
    kk = result.value("mean_latency_ms", symbol="K/K", clones=clones)
    # Paper shape: D fastest put scaleup (12.6x/3.9x/3.6x over F/F, F/K, K/K).
    assert d < ff
    assert d < fk
    assert d < kk


def test_fig7d_get_scaleup(once, figure):
    experiment = figure(
        "fig7d", {"symbol": ["D", "F/F", "K/K"], "clones": [2, 6]},
        mode="get",
    )
    result = once(experiment.run)
    print()
    print(result.report())
    # Paper shape: mixed results — D beats F/F at scale, K/K can beat D
    # at few clones (the shared-client crossover).
    clones = max(result.column("clones"))
    d = result.value("mean_latency_ms", symbol="D", clones=clones)
    ff = result.value("mean_latency_ms", symbol="F/F", clones=clones)
    assert d < ff, "get scaleup: D %.2fms !< F/F %.2fms" % (d, ff)
    few = min(result.column("clones"))
    d_few = result.value("mean_latency_ms", symbol="D", clones=few)
    kk_few = result.value("mean_latency_ms", symbol="K/K", clones=few)
    # K/K is at least competitive with D at few clones.
    assert kk_few < d_few * 2.5

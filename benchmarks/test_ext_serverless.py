"""Extension bench: serverless invocation tails under colocation (§9)."""


def test_ext_serverless_tail_isolation(once, figure):
    experiment = figure(
        "ext-serverless", {"symbol": ["K", "D"]}, n_tenants=2, duration=3.0
    )
    result = once(experiment.run)
    print()
    print(result.report())
    k_alone = result.value("warm_p99_ms", symbol="K", neighbor="-")
    k_coloc = result.value("warm_p99_ms", symbol="K", neighbor="RND")
    d_alone = result.value("warm_p99_ms", symbol="D", neighbor="-")
    d_coloc = result.value("warm_p99_ms", symbol="D", neighbor="RND")
    k_growth = k_coloc / k_alone if k_alone else float("inf")
    d_growth = d_coloc / d_alone if d_alone else float("inf")
    # The §9 prediction: Danaus keeps the tail flat, the kernel does not.
    assert d_growth < k_growth, (
        "warm p99 growth: D %.2fx !< K %.2fx" % (d_growth, k_growth)
    )
    assert d_growth < 2.0
    # Tenants keep serving invocations under colocation on D.
    d_rate = result.value("invocations_per_sec", symbol="D", neighbor="RND")
    assert d_rate > 0

"""Fig. 10: Fileserver aggregate throughput at pool scaleout."""


def test_fig10_fileserver_scaleout(once, figure):
    experiment = figure(
        "fig10", {"symbol": ["D", "F", "K"], "pools": [1, 4]}
    )
    result = once(experiment.run)
    print()
    print(result.report())
    pools = max(result.column("pools"))
    d = result.value("total_ops_per_sec", symbol="D", pools=pools)
    k = result.value("total_ops_per_sec", symbol="K", pools=pools)
    # Paper shape: at growing pool counts D clearly outruns K (2.3x at 8).
    assert d > k, "fileserver: D %.0f !> K %.0f ops/s" % (d, k)
    # D's aggregate throughput grows with pools.
    d_single = result.value("total_ops_per_sec", symbol="D", pools=1)
    assert d > d_single
    # K leaves much more time in kernel lock waits.
    k_wait = result.value("kernel_lock_wait_s", symbol="K", pools=pools)
    d_wait = result.value("kernel_lock_wait_s", symbol="D", pools=pools)
    assert k_wait > d_wait

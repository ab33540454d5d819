"""Fig. 9: Seqwrite (top) and Seqread (bottom) at pool scaleout."""


def test_fig9_seqwrite(once, figure):
    experiment = figure(
        "fig9w", {"symbol": ["D", "F", "K"], "pools": [1, 4]}, mode="write"
    )
    result = once(experiment.run)
    print()
    print(result.report())
    pools = max(result.column("pools"))
    d = result.value("throughput_mb_s", symbol="D", pools=pools)
    f = result.value("throughput_mb_s", symbol="F", pools=pools)
    k = result.value("throughput_mb_s", symbol="K", pools=pools)
    # Paper shape: D and F beat K on sequential writes (up to 2.8x).
    assert d > k, "seqwrite: D %.1f !> K %.1f MB/s" % (d, k)
    assert f > k * 0.8
    # K's kernel lock wait dwarfs the user-level clients'.
    k_wait = result.value("kernel_lock_wait_s", symbol="K", pools=pools)
    d_wait = result.value("kernel_lock_wait_s", symbol="D", pools=pools)
    assert k_wait > d_wait


def test_fig9_seqread(once, figure):
    experiment = figure(
        "fig9r", {"symbol": ["D", "F", "K"], "pools": [1, 4]}, mode="read"
    )
    result = once(experiment.run)
    print()
    print(result.report())
    pools = min(result.column("pools"))
    d = result.value("throughput_mb_s", symbol="D", pools=pools)
    f = result.value("throughput_mb_s", symbol="F", pools=pools)
    k = result.value("throughput_mb_s", symbol="K", pools=pools)
    # Paper shape: cached reads — K beats D (client_lock, up to 37%),
    # D beats F (up to 75%).
    assert k > d, "seqread: K %.1f !> D %.1f MB/s" % (k, d)
    assert d > f, "seqread: D %.1f !> F %.1f MB/s" % (d, f)

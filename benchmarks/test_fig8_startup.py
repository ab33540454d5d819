"""Fig. 8: real time and context switches to start N Lighttpd clones."""


def test_fig8_container_startup(once, figure):
    experiment = figure(
        "fig8", {"symbol": ["D", "K/K", "F/K", "F/F"], "containers": [1, 8]}
    )
    result = once(experiment.run)
    print()
    print(result.report())
    count = max(result.column("containers"))
    d = result.value("real_time_s", symbol="D", containers=count)
    kk = result.value("real_time_s", symbol="K/K", containers=count)
    fk = result.value("real_time_s", symbol="F/K", containers=count)
    ff = result.value("real_time_s", symbol="F/F", containers=count)
    # Paper shape (Fig. 8a): the mature kernel path wins startup —
    # K/K fastest, then F/K, and D clearly beats F/F.
    assert kk < d, "startup: K/K %.3fs !< D %.3fs" % (kk, d)
    assert fk < d, "startup: F/K %.3fs !< D %.3fs" % (fk, d)
    assert d < ff, "startup: D %.3fs !< F/F %.3fs" % (d, ff)
    # Fig. 8b: D does several times fewer context switches than F/F.
    d_ctx = result.value("ctx_switches", symbol="D", containers=count)
    ff_ctx = result.value("ctx_switches", symbol="F/F", containers=count)
    assert ff_ctx > 3 * d_ctx, (
        "ctx switches: F/F %d !>> D %d" % (ff_ctx, d_ctx)
    )

"""Fig. 11: Fileappend/Fileread scaleup — timespan and maximum memory."""


def test_fig11a_fileappend(once, figure):
    experiment = figure(
        "fig11a", {"symbol": ["D", "K/K", "F/F", "FP/FP"], "clones": [2, 8]},
        mode="append",
    )
    result = once(experiment.run)
    print()
    print(result.report())
    clones = max(result.column("clones"))
    d = result.value("timespan_s", symbol="D", clones=clones)
    kk = result.value("timespan_s", symbol="K/K", clones=clones)
    ff = result.value("timespan_s", symbol="F/F", clones=clones)
    # Paper shape: D "tends to" the shortest timespan (its 46% edge over
    # K/K appears at 32 containers; at our 8-clone scale D and K/K are
    # close — we assert D stays competitive with K/K and beats F/F).
    assert d < kk * 1.5, "fileappend: D %.3fs vs K/K %.3fs" % (d, kk)
    assert d < ff, "fileappend: D %.3fs !< F/F %.3fs" % (d, ff)
    # Memory: FP/FP's double caching costs far more than D.
    d_mem = result.value("max_memory_mb", symbol="D", clones=clones)
    fpfp_mem = result.value("max_memory_mb", symbol="FP/FP", clones=clones)
    assert fpfp_mem > 1.4 * d_mem
    # Memory grows with the clone count for every config (linear-ish).
    for symbol in ("D", "K/K", "F/F"):
        small = result.value("max_memory_mb", symbol=symbol, clones=2)
        large = result.value("max_memory_mb", symbol=symbol, clones=clones)
        assert large > small


def test_fig11b_fileread(once, figure):
    experiment = figure(
        "fig11b", {"symbol": ["D", "K/K", "F/F", "FP/FP"], "clones": [2, 8]},
        mode="read",
    )
    result = once(experiment.run)
    print()
    print(result.report())
    clones = max(result.column("clones"))
    d = result.value("timespan_s", symbol="D", clones=clones)
    kk = result.value("timespan_s", symbol="K/K", clones=clones)
    ff = result.value("timespan_s", symbol="F/F", clones=clones)
    # Paper shape: the kernel path wins shared sequential reads (1.2-4.9x).
    assert kk < d, "fileread: K/K %.2fs !< D %.2fs" % (kk, d)
    # F/F needs the same memory as D but is slower.
    d_mem = result.value("max_memory_mb", symbol="D", clones=clones)
    ff_mem = result.value("max_memory_mb", symbol="F/F", clones=clones)
    assert abs(ff_mem - d_mem) < 0.6 * max(d_mem, ff_mem)
    assert ff > d, "fileread: F/F %.2fs !> D %.2fs" % (ff, d)
    # FP/FP burns far more memory than D (paper: up to 30x).
    fpfp_mem = result.value("max_memory_mb", symbol="FP/FP", clones=clones)
    assert fpfp_mem > 1.4 * d_mem

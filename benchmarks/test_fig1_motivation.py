"""Fig. 1 (motivation): Fileserver collapses under kernel I/O contention.

Regenerates both panels for the kernel client only (the motivation section
predates Danaus in the paper's narrative):

* Fig. 1a — FLS throughput alone vs colocated with RandomIO, plus the
  utilisation of the (reserved, idle) RandomIO pool cores;
* Fig. 1b — average kernel lock wait/hold time per lock request.
"""


def test_fig1_kernel_contention(once, figure):
    experiment = figure(
        "fig1", {"symbol": ["K"], "n_fls": [1, 3]},
        title="Motivation: kernel core and lock contention",
        expectation=(
            "FLS drops 7.4x (1FLS+RND) / 16.5x (7FLS+RND); RND cores used "
            "87-122% by FLS alone; lock wait grows 2.3x-5.2x."
        ),
        neighbor="RND", duration=3.0,
    )
    result = once(experiment.run)
    print()
    print(result.report())

    for n_fls in (1, 3):
        alone = result.value("fls_ops_per_sec", n_fls=n_fls, neighbor="-")
        coloc = result.value("fls_ops_per_sec", n_fls=n_fls, neighbor="RND")
        # Fig. 1a shape: colocation with RND collapses the kernel client.
        assert coloc < alone / 2, (
            "expected >2x drop for %dFLS, got %.0f -> %.0f"
            % (n_fls, alone, coloc)
        )
    # Fig. 1a line: FLS alone leans on the idle neighbour pool's cores.
    util_alone = result.value("nbr_core_util_pct", n_fls=3, neighbor="-")
    assert util_alone > 10.0
    # Fig. 1b shape: colocation with RND inflates the per-request kernel
    # lock wait (the paper: 2.3x at 1FLS).
    wait_alone = result.value("lock_wait_us", n_fls=1, neighbor="-")
    wait_coloc = result.value("lock_wait_us", n_fls=1, neighbor="RND")
    assert wait_coloc > wait_alone, (
        "lock wait: 1FLS+RND %.3fus !> 1FLS %.3fus" % (wait_coloc, wait_alone)
    )

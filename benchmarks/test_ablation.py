"""Ablations: client_lock granularity, IPC queue placement, cache dedup."""


def test_client_lock_ablation(once, figure):
    experiment = figure("abl-locking")
    result = once(experiment.run)
    print()
    print(result.report())

    def per_file(column, locking):
        return result.value(column, locking=locking, sharing="per-file")

    coarse = per_file("throughput_mb_s", "global")
    fine = per_file("throughput_mb_s", "inode")
    # The paper's preliminary finding: removing the global lock improves
    # cached-read concurrency.
    assert fine > coarse, (
        "fine-grained %.1f !> coarse %.1f MB/s" % (fine, coarse)
    )
    assert (per_file("client_lock_wait_s", "global")
            > per_file("client_lock_wait_s", "inode"))


def test_cache_dedup_ablation(once, figure):
    experiment = figure("abl-dedup")
    result = once(experiment.run)
    print()
    print(result.report())
    off = result.value("cache_mb", dedup="off")
    on = result.value("cache_mb", dedup="on")
    containers = result.value("containers", dedup="on")
    # N identical roots collapse to ~one cached copy.
    assert on < off / (containers - 1)
    assert result.value("saved_mb", dedup="on") > 0


def test_ipc_queue_ablation(once, figure):
    experiment = figure("abl-ipc")
    result = once(experiment.run)
    print()
    print(result.report())
    single = result.value("nr_queues", queues="single")
    grouped = result.value("nr_queues", queues="per-core-group")
    assert single == 1
    assert grouped > 1
    # Per-group queues must not be slower, and threads get pinned.
    single_tp = result.value("throughput_mb_s", queues="single")
    grouped_tp = result.value("throughput_mb_s", queues="per-core-group")
    assert grouped_tp > 0.8 * single_tp
    assert result.value("threads_pinned", queues="per-core-group") > 0

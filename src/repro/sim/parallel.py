"""Fan independent simulation tasks over a fork pool, merged in order.

Every experiment builds a self-contained world per sweep cell and
seed, so cells never exchange events and can run in separate OS
processes: the sweep runner (``repro.experiments.runner``) hands
:func:`map_tasks` one task per (seed, cell). It returns the results in
declared task order, which makes the merged record byte-identical to
the inline run — provided a task's result depends on nothing the host
process did before it (a forked worker inherits the parent's module
state, the inline run has advanced it), which is why counters such as
pids live on the ``Simulator``, not in module globals. Pure stdlib
(``multiprocessing`` with the ``fork`` start method); task callables,
arguments and results must pickle.
"""

import os
import time

__all__ = ["map_tasks"]


def _call_task(fn, kwargs):
    started = time.perf_counter()
    value = fn(**kwargs)
    return value, time.perf_counter() - started, os.getpid()


def map_tasks(tasks, workers=0, pool=None):
    """Run independent simulation tasks, in order, optionally in parallel.

    ``tasks`` is ``[(label, fn, kwargs), ...]`` where each ``fn`` is a
    module-level callable building and running its own simulation (one
    sweep cell of one seed per task). Results always come back in task
    order, so the merged output is byte-identical to the inline run.

    Returns ``(values, rows)`` where ``rows`` are per-task rows
    (``partition`` label, ``wall_s``, ``worker`` pid, ``mode``) for the
    run record's ``partitions`` table. ``workers <= 1`` (or a single
    task) runs inline; otherwise a ``fork`` process pool is used (pass
    ``pool`` to reuse one across calls). A task that raises propagates
    its exception without waiting for the tasks behind it: an owned
    pool is terminated, not drained (a caller-supplied pool is left
    alone).
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        values, rows = [], []
        for label, fn, kwargs in tasks:
            value, wall, pid = _call_task(fn, kwargs)
            values.append(value)
            rows.append({"partition": label, "wall_s": wall, "worker": pid,
                         "mode": "inline"})
        return values, rows
    import multiprocessing

    owned = None
    if pool is None:
        ctx = multiprocessing.get_context("fork")
        owned = pool = ctx.Pool(processes=min(workers, len(tasks)))
    try:
        handles = [
            pool.apply_async(_call_task, (fn, kwargs))
            for _label, fn, kwargs in tasks
        ]
        values, rows = [], []
        for (label, _fn, _kwargs), handle in zip(tasks, handles):
            value, wall, pid = handle.get()
            values.append(value)
            rows.append({"partition": label, "wall_s": wall, "worker": pid,
                         "mode": "fork"})
        return values, rows
    finally:
        # Every result has been fetched on the success path, so there is
        # nothing to drain; on error, draining would hold the exception
        # back until every remaining task had run to completion.
        if owned is not None:
            owned.terminate()
            owned.join()

"""``map_tasks``: independent simulations fanned over a fork pool.

The merged result must equal the inline run (task order, values), a
failing task must surface at once, and the ``sim`` package it lives in
must stay importable without the layers above it.
"""

import os
import subprocess
import sys
import time

import pytest

import repro
from repro.sim import Simulator
from repro.sim.parallel import map_tasks


def _square_task(value):
    return value * value


def _sim_task(seed):
    """A small real simulation per task (one machine's worth of work)."""
    sim = Simulator()
    log = []

    def proc(tag):
        for step in range(5):
            yield sim.timeout(0.001 * ((seed + tag + step) % 7 + 1))
            log.append((tag, step, sim.now))

    for tag in range(3):
        sim.spawn(proc(tag))
    sim.run()
    return log


class _TaskBoom(Exception):
    pass


def _raising_task():
    raise _TaskBoom("task failed")


def _sleeping_task(seconds):
    time.sleep(seconds)
    return seconds


class TestMapTasks:
    def test_inline_preserves_order(self):
        values, rows = map_tasks(
            [("t%d" % i, _square_task, {"value": i}) for i in range(5)],
            workers=1,
        )
        assert values == [0, 1, 4, 9, 16]
        assert [row["partition"] for row in rows] == \
            ["t%d" % i for i in range(5)]
        assert all(row["mode"] == "inline" for row in rows)

    def test_fork_matches_inline(self):
        tasks = [("s%d" % seed, _sim_task, {"seed": seed})
                 for seed in range(6)]
        inline_values, _ = map_tasks(tasks, workers=1)
        fork_values, rows = map_tasks(tasks, workers=3)
        assert fork_values == inline_values
        assert all(row["mode"] == "fork" for row in rows)

    def test_single_task_runs_inline_even_with_workers(self):
        values, rows = map_tasks(
            [("only", _square_task, {"value": 7})], workers=4,
        )
        assert values == [49]
        assert rows[0]["mode"] == "inline"

    def test_failing_task_is_not_hidden_behind_a_long_one(self):
        long_s = 3.0
        started = time.perf_counter()
        with pytest.raises(_TaskBoom):
            map_tasks(
                [("boom", _raising_task, {}),
                 ("long", _sleeping_task, {"seconds": long_s})],
                workers=2,
            )
        assert time.perf_counter() - started < long_s / 2


def test_sim_package_imports_without_the_network_layer():
    """``repro.sim`` sits below ``repro.net``; importing it must not
    pull the fabric in. The top-level package is stubbed so that its
    ``__init__`` (which imports the whole world) does not run."""
    src = os.path.dirname(repro.__file__)
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('repro'); pkg.__path__ = [%r]\n"
        "sys.modules['repro'] = pkg\n"
        "import repro.sim\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.net')))\n"
        % src
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

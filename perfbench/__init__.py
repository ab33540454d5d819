"""``perfbench`` — the repo's benchmark of record (see ``README.md``).

Two clocks on four reference workloads: what a run costs the *host*
(user CPU seconds, peak RSS, set-up) and what the *simulated* client
stack delivers (throughput in the unit of the workload's paper figure),
plus one traced run per workload for per-layer attribution on both
clocks. Everything is measured from outside, around calls into the
public row-level entry points of ``repro``; no file under ``src/`` knows
this package exists.

The driver side (``__main__``, ``driver``, ``compare``, ``workloads``)
never imports ``repro``: it only spawns ``python -m perfbench.worker``
subprocesses, so ``compare`` works on result files alone and the
driver's own memory never becomes the floor of a worker's peak RSS.
"""

import os

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where the package under test lives; workers get it on ``PYTHONPATH``.
SRC_ROOT = os.path.join(REPO_ROOT, "src")

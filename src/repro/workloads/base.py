"""Workload scaffolding: threads, duration control, result collection.

Each workload mirrors one generator from the paper's Table 2. A workload
binds to a mounted filesystem and a container pool, spawns its worker
threads (pool-confined), runs for a fixed duration or amount of work, and
reports ops/s, bytes/s and latency percentiles through a
:class:`WorkloadResult`.
"""

from repro.common.rng import make_rng, pseudo_bytes
from repro.fs.api import WRITE_PIECE
from repro.metrics import Histogram

__all__ = ["WorkloadResult", "Workload"]


class WorkloadResult(object):
    """Outcome of one workload instance."""

    def __init__(self, name):
        self.name = name
        self.ops = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.latency = Histogram("latency")
        self.started_at = None
        self.finished_at = None
        self.errors = 0

    @property
    def duration(self):
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def ops_per_sec(self):
        return self.ops / self.duration if self.duration > 0 else 0.0

    @property
    def bytes_per_sec(self):
        total = self.bytes_read + self.bytes_written
        return total / self.duration if self.duration > 0 else 0.0

    def __repr__(self):
        return "<WorkloadResult %s ops=%d %.1f ops/s>" % (
            self.name, self.ops, self.ops_per_sec,
        )


class Workload(object):
    """Base class: spawn workers, bound the run, collect results."""

    name = "workload"

    def __init__(self, fs, pool, duration=None, threads=1, seed=0):
        self.fs = fs
        self.pool = pool
        self.sim = pool.sim
        self.duration = duration
        self.threads = threads
        self.seed = seed
        self.result = WorkloadResult(self.name)
        self._deadline = None

    # -- subclass hooks -----------------------------------------------------

    def setup(self, task):
        """One-time preparation (dataset population). Sim generator."""
        return
        yield  # pragma: no cover

    def worker(self, task, worker_id, rng):
        """The per-thread loop. Sim generator."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- driver ----------------------------------------------------------------

    @property
    def expired(self):
        """True once the workload's duration budget is exhausted."""
        return self._deadline is not None and self.sim.now >= self._deadline

    def timed_op(self, gen):
        """Run one operation, recording its latency; returns its value."""
        start = self.sim.now
        value = yield from gen
        self.result.latency.observe(self.sim.now - start)
        self.result.ops += 1
        return value

    def run(self):
        """Execute setup then all workers; sim generator returning the result."""
        setup_task = self.pool.new_task("%s.setup" % self.name)
        yield from self.setup(setup_task)
        self.result.started_at = self.sim.now
        if self.duration is not None:
            self._deadline = self.sim.now + self.duration
        workers = []
        for worker_id in range(self.threads):
            task = self.pool.new_task("%s.w%d" % (self.name, worker_id))
            rng = make_rng(self.seed, self.name, self.pool.name, worker_id)
            workers.append(
                self.sim.spawn(
                    self.worker(task, worker_id, rng),
                    name="%s.w%d" % (self.name, worker_id),
                )
            )
        if workers:
            yield self.sim.all_of(workers)
        self.result.finished_at = self.sim.now
        return self.result

    def start(self):
        """Spawn :meth:`run` as a process (for colocated workloads)."""
        return self.sim.spawn(self.run(), name=self.name)

    # -- helpers ---------------------------------------------------------------

    def payload(self, size, tag):
        """Deterministic file contents of ``size`` bytes."""
        return pseudo_bytes(size, (self.seed, self.name, tag))

    def fill(self, task, path, size, tag, sync=False):
        """``fs.write_file(task, path, payload(size, tag), sync)`` out of
        one buffer, the way ``dd`` preallocates: the same calls with the
        same offsets, lengths and bytes, holding one piece of host memory
        instead of ``size``. Returns the sim generator.

        Exact because ``payload`` repeats every ``PSEUDO_BLOCK`` bytes
        and ``WRITE_PIECE`` is defined as a whole number of those blocks:
        every piece ``write_file`` would slice starts on a block boundary,
        so each full piece equals the first and the tail is a prefix of it.
        """
        piece = self.payload(min(size, WRITE_PIECE), tag)
        whole, rest = divmod(size, WRITE_PIECE)
        pieces = [piece] * whole
        if rest:
            pieces.append(piece[:rest])
        return self.fs.write_pieces(task, path, pieces, sync=sync)

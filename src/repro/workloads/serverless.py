"""Serverless function invocations over per-tenant storage (§9).

The paper proposes "to explore the applicability of the Danaus client in
per-tenant storage provisioning for serverless function computations".
This workload models that setting:

* each tenant owns a set of *functions* (handler code deployed on the
  tenant's root filesystem);
* a **cold** invocation loads the handler through the kernel-initiated
  path (exec/mmap — Danaus's legacy FUSE endpoint), then reads its input
  and writes its result;
* a **warm** invocation reuses the loaded sandbox and only performs the
  input/output I/O plus compute.

The interesting metric is invocation latency — especially its tail under
noisy neighbours, where per-tenant user-level clients should keep
functions steady while a kernel-shared client lets the neighbour in.
"""

from repro.metrics import Histogram
from repro.workloads.base import Workload

__all__ = ["ServerlessTenant"]


class ServerlessTenant(Workload):
    """One tenant invoking its functions cold and warm."""

    name = "serverless"

    def __init__(self, mount, pool, duration=5.0, threads=2, n_functions=4,
                 handler_size=48 * 1024, state_size=16 * 1024,
                 compute_cpu=0.0005, warm_fraction=0.7, seed=0):
        super().__init__(mount.fs, pool, duration=duration, threads=threads,
                         seed=seed)
        self.mount = mount
        self.n_functions = n_functions
        self.handler_size = handler_size
        self.state_size = state_size
        self.compute_cpu = compute_cpu
        self.warm_fraction = warm_fraction
        self.cold_latency = Histogram("cold")
        self.warm_latency = Histogram("warm")
        self._loaded = set()  # warm sandboxes (function ids)

    def _handler_path(self, function_id):
        return "/functions/f%02d/handler.bin" % function_id

    def setup(self, task):
        yield from self.fs.makedirs(task, "/functions")
        yield from self.fs.makedirs(task, "/invocations")
        for function_id in range(self.n_functions):
            yield from self.fs.makedirs(task, "/functions/f%02d" % function_id)
            yield from self.fs.write_file(
                task, self._handler_path(function_id),
                self.payload(self.handler_size, ("handler", function_id)),
            )

    def _invoke(self, task, worker_id, function_id, rng, sequence):
        started = self.sim.now
        cold = function_id not in self._loaded
        if cold:
            # Sandbox start: the runtime execs the handler binary, which
            # is kernel-initiated I/O (the Danaus legacy path).
            yield from self.mount.exec_read(task, self._handler_path(function_id))
            self._loaded.add(function_id)
        # Input fetch, compute, result store — the user-level path.
        input_path = "/functions/f%02d/handler.bin" % function_id
        handle = yield from self.fs.open(task, input_path)
        try:
            yield from self.fs.read(task, handle, 0, self.state_size)
        finally:
            yield from self.fs.close(task, handle)
        yield from task.cpu(self.compute_cpu)
        result = self.payload(self.state_size, ("result", worker_id, sequence))
        yield from self.fs.write_file(
            task, "/invocations/w%02d-%06d" % (worker_id, sequence), result
        )
        elapsed = self.sim.now - started
        (self.cold_latency if cold else self.warm_latency).observe(elapsed)
        self.result.bytes_written += self.state_size

    def worker(self, task, worker_id, rng):
        sequence = 0
        while not self.expired:
            function_id = rng.randrange(self.n_functions)
            if rng.random() > self.warm_fraction:
                self._loaded.discard(function_id)  # sandbox evicted
            yield from self.timed_op(
                self._invoke(task, worker_id, function_id, rng, sequence)
            )
            sequence += 1

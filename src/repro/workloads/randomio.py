"""Stress-ng RandomIO (RND): the paper's noisy-neighbour generator.

Two threads issue 512-byte random reads and writes (with readahead
enabled) against a 1 GB file on local ext4/RAID-0. Its damage mechanism —
demonstrated in Fig. 1 — is indirect: the random writes keep the kernel's
*shared* flusher threads busy against slow positioning-bound disks, the
readahead floods the *shared* page cache, and the op stream hammers the
*shared* kernel locks. A kernel-served neighbour collapses; Danaus does
not care.
"""

from repro.fs.api import OpenFlags
from repro.workloads.base import Workload

__all__ = ["RandomIO"]


class RandomIO(Workload):
    """512-byte random read/write mix over one preallocated file."""

    name = "randomio"

    def __init__(self, fs, pool, duration=20.0, threads=2,
                 file_size=32 * 1024 * 1024, iosize=512, write_fraction=0.5,
                 seed=0, path="/rndfile", batch_cpu=0.0):
        super().__init__(fs, pool, duration=duration, threads=threads, seed=seed)
        self.file_size = file_size
        self.iosize = iosize
        self.write_fraction = write_fraction
        self.path = path
        # Coarsening knob: stress-ng's submission loop keeps its cores at
        # ~100% issuing hundreds of thousands of tiny syscalls per second.
        # The simulator cannot afford one event per real syscall, so each
        # simulated I/O represents a batch and charges ``batch_cpu``
        # seconds of CPU for the loop work it stands in for.
        self.batch_cpu = batch_cpu

    def setup(self, task):
        yield from self.fill(
            task, self.path, self.file_size, "prealloc", sync=True
        )

    def worker(self, task, worker_id, rng):
        handle = yield from self.fs.open(task, self.path, OpenFlags.RDWR)
        block = self.payload(self.iosize, ("w", worker_id))
        try:
            while not self.expired:
                if self.batch_cpu > 0:
                    yield from task.cpu(self.batch_cpu)
                offset = rng.randrange(0, self.file_size - self.iosize)
                if rng.random() < self.write_fraction:
                    yield from self.timed_op(
                        self.fs.write(task, handle, offset, block)
                    )
                    self.result.bytes_written += self.iosize
                else:
                    data = yield from self.timed_op(
                        self.fs.read(task, handle, offset, self.iosize)
                    )
                    self.result.bytes_read += len(data)
        finally:
            yield from self.fs.close(task, handle)

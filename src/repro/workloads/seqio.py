"""Filebench Singlestreamwrite/Singlestreamread (Seqwrite/Seqread).

Sequential streaming I/O: every thread owns one file and moves through it
in ``iosize`` chunks. Seqwrite exercises the whole path from application
to backend servers (dirty buffering, flushing, network, OSDs); Seqread —
after a warm-up pass — exercises the *local* path to the client cache,
which is where the user-level client's global ``client_lock`` shows up
(Fig. 9 bottom).
"""

from repro.fs.api import OpenFlags
from repro.workloads.base import Workload

__all__ = ["Seqwrite", "Seqread"]


class Seqwrite(Workload):
    """Each thread streams sequential writes into its own file."""

    name = "seqwrite"

    def __init__(self, fs, pool, duration=20.0, threads=4,
                 file_size=8 * 1024 * 1024, iosize=1 << 20, seed=0,
                 directory="/seq"):
        super().__init__(fs, pool, duration=duration, threads=threads, seed=seed)
        self.file_size = file_size
        self.iosize = iosize
        self.directory = directory

    def setup(self, task):
        yield from self.fs.makedirs(task, self.directory)

    def worker(self, task, worker_id, rng):
        path = "%s/w%02d" % (self.directory, worker_id)
        handle = yield from self.fs.open(
            task, path, OpenFlags.CREAT | OpenFlags.WRONLY | OpenFlags.TRUNC
        )
        chunk = self.payload(self.iosize, worker_id)
        offset = 0
        try:
            while not self.expired:
                yield from self.timed_op(
                    self.fs.write(task, handle, offset, chunk)
                )
                self.result.bytes_written += len(chunk)
                offset += len(chunk)
                if offset >= self.file_size:
                    # Wrap: overwrite from the start (steady streaming).
                    offset = 0
        finally:
            yield from self.fs.close(task, handle)


class Seqread(Workload):
    """Each thread streams sequential reads of its own (cached) file."""

    name = "seqread"

    def __init__(self, fs, pool, duration=20.0, threads=4,
                 file_size=8 * 1024 * 1024, iosize=1 << 20, seed=0,
                 directory="/seq", warm_cache=True, shared_file=False):
        super().__init__(fs, pool, duration=duration, threads=threads, seed=seed)
        self.file_size = file_size
        self.iosize = iosize
        self.directory = directory
        self.warm_cache = warm_cache
        #: all threads stream one hot file (staggered start offsets)
        #: instead of one file each — per-inode locking degenerates to a
        #: single lock again, which is what range locking addresses
        self.shared_file = shared_file

    def _path(self, worker_id):
        return "%s/r%02d" % (self.directory,
                             0 if self.shared_file else worker_id)

    def setup(self, task):
        yield from self.fs.makedirs(task, self.directory)
        n_files = 1 if self.shared_file else self.threads
        for worker_id in range(n_files):
            path = "%s/r%02d" % (self.directory, worker_id)
            yield from self.fill(
                task, path, self.file_size, worker_id, sync=True
            )
            if self.warm_cache:
                yield from self.fs.read_file(task, path)

    def worker(self, task, worker_id, rng):
        path = self._path(worker_id)
        handle = yield from self.fs.open(task, path)
        offset = 0
        if self.shared_file and self.threads:
            # Stagger start offsets (iosize-aligned) so the threads sweep
            # disjoint regions of the shared file most of the time.
            offset = (worker_id * (self.file_size // self.threads)
                      // self.iosize) * self.iosize
        try:
            while not self.expired:
                data = yield from self.timed_op(
                    self.fs.read(task, handle, offset, self.iosize)
                )
                self.result.bytes_read += len(data)
                offset += len(data)
                if offset >= self.file_size or not data:
                    offset = 0
        finally:
            yield from self.fs.close(task, handle)

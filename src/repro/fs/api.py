"""The POSIX-like filesystem interface shared by every layer.

Everything that looks like a filesystem in this reproduction — the local
ext4-like filesystem, the Ceph-like client personalities, the union
filesystem, and the Danaus libservices — implements :class:`Filesystem`.
All operations are *generators* running on the simulation clock: they
consume CPU on the calling task's cores and wait on devices and locks.

The :class:`Task` is the execution context (the calling thread plus its
container pool); passing it explicitly is the simulator's equivalent of
"current process" state.
"""

import enum

from repro.common.errors import InvalidArgument
from repro.common.rng import PSEUDO_BLOCK

__all__ = [
    "OpenFlags", "FileStat", "Task", "FileHandle", "Filesystem", "WRITE_PIECE",
    "O_CREAT", "O_EXCL", "O_TRUNC", "O_APPEND",
]

#: Bytes per ``write`` of :meth:`Filesystem.write_file`. Spelled as a
#: count of ``pseudo_bytes`` blocks because ``Workload.fill`` depends on
#: it being a whole number of them (see there): a piece that is not
#: cannot be written down.
WRITE_PIECE = 16384 * PSEUDO_BLOCK


class OpenFlags(enum.IntFlag):
    """POSIX-style open(2) flags."""

    RDONLY = 0x0
    WRONLY = 0x1
    RDWR = 0x2
    CREAT = 0x40
    EXCL = 0x80
    TRUNC = 0x200
    APPEND = 0x400
    DIRECTORY = 0x10000

    @property
    def wants_write(self):
        return bool(int(self) & _WRITE_BITS)


# The bits the open and write paths test, as plain ints: ``flags &
# OpenFlags.X`` builds an ``IntFlag`` member on every test, ``int(flags) &
# O_X`` is one int operation.
O_CREAT = int(OpenFlags.CREAT)
O_EXCL = int(OpenFlags.EXCL)
O_TRUNC = int(OpenFlags.TRUNC)
O_APPEND = int(OpenFlags.APPEND)
_WRITE_BITS = int(OpenFlags.WRONLY | OpenFlags.RDWR | OpenFlags.APPEND)
#: What :meth:`Filesystem.write_pieces` opens with, built once.
_CREATE_TRUNC = OpenFlags.WRONLY | OpenFlags.CREAT | OpenFlags.TRUNC


class FileStat(object):
    """stat(2) result subset used by the workloads and tests."""

    __slots__ = ("ino", "is_dir", "size", "mtime", "nlink")

    def __init__(self, ino, is_dir, size, mtime, nlink=1):
        self.ino = ino
        self.is_dir = is_dir
        self.size = size
        self.mtime = mtime
        self.nlink = nlink

    def __repr__(self):
        kind = "dir" if self.is_dir else "file"
        return "<FileStat ino=%d %s size=%d>" % (self.ino, kind, self.size)


class Task(object):
    """Execution context of a filesystem request.

    Attributes:
        thread: the :class:`~repro.sim.cpu.SimThread` doing the work.
        pool: the container pool (or None for host tasks); carries the
            cgroup RAM account used for page-cache charging.
        pid: process identifier (distinct library state per process).
            Numbered per simulator, so a world's pids — and anything
            sized by them, like Lighttpd's pid file — do not depend on
            what else ran in the host process.
    """

    __slots__ = ("thread", "pool", "pid")

    def __init__(self, thread, pool=None, pid=None):
        self.thread = thread
        self.pool = pool
        if pid is None:
            sim = thread.sim
            pid = sim.next_pid
            sim.next_pid = pid + 1
        self.pid = pid

    def cpu(self, seconds):
        """Consume ``seconds`` of CPU on this task's thread.

        Returns the :meth:`SimThread.run` generator directly rather than
        wrapping it — ``yield from task.cpu(x)`` otherwise pays a second
        generator frame on every single CPU charge in the simulation.
        """
        return self.thread.run(seconds)

    def __repr__(self):
        return "<Task pid=%d thread=%s>" % (self.pid, self.thread.name)


class FileHandle(object):
    """An open-file object returned by :meth:`Filesystem.open`.

    Filesystems subclass or wrap this; the base carries the path, the open
    flags and a file position for sequential read/write helpers.
    """

    __slots__ = ("fs", "path", "flags", "pos", "closed")

    def __init__(self, fs, path, flags):
        self.fs = fs
        self.path = path
        self.flags = flags
        self.pos = 0
        self.closed = False

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return "<FileHandle %s %s>" % (self.path, state)


class Filesystem(object):
    """Abstract POSIX-like filesystem; all methods are sim generators.

    Subclasses must implement the primitive operations; the base class
    provides whole-file conveniences on top of them.
    """

    name = "fs"

    # -- primitives (must be overridden) --------------------------------

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        """Open (optionally creating) ``path``; returns a handle."""
        raise NotImplementedError
        yield  # pragma: no cover

    def close(self, task, handle):
        """Close an open handle."""
        raise NotImplementedError
        yield  # pragma: no cover

    def read(self, task, handle, offset, size):
        """Read up to ``size`` bytes at ``offset``; returns bytes."""
        raise NotImplementedError
        yield  # pragma: no cover

    def write(self, task, handle, offset, data):
        """Write ``data`` at ``offset``; returns bytes written."""
        raise NotImplementedError
        yield  # pragma: no cover

    def fsync(self, task, handle):
        """Flush dirty state of the file to stable storage."""
        raise NotImplementedError
        yield  # pragma: no cover

    def stat(self, task, path):
        """Return a :class:`FileStat` for ``path``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def mkdir(self, task, path, mode=0o755):
        raise NotImplementedError
        yield  # pragma: no cover

    def rmdir(self, task, path):
        raise NotImplementedError
        yield  # pragma: no cover

    def unlink(self, task, path):
        raise NotImplementedError
        yield  # pragma: no cover

    def readdir(self, task, path):
        """List entry names of the directory at ``path``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def rename(self, task, old_path, new_path):
        raise NotImplementedError
        yield  # pragma: no cover

    def truncate(self, task, path, size):
        raise NotImplementedError
        yield  # pragma: no cover

    def peek(self, path, offset, size):
        """Zero-cost read of resident data, or None when unsupported.

        Used by caching layers above (the kernel page cache over FUSE) to
        serve *cache hits* without paying the backend's simulated cost: a
        hit means the bytes were already fetched and paid for once. Not a
        sim generator — it must never consume simulated time.
        """
        return None

    # -- conveniences -----------------------------------------------------

    def exists(self, task, path):
        """True when ``path`` resolves (sim generator)."""
        from repro.common.errors import FsError

        try:
            yield from self.stat(task, path)
        except FsError:
            return False
        return True

    def read_file(self, task, path, chunk=1 << 20):
        """Open, read fully in ``chunk`` pieces, close; returns bytes."""
        handle = yield from self.open(task, path, OpenFlags.RDONLY)
        try:
            parts = []
            offset = 0
            while True:
                data = yield from self.read(task, handle, offset, chunk)
                if not data:
                    break
                parts.append(data)
                offset += len(data)
            return b"".join(parts)
        finally:
            yield from self.close(task, handle)

    def write_file(self, task, path, data, sync=False):
        """Create/overwrite ``path`` with ``data`` in ``WRITE_PIECE`` pieces.

        Not a generator itself: it hands back the generator of
        :meth:`write_pieces`, so the ``yield from`` chain every resume
        walks is no deeper for the indirection.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise InvalidArgument("write_file needs bytes")
        # Payloads travel by reference below this call, so a mutable
        # input is snapshotted once here; each piece is then one
        # ``bytes`` slice (a whole-buffer slice is the same object).
        payload = data if type(data) is bytes else bytes(data)
        pieces = (
            payload[offset:offset + WRITE_PIECE]
            for offset in range(0, len(payload), WRITE_PIECE)
        )
        return self.write_pieces(task, path, pieces, sync=sync)

    def write_pieces(self, task, path, pieces, sync=False):
        """Create/overwrite ``path`` with the buffers of ``pieces``, one
        ``write`` each, back to back; returns the bytes written.

        The body of :meth:`write_file`, for a caller whose pieces are not
        slices of one payload (``Workload.fill`` writes one buffer over
        and over).
        """
        handle = yield from self.open(task, path, _CREATE_TRUNC)
        try:
            offset = 0
            for piece in pieces:
                offset += yield from self.write(task, handle, offset, piece)
            if sync:
                yield from self.fsync(task, handle)
        finally:
            yield from self.close(task, handle)
        return offset

    def makedirs(self, task, path):
        """mkdir -p equivalent."""
        from repro.common.errors import FileExists
        from repro.fs import pathutil

        parts = pathutil.components(path)
        current = "/"
        for part in parts:
            current = pathutil.join(current, part)
            try:
                yield from self.mkdir(task, current)
            except FileExists:
                pass

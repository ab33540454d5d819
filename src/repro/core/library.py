"""The Danaus filesystem library: the preloaded, user-level front driver.

Applications either preload this library (overriding the libc I/O symbols)
or call the ``danaus_``-prefixed functions directly after recompilation —
both paths land here (§3.2). The library keeps per-process state:

* the *mount table* mapping container paths to filesystem services;
* the *library file table*: every Danaus open file gets a private file
  descriptor distinct from the kernel's, so the two descriptor spaces
  never collide (§4.1);
* requests against Danaus mounts travel over shared memory to the
  service (the default user-level path); everything else — unmounted
  paths, or *legacy* operations like ``exec``/``mmap`` whose I/O the
  kernel initiates — falls through to the kernel VFS, where a FUSE
  endpoint of the same service picks them up (the dual interface).
"""

from repro.common.errors import BadFileDescriptor, InvalidArgument
from repro.fs import pathutil
from repro.fs.api import FileHandle, Filesystem, OpenFlags

__all__ = ["FilesystemLibrary"]


class _LibHandle(FileHandle):
    """Application-visible handle carrying the private file descriptor."""

    __slots__ = ("fd",)

    def __init__(self, fs, path, flags, fd):
        super().__init__(fs, path, flags)
        self.fd = fd


class _OpenFile(object):
    """Library file table entry."""

    __slots__ = ("fd", "route", "service", "instance", "inner", "path")

    def __init__(self, fd, route, inner, path, service=None, instance=None):
        self.fd = fd
        self.route = route  # "danaus" | "kernel"
        self.inner = inner  # service handle or VFS handle
        self.path = path
        self.service = service
        self.instance = instance


class FilesystemLibrary(Filesystem):
    """Per-process front driver implementing the POSIX-like file API."""

    name = "danauslib"

    def __init__(self, kernel, name="lib"):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.lib_name = name
        self.mounts = {}  # mountpoint -> (service, instance)
        self.files = {}  # fd -> _OpenFile
        self._next_fd = 1 << 16  # far above any kernel descriptor
        self.metrics = self.sim.metrics("lib:%s" % name)

    # -- mount table -----------------------------------------------------

    def attach(self, mountpoint, service, instance):
        """Record that ``mountpoint`` is served by a Danaus service."""
        self.mounts[pathutil.normalize(mountpoint)] = (service, instance)

    def detach(self, mountpoint):
        self.mounts.pop(pathutil.normalize(mountpoint), None)

    def resolve(self, path):
        """Longest-prefix Danaus mount lookup; None means kernel path."""
        path = pathutil.normalize(path)
        best = None
        best_len = -1
        for mountpoint, target in self.mounts.items():
            if pathutil.is_ancestor(mountpoint, path) and len(mountpoint) > best_len:
                best = (mountpoint,) + target
                best_len = len(mountpoint)
        if best is None:
            return None
        mountpoint, service, instance = best
        return service, instance, pathutil.relative_to(mountpoint, path)

    def _alloc_fd(self, entry_args):
        fd = self._next_fd
        self._next_fd += 1
        entry = _OpenFile(fd, *entry_args)
        self.files[fd] = entry
        return entry

    def _entry(self, handle):
        if not isinstance(handle, _LibHandle) or handle.closed:
            raise BadFileDescriptor(path=getattr(handle, "path", None))
        entry = self.files.get(handle.fd)
        if entry is None:
            raise BadFileDescriptor(path=handle.path)
        return entry

    # -- Filesystem interface (the overridden libc calls) ---------------------

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        resolved = self.resolve(path)
        if resolved is None:
            inner = yield from self.kernel.vfs.open(task, path, flags, mode)
            entry = self._alloc_fd(("kernel", inner, path))
        else:
            service, instance, inner_path = resolved
            inner = yield from service.call(
                task, instance, "open", (inner_path, flags, mode)
            )
            entry = self._alloc_fd(("danaus", inner, path, service, instance))
            self.metrics.counter("danaus_opens").add(1)
        return _LibHandle(self, path, flags, entry.fd)

    def close(self, task, handle):
        entry = self._entry(handle)
        if entry.route == "danaus":
            yield from entry.service.call(
                task, entry.instance, "close", (entry.inner,)
            )
        else:
            yield from self.kernel.vfs.close(task, entry.inner)
        del self.files[entry.fd]
        handle.closed = True

    # read and write are not generators themselves: they hand back the
    # service's or the VFS's, so the chain every resume of a data request
    # walks is one frame shorter.

    def read(self, task, handle, offset, size):
        entry = self._entry(handle)
        if entry.route == "danaus":
            return entry.service.call(
                task, entry.instance, "read",
                (entry.inner, offset, size), payload_in=size,
            )
        return self.kernel.vfs.read(task, entry.inner, offset, size)

    def write(self, task, handle, offset, data):
        entry = self._entry(handle)
        if entry.route == "danaus":
            return entry.service.call(
                task, entry.instance, "write",
                (entry.inner, offset, data), payload_out=len(data),
            )
        return self.kernel.vfs.write(task, entry.inner, offset, data)

    def fsync(self, task, handle):
        entry = self._entry(handle)
        if entry.route == "danaus":
            yield from entry.service.call(
                task, entry.instance, "fsync", (entry.inner,)
            )
        else:
            yield from self.kernel.vfs.fsync(task, entry.inner)

    def _path_op(self, task, op, path, *args, payload_in=0):
        resolved = self.resolve(path)
        if resolved is None:
            handler = getattr(self.kernel.vfs, op)
            return (yield from handler(task, path, *args))
        service, instance, inner_path = resolved
        return (
            yield from service.call(
                task, instance, op, (inner_path,) + args,
                payload_in=payload_in,
            )
        )

    def stat(self, task, path):
        return (yield from self._path_op(task, "stat", path))

    def mkdir(self, task, path, mode=0o755):
        return (yield from self._path_op(task, "mkdir", path, mode))

    def rmdir(self, task, path):
        return (yield from self._path_op(task, "rmdir", path))

    def unlink(self, task, path):
        return (yield from self._path_op(task, "unlink", path))

    def readdir(self, task, path):
        return (yield from self._path_op(task, "readdir", path, payload_in=4096))

    def truncate(self, task, path, size):
        return (yield from self._path_op(task, "truncate", path, size))

    def rename(self, task, old_path, new_path):
        resolved_old = self.resolve(old_path)
        resolved_new = self.resolve(new_path)
        if resolved_old is None and resolved_new is None:
            return (yield from self.kernel.vfs.rename(task, old_path, new_path))
        if resolved_old is None or resolved_new is None:
            from repro.common.errors import CrossDevice

            raise CrossDevice(path=new_path)
        service, instance, inner_old = resolved_old
        other_service, other_instance, inner_new = resolved_new
        if instance is not other_instance:
            from repro.common.errors import CrossDevice

            raise CrossDevice(path=new_path)
        yield from service.call(
            task, instance, "rename", (inner_old, inner_new)
        )

    # -- pipes and directory streams (§4.1) ------------------------------------------

    def pipe(self, capacity=None):
        """Create a user-level pipe; returns ``(read_handle, write_handle)``.

        Both descriptors live in the library file table like regular open
        files; the data path is pure shared memory — no kernel involved.
        """
        from repro.core.streams import PIPE_BUF_DEFAULT, LibraryPipe

        pipe = LibraryPipe(
            self.sim, capacity or PIPE_BUF_DEFAULT,
            name="%s.pipe%d" % (self.lib_name, self._next_fd),
        )
        read_entry = self._alloc_fd(("pipe-read", pipe, "<pipe>"))
        write_entry = self._alloc_fd(("pipe-write", pipe, "<pipe>"))
        read_handle = _LibHandle(self, "<pipe>", OpenFlags.RDONLY, read_entry.fd)
        write_handle = _LibHandle(self, "<pipe>", OpenFlags.WRONLY, write_entry.fd)
        self.metrics.counter("pipes").add(1)
        return read_handle, write_handle

    def pipe_read(self, task, handle, size):
        """Read from a pipe descriptor (blocks until data or EOF)."""
        entry = self._entry(handle)
        if entry.route != "pipe-read":
            raise InvalidArgument("not a pipe read end")
        yield from task.cpu(self.costs.ipc_queue_op)
        data = yield from entry.inner.read(task, size)
        return data

    def pipe_write(self, task, handle, data):
        """Write to a pipe descriptor (blocks while the buffer is full)."""
        entry = self._entry(handle)
        if entry.route != "pipe-write":
            raise InvalidArgument("not a pipe write end")
        yield from task.cpu(
            self.costs.ipc_queue_op + self.costs.copy_cost(len(data))
        )
        return (yield from entry.inner.write(task, data))

    def pipe_close(self, handle):
        """Close one pipe end (EOF for readers / EPIPE for writers)."""
        entry = self._entry(handle)
        if entry.route == "pipe-read":
            entry.inner.close_read()
        elif entry.route == "pipe-write":
            entry.inner.close_write()
        else:
            raise InvalidArgument("not a pipe descriptor")
        del self.files[entry.fd]
        handle.closed = True

    def opendir(self, task, path):
        """Open a directory stream; returns a library handle."""
        from repro.core.streams import DirStream

        entries = yield from self.readdir(task, path)
        stream = DirStream(self, path, entries)
        entry = self._alloc_fd(("dir", stream, path))
        return _LibHandle(self, path, OpenFlags.DIRECTORY, entry.fd)

    def readdir_next(self, task, handle):
        """Next directory entry name, or None at end (sim generator)."""
        entry = self._entry(handle)
        if entry.route != "dir":
            raise InvalidArgument("not a directory stream")
        yield from task.cpu(self.costs.dirent_op)
        return entry.inner.next_entry()

    def rewinddir(self, handle):
        entry = self._entry(handle)
        if entry.route != "dir":
            raise InvalidArgument("not a directory stream")
        entry.inner.rewind()

    def closedir(self, handle):
        entry = self._entry(handle)
        if entry.route != "dir":
            raise InvalidArgument("not a directory stream")
        entry.inner.close()
        del self.files[entry.fd]
        handle.closed = True

    # -- legacy (kernel-initiated) I/O ----------------------------------------------

    def exec_read(self, task, path):
        """exec(2): the kernel loads the binary — always the kernel path.

        On a Danaus mount this lands on the FUSE endpoint of the same
        filesystem service (Fig. 2's dedicated FUSE threads); Lighttpd
        startup (Fig. 8) is dominated by exactly this traffic.
        """
        self.metrics.counter("legacy_reads").add(1)
        return (yield from self.kernel.vfs.read_file(task, path))

    # Recompiled applications call the danaus_-prefixed symbols directly;
    # they are the same entry points.
    danaus_open = open
    danaus_close = close
    danaus_read = read
    danaus_write = write
    danaus_fsync = fsync
    danaus_stat = stat

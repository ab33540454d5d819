"""Union filesystem: stacked branches with file-level copy-on-write.

The semantics follow Unionfs/unionfs-fuse, which both AUFS and the Danaus
union libservice derive from (§4.3):

* branches are ordered top-first; only the top branch is writable;
* a lookup walks from the top and stops at the first branch containing the
  file *or a whiteout* marking it deleted;
* writing a file that lives in a lower branch first copies the whole file
  up to the top branch (the paper notes Danaus "does not prevent the
  copy-on-write of entire files" — Fileappend's 50/50 read/write mix in
  Fig. 11a is exactly this);
* deleting a lower-branch file creates a whiteout entry in the top branch;
* readdir merges entries of all branches, hiding whiteouts and duplicates.

The union holds **no cache and no inodes of its own**: it interacts with
the branch filesystems through plain function calls at file level (§3.3),
so a shared lower branch is cached once in the shared backend client.
"""

from repro.common.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    ReadOnlyFilesystem,
)
from repro.fs import pathutil
from repro.fs.api import (
    O_CREAT, O_EXCL, O_TRUNC, FileHandle, Filesystem, OpenFlags,
)

__all__ = ["Branch", "UnionFs", "WHITEOUT_PREFIX"]

WHITEOUT_PREFIX = ".wh."


class Branch(object):
    """One branch: a filesystem subtree, writable or read-only."""

    __slots__ = ("fs", "root", "writable")

    def __init__(self, fs, root="/", writable=False):
        self.fs = fs
        self.root = pathutil.normalize(root)
        self.writable = writable

    def map_path(self, path):
        """Translate a union path into this branch's namespace."""
        return pathutil.join(self.root, path.lstrip("/")) if path != "/" else self.root

    def whiteout_path(self, path):
        parent, name = pathutil.split(path)
        return self.map_path(pathutil.join(parent, WHITEOUT_PREFIX + name))

    def __repr__(self):
        mode = "rw" if self.writable else "ro"
        return "<Branch %s %s on %s>" % (self.root, mode, self.fs.name)


class _UnionHandle(FileHandle):
    __slots__ = ("branch", "inner")

    def __init__(self, fs, path, flags, branch, inner):
        super().__init__(fs, path, flags)
        self.branch = branch
        self.inner = inner


class UnionFs(Filesystem):
    """A stack of branches exposed as one filesystem."""

    def __init__(self, sim, costs, branches, name="union"):
        if not branches:
            raise InvalidArgument("union needs at least one branch")
        if not branches[0].writable and len(branches) > 1:
            raise InvalidArgument("the top branch must be the writable one")
        self.sim = sim
        self.costs = costs
        self.branches = list(branches)
        self.name = name
        self.metrics = sim.metrics(name)

    @property
    def top(self):
        return self.branches[0]

    # -- lookup across branches --------------------------------------------

    def _branch_cpu(self, task, visited):
        yield from task.cpu(self.costs.union_branch_op * max(visited, 1))

    def _find(self, task, path):
        """Locate ``path``: returns ``(branch, mapped_path)`` or raises.

        Walking stops at the first branch holding the entry or a whiteout.
        """
        visited = 0
        for branch in self.branches:
            visited += 1
            if branch.writable:
                whiteout = yield from branch.fs.exists(
                    task, branch.whiteout_path(path)
                )
                if whiteout:
                    yield from self._branch_cpu(task, visited)
                    raise FileNotFound(path=path)
            present = yield from branch.fs.exists(task, branch.map_path(path))
            if present:
                yield from self._branch_cpu(task, visited)
                return branch, branch.map_path(path)
        yield from self._branch_cpu(task, visited)
        raise FileNotFound(path=path)

    def _try_find(self, task, path):
        try:
            result = yield from self._find(task, path)
            return result
        except FileNotFound:
            return None

    # -- copy-up -----------------------------------------------------------------

    def _copy_up(self, task, path, source_branch):
        """Copy a whole file from a lower branch into the top branch."""
        top = self.top
        if not top.writable:
            raise ReadOnlyFilesystem(path=path)
        yield from top.fs.makedirs(task, pathutil.parent_of(top.map_path(path)))
        data = yield from source_branch.fs.read_file(
            task, source_branch.map_path(path)
        )
        yield from top.fs.write_file(task, top.map_path(path), data)
        self.metrics.counter("copy_ups").add(1)
        self.metrics.counter("copy_up_bytes").add(len(data))

    def _clear_whiteout(self, task, path):
        top = self.top
        whiteout = top.whiteout_path(path)
        present = yield from top.fs.exists(task, whiteout)
        if present:
            yield from top.fs.unlink(task, whiteout)

    # -- Filesystem interface ---------------------------------------------------------

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        path = pathutil.normalize(path)
        bits = int(flags)
        found = yield from self._try_find(task, path)
        if found is None:
            if not bits & O_CREAT:
                raise FileNotFound(path=path)
            top = self.top
            if not top.writable:
                raise ReadOnlyFilesystem(path=path)
            yield from self._clear_whiteout(task, path)
            yield from top.fs.makedirs(task, pathutil.parent_of(top.map_path(path)))
            inner = yield from top.fs.open(task, top.map_path(path), flags, mode)
            return _UnionHandle(self, path, flags, top, inner)
        branch, mapped = found
        if bits & O_EXCL and bits & O_CREAT:
            raise FileExists(path=path)
        if flags.wants_write and not branch.writable:
            stat = yield from branch.fs.stat(task, mapped)
            if stat.is_dir:
                raise IsADirectory(path=path)
            if not bits & O_TRUNC:
                yield from self._copy_up(task, path, branch)
            else:
                # Truncating: no point copying bytes that are discarded.
                top = self.top
                yield from top.fs.makedirs(
                    task, pathutil.parent_of(top.map_path(path))
                )
                yield from top.fs.write_file(task, top.map_path(path), b"")
            branch = self.top
            mapped = branch.map_path(path)
        inner = yield from branch.fs.open(task, mapped, flags, mode)
        return _UnionHandle(self, path, flags, branch, inner)

    def close(self, task, handle):
        yield from handle.branch.fs.close(task, handle.inner)
        handle.closed = True

    def read(self, task, handle, offset, size):
        return (yield from handle.branch.fs.read(task, handle.inner, offset, size))

    def write(self, task, handle, offset, data):
        if not handle.branch.writable:
            raise ReadOnlyFilesystem(path=handle.path)
        return (yield from handle.branch.fs.write(task, handle.inner, offset, data))

    def fsync(self, task, handle):
        yield from handle.branch.fs.fsync(task, handle.inner)

    def stat(self, task, path):
        branch, mapped = yield from self._find(task, path)
        return (yield from branch.fs.stat(task, mapped))

    def mkdir(self, task, path, mode=0o755):
        path = pathutil.normalize(path)
        found = yield from self._try_find(task, path)
        if found is not None:
            raise FileExists(path=path)
        top = self.top
        if not top.writable:
            raise ReadOnlyFilesystem(path=path)
        yield from self._clear_whiteout(task, path)
        yield from top.fs.makedirs(task, pathutil.parent_of(top.map_path(path)))
        yield from top.fs.mkdir(task, top.map_path(path), mode)

    def rmdir(self, task, path):
        path = pathutil.normalize(path)
        entries = yield from self.readdir(task, path)
        if entries:
            from repro.common.errors import DirectoryNotEmpty

            raise DirectoryNotEmpty(path=path)
        yield from self._remove(task, path, is_dir=True)

    def unlink(self, task, path):
        path = pathutil.normalize(path)
        yield from self._find(task, path)  # ensure it exists
        yield from self._remove(task, path, is_dir=False)

    def _remove(self, task, path, is_dir):
        top = self.top
        if not top.writable:
            raise ReadOnlyFilesystem(path=path)
        in_top = yield from top.fs.exists(task, top.map_path(path))
        if in_top:
            if is_dir:
                yield from top.fs.rmdir(task, top.map_path(path))
            else:
                yield from top.fs.unlink(task, top.map_path(path))
        # If any lower branch still holds the entry, mask it with a whiteout.
        lower_has = False
        for branch in self.branches[1:]:
            present = yield from branch.fs.exists(task, branch.map_path(path))
            if present:
                lower_has = True
                break
        if lower_has:
            yield from top.fs.makedirs(task, pathutil.parent_of(top.map_path(path)))
            yield from top.fs.write_file(task, top.whiteout_path(path), b"")
            self.metrics.counter("whiteouts").add(1)

    def readdir(self, task, path):
        path = pathutil.normalize(path)
        names = []
        seen = set()
        hidden = set()
        found_any = False
        for branch in self.branches:
            mapped = branch.map_path(path)
            present = yield from branch.fs.exists(task, mapped)
            if not present:
                continue
            found_any = True
            entries = yield from branch.fs.readdir(task, mapped)
            for entry in entries:
                if entry.startswith(WHITEOUT_PREFIX):
                    hidden.add(entry[len(WHITEOUT_PREFIX):])
                    continue
                if entry in seen or entry in hidden:
                    continue
                seen.add(entry)
                names.append(entry)
        if not found_any:
            raise FileNotFound(path=path)
        yield from task.cpu(self.costs.dirent_op * max(len(names), 1))
        return sorted(name for name in names if name not in hidden)

    def rename(self, task, old_path, new_path):
        """Rename by copy-up then whiteout (unionfs-fuse behaviour)."""
        old_path = pathutil.normalize(old_path)
        new_path = pathutil.normalize(new_path)
        branch, mapped = yield from self._find(task, old_path)
        top = self.top
        if not top.writable:
            raise ReadOnlyFilesystem(path=old_path)
        if branch is top:
            lower_has = False
            for lower in self.branches[1:]:
                present = yield from lower.fs.exists(task, lower.map_path(old_path))
                if present:
                    lower_has = True
                    break
            yield from self._clear_whiteout(task, new_path)
            yield from top.fs.makedirs(
                task, pathutil.parent_of(top.map_path(new_path))
            )
            yield from top.fs.rename(
                task, top.map_path(old_path), top.map_path(new_path)
            )
            if lower_has:
                yield from top.fs.write_file(task, top.whiteout_path(old_path), b"")
        else:
            data = yield from branch.fs.read_file(task, mapped)
            yield from self._clear_whiteout(task, new_path)
            yield from top.fs.makedirs(
                task, pathutil.parent_of(top.map_path(new_path))
            )
            yield from top.fs.write_file(task, top.map_path(new_path), data)
            yield from top.fs.makedirs(
                task, pathutil.parent_of(top.map_path(old_path))
            )
            yield from top.fs.write_file(task, top.whiteout_path(old_path), b"")
            self.metrics.counter("whiteouts").add(1)

    def peek(self, path, offset, size):
        """Zero-cost resident-data read: first branch that resolves wins."""
        path = pathutil.normalize(path)
        for branch in self.branches:
            if branch.writable:
                if branch.fs.peek(branch.whiteout_path(path), 0, 1) is not None:
                    return None
            data = branch.fs.peek(branch.map_path(path), offset, size)
            if data is not None:
                return data
        return None

    def truncate(self, task, path, size):
        path = pathutil.normalize(path)
        branch, mapped = yield from self._find(task, path)
        if not branch.writable:
            if size > 0:
                yield from self._copy_up(task, path, branch)
            else:
                yield from self.top.fs.makedirs(
                    task, pathutil.parent_of(self.top.map_path(path))
                )
                yield from self.top.fs.write_file(task, self.top.map_path(path), b"")
            branch = self.top
            mapped = branch.map_path(path)
        yield from branch.fs.truncate(task, mapped, size)

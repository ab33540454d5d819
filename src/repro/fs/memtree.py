"""An in-memory namespace tree holding real file contents by reference.

This is the common data substrate of the local ext4-like filesystem and
the Ceph-like metadata server: a tree of :class:`Node` objects (inodes)
with directory children, file byte contents and POSIX-ish semantics for
create/unlink/rename. It is a *pure data structure* — it consumes no
simulated time; the filesystems wrapping it add CPU, lock and device
costs.

A file's bytes live in a :class:`repro.common.chunks.ChunkMap`: every
write is kept as the immutable buffer the writer passed (a mutable one
is snapshotted once on the way in), a read of exactly one whole written
buffer hands that object back, and holes — a write past EOF, a growing
truncate — read as zeros without being materialised. ``size`` and
``MemTree.total_bytes`` count logical bytes, holes included.
"""

from repro.common.chunks import ChunkMap
from repro.common.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.fs import pathutil

__all__ = ["Node", "MemTree"]


class Node(object):
    """One inode: a directory (with children) or a regular file (with data)."""

    __slots__ = (
        "ino",
        "is_dir",
        "children",
        "data",
        "mtime",
        "ctime",
        "nlink",
        "mode",
        "meta_size",
    )

    def __init__(self, ino, is_dir, now=0.0, mode=0o644):
        self.ino = ino
        self.is_dir = is_dir
        self.children = {} if is_dir else None
        self.data = None if is_dir else ChunkMap()
        self.mtime = now
        self.ctime = now
        self.nlink = 2 if is_dir else 1
        self.mode = mode
        # Metadata-only trees (the MDS) track sizes without holding data:
        # when meta_size is set, it overrides len(data).
        self.meta_size = None

    @property
    def size(self):
        if self.is_dir:
            return 0
        if self.meta_size is not None:
            return self.meta_size
        return len(self.data) if self.data is not None else 0

    def read(self, offset, size):
        """Read up to ``size`` bytes at ``offset`` (b'' past EOF)."""
        if self.is_dir:
            raise IsADirectory()
        if offset < 0 or size < 0:
            raise InvalidArgument("negative offset/size")
        return self.data.read(offset, size)

    def write(self, offset, data):
        """Write ``data`` at ``offset``; a gap before it reads as zeros."""
        if self.is_dir:
            raise IsADirectory()
        self.data.write(offset, data)
        return len(data)

    def truncate(self, size):
        if self.is_dir:
            raise IsADirectory()
        if size < 0:
            raise InvalidArgument("negative truncate size")
        if size <= len(self.data):
            self.data.truncate(size)
        else:
            self.data.write(size, b"")


class MemTree(object):
    """A rooted tree of :class:`Node` objects addressed by absolute path."""

    def __init__(self):
        self._next_ino = 2
        self.root = Node(1, is_dir=True)
        self.total_bytes = 0  # sum of file data sizes, for space reports

    def _alloc_ino(self):
        ino = self._next_ino
        self._next_ino += 1
        return ino

    def _use_ino(self, ino):
        """Take a caller-pinned inode number (journal replay must recreate
        nodes under their original inos) or allocate a fresh one."""
        if ino is None:
            return self._alloc_ino()
        if ino >= self._next_ino:
            self._next_ino = ino + 1
        return ino

    # -- lookup -----------------------------------------------------------

    def lookup(self, path):
        """Resolve ``path`` to its :class:`Node` or raise FileNotFound."""
        node = self.root
        for part in pathutil.components(path):
            if not node.is_dir:
                raise NotADirectory(path=path)
            child = node.children.get(part)
            if child is None:
                raise FileNotFound(path=path)
            node = child
        return node

    def try_lookup(self, path):
        """Like :meth:`lookup` but returns None when missing."""
        try:
            return self.lookup(path)
        except (FileNotFound, NotADirectory):
            return None

    def lookup_dir(self, path):
        node = self.lookup(path)
        if not node.is_dir:
            raise NotADirectory(path=path)
        return node

    # -- preconditions -----------------------------------------------------
    #
    # Each mutator's checks, once: the mutators below run them, and the
    # MDS runs them before it journals (a doomed mutation never reaches
    # its journal). They return what the mutator needs and change nothing.

    def check_create(self, path, exclusive=False):
        """``(parent, name, existing)``: ``existing`` is the regular file
        already at ``path``, or None."""
        parent_path, name = pathutil.split(path)
        if not name:
            raise InvalidArgument("cannot create root")
        parent = self.lookup_dir(parent_path)
        existing = parent.children.get(name)
        if existing is not None:
            if exclusive:
                raise FileExists(path=path)
            if existing.is_dir:
                raise IsADirectory(path=path)
        return parent, name, existing

    def check_mkdir(self, path):
        """``(parent, name)`` of a directory that may be made at ``path``."""
        parent_path, name = pathutil.split(path)
        if not name:
            raise FileExists(path="/")
        parent = self.lookup_dir(parent_path)
        if name in parent.children:
            raise FileExists(path=path)
        return parent, name

    def check_rmdir(self, path):
        """``(parent, name)`` of the empty directory at ``path``."""
        parent_path, name = pathutil.split(path)
        if not name:
            raise InvalidArgument("cannot remove root")
        parent = self.lookup_dir(parent_path)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFound(path=path)
        if not node.is_dir:
            raise NotADirectory(path=path)
        if node.children:
            raise DirectoryNotEmpty(path=path)
        return parent, name

    def check_unlink(self, path):
        """``(parent, name, node)`` of the regular file at ``path``."""
        node = self.lookup(path)
        if node.is_dir:
            raise IsADirectory(path=path)
        parent_path, name = pathutil.split(path)
        return self.lookup(parent_path), name, node

    def check_rename(self, old_path, new_path):
        """``(old_parent, old_name, new_parent, new_name, target)``:
        ``target`` is the entry the rename replaces, or None."""
        old_parent_path, old_name = pathutil.split(old_path)
        new_parent_path, new_name = pathutil.split(new_path)
        if not old_name or not new_name:
            raise InvalidArgument("cannot rename the root")
        if pathutil.is_ancestor(old_path, new_path) and old_path != new_path:
            raise InvalidArgument("cannot move a directory under itself")
        old_parent = self.lookup_dir(old_parent_path)
        node = old_parent.children.get(old_name)
        if node is None:
            raise FileNotFound(path=old_path)
        new_parent = self.lookup_dir(new_parent_path)
        target = new_parent.children.get(new_name)
        if target is not None:
            if target.is_dir and not node.is_dir:
                raise IsADirectory(path=new_path)
            if not target.is_dir and node.is_dir:
                raise NotADirectory(path=new_path)
            if target.is_dir and target.children:
                raise DirectoryNotEmpty(path=new_path)
        return old_parent, old_name, new_parent, new_name, target

    # -- mutation ----------------------------------------------------------

    def create_file(self, path, now=0.0, exclusive=False, mode=0o644, ino=None):
        """Create a regular file; returns the node (existing one unless
        ``exclusive``)."""
        parent, name, existing = self.check_create(path, exclusive)
        if existing is not None:
            return existing
        node = Node(self._use_ino(ino), is_dir=False, now=now, mode=mode)
        parent.children[name] = node
        parent.mtime = now
        return node

    def mkdir(self, path, now=0.0, mode=0o755, ino=None):
        parent, name = self.check_mkdir(path)
        node = Node(self._use_ino(ino), is_dir=True, now=now, mode=mode)
        parent.children[name] = node
        parent.nlink += 1
        parent.mtime = now
        return node

    def makedirs(self, path, now=0.0):
        """mkdir -p; returns the leaf directory node."""
        current = "/"
        node = self.root
        for part in pathutil.components(path):
            current = pathutil.join(current, part)
            child = node.children.get(part)
            if child is None:
                child = self.mkdir(current, now=now)
            elif not child.is_dir:
                raise NotADirectory(path=current)
            node = child
        return node

    def unlink(self, path, now=0.0):
        """Remove a regular file; returns the freed byte count."""
        parent, name, node = self.check_unlink(path)
        freed = node.size
        self.total_bytes -= freed
        del parent.children[name]
        parent.mtime = now
        return freed

    def rmdir(self, path, now=0.0):
        parent, name = self.check_rmdir(path)
        del parent.children[name]
        parent.nlink -= 1
        parent.mtime = now

    def rename(self, old_path, new_path, now=0.0):
        old_parent, old_name, new_parent, new_name, target = (
            self.check_rename(old_path, new_path)
        )
        if target is not None and not target.is_dir:
            self.total_bytes -= target.size
        new_parent.children[new_name] = old_parent.children.pop(old_name)
        old_parent.mtime = now
        new_parent.mtime = now

    def readdir(self, path):
        """Sorted entry names of the directory at ``path``."""
        return sorted(self.lookup_dir(path).children.keys())

    # -- data, with space accounting ---------------------------------------

    def write_node(self, node, offset, data, now=0.0):
        """Write through a node, keeping ``total_bytes`` consistent."""
        before = node.size
        written = node.write(offset, data)
        self.total_bytes += node.size - before
        node.mtime = now
        return written

    def truncate_node(self, node, size, now=0.0):
        before = node.size
        node.truncate(size)
        self.total_bytes += node.size - before
        node.mtime = now

    def walk(self, path="/"):
        """Yield ``(path, node)`` for the subtree rooted at ``path``."""
        start = self.lookup(path)
        stack = [(pathutil.normalize(path), start)]
        while stack:
            current_path, node = stack.pop()
            yield current_path, node
            if node.is_dir:
                for name in sorted(node.children, reverse=True):
                    stack.append(
                        (pathutil.join(current_path, name), node.children[name])
                    )

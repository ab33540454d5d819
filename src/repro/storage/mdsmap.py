"""MdsMap: epoch-versioned metadata-rank assignment (the OsdMap analogue).

Where the OsdMap tells clients which OSDs hold an object, the MdsMap
tells them which MDS daemon serves a namespace operation: the directory
tree is hash-partitioned over ``num_ranks`` *ranks*, each rank is filled
by one daemon gid, and spare daemons wait in the standby pool tailing
the active ranks' journals (standby-replay). The Monitor publishes a new
immutable snapshot on every membership change — failover, rank split,
daemon rejoin — and bumps ``epoch``; daemons holding a newer epoch
reject ops stamped with an older one (EOLDEPOCH fencing for metadata),
which is what keeps a deposed active from serving after its standby took
over.

Routing is by *directory*: the rank that owns directory ``d`` serves
``readdir(d)`` and every entry mutation inside ``d`` (create, unlink,
rename-from, lookup of a child), so one directory's entries are always
journaled by a single rank. Inode-addressed ops (caps) hash the ino
instead. With one rank every op maps to rank 0 and the
hash never runs.
"""

import zlib

from repro.fs import pathutil

__all__ = ["MdsMap"]

#: ops routed by the directory argument itself (its entries' owner)
_DIR_OPS = frozenset(("readdir",))

#: ops routed by an inode number (first positional argument)
_INO_OPS = frozenset(("caps_conflicts", "caps_commit"))


class MdsMap(object):
    """Immutable snapshot of the metadata-rank assignment."""

    __slots__ = ("epoch", "ranks", "standbys", "session_epoch")

    def __init__(self, epoch, ranks, standbys, session_epoch=1):
        self.epoch = epoch
        #: rank index -> daemon gid serving it
        self.ranks = tuple(ranks)
        #: spare daemon gids (standby-replay pool)
        self.standbys = tuple(standbys)
        #: bumps on every failover; clients reestablish sessions past it
        self.session_epoch = session_epoch

    @property
    def num_ranks(self):
        return len(self.ranks)

    def gid_of(self, rank):
        return self.ranks[rank]

    def rank_of_dir(self, dirpath):
        """The rank owning directory ``dirpath`` (and its entries)."""
        if len(self.ranks) == 1:
            return 0
        key = pathutil.normalize(dirpath).encode("utf-8")
        return zlib.crc32(key) % len(self.ranks)

    def rank_of_path(self, path):
        """The rank serving ops on the entry at ``path``."""
        return self.rank_of_dir(pathutil.parent_of(path))

    def rank_of_ino(self, ino):
        """The rank serving inode-addressed ops (caps) on ``ino``."""
        if len(self.ranks) == 1:
            return 0
        return ino % len(self.ranks)

    def rank_for(self, op_name, args):
        """Route one MDS op (by name + positional args) to its rank."""
        if len(self.ranks) == 1:
            return 0
        if op_name in _INO_OPS:
            return self.rank_of_ino(args[0])
        if op_name in _DIR_OPS:
            return self.rank_of_dir(args[0])
        # Path ops route by the entry's parent directory; rename routes by
        # the source path so the op lands where the dentry is journaled.
        return self.rank_of_path(args[0])

    def __repr__(self):
        return "<MdsMap epoch=%d ranks=%r standbys=%r>" % (
            self.epoch, self.ranks, self.standbys,
        )

"""The CephFS mount: one protocol engine under both client personalities.

:class:`CephMount` is the only place that knows what a CephFS mount says
to the cluster — which MDS op a namespace call becomes, how mutations are
stamped for exactly-once resends, what the attribute cache remembers
(negative dentries included), when the locally known file size outranks
the MDS's, and how a flushed size is published and re-sent after an MDS
outage. *Where* that protocol runs is the personality's business, and the
paper's D-vs-K comparison is exactly that difference: the user-level
client (:mod:`repro.cephclient.client`) pays client CPU under its own
locks and flushes from pool-pinned threads; the kernel client
(:mod:`repro.cephclient.kernelfs`) pays VFS CPU under shared kernel locks
and is flushed by the host's writeback daemon.

Both personalities keep unflushed bytes, dirty and in flight, in the
mount's :class:`~repro.cephclient.extents.WritebackBuffer`
(``self.unflushed``); an unlink drains it before the purge.

A personality supplies ``read``/``write``/``fsync`` with their cache and
flush machinery, and this fixed set of hooks (sim generators may yield;
the others must not):

* ``_enter(task, op, path)`` — generator: the CPU charge and lock
  sections an op pays before its MDS call.
* ``_truncate_data(task, ino, size, cut)`` — generator: with flushes of
  ``ino`` kept out, cut cached and buffered data to ``size`` and set the
  local size under the personality's own lock section, then run ``cut``
  (the MDS op that cuts the stored objects; None when it already ran)
  and return its result. Only the flush mutex may be held across it.
* ``_forget(ino)`` — drop every per-inode entry the personality holds
  (unlink).
* ``_gathers_caps()`` — optional: True when ``_opened`` takes
  capabilities and refetches the attributes; an O_TRUNC cut then rides
  on that refetch (:meth:`CephMount._truncating`), after the gather.
* ``_opened(task, path, info, flags)`` — generator, optional: runs after
  a successful open (capabilities).

The base never asks which personality it serves: no type test, no
probing for attributes — a behaviour that differs is a hook.
"""

from repro.cephclient.extents import WritebackBuffer
from repro.common.errors import (
    RETRYABLE,
    BadFileDescriptor,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
)
from repro.fs import pathutil
from repro.fs.api import (
    O_CREAT, O_EXCL, O_TRUNC, FileHandle, FileStat, Filesystem, OpenFlags,
)

__all__ = ["CephHandle", "CephMount"]

#: Sentinel for cached negative lookups (the dentry cache caches ENOENT
#: too — without it every union whiteout probe would be an MDS round
#: trip). Negatives are invalidated by local creates/renames; remote
#: creates become visible through open()'s revalidation, matching the
#: close-to-open consistency of §3.4.
_NEGATIVE = object()


class CephHandle(FileHandle):
    __slots__ = ("ino",)

    def __init__(self, fs, path, flags, ino):
        super().__init__(fs, path, flags)
        self.ino = ino


class CephMount(Filesystem):
    """Protocol half of a CephFS mount; see the module docstring."""

    def __init__(self, sim, cluster, costs, name, unflushed=None):
        self.sim = sim
        self.cluster = cluster
        self.costs = costs
        self.name = name
        #: this mount's view of the osdmap epoch — kept current by a
        #: monitor subscription (the MON -> client map push; the cluster
        #: stamps the actual data-path ops with its own snapshot)
        self.osdmap_epoch = cluster.monitor.epoch
        cluster.monitor.subscribe(self._on_osdmap)
        self.attr_cache = {}  # path -> InodeInfo (sizes kept current locally)
        self._sizes = {}  # ino -> local authoritative size
        self._paths = {}  # ino -> path (for size flush to the MDS)
        #: ino -> count of size resends owed to the MDS; while non-zero the
        #: local size stays authoritative, as it does while a flush is in
        #: flight (the Fw-caps analogue of "dirty").
        self._size_flushing = {}
        #: the write-back buffer (a personality may hand in its own)
        self.unflushed = unflushed or WritebackBuffer(sim)
        self.metrics = sim.metrics(name)
        #: the caps-mode registration, when the personality makes one
        self.client_id = None
        #: exactly-once metadata stamps (session id allocated lazily)
        self._mds_session_id = None
        self._mds_op_seq = 0

    def _on_osdmap(self, osdmap):
        """Monitor pushed a new osdmap (membership/CRUSH change)."""
        self.osdmap_epoch = osdmap.epoch

    # -- personality hooks ------------------------------------------------

    def _enter(self, task, op, path):
        raise NotImplementedError
        yield  # pragma: no cover

    def _truncate_data(self, task, ino, size, cut):
        raise NotImplementedError
        yield  # pragma: no cover

    def _forget(self, ino):
        raise NotImplementedError

    def _gathers_caps(self):
        return False

    def _opened(self, task, path, info, flags):
        """Returns the attributes the open goes on with."""
        return info
        yield  # pragma: no cover

    # -- MDS protocol -----------------------------------------------------

    def _mds_op_ids(self):
        """Stamps for one mutating metadata op (exactly-once resends).

        Every mutation carries a ``(client_id, op_id)`` pair. With the
        MDS journal attached it lands in the journal record: a
        post-failover resend of the same op dedups against the replayed
        op-id table instead of re-running, so rename/create/unlink apply
        exactly once. The pair is built once per logical op — the
        cluster retry loop reuses it across resends, which is the whole
        point.
        """
        if self._mds_session_id is None:
            self._mds_session_id = (
                self.client_id if self.client_id is not None
                else self.cluster.mds_session_id()
            )
        self._mds_op_seq += 1
        return {"client_id": self._mds_session_id,
                "op_id": self._mds_op_seq}

    def _mutate(self, op, *args, **kwargs):
        """One stamped mutating MDS op (the ``mds_call`` generator)."""
        kwargs.update(self._mds_op_ids())
        return self.cluster.mds_call(op, *args, **kwargs)

    def _cached_ino(self, path):
        """The inode this mount knows ``path`` by, or None."""
        info = self.attr_cache.get(path)
        return None if info is None or info is _NEGATIVE else info.ino

    def _truncating(self, task, path, size, op, ino):
        """One truncating MDS op and the local cut; returns the attrs.

        ``op`` is the stamped generator of the op (a ``create`` or
        ``setattr_size`` with ``truncate=True``): the MDS cuts the
        stored objects as part of it. When this mount knows the file's
        inode (``ino``) the local cut goes first and the personality
        runs the op inside it, so none of its in-flight bytes lands past
        the cut. An inode learnt only from the reply is cut locally
        after it.
        """
        if ino is None:
            info = yield from op
        else:
            info = yield from self._truncate_data(task, ino, size, op)
        if info.ino != ino:
            yield from self._truncate_data(task, info.ino, size, None)
        return info

    def _lookup(self, path):
        """Fetch attributes from the MDS; ENOENT is cached as negative."""
        try:
            return (yield from self.cluster.mds_call("lookup", path))
        except FileNotFound:
            self.attr_cache[path] = _NEGATIVE
            raise

    # -- attributes and the local size --------------------------------------

    def _remember(self, path, info):
        self.attr_cache[path] = info
        self._paths[info.ino] = path
        if info.ino not in self._sizes \
                or not self._size_authoritative(info.ino):
            self._sizes[info.ino] = info.size

    def _size_pin(self, ino):
        self._size_flushing[ino] = self._size_flushing.get(ino, 0) + 1

    def _size_authoritative(self, ino):
        """True while our local size must not be displaced by MDS attrs:
        dirty data buffered, a flush in flight, or a size resend pending."""
        return ino in self.unflushed or ino in self._size_flushing

    def _local_size(self, ino, fallback=0):
        return self._sizes.get(ino, fallback)

    def _file_size(self, ino, fallback=0):
        """The length reads see: the local size, or the end of the
        unflushed bytes where they reach past it."""
        return max(self._sizes.get(ino, fallback), self.unflushed.max_end(ino))

    def _publish_size(self, path, size):
        """Tell the MDS a file's length; the generator returns its attrs."""
        return self._mutate("setattr_size", path, size)

    def _publish_flushed_size(self, ino):
        """Publish the local size once a flush's bytes have landed.

        Returns ``(path, attrs)`` as the MDS recorded them, or None when
        nothing landed. What to do with them is the caller's decision
        (it knows which lock it holds); nothing is remembered here.
        """
        path = self._paths.get(ino)
        if path is None:
            return None
        try:
            info = yield from self._publish_size(path, self._local_size(ino))
        except FileNotFound:
            return None  # concurrently unlinked
        except RETRYABLE:
            # MDS unreachable: resend the size in the background so a
            # later revalidating open never sees a stale length.
            self.metrics.counter("size_flush_failures").add(1)
            self._size_pin(ino)  # released by _resend_size
            self.sim.spawn(
                self._resend_size(ino), name="%s.size-resend" % self.name
            )
            return None
        return path, info

    def _resend_size(self, ino):
        """Background retry of a failed MDS size flush (no CPU cost)."""
        try:
            delay = self.costs.retry_backoff
            for _ in range(self.costs.retry_attempts):
                yield delay
                delay = min(delay * 2.0, self.costs.retry_backoff_max)
                path = self._paths.get(ino)
                if path is None:
                    return
                try:
                    info = yield from self._publish_size(
                        path, self._local_size(ino)
                    )
                except FileNotFound:
                    return
                except RETRYABLE:
                    continue
                self._remember(path, info)
                return
        finally:
            count = self._size_flushing.pop(ino, 0) - 1
            if count > 0:
                self._size_flushing[ino] = count

    # -- Filesystem interface -----------------------------------------------

    def open(self, task, path, flags=OpenFlags.RDONLY, mode=0o644):
        path = pathutil.normalize(path)
        bits = int(flags)
        create = bool(bits & O_CREAT)
        exclusive = bool(bits & O_EXCL)
        yield from self._enter(task, "create" if create else "open", path)
        # O_TRUNC rides on the MDS op that answers the open — unless the
        # open gathers caps first: then on _opened's attribute refetch.
        truncate = bool(bits & O_TRUNC) and not self._gathers_caps()
        if truncate and create:
            # O_EXCL succeeds only on a new file: nothing to cut first.
            info = yield from self._truncating(
                task, path, 0,
                self._mutate("create", path, exclusive, mode, truncate=True),
                None if exclusive else self._cached_ino(path),
            )
        elif truncate:
            info = yield from self._truncating(
                task, path, 0,
                self._mutate("setattr_size", path, 0, truncate=True),
                self._cached_ino(path),
            )
        elif create:
            info = yield from self._mutate("create", path, exclusive, mode)
        else:
            # Close-to-open consistency: revalidate attributes at the MDS.
            info = yield from self._lookup(path)
        if info.is_dir and (flags.wants_write or bits & O_TRUNC):
            raise IsADirectory(path=path)
        self._remember(path, info)
        info = yield from self._opened(task, path, info, flags)
        self.metrics.counter("opens").add(1)
        return CephHandle(self, path, flags, info.ino)

    def close(self, task, handle):
        yield from self._enter(task, "close", handle.path)
        handle.closed = True

    def stat(self, task, path):
        path = pathutil.normalize(path)
        yield from self._enter(task, "stat", path)
        info = self.attr_cache.get(path)
        if info is _NEGATIVE:
            raise FileNotFound(path=path)
        if info is None:
            info = yield from self._lookup(path)
            self._remember(path, info)
        size = self._local_size(info.ino, info.size)
        return FileStat(info.ino, info.is_dir, size, info.mtime, info.nlink)

    def mkdir(self, task, path, mode=0o755):
        yield from self._enter(task, "mkdir", path)
        info = yield from self._mutate("mkdir", path, mode)
        self._remember(pathutil.normalize(path), info)

    def rmdir(self, task, path):
        yield from self._enter(task, "rmdir", path)
        yield from self._mutate("rmdir", path)
        self.attr_cache[pathutil.normalize(path)] = _NEGATIVE

    def unlink(self, task, path):
        path = pathutil.normalize(path)
        yield from self._enter(task, "unlink", path)
        ino, _size = yield from self._mutate("unlink", path)
        yield from self.unflushed.drain(ino)
        self.cluster.purge(ino)
        self._forget(ino)
        self.unflushed.forget(ino)
        self.attr_cache[path] = _NEGATIVE
        self._sizes.pop(ino, None)
        self._paths.pop(ino, None)
        self._size_flushing.pop(ino, None)
        self.metrics.counter("unlinks").add(1)

    def readdir(self, task, path):
        yield from self._enter(task, "readdir", path)
        names = yield from self.cluster.mds_call("readdir", path)
        yield from task.cpu(self.costs.dirent_op * max(len(names), 1))
        return names

    def rename(self, task, old_path, new_path):
        old_path = pathutil.normalize(old_path)
        new_path = pathutil.normalize(new_path)
        yield from self._enter(task, "rename", old_path)
        yield from self._mutate("rename", old_path, new_path)
        info = self.attr_cache.get(old_path)
        self.attr_cache[old_path] = _NEGATIVE
        if info is not None and info is not _NEGATIVE:
            self._remember(new_path, info)

    def truncate(self, task, path, size):
        path = pathutil.normalize(path)
        info = yield from self._truncating(
            task, path, size,
            self._mutate("setattr_size", path, size, truncate=True),
            self._cached_ino(path),
        )
        self._remember(path, info)

    def peek(self, path, offset, size):
        """Zero-cost resident-data read (see Filesystem.peek)."""
        info = self.attr_cache.get(pathutil.normalize(path))
        if info is None or info is _NEGATIVE or info.is_dir:
            return None
        ino = info.ino
        file_size = self._file_size(ino, info.size)
        if offset >= file_size:
            return b""
        size = min(size, file_size - offset)
        base = self.cluster.peek(ino, offset, size)
        return self.unflushed.overlay(ino, offset, size, base)[:size]

    def _live_ino(self, handle):
        if handle.closed:
            raise BadFileDescriptor(path=handle.path)
        if handle.fs is not self:
            raise InvalidArgument("foreign handle %r" % (handle,))
        return handle.ino

"""One readahead pipeline for every personality that fronts a cache.

The user-level Ceph client, the kernel Ceph client and the local
ext4-like filesystem detect sequential streams the same way (the next
read starts exactly where the last one ended) and widen cache misses to
a readahead window the same way (:func:`plan_fetch`, :func:`next_window`).

:class:`Readahead` is the pipelining protocol, written once per mount: it
owns each file's stream position and at most one detached next-window
prefetch in flight per file. A demand read that reaches a window still
in flight *joins* that prefetch and rescans instead of fetching twice; a
read that continued its stream launches the next window detached, so the
reader copies one window out while the next one travels. Prefetch
failures (``FsError``, a killed thread) are swallowed — the demand path
refetches; anything else surfaces.

The personality's own costs sit behind three hooks:

* ``scan(task, key, offset, size, hits)`` — generator: the missing
  ``(offset, size)`` ranges, or None when the file is gone; a reader
  (``task``; None when detached) pays for cached pages beyond ``hits``.
* ``fill(task, key, offset, size, sequential, owner)`` — generator:
  fetch, receive cost and insert of one range (``task`` None: detached;
  ``owner``: the reader whose memory account pays). It inserts only into
  the cache entry live when it started, and only while that still is.
* ``size(key)`` — the current size a detached miss is clamped to.

:meth:`Readahead.forget` sits wherever a personality drops its cache of a
file, so the stream starts over there. LocalFs uses only the stream
position; its widening stays synchronous.
"""

from repro.common.errors import FsError, ThreadKilled

__all__ = ["READAHEAD_BYTES", "plan_fetch", "next_window", "Readahead"]

#: the readahead window every personality uses (Linux's default 128 KiB)
READAHEAD_BYTES = 128 * 1024


def plan_fetch(miss_offset, miss_size, file_size, sequential):
    """Bytes to fetch for one cache miss, readahead included.

    A sequential stream widens the miss to at least
    :data:`READAHEAD_BYTES`; the result is clamped so a widened fetch
    never runs past EOF (but a miss that itself overhangs the known size
    is fetched as asked — the caller's size view may trail buffered
    appends).
    """
    fetch = miss_size
    if sequential:
        fetch = max(miss_size, READAHEAD_BYTES)
    return min(fetch, max(file_size - miss_offset, miss_size))


def next_window(end_offset, file_size):
    """The ``(offset, size)`` window to prefetch after a read ending at
    ``end_offset``, or ``None`` when there is nothing ahead to fetch."""
    if end_offset >= file_size:
        return None
    return end_offset, min(READAHEAD_BYTES, file_size - end_offset)


class Readahead(object):
    """One mount's stream positions and pipelined readahead (module doc)."""

    def __init__(self, sim, name, scan=None, fill=None, size=None):
        self.sim = sim
        self.name = "%s.readahead" % name
        self._scan = scan
        self._fill = fill
        self._size = size
        self._ends = {}  # key -> end offset of the last read
        self._inflight = {}  # key -> detached prefetch Process

    def sequential(self, key, offset):
        """True when a read at ``offset`` continues ``key``'s stream."""
        return offset == self._ends.get(key, 0)

    def fetch(self, task, key, offset, size, file_size, sequential, hits, misses):
        """Generator: bring the ``misses`` of one demand read into the
        cache (``hits`` cached pages already charged to ``task``)."""
        if sequential and key in self._inflight:
            # The previous read's prefetch covers (part of) this window
            # and is still travelling: adopt it instead of issuing a
            # duplicate fetch, then rescan for whatever remains missing.
            yield self._inflight[key]
            misses = yield from self._scan(task, key, offset, size, hits)
        fill = self._fill
        for miss_offset, miss_size in misses or ():
            fetch = plan_fetch(miss_offset, miss_size, file_size, sequential)
            yield from fill(task, key, miss_offset, fetch, sequential, task)

    def advance(self, key, end, sequential=False, file_size=0, owner=None):
        """Record that a read of ``key`` ended at ``end``. A read that
        continued its stream launches the next window (within
        ``file_size``) as a detached prefetch on behalf of ``owner``;
        while one is in flight for ``key`` no second one starts."""
        self._ends[key] = end
        if sequential and key not in self._inflight:
            window = next_window(end, file_size)
            if window is not None:
                cell = []
                proc = self.sim.spawn(
                    self._detached(owner, key, window[0], window[1], cell),
                    name=self.name,
                )
                cell.append(proc)
                self._inflight[key] = proc

    def _detached(self, owner, key, offset, size, cell):
        """The detached body: fetch what the window still misses, each
        miss clamped to the file's current size."""
        try:
            misses = yield from self._scan(None, key, offset, size, 0)
            for miss_offset, miss_size in misses or ():
                miss_size = min(miss_size, self._size(key) - miss_offset)
                if miss_size > 0:
                    yield from self._fill(
                        None, key, miss_offset, miss_size, True, owner
                    )
        except (FsError, ThreadKilled):
            pass  # advisory: the demand path refetches what this missed
        finally:
            if self._inflight.get(key) is cell[0]:
                del self._inflight[key]

    def forget(self, key):
        """Reset ``key``'s stream and drop its registry entry; a prefetch
        still running carries on, and its fill's liveness check decides
        whether it still inserts."""
        self._ends.pop(key, None)
        self._inflight.pop(key, None)

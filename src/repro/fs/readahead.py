"""Shared sequential-detection and readahead planning.

Every personality that fronts a cache — the user-level Ceph client, the
kernel Ceph client and the local ext4-like filesystem — detects
sequential streams the same way (the next read starts exactly where the
last one ended) and widens cache misses to a readahead window the same
way. The arithmetic lives here once; the personalities keep only their
own cost accounting around it.

:class:`Prefetcher` adds the pipelining half: a registry of detached
next-window prefetch processes, at most one in flight per key, so a
sequential reader can copy out the current window while the next one is
already travelling. Prefetches are advisory — failures are swallowed
(the demand path refetches) and a consumer that reaches a window still
in flight *joins* the existing fetch instead of issuing its own.
"""

__all__ = ["READAHEAD_BYTES", "plan_fetch", "next_window", "Prefetcher"]

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


class Prefetcher(object):
    """At most one detached prefetch process in flight per key."""

    def __init__(self, sim):
        self.sim = sim
        self._inflight = {}  # key -> Process

    def active(self, key):
        return key in self._inflight

    def launch(self, key, gen, name="readahead"):
        """Spawn ``gen`` detached under ``key``; no-op while one runs."""
        if key in self._inflight:
            return None
        cell = []
        proc = self.sim.spawn(self._guard(key, gen, cell), name=name)
        cell.append(proc)
        self._inflight[key] = proc
        return proc

    def _guard(self, key, gen, cell):
        try:
            yield from gen
        except Exception:
            pass  # advisory: the demand path refetches what this missed
        finally:
            if cell and self._inflight.get(key) is cell[0]:
                del self._inflight[key]

    def join(self, key):
        """Generator: wait out an in-flight prefetch of ``key`` (no-op
        when idle; never raises — the guard folds failures)."""
        proc = self._inflight.get(key)
        if proc is not None:
            yield proc

    def forget(self, key):
        """Drop the registry entry (unlink); the process, if any, keeps
        running but its consumer-side guards skip the dead file."""
        self._inflight.pop(key, None)

"""The host kernel page cache with global dirty accounting.

The page cache is a *shared kernel resource*: pages from every container
pool live in one LRU, dirty pages from every pool appear on one writeback
list, and memory is charged to the cgroup of the task that faulted the page
in. This sharing — and the paper calls it out explicitly — is what makes
kernel-based clients couple the performance of unrelated tenants.

This implementation tracks page *presence and dirtiness* (real file bytes
live in the authoritative stores: the local filesystem tree or the OSDs;
dirty user data in flight lives in the owning client's write-behind
buffers). All methods are plain functions — callers account the CPU cost
via the cost model.

Bookkeeping is per **run**, not per page. A run is a range of contiguous
pages of one file that share everything the model distinguishes: the
memory account charged for them, clean or dirty, and — if dirty — the
time they were dirtied and whether a flusher has picked them. A run also
occupies *consecutive ascending positions* in the one order list it is
on: the host-wide LRU if clean, its file's dirty list if dirty. That
last condition is what makes the run form exact: the page sequence of a
list is the concatenation of its runs, so LRU eviction order and the
dirty order ``pick_flush_batch`` sees are, page for page, those of a
cache that tracks every 4 KiB page on its own
(``tests/reference_pagecache.py``, held equal by the state machine in
``tests/test_properties.py``). Every operation costs O(runs it touches).
"""

from bisect import bisect_left, bisect_right

__all__ = ["CachedFile", "PageCache"]


class _Run(object):
    """Pages ``[start, end)`` of one file in one state (see module doc).

    Clean runs keep ``dirty_since == 0.0`` and ``under_writeback ==
    False`` so that two runs are mergeable exactly when all their state
    fields are equal. ``prev``/``next`` link the run into its order list;
    a list is circular around a sentinel run whose ``file`` is None.
    """

    __slots__ = ("file", "start", "end", "account", "dirty", "dirty_since",
                 "under_writeback", "prev", "next")

    def __init__(self, file, start, end, account, dirty=False,
                 dirty_since=0.0, under_writeback=False):
        self.file = file
        self.start = start
        self.end = end
        self.account = account
        self.dirty = dirty
        self.dirty_since = dirty_since
        self.under_writeback = under_writeback
        self.prev = self.next = self

    def unlink(self):
        self.prev.next = self.next
        self.next.prev = self.prev

    def link_before(self, node):
        self.prev = node.prev
        self.next = node
        node.prev.next = self
        node.prev = self


def _order_list():
    """An empty order list: its sentinel."""
    return _Run(None, 0, 0, None)


def _index_runs(indices):
    """Coalesce page indices into ascending ``(start, end)`` runs, in the
    order given. Consecutive stretches are recognised by one C-level list
    comparison each, halving the guess on a mismatch — a picked batch (a
    few ranges back to back) costs a few comparisons, not one step per
    page."""
    indices = list(indices)
    position = 0
    while position < len(indices):
        start = indices[position]
        count = len(indices) - position
        while count > 1 and (
            indices[position + count - 1] != start + count - 1
            or indices[position:position + count]
            != list(range(start, start + count))
        ):
            count //= 2
        yield start, start + count
        position += count


class CachedFile(object):
    """Per-file page runs plus the backend flush callback.

    ``flush_fn(nbytes, page_indices)`` is a sim generator that performs the
    backend write (disk transfer or network push) for a batch of pages.
    """

    __slots__ = ("key", "flush_fn", "nr_pages", "nr_dirty", "_starts",
                 "_runs", "_dirty")

    def __init__(self, key, flush_fn=None):
        self.key = key
        self.flush_fn = flush_fn
        self.nr_pages = 0
        self.nr_dirty = 0
        self._starts = []  # sorted first pages of the runs below
        self._runs = []  # the file's runs, in page order
        self._dirty = _order_list()  # dirty runs, oldest dirtied first

    def oldest_dirty_age(self, now):
        oldest = self._dirty.next
        return now - oldest.dirty_since if oldest.file is not None else 0.0

    def oldest_dirty_account(self):
        """Memory account of the longest-dirty page (None when clean)."""
        return self._dirty.next.account

    # -- run index ------------------------------------------------------

    def _overlapping(self, first, last):
        """The runs that hold any page of ``[first, last)``, as a list."""
        lo = bisect_right(self._starts, first)
        if lo and self._runs[lo - 1].end > first:
            lo -= 1
        return self._runs[lo:bisect_left(self._starts, last, lo)]

    def _add(self, run):
        position = bisect_left(self._starts, run.start)
        self._starts.insert(position, run.start)
        self._runs.insert(position, run)

    def _remove(self, run):
        position = bisect_left(self._starts, run.start)
        del self._starts[position]
        del self._runs[position]

    def _split(self, run, page):
        """Cut ``run`` at ``page``; returns the new right-hand run, which
        follows the left one in the index and in its order list."""
        right = _Run(self, page, run.end, run.account, run.dirty,
                     run.dirty_since, run.under_writeback)
        run.end = page
        right.link_before(run.next)
        self._add(right)
        return right

    def _carve(self, run, first, last):
        """Narrow ``run`` to its pages inside ``[first, last)`` by
        splitting off what lies outside; returns the inside run."""
        if run.start < first:
            run = self._split(run, first)
        if run.end > last:
            self._split(run, last)
        return run


class PageCache(object):
    """Host-wide page cache: presence, dirtiness, LRU and memory charging."""

    def __init__(self, page_size, host_account):
        self.page_size = page_size
        self.host_account = host_account
        self._files = {}  # key -> CachedFile
        self._lru = _order_list()  # clean runs, coldest first
        self.dirty_bytes = 0
        self._account_dirty = {}  # account -> dirty bytes
        self.evictions = 0
        self.insertions = 0

    # -- file table -------------------------------------------------------

    def file(self, key, flush_fn=None):
        """The :class:`CachedFile` for ``key``, created on first use."""
        cf = self._files.get(key)
        if cf is None:
            cf = CachedFile(key, flush_fn=flush_fn)
            self._files[key] = cf
        elif flush_fn is not None and cf.flush_fn is None:
            cf.flush_fn = flush_fn
        return cf

    def peek(self, key):
        return self._files.get(key)

    def drop_file(self, key):
        """Invalidate every page of a file (unlink/eviction)."""
        cf = self._files.pop(key, None)
        if cf is None:
            return
        for run in cf._runs:
            nbytes = (run.end - run.start) * self.page_size
            if run.dirty:
                self._charge_dirty(run.account, -nbytes)
            else:
                run.unlink()
            run.account.uncharge(nbytes)
        cf._starts = []
        cf._runs = []
        cf._dirty = _order_list()
        cf.nr_pages = cf.nr_dirty = 0

    # -- range math -----------------------------------------------------------

    def page_range(self, offset, size):
        """Page indices covering ``[offset, offset+size)``."""
        if size <= 0:
            return range(0, 0)
        return range(offset // self.page_size, (offset + size - 1) // self.page_size + 1)

    def scan(self, cf, offset, size):
        """Split a byte range into cached page count and missing subranges.

        Returns ``(hit_pages, miss_ranges)`` where ``miss_ranges`` is a
        list of ``(offset, size)`` byte ranges to fetch from the backend.
        """
        pages = self.page_range(offset, size)
        hit_pages, gaps = self._touch(cf, pages.start, pages.stop)
        page_size = self.page_size
        return hit_pages, [
            (first * page_size, (last - first) * page_size)
            for first, last in gaps
        ]

    def _touch(self, cf, first, last):
        """Reference pages ``[first, last)``: cached clean ones become the
        hottest of the LRU, in page order. Returns the cached page count
        and the ``(first, last)`` gaps that are not cached."""
        hit_pages = 0
        gaps = []
        position = first
        for run in cf._overlapping(first, last):
            if run.start > position:
                gaps.append((position, run.start))
            if not run.dirty:
                run = cf._carve(run, first, last)
                run.unlink()
                self._append(self._lru, run)
            position = min(run.end, last)
            hit_pages += position - max(run.start, first)
        if position < last:
            gaps.append((position, last))
        return hit_pages, gaps

    def _append(self, order, run):
        """Put ``run`` at the tail of ``order``, growing the tail run
        instead when the two are adjacent pages in the same state."""
        tail = order.prev
        if (
            tail.file is run.file
            and tail.end == run.start
            and tail.account is run.account
            and tail.dirty_since == run.dirty_since
            and tail.under_writeback == run.under_writeback
        ):
            tail.end = run.end
            run.file._remove(run)
        else:
            run.link_before(order)

    # -- insertion / eviction --------------------------------------------------

    def insert(self, cf, offset, size, account):
        """Add clean pages covering the range, charging ``account``.

        Evicts cold clean pages under memory pressure. Returns the number
        of newly inserted pages (pages that could not be charged even after
        eviction are simply not cached — the kernel serves them uncached).
        """
        pages = self.page_range(offset, size)
        _hit_pages, gaps = self._touch(cf, pages.start, pages.stop)
        inserted = 0
        for first, last in gaps:
            inserted += self._fault_in(cf, first, last, account)
        self.insertions += inserted
        return inserted

    def _fault_in(self, cf, first, last, account):
        """Cache the missing pages ``[first, last)``; returns how many.

        While the account has room, pages go in in bulk. Without room
        every further page costs the coldest clean page of the host, and
        is cached only if that eviction freed room *this* account can use
        (a victim charged to another cgroup frees host memory, not this
        cgroup's limit) — otherwise it is served uncached. Both cases
        advance by a whole run per step.
        """
        page_size = self.page_size
        inserted = 0
        while first < last:
            step = fit = min(account.headroom() // page_size, last - first)
            if not fit:
                victim = self._lru.next
                if victim.file is None:
                    break  # nothing reclaimable: serve the rest uncached
                step = min(victim.end - victim.start, last - first)
                self._evict(victim, step)
                fit = min(account.headroom() // page_size, step)
            if fit:
                account.charge(fit * page_size)
                run = _Run(cf, first, first + fit, account)
                cf._add(run)
                cf.nr_pages += fit
                self._append(self._lru, run)
                inserted += fit
            first += step
        return inserted

    def _evict(self, run, count):
        """Drop the ``count`` coldest pages of the clean run ``run``."""
        cf = run.file
        if count == run.end - run.start:
            run.unlink()
            cf._remove(run)
        else:
            position = bisect_left(cf._starts, run.start)
            run.start += count
            cf._starts[position] = run.start
        cf.nr_pages -= count
        run.account.uncharge(count * self.page_size)
        self.evictions += count

    # -- dirty tracking --------------------------------------------------------

    def mark_dirty(self, cf, offset, size, now, account):
        """Dirty the pages of a written range (inserting missing ones)."""
        self.insert(cf, offset, size, account)
        pages = self.page_range(offset, size)
        for run in cf._overlapping(pages.start, pages.stop):
            # Pages that could not be cached (memory exhausted) are not in
            # any run: the write is accounted as immediately-cleaned
            # dirtiness; the caller's fsync or write path pays the device
            # cost directly.
            if run.dirty:
                continue
            run = cf._carve(run, pages.start, pages.stop)
            run.unlink()
            run.dirty = True
            run.dirty_since = now
            count = run.end - run.start
            cf.nr_dirty += count
            self._charge_dirty(run.account, count * self.page_size)
            self._append(cf._dirty, run)

    def _charge_dirty(self, account, nbytes):
        self.dirty_bytes += nbytes
        remaining = self._account_dirty.get(account, 0) + nbytes
        if remaining <= 0:
            self._account_dirty.pop(account, None)
        else:
            self._account_dirty[account] = remaining

    def clean(self, cf, indices):
        """Mark pages clean after a successful flush; returns bytes cleaned."""
        cleaned = 0
        for first, last in _index_runs(indices):
            for run in cf._overlapping(first, last):
                if not run.dirty:
                    continue
                run = cf._carve(run, first, last)
                run.unlink()
                run.dirty = False
                run.dirty_since = 0.0
                run.under_writeback = False
                count = run.end - run.start
                cf.nr_dirty -= count
                self._charge_dirty(run.account, -count * self.page_size)
                self._append(self._lru, run)
                cleaned += count * self.page_size
        return cleaned

    def account_dirty(self, account):
        """Dirty bytes currently charged to ``account``."""
        return self._account_dirty.get(account, 0)

    def dirty_files(self):
        """Files that currently have dirty pages (writeback scan)."""
        return [cf for cf in self._files.values() if cf.nr_dirty]

    def pick_flush_batch(self, cf, max_pages, now=None, min_age=None):
        """Select up to ``max_pages`` dirty pages of ``cf`` for writeback.

        Skips pages already under writeback; optionally only pages dirtied
        at least ``min_age`` seconds ago. Marks the picked pages as under
        writeback so concurrent flushers do not double-flush.
        """
        picked = []
        run = cf._dirty.next
        while run.file is not None and len(picked) < max_pages:
            if not run.under_writeback and not (
                min_age is not None and now is not None
                and now - run.dirty_since < min_age
            ):
                wanted = max_pages - len(picked)
                if run.end - run.start > wanted:
                    cf._split(run, run.start + wanted)
                run.under_writeback = True
                picked.extend(range(run.start, run.end))
            run = run.next
        return picked

    def cancel_writeback(self, cf, indices):
        """Undo the under-writeback mark (flush failed or was aborted)."""
        for first, last in _index_runs(indices):
            for run in cf._overlapping(first, last):
                if run.under_writeback:
                    cf._carve(run, first, last).under_writeback = False

    # -- reporting ---------------------------------------------------------------

    @property
    def cached_bytes(self):
        return sum(cf.nr_pages for cf in self._files.values()) * self.page_size

    def stats(self):
        return {
            "cached_bytes": self.cached_bytes,
            "dirty_bytes": self.dirty_bytes,
            "files": len(self._files),
            "insertions": self.insertions,
            "evictions": self.evictions,
        }

"""The per-page page cache: reference model for ``repro.kernel.pagecache``.

This is the page cache as it stood before bookkeeping moved from pages to
runs — one ``Page`` object per cached 4 KiB page, a host-wide
``OrderedDict`` LRU keyed by ``(file key, page index)``, an
insertion-ordered ``dirty_pages`` dict per file. It is kept verbatim
because it is simple enough to be obviously the intended model, and the
run-granular cache must be indistinguishable from it:
``tests/test_properties.py::test_pagecache_runs_match_per_page_model``
drives both with the same operation sequences and compares them page by
page after every step. Change the model here only together with
``src/repro/kernel/pagecache.py``.
"""

from collections import OrderedDict

__all__ = ["Page", "CachedFile", "PageCache"]


class Page(object):
    """One cached page: clean or dirty, charged to a memory account."""

    __slots__ = ("dirty", "dirty_since", "account", "under_writeback")

    def __init__(self, account):
        self.dirty = False
        self.dirty_since = 0.0
        self.account = account
        self.under_writeback = False


class CachedFile(object):
    """Per-file page mapping plus the backend flush callback.

    ``flush_fn(nbytes, page_indices)`` is a sim generator that performs the
    backend write (disk transfer or network push) for a batch of pages.
    """

    __slots__ = ("key", "pages", "dirty_pages", "flush_fn")

    def __init__(self, key, flush_fn=None):
        self.key = key
        self.pages = {}
        self.dirty_pages = {}  # index -> dirty_since (insertion ordered)
        self.flush_fn = flush_fn

    @property
    def nr_pages(self):
        return len(self.pages)

    @property
    def nr_dirty(self):
        return len(self.dirty_pages)

    def oldest_dirty_age(self, now):
        for since in self.dirty_pages.values():
            return now - since
        return 0.0


class PageCache(object):
    """Host-wide page cache: presence, dirtiness, LRU and memory charging."""

    def __init__(self, page_size, host_account):
        self.page_size = page_size
        self.host_account = host_account
        self._files = {}  # key -> CachedFile
        self._lru = OrderedDict()  # (key, index) -> None, clean pages only
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
        for index, page in cf.pages.items():
            if page.dirty:
                self._account_for_clean(cf, index, page)
            else:
                self._lru.pop((key, index), None)
            page.account.uncharge(self.page_size)
        cf.pages.clear()
        cf.dirty_pages.clear()

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
        hit_pages = 0
        miss_ranges = []
        run_start = None
        for index in self.page_range(offset, size):
            if index in cf.pages:
                hit_pages += 1
                self._lru_touch(cf, index)
                if run_start is not None:
                    miss_ranges.append(self._run_to_range(run_start, index))
                    run_start = None
            else:
                if run_start is None:
                    run_start = index
        if run_start is not None:
            end_index = (offset + size - 1) // self.page_size + 1
            miss_ranges.append(self._run_to_range(run_start, end_index))
        return hit_pages, miss_ranges

    def _run_to_range(self, start_index, end_index):
        start = start_index * self.page_size
        return (start, (end_index - start_index) * self.page_size)

    def _lru_touch(self, cf, index):
        key = (cf.key, index)
        if key in self._lru:
            self._lru.move_to_end(key)

    # -- insertion / eviction --------------------------------------------------

    def insert(self, cf, offset, size, account):
        """Add clean pages covering the range, charging ``account``.

        Evicts cold clean pages under memory pressure. Returns the number
        of newly inserted pages (pages that could not be charged even after
        eviction are simply not cached — the kernel serves them uncached).
        """
        pages = cf.pages
        lru = self._lru
        key = cf.key
        missing = []
        for index in self.page_range(offset, size):
            if index in pages:
                lru_key = (key, index)
                if lru_key in lru:
                    lru.move_to_end(lru_key)
            else:
                missing.append(index)
        if not missing:
            return 0
        page_size = self.page_size
        if account.can_charge(page_size * len(missing)):
            # Fast path: the whole batch fits without eviction, so charge
            # once and materialise the pages in a tight loop.
            account.charge(page_size * len(missing))
            for index in missing:
                pages[index] = Page(account)
                lru[(key, index)] = None
            self.insertions += len(missing)
            return len(missing)
        inserted = 0
        for index in missing:
            if not account.can_charge(page_size):
                if not self._evict_one():
                    continue  # nothing reclaimable: serve uncached
                if not account.can_charge(page_size):
                    continue
            account.charge(page_size)
            pages[index] = Page(account)
            lru[(key, index)] = None
            inserted += 1
            self.insertions += 1
        return inserted

    def _evict_one(self):
        """Drop the coldest clean page anywhere in the host. True on success."""
        while self._lru:
            (key, index), _ = self._lru.popitem(last=False)
            cf = self._files.get(key)
            if cf is None:
                continue
            page = cf.pages.get(index)
            if page is None or page.dirty:
                continue
            del cf.pages[index]
            page.account.uncharge(self.page_size)
            self.evictions += 1
            return True
        return False

    # -- dirty tracking --------------------------------------------------------

    def mark_dirty(self, cf, offset, size, now, account):
        """Dirty the pages of a written range (inserting missing ones)."""
        self.insert(cf, offset, size, account)
        for index in self.page_range(offset, size):
            page = cf.pages.get(index)
            if page is None:
                # Could not be cached (memory exhausted): account the write
                # as immediately-cleaned dirtiness; the caller's fsync or
                # write path pays the device cost directly.
                continue
            if not page.dirty:
                page.dirty = True
                page.dirty_since = now
                cf.dirty_pages[index] = now
                self._lru.pop((cf.key, index), None)
                self.dirty_bytes += self.page_size
                acct = page.account
                self._account_dirty[acct] = (
                    self._account_dirty.get(acct, 0) + self.page_size
                )

    def _account_for_clean(self, cf, index, page):
        cf.dirty_pages.pop(index, None)
        self.dirty_bytes -= self.page_size
        acct = page.account
        remaining = self._account_dirty.get(acct, 0) - self.page_size
        if remaining <= 0:
            self._account_dirty.pop(acct, None)
        else:
            self._account_dirty[acct] = remaining

    def clean(self, cf, indices):
        """Mark pages clean after a successful flush; returns bytes cleaned."""
        cleaned = 0
        for index in indices:
            page = cf.pages.get(index)
            if page is None or not page.dirty:
                continue
            page.dirty = False
            page.under_writeback = False
            self._account_for_clean(cf, index, page)
            self._lru[(cf.key, index)] = None
            cleaned += self.page_size
        return cleaned

    def account_dirty(self, account):
        """Dirty bytes currently charged to ``account``."""
        return self._account_dirty.get(account, 0)

    def dirty_files(self):
        """Files that currently have dirty pages (writeback scan)."""
        return [cf for cf in self._files.values() if cf.dirty_pages]

    def pick_flush_batch(self, cf, max_pages, now=None, min_age=None):
        """Select up to ``max_pages`` dirty pages of ``cf`` for writeback.

        Skips pages already under writeback; optionally only pages dirtied
        at least ``min_age`` seconds ago. Marks the picked pages as under
        writeback so concurrent flushers do not double-flush.
        """
        picked = []
        for index, since in cf.dirty_pages.items():
            if len(picked) >= max_pages:
                break
            page = cf.pages[index]
            if page.under_writeback:
                continue
            if min_age is not None and now is not None and now - since < min_age:
                continue
            page.under_writeback = True
            picked.append(index)
        return picked

    def cancel_writeback(self, cf, indices):
        """Undo the under-writeback mark (flush failed or was aborted)."""
        for index in indices:
            page = cf.pages.get(index)
            if page is not None:
                page.under_writeback = False

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

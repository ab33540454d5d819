"""The user-level object cache (libcephfs ObjectCacher analogue).

One cache per user-level Ceph client. It tracks which file blocks are
resident (so repeated reads skip the network), enforces a configurable
capacity — the paper sets it to 50 % of the pool's memory — and charges
every resident byte to the tenant's RAM account, so memory comparisons
between stacks (Fig. 11) fall out of the accounting. The mount's
write-back buffer holds the dirty bytes; they count here too.
"""

from collections import OrderedDict

from repro.common.errors import ConfigError

__all__ = ["ObjectCache"]


class ObjectCache(object):
    """Presence tracking with LRU eviction and a byte capacity.

    With ``dedup=True`` the cache is content-addressed at block level
    (the §9 future-work feature, cf. Slacker): blocks whose content
    fingerprint is already resident are cached by reference and charge no
    additional memory — cloned containers whose files share bytes then
    share cache too, even without a union filesystem. ``fingerprint_fn``
    maps ``(ino, block_offset)`` to a content digest; the client supplies
    one backed by the authoritative store (resident data is by definition
    already fetched, so fingerprinting costs nothing extra).
    """

    def __init__(self, capacity_bytes, account, block_size=64 * 1024,
                 dedup=False, fingerprint_fn=None):
        if capacity_bytes <= 0:
            raise ConfigError("cache capacity must be positive")
        if dedup and fingerprint_fn is None:
            raise ConfigError("dedup=True needs a fingerprint_fn")
        self.capacity = capacity_bytes
        self.account = account
        self.block_size = block_size
        self.dedup = dedup
        self.fingerprint_fn = fingerprint_fn
        self._blocks = {}  # ino -> set of resident block indices
        self._lru = OrderedDict()  # (ino, block) -> None
        self._fingerprints = {}  # (ino, block) -> digest
        self._fp_refs = {}  # digest -> refcount
        #: resident blocks plus the client's dirty bytes
        self.cached_bytes = 0
        self.dedup_saved_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- block math -------------------------------------------------------

    def block_range(self, offset, size):
        if size <= 0:
            return range(0, 0)
        return range(offset // self.block_size,
                     (offset + size - 1) // self.block_size + 1)

    # -- residency -----------------------------------------------------------

    def scan(self, ino, offset, size):
        """Return ``(hit_blocks, miss_ranges)`` for a read of the range."""
        resident = self._blocks.get(ino, ())
        hit = 0
        misses = []
        run_start = None
        for block in self.block_range(offset, size):
            if block in resident:
                hit += 1
                self.hits += 1
                key = (ino, block)
                if key in self._lru:
                    self._lru.move_to_end(key)
                if run_start is not None:
                    misses.append(self._run(run_start, block))
                    run_start = None
            else:
                self.misses += 1
                if run_start is None:
                    run_start = block
        if run_start is not None:
            end_block = (offset + size - 1) // self.block_size + 1
            misses.append(self._run(run_start, end_block))
        return hit, misses

    def _run(self, start_block, end_block):
        return (start_block * self.block_size,
                (end_block - start_block) * self.block_size)

    def insert(self, ino, offset, size):
        """Mark blocks resident, evicting cold clean blocks to fit."""
        resident = self._blocks.setdefault(ino, set())
        inserted = 0
        for block in self.block_range(offset, size):
            if block in resident:
                continue
            digest = None
            if self.dedup:
                digest = self.fingerprint_fn(ino, block * self.block_size)
                if digest is not None and self._fp_refs.get(digest, 0) > 0:
                    # Content already resident: cache by reference, free.
                    self._fingerprints[(ino, block)] = digest
                    self._fp_refs[digest] += 1
                    resident.add(block)
                    self._lru[(ino, block)] = None
                    self.dedup_saved_bytes += self.block_size
                    inserted += 1
                    continue
            while self.cached_bytes + self.block_size > self.capacity:
                if not self._evict_one():
                    return inserted  # all resident data is hot/dirty
            if not self.account.can_charge(self.block_size):
                if not self._evict_one():
                    return inserted
                continue
            self.account.charge(self.block_size)
            resident.add(block)
            self._lru[(ino, block)] = None
            self.cached_bytes += self.block_size
            if digest is not None:
                self._fingerprints[(ino, block)] = digest
                self._fp_refs[digest] = 1
            inserted += 1
        return inserted

    def _release_block(self, ino, block):
        """Uncharge a departing block, honouring dedup refcounts.

        Returns the bytes actually freed (0 for a deduplicated reference).
        """
        digest = self._fingerprints.pop((ino, block), None)
        if digest is not None:
            remaining = self._fp_refs.get(digest, 1) - 1
            if remaining > 0:
                self._fp_refs[digest] = remaining
                self.dedup_saved_bytes -= self.block_size
                return 0
            self._fp_refs.pop(digest, None)
        self.cached_bytes -= self.block_size
        self.account.uncharge(self.block_size)
        return self.block_size

    def _evict_one(self):
        while self._lru:
            (ino, block), _ = self._lru.popitem(last=False)
            resident = self._blocks.get(ino)
            if resident is None or block not in resident:
                continue
            resident.discard(block)
            self._release_block(ino, block)
            self.evictions += 1
            return True
        return False

    # -- dirty data ------------------------------------------------------------

    def dirty_changed(self, delta):
        """Dirty bytes changed by ``delta``: counted as cached, charged to the tenant."""
        if delta > 0 and self.account.can_charge(delta):
            self.account.charge(delta)
        elif delta < 0 and -delta <= self.account.used:
            self.account.uncharge(-delta)
        self.cached_bytes += delta

    def drop_ino(self, ino):
        """Forget which blocks of a file are resident (unlink, cap
        revoke)."""
        resident = self._blocks.pop(ino, None)
        if resident:
            for block in resident:
                self._lru.pop((ino, block), None)
                self._release_block(ino, block)

    def stats(self):
        return {
            "cached_bytes": self.cached_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

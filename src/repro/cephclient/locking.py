"""Client-side locking policies for the user-level Ceph client.

The paper names the global ``client_lock`` (ceph tracker #23844) as the
user-level client's own cached-Seqread bottleneck and proposes sharding
it as future work. This module makes that sharding a first-class,
*audited* policy instead of a bench-only flag. Two policies:

``global``
    One ``client_lock`` serialises every client-side critical section —
    the faithful libcephfs default. The event schedule of this mode is
    byte-identical to the historical code path (engine-bench
    fingerprints pin it).
``range``
    Per-inode *state* lock plus per-object-range *data* locks: ops on
    different files stop contending, and readers and writers of
    different ranges of one file proceed concurrently. Ranges are
    object-size stripes, so a data lock maps one-to-one onto the RADOS
    object a section touches.

Locking discipline (see ``docs/architecture.md`` for the field table):

* **state sections** guard the per-inode bookkeeping — ``attr_cache``,
  ``_sizes``, readahead stream positions, ``_dirty_since``, cap masks, dirty-buffer
  membership. Acquired via :meth:`LockingPolicy.acquire_state`.
* **data sections** guard the cached bytes of one byte range — dirty
  write and overlay/copy-out. Acquired via
  :meth:`LockingPolicy.acquire_data`. A miss fetch and a flush's send
  take no lock of either kind: a read overlays the mount's in-flight
  (``tx``) and dirty bytes on the OSD bytes, so neither is stale.
* the **flush mutex** of an inode (:meth:`LockingPolicy.flush_lock`,
  every policy alike) is held by a whole flush and by a truncate until
  the MDS has cut the objects: one batch of an inode is in flight at a
  time, and no cut races it.

Lock order (deadlock freedom): ``flush(ino) < client_lock`` in
``global``; ``flush(ino) < inode(ino) < range(ino, stripe) <
range(ino, stripe')`` for ``stripe < stripe'`` in ``range``. Every
section acquires along this order and no section holds locks of two
inodes.
"""

from repro.common.errors import ConfigError
from repro.sim.sync import LockStats, Mutex

__all__ = ["POLICIES", "LockingPolicy", "validate_policy"]

#: Accepted ``locking=`` policy names, coarse to fine.
POLICIES = ("global", "range")


def validate_policy(policy):
    """Check a ``locking=`` policy name; returns it. The client and the
    stack factory both call this, for every stack symbol."""
    if policy not in POLICIES:
        raise ConfigError(
            "unknown locking policy %r (one of: %s)"
            % (policy, ", ".join(POLICIES))
        )
    return policy


class _RetiredLocks(object):
    """Stats holder for locks dropped on unlink.

    The contention table reads ``.stats`` off every registered lock;
    folding departed per-inode/per-range stats into one retired bucket
    keeps their accumulated wait time attributable after the inode (and
    its registry entries) are gone.
    """

    __slots__ = ("stats",)

    def __init__(self):
        self.stats = LockStats()


class LockingPolicy(object):
    """The lock table and acquisition discipline of one client."""

    def __init__(self, sim, name, client_lock, policy="global",
                 range_stripe=4 * 1024 * 1024):
        validate_policy(policy)
        if range_stripe <= 0:
            raise ConfigError("range_stripe must be positive")
        self.sim = sim
        self.name = name
        self.policy = policy
        self.client_lock = client_lock
        self.range_stripe = range_stripe
        self._ino_locks = {}  # ino -> Mutex
        self._flush_locks = {}  # ino -> Mutex
        self._range_locks = {}  # ino -> {stripe index -> Mutex}
        self._retired = None  # registered lazily on first drop

    # -- lock table ------------------------------------------------------

    def inode_lock(self, ino):
        """The state lock of ``ino`` (get-or-create, registered)."""
        lock = self._ino_locks.get(ino)
        if lock is None:
            lock = self._ino_locks[ino] = Mutex(
                self.sim, name="%s.ino%d" % (self.name, ino)
            )
            self.sim.register_lock(self.name, "ino_lock", ino, lock)
        return lock

    def flush_lock(self, ino):
        """The flush mutex of ``ino`` (get-or-create, registered)."""
        lock = self._flush_locks.get(ino)
        if lock is None:
            lock = self._flush_locks[ino] = Mutex(
                self.sim, name="%s.flush%d" % (self.name, ino)
            )
            self.sim.register_lock(self.name, "flush_lock", ino, lock)
        return lock

    def range_locks(self, ino, offset, size):
        """Stripe-ordered data locks covering ``[offset, offset+size)``."""
        table = self._range_locks.get(ino)
        if table is None:
            table = self._range_locks[ino] = {}
        first = offset // self.range_stripe
        last = (offset + size - 1) // self.range_stripe if size > 0 else first
        locks = []
        for stripe in range(first, last + 1):
            lock = table.get(stripe)
            if lock is None:
                lock = table[stripe] = Mutex(
                    self.sim,
                    name="%s.ino%d.r%d" % (self.name, ino, stripe),
                )
                self.sim.register_lock(
                    self.name, "range_lock", (ino, stripe), lock
                )
            locks.append(lock)
        return locks

    def drop_ino(self, ino):
        """Forget the locks of an unlinked inode.

        The Mutex objects are unregistered from the simulator's lock
        registry (a recycled ino gets fresh locks) and their accumulated
        wait/hold stats are folded into a single retired bucket so the
        contention table keeps attributing them.
        """
        departing = []
        for locks in (self._ino_locks, self._flush_locks):
            lock = locks.pop(ino, None)
            if lock is not None:
                departing.append(lock)
        table = self._range_locks.pop(ino, None)
        if table:
            departing.extend(table.values())
        if not departing:
            return
        if self._retired is None:
            self._retired = _RetiredLocks()
            self.sim.register_lock(
                self.name, "ino_lock", "retired", self._retired
            )
        for lock in departing:
            self._retired.stats.merge(lock.stats)
            self.sim.unregister_lock(lock)

    # -- acquisition discipline ------------------------------------------

    def acquire_state(self, ino, who=None):
        """Generator: acquire the lock guarding ``ino``'s shared state.

        Returns a token for :meth:`release`. ``global`` acquires exactly
        the ``client_lock`` (the historical schedule); ``range`` acquires
        the inode lock.
        """
        if self.policy == "global":
            yield self.client_lock.acquire(who=who)
            return (self.client_lock,)
        ino_lock = self.inode_lock(ino)
        yield ino_lock.acquire(who=who)
        return (ino_lock,)

    def acquire_data(self, ino, offset, size, who=None):
        """Generator: acquire the locks guarding one byte range's data.

        In ``global`` this is the ``client_lock`` — the historical
        behaviour, and the copy-out bottleneck the paper measures. In
        ``range`` it is the stripe locks covering the range, so
        disjoint-range readers and writers stop serialising.
        """
        if self.policy == "global":
            yield self.client_lock.acquire(who=who)
            return (self.client_lock,)
        locks = self.range_locks(ino, offset, size)
        for lock in locks:
            yield lock.acquire(who=who)
        return tuple(locks)

    def wants_range_data(self):
        """True when data sections take range locks."""
        return self.policy == "range"

    @staticmethod
    def release(token):
        """Release a token from an acquire method (reverse order)."""
        for lock in reversed(token):
            lock.release()

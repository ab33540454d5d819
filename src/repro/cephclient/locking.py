"""Client-side locking policies for the user-level Ceph client.

The paper names the global ``client_lock`` (ceph tracker #23844) as the
user-level client's own cached-Seqread bottleneck and proposes sharding
it as future work. This module makes that sharding a first-class,
*audited* policy instead of a bench-only flag. Four policies:

``global``
    One ``client_lock`` serialises every client-side critical section —
    the faithful libcephfs default. The event schedule of this mode is
    byte-identical to the historical code path (engine-bench
    fingerprints pin it).
``inode``
    One lock per inode: ops on different files stop contending; ops on
    one file still serialise.
``range``
    Per-inode *state* lock plus per-object-range *data* locks: readers
    of different ranges of one file, and the flusher pushing other
    ranges, proceed concurrently. Ranges are object-size stripes, so a
    data lock maps one-to-one onto the RADOS object a section touches.
``adaptive``
    Starts at ``global`` and watches the measured lock contention (the
    same wait/hold accounting the PR 2 lock-contention profile reads)
    at runtime, escalating ``global -> inode -> range`` under contention
    and de-escalating when it subsides. Every decision is traced and
    counted (metric scope ``locking:<client name>``).

Locking discipline (see ``docs/architecture.md`` for the field table):

* **state sections** guard the per-inode bookkeeping — ``attr_cache``,
  ``_sizes``, ``_seq_end``, ``_dirty_since``, cap masks, dirty-buffer
  membership. Acquired via :meth:`LockingPolicy.acquire_state`.
* **data sections** guard the cached bytes of one byte range — block
  insert, dirty write, overlay/copy-out, in-flight flush. Acquired via
  :meth:`LockingPolicy.acquire_data`.

Adaptive mode switches must never break mutual exclusion mid-flight, so
its acquisition rules are monotone: a state section *always* takes the
inode lock (plus the global lock while the decision is ``global``), and
a data section *always* takes the range locks covering its byte range
(plus the inode/global locks in the coarser decisions). Same-inode and
same-range exclusion therefore holds across any switch instant — the
coarser locks only ever *add* serialisation.

Lock order (deadlock freedom): ``inode(ino) < client_lock < range(ino,
stripe) < range(ino, stripe')`` for ``stripe < stripe'``; every section
acquires along this order and no section holds locks of two inodes.
"""

from repro.common.errors import ConfigError
from repro.sim.sync import LockStats, Mutex

__all__ = ["POLICIES", "AdaptiveLockController", "LockingPolicy"]

#: Effective lock modes, coarse to fine.
MODES = ("global", "inode", "range")
#: Accepted ``locking=`` policy names (modes plus the runtime switcher).
POLICIES = MODES + ("adaptive",)

#: Numeric mode index exported as the ``locking``-scope ``mode`` gauge.
MODE_INDEX = {mode: index for index, mode in enumerate(MODES)}


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
        if policy not in POLICIES:
            raise ConfigError(
                "unknown locking policy %r (one of: %s)"
                % (policy, ", ".join(POLICIES))
            )
        if range_stripe <= 0:
            raise ConfigError("range_stripe must be positive")
        self.sim = sim
        self.name = name
        self.policy = policy
        #: current effective mode; fixed for static policies, moved by
        #: the :class:`AdaptiveLockController` for ``adaptive``
        self.mode = "global" if policy == "adaptive" else policy
        self.client_lock = client_lock
        self.range_stripe = range_stripe
        self._ino_locks = {}  # ino -> Mutex
        self._range_locks = {}  # ino -> {stripe index -> Mutex}
        self._retired = None  # registered lazily on first drop
        #: adaptive decision trace: (time, from_mode, to_mode, reason)
        self.decisions = []

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
        lock = self._ino_locks.pop(ino, None)
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
        """Generator: acquire the locks guarding ``ino``'s shared state.

        Returns a token for :meth:`release`. Static ``global`` mode
        acquires exactly the ``client_lock`` (the historical schedule);
        static fine modes acquire the inode lock. Adaptive mode always
        takes the inode lock and adds the global lock while the current
        decision is ``global`` — see the module docstring for why this
        is switch-safe.
        """
        if self.policy == "adaptive":
            ino_lock = self.inode_lock(ino)
            yield ino_lock.acquire(who=who)
            if self.mode == "global":
                yield self.client_lock.acquire(who=who)
                return (ino_lock, self.client_lock)
            return (ino_lock,)
        if self.mode == "global":
            yield self.client_lock.acquire(who=who)
            return (self.client_lock,)
        ino_lock = self.inode_lock(ino)
        yield ino_lock.acquire(who=who)
        return (ino_lock,)

    def acquire_data(self, ino, offset, size, who=None):
        """Generator: acquire the locks guarding one byte range's data.

        In the coarse modes this is the same acquisition as a state
        section (one client/inode lock — the historical behaviour, and
        the ``client_lock`` copy-out bottleneck the paper measures). In
        ``range`` mode it is the stripe locks covering the range, so
        disjoint-range readers and the flusher stop serialising.
        Adaptive mode layers them: range locks are always taken, the
        coarser locks added per the current decision.
        """
        if self.policy == "adaptive":
            held = []
            ino_lock = self.inode_lock(ino)
            if self.mode != "range":
                yield ino_lock.acquire(who=who)
                held.append(ino_lock)
                if self.mode == "global":
                    yield self.client_lock.acquire(who=who)
                    held.append(self.client_lock)
            for lock in self.range_locks(ino, offset, size):
                yield lock.acquire(who=who)
                held.append(lock)
            return tuple(held)
        if self.mode == "range":
            locks = self.range_locks(ino, offset, size)
            for lock in locks:
                yield lock.acquire(who=who)
            return tuple(locks)
        return (yield from self.acquire_state(ino, who=who))

    def acquire_fetch(self, ino, offset, size, who=None):
        """Generator: locks held across a backend fetch + cache insert.

        Coarse modes return an *empty* token and yield nothing — the
        fetch deliberately travels outside the client lock (as in
        libcephfs) and the caller inserts under a separate state
        section, preserving the historical event schedule. Range and
        adaptive modes hold the covering range locks across the fetch so
        a flush-in-flight of the same range (whose extents already left
        the dirty buffer but have not landed on the OSDs) cannot be
        overtaken by a stale read. Range locks are safe to hold here:
        no fetch section ever acquires an inode or global lock, so the
        lock order is respected.
        """
        if self.wants_range_data():
            locks = self.range_locks(ino, offset, size)
            for lock in locks:
                yield lock.acquire(who=who)
            return tuple(locks)
        return ()

    def wants_range_data(self):
        """True when data sections must take range locks (range mode
        statically, or any adaptive decision — see module docstring)."""
        return self.policy == "adaptive" or self.mode == "range"

    def extent_range_locks(self, ino, extents):
        """Deduped, stripe-ordered range locks covering ``extents``
        (``(offset, data)`` pairs) — the flusher's in-flight batch."""
        stripes = set()
        for offset, data in extents:
            size = len(data)
            first = offset // self.range_stripe
            last = (offset + size - 1) // self.range_stripe if size else first
            stripes.update(range(first, last + 1))
        locks = []
        for stripe in sorted(stripes):
            locks.extend(self.range_locks(
                ino, stripe * self.range_stripe, 1
            ))
        return locks

    @staticmethod
    def release(token):
        """Release a token from an acquire method (reverse order)."""
        for lock in reversed(token):
            lock.release()

    # -- contention sampling (read by the adaptive controller) -----------

    def _stats_of(self, mode):
        """Aggregate ``(acquisitions, contended, wait)`` of one tier.

        The ``global`` tier includes the inode locks: adaptive sections
        acquire the inode lock *before* the global lock, so same-inode
        waiters queue there and a shared-hot-file pile-up would be
        invisible to the client_lock alone.
        """
        if mode == "global":
            locks = [self.client_lock]
            locks.extend(self._ino_locks.values())
        elif mode == "inode":
            locks = list(self._ino_locks.values())
        else:
            locks = [
                lock for table in self._range_locks.values()
                for lock in table.values()
            ]
        acq = cont = 0
        wait = 0.0
        for lock in locks:
            acq += lock.stats.acquisitions
            cont += lock.stats.contended
            wait += lock.stats.total_wait
        return acq, cont, wait


class AdaptiveLockController(object):
    """Watches lock contention and moves an adaptive policy's mode.

    A periodic daemon (spawned only for ``locking="adaptive"`` — no
    events are added to any other policy's schedule) samples the
    wait/hold deltas of the current tier's locks each interval: the same
    :class:`~repro.sim.sync.LockStats` the PR 2 lock-contention profile
    aggregates. When the contended fraction of acquisitions exceeds
    ``escalate_frac`` the mode escalates one step (global -> inode ->
    range); when the acquisition rate drops below ``idle_acqs`` for
    ``calm_rounds`` consecutive intervals the mode steps back down (low
    contention of *fine* locks cannot predict coarse-tier contention, so
    only a dying op rate de-escalates). Every decision is
    appended to ``policy.decisions``, traced (``client/lock_policy``)
    and counted in the ``locking:<client name>`` metric scope.
    """

    def __init__(self, policy, costs):
        self.policy = policy
        self.sim = policy.sim
        self.interval = costs.lock_adapt_interval
        self.escalate_frac = costs.lock_escalate_frac
        self.idle_acqs = costs.lock_idle_acqs
        self.calm_rounds = costs.lock_calm_rounds
        self.metrics = self.sim.metrics("locking:%s" % policy.name)
        self._stopped = False
        self._calm = 0

    def start(self):
        self.sim.spawn(self._loop(), name="%s.lockadapt" % self.policy.name)

    def stop(self):
        self._stopped = True

    def _switch(self, to_mode, reason, frac):
        policy = self.policy
        from_mode = policy.mode
        policy.mode = to_mode
        policy.decisions.append((self.sim.now, from_mode, to_mode, reason))
        self.sim.trace(
            "client", "lock_policy", client=policy.name,
            from_mode=from_mode, to_mode=to_mode, reason=reason,
            contended_frac=round(frac, 4),
        )
        self.metrics.counter("switches").add(1)
        self.metrics.counter("to_%s" % to_mode).add(1)
        self.metrics.gauge("mode").set(MODE_INDEX[to_mode])

    def _loop(self):
        policy = self.policy
        self.metrics.gauge("mode").set(MODE_INDEX[policy.mode])
        prev = policy._stats_of(policy.mode)
        while not self._stopped:
            yield self.interval
            if self._stopped:
                return
            mode = policy.mode
            acq, cont, wait = policy._stats_of(mode)
            d_acq = acq - prev[0]
            d_cont = cont - prev[1]
            frac = (d_cont / d_acq) if d_acq else 0.0
            if self.sim.observer is not None:
                # one sample per round: kept only while observed
                self.metrics.histogram("contended_frac").observe(frac)
            if d_acq >= self.idle_acqs and frac > self.escalate_frac:
                self._calm = 0
                index = MODE_INDEX[mode]
                if index + 1 < len(MODES):
                    self._switch(
                        MODES[index + 1],
                        "contended %.0f%% of %d acquisitions"
                        % (frac * 100.0, d_acq),
                        frac,
                    )
            elif d_acq < self.idle_acqs:
                # Low contention of *fine* locks cannot predict whether
                # the coarse tier would contend (that is why we left it);
                # only a dying op rate justifies stepping back down.
                self._calm += 1
                index = MODE_INDEX[mode]
                if index > 0 and self._calm >= self.calm_rounds:
                    self._calm = 0
                    self._switch(
                        MODES[index - 1],
                        "idle for %d intervals (%d acquisitions)"
                        % (self.calm_rounds, d_acq),
                        frac,
                    )
            else:
                self._calm = 0
            prev = policy._stats_of(policy.mode)

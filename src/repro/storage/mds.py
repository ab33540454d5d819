"""Metadata service: one journaled MDS rank with standby-replay failover.

Every cluster runs one :class:`MdsService`: one active :class:`Mds`
daemon serves the whole namespace, the Monitor publishes an
epoch-versioned :class:`MdsMap` naming it, and clients send every op to
the active of their mdsmap snapshot, stamped with its epoch and, for a
mutation, a ``(client_id, op_id)`` pair. A fresh cluster has the one
active, no standby and no journal, the one MDS of the testbed.

The journal is the one switch (``cluster.enable_mds_ha`` attaches it)
and only this module reads it:

* with a journal every namespace mutation is **journaled before it is
  applied or acked**: the record goes out as object bytes through the
  ordinary OSD write path (so replication, bitrot, scrub and read-repair
  cover metadata for free), and only then does the daemon touch the
  shared store — an MDS SIGKILL therefore honestly loses exactly the
  in-flight ops that never reached the journal. The active's mutations
  run one at a time from their checks to their apply, so the namespace
  an op checked is the one it changes;
* the op-id stamps land in the journal record; the active's dedup
  table — rebuilt on replay — answers client resends with the recorded
  result, making rename/create/unlink exactly-once across a failover;
* standbys tail the journal (*standby-replay*), so a
  heartbeat-detected failure promotes one with only the journal lag
  left to replay; the deposed active is fenced by mdsmap-epoch
  rejection (:class:`~repro.common.errors.OldEpoch`), the EOLDEPOCH
  analogue the OSDs already implement.

Without a journal a mutation applies in place: nothing is journaled,
remembered or waited for, and the op costs and event schedule are those
of an un-journaled MDS. Either way the live op applies its own record
through the method replay runs, and the checks are ``MemTree``'s.

A per-inode version counter lets clients validate cached attributes
cheaply (the revalidate-on-open consistency the clients implement).
"""

import collections
import json

from repro.common.errors import (
    FsError,
    InvalidArgument,
    IsADirectory,
    OldEpoch,
    OpTimeout,
    ServiceRestarting,
)
from repro.fs.memtree import MemTree
from repro.sim.sync import Mutex, Semaphore
from repro.storage.caps import CapsTable

__all__ = ["InodeInfo", "Mds", "MdsJournal", "MdsMap", "MdsService",
           "MdsStore"]

#: object id of the journal: far above any MemTree ino, so journal
#: objects never collide with file data on the OSDs.
JOURNAL_INO_BASE = 1 << 40

#: dedup-table miss sentinel (None is a legitimate recorded result)
_MISS = object()


class MdsMap(collections.namedtuple("MdsMap", "epoch active")):
    """Immutable snapshot of the metadata service (the OsdMap analogue):
    the map ``epoch`` and the gid of the ``active`` daemon.

    The Monitor publishes a new one on every change — failover, restart,
    rejoin — and every daemon rejects ops stamped with an older epoch
    (EOLDEPOCH fencing for metadata), which is what keeps a deposed
    active from serving after its standby took over.
    """

    __slots__ = ()


class InodeInfo(object):
    """Attribute snapshot shipped to clients."""

    __slots__ = ("ino", "is_dir", "size", "mtime", "nlink", "version")

    def __init__(self, ino, is_dir, size, mtime, nlink, version):
        self.ino = ino
        self.is_dir = is_dir
        self.size = size
        self.mtime = mtime
        self.nlink = nlink
        self.version = version

    def __repr__(self):
        return "<InodeInfo ino=%d size=%d v%d>" % (self.ino, self.size, self.version)


class MdsStore(object):
    """Shared namespace state: the metadata-pool contents.

    Conceptually this is what lives *in RADOS* — the tree and the
    per-inode version counters — as opposed to per-daemon session state
    (caps, dedup tables) which dies with a SIGKILL. The journal-before-
    apply discipline guarantees the store only ever holds journaled
    mutations, so sharing it between the daemons is exactly as durable
    as the journal itself. ``applied`` records which journal seqs have
    reached the store, making replay idempotent.
    """

    def __init__(self):
        self.tree = MemTree()
        self.versions = {}  # ino -> version counter
        self.applied = set()  # applied journal seqs


class MdsJournal(object):
    """The append-only metadata journal, stored as OSD objects.

    Records are newline-delimited JSON written through
    ``cluster.write_extent`` under a reserved object id — the same
    replicated, digest-checked, scrubbed path file data takes. Appends
    reserve their offset before yielding, so concurrent ops land at
    disjoint offsets; a SIGKILL mid-append leaves a zero hole and the
    reader treats everything behind the first unparsable line as torn.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.ino = JOURNAL_INO_BASE
        self.length = 0    # durable-reserved byte length
        self.next_seq = 1
        self.entries = 0   # completed appends

    def append(self, record):
        """Append one record (sim generator; pays the OSD write)."""
        payload = (json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n").encode("utf-8")
        offset = self.length
        self.length += len(payload)
        yield from self.cluster.write_extent(self.ino, offset, payload)
        self.entries += 1

    def read_from(self, offset):
        """Read + parse records from ``offset`` (sim generator).

        Returns ``(records, consumed_bytes)``; parsing stops at the
        first torn/unwritten line so a replay never trusts a hole.
        """
        size = self.length - offset
        if size <= 0:
            return [], 0
        data = yield from self.cluster.read_extent(self.ino, offset, size)
        records = []
        consumed = 0
        for line in bytes(data).splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            try:
                records.append(json.loads(line))
            except ValueError:
                break
            consumed += len(line)
        return records, consumed


class Mds(object):
    """One metadata daemon of an :class:`MdsService`: the active or a
    standby.

    It always fences ops by mdsmap epoch. With the journal attached it
    journals each mutation before applying it, keeps the op-id dedup
    table and orders its mutations (see :meth:`_mutate`); without one
    it applies mutations in place.
    """

    def __init__(self, sim, costs, trim, store, gid):
        self.sim = sim
        self.costs = costs
        #: ``trim(ino, size)``: the cluster cuts every stored copy of a
        #: file, without cost (see ``CephCluster.cut``)
        self._trim = trim
        self.store = store
        self.tree = self.store.tree
        self._versions = self.store.versions
        self._slots = Semaphore(sim, costs.mds_concurrency, name="mds")
        #: held by a journaled mutation from its dedup lookup to its apply
        self._order = Mutex(sim, name="mds_order")
        self.caps = CapsTable()
        self.available = True
        #: bumps on every restart/failover; clients compare it against
        #: the epoch they opened their session under and reestablish
        #: (reacquiring caps) when it moved — the CephFS
        #: session-reconnect protocol.
        self.session_epoch = 1
        self.metrics = sim.metrics("mds:%d" % gid)
        # --- HA state (inert until a journal is attached) -------------
        self.gid = gid
        #: the fabric edge naming this daemon (per-edge RPC accounting)
        self.edge = "mds.%d" % gid
        #: active | replay | standby | stopped
        self.state = "active"
        self.crashed = False
        #: the daemon's view of the mdsmap epoch (fencing)
        self.map_epoch = 1
        self.journal = None
        self.dedup = {}      # (client_id, op_id) -> recorded result
        self.sessions = {}   # client_id -> highest op_id seen
        self._tail_pos = 0  # journal bytes absorbed while standby
        self._pending_apply = {}  # seq -> record tailed before the active applied it

    # -- fault injection -------------------------------------------------

    def set_available(self, flag):
        """Begin (False) or end (True) an unavailability window."""
        self.available = bool(flag)
        self.sim.trace("mds", "up" if flag else "down")
        if not flag:
            self.metrics.counter("outages").add(1)

    def crash(self):
        """SIGKILL: in-flight un-journaled mutations are lost, and the
        session/caps/dedup tables die with the process. The shared store
        is untouched — it only ever held journaled state."""
        self.crashed = True
        self.sim.trace("mds", "crash", gid=self.gid)
        self.metrics.counter("crashes").add(1)

    def _restart(self):
        """Come back as a fresh process: alive and reachable, with the
        per-process tables (caps, dedup, sessions, standby-replay
        progress) empty. The shared store is untouched."""
        self.crashed = False
        self.available = True
        self.caps = CapsTable()
        self.dedup = {}
        self.sessions = {}
        self._tail_pos = 0
        self._pending_apply = {}

    # -- bookkeeping -------------------------------------------------------

    def _bump(self, node):
        self._versions[node.ino] = self._versions.get(node.ino, 0) + 1

    def _info(self, node):
        return InodeInfo(
            node.ino,
            node.is_dir,
            node.size,
            node.mtime,
            node.nlink,
            self._versions.get(node.ino, 0),
        )

    def _op(self, map_epoch=None):
        """Pay the MDS service cost under the concurrency bound."""
        if self.crashed or not self.available:
            # Dead MDS: the request goes unanswered until the client-side
            # op timeout declares it lost.
            yield self.costs.op_timeout
            raise OpTimeout("mds unavailable")
        if map_epoch is not None:
            self._fence(map_epoch)
        yield self._slots.acquire()
        try:
            yield self.costs.mds_op
        finally:
            self._slots.release()
        self.metrics.counter("ops").add(1)

    def _fence(self, map_epoch):
        """Reject ops this daemon must not serve under the current map."""
        if self.state in ("standby", "stopped") or map_epoch < self.map_epoch:
            self.metrics.counter("fenced_ops").add(1)
            raise OldEpoch(
                "mds gid %d fenced (op epoch %s < map epoch %d)"
                % (self.gid, map_epoch, self.map_epoch)
            )
        if self.state == "replay":
            raise ServiceRestarting("mds gid %d replaying journal" % self.gid)

    def _check_serving(self, when):
        """Refuse to go on with a mutation once the daemon has died or
        been deposed (``when`` names the wait it happened in)."""
        if self.crashed:
            raise OpTimeout("mds crashed %s" % when)
        if self.state != "active":
            raise OldEpoch("mds gid %d deposed %s" % (self.gid, when))

    def _remember(self, client_id, op_id, result):
        """Record a mutation's result in the dedup and session tables."""
        if client_id is None or op_id is None:
            return
        self.dedup[(client_id, op_id)] = result
        prev = self.sessions.get(client_id)
        if prev is None or op_id > prev:
            self.sessions[client_id] = op_id

    def _mutate(self, plan, client_id, op_id, map_epoch, exclusive=False):
        """Serve one namespace mutation (sim generator); returns its result.

        ``plan()`` runs the op's checks and returns the ``(op, fields)``
        of its journal record, or ``(None, result)`` when the op answers
        without a mutation; a doomed mutation never reaches the journal.
        The namespace changes only through :meth:`_apply_record`, the
        method replay runs, so the record's mtime is the live mtime and
        a replayed namespace is the one the clients saw. ``exclusive``
        is the one check a record does not carry (O_EXCL).

        The journal is the one switch. Without one, the checks and the
        apply run with no yield between them. With one, the record is
        appended before the apply, and the daemon's ``_order`` mutex is
        held from the dedup lookup to the apply, so no other mutation
        lands between this op's checks and its apply.
        """
        yield from self._op(map_epoch)
        # A daemon deposed during the op's service time no longer holds
        # the journal: it must not apply in place.
        self._check_serving("while serving")
        if self.journal is None:
            op, fields = plan()
            if op is None:
                return fields
            return self._apply_record(dict(fields, op=op), exclusive)
        order = self._order
        yield order.acquire()
        try:
            self._check_serving("while queued")
            hit = self.dedup.get((client_id, op_id), _MISS)
            if hit is not _MISS:
                self.metrics.counter("dedup_hits").add(1)
                return hit
            op, fields = plan()
            if op is None:
                return fields
            journal = self.journal
            seq = journal.next_seq
            journal.next_seq += 1
            record = dict(fields, op=op, client=client_id, op_id=op_id,
                          seq=seq)
            yield from journal.append(record)
            self.metrics.counter("journal_entries").add(1)
            # A SIGKILL that raced the append leaves a durable record
            # this process never applies: the promoted standby's replay
            # will, and the client's resend dedups against it.
            self._check_serving("during journal append")
            result = self._apply_record(record, exclusive)
            self.store.applied.add(seq)
            self._pending_apply.pop(seq, None)
            self._remember(client_id, op_id, result)
            return result
        finally:
            order.release()

    # -- server-side operations (sim generators) ---------------------------

    def lookup(self, path, map_epoch=None):
        yield from self._op(map_epoch)
        return self._info(self.tree.lookup(path))

    def create(self, path, exclusive=False, mode=0o644, truncate=False,
               client_id=None, op_id=None, map_epoch=None):
        """Create a file, or open an existing one; ``truncate`` (O_TRUNC)
        cuts an existing file to size 0 in the same op."""
        def plan():
            _parent, _name, existing = self.tree.check_create(path, exclusive)
            if existing is None:
                return "create", {"path": path, "mode": mode,
                                  "ino": self.tree._alloc_ino(),
                                  "mtime": self.sim.now}
            if truncate:
                return "setattr", {"path": path, "ino": existing.ino,
                                   "size": 0, "mtime": self.sim.now,
                                   "truncate": True}
            # Open-existing: no namespace mutation, nothing to journal.
            self._bump(existing)
            return None, self._info(existing)
        return self._mutate(plan, client_id, op_id, map_epoch, exclusive)

    def mkdir(self, path, mode=0o755, client_id=None, op_id=None,
              map_epoch=None):
        def plan():
            self.tree.check_mkdir(path)
            return "mkdir", {"path": path, "mode": mode,
                             "ino": self.tree._alloc_ino(),
                             "mtime": self.sim.now}
        return self._mutate(plan, client_id, op_id, map_epoch)

    def rmdir(self, path, client_id=None, op_id=None, map_epoch=None):
        def plan():
            self.tree.check_rmdir(path)
            return "rmdir", {"path": path, "mtime": self.sim.now}
        return self._mutate(plan, client_id, op_id, map_epoch)

    def unlink(self, path, client_id=None, op_id=None, map_epoch=None):
        """Remove a file; returns its (ino, size) for object purging."""
        def plan():
            _parent, _name, node = self.tree.check_unlink(path)
            return "unlink", {"path": path, "ino": node.ino,
                              "size": node.size, "mtime": self.sim.now}
        return self._mutate(plan, client_id, op_id, map_epoch)

    def readdir(self, path, map_epoch=None):
        yield from self._op(map_epoch)
        names = self.tree.readdir(path)
        # Marshalling grows with the directory size.
        yield self.costs.dirent_op * max(len(names), 1)
        return names

    def rename(self, old_path, new_path, client_id=None, op_id=None,
               map_epoch=None):
        def plan():
            self.tree.check_rename(old_path, new_path)
            return "rename", {"old": old_path, "new": new_path,
                              "mtime": self.sim.now}
        return self._mutate(plan, client_id, op_id, map_epoch)

    def setattr_size(self, path, size, mtime=None, truncate=False,
                     client_id=None, op_id=None, map_epoch=None):
        """Record the new size/mtime of a file: a client cap flush, or
        with ``truncate`` a truncate, whose cut of the stored objects
        is part of the op."""
        def plan():
            node = self.tree.lookup(path)
            if node.is_dir:
                raise IsADirectory(path=path)
            if size < 0:
                raise InvalidArgument("negative size")
            fields = {"path": path, "ino": node.ino, "size": size,
                      "mtime": mtime if mtime is not None else self.sim.now}
            if truncate:
                fields["truncate"] = True
            return "setattr", fields
        return self._mutate(plan, client_id, op_id, map_epoch)

    # -- capabilities (caps-mode clients only) --------------------------------

    def caps_conflicts(self, ino, client_id, want, map_epoch=None):
        """Which holders must drop caps before ``client_id`` gets ``want``."""
        yield from self._op(map_epoch)
        return self.caps.conflicts(ino, client_id, want)

    def caps_commit(self, ino, client_id, want, revoked, map_epoch=None):
        """Record completed revocations and grant ``want``."""
        yield from self._op(map_epoch)
        for holder, caps in revoked:
            self.caps.revoke(ino, holder, caps)
        self.caps.grant(ino, client_id, want)
        return self.caps.held(ino, client_id)

    # -- journal records ---------------------------------------------------

    def absorb(self, record, apply=True):
        """Fold one journal record into this daemon's state.

        Session/dedup tables always rebuild. With ``apply`` (promotion
        or local recovery) a record the crashed active journaled but
        never applied lands in the store now; a tailing standby passes
        ``apply=False`` — the live active still owns the store — and
        parks unapplied records in ``_pending_apply`` for promotion.
        """
        seq = record["seq"]
        applied = self.store.applied
        if seq not in applied:
            if apply:
                self._replay_record(record)
                applied.add(seq)
                self._pending_apply.pop(seq, None)
            else:
                self._pending_apply[seq] = record
        else:
            self._pending_apply.pop(seq, None)
        self._remember(record.get("client"), record.get("op_id"),
                       self._result_of(record))

    def _replay_record(self, record):
        """Apply a record on replay; one that no longer applies (it lost
        a race the live op also lost) is counted and skipped."""
        try:
            self._apply_record(record)
        except FsError:
            self.metrics.counter("replay_skips").add(1)

    def _apply_record(self, record, exclusive=False):
        """Apply one journal record to the shared store; returns the
        op's result. The live op and replay both apply through here.

        ``exclusive`` is the one check a record does not carry: a live
        O_EXCL create re-checks it here, after its journal append.
        """
        op = record["op"]
        tree = self.tree
        now = record["mtime"]
        if op == "create":
            node = tree.create_file(record["path"], now=now,
                                    exclusive=exclusive, mode=record["mode"],
                                    ino=record["ino"])
            # The MDS never stores file bytes.
            if node.data is not None and not node.data:
                node.data = None
                node.meta_size = 0
        elif op == "mkdir":
            node = tree.mkdir(record["path"], now=now, mode=record["mode"],
                              ino=record["ino"])
        elif op == "setattr":
            # With ``truncate`` the cut of every stored copy lands with
            # the size in one step, so a failover between the append and
            # the reply leaves it to replay (and the resend to the dedup
            # table): it happens once.
            node = tree.lookup(record["path"])
            node.meta_size = record["size"]
            node.mtime = now
            if record.get("truncate"):
                self._trim(record["ino"], record["size"])
        elif op == "unlink":
            tree.unlink(record["path"], now=now)
            self._versions.pop(record["ino"], None)
            return record["ino"], record["size"]
        elif op == "rmdir":
            tree.rmdir(record["path"], now=now)
            return None
        else:
            tree.rename(record["old"], record["new"], now=now)
            return None
        self._bump(node)
        return self._info(node)

    def _result_of(self, record):
        """Reconstruct a mutation's acked result from its journal record
        (what a post-failover resend of the same op-id receives)."""
        op = record["op"]
        if op in ("create", "mkdir"):
            ino = record["ino"]
            return InodeInfo(ino, op == "mkdir", 0, record["mtime"],
                             2 if op == "mkdir" else 1,
                             self._versions.get(ino, 1))
        if op == "unlink":
            return (record["ino"], record["size"])
        if op == "setattr":
            ino = record["ino"]
            return InodeInfo(ino, False, record["size"], record["mtime"], 1,
                             self._versions.get(ino, 1))
        return None  # rmdir, rename

    def replay_journal(self, journal, from_bytes=0):
        """Replay a journal tail into this daemon (sim generator).

        Pays the OSD reads plus per-record replay CPU; flushes any
        records tailed earlier that the dead active never applied.
        Returns the number of records replayed.
        """
        started = self.sim.now
        records, consumed = yield from journal.read_from(from_bytes)
        for record in records:
            yield self.costs.mds_replay_op
            self.absorb(record, apply=True)
        # Records absorbed while tailing whose apply never happened
        # (the active died between journal append and apply).
        applied = self.store.applied
        for seq in sorted(self._pending_apply):
            record = self._pending_apply[seq]
            if seq not in applied:
                yield self.costs.mds_replay_op
                self._replay_record(record)
                applied.add(seq)
        self._pending_apply = {}
        self._tail_pos = from_bytes + consumed
        duration = self.sim.now - started
        self.metrics.counter("replays").add(1)
        self.metrics.counter("replayed_records").add(len(records))
        self.metrics.gauge("replay_s").set(duration)
        self.metrics.gauge("sessions").set(len(self.sessions))
        self.sim.trace("mds", "replayed", gid=self.gid,
                       records=len(records), duration=duration)
        return len(records)

    # -- helpers used by the cluster (no cost) --------------------------------

    def node_of(self, path):
        return self.tree.lookup(path)


class MdsService(object):
    """The metadata service: the daemon pool, the journal and the
    Monitor-published :class:`MdsMap`.

    Every cluster builds one: daemon gid 0 active, no standby, no
    journal. :meth:`attach_journal` (``cluster.enable_mds_ha``)
    attaches the journal and grows the pool; spare daemons join the
    standby pool and tail the journal, and the monitor's heartbeat loop
    calls :meth:`check_heartbeats` each probe round to drive failover.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.costs = cluster.costs
        self.store = MdsStore()
        self.daemons = {}
        self._next_gid = 0
        self.session_epoch = 1
        self.epoch = 1
        self.standby_gids = []
        self.journal = None     # the MdsJournal, once attached
        self.metrics = self.sim.metrics("mds")
        #: a promotion is under way (heartbeat or administrative)
        self._promoting = False
        self._hb_misses = 0    # consecutive missed probes of the active
        self.active_gid = self._new_daemon().gid
        # The first map is the monitor's initial state, not a change:
        # it is installed without a publication event.
        cluster.monitor.mdsmap = MdsMap(self.epoch, self.active_gid)

    def attach_journal(self, standbys):
        """Journal the active and grow the pool to at least ``standbys``
        standby daemons; the first call republishes the map."""
        first = self.journal is None
        if first:
            self.journal = MdsJournal(self.cluster)
            self.active_daemon().journal = self.journal
        while len(self.standby_gids) < standbys:
            self.add_standby()
        if first:
            self._publish("mds_ha_armed")

    # -- map publication ---------------------------------------------------

    def _publish(self, event):
        self.epoch += 1
        for daemon in self.daemons.values():
            daemon.map_epoch = self.epoch
        self.cluster.monitor.publish_mdsmap(
            MdsMap(self.epoch, self.active_gid), event
        )
        self.metrics.gauge("map_epoch").set(self.epoch)

    # -- pool management ---------------------------------------------------

    def _new_daemon(self):
        daemon = Mds(self.sim, self.costs, self.cluster.cut,
                     store=self.store, gid=self._next_gid)
        daemon.session_epoch = self.session_epoch
        daemon.map_epoch = self.epoch
        self.daemons[daemon.gid] = daemon
        self._next_gid += 1
        return daemon

    def add_standby(self):
        """Add one standby-replay daemon tailing the journal."""
        daemon = self._new_daemon()
        daemon.state = "standby"
        self.standby_gids.append(daemon.gid)
        self._start_tail(daemon)

    def active_daemon(self):
        return self.daemons[self.active_gid]

    def healthy(self):
        """The active daemon is live and not replaying."""
        if self._promoting:
            return False
        daemon = self.active_daemon()
        return not daemon.crashed and daemon.available \
            and daemon.state == "active"

    # -- standby-replay tail ----------------------------------------------

    def _start_tail(self, daemon):
        self.sim.spawn(self._tail_loop(daemon), name="mds-standby-tail")

    def _tail_loop(self, daemon):
        """Standby-replay: periodically absorb the tail of the journal
        so promotion only replays the remaining lag."""
        while daemon.state == "standby" and not daemon.crashed:
            yield self.costs.mds_tail_interval
            if daemon.state != "standby" or daemon.crashed:
                break
            journal = self.journal
            pos = daemon._tail_pos
            lag = journal.length - pos
            if lag <= 0:
                self.metrics.gauge("journal_lag").set(0)
                continue
            records, consumed = yield from journal.read_from(pos)
            if daemon.state != "standby" or daemon.crashed:
                break
            for record in records:
                daemon.absorb(record, apply=False)
            daemon._tail_pos = pos + consumed
            self.metrics.gauge("journal_lag").set(
                journal.length - daemon._tail_pos
            )

    # -- heartbeats / failover ---------------------------------------------

    def check_heartbeats(self):
        """One monitor probe round over the active daemon (pure).

        Promotions are spawned, never run inline, so the heartbeat loop
        keeps its cadence regardless of replay duration.
        """
        if not self.active_daemon().crashed:
            self._hb_misses = 0
            return
        if self._promoting:
            return
        self._hb_misses += 1
        if self._hb_misses >= self.costs.mds_heartbeat_grace \
                and self.standby_gids:
            self._hb_misses = 0
            self.metrics.counter("heartbeat_failures").add(1)
            self._promoting = True
            self.sim.spawn(self._promote(), name="mds-promote")

    def failover(self):
        """Administrative failover (sim generator): promote a standby and
        fence the still-live active via mdsmap-epoch rejection."""
        if self._promoting or not self.standby_gids:
            return
        self._promoting = True
        yield from self._promote()

    def _promote(self):
        """Promote a standby to active: publish the new map (fencing the
        deposed active), bump session epochs, replay the journal lag.
        The caller must already have set ``_promoting``.
        """
        try:
            old = self.active_daemon()
            gid = self._pick_standby()
            standby = self.daemons[gid]
            self.standby_gids.remove(gid)
            started = self.sim.now
            standby.state = "replay"
            standby.journal = self.journal
            standby.caps = CapsTable()
            old.state = "stopped"
            old.journal = None
            self.active_gid = gid
            self.session_epoch += 1
            for daemon in self.daemons.values():
                daemon.session_epoch = self.session_epoch
            self._publish("mds_failover")
            self.metrics.counter("failovers").add(1)
            yield from standby.replay_journal(self.journal,
                                              from_bytes=standby._tail_pos)
            standby.state = "active"
            self.sim.trace("mds", "promoted", gid=gid,
                           replay_s=self.sim.now - started)
        finally:
            self._promoting = False

    def _pick_standby(self):
        """Prefer the standby that has tailed furthest into the journal."""
        best = self.standby_gids[0]
        best_pos = -1
        for gid in self.standby_gids:
            pos = self.daemons[gid]._tail_pos
            if pos > best_pos:
                best, best_pos = gid, pos
        return best

    def restore(self, gid):
        """Restart a SIGKILLed or unavailable daemon (fault heal; sim
        generator).

        If a standby already took over it rejoins as an empty standby.
        Otherwise it restarts in place: sessions and caps are lost
        (clients reestablish under the bumped session epoch), and the
        dedup table and any record journaled but never applied come
        back from a replay of the journal from byte 0.
        """
        daemon = self.daemons[gid]
        if not daemon.crashed and daemon.available:
            return
        if gid != self.active_gid:
            self.rejoin(gid)
            return
        daemon._restart()
        daemon.state = "replay"
        self.session_epoch += 1
        for other in self.daemons.values():
            other.session_epoch = self.session_epoch
        self._publish("mds_recover")
        yield from daemon.replay_journal(self.journal)
        daemon.state = "active"

    def rejoin(self, gid):
        """A deposed or SIGKILLed daemon restarts as an empty standby."""
        daemon = self.daemons[gid]
        daemon._restart()
        daemon.state = "standby"
        daemon.journal = None
        if gid not in self.standby_gids and gid != self.active_gid:
            self.standby_gids.append(gid)
            self._start_tail(daemon)
        self.metrics.counter("rejoins").add(1)
        self._publish("mds_rejoin")

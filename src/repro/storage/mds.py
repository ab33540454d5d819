"""Metadata service: journaled MDS ranks with standby-replay failover.

The single-MDS shape of the testbed is preserved exactly: a disarmed
:class:`Mds` is one daemon serving the whole namespace with the same op
costs and the same event schedule as before (no journal, no fencing, no
op-id bookkeeping — those branches never yield when HA is off).

Arming metadata HA (``cluster.enable_mds_ha``) wraps a pool of daemons
in an :class:`MdsService`:

* the namespace is hash-partitioned over *ranks* by an epoch-versioned
  :class:`~repro.storage.mdsmap.MdsMap`, published through the Monitor;
* every namespace mutation is **journaled before it is applied or
  acked**: the record goes out as object bytes through the ordinary OSD
  write path (so replication, bitrot, scrub and read-repair cover
  metadata for free), and only then does the daemon touch the shared
  store — an MDS SIGKILL therefore honestly loses exactly the in-flight
  ops that never reached the journal. The live op applies its own
  record through the method replay runs, so replay rebuilds the
  namespace the clients saw; the checks are ``MemTree``'s, run before
  the journal append;
* mutations carry ``(client_id, op_id)`` stamps which land in the
  journal record; a per-rank dedup table — rebuilt on replay — answers
  client resends with the recorded result, making rename/create/unlink
  exactly-once across a failover;
* standbys tail the active ranks' journals (*standby-replay*), so a
  heartbeat-detected failure promotes one with only the journal lag
  left to replay; the deposed active is fenced by mdsmap-epoch
  rejection (:class:`~repro.common.errors.OldEpoch`), the EOLDEPOCH
  analogue the OSDs already implement.

A per-inode version counter lets clients validate cached attributes
cheaply (the revalidate-on-open consistency the clients implement).
"""

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
from repro.sim.sync import Semaphore
from repro.storage.caps import CapsTable
from repro.storage.mdsmap import MdsMap

__all__ = ["InodeInfo", "Mds", "MdsJournal", "MdsService", "MdsStore"]

#: object-id base of the per-rank journals: far above any MemTree ino,
#: so journal objects never collide with file data on the OSDs.
JOURNAL_INO_BASE = 1 << 40

#: dedup-table miss sentinel (None is a legitimate recorded result)
_MISS = object()


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
    mutations, so sharing it between rank daemons is exactly as durable
    as the journal itself. ``applied`` records which journal seqs have
    reached the store, making replay idempotent.
    """

    def __init__(self):
        self.tree = MemTree()
        self.versions = {}  # ino -> version counter
        self.applied = {}   # rank -> set of applied journal seqs


class MdsJournal(object):
    """One rank's append-only metadata journal, stored as OSD objects.

    Records are newline-delimited JSON written through
    ``cluster.write_extent`` under a reserved object id — the same
    replicated, digest-checked, scrubbed path file data takes. Appends
    reserve their offset before yielding, so concurrent ops land at
    disjoint offsets; a SIGKILL mid-append leaves a zero hole and the
    reader treats everything behind the first unparsable line as torn.
    """

    def __init__(self, cluster, rank):
        self.cluster = cluster
        self.rank = rank
        self.ino = JOURNAL_INO_BASE + rank
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
    """One metadata daemon: the single-MDS shape, HA-capable.

    Disarmed (``journal is None``, no :class:`MdsService`) this is
    byte-identical to the historical single MDS. Attached to a service
    it serves one rank with journal-before-apply semantics, op-id
    dedup, and mdsmap-epoch fencing.
    """

    def __init__(self, sim, costs, trim, store=None, gid=0):
        self.sim = sim
        self.costs = costs
        #: ``trim(ino, size)``: the cluster cuts every stored copy of a
        #: file, without cost (see ``CephCluster.cut``)
        self._trim = trim
        self.store = store if store is not None else MdsStore()
        self.tree = self.store.tree
        self._versions = self.store.versions
        self._slots = Semaphore(sim, costs.mds_concurrency, name="mds")
        self.caps = CapsTable()
        self.available = True
        #: bumps on every restart/failover; clients compare it against
        #: the epoch they opened their session under and reestablish
        #: (reacquiring caps) when it moved — the CephFS
        #: session-reconnect protocol.
        self.session_epoch = 1
        self.metrics = sim.metrics("mds:%d" % gid)
        # --- HA state (inert until a journal/service is attached) -----
        self.gid = gid
        self.rank = 0
        #: active | replay | standby | stopped
        self.state = "active"
        self.crashed = False
        #: the daemon's view of the mdsmap epoch (fencing)
        self.map_epoch = 1
        self.journal = None
        self.service = None
        self.dedup = {}      # (client_id, op_id) -> recorded result
        self.sessions = {}   # client_id -> highest op_id seen
        self._tail_pos = {}  # rank -> journal bytes absorbed while standby
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
        self.sim.trace("mds", "crash", gid=self.gid, rank=self.rank)
        self.metrics.counter("crashes").add(1)

    def recover_local(self):
        """Journal-backed in-place recovery (sim generator).

        The one restart of a daemon: sessions and caps are lost (clients
        reestablish), the op-id dedup table is rebuilt from the journal,
        and records that were journaled but never applied land now.
        """
        self.state = "replay"
        self.crashed = False
        self.available = True
        self.caps = CapsTable()
        self.dedup = {}
        self.sessions = {}
        self.session_epoch += 1
        self.sim.trace("mds", "replay_recover", gid=self.gid,
                       session_epoch=self.session_epoch)
        yield from self.replay_journal(self.journal, self.rank, from_bytes=0)
        self.state = "active"
        self.metrics.counter("restarts").add(1)

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

    def _op(self, map_epoch=None, client_id=None, op_id=None):
        """Pay the MDS service cost under the concurrency bound.

        Returns a resent mutation's recorded result, else the miss
        sentinel (always the miss when the journal is disarmed).
        """
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
        if client_id is None or op_id is None or self.journal is None:
            return _MISS
        hit = self.dedup.get((client_id, op_id), _MISS)
        if hit is not _MISS:
            self.metrics.counter("dedup_hits").add(1)
        return hit

    def _fence(self, map_epoch):
        """Reject ops this daemon must not serve under the current map."""
        if self.state in ("standby", "stopped") or map_epoch < self.map_epoch:
            self.metrics.counter("fenced_ops").add(1)
            raise OldEpoch(
                "mds gid %d fenced (op epoch %s < map epoch %d)"
                % (self.gid, map_epoch, self.map_epoch)
            )
        if self.state == "replay":
            raise ServiceRestarting("mds rank %d replaying journal" % self.rank)

    def _remember(self, client_id, op_id, result):
        """Record a mutation's result in the dedup and session tables."""
        if client_id is None or op_id is None:
            return
        self.dedup[(client_id, op_id)] = result
        prev = self.sessions.get(client_id)
        if prev is None or op_id > prev:
            self.sessions[client_id] = op_id

    def _mutation(self, op, fields, client_id, op_id, exclusive=False):
        """Journal one mutation's record, apply it, return its result.

        Sim generator. The caller has run the op's checks already (a
        doomed mutation must never reach the journal). The namespace
        changes only through :meth:`_apply_record`, the method replay
        runs, so the record's mtime is the live mtime and a replayed
        namespace is the one the clients saw. The one branch: disarmed,
        nothing is journaled and nothing yields; armed, the record is
        appended first and the apply follows it with no yield between.
        """
        record = dict(fields, op=op)
        journal = self.journal
        if journal is None:
            return self._apply_record(record, exclusive)
        seq = journal.next_seq
        journal.next_seq += 1
        record.update(client=client_id, op_id=op_id, seq=seq)
        yield from journal.append(record)
        self.metrics.counter("journal_entries").add(1)
        if self.crashed:
            # SIGKILL raced the append: the record is durable but this
            # process never applies it — the promoted standby's replay
            # will, and the client's resend dedups against it.
            raise OpTimeout("mds crashed")
        if self.state != "active":
            raise OldEpoch("mds gid %d deposed during journal append"
                           % self.gid)
        result = self._apply_record(record, exclusive)
        self.store.applied.setdefault(self.rank, set()).add(seq)
        self._pending_apply.pop(seq, None)
        self._remember(client_id, op_id, result)
        return result

    # -- server-side operations (sim generators) ---------------------------

    def lookup(self, path, map_epoch=None):
        yield from self._op(map_epoch)
        return self._info(self.tree.lookup(path))

    def create(self, path, exclusive=False, mode=0o644, truncate=False,
               client_id=None, op_id=None, map_epoch=None):
        """Create a file, or open an existing one; ``truncate`` (O_TRUNC)
        cuts an existing file to size 0 in the same op."""
        hit = yield from self._op(map_epoch, client_id, op_id)
        if hit is not _MISS:
            return hit
        _parent, _name, existing = self.tree.check_create(path, exclusive)
        if existing is not None:
            if truncate:
                return (yield from self._mutation(
                    "setattr",
                    {"path": path, "ino": existing.ino, "size": 0,
                     "mtime": self.sim.now, "truncate": True},
                    client_id, op_id,
                ))
            # Open-existing: no namespace mutation, nothing to journal.
            self._bump(existing)
            return self._info(existing)
        return (yield from self._mutation(
            "create",
            {"path": path, "mode": mode, "ino": self.tree._alloc_ino(),
             "mtime": self.sim.now},
            client_id, op_id, exclusive,
        ))

    def mkdir(self, path, mode=0o755, client_id=None, op_id=None,
              map_epoch=None):
        hit = yield from self._op(map_epoch, client_id, op_id)
        if hit is not _MISS:
            return hit
        self.tree.check_mkdir(path)
        return (yield from self._mutation(
            "mkdir",
            {"path": path, "mode": mode, "ino": self.tree._alloc_ino(),
             "mtime": self.sim.now},
            client_id, op_id,
        ))

    def rmdir(self, path, client_id=None, op_id=None, map_epoch=None):
        hit = yield from self._op(map_epoch, client_id, op_id)
        if hit is not _MISS:
            return hit
        self.tree.check_rmdir(path)
        return (yield from self._mutation(
            "rmdir", {"path": path, "mtime": self.sim.now}, client_id, op_id,
        ))

    def unlink(self, path, client_id=None, op_id=None, map_epoch=None):
        """Remove a file; returns its (ino, size) for object purging."""
        hit = yield from self._op(map_epoch, client_id, op_id)
        if hit is not _MISS:
            return hit
        _parent, _name, node = self.tree.check_unlink(path)
        return (yield from self._mutation(
            "unlink",
            {"path": path, "ino": node.ino, "size": node.size,
             "mtime": self.sim.now},
            client_id, op_id,
        ))

    def readdir(self, path, map_epoch=None):
        yield from self._op(map_epoch)
        names = self.tree.readdir(path)
        # Marshalling grows with the directory size.
        yield self.costs.dirent_op * max(len(names), 1)
        return names

    def rename(self, old_path, new_path, client_id=None, op_id=None,
               map_epoch=None):
        hit = yield from self._op(map_epoch, client_id, op_id)
        if hit is not _MISS:
            return hit
        self.tree.check_rename(old_path, new_path)
        return (yield from self._mutation(
            "rename",
            {"old": old_path, "new": new_path, "mtime": self.sim.now},
            client_id, op_id,
        ))

    def setattr_size(self, path, size, mtime=None, truncate=False,
                     client_id=None, op_id=None, map_epoch=None):
        """Record the new size/mtime of a file: a client cap flush, or
        with ``truncate`` a truncate, whose cut of the stored objects
        is part of the op."""
        hit = yield from self._op(map_epoch, client_id, op_id)
        if hit is not _MISS:
            return hit
        node = self.tree.lookup(path)
        if node.is_dir:
            raise IsADirectory(path=path)
        if size < 0:
            raise InvalidArgument("negative size")
        fields = {"path": path, "ino": node.ino, "size": size,
                  "mtime": mtime if mtime is not None else self.sim.now}
        if truncate:
            fields["truncate"] = True
        return (yield from self._mutation("setattr", fields, client_id, op_id))

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

    def absorb(self, rank, record, apply=True):
        """Fold one journal record into this daemon's rank state.

        Session/dedup tables always rebuild. With ``apply`` (promotion
        or local recovery) a record the crashed active journaled but
        never applied lands in the store now; a tailing standby passes
        ``apply=False`` — the live active still owns the store — and
        parks unapplied records in ``_pending_apply`` for promotion.
        """
        seq = record["seq"]
        applied = self.store.applied.setdefault(rank, set())
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

    def replay_journal(self, journal, rank, from_bytes=0):
        """Replay a journal tail into this daemon (sim generator).

        Pays the OSD reads plus per-record replay CPU; flushes any
        records tailed earlier that the dead active never applied.
        Returns the number of records replayed.
        """
        started = self.sim.now
        records, consumed = yield from journal.read_from(from_bytes)
        for record in records:
            yield self.costs.mds_replay_op
            self.absorb(rank, record, apply=True)
        # Records absorbed while tailing whose apply never happened
        # (the active died between journal append and apply).
        applied = self.store.applied.setdefault(rank, set())
        for seq in sorted(self._pending_apply):
            record = self._pending_apply[seq]
            if seq not in applied:
                yield self.costs.mds_replay_op
                self._replay_record(record)
                applied.add(seq)
        self._pending_apply = {}
        self._tail_pos[rank] = from_bytes + consumed
        duration = self.sim.now - started
        self.metrics.counter("replays").add(1)
        self.metrics.counter("replayed_records").add(len(records))
        self.metrics.gauge("replay_s").set(duration)
        self.metrics.gauge("sessions").set(len(self.sessions))
        self.sim.trace("mds", "replayed", gid=self.gid, rank=rank,
                       records=len(records), duration=duration)
        return len(records)

    # -- helpers used by the cluster (no cost) --------------------------------

    def node_of(self, path):
        return self.tree.lookup(path)


class MdsService(object):
    """Coordinator for metadata HA: the daemon pool, per-rank journals
    and the Monitor-published :class:`MdsMap`.

    Created by ``cluster.enable_mds_ha``; never on the fault-free path.
    The cluster's original single daemon becomes rank 0's active, spare
    daemons join the standby pool and tail the active journals, and the
    monitor's heartbeat loop calls :meth:`check_heartbeats` each probe
    round to drive failover.
    """

    def __init__(self, cluster, standbys=1, ranks=1):
        self.cluster = cluster
        self.sim = cluster.sim
        self.costs = cluster.costs
        primary = cluster._mds
        primary.service = self
        self.store = primary.store
        self.daemons = {primary.gid: primary}
        self._next_gid = primary.gid + 1
        self.session_epoch = primary.session_epoch
        self.epoch = 0
        self.active_gids = [primary.gid]   # rank -> gid
        self.standby_gids = []
        self.journals = {0: MdsJournal(cluster, 0)}
        primary.journal = self.journals[0]
        primary.rank = 0
        primary.state = "active"
        self.metrics = self.sim.metrics("mds")
        self._tails = {}       # gid -> tail process
        self._promoting = set()
        self._hb_misses = {}   # rank -> consecutive missed probes
        for _ in range(max(0, standbys)):
            self.add_standby()
        self._publish("mds_ha_armed")
        for _ in range(max(1, ranks) - 1):
            self.split_rank()

    # -- map publication ---------------------------------------------------

    def _publish(self, event, rank=None):
        self.epoch += 1
        mdsmap = MdsMap(self.epoch, self.active_gids, self.standby_gids,
                        self.session_epoch)
        for daemon in self.daemons.values():
            daemon.map_epoch = self.epoch
        self.cluster.monitor.publish_mdsmap(mdsmap, event, rank=rank)
        self.metrics.gauge("map_epoch").set(self.epoch)
        return mdsmap

    # -- pool management ---------------------------------------------------

    def _new_daemon(self):
        daemon = Mds(self.sim, self.costs, self.cluster.cut,
                     store=self.store, gid=self._next_gid)
        daemon.service = self
        daemon.session_epoch = self.session_epoch
        daemon.map_epoch = self.epoch
        self.daemons[daemon.gid] = daemon
        self._next_gid += 1
        return daemon

    def add_standby(self):
        """Add one standby-replay daemon tailing the active journals."""
        daemon = self._new_daemon()
        daemon.state = "standby"
        daemon.rank = None
        self.standby_gids.append(daemon.gid)
        self._start_tail(daemon)
        return daemon

    def active_daemon(self, rank):
        return self.daemons[self.active_gids[rank]]

    @property
    def num_ranks(self):
        return len(self.active_gids)

    def healthy(self):
        """Every rank has a live, non-replaying active daemon."""
        if self._promoting:
            return False
        for gid in self.active_gids:
            daemon = self.daemons[gid]
            if daemon.crashed or not daemon.available \
                    or daemon.state != "active":
                return False
        return True

    # -- standby-replay tail ----------------------------------------------

    def _start_tail(self, daemon):
        self._tails[daemon.gid] = self.sim.spawn(
            self._tail_loop(daemon), name="mds-standby-tail"
        )

    def _tail_loop(self, daemon):
        """Standby-replay: periodically absorb the tail of one rank's
        journal so promotion only replays the remaining lag."""
        while daemon.state == "standby" and not daemon.crashed:
            yield self.costs.mds_tail_interval
            if daemon.state != "standby" or daemon.crashed:
                break
            try:
                index = self.standby_gids.index(daemon.gid)
            except ValueError:
                break
            rank = index % max(1, len(self.active_gids))
            journal = self.journals[rank]
            pos = daemon._tail_pos.get(rank, 0)
            lag = journal.length - pos
            if lag <= 0:
                self.metrics.gauge("r%d.journal_lag" % rank).set(0)
                continue
            records, consumed = yield from journal.read_from(pos)
            if daemon.state != "standby" or daemon.crashed:
                break
            for record in records:
                daemon.absorb(rank, record, apply=False)
            daemon._tail_pos[rank] = pos + consumed
            self.metrics.gauge("r%d.journal_lag" % rank).set(
                journal.length - daemon._tail_pos[rank]
            )

    # -- heartbeats / failover ---------------------------------------------

    def check_heartbeats(self):
        """One monitor probe round over the active daemons (pure).

        Promotions are spawned, never run inline, so the heartbeat loop
        keeps its cadence regardless of replay duration.
        """
        for rank, gid in enumerate(list(self.active_gids)):
            daemon = self.daemons[gid]
            if not daemon.crashed:
                self._hb_misses.pop(rank, None)
                continue
            if rank in self._promoting:
                continue
            misses = self._hb_misses.get(rank, 0) + 1
            self._hb_misses[rank] = misses
            if misses >= self.costs.mds_heartbeat_grace and self.standby_gids:
                self._hb_misses.pop(rank, None)
                self.metrics.counter("heartbeat_failures").add(1)
                self._promoting.add(rank)
                self.sim.spawn(self._promote(rank), name="mds-promote")

    def failover(self, rank=0):
        """Administrative failover (sim generator): promote a standby and
        fence the still-live active via mdsmap-epoch rejection."""
        if rank in self._promoting or not self.standby_gids:
            return
        self._promoting.add(rank)
        yield from self._promote(rank)

    def _promote(self, rank):
        """Promote a standby into ``rank``: publish the new map (fencing
        the deposed active), bump session epochs, replay the journal lag.
        The caller must already have claimed ``rank`` in ``_promoting``.
        """
        try:
            old = self.daemons[self.active_gids[rank]]
            gid = self._pick_standby(rank)
            standby = self.daemons[gid]
            self.standby_gids.remove(gid)
            started = self.sim.now
            standby.state = "replay"
            standby.rank = rank
            standby.journal = self.journals[rank]
            standby.caps = CapsTable()
            old.state = "stopped"
            old.journal = None
            self.active_gids[rank] = gid
            self.session_epoch += 1
            for daemon in self.daemons.values():
                daemon.session_epoch = self.session_epoch
            self._publish("mds_failover", rank=rank)
            self.metrics.counter("failovers").add(1)
            pos = standby._tail_pos.get(rank, 0)
            yield from standby.replay_journal(self.journals[rank], rank,
                                              from_bytes=pos)
            standby.state = "active"
            self.sim.trace("mds", "promoted", rank=rank, gid=gid,
                           replay_s=self.sim.now - started)
        finally:
            self._promoting.discard(rank)

    def _pick_standby(self, rank):
        """Prefer the standby that has been tailing this rank's journal."""
        best = self.standby_gids[0]
        best_pos = -1
        for gid in self.standby_gids:
            pos = self.daemons[gid]._tail_pos.get(rank, 0)
            if pos > best_pos:
                best, best_pos = gid, pos
        return best

    def restore(self, gid):
        """Restart a SIGKILLed daemon (fault heal; sim generator).

        If a standby already took its rank it rejoins as an empty
        standby; if no standby ever did, it recovers in place through
        journal replay.
        """
        daemon = self.daemons[gid]
        if not daemon.crashed:
            return
        if gid in self.active_gids:
            rank = self.active_gids.index(gid)
            daemon.crashed = False
            daemon.caps = CapsTable()
            daemon.dedup = {}
            daemon.sessions = {}
            daemon._tail_pos = {}
            daemon._pending_apply = {}
            daemon.state = "replay"
            self.session_epoch += 1
            for other in self.daemons.values():
                other.session_epoch = self.session_epoch
            self._publish("mds_recover", rank=rank)
            yield from daemon.replay_journal(self.journals[rank], rank,
                                             from_bytes=0)
            daemon.state = "active"
        else:
            self.rejoin(gid)

    def rejoin(self, gid):
        """A deposed or SIGKILLed daemon restarts as an empty standby."""
        daemon = self.daemons[gid]
        daemon.crashed = False
        daemon.available = True
        daemon.state = "standby"
        daemon.rank = None
        daemon.journal = None
        daemon.dedup = {}
        daemon.sessions = {}
        daemon.caps = CapsTable()
        daemon._tail_pos = {}
        daemon._pending_apply = {}
        if gid not in self.standby_gids and gid not in self.active_gids:
            self.standby_gids.append(gid)
            self._start_tail(daemon)
        self.metrics.counter("rejoins").add(1)
        self._publish("mds_rejoin")

    # -- rank growth -------------------------------------------------------

    def split_rank(self):
        """Grow max_mds by one rank (the mds_rank_split fault).

        A standby (or a fresh daemon) takes the new rank with an empty
        journal; directory hashes repartition over the larger rank
        count, dedup tables are unioned across all actives so pre-split
        resends stay exactly-once wherever they now route, and cap
        records re-home to the rank that owns their ino under the new
        map.
        """
        rank = len(self.active_gids)
        if not self.standby_gids:
            self.add_standby()
        gid = self.standby_gids.pop(0)
        daemon = self.daemons[gid]
        daemon.rank = rank
        daemon.state = "active"
        daemon.caps = CapsTable()
        daemon._tail_pos = {}
        daemon._pending_apply = {}
        journal = MdsJournal(self.cluster, rank)
        self.journals[rank] = journal
        daemon.journal = journal
        self.active_gids.append(gid)
        union = {}
        for other_gid in self.active_gids:
            union.update(self.daemons[other_gid].dedup)
        for other_gid in self.active_gids:
            self.daemons[other_gid].dedup.update(union)
        self.metrics.counter("rank_splits").add(1)
        mdsmap = self._publish("mds_rank_split", rank=rank)
        # Re-home cap records onto the rank owning their ino.
        for owner_gid in list(self.active_gids):
            owner = self.daemons[owner_gid]
            moved = owner.caps.export_inos(
                lambda ino: mdsmap.rank_of_ino(ino) != owner.rank
            )
            for ino, holders in moved.items():
                target = self.daemons[
                    self.active_gids[mdsmap.rank_of_ino(ino)]
                ]
                target.caps.absorb({ino: holders})
        return rank

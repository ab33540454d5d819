"""Tests for the client locking policies (`repro.cephclient.locking`).

Covers: policy selection and validation, schedule stability of the
default global path, byte integrity under concurrent mixed I/O per
policy (including the O_APPEND two-appender race), inode-lock retirement
on unlink and dirty-throttle waiter hygiene.
"""

import pytest

from repro.cephclient import CephLibClient
from repro.cephclient.locking import POLICIES, LockingPolicy
from repro.common import units
from repro.common.errors import ConfigError
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.hw import Machine
from repro.net import Fabric
from repro.sim import Simulator
from repro.sim.sync import Mutex
from repro.stacks import StackFactory
from repro.storage import CephCluster
from repro.world import World
from tests.conftest import make_task, run


def make_world(num_osds=4, **client_kwargs):
    sim = Simulator()
    machine = Machine(sim, num_cores=8, ram_bytes=units.gib(4))
    costs = client_kwargs.pop("costs", None) or CostModel(
        object_size=units.kib(256)
    )
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=num_osds)
    account = machine.ram.child(units.mib(256), "pool-ram")
    client = CephLibClient(
        sim, cluster, costs, account, machine.activated,
        name=client_kwargs.pop("name", "lk"), **client_kwargs
    )
    return sim, machine, cluster, client


# --- policy selection -------------------------------------------------------

@pytest.mark.parametrize("policy", ["inode", "adaptive", "banana"])
def test_unknown_policy_rejected(policy):
    assert POLICIES == ("global", "range")
    with pytest.raises(ConfigError, match="unknown locking policy"):
        make_world(locking=policy)
    world = World(num_cores=2, ram_bytes=units.gib(1))
    world.primary.activate_cores(2)
    pool = world.primary.engine.create_pool(
        "p", num_cores=2, ram_bytes=units.mib(256)
    )
    with pytest.raises(ConfigError, match="unknown locking policy"):
        StackFactory(pool, "D", locking=policy).mount_root("c0")
    # A K stack builds no lib client, and still rejects the name.
    with pytest.raises(ConfigError, match="unknown locking policy"):
        StackFactory(pool, "K", locking=policy)


# --- lock-table arithmetic (pure unit) --------------------------------------

def test_range_lock_stripes_and_extent_dedup():
    sim = Simulator()
    policy = LockingPolicy(
        sim, "t", Mutex(sim, name="t.client_lock"),
        policy="range", range_stripe=100,
    )
    locks = policy.range_locks(7, 250, 120)  # covers stripes 2 and 3
    assert [lock.name for lock in locks] == ["t.ino7.r2", "t.ino7.r3"]
    # Same stripes come back as the same Mutex objects.
    assert policy.range_locks(7, 299, 1) == [locks[0]]
    assert len(sim.registered_locks()) == 2


def test_drop_ino_unregisters_and_retires_stats():
    sim = Simulator()
    policy = LockingPolicy(
        sim, "t", Mutex(sim, name="t.client_lock"),
        policy="range", range_stripe=100,
    )
    ino_lock = policy.inode_lock(5)
    policy.range_locks(5, 0, 250)
    assert len(sim.registered_locks()) == 4

    def toucher():
        yield ino_lock.acquire(who=None)
        ino_lock.release()

    run(sim, toucher())
    policy.drop_ino(5)
    assert 5 not in policy._ino_locks
    assert 5 not in policy._range_locks
    remaining = sim.registered_locks()
    # The dropped locks are gone; one retired bucket holds their stats.
    assert [entry[2] for entry in remaining] == ["retired"]
    assert remaining[0][3].stats.acquisitions == 1
    # A recycled ino gets a fresh lock, not the departed one.
    assert policy.inode_lock(5) is not ino_lock


# --- schedule stability of the default path ---------------------------------

def _mixed_trace(**client_kwargs):
    """Timestamps of a deterministic mixed op sequence on one client."""
    sim, machine, _, client = make_world(**client_kwargs)
    task = make_task(sim, machine)
    stamps = []

    def proc():
        yield from client.write_file(task, "/a", b"a" * units.kib(96))
        stamps.append(("wa", sim.now))
        yield from client.write_file(task, "/b", b"b" * units.kib(32),
                                     sync=True)
        stamps.append(("wb", sim.now))
        handle = yield from client.open(
            task, "/a", OpenFlags.WRONLY | OpenFlags.APPEND
        )
        yield from client.write(task, handle, 0, b"tail")
        yield from client.close(task, handle)
        stamps.append(("append", sim.now))
        data = yield from client.read_file(task, "/a")
        stamps.append(("ra", sim.now, len(data)))
        stat = yield from client.stat(task, "/b")
        stamps.append(("stat", sim.now, stat.size))
        yield from client.rename(task, "/b", "/c")
        yield from client.unlink(task, "/c")
        stamps.append(("ns", sim.now))

    run(sim, proc())
    return stamps


def test_default_global_schedule_is_deterministic():
    assert _mixed_trace() == _mixed_trace()


def test_explicit_global_matches_default_schedule():
    """`locking="global"` must be the identity: same event schedule as a
    client built with no locking argument (the engine-bench fingerprints
    pin the same property on the full benchmark scenarios)."""
    assert make_world()[3]._locking.policy == "global"
    assert _mixed_trace(locking="global") == _mixed_trace()


# --- byte integrity under concurrent mixed I/O ------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_concurrent_disjoint_writers_and_readers(policy):
    """N writers on disjoint regions of one file plus concurrent readers:
    every policy must assemble the same final bytes."""
    sim, machine, _, client = make_world(locking=policy)
    chunk = units.kib(64)
    workers = 4
    setup = make_task(sim, machine, "setup")

    def prepare():
        yield from client.write_file(
            setup, "/mix", b"\0" * (chunk * workers), sync=True
        )

    run(sim, prepare())
    reads = []

    def writer(index):
        task = make_task(sim, machine, "w%d" % index)
        handle = yield from client.open(task, "/mix", OpenFlags.RDWR)
        payload = bytes([ord("A") + index]) * chunk
        yield from client.write(task, handle, index * chunk, payload)
        yield from client.close(task, handle)

    def reader(index):
        task = make_task(sim, machine, "r%d" % index)
        data = yield from client.read_file(task, "/mix")
        reads.append(data)

    procs = [sim.spawn(writer(i)) for i in range(workers)]
    procs += [sim.spawn(reader(i)) for i in range(2)]
    sim.run(until=50)
    assert all(p.triggered for p in procs)
    task = make_task(sim, machine, "check")

    final = run(sim, client.read_file(task, "/mix"))
    expected = b"".join(
        bytes([ord("A") + i]) * chunk for i in range(workers)
    )
    assert final == expected
    # Concurrent readers saw only whole-chunk states (zeroes or the
    # writer's byte), never a torn chunk.
    for data in reads:
        assert len(data) == chunk * workers
        for index in range(workers):
            block = set(data[index * chunk:(index + 1) * chunk])
            assert len(block) == 1


@pytest.mark.parametrize("policy", POLICIES)
def test_concurrent_appenders_never_clobber(policy):
    """The O_APPEND regression: each appender resolves its offset under
    the state lock, so two racing appenders always land on disjoint
    offsets — the file ends up with every block intact."""
    sim, machine, _, client = make_world(locking=policy)
    block = 512
    rounds = 4
    setup = make_task(sim, machine, "setup")
    run(sim, client.write_file(setup, "/log", b""))

    def appender(char):
        task = make_task(sim, machine, "app-%s" % char)
        handle = yield from client.open(
            task, "/log", OpenFlags.WRONLY | OpenFlags.APPEND
        )
        for _ in range(rounds):
            yield from client.write(task, handle, 0, char * block)
        yield from client.close(task, handle)

    procs = [sim.spawn(appender(b"a")), sim.spawn(appender(b"b"))]
    sim.run(until=50)
    assert all(p.triggered for p in procs)
    task = make_task(sim, machine, "check")
    final = run(sim, client.read_file(task, "/log"))
    # No lost update: every append landed.
    assert len(final) == 2 * rounds * block
    assert final.count(b"a"[0]) == rounds * block
    assert final.count(b"b"[0]) == rounds * block
    # And every block is contiguous — no interleaving inside an append.
    for index in range(0, len(final), block):
        assert len(set(final[index:index + block])) == 1


# --- unlink retires per-inode locking state ---------------------------------

def test_unlink_cleans_seq_end_and_lock_table():
    sim, machine, _, client = make_world(locking="range")
    task = make_task(sim, machine)

    def proc():
        yield from client.write_file(task, "/f", b"z" * units.kib(64),
                                     sync=True)
        yield from client.read_file(task, "/f")
        ino = client.attr_cache["/f"].ino
        assert ino in client._readahead._ends
        assert ino in client._locking._ino_locks
        yield from client.unlink(task, "/f")
        return ino

    ino = run(sim, proc())
    assert ino not in client._readahead._ends
    assert ino not in client._locking._ino_locks
    assert ino not in client._locking._range_locks
    # The registry kept only the retired bucket (and the long-lived
    # ``-1`` namespace pseudo-inode) — no dangling per-inode entries.
    leftover = [
        entry for entry in sim.registered_locks()
        if entry[1] in ("ino_lock", "range_lock")
        and entry[2] not in ("retired", -1)
    ]
    assert leftover == []
    retired = [
        entry for entry in sim.registered_locks() if entry[2] == "retired"
    ]
    assert len(retired) == 1
    assert retired[0][3].stats.acquisitions > 0


# --- dirty-throttle waiter hygiene ------------------------------------------

def test_throttle_timeout_removes_stale_waiter():
    """When the throttle's timeout wins the race against flush progress,
    the dead event must leave `_flush_waiters` — otherwise every stalled
    round leaks one entry until a flush walks the whole graveyard."""
    sim, machine, _, client = make_world(start_flusher=False)
    client.max_dirty = units.kib(16)
    task = make_task(sim, machine)

    def blocked_writer():
        yield from client.write_file(task, "/big", b"d" * units.kib(64))

    proc = sim.spawn(blocked_writer())
    # Three writeback intervals pass with no flusher: three timeout wins.
    sim.run(until=3.5)
    assert not proc.triggered
    assert client.metrics.counter("throttle_waits").value >= 3
    # Only the currently-armed waiter may be present — no stale pile-up.
    assert len(client._flush_waiters) <= 1

    def unblock():
        flush_task = make_task(sim, machine, "flush")
        yield from client.flush_all(flush_task)

    sim.spawn(unblock())
    sim.run(until=sim.now + 20)
    assert proc.triggered
    assert client._flush_waiters == []

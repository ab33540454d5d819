"""A flushed byte is stored once: OSD objects hold payload chunks by
reference. These tests pin what that sharing must never break (a caller's
mutable buffer is not aliased, a fault stays on its own replica) and
what it buys (no per-replica and no per-peek copy)."""

import os
import tracemalloc

import pytest

import repro
from repro.cephclient import CephLibClient
from repro.common import units
from repro.common.rng import make_rng
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.net import Fabric
from repro.storage import CephCluster
from tests.conftest import MUTABLE_BUFFERS, make_task, run

MIB = units.mib(1)


@pytest.fixture
def costs():
    return CostModel(object_size=MIB)


def make_cluster(sim, costs, replicas=2):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=replicas)


def held_under(snapshot, *packages):
    """Bytes still allocated whose allocation site is in ``repro/<pkg>/``."""
    root = os.path.dirname(repro.__file__)
    kept = snapshot.filter_traces([
        tracemalloc.Filter(True, os.path.join(root, package, "*"))
        for package in packages
    ])
    return sum(stat.size for stat in kept.statistics("filename"))


# --- a mutable buffer handed straight to an OSD is not aliased ---------------

@pytest.mark.parametrize("kind", sorted(MUTABLE_BUFFERS))
@pytest.mark.parametrize("entry", ["write", "write_vector"])
def test_mutable_buffer_written_to_an_osd_is_snapshotted(sim, costs, kind, entry):
    osd = make_cluster(sim, costs).osds[0]
    source = bytearray(b"acknowledged-bytes")
    buf = MUTABLE_BUFFERS[kind](source)
    if entry == "write":
        run(sim, osd.write(5, 0, 0, buf, 0))
    else:
        run(sim, osd.write_vector(5, [(0, 0, buf)], 0))
    source[:] = b"X" * len(source)
    assert bytes(osd._objects[(5, 0)]) == b"acknowledged-bytes"


# --- replicas share the payload and stay independently corruptible -----------

def test_replicas_share_the_payload_and_a_fault_stays_on_one(sim, costs):
    cluster = make_cluster(sim, costs, replicas=2)
    cluster.enable_integrity()
    payload = bytes(range(256)) * 64  # 16 KiB = 4 integrity chunks
    pristine = bytes(bytearray(payload))  # an independent copy
    run(sim, cluster.write_extent(9, 0, payload))
    bitrot_id, torn_id = cluster.monitor.holders(9, 0)
    for osd_id in (bitrot_id, torn_id):
        # The by-reference contract: no replica owns a copy.
        assert cluster.osds[osd_id]._objects[(9, 0)].read(0, len(payload)) \
            is payload
    memo = cluster.peek(9, 0, len(payload))
    assert cluster.peek(9, 0, len(payload)) is memo  # memoised

    victim, other = cluster.osds[bitrot_id], cluster.osds[torn_id]
    assert victim.inject_bitrot(9, 0, make_rng(3, "sharing")) > 0
    assert bytes(victim._objects[(9, 0)]) != pristine
    assert bytes(other._objects[(9, 0)]) == pristine
    assert payload == pristine and memo == pristine
    assert not victim.replica_clean(9, 0) and other.replica_clean(9, 0)

    # Now tear the other replica: the first keeps its (rotten) full length.
    run(sim, cluster.write_extent(10, 0, payload))
    first, second = (cluster.osds[i] for i in cluster.monitor.holders(10, 0))
    memo = cluster.peek(10, 0, len(payload))
    assert second.inject_torn_write(10, 0) == len(payload) // 2
    assert bytes(second._objects[(10, 0)]) == pristine[:len(payload) // 2]
    assert first._objects[(10, 0)].read(0, len(payload)) is payload
    assert payload == pristine and memo == pristine
    assert not second.replica_clean(10, 0) and first.replica_clean(10, 0)


# --- allocation bounds: the copy cannot come back unnoticed ------------------

def test_flush_at_two_replicas_allocates_no_copy_of_the_payload(
        sim, machine, costs):
    """16 x 1 MiB through a lib client, fsync, replicas=2: what storage/
    and common/ still hold afterwards is bookkeeping, not payload (one
    copy per replica, 32 MiB, before objects shared the chunks)."""
    cluster = make_cluster(sim, costs, replicas=2)
    client = CephLibClient(
        sim, cluster, costs, machine.ram.child(units.mib(256), "pool-ram"),
        machine.activated, name="libc-sharing",
    )
    task = make_task(sim, machine)
    payloads = [bytes([index + 1]) * MIB for index in range(16)]

    def proc():
        handle = yield from client.open(
            task, "/big", OpenFlags.WRONLY | OpenFlags.CREAT
        )
        for index, payload in enumerate(payloads):
            yield from client.write(task, handle, index * MIB, payload)
        yield from client.fsync(task, handle)

    tracemalloc.start()
    try:
        run(sim, proc())
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert cluster.stored_bytes == 2 * 16 * MIB  # both replicas hold it all
    assert held_under(snapshot, "storage", "common") < 0.25 * 16 * MIB


def test_cached_whole_object_peeks_allocate_no_copy(sim, costs):
    """64 peeks of whole 1 MiB objects, all memoised: the memo shares the
    stored chunks (it used to keep one 1 MiB copy per entry)."""
    cluster = make_cluster(sim, costs, replicas=1)
    payloads = [bytes([index + 1]) * MIB for index in range(64)]
    for index, payload in enumerate(payloads):
        run(sim, cluster.write_extent(11, index * MIB, payload))
    tracemalloc.start()
    try:
        peeked = [
            cluster.peek(11, index * MIB, MIB) for index in range(64)
        ]
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cluster._peek_memo) == 64
    assert current < MIB
    assert all(mine is theirs for mine, theirs in zip(peeked, payloads))


def test_peek_memo_keeps_only_shared_chunks(sim, costs):
    """A peek that had to gather extents, zero-fill a tail or a hole, or
    copy part of a chunk is not memoised: the entry would be a private
    copy the OSD does not hold. An aligned whole-chunk re-read still
    hits the memo and hands back the stored object."""
    cluster = make_cluster(sim, costs, replicas=1)
    first = b"a" * MIB
    second = b"b" * MIB
    run(sim, cluster.write_extent(12, 0, first))
    run(sim, cluster.write_extent(12, MIB, second))
    run(sim, cluster.write_extent(12, 3 * MIB, b"tail"))

    gathered = cluster.peek(12, MIB // 2, MIB)  # spans two objects
    assert gathered == first[MIB // 2:] + second[:MIB // 2]
    zero_filled = cluster.peek(12, 3 * MIB, 64)  # past the written tail
    assert zero_filled == b"tail" + bytes(60)
    hole = cluster.peek(12, 2 * MIB, 16)  # an object never written
    assert hole == bytes(16)
    part = cluster.peek(12, 16, 32)  # a slice of one chunk
    assert part == first[16:48]
    assert cluster._peek_memo == {}

    assert cluster.peek(12, MIB, MIB) is second
    (entry,) = cluster._peek_memo.values()
    assert cluster.peek(12, MIB, MIB) is second
    assert list(cluster._peek_memo.values()) == [entry]  # a hit, not a refill
    assert cluster._peek_memo[12, MIB, MIB] is entry

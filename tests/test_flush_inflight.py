"""The lib client's flush without ``client_lock``: the in-flight layer.

A flush takes its batch under the state lock, sends it with no client
or inode lock held, and publishes under the state lock again, inside the
inode's flush mutex. While the batch travels it sits in the object
cache's in-flight (``tx``) layer. Each test below holds one send open on
a gate (a wrapped ``write_vector``) and checks one thing that layer, or
the flush mutex, must get right while the gate is shut.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cephclient import CephLibClient, ObjectCache
from repro.common import units
from repro.common.errors import DataUnavailable, FsError
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.hw import Machine, RamAccount
from repro.net import Fabric
from repro.sim import Simulator
from repro.storage import CephCluster
from tests.conftest import make_task, run

POLICIES = ["global", "range"]
SIZE = units.kib(64)


class World(object):
    """One lib client (no background flusher) over a four-OSD cluster."""

    def __init__(self, locking="global"):
        self.sim = Simulator()
        self.machine = Machine(self.sim, num_cores=8, ram_bytes=units.gib(4))
        costs = CostModel(object_size=units.kib(256))
        self.cluster = CephCluster(self.sim, Fabric(self.sim), costs,
                                   num_osds=4)
        self.client = CephLibClient(
            self.sim, self.cluster, costs,
            self.machine.ram.child(units.mib(256), "pool-ram"),
            self.machine.activated, name="fl", locking=locking,
            start_flusher=False,
        )

    def task(self, name="t"):
        return make_task(self.sim, self.machine, name)

    def run(self, gen, until=10.0):
        return run(self.sim, gen, until=until)

    def gate_sends(self, fail=False):
        """Hold the next ``write_vector`` until the returned event
        triggers; with ``fail`` it then raises instead of writing. Later
        sends go straight through."""
        gate = self.sim.event()
        real = self.cluster.write_vector
        calls = []

        def write_vector(ino, extents):
            calls.append(ino)
            if len(calls) == 1:
                yield gate
                if fail:
                    raise DataUnavailable("gated send failed")
            return (yield from real(ino, extents))

        self.cluster.write_vector = write_vector
        return gate

    def start_flush(self, ino):
        """Spawn a flush of ``ino`` and run until its batch is in flight.
        The process returns the bytes flushed, or the error it raised."""

        def flush():
            try:
                return (yield from self.client._flush_ino(self.task("f"), ino))
            except FsError as error:
                return error

        process = self.sim.spawn(flush())
        while self.client.cache.inflight_buffer(ino) is None:
            assert not process.triggered
            self.sim.run(until=self.sim.now + 1e-5)
        return process

    def write(self, path, offset, data, flags=OpenFlags.RDWR):
        def proc():
            task = self.task("w")
            handle = yield from self.client.open(task, path, flags)
            yield from self.client.write(task, handle, offset, data)
            yield from self.client.close(task, handle)
            return handle.ino

        return self.run(proc())

    def reader(self, path, offset, size):
        """The generator of one open, read and close."""

        def proc():
            task = self.task("r")
            handle = yield from self.client.open(task, path)
            data = yield from self.client.read(task, handle, offset, size)
            yield from self.client.close(task, handle)
            return data

        return proc()

    def stored(self, ino, size):
        return self.cluster.peek(ino, 0, size)


@pytest.mark.parametrize("policy", POLICIES)
def test_reads_and_peeks_of_an_in_flight_range_return_the_new_bytes(policy):
    world = World(policy)
    old, new = b"o" * SIZE, b"n" * SIZE
    world.run(world.client.write_file(world.task(), "/f", old, sync=True))
    ino = world.write("/f", 0, new)
    gate = world.gate_sends()
    flush = world.start_flush(ino)
    assert world.stored(ino, SIZE) == old
    assert world.client.peek("/f", 0, SIZE) == new
    assert world.client.peek("/f", SIZE // 2, 10) == new[:10]
    reader = world.sim.spawn(world.reader("/f", 0, SIZE))
    world.sim.run(until=world.sim.now + 0.05)
    # No client, inode or range lock is held across the send: the read
    # ends while the batch is still in flight, served from the tx layer.
    assert reader.triggered
    assert not flush.triggered
    gate.succeed()
    world.sim.run(until=world.sim.now + 1.0)
    assert reader.value == new
    assert flush.value == SIZE
    assert world.stored(ino, SIZE) == new


@pytest.mark.parametrize("policy", POLICIES)
def test_a_failed_send_goes_back_beneath_the_rewrite(policy):
    world = World(policy)
    old, batch = b"o" * SIZE, b"b" * SIZE
    world.run(world.client.write_file(world.task(), "/f", old, sync=True))
    ino = world.write("/f", 0, batch)
    handle = world.run(world.client.open(world.task(), "/f", OpenFlags.RDWR))
    gate = world.gate_sends(fail=True)
    flush = world.start_flush(ino)
    rewrite = world.sim.spawn(
        world.client.write(world.task("w2"), handle, 1000, b"R" * 3000)
    )
    world.sim.run(until=world.sim.now + 0.05)
    # The rewrite lands above the batch while the batch travels.
    assert rewrite.triggered
    gate.succeed()
    world.sim.run(until=world.sim.now + 1.0)
    assert isinstance(flush.value, DataUnavailable)
    assert world.client.metrics.counter("flush_failures").value == 1
    assert world.stored(ino, SIZE) == old
    world.run(world.client._flush_ino(world.task("retry"), ino))
    expected = batch[:1000] + b"R" * 3000 + batch[4000:]
    assert world.stored(ino, SIZE) == expected
    assert world.client.peek("/f", 0, SIZE) == expected
    assert not world.client.cache._dirty.get(ino)


@pytest.mark.parametrize("policy,how", [
    pytest.param(policy, how,
                 id=policy if how == "truncate" else policy + "-" + how)
    for how in ("truncate", "open") for policy in POLICIES
])
def test_a_truncate_during_a_flush_never_resurrects_bytes_past_the_cut(
        policy, how):
    world = World(policy)
    size = units.kib(600)  # three objects
    payload = bytes(range(256)) * (size // 256)
    ino = world.write("/f", 0, payload, OpenFlags.CREAT | OpenFlags.RDWR)
    gate = world.gate_sends()
    flush = world.start_flush(ino)
    if how == "truncate":
        cut = units.kib(100)  # inside the first object
        call = world.client.truncate(world.task("tr"), "/f", cut)
    else:
        cut = 0
        call = world.client.open(
            world.task("tr"), "/f",
            OpenFlags.CREAT | OpenFlags.TRUNC | OpenFlags.WRONLY,
        )
    mds_ops = world.cluster.mds.metrics.counter("ops")
    sent = mds_ops.value
    truncate = world.sim.spawn(call)
    world.sim.run(until=world.sim.now + 0.05)
    # The truncate waits for the in-flight batch on the flush mutex,
    # before its MDS op cuts the objects.
    assert not truncate.triggered
    assert mds_ops.value == sent
    gate.succeed()
    world.sim.run(until=world.sim.now + 1.0)
    assert flush.triggered and truncate.triggered
    assert world.cluster.file_bytes(ino) == cut
    assert world.client.peek("/f", 0, size) == payload[:cut]
    data = world.run(world.client.read_file(world.task("rf"), "/f"))
    assert data == payload[:cut]


@pytest.mark.parametrize("policy", POLICIES)
def test_an_unlink_during_a_flush_leaves_no_object_behind(policy):
    world = World(policy)
    ino = world.write("/f", 0, b"u" * units.kib(600),
                      OpenFlags.CREAT | OpenFlags.RDWR)
    gate = world.gate_sends()
    flush = world.start_flush(ino)
    unlink = world.sim.spawn(world.client.unlink(world.task("ul"), "/f"))
    world.sim.run(until=world.sim.now + 0.05)
    # The MDS unlink is done; the purge waits for the batch to land.
    assert not unlink.triggered
    gate.succeed()
    world.sim.run(until=world.sim.now + 1.0)
    assert flush.triggered and unlink.triggered
    assert [osd.indices_of(ino) for osd in world.cluster.osds] == [[]] * 4
    assert world.cluster.file_bytes(ino) == 0


# --- the dirty and tx layers against a flat byte-array model -----------------

WINDOW = 160


class InflightLayers(RuleBasedStateMachine):
    """One file's bytes through the cache's two layers and a model OSD.

    ``model`` is the file as a reader must see it; ``osd`` holds what
    landed. A flush takes a batch (dirty -> tx), then lands it on the
    OSD or fails and puts it back; truncates happen only with nothing in
    flight, as the flush mutex guarantees. At every step the OSD bytes
    with both layers on top must read as the model.
    """

    def __init__(self):
        super().__init__()
        self.cache = ObjectCache(1 << 20, RamAccount(1 << 20), block_size=16)
        self.model = bytearray()
        self.osd = bytearray()
        self.batch = None

    @rule(offset=st.integers(0, WINDOW - 40), size=st.integers(1, 40),
          byte=st.integers(1, 255))
    def write(self, offset, size, byte):
        data = bytes([byte]) * size
        self.cache.write(1, offset, data)
        end = offset + size
        if end > len(self.model):
            self.model.extend(bytes(end - len(self.model)))
        self.model[offset:end] = data

    @precondition(lambda self: self.batch is None)
    @rule(budget=st.integers(1, 80))
    def take(self, budget):
        self.batch = self.cache.take_dirty(1, budget) or None

    @precondition(lambda self: self.batch is not None)
    @rule()
    def land(self):
        for offset, data in self.batch:
            end = offset + len(data)
            if end > len(self.osd):
                self.osd.extend(bytes(end - len(self.osd)))
            self.osd[offset:end] = bytes(data)
        self.cache.end_flush(1)
        self.batch = None

    @precondition(lambda self: self.batch is not None)
    @rule()
    def fail(self):
        self.cache.put_back(1, self.batch)
        self.cache.end_flush(1)
        self.batch = None

    @precondition(lambda self: self.batch is None)
    @rule(size=st.integers(0, WINDOW))
    def truncate(self, size):
        self.cache.truncate_dirty(1, size)
        del self.model[size:]
        del self.osd[size:]

    @invariant()
    def reads_see_the_model(self):
        base = bytes(self.osd) + bytes(WINDOW - len(self.osd))
        seen = self.cache.overlay(1, 0, WINDOW, base)
        assert seen == bytes(self.model) + bytes(WINDOW - len(self.model))

    @invariant()
    def the_tx_layer_is_the_batch_in_flight(self):
        inflight = self.cache.inflight_buffer(1)
        if self.batch is None:
            assert inflight is None
        else:
            assert inflight.extents() == [
                (offset, bytes(data)) for offset, data in self.batch
            ]

    @invariant()
    def the_dirty_total_is_the_dirty_layer(self):
        buffer = self.cache._dirty.get(1)
        assert self.cache.dirty_bytes == (buffer.dirty_bytes if buffer else 0)


InflightLayers.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
test_inflight_layers_match_a_flat_model = InflightLayers.TestCase

"""Flushes in flight, for both Ceph clients: the shared write-back buffer.

A flush takes a batch of dirty bytes, sends it with no client or inode
lock held and then publishes the size. While the batch travels it is an
in-flight batch of the mount's write-back buffer (``unflushed``). Each
gated test below holds one send open on a gate (a wrapped
``write_vector``) and checks one rule that the buffer, the lib client's
flush mutex or the kernel client's waits must keep while the gate is
shut. Every case runs on the lib client under both locking policies and
on the kernel client, whose flushes go through the kernel's writeback
path (``WritebackDaemon.flush_file``), as its background flushers do.
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

from repro.cephclient import CephKernelFs, CephLibClient, WritebackBuffer
from repro.common import units
from repro.common.errors import DataUnavailable, FsError
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.hw import Machine
from repro.kernel import HostKernel
from repro.net import Fabric
from repro.sim import Simulator
from repro.storage import CephCluster
from tests.conftest import make_task, run

STACKS = ["global", "range", "K"]
SIZE = units.kib(64)


class World(object):
    """One mount over a four-OSD cluster, flushed only when a test says.

    ``stack`` is a lib-client locking policy, or ``"K"`` for the kernel
    client (its writeback daemon stopped).
    """

    def __init__(self, stack, **costs):
        self.sim = Simulator()
        self.machine = Machine(self.sim, num_cores=8, ram_bytes=units.gib(4))
        costs = CostModel(object_size=units.kib(256), **costs)
        self.cluster = CephCluster(self.sim, Fabric(self.sim), costs,
                                   num_osds=4)
        self.sends = []
        if stack == "K":
            self.kernel = HostKernel(self.sim, self.machine)
            self.kernel.writeback.stop()
            self.client = CephKernelFs(self.kernel, self.cluster, name="fl")
        else:
            self.kernel = None
            self.client = CephLibClient(
                self.sim, self.cluster, costs,
                self.machine.ram.child(units.mib(256), "pool-ram"),
                self.machine.activated, name="fl", locking=stack,
                start_flusher=False,
            )

    def task(self, name="t"):
        return make_task(self.sim, self.machine, name)

    def run(self, gen, until=10.0):
        return run(self.sim, gen, until=until)

    def gate_sends(self, fail=False):
        """Hold the next ``write_vector`` until the returned event
        triggers; with ``fail`` it then raises instead of writing. Later
        sends go straight through. ``sends`` counts every call."""
        gate = self.sim.event()
        real = self.cluster.write_vector
        gated = len(self.sends)

        def write_vector(ino, extents):
            self.sends.append(ino)
            if len(self.sends) == gated + 1:
                yield gate
                if fail:
                    raise DataUnavailable("gated send failed")
            return (yield from real(ino, extents))

        self.cluster.write_vector = write_vector
        return gate

    def flush(self, ino):
        """The generator of one flush of ``ino`` as the background
        flushers run it; it returns the error it raised, else the bytes
        the lib client's flush sent (None on the kernel client)."""
        task = self.task("f")
        try:
            if self.kernel is None:
                return (yield from self.client._flush_ino(task, ino))
            cf = self.kernel.page_cache.peek(self.client._cache_key(ino))
            yield from self.kernel.writeback.flush_file(task.thread, cf)
        except FsError as error:
            return error
        return None

    def start_flush(self, ino):
        """Spawn a flush of ``ino`` and run until its send is out."""
        sent = len(self.sends)
        process = self.sim.spawn(self.flush(ino))
        while len(self.sends) == sent:
            assert not process.triggered
            self.sim.run(until=self.sim.now + 1e-5)
        return process

    def open(self, path, flags=OpenFlags.RDWR):
        return self.run(self.client.open(self.task("o"), path, flags))

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

    def settle(self):
        self.sim.run(until=self.sim.now + 1.0)

    def stored(self, ino, size):
        return self.cluster.peek(ino, 0, size)


@pytest.mark.parametrize("stack", STACKS)
def test_reads_and_peeks_of_an_in_flight_range_return_the_new_bytes(stack):
    world = World(stack)
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
    # ends while the batch is still in flight, served from the buffer.
    assert reader.triggered
    assert not flush.triggered
    gate.succeed()
    world.settle()
    assert reader.value == new
    assert flush.value == (None if stack == "K" else SIZE)
    assert world.stored(ino, SIZE) == new


@pytest.mark.parametrize("stack", STACKS)
def test_a_failed_send_goes_back_beneath_the_rewrite(stack):
    world = World(stack)
    old, batch = b"o" * SIZE, b"b" * SIZE
    world.run(world.client.write_file(world.task(), "/f", old, sync=True))
    ino = world.write("/f", 0, batch)
    handle = world.open("/f")
    gate = world.gate_sends(fail=True)
    flush = world.start_flush(ino)
    rewrite = world.sim.spawn(
        world.client.write(world.task("w2"), handle, 1000, b"R" * 3000)
    )
    world.sim.run(until=world.sim.now + 0.05)
    # The rewrite lands above the batch while the batch travels.
    expected = batch[:1000] + b"R" * 3000 + batch[4000:]
    assert rewrite.triggered
    assert world.client.peek("/f", 0, SIZE) == expected
    gate.succeed()
    world.settle()
    assert isinstance(flush.value, DataUnavailable)
    if stack != "K":
        assert world.client.metrics.counter("flush_failures").value == 1
    assert world.stored(ino, SIZE) == old
    assert world.client.peek("/f", 0, SIZE) == expected
    world.run(world.client.fsync(world.task("retry"), handle))
    assert world.stored(ino, SIZE) == expected
    assert world.client.peek("/f", 0, SIZE) == expected
    assert ino not in world.client.unflushed


@pytest.mark.parametrize("stack,how", [
    pytest.param(stack, how,
                 id=stack if how == "truncate" else stack + "-" + how)
    for how in ("truncate", "open") for stack in STACKS
])
def test_a_truncate_during_a_flush_never_resurrects_bytes_past_the_cut(
        stack, how):
    world = World(stack)
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
    # The truncate waits for the in-flight batch before its MDS op cuts
    # the objects.
    assert not truncate.triggered
    assert mds_ops.value == sent
    gate.succeed()
    world.settle()
    assert flush.triggered and truncate.triggered
    assert world.cluster.file_bytes(ino) == cut
    assert world.client.peek("/f", 0, size) == payload[:cut]
    data = world.run(world.client.read_file(world.task("rf"), "/f"))
    assert data == payload[:cut]


@pytest.mark.parametrize("stack", STACKS)
def test_an_unlink_during_a_flush_leaves_no_object_behind(stack):
    world = World(stack)
    ino = world.write("/f", 0, b"u" * units.kib(600),
                      OpenFlags.CREAT | OpenFlags.RDWR)
    gate = world.gate_sends()
    flush = world.start_flush(ino)
    unlink = world.sim.spawn(world.client.unlink(world.task("ul"), "/f"))
    world.sim.run(until=world.sim.now + 0.05)
    # The MDS unlink is done; the purge waits for the batch to land.
    assert not unlink.triggered
    gate.succeed()
    world.settle()
    assert flush.triggered and unlink.triggered
    assert [osd.indices_of(ino) for osd in world.cluster.osds] == [[]] * 4
    assert world.cluster.file_bytes(ino) == 0


@pytest.mark.parametrize("stack", STACKS)
def test_overlapping_batches_land_newest_last(stack):
    world = World(stack)
    older_bytes = b"A" * SIZE
    newer_bytes = b"B" * SIZE + b"C" * SIZE
    ino = world.write("/f", 0, older_bytes, OpenFlags.CREAT | OpenFlags.RDWR)
    handle = world.open("/f")
    gate = world.gate_sends()
    older = world.start_flush(ino)
    # Rewrite the range under send, and dirty a fresh range after it so
    # the kernel has pages to pick for the next flush.
    world.run(world.client.write(world.task("w2"), handle, 0, newer_bytes))
    newer = world.sim.spawn(world.flush(ino))
    world.sim.run(until=world.sim.now + 0.05)
    # The newer batch carries bytes of the older one: it is not sent
    # before the older one has landed.
    assert not newer.triggered
    assert world.client.peek("/f", 0, 2 * SIZE) == newer_bytes
    gate.succeed()
    world.settle()
    if stack == "K":
        assert older.value is None and newer.value is None
    else:
        assert (older.value, newer.value) == (SIZE, 2 * SIZE)
    assert world.stored(ino, 2 * SIZE) == newer_bytes
    data = world.run(world.client.read_file(world.task("rf"), "/f"))
    assert data == newer_bytes


@pytest.mark.parametrize("stack,fail", [
    pytest.param(stack, fail, id=stack + ("-failed" if fail else ""))
    for fail in (False, True) for stack in STACKS
])
def test_fsync_waits_for_another_flushers_batch(stack, fail):
    world = World(stack)
    payload = b"f" * SIZE
    ino = world.write("/f", 0, payload, OpenFlags.CREAT | OpenFlags.RDWR)
    handle = world.open("/f")
    gate = world.gate_sends(fail=fail)
    flush = world.start_flush(ino)
    fsync = world.sim.spawn(world.client.fsync(world.task("fs"), handle))
    world.sim.run(until=world.sim.now + 0.05)
    # The bytes are not on the OSDs yet, so fsync has not returned.
    assert not fsync.triggered
    gate.succeed()
    world.settle()
    assert flush.triggered and fsync.triggered
    assert fsync.ok
    # A batch that failed was dirty again, and the fsync sent it.
    assert isinstance(flush.value, DataUnavailable) == fail
    assert world.stored(ino, SIZE) == payload
    assert ino not in world.client.unflushed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "PageCache.mark_dirty skips pages that are already dirty, so a "
    "rewrite of pages under writeback is not dirtied again, and clean() "
    "cleans them when the older batch lands"))
def test_a_rewrite_under_writeback_keeps_its_pages_dirty():
    world = World("K")
    ino = world.write("/f", 0, b"o" * SIZE, OpenFlags.CREAT | OpenFlags.RDWR)
    handle = world.open("/f")
    gate = world.gate_sends()
    world.start_flush(ino)
    new = b"n" * SIZE
    world.run(world.client.write(world.task("w2"), handle, 0, new))
    gate.succeed()
    world.settle()
    # The older batch has landed. Every byte still to be sent needs a
    # dirty page: only a dirty page lets the kernel's writeback find it.
    page_cache = world.kernel.page_cache
    cf = page_cache.peek(world.client._cache_key(ino))
    dirty = set()
    for run in cf._runs:
        if run.dirty:
            dirty.update(range(run.start, run.end))
    unflushed = world.client.unflushed.dirty(ino)
    pages = set()
    for offset, data in unflushed.extents() if unflushed else ():
        pages.update(page_cache.page_range(offset, len(data)))
    assert pages <= dirty
    # So one more writeback pass puts the rewrite on the OSDs.
    world.run(world.flush(ino))
    assert world.stored(ino, SIZE) == new


# --- the lib client publishes a flushed size with no state lock held --------

#: The MDS's service time per op in the publish tests: long enough that a
#: flush spends most of its life on the size publish.
SLOW_MDS = 0.05


def _publishing(world, ino):
    """Start a flush of ``ino`` and run until its bytes are on the OSDs
    and its size publish is at the MDS."""
    flush = world.sim.spawn(world.flush(ino))
    world.sim.run(until=world.sim.now + SLOW_MDS / 5)
    assert not flush.triggered
    assert world.client.unflushed.batches(ino)[0].sent.triggered
    return flush


@pytest.mark.parametrize("stack", ["global", "range"])
def test_a_cached_read_does_not_wait_for_a_size_publish(stack):
    world = World(stack, mds_op=SLOW_MDS)
    payload = b"p" * SIZE
    ino = world.write("/f", 0, payload, OpenFlags.CREAT | OpenFlags.RDWR)
    handle = world.open("/f")
    flush = _publishing(world, ino)
    reader = world.sim.spawn(
        world.client.read(world.task("r"), handle, 0, SIZE))
    world.sim.run(until=world.sim.now + SLOW_MDS / 5)
    # The publish holds neither client_lock nor the inode's state lock.
    assert reader.triggered and reader.value == payload
    assert not flush.triggered
    world.settle()
    assert flush.value == SIZE


@pytest.mark.parametrize("stack", ["global", "range"])
def test_a_write_past_the_end_during_a_size_publish_keeps_its_size(stack):
    world = World(stack, mds_op=SLOW_MDS)
    ino = world.write("/f", 0, b"a" * SIZE, OpenFlags.CREAT | OpenFlags.RDWR)
    handle = world.open("/f")
    flush = _publishing(world, ino)
    writer = world.sim.spawn(
        world.client.write(world.task("w2"), handle, SIZE, b"b" * SIZE))
    world.sim.run(until=world.sim.now + SLOW_MDS / 5)
    assert writer.triggered and not flush.triggered
    world.settle()
    # The MDS recorded the size the flush published; the attributes it
    # returned do not shrink the file under the newer write.
    assert flush.value == SIZE
    mds_size = world.run(world.cluster.mds_call("lookup", "/f")).size
    assert mds_size == SIZE
    stat = world.run(world.client.stat(world.task("s"), "/f"))
    assert stat.size == 2 * SIZE
    data = world.run(world.client.read_file(world.task("rf"), "/f"))
    assert data == b"a" * SIZE + b"b" * SIZE
    assert world.run(world.flush(ino)) == SIZE
    mds_size = world.run(world.cluster.mds_call("lookup", "/f")).size
    assert mds_size == 2 * SIZE
    assert world.stored(ino, 2 * SIZE) == b"a" * SIZE + b"b" * SIZE


def test_a_take_waits_only_for_the_bytes_it_hands_out_until_they_are_sent():
    sim = Simulator()
    buffer = WritebackBuffer(sim)
    buffer.write(1, 500, b"o" * 100)
    older = sim.spawn(buffer.take(1))
    sim.run()
    older = older.value
    buffer.write(1, 0, b"n" * 100)
    buffer.write(1, 500, b"r" * 100)  # a rewrite of the bytes under send
    # The first 100 bytes are not under send: that take does not wait.
    head = sim.spawn(buffer.take(1, 100))
    sim.run()
    assert [offset for offset, _data in head.value.extents] == [0]
    rest = sim.spawn(buffer.take(1))
    sim.run()
    assert not rest.triggered
    assert buffer.overlay(1, 500, 100, b"x" * 100) == b"r" * 100
    # Once the older bytes are on the OSDs the rewrite may follow them,
    # before the older flush is done.
    older.sent.succeed()
    sim.run()
    assert [offset for offset, _data in rest.value.extents] == [500]
    assert buffer.batches(1) == [older, head.value, rest.value]
    assert buffer.overlay(1, 500, 100, b"o" * 100) == b"r" * 100
    rest.value.sent.succeed()
    buffer.land(rest.value)
    # The older batch is sent, so its bytes no longer cover the OSD's.
    assert buffer.overlay(1, 500, 100, b"r" * 100) == b"r" * 100


# --- the write-back buffer against a flat byte-array model -------------------

WINDOW = 160


class SharedBuffer(RuleBasedStateMachine):
    """One file's bytes through a :class:`WritebackBuffer` and a model OSD.

    ``model`` is the file as a reader must see it; ``osd`` holds what was
    sent. A take runs as a process: it may wait behind a truncate or an
    older batch still being sent that carries a byte it would hand out.
    Several batches can be in flight, and hypothesis sends, lands or fails
    them in any order; a sent batch can only land. A truncate holds new
    takes, waits for every in-flight batch and cuts the dirty bytes and
    the model; the OSD is cut later, when its MDS op returns (the ``cut``
    rule), and only then are takes let go. Until that cut, reads see the
    OSD as it will be once cut.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.charged = 0
        self.buffer = WritebackBuffer(self.sim, charge=self._charge)
        self.model = bytearray()
        self.osd = bytearray()
        self.waiting = 0  # takes and truncates not finished yet
        self.truncating = False
        self.cutting = None  # (size, event) while an OSD cut is owed

    def _charge(self, delta):
        self.charged += delta

    def _settle(self):
        self.sim.run()

    def _take(self, budget):
        self.waiting += 1
        yield from self.buffer.take(1, budget)
        self.waiting -= 1

    def _truncate(self, size):
        self.waiting += 1
        self.truncating = True
        yield from self.buffer.hold(1)
        self.buffer.truncate(1, size)
        del self.model[size:]
        self.cutting = (size, self.sim.event())
        yield self.cutting[1]
        self.cutting = None
        del self.osd[size:]
        self.buffer.release(1)
        self.truncating = False
        self.waiting -= 1

    def _unsent(self):
        return [batch for batch in self.buffer.batches(1)
                if not batch.sent.triggered]

    def _pick(self, data, batches):
        return batches[data.draw(st.integers(0, len(batches) - 1))]

    def _send(self, batch):
        for offset, piece in batch.extents:
            end = offset + len(piece)
            if end > len(self.osd):
                self.osd.extend(bytes(end - len(self.osd)))
            self.osd[offset:end] = bytes(piece)
        batch.sent.succeed()

    @rule(offset=st.integers(0, WINDOW - 40), size=st.integers(1, 40),
          byte=st.integers(1, 255))
    def write(self, offset, size, byte):
        data = bytes([byte]) * size
        self.buffer.write(1, offset, data)
        end = offset + size
        if end > len(self.model):
            self.model.extend(bytes(end - len(self.model)))
        self.model[offset:end] = data

    @rule(budget=st.integers(1, 80))
    def take(self, budget):
        self.sim.spawn(self._take(budget))
        self._settle()

    @precondition(lambda self: self._unsent())
    @rule(data=st.data())
    def send(self, data):
        self._send(self._pick(data, self._unsent()))
        self._settle()

    @precondition(lambda self: self.buffer.batches(1))
    @rule(data=st.data())
    def land(self, data):
        batch = self._pick(data, self.buffer.batches(1))
        if not batch.sent.triggered:
            self._send(batch)
        self.buffer.land(batch)
        self._settle()

    @precondition(lambda self: self._unsent())
    @rule(data=st.data())
    def fail(self, data):
        self.buffer.put_back(self._pick(data, self._unsent()))
        self._settle()

    @precondition(lambda self: not self.truncating)
    @rule(size=st.integers(0, WINDOW))
    def truncate(self, size):
        self.sim.spawn(self._truncate(size))
        self._settle()

    @precondition(lambda self: self.cutting is not None)
    @rule()
    def cut(self):
        self.cutting[1].succeed()
        self._settle()

    @invariant()
    def reads_see_the_model(self):
        osd = self.osd if self.cutting is None else self.osd[:self.cutting[0]]
        base = bytes(osd) + bytes(WINDOW - len(osd))
        seen = self.buffer.overlay(1, 0, WINDOW, base)
        assert seen == bytes(self.model) + bytes(WINDOW - len(self.model))

    @invariant()
    def batches_being_sent_are_disjoint(self):
        spans = sorted(
            (offset, offset + len(piece))
            for batch in self._unsent()
            for offset, piece in batch.extents
        )
        for (_start, end), (start, _end) in zip(spans, spans[1:]):
            assert end <= start

    @invariant()
    def the_osd_is_the_model_once_everything_landed(self):
        if self.waiting or 1 in self.buffer:
            return
        width = max(len(self.osd), len(self.model))
        assert (bytes(self.osd) + bytes(width - len(self.osd))
                == bytes(self.model) + bytes(width - len(self.model)))

    @invariant()
    def the_dirty_total_is_the_dirty_layer(self):
        buffer = self.buffer.dirty(1)
        dirty = buffer.dirty_bytes if buffer is not None else 0
        assert self.buffer.dirty_bytes == self.charged == dirty


SharedBuffer.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
test_inflight_layers_match_a_flat_model = SharedBuffer.TestCase

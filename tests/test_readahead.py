"""The one readahead pipeline (`repro.fs.readahead`) under both Ceph
personalities.

Every pipeline case runs against a ``CephLibClient`` (D) and a
``CephKernelFs`` (K) reading a file a third mount wrote, so the reader
starts cold. Backend fetches are logged — and, where a case needs an
unlink or truncate to land mid-fetch, held — by wrapping the cluster's
``read_extent``.
"""

import types

import pytest

from repro.cephclient import CephKernelFs, CephLibClient
from repro.common import units
from repro.costs import CostModel
from repro.fs.readahead import READAHEAD_BYTES, next_window, plan_fetch
from repro.net import Fabric
from repro.storage import CephCluster
from tests.conftest import make_task, run

CLIENTS = ["lib", "kernel"]
WINDOW = READAHEAD_BYTES


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4)


@pytest.fixture
def pool(machine):
    """What a reader's task needs of a container pool: its RAM account."""
    return types.SimpleNamespace(ram=machine.ram.child(units.mib(256), "pool"))


@pytest.fixture
def reader(sim, machine, kernel, cluster, costs, pool):
    """Builds the mount under test; both charge the pool's account."""

    def build(which):
        if which == "lib":
            return CephLibClient(
                sim, cluster, costs, pool.ram, machine.activated, name="lib"
            )
        return CephKernelFs(kernel, cluster, name="cephk")

    return build


class Fetches(object):
    """Logs every backend fetch as ``(offset, size)``. After ``hold()``
    every fetch parks (``parked`` fires on the first) until
    ``release()``."""

    def __init__(self, sim, cluster):
        self.sim = sim
        self.log = []
        self.gate = None
        self.parked = None
        real = cluster.read_extent

        def read_extent(ino, offset, size):
            self.log.append((offset, size))
            gate = self.gate
            if gate is not None:
                if not self.parked.triggered:
                    self.parked.succeed()
                yield gate
            return (yield from real(ino, offset, size))

        cluster.read_extent = read_extent

    def hold(self):
        self.gate = self.sim.event()
        self.parked = self.sim.event()

    def release(self):
        gate, self.gate = self.gate, None
        gate.succeed()


@pytest.fixture
def fetches(sim, cluster):
    return Fetches(sim, cluster)


def write_cold(sim, machine, cluster, costs, payload, paths=("/f",)):
    """Write ``payload`` to ``paths`` through a mount of their own and
    flush it, so the reader under test has nothing of it cached."""
    account = machine.ram.child(units.mib(64), "writer")
    writer = CephLibClient(
        sim, cluster, costs, account, machine.activated, name="writer"
    )
    task = make_task(sim, machine, "writer")
    for path in paths:
        run(sim, writer.write_file(task, path, payload, sync=True))


def cached(fs, ino):
    """Whether the mount holds a cache entry for ``ino``."""
    if isinstance(fs, CephLibClient):
        return ino in fs.cache._blocks
    return fs.kernel.page_cache.peek(fs._cache_key(ino)) is not None


def windows(count):
    return bytes(range(256)) * (count * WINDOW // 256)


# --- a demand miss must not insert into a dropped file ------------------------

@pytest.mark.parametrize("which,drop", [
    ("lib", "unlink"), ("kernel", "unlink"), ("kernel", "truncate"),
])
def test_demand_miss_does_not_insert_into_a_file_dropped_mid_fetch(
    sim, machine, cluster, costs, pool, reader, fetches, which, drop
):
    fs = reader(which)
    payload = windows(1)
    write_cold(sim, machine, cluster, costs, payload)
    task = make_task(sim, machine, "reader", pool=pool)
    other = make_task(sim, machine, "other", pool=pool)

    def proc():
        handle = yield from fs.open(task, "/f")
        before = pool.ram.used
        fetches.hold()
        reading = sim.spawn(fs.read(task, handle, 0, len(payload)))
        yield fetches.parked  # the miss fetch is in flight
        if drop == "unlink":
            yield from fs.unlink(other, "/f")
        else:
            yield from fs.truncate(other, "/f", 0)
        fetches.release()
        yield reading
        return handle.ino, before

    ino, before = run(sim, proc())
    assert not cached(fs, ino)
    assert pool.ram.used == before


# --- the pipeline, on both personalities ---------------------------------------

@pytest.mark.parametrize("which", CLIENTS)
def test_sequential_reader_joins_the_inflight_window(
    sim, machine, cluster, costs, pool, reader, fetches, which
):
    fs = reader(which)
    payload = windows(8)
    write_cold(sim, machine, cluster, costs, payload)
    task = make_task(sim, machine, "reader", pool=pool)

    def proc():
        handle = yield from fs.open(task, "/f")
        out = [(yield from fs.read(task, handle, 0, WINDOW))]
        # the next window travels while the reader copies this one out
        assert handle.ino in fs._readahead._inflight
        for offset in range(WINDOW, len(payload), WINDOW):
            out.append((yield from fs.read(task, handle, offset, WINDOW)))
        return b"".join(out)

    assert run(sim, proc()) == payload
    # one backend fetch per window: every later read joined the prefetch
    assert fetches.log == [(offset, WINDOW)
                           for offset in range(0, len(payload), WINDOW)]


def _partition(cluster, on):
    cluster.fabric.set_partitioned(on)


def _crash_osds(cluster, on):
    for osd in cluster.osds:
        if on:
            osd.crash()
        else:
            osd.restart()


@pytest.mark.parametrize("fault", [_partition, _crash_osds],
                         ids=["partition", "osd-crash"])
@pytest.mark.parametrize("which", CLIENTS)
def test_failed_prefetch_is_swallowed_and_the_demand_read_refetches(
    sim, machine, cluster, costs, pool, reader, fetches, which, fault
):
    fs = reader(which)
    payload = windows(2)
    write_cold(sim, machine, cluster, costs, payload)
    task = make_task(sim, machine, "reader", pool=pool)

    def proc():
        handle = yield from fs.open(task, "/f")
        first = yield from fs.read(task, handle, 0, WINDOW)
        prefetch = fs._readahead._inflight[handle.ino]
        fault(cluster, True)  # before the prefetch's fetch leaves
        yield prefetch  # raises here unless the failure was swallowed
        fault(cluster, False)
        second = yield from fs.read(task, handle, WINDOW, WINDOW)
        return first + second

    assert run(sim, proc()) == payload
    assert fetches.log == [(0, WINDOW), (WINDOW, WINDOW), (WINDOW, WINDOW)]


@pytest.mark.parametrize("which", CLIENTS)
def test_unlink_during_a_prefetch_leaves_nothing_charged(
    sim, machine, cluster, costs, pool, reader, fetches, which
):
    fs = reader(which)
    payload = windows(2)
    write_cold(sim, machine, cluster, costs, payload)
    task = make_task(sim, machine, "reader", pool=pool)
    other = make_task(sim, machine, "other", pool=pool)

    def proc():
        handle = yield from fs.open(task, "/f")
        before = pool.ram.used
        yield from fs.read(task, handle, 0, WINDOW)
        prefetch = fs._readahead._inflight[handle.ino]
        fetches.hold()
        yield fetches.parked  # the prefetch's fetch is in flight
        yield from fs.unlink(other, "/f")
        fetches.release()
        yield prefetch
        return handle.ino, before

    ino, before = run(sim, proc())
    assert not cached(fs, ino)
    assert pool.ram.used == before
    assert fetches.log == [(0, WINDOW), (WINDOW, WINDOW)]


@pytest.mark.parametrize("which", CLIENTS)
def test_readahead_stops_at_eof(
    sim, machine, cluster, costs, pool, reader, fetches, which
):
    fs = reader(which)
    payload = windows(1) + b"tail" * 25  # one window and 100 bytes
    write_cold(sim, machine, cluster, costs, payload, ("/f", "/g"))
    task = make_task(sim, machine, "reader", pool=pool)
    granule = fs.cache.block_size if which == "lib" else costs.page_size

    def proc():
        handle = yield from fs.open(task, "/f")
        out = yield from fs.read(task, handle, 0, WINDOW)
        out += yield from fs.read(task, handle, WINDOW, WINDOW)
        assert out == payload
        # the prefetched window was clamped to the 100 bytes left
        assert fetches.log == [(0, WINDOW), (WINDOW, 100)]
        del fetches.log[:]
        other = yield from fs.open(task, "/g")
        tail = yield from fs.read(task, other, WINDOW, WINDOW)
        assert tail == payload[WINDOW:]
        # a random read's miss overhangs EOF and is fetched as asked
        assert fetches.log == [(WINDOW, granule)]
        assert not fs._readahead._inflight

    run(sim, proc())


def test_plan_fetch_and_next_window_at_the_eof_edges():
    size = 3 * WINDOW + 100
    # a sequential miss widens to a window, a random one does not
    assert plan_fetch(0, 4096, size, True) == WINDOW
    assert plan_fetch(0, 4096, size, False) == 4096
    # a widened fetch never runs past EOF ...
    assert plan_fetch(2 * WINDOW + 4096, 4096, size, True) == WINDOW + 100 - 4096
    # ... but a miss that overhangs the known size is fetched as asked
    assert plan_fetch(3 * WINDOW, 4096, size, True) == 4096
    assert plan_fetch(size + 4096, 8192, size, False) == 8192
    assert next_window(0, size) == (0, WINDOW)
    assert next_window(3 * WINDOW, size) == (3 * WINDOW, 100)
    assert next_window(size, size) is None
    assert next_window(size + 1, size) is None

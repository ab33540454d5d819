"""Unit tests for the Ceph-like storage backend."""

import pytest

from repro.common import units
from repro.common.errors import ConfigError, FileNotFound
from repro.costs import CostModel
from repro.net import Fabric
from repro.storage import CephCluster, CrushMap
from tests.conftest import run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    fabric = Fabric(sim)
    return CephCluster(sim, fabric, costs, num_osds=4)


# --- CRUSH ------------------------------------------------------------------

def test_crush_is_deterministic():
    crush = CrushMap(6)
    assert crush.placement(42, 0) == crush.placement(42, 0)


def test_crush_spreads_objects():
    crush = CrushMap(6)
    primaries = {crush.primary(1, index) for index in range(100)}
    assert len(primaries) >= 4  # objects land on most OSDs


def test_crush_replicas_distinct():
    crush = CrushMap(6, replicas=3)
    for index in range(50):
        placement = crush.placement(7, index)
        assert len(placement) == 3
        assert len(set(placement)) == 3


def test_crush_invalid_config():
    with pytest.raises(ConfigError):
        CrushMap(0)
    with pytest.raises(ConfigError):
        CrushMap(2, replicas=3)


# --- striping ------------------------------------------------------------------

def test_object_extents_single(cluster, costs):
    assert cluster.object_extents(0, 100) == [(0, 0, 100)]


def test_object_extents_spanning(cluster, costs):
    osz = costs.object_size
    extents = cluster.object_extents(osz - 10, 20)
    assert extents == [(0, osz - 10, 10), (1, 0, 10)]


def test_object_extents_multiple_objects(cluster, costs):
    osz = costs.object_size
    extents = cluster.object_extents(0, 3 * osz)
    assert [e[0] for e in extents] == [0, 1, 2]


# --- data path --------------------------------------------------------------------

def test_write_read_roundtrip(sim, cluster):
    payload = bytes(range(256)) * 1024  # 256 KiB

    def proc():
        yield from cluster.write_extent(1, 0, payload)
        data = yield from cluster.read_extent(1, 0, len(payload))
        return data

    assert run(sim, proc()) == payload


def test_write_spanning_objects(sim, cluster, costs):
    osz = costs.object_size
    payload = b"ab" * osz  # 2 objects worth

    def proc():
        yield from cluster.write_extent(2, 0, payload)
        return (yield from cluster.read_extent(2, osz - 4, 8))

    middle = run(sim, proc())
    assert middle == payload[osz - 4:osz + 4]


def test_read_hole_returns_short(sim, cluster):
    def proc():
        yield from cluster.write_extent(3, 0, b"x" * 100)
        return (yield from cluster.read_extent(3, 1000, 100))

    assert run(sim, proc()) == b""


def test_peek_zero_fills_holes(sim, cluster):
    def proc():
        yield from cluster.write_extent(4, 10, b"abc")
        return cluster.peek(4, 0, 13)

    assert run(sim, proc()) == b"\x00" * 10 + b"abc"


def test_replicated_write_lands_on_all_replicas(sim, costs):
    fabric = Fabric(sim)
    cluster = CephCluster(sim, fabric, costs, num_osds=4, replicas=2)

    def proc():
        yield from cluster.write_extent(5, 0, b"replica-data")

    run(sim, proc())
    holders = [
        osd for osd in cluster.osds if osd.object_size(5, 0) == len(b"replica-data")
    ]
    assert len(holders) == 2


def test_purge_removes_objects(sim, cluster):
    def proc():
        yield from cluster.write_extent(6, 0, b"x" * 1000)

    run(sim, proc())
    assert cluster.stored_bytes == 1000
    cluster.purge(6)
    assert cluster.stored_bytes == 0


def test_truncate_drops_tail_objects(sim, cluster, costs):
    """A truncating ``setattr_size`` cuts the stored objects as part of
    the MDS op: the tail object is gone, the head one is cut."""
    osz = costs.object_size

    def proc():
        info = yield from cluster.mds_call("create", "/t")
        yield from cluster.write_extent(info.ino, 0, b"z" * (2 * osz))
        cut = yield from cluster.mds_call("setattr_size", "/t", osz // 2,
                                          truncate=True)
        return info.ino, cut.size

    ino, size = run(sim, proc())
    assert size == osz // 2
    assert cluster.file_bytes(ino) == osz // 2


# --- MDS --------------------------------------------------------------------------

def test_mds_create_lookup(sim, cluster):
    def proc():
        info = yield from cluster.mds_call("create", "/f")
        found = yield from cluster.mds_call("lookup", "/f")
        return info.ino, found.ino

    ino_a, ino_b = run(sim, proc())
    assert ino_a == ino_b


def test_mds_lookup_missing_raises(sim, cluster):
    def proc():
        with pytest.raises(FileNotFound):
            yield from cluster.mds_call("lookup", "/missing")
        return True

    assert run(sim, proc())


def test_mds_setattr_size_bumps_version(sim, cluster):
    def proc():
        info = yield from cluster.mds_call("create", "/f")
        updated = yield from cluster.mds_call("setattr_size", "/f", 12345)
        return info.version, updated.version, updated.size

    v_before, v_after, size = run(sim, proc())
    assert v_after > v_before
    assert size == 12345


def test_mds_stores_no_file_bytes(sim, cluster):
    def proc():
        yield from cluster.mds_call("create", "/f")
        yield from cluster.mds_call("setattr_size", "/f", units.mib(100))

    run(sim, proc())
    node = cluster.mds.node_of("/f")
    assert node.data is None
    assert node.size == units.mib(100)


def test_mds_namespace_shared_between_callers(sim, cluster):
    def writer():
        yield from cluster.mds_call("mkdir", "/shared")
        yield from cluster.mds_call("create", "/shared/f")

    def reader():
        yield sim.timeout(1)
        names = yield from cluster.mds_call("readdir", "/shared")
        return names

    sim.spawn(writer())
    proc = sim.spawn(reader())
    sim.run(until=10)
    assert proc.value == ["f"]


def test_mds_unlink_returns_ino(sim, cluster):
    def proc():
        info = yield from cluster.mds_call("create", "/f")
        ino, _size = yield from cluster.mds_call("unlink", "/f")
        return info.ino, ino

    ino_a, ino_b = run(sim, proc())
    assert ino_a == ino_b


def test_osd_concurrency_limits_parallelism(sim, costs):
    fabric = Fabric(sim)
    cluster = CephCluster(sim, fabric, costs, num_osds=1)
    osd = cluster.osds[0]
    finish = []

    def writer(tag):
        yield from cluster.write_extent(tag, 0, b"y" * units.kib(64))
        finish.append(sim.now)

    for tag in range(20):
        sim.spawn(writer(tag))
    sim.run(until=60)
    assert len(finish) == 20
    assert osd.metrics.counter("writes").value == 20


def test_osd_inode_index_follows_object_insertion_order(sim, costs):
    """``Osd.indices_of`` is the ``_objects`` scan it replaces: same
    indices, same order, through creates, drops, re-creates and purges
    (``CephCluster.truncate`` sends its RPCs in this order)."""
    from repro.storage.osd import Osd

    osd = Osd(sim, 0, costs)

    def scanned(ino):
        return [index for (i, index) in osd._objects if i == ino]

    steps = [
        ("w", 1, 3), ("w", 2, 0), ("w", 1, 0), ("w", 1, 5), ("d", 1, 3),
        ("w", 2, 4), ("w", 1, 3), ("w", 1, 0), ("p", 2, None), ("w", 2, 1),
        ("d", 1, 9), ("d", 1, 0), ("w", 1, 0),
    ]
    for kind, ino, index in steps:
        if kind == "w":
            osd._apply_write(ino, index, 0, b"x")
        elif kind == "d":
            osd.drop_object(ino, index)
        else:
            osd.purge_ino(ino)
        for each in (1, 2, 3):
            assert osd.indices_of(each) == scanned(each)
    assert osd.indices_of(1) == [5, 3, 0]

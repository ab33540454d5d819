"""Tests for block-level cache deduplication (§9 extension)."""

import pytest

from repro.cephclient import CephLibClient
from repro.common import units
from repro.common.errors import ConfigError
from repro.costs import CostModel
from repro.net import Fabric
from repro.storage import CephCluster
from tests.conftest import make_task, run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4)


def make_client(sim, machine, cluster, costs, dedup, name):
    account = machine.ram.child(units.mib(64), name + ".ram")
    return CephLibClient(
        sim, cluster, costs, account, machine.activated, name=name,
        cache_dedup=dedup,
    )


def test_dedup_requires_fingerprint_fn():
    from repro.cephclient.cache import ObjectCache
    from repro.hw import RamAccount

    with pytest.raises(ConfigError):
        ObjectCache(units.mib(1), RamAccount(units.mib(1)), dedup=True)


def test_identical_files_cached_once(sim, machine, cluster, costs):
    client = make_client(sim, machine, cluster, costs, True, "dd")
    task = make_task(sim, machine)
    payload = b"shared image content " * 8192  # ~168 KiB

    def proc():
        # Two container roots holding byte-identical copies (independent
        # containers expanded from the same image, no union).
        yield from client.write_file(task, "/c0-rootfile", payload, sync=True)
        yield from client.write_file(task, "/c1-rootfile", payload, sync=True)
        ino0 = client.attr_cache["/c0-rootfile"].ino
        ino1 = client.attr_cache["/c1-rootfile"].ino
        client.cache.drop_ino(ino0)
        client.cache.drop_ino(ino1)
        before = client.account.used
        yield from client.read_file(task, "/c0-rootfile")
        after_first = client.account.used - before
        yield from client.read_file(task, "/c1-rootfile")
        after_second = client.account.used - before
        return after_first, after_second

    first, second = run(sim, proc())
    assert first > 0
    # The second copy costs (almost) nothing: it dedups against the first.
    assert second <= first + client.cache.block_size
    assert client.cache.dedup_saved_bytes >= len(payload) // 2


def test_different_content_not_deduped(sim, machine, cluster, costs):
    from repro.common.rng import make_rng

    client = make_client(sim, machine, cluster, costs, True, "dd2")
    task = make_task(sim, machine)
    # Non-repeating content: no two 64 KiB blocks are identical, within or
    # across the files (pseudo_bytes repeats and would self-dedup).
    blob_a = make_rng(1, "dedup-a").randbytes(units.kib(128))
    blob_b = make_rng(1, "dedup-b").randbytes(units.kib(128))

    def proc():
        yield from client.write_file(task, "/a", blob_a, sync=True)
        yield from client.write_file(task, "/b", blob_b, sync=True)
        for path in ("/a", "/b"):
            client.cache.drop_ino(client.attr_cache[path].ino)
        yield from client.read_file(task, "/a")
        yield from client.read_file(task, "/b")

    run(sim, proc())
    assert client.cache.dedup_saved_bytes == 0


def test_duplicate_blocks_within_one_file_dedup(sim, machine, cluster, costs):
    """Repeating content dedups against itself (block-level, not file)."""
    client = make_client(sim, machine, cluster, costs, True, "dd4")
    task = make_task(sim, machine)

    def proc():
        yield from client.write_file(
            task, "/rep", b"A" * units.kib(256), sync=True
        )
        client.cache.drop_ino(client.attr_cache["/rep"].ino)
        yield from client.read_file(task, "/rep")

    run(sim, proc())
    # 4 identical 64 KiB blocks: one charged, three by reference.
    assert client.cache.dedup_saved_bytes == 3 * client.cache.block_size


def test_dedup_refcount_survives_partial_drop(sim, machine, cluster, costs):
    client = make_client(sim, machine, cluster, costs, True, "dd3")
    task = make_task(sim, machine)
    payload = b"refcount me " * 16384

    def proc():
        yield from client.write_file(task, "/x", payload, sync=True)
        yield from client.write_file(task, "/y", payload, sync=True)
        for path in ("/x", "/y"):
            client.cache.drop_ino(client.attr_cache[path].ino)
        yield from client.read_file(task, "/x")
        yield from client.read_file(task, "/y")
        # Drop the first holder: the shared charge must migrate, not leak.
        client.cache.drop_ino(client.attr_cache["/x"].ino)
        used_after_drop = client.account.used
        data = yield from client.read_file(task, "/y")  # still resident
        return used_after_drop, data

    used_after_drop, data = run(sim, proc())
    assert data == payload
    assert used_after_drop > 0  # /y's blocks still charged
    # Dropping the survivor releases everything.
    client.cache.drop_ino(client.attr_cache["/y"].ino)
    assert client.cache.cached_bytes == client.unflushed.dirty_bytes


def test_dedup_off_by_default(sim, machine, cluster, costs):
    client = make_client(sim, machine, cluster, costs, False, "plain")
    task = make_task(sim, machine)
    payload = b"copy" * units.kib(32)

    def proc():
        yield from client.write_file(task, "/a", payload, sync=True)
        yield from client.write_file(task, "/b", payload, sync=True)

    run(sim, proc())
    assert not client.cache.dedup
    assert client.cache.dedup_saved_bytes == 0

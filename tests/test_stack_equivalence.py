"""Functional equivalence across the Table-1 stacks.

Whatever the performance differences, every configuration must be a
*correct* filesystem: one scripted operation sequence executed on each
stack must leave byte-identical observable state. The reference model is
a plain dict; the script covers create/overwrite/append/rename/unlink/
truncate/mkdir/readdir plus image-shadowing for the union stacks.
"""

import pytest

from repro.common import units
from repro.common.errors import FileNotFound
from repro.fs.api import OpenFlags
from repro.stacks import SYMBOLS, StackFactory
from repro.world import World
from tests.conftest import run

IMAGE_FILES = {
    "/etc/base.conf": b"from the image",
    "/usr/lib/shared.so": b"\x7fELF" + b"lib" * 100,
    "/usr/doomed.txt": b"will be deleted",
}


def build_world():
    world = World(num_cores=8, ram_bytes=units.gib(8))
    world.primary.activate_cores(4)
    return world


def seed(world):
    from repro.bench.util import seed_tree

    seed_tree(world, IMAGE_FILES, "/images/eq")


def script(fs, task):
    """The op sequence; returns the observable outcome dict."""
    outcome = {}
    yield from fs.makedirs(task, "/app/data")
    yield from fs.write_file(task, "/app/data/a.bin", b"alpha-contents")
    # Overwrite with truncation.
    yield from fs.write_file(task, "/app/data/a.bin", b"ALPHA")
    # Append.
    handle = yield from fs.open(
        task, "/app/data/a.bin", OpenFlags.WRONLY | OpenFlags.APPEND
    )
    yield from fs.write(task, handle, 0, b"+tail")
    yield from fs.close(task, handle)
    # Sparse write.
    handle = yield from fs.open(
        task, "/app/data/sparse.bin", OpenFlags.CREAT | OpenFlags.RDWR
    )
    yield from fs.write(task, handle, 10, b"X")
    yield from fs.close(task, handle)
    # Rename + unlink.
    yield from fs.write_file(task, "/app/data/tmp", b"moving")
    yield from fs.rename(task, "/app/data/tmp", "/app/data/moved")
    yield from fs.write_file(task, "/app/data/junk", b"junk")
    yield from fs.unlink(task, "/app/data/junk")
    # Truncate shrink.
    yield from fs.write_file(task, "/app/data/trunc", b"0123456789")
    yield from fs.truncate(task, "/app/data/trunc", 4)

    outcome["a.bin"] = yield from fs.read_file(task, "/app/data/a.bin")
    outcome["sparse"] = yield from fs.read_file(task, "/app/data/sparse.bin")
    outcome["moved"] = yield from fs.read_file(task, "/app/data/moved")
    outcome["trunc"] = yield from fs.read_file(task, "/app/data/trunc")
    outcome["listing"] = tuple(
        (yield from fs.readdir(task, "/app/data"))
    )
    stat = yield from fs.stat(task, "/app/data/a.bin")
    outcome["a.size"] = stat.size
    outcome["junk_exists"] = yield from fs.exists(task, "/app/data/junk")
    return outcome


EXPECTED = {
    "a.bin": b"ALPHA+tail",
    "sparse": b"\x00" * 10 + b"X",
    "moved": b"moving",
    "trunc": b"0123",
    "listing": ("a.bin", "moved", "sparse.bin", "trunc"),
    "a.size": 10,
    "junk_exists": False,
}


def union_script(fs, task):
    """Extra checks for stacks with an image lower branch."""
    outcome = {}
    outcome["image_read"] = yield from fs.read_file(task, "/etc/base.conf")
    # Shadow an image file (copy-up) and delete another (whiteout).
    handle = yield from fs.open(
        task, "/etc/base.conf", OpenFlags.WRONLY | OpenFlags.APPEND
    )
    yield from fs.write(task, handle, 0, b" + local override")
    yield from fs.close(task, handle)
    outcome["shadowed"] = yield from fs.read_file(task, "/etc/base.conf")
    yield from fs.unlink(task, "/usr/doomed.txt")
    outcome["doomed_exists"] = yield from fs.exists(task, "/usr/doomed.txt")
    outcome["usr_listing"] = tuple((yield from fs.readdir(task, "/usr")))
    return outcome


UNION_EXPECTED = {
    "image_read": b"from the image",
    "shadowed": b"from the image + local override",
    "doomed_exists": False,
    "usr_listing": ("lib",),
}


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_stack_equivalence(symbol):
    world = build_world()
    wants_union = "/" in symbol
    image_path = None
    if wants_union:
        seed(world)
        image_path = "/images/eq"
    pool = world.primary.engine.create_pool(
        "p", num_cores=2, ram_bytes=units.gib(2)
    )
    mount = StackFactory(pool, symbol).mount_root(
        "c0", image_path=image_path
    )
    task = pool.new_task()
    outcome = run(world.sim, script(mount.fs, task), until=4000)
    assert outcome == EXPECTED, "stack %s diverged" % symbol
    if wants_union:
        union_outcome = run(
            world.sim, union_script(mount.fs, task), until=4000
        )
        assert union_outcome == UNION_EXPECTED, (
            "union stack %s diverged" % symbol
        )


@pytest.mark.parametrize("symbol", ["D", "K", "F"])
def test_stack_state_visible_through_fresh_client(symbol):
    """After a flush, a brand-new client observes the script's outcome."""
    from repro.cephclient import CephLibClient

    world = build_world()
    host = world.primary
    pool = host.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(pool, symbol).mount_root("c0")
    task = pool.new_task()
    run(world.sim, script(mount.fs, task), until=4000)

    def flush():
        if hasattr(mount.client, "flush_all"):
            yield from mount.client.flush_all(task)
        else:
            handle = yield from mount.fs.open(task, "/app/data/a.bin")
            yield from mount.fs.fsync(task, handle)
            yield from mount.fs.close(task, handle)
        # Kernel-backed stacks flush through writeback; give it a beat.

    run(world.sim, flush(), until=4000)
    world.sim.run(until=world.sim.now + 2.0)

    account = host.machine.ram.child(units.mib(64), "audit.ram")
    auditor = CephLibClient(
        world.sim, world.cluster, world.costs, account,
        host.machine.cores, name="auditor",
    )
    audit_task = host.task("audit")

    def audit():
        return (
            yield from auditor.read_file(
                audit_task, "/pools/p/c0/app/data/a.bin"
            )
        )

    assert run(world.sim, audit(), until=4000) == EXPECTED["a.bin"]

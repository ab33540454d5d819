"""Host-memory bounds on preallocation: a workload's big file costs one
``WRITE_PIECE`` buffer, on every stack.

``Workload.fill`` writes one buffer repeatedly and every store below it
(``MemTree`` inodes, extent buffers, OSD objects) keeps what it is given
by reference. These bounds are what that buys; a copy that comes back
anywhere on the path — a full-size payload, per-piece slices, a flat
per-inode buffer — fails them.
"""

import tracemalloc

from repro.common import units
from repro.stacks import StackFactory, mount_local
from repro.workloads import RandomIO, Seqread
from repro.world import World
from tests.conftest import run

MIB = units.mib(1)


def build_world():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    world.activate_cores(4)
    pool = world.engine.create_pool("p0", num_cores=2, ram_bytes=units.gib(4))
    return world, pool


def test_randomio_prealloc_on_a_local_mount_peaks_at_one_piece():
    world, pool = build_world()
    workload = RandomIO(mount_local(world, pool).fs, pool, file_size=16 * MIB)
    tracemalloc.start()
    try:
        run(world.sim, workload.setup(pool.new_task()), until=600)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1.4 MiB. It was 34.9 MiB: the payload built at twice its size,
    # then payload + its 1 MiB slices + the inode's flat copy of them.
    assert peak < 4 * MIB


def test_seqread_files_on_danaus_retain_one_piece_each():
    world, pool = build_world()
    mount = StackFactory(world, pool, "D").mount_root("c0")
    workload = Seqread(mount.fs, pool, threads=4, file_size=8 * MIB,
                       warm_cache=False)
    tracemalloc.start()
    try:
        run(world.sim, workload.setup(pool.new_task()), until=600)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert world.cluster.stored_bytes >= 4 * 8 * MIB
    # 4.1 MiB, one piece per file. It was 32.1 MiB: the OSDs held the
    # eight distinct 1 MiB slices of each payload.
    assert current < 6 * MIB

"""Host-memory bounds on preallocation and on finished worlds.

A workload's big file costs one ``WRITE_PIECE`` buffer, on every stack.
``Workload.fill`` writes one buffer repeatedly and every store below it
(``MemTree`` inodes, extent buffers, OSD objects) keeps what it is given
by reference. These bounds are what that buys; a copy that comes back
anywhere on the path — a full-size payload, per-piece slices, a flat
per-inode buffer — fails them.

A finished cell's world is gone before the next cell builds its own:
no simulation generator outlives the call that ran it.
"""

import gc
import os
import tracemalloc
import types

import repro
from repro.bench.isolation import run_colocation
from repro.common import units
from repro.experiments import registry, runner
from repro.experiments.compiler import compile_spec
from repro.stacks import StackFactory, mount_local
from repro.workloads import RandomIO, Seqread
from repro.world import World
from tests.conftest import run

MIB = units.mib(1)


def build_world():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    host = world.primary
    host.activate_cores(4)
    pool = host.engine.create_pool("p0", num_cores=2, ram_bytes=units.gib(4))
    return world, pool


def test_randomio_prealloc_on_a_local_mount_peaks_at_one_piece():
    world, pool = build_world()
    workload = RandomIO(mount_local(pool).fs, pool, file_size=16 * MIB)
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
    mount = StackFactory(pool, "D").mount_root("c0")
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


REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _repro_generators():
    return [obj for obj in gc.get_objects()
            if isinstance(obj, types.GeneratorType)
            and obj.gi_code.co_filename.startswith(REPRO_DIR)]


def _generators_left_by(cell):
    """Names of the simulation generators that ``cell()`` leaves alive."""
    before = _repro_generators()  # held, so no new one can reuse an id
    known = {id(gen) for gen in before}
    cell()
    return sorted(gen.__qualname__ for gen in _repro_generators()
                  if id(gen) not in known)


def test_a_colocation_cell_leaves_no_simulation_generator():
    # One collection left 17 (Disk.transfer, Workqueue._worker_loop,
    # WritebackDaemon._flusher_loop): closing them scheduled events on
    # the dead simulator, which held the world for another pass. A
    # 0.02 s cell ends with none suspended and cannot show it.
    assert _generators_left_by(lambda: run_colocation(
        "K", 1, neighbor="RND", duration=0.3, seed=7)) == []


def test_a_sweep_cell_of_an_undecorated_kind_leaves_no_generator():
    # ``run_file_scaleup`` frees nothing itself; the runner's cell does.
    # Without that, 107 were left (daemon loops and in-flight writes).
    spec = registry.get("fig7c")
    cell = compile_spec(spec, quick=True, seed=1).cells()[0]
    assert _generators_left_by(
        lambda: runner._run_cell(spec, True, 1, cell)) == []

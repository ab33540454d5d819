"""Integration tests for the local filesystem over the kernel substrate."""

import pytest

from repro.common import units
from repro.common.errors import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    IsADirectory,
)
from repro.fs.api import OpenFlags
from repro.hw import RamDisk
from repro.kernel import LocalFs
from tests.conftest import MUTABLE_BUFFERS, make_task, run


@pytest.fixture
def fs(sim, kernel):
    return LocalFs(kernel, RamDisk(sim), name="ext4-test")


def test_create_write_read_roundtrip(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f.txt", b"hello world")
        data = yield from fs.read_file(task, "/f.txt")
        return data

    assert run(sim, proc()) == b"hello world"


def test_open_missing_without_creat_fails(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        with pytest.raises(FileNotFound):
            yield from fs.open(task, "/missing")
        return True

    assert run(sim, proc())


def test_open_excl_on_existing_fails(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"x")
        with pytest.raises(FileExists):
            yield from fs.open(
                task, "/f", OpenFlags.CREAT | OpenFlags.EXCL | OpenFlags.WRONLY
            )
        return True

    assert run(sim, proc())


def test_append_mode_writes_at_eof(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/log", b"aaa")
        handle = yield from fs.open(
            task, "/log", OpenFlags.WRONLY | OpenFlags.APPEND
        )
        yield from fs.write(task, handle, 0, b"bbb")  # offset ignored
        yield from fs.close(task, handle)
        return (yield from fs.read_file(task, "/log"))

    assert run(sim, proc()) == b"aaabbb"


def test_trunc_flag_empties_file(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"old content")
        handle = yield from fs.open(
            task, "/f", OpenFlags.WRONLY | OpenFlags.TRUNC
        )
        yield from fs.close(task, handle)
        stat = yield from fs.stat(task, "/f")
        return stat.size

    assert run(sim, proc()) == 0


def test_read_after_close_fails(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        handle = yield from fs.open(task, "/f", OpenFlags.CREAT | OpenFlags.RDWR)
        yield from fs.close(task, handle)
        with pytest.raises(BadFileDescriptor):
            yield from fs.read(task, handle, 0, 10)
        return True

    assert run(sim, proc())


def test_open_dir_for_write_fails(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.mkdir(task, "/d")
        with pytest.raises(IsADirectory):
            yield from fs.open(task, "/d", OpenFlags.WRONLY)
        return True

    assert run(sim, proc())


def test_mkdir_readdir_unlink(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.mkdir(task, "/d")
        yield from fs.write_file(task, "/d/a", b"1")
        yield from fs.write_file(task, "/d/b", b"2")
        names = yield from fs.readdir(task, "/d")
        yield from fs.unlink(task, "/d/a")
        names_after = yield from fs.readdir(task, "/d")
        return names, names_after

    names, names_after = run(sim, proc())
    assert names == ["a", "b"]
    assert names_after == ["b"]


def test_rename(sim, machine, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/a", b"data")
        yield from fs.rename(task, "/a", "/b")
        exists_a = yield from fs.exists(task, "/a")
        data = yield from fs.read_file(task, "/b")
        return exists_a, data

    assert run(sim, proc()) == (False, b"data")


def test_cached_read_is_faster_than_cold(sim, machine, fs):
    task = make_task(sim, machine)
    payload = b"z" * units.mib(1)

    def proc():
        yield from fs.write_file(task, "/big", payload)
        handle = yield from fs.open(task, "/big")
        start = sim.now
        yield from fs.read(task, handle, 0, len(payload))
        cold = sim.now - start
        start = sim.now
        yield from fs.read(task, handle, 0, len(payload))
        warm = sim.now - start
        yield from fs.close(task, handle)
        return cold, warm

    cold, warm = run(sim, proc())
    # The first read faults pages in... but the write already cached them,
    # so both are warm; both must at least be far below device time.
    assert warm <= cold
    assert warm < 0.01


def test_write_dirties_pages_and_writeback_cleans(sim, machine, kernel, fs):
    task = make_task(sim, machine)
    payload = b"d" * units.kib(64)

    def proc():
        yield from fs.write_file(task, "/f", payload)
        return kernel.page_cache.dirty_bytes

    dirty_now = run(sim, proc(), until=0.5)
    assert dirty_now >= units.kib(64)
    # Let the writeback daemon catch up (expire interval is 5 s).
    sim.run(until=10.0)
    assert kernel.page_cache.dirty_bytes == 0
    assert kernel.writeback.metrics.counter("wb.pages_flushed").value > 0


def test_fsync_cleans_immediately(sim, machine, kernel, fs):
    task = make_task(sim, machine)

    def proc():
        handle = yield from fs.open(task, "/f", OpenFlags.CREAT | OpenFlags.RDWR)
        yield from fs.write(task, handle, 0, b"x" * units.kib(16))
        yield from fs.fsync(task, handle)
        yield from fs.close(task, handle)
        return kernel.page_cache.dirty_bytes

    assert run(sim, proc(), until=1.0) == 0


def test_unlink_drops_cached_pages(sim, machine, kernel, fs):
    task = make_task(sim, machine)

    def proc():
        yield from fs.write_file(task, "/f", b"x" * units.kib(16))
        handle = yield from fs.open(task, "/f")
        yield from fs.read(task, handle, 0, units.kib(16))
        yield from fs.close(task, handle)
        cached_before = kernel.page_cache.cached_bytes
        yield from fs.unlink(task, "/f")
        return cached_before, kernel.page_cache.cached_bytes

    before, after = run(sim, proc())
    assert before > after
    assert after == 0


def test_kernel_locks_see_traffic(sim, machine, kernel, fs):
    task = make_task(sim, machine)

    def proc():
        for index in range(5):
            yield from fs.write_file(task, "/f%d" % index, b"x")

    run(sim, proc())
    assert kernel.locks.class_stats("i_mutex_key").acquisitions > 0
    assert kernel.locks.class_stats("i_mutex_dir_key").acquisitions > 0
    assert kernel.locks.class_stats("sb_lock").acquisitions >= 5


def test_vfs_routing(sim, machine, kernel):
    fs_a = LocalFs(kernel, RamDisk(sim), name="a")
    fs_b = LocalFs(kernel, RamDisk(sim), name="b")
    kernel.vfs.mount("/a", fs_a)
    kernel.vfs.mount("/a/nested", fs_b)
    task = make_task(sim, machine)

    def proc():
        yield from kernel.vfs.write_file(task, "/a/file", b"top")
        yield from kernel.vfs.write_file(task, "/a/nested/file", b"deep")
        top = yield from fs_a.read_file(task, "/file")
        deep = yield from fs_b.read_file(task, "/file")
        return top, deep

    assert run(sim, proc()) == (b"top", b"deep")


def test_vfs_unmounted_path_fails(sim, machine, kernel):
    from repro.common.errors import NotMounted

    task = make_task(sim, machine)

    def proc():
        with pytest.raises(NotMounted):
            yield from kernel.vfs.stat(task, "/nowhere/f")
        return True

    assert run(sim, proc())


def test_vfs_cross_device_rename_fails(sim, machine, kernel):
    from repro.common.errors import CrossDevice

    fs_a = LocalFs(kernel, RamDisk(sim), name="a")
    fs_b = LocalFs(kernel, RamDisk(sim), name="b")
    kernel.vfs.mount("/a", fs_a)
    kernel.vfs.mount("/b", fs_b)
    task = make_task(sim, machine)

    def proc():
        yield from kernel.vfs.write_file(task, "/a/f", b"x")
        with pytest.raises(CrossDevice):
            yield from kernel.vfs.rename(task, "/a/f", "/b/f")
        return True

    assert run(sim, proc())


# --- the inode holds written buffers by reference ------------------------------

@pytest.mark.parametrize("kind", sorted(MUTABLE_BUFFERS))
@pytest.mark.parametrize("entry", ["write", "write_file"])
def test_mutable_buffer_written_to_a_file_is_snapshotted(
        sim, machine, fs, kind, entry):
    """What decides a snapshot is the memory under the buffer, never its
    ``readonly`` flag: the writer can still change all three of these."""
    task = make_task(sim, machine)
    source = bytearray(b"acknowledged-bytes")
    buf = MUTABLE_BUFFERS[kind](source)

    def proc():
        if entry == "write_file":
            yield from fs.write_file(task, "/f", buf)
        else:
            handle = yield from fs.open(
                task, "/f", OpenFlags.CREAT | OpenFlags.WRONLY
            )
            yield from fs.write(task, handle, 0, buf)
            yield from fs.close(task, handle)
        source[:] = b"X" * len(source)
        return (yield from fs.read_file(task, "/f"))

    assert run(sim, proc()) == b"acknowledged-bytes"
    assert bytes(fs.tree.lookup("/f").data) == b"acknowledged-bytes"


def test_bytes_payload_is_stored_and_read_back_by_reference(sim, machine, fs):
    task = make_task(sim, machine)
    payload = bytes(range(256)) * 4096  # 1 MiB: one write_file piece

    def proc():
        yield from fs.write_file(task, "/f", payload)
        handle = yield from fs.open(task, "/f")
        data = yield from fs.read(task, handle, 0, len(payload))
        yield from fs.close(task, handle)
        return data

    assert run(sim, proc()) is payload
    assert fs.tree.lookup("/f").read(0, len(payload)) is payload
    assert fs.peek("/f", 0, len(payload)) is payload

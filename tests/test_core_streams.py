"""Tests for library pipes and directory streams (§4.1)."""

import pytest

from repro.common import units
from repro.common.errors import BadFileDescriptor, InvalidArgument
from repro.core import FilesystemLibrary
from repro.core.streams import DirStream, LibraryPipe
from repro.stacks import StackFactory
from repro.world import World
from tests.conftest import make_task, run


# --- LibraryPipe (unit) -----------------------------------------------------

def test_pipe_write_then_read(sim, machine):
    pipe = LibraryPipe(sim)
    task = make_task(sim, machine)

    def proc():
        yield from pipe.write(task, b"hello through shm")
        return (yield from pipe.read(task, 100))

    assert run(sim, proc()) == b"hello through shm"


def test_pipe_read_blocks_until_write(sim, machine):
    pipe = LibraryPipe(sim)
    task = make_task(sim, machine)
    log = []

    def consumer():
        data = yield from pipe.read(task, 10)
        log.append((data, sim.now))

    def producer():
        yield sim.timeout(2)
        yield from pipe.write(task, b"late")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run(until=10)
    assert log == [(b"late", 2)]


def test_pipe_write_blocks_when_full(sim, machine):
    pipe = LibraryPipe(sim, capacity=4)
    task = make_task(sim, machine)
    times = []

    def producer():
        yield from pipe.write(task, b"aaaa")
        times.append(sim.now)
        yield from pipe.write(task, b"bb")  # must wait for space
        times.append(sim.now)

    def consumer():
        yield sim.timeout(3)
        yield from pipe.read(task, 4)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run(until=10)
    assert times[0] == 0
    assert times[1] == 3


def test_pipe_eof_after_write_close(sim, machine):
    pipe = LibraryPipe(sim)
    task = make_task(sim, machine)

    def proc():
        yield from pipe.write(task, b"last")
        pipe.close_write()
        first = yield from pipe.read(task, 10)
        eof = yield from pipe.read(task, 10)
        return first, eof

    assert run(sim, proc()) == (b"last", b"")


def test_pipe_broken_after_read_close(sim, machine):
    pipe = LibraryPipe(sim)
    task = make_task(sim, machine)

    def proc():
        pipe.close_read()
        with pytest.raises(InvalidArgument):
            yield from pipe.write(task, b"x")
        return True

    assert run(sim, proc())


def test_pipe_partial_reads(sim, machine):
    pipe = LibraryPipe(sim)
    task = make_task(sim, machine)

    def proc():
        yield from pipe.write(task, b"abcdef")
        first = yield from pipe.read(task, 2)
        second = yield from pipe.read(task, 10)
        return first, second

    assert run(sim, proc()) == (b"ab", b"cdef")


# --- DirStream (unit) ----------------------------------------------------------

def test_dirstream_iterates_and_rewinds():
    stream = DirStream(None, "/d", ["a", "b"])
    assert stream.next_entry() == "a"
    assert stream.tell() == 1
    assert stream.next_entry() == "b"
    assert stream.next_entry() is None
    stream.rewind()
    assert stream.next_entry() == "a"
    stream.seek(2)
    assert stream.next_entry() is None
    with pytest.raises(InvalidArgument):
        stream.seek(5)
    stream.close()
    with pytest.raises(BadFileDescriptor):
        stream.next_entry()


# --- through the Danaus library ---------------------------------------------------

@pytest.fixture
def setup():
    world = World(num_cores=8, ram_bytes=units.gib(8))
    host = world.primary
    host.activate_cores(4)
    pool = host.engine.create_pool("p", num_cores=2, ram_bytes=units.gib(2))
    mount = StackFactory(world, pool, "D").mount_root("c0")
    return world, pool, mount


def test_library_pipe_descriptors(setup):
    world, pool, mount = setup
    library = mount.library
    task = pool.new_task()
    read_end, write_end = library.pipe()
    assert read_end.fd != write_end.fd

    def proc():
        yield from library.pipe_write(task, write_end, b"ipc payload")
        data = yield from library.pipe_read(task, read_end, 100)
        library.pipe_close(write_end)
        eof = yield from library.pipe_read(task, read_end, 10)
        library.pipe_close(read_end)
        return data, eof

    data, eof = run(world.sim, proc())
    assert data == b"ipc payload"
    assert eof == b""
    assert len(library.files) == 0  # descriptors released


def test_library_pipe_between_processes(setup):
    """Producer and consumer threads of the pool share the pipe."""
    world, pool, mount = setup
    library = mount.library
    read_end, write_end = library.pipe(capacity=64)
    producer_task = pool.new_task("producer")
    consumer_task = pool.new_task("consumer")
    received = []

    def producer():
        for index in range(8):
            chunk = b"msg-%03d;" % index
            yield from library.pipe_write(producer_task, write_end, chunk)
        library.pipe_close(write_end)

    def consumer():
        while True:
            data = yield from library.pipe_read(consumer_task, read_end, 16)
            if not data:
                break
            received.append(data)
        library.pipe_close(read_end)

    world.sim.spawn(producer())
    proc = world.sim.spawn(consumer())
    world.sim.run_until(proc, 100)
    assert b"".join(received) == b"".join(b"msg-%03d;" % i for i in range(8))


def test_library_directory_stream(setup):
    world, pool, mount = setup
    library = mount.library
    task = pool.new_task()

    def proc():
        yield from mount.fs.makedirs(task, "/data")
        for name in ("x", "y", "z"):
            yield from mount.fs.write_file(task, "/data/" + name, b"1")
        stream = yield from library.opendir(task, "/data")
        names = []
        while True:
            name = yield from library.readdir_next(task, stream)
            if name is None:
                break
            names.append(name)
        library.rewinddir(stream)
        first_again = yield from library.readdir_next(task, stream)
        library.closedir(stream)
        return names, first_again

    names, first_again = run(world.sim, proc())
    assert names == ["x", "y", "z"]
    assert first_again == "x"


def test_dir_stream_snapshot_is_stable(setup):
    """Entries added after opendir do not appear mid-iteration (POSIX
    allows either; we provide the stable snapshot)."""
    world, pool, mount = setup
    library = mount.library
    task = pool.new_task()

    def proc():
        yield from mount.fs.makedirs(task, "/snap")
        yield from mount.fs.write_file(task, "/snap/a", b"1")
        stream = yield from library.opendir(task, "/snap")
        yield from mount.fs.write_file(task, "/snap/b", b"2")
        names = []
        while True:
            name = yield from library.readdir_next(task, stream)
            if name is None:
                break
            names.append(name)
        library.closedir(stream)
        return names

    assert run(world.sim, proc()) == ["a"]

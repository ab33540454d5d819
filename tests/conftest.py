"""Shared pytest fixtures and helpers."""

import json
import pathlib

import pytest

from repro.common import units
from repro.fs.api import Task
from repro.hw import Machine
from repro.kernel import HostKernel
from repro.sim import Simulator, SimThread


@pytest.fixture
def sim():
    """A fresh simulator for each test."""
    return Simulator()


@pytest.fixture
def machine(sim):
    """A small host machine: 8 cores, 4 GiB RAM, 6 disks."""
    return Machine(sim, num_cores=8, ram_bytes=units.gib(4))


@pytest.fixture
def kernel(sim, machine):
    """A host kernel on the small machine (flushers running)."""
    return HostKernel(sim, machine)


def make_task(sim, machine, name="task", pool=None, cores=None):
    """Create a Task with a fresh thread on the machine's cores."""
    thread = SimThread(sim, name, cores if cores is not None else machine.activated)
    return Task(thread, pool=pool)


@pytest.fixture
def task(sim, machine):
    return make_task(sim, machine)


def run(sim, gen, until=1000.0):
    """Run a generator to completion even with daemon loops pending.

    Background daemons (kernel flushers, service threads) keep the event
    heap non-empty forever, so we always bound the clock. ``until`` is a
    *relative* budget from the current simulation time, so helpers can be
    called repeatedly in one test.
    """
    deadline = sim.now + until
    process = sim.spawn(gen)
    finished = sim.run_until(process, deadline)
    assert finished, "process did not finish by t=%s" % deadline
    return process.value


def committed_fingerprint(scenario, seed):
    """The chaos fingerprint ``tests/chaos_fingerprints.json`` commits for
    ``scenario`` at ``seed`` (``ChaosResult.fingerprint_hex()``). One run
    checked against it catches a schedule that moves between commits as
    well as one that moves with process state; after a deliberate
    re-baseline, write the new value there."""
    path = pathlib.Path(__file__).with_name("chaos_fingerprints.json")
    return json.loads(path.read_text())[scenario][str(seed)]


#: Buffers whose writer can still change the bytes after handing them
#: over — a by-reference store must snapshot all three (the test is the
#: memory under the buffer, never its ``readonly`` flag). Each entry maps
#: a source ``bytearray`` to the buffer to write.
MUTABLE_BUFFERS = {
    "bytearray": lambda source: source,
    "writable-view": memoryview,
    "readonly-view-of-bytearray": lambda source: memoryview(source).toreadonly(),
}

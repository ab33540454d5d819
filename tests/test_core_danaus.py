"""Integration tests for the Danaus core: IPC, service, library."""

import pytest

from repro.cephclient import CephLibClient
from repro.common import units
from repro.common.errors import ConfigError, ServiceFailed
from repro.core import (
    DanausIpc, FilesystemLibrary, FilesystemService, ServiceSupervisor,
)
from repro.costs import CostModel
from repro.fs.api import OpenFlags
from repro.fs.prefix import SubtreeFs
from repro.hw import RamDisk
from repro.kernel import LocalFs
from repro.net import Fabric
from repro.storage import CephCluster
from tests.conftest import make_task, run


@pytest.fixture
def costs():
    return CostModel(object_size=units.kib(256))


@pytest.fixture
def cluster(sim, costs):
    return CephCluster(sim, Fabric(sim), costs, num_osds=4)


def make_service(sim, machine, costs, cores=None, **kwargs):
    cores = cores if cores is not None else machine.activated
    return FilesystemService(sim, machine, costs, cores, **kwargs)


def make_client(sim, machine, cluster, costs, name="client"):
    account = machine.ram.child(units.mib(256), name + ".ram")
    return CephLibClient(
        sim, cluster, costs, account, machine.activated, name=name
    )


# --- IPC ------------------------------------------------------------------

def test_ipc_one_queue_per_core_group(sim, machine, costs):
    ipc = DanausIpc(sim, machine, costs, machine.cores[:4])
    assert len(ipc.queues) == 2  # 4 cores = 2 L2 pairs


def test_ipc_single_queue_mode(sim, machine, costs):
    ipc = DanausIpc(sim, machine, costs, machine.cores[:4], single_queue=True)
    assert len(ipc.queues) == 1


def test_ipc_requires_cores(sim, machine, costs):
    with pytest.raises(ConfigError):
        DanausIpc(sim, machine, costs, [])


def test_ipc_pins_thread_on_first_request(sim, machine, costs, kernel):
    service = make_service(sim, machine, costs, cores=machine.cores[:4])
    inner = LocalFs(kernel, RamDisk(sim), name="t")
    instance = service.mount("/", inner)
    task = make_task(sim, machine, cores=machine.cores[:4])
    assert len(task.thread.cpuset) == 4

    def proc():
        yield from service.call(
            task, instance, "open", ("/f", OpenFlags.CREAT | OpenFlags.RDWR, 0o644)
        )

    run(sim, proc())
    # After the first I/O the thread is confined to one queue's core group.
    assert len(task.thread.cpuset) == 2


# --- service ------------------------------------------------------------------

def test_service_executes_ops_at_user_level(sim, machine, kernel, costs, cluster):
    service = make_service(sim, machine, costs)
    client = make_client(sim, machine, cluster, costs)
    instance = service.mount("/", client)
    task = make_task(sim, machine)
    syscalls_before = kernel.metrics.counter("syscalls").value

    def proc():
        handle = yield from service.call(
            task, instance, "open", ("/f", OpenFlags.CREAT | OpenFlags.RDWR, 0o644)
        )
        yield from service.call(
            task, instance, "write", (handle, 0, b"user level"),
            payload_out=10,
        )
        data = yield from service.call(
            task, instance, "read", (handle, 0, 10), payload_in=10
        )
        yield from service.call(task, instance, "close", (handle,))
        return data

    assert run(sim, proc()) == b"user level"
    # The whole exchange bypassed the kernel: no syscalls were issued.
    assert kernel.metrics.counter("syscalls").value == syscalls_before


def test_service_crash_contained_to_its_pool(sim, machine, kernel, costs, cluster):
    service_a = make_service(sim, machine, costs, name="svc-a")
    service_b = make_service(sim, machine, costs, name="svc-b")
    client_a = make_client(sim, machine, cluster, costs, name="ca")
    client_b = make_client(sim, machine, cluster, costs, name="cb")
    instance_a = service_a.mount("/", SubtreeFs(client_a, "/a"))
    instance_b = service_b.mount("/", SubtreeFs(client_b, "/b"))
    task = make_task(sim, machine)

    def proc():
        yield from client_a.makedirs(task, "/a")
        yield from client_b.makedirs(task, "/b")
        yield from service_b.call(
            task, instance_b, "open", ("/ok", OpenFlags.CREAT | OpenFlags.RDWR, 0o644)
        )
        service_a.crash()
        with pytest.raises(ServiceFailed):
            yield from service_a.call(
                task, instance_a, "open",
                ("/f", OpenFlags.CREAT | OpenFlags.RDWR, 0o644),
            )
        # Service B and the host kernel are unaffected.
        handle = yield from service_b.call(
            task, instance_b, "open", ("/ok2", OpenFlags.CREAT | OpenFlags.RDWR, 0o644)
        )
        yield from service_b.call(task, instance_b, "close", (handle,))
        return True

    assert run(sim, proc())


# --- the accepted put parks straight on the reply ---------------------------


def _one_queue_service(sim, machine, kernel, costs):
    """A service on core 0 (one queue) and a caller task on core 1."""
    service = make_service(sim, machine, costs, cores=machine.cores[:1])
    instance = service.mount("/", LocalFs(kernel, RamDisk(sim), name="t"))
    task = make_task(sim, machine, cores=machine.cores[1:2])
    return service, instance, task


def _crash_between_put_and_pickup(sim, service, costs):
    """Crash ``service`` after a caller's put at t=1 and before the
    service thread's pickup, in the same step.

    The caller's enqueue charge ends at ``1 + ipc_queue_op`` (its slice
    entry is queued at t=1). This wake, queued at t=0, ties with it and
    runs first; the zero sleep then queues the crash behind the slice
    entry but ahead of the pickup the put queues. Returns the state
    seen at the crash."""
    yield 1.0 + costs.ipc_queue_op
    yield 0.0
    seen = {
        "put": service.ipc.requests.value == 1,
        "picked_up": bool(service._inflight),
        "now": sim.now,
    }
    service.crash()
    return seen


def test_crash_between_put_and_pickup_fails_the_caller(sim, machine, kernel,
                                                       costs):
    service, instance, task = _one_queue_service(sim, machine, kernel, costs)
    outcome = []

    def caller():
        yield 1.0
        try:
            yield from service.call(task, instance, "stat", ("/",))
            outcome.append("served")
        except ServiceFailed:
            outcome.append(("failed", sim.now))

    sim.spawn(caller())
    crasher = sim.spawn(_crash_between_put_and_pickup(sim, service, costs))
    sim.run(until=5.0)
    seen = crasher.value
    assert seen["put"] and not seen["picked_up"]
    # Failed in the step of the crash, not a poll latency later.
    assert outcome == [("failed", seen["now"])]


def test_supervised_crash_between_put_and_pickup_is_retried(sim, machine,
                                                            kernel, costs):
    service, instance, task = _one_queue_service(sim, machine, kernel, costs)
    supervisor = ServiceSupervisor(sim, costs)
    supervisor.watch(service)

    def caller():
        yield 1.0
        stat = yield from service.call(task, instance, "stat", ("/",))
        return stat.is_dir, sim.now

    process = sim.spawn(caller())
    crasher = sim.spawn(_crash_between_put_and_pickup(sim, service, costs))
    sim.run(until=5.0)
    seen = crasher.value
    assert seen["put"] and not seen["picked_up"]
    is_dir, finished = process.value
    assert is_dir and finished >= seen["now"] + supervisor.restart_delay
    # At least one retry: more when the restart outlasts an op timeout.
    assert service.metrics.counter("service_retries").value >= 1
    assert service.generation == 1


def _crash_during_enqueue_charge(sim, service, costs):
    """Crash ``service`` halfway through the enqueue charge of a caller
    that calls at t=1: the caller has picked its queue but not put."""
    yield 1.0 + costs.ipc_queue_op / 2
    service.crash()


def test_crash_during_the_enqueue_charge_fails_the_caller(sim, machine,
                                                         kernel, costs):
    """The caller must not put its request into the queue the crash
    drained: nothing would ever read it, and the caller would wait on
    its reply forever."""
    service, instance, task = _one_queue_service(sim, machine, kernel, costs)
    outcome = []

    def caller():
        yield 1.0
        try:
            yield from service.call(task, instance, "stat", ("/",))
            outcome.append("served")
        except ServiceFailed:
            outcome.append(("failed", sim.now))

    sim.spawn(caller())
    sim.spawn(_crash_during_enqueue_charge(sim, service, costs))
    sim.run(until=5.0)
    assert outcome == [("failed", 1.0 + costs.ipc_queue_op)]


def test_supervised_crash_during_the_enqueue_charge_is_retried(sim, machine,
                                                               kernel, costs):
    service, instance, task = _one_queue_service(sim, machine, kernel, costs)
    supervisor = ServiceSupervisor(sim, costs)
    supervisor.watch(service)

    def caller():
        yield 1.0
        stat = yield from service.call(task, instance, "stat", ("/",))
        return stat.is_dir, sim.now

    process = sim.spawn(caller())
    sim.spawn(_crash_during_enqueue_charge(sim, service, costs))
    sim.run(until=5.0)
    assert process.triggered, "the caller is stuck in the drained queue"
    is_dir, finished = process.value
    assert is_dir and finished >= 1.0 + supervisor.restart_delay
    assert service.metrics.counter("service_retries").value >= 1
    assert service.generation == 1


def test_put_parks_the_long_way_inside_a_callback_batch(sim, machine, kernel):
    """Two subscribers of one event are one batch; the first submits with
    a free enqueue, so its put comes while the second is still to run."""
    costs = CostModel(object_size=units.kib(256), ipc_queue_op=0.0)
    service, instance, task = _one_queue_service(sim, machine, kernel, costs)
    gate = sim.event()
    seen = []

    def submitter():
        yield gate
        yield from service.call(task, instance, "stat", ("/",))

    def observer():
        yield gate
        seen.append(service.ipc.requests.value)

    def opener():
        yield 1.0
        gate.succeed()

    sim.spawn(submitter())
    sim.spawn(observer())
    sim.spawn(opener())
    sim.run(until=5.0)
    # The submitter had not gone on past its put when the batch ended.
    assert seen == [0]
    assert service.ipc.requests.value == 1


def test_run_until_stops_before_an_accepted_put_goes_on(sim, machine, kernel):
    costs = CostModel(object_size=units.kib(256), ipc_queue_op=0.0)
    service, instance, task = _one_queue_service(sim, machine, kernel, costs)
    done = sim.event()

    def caller():
        yield 1.0
        done.succeed()
        stat = yield from service.call(task, instance, "stat", ("/",))
        return stat.is_dir

    process = sim.spawn(caller())
    elided = sim.elided
    assert sim.run_until(done, deadline=5.0) is True
    # Stopped at the put: the request is queued, the caller's resumption
    # too; it has not gone on to count the request and wait.
    assert service.ipc.requests.value == 0 and sim.elided == elided
    sim.run(until=5.0)
    assert process.value is True
    assert service.ipc.requests.value == 1


def test_service_scales_threads_under_backlog(sim, machine, kernel, costs):
    service = make_service(
        sim, machine, costs, cores=machine.cores[:2], single_queue=True
    )
    inner = LocalFs(kernel, RamDisk(sim), name="busy")
    instance = service.mount("/", inner)
    payload = b"w" * units.kib(64)

    def writer(index):
        task = make_task(sim, machine, "w%d" % index, cores=machine.cores[:2])
        handle = yield from service.call(
            task, instance, "open",
            ("/f%d" % index, OpenFlags.CREAT | OpenFlags.WRONLY, 0o644),
        )
        for block in range(8):
            yield from service.call(
                task, instance, "write",
                (handle, block * len(payload), payload),
                payload_out=len(payload),
            )
        yield from service.call(task, instance, "close", (handle,))

    for index in range(24):
        sim.spawn(writer(index))
    sim.run(until=120)
    assert service.metrics.counter("ops_served").value >= 24 * 10 - 24
    assert service.metrics.counter("extra_threads").value >= 1


# --- library -----------------------------------------------------------------------

def test_library_routes_danaus_and_kernel_paths(sim, machine, kernel, costs, cluster):
    service = make_service(sim, machine, costs)
    client = make_client(sim, machine, cluster, costs)
    instance = service.mount("/data", client)
    local = LocalFs(kernel, RamDisk(sim), name="rootfs")
    kernel.vfs.mount("/", local)
    library = FilesystemLibrary(kernel, name="app")
    library.attach("/data", service, instance)
    task = make_task(sim, machine)

    def proc():
        yield from library.write_file(task, "/data/f", b"via danaus")
        yield from library.write_file(task, "/tmp-file", b"via kernel")
        danaus_data = yield from library.read_file(task, "/data/f")
        kernel_data = yield from library.read_file(task, "/tmp-file")
        return danaus_data, kernel_data

    danaus_data, kernel_data = run(sim, proc())
    assert danaus_data == b"via danaus"
    assert kernel_data == b"via kernel"
    assert library.metrics.counter("danaus_opens").value == 2  # write + read
    # The kernel-path file exists on the local fs, the Danaus one on Ceph.
    assert local.tree.try_lookup("/tmp-file") is not None


def test_library_fds_are_disjoint_from_kernel_fds(sim, machine, kernel, costs, cluster):
    service = make_service(sim, machine, costs)
    client = make_client(sim, machine, cluster, costs)
    instance = service.mount("/data", client)
    library = FilesystemLibrary(kernel, name="fd")
    library.attach("/data", service, instance)
    task = make_task(sim, machine)

    def proc():
        handle = yield from library.open(
            task, "/data/f", OpenFlags.CREAT | OpenFlags.RDWR
        )
        fd = handle.fd
        yield from library.close(task, handle)
        return fd

    fd = run(sim, proc())
    assert fd >= 1 << 16  # private descriptor space


def test_library_close_releases_fd(sim, machine, kernel, costs, cluster):
    from repro.common.errors import BadFileDescriptor

    service = make_service(sim, machine, costs)
    client = make_client(sim, machine, cluster, costs)
    instance = service.mount("/data", client)
    library = FilesystemLibrary(kernel, name="fd2")
    library.attach("/data", service, instance)
    task = make_task(sim, machine)

    def proc():
        handle = yield from library.open(
            task, "/data/f", OpenFlags.CREAT | OpenFlags.RDWR
        )
        yield from library.close(task, handle)
        with pytest.raises(BadFileDescriptor):
            yield from library.read(task, handle, 0, 1)
        return len(library.files)

    assert run(sim, proc()) == 0


def test_library_exec_read_uses_kernel_path(sim, machine, kernel, costs):
    local = LocalFs(kernel, RamDisk(sim), name="rootfs")
    kernel.vfs.mount("/", local)
    library = FilesystemLibrary(kernel, name="exec")
    task = make_task(sim, machine)

    def proc():
        yield from kernel.vfs.write_file(task, "/bin-sh", b"#!binary")
        syscalls_before = kernel.metrics.counter("syscalls").value
        data = yield from library.exec_read(task, "/bin-sh")
        syscalls_after = kernel.metrics.counter("syscalls").value
        return data, syscalls_after - syscalls_before

    data, syscalls = run(sim, proc())
    assert data == b"#!binary"
    assert syscalls > 0
    assert library.metrics.counter("legacy_reads").value == 1

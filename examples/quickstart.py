#!/usr/bin/env python
"""Quickstart: one tenant, one Danaus mount, basic file I/O.

Builds the full simulated testbed (client machine, host kernel, Ceph-like
cluster), creates a container pool, mounts a Danaus root filesystem for a
container, and exercises the POSIX-like API — including the dual
interface: normal I/O travels the user-level path, an exec-style read
goes through the kernel's FUSE endpoint of the same service.

Run:  python examples/quickstart.py
"""

from repro import StackFactory, World
from repro.common import units


def main():
    world = World(num_cores=8, ram_bytes=units.gib(16))
    host = world.primary
    host.activate_cores(4)

    pool = host.engine.create_pool(
        "tenant0", num_cores=2, ram_bytes=units.gib(4)
    )
    mount = StackFactory(pool, "D").mount_root("c0")
    task = pool.new_task("app")

    def app():
        fs = mount.fs
        yield from fs.makedirs(task, "/data/logs")
        yield from fs.write_file(task, "/data/hello.txt", b"hello danaus\n")
        data = yield from fs.read_file(task, "/data/hello.txt")
        print("read back:        %r" % data)

        names = yield from fs.readdir(task, "/data")
        print("readdir /data:    %s" % names)

        stat = yield from fs.stat(task, "/data/hello.txt")
        print("stat size:        %d bytes" % stat.size)

        # Legacy path: exec-style reads go through the kernel + FUSE.
        yield from fs.write_file(task, "/bin-app", b"\x7fELF...binary")
        binary = yield from mount.exec_read(task, "/bin-app")
        print("exec read:        %d bytes via the legacy kernel path" % len(binary))

    world.sim.spawn(app(), name="app")
    world.run(until=30)

    print()
    print("user-level opens:  %d (no system calls on the default path)"
          % mount.library.metrics.counter("danaus_opens").value)
    print("legacy reads:      %d (exec/mmap through the kernel)"
          % mount.library.metrics.counter("legacy_reads").value)
    print("context switches:  %d (all on the legacy FUSE path)"
          % mount.ctx_switches())
    print("client cache:      %s" % mount.client.cache.stats())


if __name__ == "__main__":
    main()

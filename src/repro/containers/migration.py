"""Container migration through the shared network filesystem (§9).

The paper's future-work observation: because both the root and the
application filesystems of a container live directly on the shared
distributed filesystem, migrating a container between hosts needs no
image copying at all — flush the source client, tear the mount down, and
re-mount the very same directories from the destination host's client.

:func:`migrate_container` implements exactly that sequence and reports
the downtime (the span during which the container can serve no I/O):

1. **freeze** — stop admitting new I/O at the source mount;
2. **flush** — push the source client's dirty state to the cluster and
   its size updates to the MDS;
3. **detach** — unmount at the source (for Danaus: the filesystem
   service instance is released; a crashed source service also satisfies
   this step, which makes migration a recovery path too);
4. **adopt** — build a fresh mount on the destination pool pointing at
   the *source* container's directories in the shared namespace;
5. **thaw** — the container's processes resume on the destination pool.
"""

from repro.containers.pool import Container
from repro.stacks.factory import StackFactory

__all__ = ["MigrationReport", "migrate_container"]


class MigrationReport(object):
    """Outcome of one migration."""

    __slots__ = ("container", "downtime", "flushed_bytes", "source_pool",
                 "target_pool")

    def __init__(self, container, downtime, flushed_bytes, source_pool,
                 target_pool):
        self.container = container
        self.downtime = downtime
        self.flushed_bytes = flushed_bytes
        self.source_pool = source_pool
        self.target_pool = target_pool

    def __repr__(self):
        return "<MigrationReport %s: %s -> %s, downtime %.3fs>" % (
            self.container.cid, self.source_pool.name,
            self.target_pool.name, self.downtime,
        )


def migrate_container(world, container, target_pool, symbol="D",
                      image_path=None, **stack_kwargs):
    """Migrate ``container`` onto ``target_pool`` (possibly another host).

    Sim generator returning a :class:`MigrationReport` whose ``container``
    is the new :class:`~repro.containers.pool.Container` on the target.
    The container's persistent state is *not copied* — the shared
    filesystem already holds it; only dirty cache state moves (by being
    flushed).
    """
    sim = world.sim
    source_pool = container.pool
    source_mount = container.mount
    started = sim.now

    # 1-2. freeze + flush: push every dirty byte of the source client.
    flushed = 0
    flush_task = source_pool.new_task("migrate-flush")
    client = source_mount.client
    if client is not None and hasattr(client, "flush_all"):
        flushed = yield from client.flush_all(flush_task)

    # 3. detach: release the source-side mount. For a Danaus mount the
    # service instance is dropped; the library would now fail requests.
    if source_mount.library is not None:
        source_mount.library.detach("/")
    source_pool.containers.remove(container)

    # 4. adopt: mount the same container directories from the target pool.
    factory = StackFactory(target_pool, symbol, **stack_kwargs)
    source_base = "/pools/%s" % source_pool.name
    new_mount = factory.mount_root(
        container.cid, image_path=image_path, base=source_base
    )
    new_container = Container(target_pool, container.cid, new_mount)

    # 5. thaw: from here the container's tasks run on the target pool.
    downtime = sim.now - started
    return MigrationReport(
        new_container, downtime, flushed, source_pool, target_pool
    )

"""Block-device models: disks, RAID-0 arrays and ramdisks.

The testbed in the paper has 6 local disks per machine (125-204 MB/s), with
the workloads' local filesystems on a 4-disk RAID-0, and the Ceph OSDs
backed by ramdisks. We model a disk as a single request queue with a
per-request positioning time (much larger for random access) plus a
size-proportional transfer time.
"""

from repro.common import units
from repro.sim.sync import Mutex

__all__ = ["Disk", "Raid0", "RamDisk"]


class Disk(object):
    """A single spindle: one queue, seek/positioning cost, transfer rate."""

    def __init__(
        self,
        sim,
        name="disk",
        bandwidth=160 * units.MIB,
        seq_position_time=units.usec(50),
        rand_position_time=units.msec(6),
    ):
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.seq_position_time = seq_position_time
        self.rand_position_time = rand_position_time
        self._queue = Mutex(sim, name="diskq:%s" % name)
        self.bytes_read = 0
        self.bytes_written = 0
        #: service-time multiplier; >1 models a degraded (slow) device —
        #: media errors under retry, a failing controller, a noisy
        #: virtualised neighbour. Set by fault injection.
        self.slow_factor = 1.0

    def set_slow_factor(self, factor):
        """Degrade (or restore, with 1.0) the device service time."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1.0")
        self.slow_factor = float(factor)
        self.sim.trace("hw", "disk_degrade", disk=self.name, factor=factor)

    def transfer(self, nbytes, write=False, random_access=False, positions=1):
        """Perform one I/O of ``nbytes``; generator completing when done.

        ``positions`` models an elevator-sorted scatter list: the device
        pays one positioning delay per contiguous run (writeback of a
        randomly-dirtied file) but the request occupies the queue once.
        """
        yield self._queue.acquire()
        try:
            position = (
                self.rand_position_time if random_access else self.seq_position_time
            )
            yield (
                (position * max(positions, 1) + nbytes / self.bandwidth)
                * self.slow_factor
            )
        finally:
            self._queue.release()
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes

    @property
    def queue_len(self):
        return self._queue.queue_len + (1 if self._queue.locked else 0)


class RamDisk(Disk):
    """Memory-backed block device (the paper's OSD data/journal store)."""

    def __init__(self, sim, name="ramdisk", bandwidth=2 * units.GIB):
        super().__init__(
            sim,
            name=name,
            bandwidth=bandwidth,
            seq_position_time=units.usec(2),
            rand_position_time=units.usec(4),
        )


class Raid0(object):
    """Stripes I/O across member disks in fixed-size chunks, in parallel."""

    def __init__(self, sim, disks, chunk=64 * units.KIB, name="raid0"):
        if not disks:
            raise ValueError("RAID-0 needs at least one disk")
        self.sim = sim
        self.name = name
        self.disks = list(disks)
        self.chunk = chunk

    @property
    def bandwidth(self):
        return sum(disk.bandwidth for disk in self.disks)

    def transfer(self, nbytes, write=False, random_access=False, offset=0,
                 positions=1):
        """Split the request over the stripes and wait for all of them."""
        per_disk = [0] * len(self.disks)
        stripe = (offset // self.chunk) % len(self.disks)
        remaining = nbytes
        first = min(self.chunk - offset % self.chunk, remaining)
        per_disk[stripe] += first
        remaining -= first
        while remaining > 0:
            stripe = (stripe + 1) % len(self.disks)
            piece = min(self.chunk, remaining)
            per_disk[stripe] += piece
            remaining -= piece
        active = [amount for amount in per_disk if amount > 0]
        per_disk_positions = max(1, positions // max(len(active), 1))
        pending = [
            self.sim.spawn(
                disk.transfer(amount, write=write, random_access=random_access,
                              positions=per_disk_positions),
                name="raid-io",
            )
            for disk, amount in zip(self.disks, per_disk)
            if amount > 0
        ]
        if pending:
            yield self.sim.all_of(pending)

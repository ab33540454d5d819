"""Dynamic memory reallocation across pools (§9 future work).

"The partitioning of host resources across different pools trades the
resource utilization for improved isolation. We leave for future
extension of our framework the dynamic reallocation of underutilized
resources (e.g., memory) combined with service quality guarantees."

:class:`MemoryRebalancer` implements that extension: it periodically
moves *unused* memory reservation from cold pools to pools under memory
pressure, while never shrinking a pool below its guaranteed share — the
service-quality floor. Because every cache in the reproduction charges
its pool's RAM account, a larger account immediately translates into a
larger effective cache.
"""

from repro.common.errors import ConfigError
from repro.metrics import MetricSet

__all__ = ["MemoryRebalancer"]


class MemoryRebalancer(object):
    """Shifts spare reservation between pools under a guarantee floor."""

    def __init__(self, sim, pools, interval=1.0, guarantee_fraction=0.5,
                 donor_threshold=0.5, receiver_threshold=0.85,
                 step_fraction=0.1):
        if not 0.0 < guarantee_fraction <= 1.0:
            raise ConfigError("guarantee_fraction must be in (0, 1]")
        self.sim = sim
        self.pools = list(pools)
        self.interval = float(interval)
        self.donor_threshold = donor_threshold
        self.receiver_threshold = receiver_threshold
        self.step_fraction = step_fraction
        #: per-pool guaranteed capacity (the SLA floor)
        self.guarantees = {
            pool: int(pool.ram.capacity * guarantee_fraction)
            for pool in self.pools
        }
        self.metrics = MetricSet("rebalancer")
        self._stopped = False
        sim.spawn(self._loop(), name="mem-rebalancer")

    def stop(self):
        self._stopped = True

    # -- policy ------------------------------------------------------------

    def _usage(self, pool):
        return pool.ram.used / pool.ram.capacity if pool.ram.capacity else 0.0

    def donors(self):
        """Pools with spare reservation above their guarantee."""
        out = []
        for pool in self.pools:
            if self._usage(pool) < self.donor_threshold:
                spare = pool.ram.capacity - max(
                    pool.ram.used, self.guarantees[pool]
                )
                if spare > 0:
                    out.append((pool, spare))
        return out

    def receivers(self):
        """Pools under memory pressure, most pressured first."""
        pressured = [
            pool for pool in self.pools
            if self._usage(pool) >= self.receiver_threshold
        ]
        return sorted(pressured, key=self._usage, reverse=True)

    def rebalance_once(self):
        """One policy pass; returns the bytes moved."""
        moved = 0
        donor_list = self.donors()
        for receiver in self.receivers():
            for index, (donor, spare) in enumerate(donor_list):
                if donor is receiver or spare <= 0:
                    continue
                step = min(spare, int(donor.ram.capacity * self.step_fraction))
                if step <= 0:
                    continue
                self._transfer(donor, receiver, step)
                donor_list[index] = (donor, spare - step)
                moved += step
        if moved:
            self.metrics.counter("bytes_moved").add(moved)
            self.metrics.counter("rebalances").add(1)
        return moved

    def _transfer(self, donor, receiver, nbytes):
        """Shrink the donor's reservation, grow the receiver's.

        Capacity moves, usage does not; the donor keeps at least
        max(used, guarantee).
        """
        floor = max(donor.ram.used, self.guarantees[donor])
        nbytes = min(nbytes, donor.ram.capacity - floor)
        if nbytes <= 0:
            return
        donor.ram.capacity -= nbytes
        receiver.ram.capacity += nbytes
        self.sim.trace("rebalance", "move", src=donor.name,
                       dst=receiver.name, bytes=nbytes)

    def _loop(self):
        while not self._stopped:
            yield self.interval
            if self._stopped:
                return
            self.rebalance_once()

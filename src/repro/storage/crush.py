"""CRUSH-style deterministic object placement.

Ceph places each object on OSDs by hashing its identity through the CRUSH
function; clients compute placements locally, so no directory service sits
on the data path. We reproduce that property with straw2-style weighted
rendezvous hashing: for object ``(ino, index)`` every weighted device
draws an independent "straw" ``log(u) / weight`` from a stable hash of
``(ino, index, device)``, and the devices sorted longest straw first are
the object's *preference order* (:meth:`CrushMap.order`). The placement is
its first ``replicas`` entries, primary first, and the monitor's acting
set is the same order with down devices skipped — so any client maps an
object to the same OSDs without talking to a server, and only this module
knows the algorithm.

The map is mutable: devices can be added, removed and reweighted at
runtime (``add_device`` / ``remove_device`` / ``reweight``), which is how
the cluster grows and drains under the membership lifecycle. A device's
straw does not depend on the other devices, so adding, removing or
reweighting one device only moves the objects that device wins or
loses — the minimal-remapping property CRUSH's straw2 bucket was designed
for. Orders are memoised per object and every mutation clears the memo.
"""

import hashlib
import math

from repro.common.errors import ConfigError

__all__ = ["CrushMap"]


class CrushMap(object):
    """Deterministic placement of objects onto weighted devices."""

    def __init__(self, num_osds, replicas=1):
        if num_osds <= 0:
            raise ConfigError("need at least one OSD")
        if not 1 <= replicas <= num_osds:
            raise ConfigError(
                "replicas=%d impossible with %d OSDs" % (replicas, num_osds)
            )
        self.replicas = replicas
        #: device id -> weight (0 drains a device but keeps its id mapped)
        self._devices = {osd_id: 1.0 for osd_id in range(num_osds)}
        #: (ino, index) -> preference order; cleared on every mutation
        self._orders = {}
        #: bumped on every mutation (the monitor folds it into its epoch)
        self.map_version = 0

    # -- device set ----------------------------------------------------

    @property
    def num_osds(self):
        return len(self._devices)

    def __contains__(self, osd_id):
        return osd_id in self._devices

    def devices(self):
        """Device ids currently in the map (positive weight or not)."""
        return list(self._devices)

    def weight(self, osd_id):
        return self._devices.get(osd_id, 0.0)

    def _mutate(self):
        self._orders.clear()
        self.map_version += 1

    def _check_capacity(self, exclude=None):
        live = sum(
            1 for osd_id, weight in self._devices.items()
            if weight > 0 and osd_id != exclude
        )
        if live < self.replicas:
            raise ConfigError(
                "mutation would leave %d weighted devices for %d replicas"
                % (live, self.replicas)
            )

    def add_device(self, osd_id=None, weight=1.0):
        """Add a device; returns its id (next free id when omitted)."""
        if weight <= 0:
            raise ConfigError("device weight must be positive")
        if osd_id is None:
            osd_id = max(self._devices, default=-1) + 1
        if osd_id in self._devices:
            raise ConfigError("device %d already mapped" % osd_id)
        self._devices[osd_id] = float(weight)
        self._mutate()
        return osd_id

    def remove_device(self, osd_id):
        """Remove a device; its objects remap onto the survivors."""
        if osd_id not in self._devices:
            raise ConfigError("device %d not in the map" % osd_id)
        self._check_capacity(exclude=osd_id)
        del self._devices[osd_id]
        self._mutate()

    def reweight(self, osd_id, weight):
        """Change a device's weight; 0 drains it without removing the id."""
        if osd_id not in self._devices:
            raise ConfigError("device %d not in the map" % osd_id)
        if weight < 0:
            raise ConfigError("device weight must be non-negative")
        if weight == 0:
            self._check_capacity(exclude=osd_id)
        self._devices[osd_id] = float(weight)
        self._mutate()

    # -- placement ------------------------------------------------------

    def _straw(self, ino, index, osd_id, weight):
        payload = ("%d/%d/dev%d" % (ino, index, osd_id)).encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        u = (int.from_bytes(digest, "big") + 1) / 2.0 ** 64
        # log(u) is negative; dividing by a larger weight shrinks its
        # magnitude, so heavier devices draw longer (less negative) straws.
        return math.log(u) / weight

    def order(self, ino, index):
        """Every weighted device for object ``(ino, index)``, most
        preferred first (the memo's own list: do not mutate it)."""
        order = self._orders.get((ino, index))
        if order is None:
            scored = [
                (self._straw(ino, index, osd_id, weight), osd_id)
                for osd_id, weight in self._devices.items()
                if weight > 0
            ]
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            order = self._orders[(ino, index)] = [
                osd_id for _, osd_id in scored
            ]
        return order

    def placement(self, ino, index):
        """The OSD ids holding object ``(ino, index)``, primary first."""
        return self.order(ino, index)[:self.replicas]

    def primary(self, ino, index):
        """The primary OSD for an object."""
        return self.order(ino, index)[0]

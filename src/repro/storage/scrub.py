"""Background scrub: latent-corruption detection and repair.

The Ceph scrub analogue. A :class:`ScrubDaemon` walks the stored object
set on the sim clock in bounded batches: *light* cycles compare object
size and digest fingerprints across replicas at metadata cost only, and
every ``deep_scrub_every``-th cycle re-reads stored bytes and checks them
against their chunk digests (``costs.verify_cost``). A replica that fails
verification is repaired from a verified-clean copy through the monitor's
recovery machinery (:meth:`Monitor.repair_object`); an object with no
clean copy left is quarantined — reads raise ``DataCorrupt`` instead of
returning garbage — until a clean source reappears or a fresh write
replaces the data.

Starting the daemon arms cluster integrity (digest recording + verified
reads). A world that never starts it and never injects corruption
records no digests and verifies no reads.
"""

from repro.common.errors import RETRYABLE, DataUnavailable

__all__ = ["ScrubDaemon"]


class ScrubDaemon(object):
    """Periodic light/deep scrub over one cluster's object set."""

    def __init__(self, cluster):
        costs = cluster.costs
        self.cluster = cluster
        self.sim = cluster.sim
        self.interval = float(costs.scrub_interval)
        self.deep_every = costs.deep_scrub_every
        self.batch = costs.scrub_batch
        self.metrics = self.sim.metrics("scrub")
        self.running = False
        self._cursor = 0
        self._cycle = 0

    # -- lifecycle -------------------------------------------------------

    def start(self):
        """Arm integrity and start the periodic scrub loop."""
        if self.running:
            return self
        self.cluster.enable_integrity()
        self.running = True
        self.sim.spawn(self._loop(), name="scrub-daemon")
        self.sim.trace("scrub", "start", interval=self.interval,
                       deep_every=self.deep_every)
        return self

    def stop(self):
        """Stop scheduling new cycles (an in-flight cycle completes)."""
        self.running = False

    def _loop(self):
        while self.running:
            yield self.interval
            if not self.running:
                return
            self._cycle += 1
            deep = self.deep_every > 0 and self._cycle % self.deep_every == 0
            try:
                yield from self.scrub_cycle(deep=deep)
            except RETRYABLE:
                self.metrics.counter("cycles_aborted").add(1)

    # -- scrubbing -------------------------------------------------------

    def _universe(self):
        """Sorted union of object keys stored on live, running OSDs."""
        keys = set()
        for osd in self.cluster.osds:
            if osd.crashed or not self.cluster.monitor.is_up(osd.osd_id):
                continue
            keys.update(osd._objects)
        return sorted(keys)

    def _holders(self, ino, index):
        """Live, non-crashed OSDs storing the object."""
        return [
            osd_id for osd_id in self.cluster.monitor.holders(ino, index)
            if not self.cluster.osds[osd_id].crashed
        ]

    def scrub_cycle(self, deep=False):
        """One bounded scrub round; sim generator, returns errors found.

        Walks ``scrub_batch`` objects from a persistent cursor so
        successive cycles cover the whole store round-robin.
        """
        obs = self.sim.observer
        span = None
        if obs is not None:
            span = obs.span(None, "scrub.deep" if deep else "scrub.light",
                            "scrub", cycle=self._cycle)
        errors = 0
        try:
            keys = self._universe()
            if keys:
                start = self._cursor % len(keys)
                batch = [
                    keys[(start + i) % len(keys)]
                    for i in range(min(self.batch, len(keys)))
                ]
                self._cursor = (start + len(batch)) % len(keys)
                for key in batch:
                    try:
                        errors += yield from self._scrub_object(key, deep)
                    except RETRYABLE:
                        self.metrics.counter("objects_deferred").add(1)
        finally:
            if span is not None:
                span.end()
        self.metrics.counter("cycles").add(1)
        if deep:
            self.metrics.counter("deep_cycles").add(1)
        return errors

    def sweep(self, deep=True):
        """Scrub every stored object once (no batch bound); sim generator.

        Returns the number of corrupt replicas found *or left unverified*
        (a deferred object counts: the sweep cannot vouch for it).
        """
        errors = 0
        for key in self._universe():
            try:
                errors += yield from self._scrub_object(key, deep)
            except RETRYABLE:
                self.metrics.counter("objects_deferred").add(1)
                errors += 1
        return errors

    def drain(self, max_passes=6):
        """Deep-scrub to convergence: sweep until a pass finds nothing.

        Sim generator; returns True when a clean pass was reached (the
        chaos harness's "scrub converged" condition).
        """
        for _ in range(max_passes):
            if (yield from self.sweep(deep=True)) == 0:
                return True
        return False

    def _pending_backfill(self, key):
        """Skip objects the backfill scheduler is still converging.

        While an object is under-replicated its acting set is about to
        receive a push; scrubbing (and especially reconciling) it now
        would duplicate backfill's work or fight its version rechecks.
        The next cycle revisits it once backfill has settled it.
        """
        if not self.cluster.backfill.running:
            return False
        ino, index = key
        monitor = self.cluster.monitor
        try:
            acting = monitor.acting_set(ino, index)
        except DataUnavailable:
            return True
        holders = set(monitor.holders(ino, index))
        return not all(member in holders for member in acting)

    def _scrub_object(self, key, deep):
        """Scrub one object across its replicas; returns bad replicas.

        The one place scrubbed objects and corrupt replicas are counted,
        for periodic cycles and drain sweeps alike.
        """
        ino, index = key
        cluster = self.cluster
        self.metrics.counter("objects_scrubbed").add(1)
        if self._pending_backfill(key):
            self.metrics.counter("objects_deferred").add(1)
            return 0
        holders = self._holders(ino, index)
        if not holders:
            return 0
        if not deep:
            probes = []
            for osd_id in holders:
                probes.append((
                    yield from cluster.osds[osd_id].scrub_meta(ino, index)
                ))
            if len(set(probes)) <= 1:
                return 0
            # Replicas disagree on size or digests: escalate this object
            # to a deep check to find which copies are bad.
            self.metrics.counter("meta_mismatches").add(1)
        bad = []
        clean = []
        for osd_id in holders:
            ok = yield from cluster.osds[osd_id].verify_range(ino, index)
            (clean if ok else bad).append(osd_id)
        if not bad:
            if len(clean) > 1:
                yield from self._reconcile(ino, index, clean)
            cluster.quarantined.discard(key)
            return 0
        self.metrics.counter("errors_found").add(len(bad))
        self.sim.trace("scrub", "corrupt", ino=ino, index=index,
                       osds=tuple(bad))
        if not clean:
            cluster._quarantine(ino, index)
            return len(bad)
        repaired = yield from cluster.monitor.repair_object(ino, index, bad)
        self.metrics.counter("repaired").add(repaired)
        return len(bad)

    def _reconcile(self, ino, index, clean):
        """Self-consistent but diverged replicas: the acting copy wins.

        Every copy passes its own digests, yet replicas may hold different
        acknowledged states (a replica missed a write while unmarked-dead
        and was never recorded stale). The acting primary's content is
        authoritative; stragglers are rewritten from it.
        """
        cluster = self.cluster
        acting = set(cluster.monitor.acting_set(ino, index))
        source = next(
            (osd_id for osd_id in clean if osd_id in acting), clean[0]
        )
        want = bytes(
            cluster.osds[source]._objects.get((ino, index), b"")
        )
        stale = [
            osd_id for osd_id in clean
            if osd_id != source
            and bytes(cluster.osds[osd_id]._objects.get((ino, index), b""))
            != want
        ]
        for osd_id in stale:
            yield from cluster.monitor._push_object(
                ino, index, source, osd_id
            )
        if stale:
            self.metrics.counter("reconciled").add(len(stale))
            self.sim.trace("scrub", "reconcile", ino=ino, index=index,
                           source=source, replicas=len(stale))

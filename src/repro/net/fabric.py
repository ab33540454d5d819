"""Network model: links with latency and fairly-shared bandwidth.

The testbed connects client and server machines over a 20 Gbps bonded link.
We model a link as propagation latency plus a bandwidth pool shared by all
in-flight transfers: each transfer proceeds in chunks whose duration scales
with the number of concurrent transfers, which approximates per-flow fair
queueing closely enough for the throughput shapes the paper reports.

Per-edge accounting: :meth:`Fabric.rpc` takes an optional ``edge``
label (``"osd3"``, ``"mds.1"``) naming the remote endpoint of the round
trip. Labeled RPCs are counted per edge (count, bytes sent/received) —
the ``--report`` fabric table.
"""

from repro.common import units
from repro.common.errors import ConfigError, NetworkPartitioned

__all__ = ["Link", "Fabric"]


class Link(object):
    """A duplex link: ``latency`` + fair-shared ``bandwidth``.

    Fault injection (``repro.faults``) can degrade the link: a
    *partition* makes every transfer fail with
    :class:`NetworkPartitioned` once the propagation delay has elapsed
    (the sender learns nothing sooner), ``delay_factor`` stretches the
    propagation latency (congested or rerouted path), and ``loss_rate``
    drops individual messages from a seeded deterministic stream.
    """

    #: Transfer granularity; smaller chunks track sharing more accurately
    #: at the cost of more events.
    CHUNK = 256 * units.KIB

    def __init__(self, sim, bandwidth=2.5 * units.GIB, latency=units.usec(40),
                 name="link"):
        if bandwidth <= 0:
            raise ConfigError("link bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = latency
        self.active = 0
        self.partitioned = False
        self.delay_factor = 1.0
        self.loss_rate = 0.0
        self._loss_rng = None
        self.metrics = sim.metrics("link:%s" % name)

    # -- fault injection -------------------------------------------------

    def set_partitioned(self, flag):
        """Partition (or heal) the link; transfers fail while partitioned."""
        self.partitioned = bool(flag)
        self.sim.trace("net", "partition" if flag else "heal", link=self.name)
        if flag:
            self.metrics.counter("partitions").add(1)

    def set_degraded(self, delay_factor=1.0, loss_rate=0.0, rng=None):
        """Stretch propagation delay and/or drop a fraction of messages.

        ``rng`` (a seeded ``random.Random``) drives the loss stream so a
        fault plan reproduces the exact same drops run after run.
        """
        if delay_factor < 1.0 or not 0.0 <= loss_rate < 1.0:
            raise ConfigError("invalid link degradation")
        self.delay_factor = float(delay_factor)
        self.loss_rate = float(loss_rate)
        self._loss_rng = rng
        self.sim.trace("net", "degrade", link=self.name,
                       delay_factor=delay_factor, loss_rate=loss_rate)

    def transfer(self, nbytes):
        """Move ``nbytes`` across the link; generator until delivered."""
        yield self.latency * self.delay_factor
        if self.partitioned:
            self.metrics.counter("partition_drops").add(1)
            raise NetworkPartitioned("link %s partitioned" % self.name)
        if self.loss_rate and self._loss_rng is not None \
                and self._loss_rng.random() < self.loss_rate:
            self.metrics.counter("messages_lost").add(1)
            raise NetworkPartitioned("message lost on link %s" % self.name)
        if nbytes <= 0:
            return
        self.active += 1
        try:
            remaining = nbytes
            while remaining > 0:
                piece = min(self.CHUNK, remaining)
                share = self.bandwidth / self.active
                yield piece / share
                remaining -= piece
        finally:
            self.active -= 1
        self.metrics.counter("bytes").add(nbytes)
        self.metrics.counter("transfers").add(1)


class Fabric(object):
    """The client-to-storage network: one shared link plus RPC helpers."""

    #: Fixed wire overhead per RPC (headers, framing).
    HEADER_BYTES = 256

    def __init__(self, sim, bandwidth=2.5 * units.GIB, latency=units.usec(40)):
        self.sim = sim
        self.link = Link(sim, bandwidth=bandwidth, latency=latency, name="fabric")
        self._edges = {}  # edge label -> {"rpcs", "send_bytes", "recv_bytes"}

    def set_partitioned(self, flag):
        """Partition (or heal) the client-to-storage link."""
        self.link.set_partitioned(flag)

    def set_degraded(self, delay_factor=1.0, loss_rate=0.0, rng=None):
        """Degrade the client-to-storage link (delay stretch, loss)."""
        self.link.set_degraded(delay_factor, loss_rate, rng=rng)

    @property
    def partitioned(self):
        return self.link.partitioned

    def request(self, payload_bytes=0):
        """Send a request of ``payload_bytes`` toward a server."""
        yield from self.link.transfer(self.HEADER_BYTES + payload_bytes)

    def response(self, payload_bytes=0):
        """Receive a response of ``payload_bytes`` from a server."""
        yield from self.link.transfer(self.HEADER_BYTES + payload_bytes)

    def rpc(self, server_gen, send_bytes=0, recv_bytes=0, edge=None):
        """Round-trip: ship the request, run the server logic, ship the reply.

        ``server_gen`` is a generator implementing the server-side work
        (queueing, journaling, disk I/O); its return value is returned.
        ``edge`` optionally names the remote endpoint (``"osd3"``,
        ``"mds.0"``) for per-edge RPC accounting, which costs one dict
        update per labeled round trip and no simulated events.
        """
        if edge is not None:
            cell = self._edges.get(edge)
            if cell is None:
                cell = self._edges[edge] = {
                    "rpcs": 0, "send_bytes": 0, "recv_bytes": 0,
                }
            cell["rpcs"] += 1
            cell["send_bytes"] += send_bytes
            cell["recv_bytes"] += recv_bytes
        yield from self.request(send_bytes)
        result = yield from server_gen
        yield from self.response(recv_bytes)
        return result

    def edge_profile(self):
        """Per-edge RPC rows: ``{"edge", "rpcs", "send_bytes", "recv_bytes"}``.

        One row per labeled remote endpoint, sorted by edge name so the
        table is stable run to run. Wire header overhead is included in
        neither byte column (it is per-RPC constant; multiply by
        ``rpcs`` if needed).
        """
        return [
            {"edge": edge, "rpcs": cell["rpcs"],
             "send_bytes": cell["send_bytes"],
             "recv_bytes": cell["recv_bytes"]}
            for edge, cell in sorted(self._edges.items())
        ]


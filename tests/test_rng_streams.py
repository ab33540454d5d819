"""Determinism of ``common.rng`` stream splitting under reordering.

``map_tasks`` runs sweep cells and seeds in fork-pool workers, in
whatever order the pool picks them up, and a refactor may build a
world's entities in a different order than the scheduler visits them.
Stream derivation must therefore be a pure function of (seed, label
path) — never of construction order, shared generator state, or
interleaving — or a ``--parallel`` run would silently diverge from the
inline one.
"""

import hashlib
import random
import tracemalloc

import pytest

from repro.common.rng import PSEUDO_BLOCK, derive, make_rng, pseudo_bytes


def _draws(rng, n=8):
    return [rng.randrange(1_000_000) for _ in range(n)]


class TestDeriveOrderIndependence:
    def test_child_seed_ignores_construction_order(self):
        labels = [("host%d" % h, "client%d" % c)
                  for h in range(4) for c in range(3)]
        forward = {lab: derive(7, *lab) for lab in labels}
        backward = {lab: derive(7, *lab) for lab in reversed(labels)}
        assert forward == backward

    def test_streams_are_stateless_across_instantiation_order(self):
        # Build rngs in one order, draw in another: each stream's draws
        # depend only on its label path.
        order_a = ["osd%d" % i for i in range(6)]
        order_b = list(reversed(order_a))

        rngs_a = {name: make_rng(42, "cluster", name) for name in order_a}
        draws_a = {name: _draws(rngs_a[name]) for name in order_a}

        rngs_b = {name: make_rng(42, "cluster", name) for name in order_b}
        # Interleave draws round-robin — a different schedule entirely.
        draws_b = {name: [] for name in order_b}
        for round_index in range(8):
            for name in order_b:
                draws_b[name].append(rngs_b[name].randrange(1_000_000))
        assert draws_a == draws_b

    def test_sibling_streams_do_not_alias(self):
        seeds = {derive(1, "host", i) for i in range(64)}
        assert len(seeds) == 64
        # Separator structure: ("ab", "c") must differ from ("a", "bc").
        assert derive(1, "ab", "c") != derive(1, "a", "bc")

    def test_adding_a_consumer_leaves_existing_streams_alone(self):
        # The property the docstring promises: deriving a *new* child
        # does not perturb draws of already-derived siblings.
        before = _draws(make_rng(9, "wb", "flusher"))
        derive(9, "wb", "brand-new-consumer")
        make_rng(9, "wb", "another")
        after = _draws(make_rng(9, "wb", "flusher"))
        assert before == after


class TestScheduleOrderVsBuildOrder:
    def test_partition_shaped_reordering(self):
        # One build nests entities under hosts in declaration order; the
        # other walks entity kinds across reversed hosts. Both must end
        # up with identical per-entity streams.
        seed = 1234
        hosts = ["client", "h1", "h2", "h3"]

        sequential = {}
        for host in hosts:
            for entity in ("kernel", "pagecache", "fuse"):
                sequential[(host, entity)] = _draws(
                    make_rng(seed, host, entity)
                )

        reordered = {}
        for entity in ("fuse", "kernel", "pagecache"):  # different order
            for host in reversed(hosts):               # different order
                reordered[(host, entity)] = _draws(
                    make_rng(seed, host, entity)
                )
        assert sequential == reordered

    def test_pseudo_bytes_is_a_pure_function(self):
        blocks = [pseudo_bytes(4096, (5, "shared", i)) for i in range(4)]
        again = [pseudo_bytes(4096, (5, "shared", i)) for i in reversed(range(4))]
        assert blocks == list(reversed(again))
        assert len({bytes(b[:64]) for b in blocks}) == 4

    def test_derived_stream_differs_from_raw_seed_stream(self):
        # Guard against a refactor that silently drops the derivation
        # and reuses the parent seed for every child.
        raw = _draws(random.Random(77))
        derived = _draws(make_rng(77, "anything"))
        assert raw != derived


def _pseudo_bytes_oracle(size, seed):
    """``pseudo_bytes`` as it was before it stopped over-building: one
    block too many, then a copy of the first ``size`` bytes."""
    if size <= 0:
        return b""
    block = hashlib.blake2b(str(seed).encode("utf-8"), digest_size=64).digest()
    return (block * (size // len(block) + 1))[:size]


class TestPseudoBytes:
    SIZES = list(range(201)) + [
        edge + delta
        for edge in (64 * 1024, 1 << 20) for delta in (-1, 0, 1)
    ]

    @pytest.mark.parametrize("seed", [0, (7, "randomio", "prealloc"), "x"])
    def test_bytes_equal_the_old_expression(self, seed):
        for size in self.SIZES:
            assert pseudo_bytes(size, seed) == _pseudo_bytes_oracle(size, seed)

    def test_output_repeats_every_block(self):
        data = pseudo_bytes(5 * PSEUDO_BLOCK, 3)
        assert data == data[:PSEUDO_BLOCK] * 5

    def test_a_whole_number_of_blocks_is_the_only_allocation(self):
        size = 16 << 20
        tracemalloc.start()
        try:
            data = pseudo_bytes(size, 1)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) == size
        assert peak < 1.1 * size  # 2.0x with ``(block * reps)[:size]``

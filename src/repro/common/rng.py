"""Deterministic random-number helpers.

Every stochastic component takes an explicit seed so that simulations are
reproducible: the same seed always produces the same event trace. Seeds are
derived hierarchically (``derive``) so adding a new consumer does not
perturb the streams of existing ones.
"""

import hashlib
import random


def derive(seed, *labels):
    """Derive a child seed from ``seed`` and a label path.

    The derivation hashes the parent seed together with the labels, so each
    (seed, labels) pair maps to a stable, independent child stream.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode("utf-8"))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def make_rng(seed, *labels):
    """Return a ``random.Random`` seeded from a derived child seed."""
    return random.Random(derive(seed, *labels))


#: ``pseudo_bytes`` output is periodic in this many bytes.
PSEUDO_BLOCK = 64


def pseudo_bytes(size, seed):
    """Generate ``size`` deterministic pseudo-random bytes cheaply.

    Used to fill synthetic file contents; repeated ``PSEUDO_BLOCK``-byte
    blocks derived from the seed keep generation O(size) with a small
    constant. A whole number of blocks — every preallocated file — is
    built in one allocation; only a ragged tail costs a second copy.
    """
    if size <= 0:
        return b""
    block = hashlib.blake2b(
        str(seed).encode("utf-8"), digest_size=PSEUDO_BLOCK
    ).digest()
    whole, rest = divmod(size, PSEUDO_BLOCK)
    data = block * whole
    return data + block[:rest] if rest else data

"""Seeded input generators for the benchmark workloads.

The shapes follow the generators of the repository's test suite, but live
here so that later edits to the tests cannot change what the benchmark
measures. Every generator draws only from the `random.Random` it is given, so
the same seed gives the same inputs.
"""

from __future__ import annotations

import random

ALPHABET = b"abcd"


def repetitive_text(
    rng: random.Random, copies: int, seed_len: int, mutations: int
) -> bytes:
    """Concatenation of `copies` mutated copies of one random seed string.

    Each copy overwrites `mutations` seeded positions with a seeded symbol.
    """
    seed = bytes(rng.choice(ALPHABET) for _ in range(seed_len))
    parts = []
    for _ in range(copies):
        b = bytearray(seed)
        for _ in range(mutations):
            b[rng.randrange(seed_len)] = rng.choice(ALPHABET)
        parts.append(bytes(b))
    return b"".join(parts)


def document_starts(copies: int, seed_len: int) -> list[int]:
    """One document per copy of the seed string."""
    return [i * seed_len for i in range(copies)]


def adversarial_permutation(rng: random.Random, n: int, blocks: int) -> list[int]:
    """Permutation whose single long interval's image covers every block start.

    [0, n/2) maps contiguously onto [n/2, n). The second half is cut into
    `blocks` equal pieces, mapped back onto the first half in a seeded order
    in which no piece lands right after the image of the piece before it, so
    no two adjacent pieces merge into one run.
    """
    half = n // 2
    if n % 2 or blocks < 1 or half % blocks:
        raise ValueError("n must be even and blocks must divide n/2")
    m = half // blocks
    order = list(range(blocks))
    while True:
        rng.shuffle(order)
        if all(order[b] != order[b - 1] + 1 for b in range(1, blocks)):
            break
    pi = list(range(half, 2 * half))
    for dst in order:
        pi.extend(range(dst * m, dst * m + m))
    return pi


def positions(rng: random.Random, n: int, count: int) -> list[int]:
    """`count` seeded query positions in [0, n)."""
    return [rng.randrange(n) for _ in range(count)]

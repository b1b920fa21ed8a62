"""Shared generators and measurement helpers for the test suite."""

from __future__ import annotations

import random
import struct
from fractions import Fraction

from movestruct import IntervalTable, MoveCursor, Rlbwt

ALPHABET = b"abcd"

# Split-parameter grid shared by the property and acceptance suites.
CAPS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(8))
ALPHAS = (0, 2, 8)

# Reference 16-element permutation used as a hand-checked regression fixture.
REF_PERM = [1, 2, 9, 10, 11, 3, 12, 13, 4, 5, 14, 0, 15, 6, 7, 8]
REF_STARTS = [0, 2, 5, 6, 8, 10, 11, 12, 13]
REF_IMAGES = [1, 9, 3, 12, 4, 14, 0, 15, 6]
REF_DEST_RANK = [0, 4, 1, 7, 1, 8, 0, 8, 3]


def random_text(rng: random.Random, lo: int = 2, hi: int = 2000) -> bytes:
    sigma = rng.randint(1, 4)
    n = rng.randint(lo, hi)
    return bytes(rng.choice(ALPHABET[:sigma]) for _ in range(n))


def repetitive_text(
    rng: random.Random,
    copies: int = 8,
    seed_len: int = 256,
    mutations: int = 5,
) -> bytes:
    """Concatenation of mutated copies of one random seed."""
    seed = bytes(rng.choice(ALPHABET) for _ in range(seed_len))
    parts = []
    for _ in range(copies):
        b = bytearray(seed)
        for _ in range(mutations):
            b[rng.randrange(seed_len)] = rng.choice(ALPHABET)
        parts.append(bytes(b))
    return b"".join(parts)


def run_blocks_text(
    rng: random.Random, blocks: int, lo: int, hi: int, alphabet: bytes = b"ab"
) -> bytes:
    """Alternating same-symbol blocks of varying length (adjacent distinct)."""
    out = []
    prev = None
    for _ in range(blocks):
        sym = rng.choice([bytes([s]) for s in alphabet if s != prev])
        prev = sym[0]
        out.append(sym * rng.randrange(lo, hi))
    return b"".join(out)


def adversarial_permutation(n: int, blocks: int) -> list[int]:
    """Permutation whose single long interval fast-forwards across every
    second-half start: [0, n/2) maps onto [n/2, n) contiguously, and the
    second half is cut into `blocks` pieces mapped back in reversed block
    order so no two adjacent pieces merge into one run."""
    half = n // 2
    if half % blocks:
        raise ValueError("blocks must divide n/2")
    m = half // blocks
    pi = [0] * n
    for i in range(half):
        pi[i] = i + half
    for b in range(blocks):
        src = half + b * m
        dst = (blocks - 1 - b) * m
        for k in range(m):
            pi[src + k] = dst + k
    return pi


def random_runny_permutation(
    rng: random.Random, n: int, runs: int
) -> list[int]:
    """Permutation assembled from `runs` contiguous blocks in shuffled order."""
    runs = min(runs, n)
    cuts = sorted(rng.sample(range(1, n), runs - 1)) if runs > 1 else []
    bounds = [0] + cuts + [n]
    order = list(range(runs))
    rng.shuffle(order)
    pi = [0] * n
    pos = 0
    for b in order:
        lo, hi = bounds[b], bounds[b + 1]
        for i in range(lo, hi):
            pi[i] = pos
            pos += 1
    return pi


def sweep_fast_forwards(table: IntervalTable) -> tuple[int, int]:
    """(total, max) fast forwards over every query, by actually querying."""
    total = worst = 0
    for j in range(len(table)):
        for k in range(table.lengths[j]):
            ff = table.move(MoveCursor(j, k)).fast_forwards
            total += ff
            if ff > worst:
                worst = ff
    return total, worst


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def rlbwt_v1_bytes(rl: Rlbwt) -> bytes:
    """rl as an .rl version 1 file: magic, version, n, r and the runs, with no
    SA samples and no checksum."""
    runs = b"".join(struct.pack("<BQ", c, l) for c, l in rl.runs)
    return b"RLBW\x01" + struct.pack("<QQ", rl.n, rl.r) + runs

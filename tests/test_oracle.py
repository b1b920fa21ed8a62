"""The brute-force references themselves: definitional spot checks."""

import random

import pytest

from movestruct import InvalidInputError, from_permutation
from movestruct.oracle import (
    naive_bwt,
    naive_fl,
    naive_lf,
    naive_phi,
    naive_runs,
    naive_sa,
    simulate_fast_forwards,
)
from support import REF_PERM, REF_STARTS, random_runny_permutation


def test_naive_sa_examples():
    assert naive_sa(b"abaaba\x00") == [6, 5, 2, 3, 0, 4, 1]
    assert naive_sa(b"a\x00") == [1, 0]


def test_naive_sa_against_pairwise_comparison():
    rng = random.Random(1)
    text = bytes(rng.choice(b"abc") for _ in range(80)) + b"\x00"
    sa = naive_sa(text)
    for a, b in zip(sa, sa[1:]):
        assert text[a:] < text[b:]


def test_naive_sa_guard():
    with pytest.raises(InvalidInputError):
        naive_sa(bytes(1_000_002))


def test_naive_bwt():
    assert naive_bwt(b"abaaba\x00", [6, 5, 2, 3, 0, 4, 1]) == b"abba\x00aa"


def test_naive_lf_fl():
    lf = naive_lf(b"abba\x00aa")
    assert lf == [1, 5, 6, 2, 0, 3, 4]
    fl = naive_fl(b"abba\x00aa")
    assert all(fl[lf[i]] == i for i in range(7))


def test_naive_phi():
    sa = [6, 5, 2, 3, 0, 4, 1]
    phi = naive_phi(sa)
    assert phi == [3, 4, 5, 2, 0, 6, 1]
    inv = naive_phi(sa, inverse=True)
    assert all(inv[phi[x]] == x for x in range(7))


def test_naive_runs():
    assert naive_runs(REF_PERM) == REF_STARTS
    assert naive_runs(list(range(10))) == [0]
    assert naive_runs([3, 2, 1, 0]) == [0, 1, 2, 3]


def test_simulate_fast_forwards_reference():
    t = from_permutation(REF_PERM)
    assert simulate_fast_forwards(t, 9) == 1
    assert simulate_fast_forwards(t, 6) == 0


def test_simulate_matches_move_query():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 400)
        pi = random_runny_permutation(rng, n, rng.randint(1, n // 2 + 1))
        t = from_permutation(pi)
        for i in range(n):
            cur = t.cursor_of(i)
            assert simulate_fast_forwards(t, i) == t.move(cur).fast_forwards

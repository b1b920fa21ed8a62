"""Length capping and balancing: worked examples, bounds, and preservation."""

import io
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movestruct as ms
from movestruct import (
    DocBounds,
    InvalidInputError,
    InvalidParameterError,
    attach_docs,
    balance,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    cap_length,
    enumerate_da,
    from_permutation,
    inverse,
    length_cap,
    table_to_permutation,
)
from movestruct import splitting
from movestruct.core import refine
from movestruct.oracle import max_fast_forwards
from support import (
    REF_PERM,
    adversarial_permutation,
    balance_by_lists,
    ceil_div,
    doc_of,
    random_runny_permutation,
    random_text,
    refine_by_search,
    skewed_runny_permutation,
    sweep_fast_forwards,
)


def test_cap_length_formula():
    assert cap_length(16, 9, 1) == 2
    assert cap_length(16, 9, 2) == 4
    assert cap_length(16, 9, Fraction(1, 2)) == 1
    assert cap_length(100, 1, 1) == 100
    assert cap_length(10, 3, "8") == 27
    assert cap_length(5, 100, 1) == 1  # floor at 1
    with pytest.raises(InvalidParameterError):
        cap_length(16, 9, 0)
    with pytest.raises(InvalidParameterError, match="run count"):
        cap_length(16, 0, 1)


def test_cap_reference_c1():
    t = from_permutation(REF_PERM)
    capped = length_cap(t, 1)
    assert capped.cap_len == 2
    assert len(capped) == 11
    assert capped.max_len <= 2
    assert table_to_permutation(capped) == REF_PERM
    capped.validate()
    # The two length-3 intervals split into (2, 1) pieces.
    assert capped.starts == [0, 2, 4, 5, 6, 8, 10, 11, 12, 13, 15]


def test_cap_reference_c2_unchanged():
    t = from_permutation(REF_PERM)
    capped = length_cap(t, 2)
    assert capped.cap_len == 4
    assert len(capped) == 9
    assert capped.starts == t.starts
    assert capped.dest_rank == t.dest_rank
    assert capped.dest_offset == t.dest_offset


def test_cap_single_run_identity():
    t = from_permutation(list(range(100)))
    capped = length_cap(t, 1)
    assert len(capped) == 1
    assert capped.cap_len == 100


def test_cap_idempotent_at_fixpoint():
    t = from_permutation(REF_PERM)
    once = length_cap(t, 1)
    twice = length_cap(once, 1)
    assert twice.starts == once.starts
    assert twice.dest_rank == once.dest_rank
    assert twice.dest_offset == once.dest_offset
    # Recapping uses the original run count, so L is unchanged.
    assert twice.cap_len == once.cap_len


def test_cap_preserves_relative_mode():
    t = from_permutation(REF_PERM).to_relative()
    capped = length_cap(t, 1)
    assert capped.mode == ms.RELATIVE
    assert table_to_permutation(capped) == REF_PERM


def test_balance_reference_unchanged():
    t = from_permutation(REF_PERM)
    b = balance(t, 2)
    assert len(b) == 9
    assert b.starts == t.starts


def test_balance_identity_unchanged():
    t = from_permutation(list(range(64)))
    assert len(balance(t, 2)) == 1


def test_balance_parameter_validation():
    t = from_permutation(REF_PERM)
    with pytest.raises(InvalidParameterError):
        balance(t, 1)
    with pytest.raises(InvalidParameterError):
        balance(t, -2)
    with pytest.raises(InvalidParameterError):
        length_cap(t, -1)
    # A table loaded from a file whose source_runs field reads 0.
    with pytest.raises(InvalidParameterError, match="run count"):
        length_cap(t.replace(source_runs=0), 1)


# One output interval holds every start, so balance has splits to make.
ADVERSARIAL = adversarial_permutation(256, 16)


@pytest.mark.parametrize("perm, alpha", [
    pytest.param(ADVERSARIAL, 2.5, id="2.5-with-violator"),
    pytest.param(ADVERSARIAL, 2.0, id="2.0-with-violator"),
    pytest.param(list(range(64)), 2.5, id="2.5-without-violator"),
    pytest.param(ADVERSARIAL, "2", id="str"),
])
def test_balance_rejects_non_integer_alpha(perm, alpha):
    with pytest.raises(InvalidParameterError):
        balance(from_permutation(perm), alpha)


@pytest.mark.parametrize("c", ["abc", None, float("nan"), float("inf"), "1/0"])
def test_cap_rejects_non_rational_factor(c):
    t = from_permutation(REF_PERM)
    with pytest.raises(InvalidParameterError):
        length_cap(t, c)
    with pytest.raises(InvalidParameterError):
        cap_length(t.n, len(t), c)


@pytest.mark.parametrize("block", [2, 3, 7])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32),
       cap=st.sampled_from([None, Fraction(1, 2), Fraction(1), Fraction(2)]))
def test_balance_matches_list_reference(block, seed, cap):
    # Tiny blocks make balance cut blocks and look for the alpha-th start
    # across several of them.
    t = from_permutation(skewed_runny_permutation(random.Random(seed)))
    if cap is not None:
        t = length_cap(t, cap)
    for alpha in (2, 3, 5, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitting, "_BLOCK", block)
            got = balance(t, alpha)
        assert vars(got) == vars(balance_by_lists(t, alpha))


def test_balance_matches_list_reference_adversarial():
    t = from_permutation(adversarial_permutation(8000, 2000))
    for alpha in (2, 3):
        assert vars(balance(t, alpha)) == vars(balance_by_lists(t, alpha))


def test_balance_adversarial_max_ff():
    pi = adversarial_permutation(256, 16)
    t = from_permutation(pi)
    assert max_fast_forwards(t) >= 15  # one output interval holds all starts
    b = balance(t, 2)
    b.validate()
    assert table_to_permutation(b) == pi
    total, worst = sweep_fast_forwards(b)
    assert worst < 4
    assert len(b) <= len(t) + ceil_div(len(t), 1)


def test_balance_idempotent_at_fixpoint():
    pi = adversarial_permutation(256, 16)
    once = balance(from_permutation(pi), 2)
    twice = balance(once, 2)
    assert twice.starts == once.starts
    assert twice.dest_rank == once.dest_rank


def test_cap_then_balance_bounds():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(50, 2000)
        pi = random_runny_permutation(rng, n, rng.randint(2, 80))
        t = from_permutation(pi)
        r = len(t)
        capped = length_cap(t, 16)
        L = capped.cap_len
        assert capped.max_len <= L
        assert len(capped) <= r + n // L
        out = balance(capped, 32)
        out.validate()
        assert table_to_permutation(out) == pi
        assert len(out) <= len(capped) + ceil_div(len(capped), 31)
        assert max_fast_forwards(out) < 64


def test_cap_bounds_random_sweep():
    rng = random.Random(3)
    tables = []
    for _ in range(15):
        n = rng.randint(20, 1500)
        tables.append(from_permutation(random_runny_permutation(rng, n, rng.randint(1, 60))))
    for _ in range(6):
        lf = build_lf(build_bwt(random_text(rng))[0])
        tables += [lf, inverse(lf)]
    # One long interval whose pieces' destinations cross every block start.
    tables.append(from_permutation(adversarial_permutation(1024, 32)))
    for t in tables:
        n, r = t.n, len(t)
        pi = table_to_permutation(t)
        for c in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(8)):
            capped = length_cap(t, c)
            capped.validate()
            L = capped.cap_len
            assert L == cap_length(n, r, c)
            assert capped.starts == [
                s + m for s, ell in zip(t.starts, t.lengths) for m in range(0, ell, L)
            ]
            assert capped.max_len <= L
            assert len(capped) <= r + n // L
            assert max_fast_forwards(capped) <= L
            assert table_to_permutation(capped) == pi


def test_balance_bounds_random_sweep():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(20, 1500)
        pi = random_runny_permutation(rng, n, rng.randint(1, 60))
        t = from_permutation(pi)
        for alpha in (2, 8):
            b = balance(t, alpha)
            b.validate()
            assert table_to_permutation(b) == pi
            assert len(b) <= len(t) + ceil_div(len(t), alpha - 1)
            assert max_fast_forwards(b) < 2 * alpha


def test_capping_a_balanced_table_resets_alpha():
    rng = random.Random(167)
    n = rng.randint(20, 200)
    pi = random_runny_permutation(rng, n, rng.randint(2, 20))
    balanced = balance(from_permutation(pi), 2)
    assert balanced.alpha == 2 and max_fast_forwards(balanced) < 4
    # The starts that capping adds put four of them inside one output
    # interval, so the capped table no longer has the balance to claim.
    capped = length_cap(balanced, 1)
    assert max_fast_forwards(capped) == 4
    assert capped.alpha == 0
    assert table_to_permutation(capped) == pi


def test_split_metadata_propagation():
    t = from_permutation(REF_PERM)
    out = balance(length_cap(t, 1), 2)
    assert out.cap == Fraction(1)
    assert out.cap_len == 2
    assert out.alpha == 2
    assert out.source_runs == 9


def test_extras_follow_splits():
    t = from_permutation(REF_PERM)
    t.extras["sym"] = list(range(len(t)))
    capped = length_cap(t, 1)
    # Each piece inherits the symbol of the interval it came from.
    starts = capped.starts
    orig = t.starts
    for j, s in enumerate(starts):
        src = max(i for i, os in enumerate(orig) if os <= s)
        assert capped.extras["sym"][j] == src
    balanced = balance(capped, 2)
    assert len(balanced.extras["sym"]) == len(balanced)


def test_position_columns_attach_after_splitting():
    text = b"abracadabra" * 20
    bounds = DocBounds([0, 70, 150])
    rl, sa = build_bwt(text)
    phi_inv = inverse(build_phi_via_lf(rl))
    # Doc columns depend on the position within an interval, so splitting
    # or inverting a table that carries them is refused ...
    with_docs = attach_docs(phi_inv, bounds)
    for split in (lambda t: length_cap(t, 1), lambda t: balance(t, 2), inverse):
        with pytest.raises(InvalidInputError):
            split(with_docs)
    # ... and attaching them after the split gives the oracle DA.
    for split in (length_cap(phi_inv, 1), balance(length_cap(phi_inv, 1), 2)):
        table = attach_docs(split, bounds)
        out = io.BytesIO()
        enumerate_da(table, out, bounds=bounds)
        assert out.getvalue() == struct.pack(
            f"<{rl.n}Q", *(doc_of(bounds, v) for v in sa)
        )


def _refine_positions(rng: random.Random, t) -> list[int]:
    """Sorted positions of [0, n): empty, or a random set holding some of
    t's starts and, when drawn, 0 and n - 1."""
    if rng.random() < 0.2:
        return []
    new = set(rng.sample(range(t.n), rng.randint(1, min(t.n, 30))))
    new.update(rng.sample(t.starts, min(len(t), rng.randint(0, 3))))
    new.update(p for p in (0, t.n - 1) if rng.random() < 0.5)
    return sorted(new)


def test_refine_cuts_at_new_starts_and_keeps_the_permutation():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 300)
        pi = random_runny_permutation(rng, n, rng.randint(1, max(1, n // 4)))
        base = from_permutation(pi)
        base.extras["sym"] = [rng.randrange(256) for _ in range(len(base))]
        for t in (base, length_cap(base, 1).to_relative(), balance(base, 2)):
            new = _refine_positions(rng, t)
            for alpha in (None, 3):
                out = refine(t, new) if alpha is None else refine(t, new, alpha)
                out.validate()
                assert table_to_permutation(out) == pi
                assert out.starts == sorted(set(t.starts) | set(new))
                assert out.extras["sym"] == [
                    t.extras["sym"][t.cursor_of(s)[0]] for s in out.starts]
                assert out.alpha == (alpha or 0)
                for name in ("n", "mode", "source_runs", "kind", "cap", "cap_len"):
                    assert getattr(out, name) == getattr(t, name)
            if not new:
                assert vars(refine(t, new, t.alpha)) == vars(t)


# A table of n = 8000 whose interval [0, 4000) holds the images of all 400
# blocks of [4000, 8000): balance's shape, with room for thousands of cuts.
_LONG = from_permutation(adversarial_permutation(8000, 400))


@st.composite
def _refine_cases(draw):
    """A table, positions to cut it at and an alpha, for refine."""
    if draw(st.integers(0, 9)) == 0:
        t = _LONG
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(1, 200))
        t = from_permutation(
            random_runny_permutation(rng, n, rng.randint(1, max(1, n // 4))))
        if draw(st.booleans()):
            t.extras["sym"] = [rng.randrange(256) for _ in range(len(t))]
        shape = draw(st.sampled_from(["plain", "capped", "balanced"]))
        if shape == "capped":
            t = length_cap(t, draw(st.sampled_from([Fraction(1, 2), 1]))).to_relative()
        elif shape == "balanced" and n > 1:
            t = balance(length_cap(t, 2), draw(st.sampled_from([2, 3])))
    n = t.n
    kind = draw(st.sampled_from(["none", "every", "one interval", "mixed"]))
    if kind == "none":
        new = []
    elif kind == "every":
        new = list(range(n))
    elif kind == "one interval":
        # Every step-th position of the longest interval, some twice: on
        # _LONG, thousands of cuts.
        j = max(range(len(t)), key=t.lengths.__getitem__)
        s, end = t.starts[j], t.starts[j] + t.lengths[j]
        new = list(range(s + draw(st.integers(0, 3)), end, draw(st.integers(1, 3))))
        new += draw(st.lists(st.integers(s, end - 1), max_size=5))
        new.sort()
    else:
        new = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        new += draw(st.lists(st.sampled_from(t.starts), max_size=3))
        new += draw(st.lists(st.sampled_from([0, n - 1]), max_size=2))
        new.sort()
    return t, new, draw(st.sampled_from([0, 2, 3]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_refine_cases())
def test_refine_equals_the_search_reference(case):
    # The forward-cursor cut is the merge whose images are ranked by
    # search, field for field.
    t, new, alpha = case
    assert vars(refine(t, new, alpha)) == vars(refine_by_search(t, new, alpha))


@pytest.mark.parametrize("new", [[5, 2], [12], [-1], [0, 10], [3, 3, 2]])
def test_refine_refuses_unsorted_or_outside_positions(new):
    t = from_permutation(list(range(10)))
    with pytest.raises(InvalidParameterError, match="not sorted in"):
        refine(t, new)


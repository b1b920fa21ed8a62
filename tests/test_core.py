"""Interval tables and move queries against brute-force evaluation."""

import copy
import dataclasses
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movestruct as ms
from movestruct import (
    BoundsError,
    DocBounds,
    IntervalTable,
    InvalidInputError,
    InvalidParameterError,
    MoveResult,
    QueryConfig,
    from_permutation,
    attach_docs,
    balance,
    build_bwt,
    build_lf,
    inverse,
    length_cap,
    table_to_permutation,
    traverse_counted,
)
from movestruct.core import counted_walk, position_walk, walk
from movestruct.oracle import eval_abs
from support import (
    REF_DEST_RANK,
    REF_IMAGES,
    REF_PERM,
    REF_STARTS,
    adversarial_permutation,
    random_runny_permutation,
    validate_by_sort,
)

EXP = QueryConfig(search=ms.EXPONENTIAL)


@pytest.fixture(scope="module")
def ref_table():
    return from_permutation(REF_PERM)


def test_reference_table_layout(ref_table):
    assert ref_table.starts == REF_STARTS
    assert ref_table.images() == REF_IMAGES
    assert ref_table.dest_rank == REF_DEST_RANK
    assert len(ref_table) == 9
    ref_table.validate()


def test_reference_queries(ref_table):
    res = ref_table.move((3, 0))
    assert (res.cursor, res.fast_forwards) == ((7, 0), 0)
    res = ref_table.move((4, 1))
    assert (res.cursor, res.fast_forwards) == ((2, 0), 1)
    res = ref_table.move((1, 1))
    assert res.cursor == (5, 0)


def test_reference_eval_abs(ref_table):
    assert eval_abs(ref_table, 4) == 11
    assert eval_abs(ref_table, 0) == 1
    assert [eval_abs(ref_table, i) for i in range(16)] == REF_PERM


def test_reference_cursors(ref_table):
    assert ref_table.cursor_of(14) == (8, 1)
    assert ref_table.cursor_of(0) == (0, 0)
    for t in (ref_table, ref_table.to_relative()):
        for i in range(16):
            assert t.position_of(t.cursor_of(i)) == i


def test_identity_and_reversal():
    ident = from_permutation(list(range(8)))
    assert len(ident) == 1
    assert ident.starts == [0]
    assert ident.dest_rank == [0] and ident.dest_offset == [0]
    assert all(eval_abs(ident, i) == i for i in range(8))
    rev = from_permutation([3, 2, 1, 0])
    assert len(rev) == 4


def test_degenerate_single_element():
    t = from_permutation([0])
    res = t.move((0, 0))
    assert res.cursor == (0, 0)
    t.validate()


def test_from_permutation_rejects_non_bijection():
    with pytest.raises(InvalidInputError):
        from_permutation([0, 0, 1])
    with pytest.raises(InvalidInputError):
        from_permutation([0, 3])
    with pytest.raises(InvalidInputError):
        from_permutation([])


def test_from_permutation_accepts_exactly_the_bijections():
    # Every sequence of length 1-4 over [-1, n]: 1,440 inputs, 33 of them
    # bijections; validate() is the only check that rejects the rest.
    for n in range(1, 5):
        for seq in map(list, itertools.product(range(-1, n + 1), repeat=n)):
            if sorted(seq) == list(range(n)):
                assert table_to_permutation(from_permutation(seq)) == seq
            else:
                with pytest.raises(InvalidInputError):
                    from_permutation(seq)


def test_from_runs():
    t = IntervalTable.from_intervals(16, REF_STARTS, REF_IMAGES)
    t.validate()
    assert table_to_permutation(t) == REF_PERM
    for n, starts, images, error in (
        (16, [1], [0], "lengths do not sum to n"),  # the first start is not 0
        (16, [0, 2, 5], [1, 9, 9], "images do not tile"),  # images collide
        (4, [], [], "empty table"),
    ):
        with pytest.raises(InvalidInputError, match=error):
            IntervalTable.from_intervals(n, starts, images).validate()


def test_relative_mode_equivalence(ref_table):
    rel = ref_table.to_relative()
    assert rel.starts == REF_STARTS
    assert rel.materialized_starts() == REF_STARTS
    for i in range(16):
        cur = rel.cursor_of(i)
        out = rel.move(cur).cursor
        assert rel.position_of(out) == REF_PERM[i]
    back = rel.to_absolute()
    assert back.starts == REF_STARTS
    assert table_to_permutation(rel) == REF_PERM


def test_exponential_equals_linear(ref_table):
    for t in (ref_table, ref_table.to_relative()):
        for j in range(len(t)):
            for k in range(t.lengths[j]):
                lin = t.move((j, k))
                exp = t.move((j, k), EXP)
                assert exp.cursor == lin.cursor
                assert exp.fast_forwards == lin.fast_forwards


def test_cursor_bounds(ref_table):
    """Every query that takes a cursor rejects one outside the table. Negative
    indices wrap in Python, so a check missing any one comparison would
    answer for (-1, 0) or (0, -1) instead of raising."""
    r = len(ref_table)
    bad = [(-1, 0), (0, -1), (r, 0), (r + 5, 0), (-r - 1, 0)]
    bad += [(j, ell) for j, ell in enumerate(ref_table.lengths)]
    # Indices no list holds, and an offset no interval does. BoundsError is
    # an IndexError, so the exact type shows that no bare IndexError from
    # indexing the lengths gets out.
    huge = [(2**70, 0), (sys.maxsize, 0), (0, 2**70)]
    for t in (ref_table, ref_table.to_relative()):
        for j, k in bad + huge:
            cur = (j, k)
            for query in (
                lambda: t.move(cur),
                lambda: t.move(cur, EXP),
                lambda: t.position_of(cur),
                lambda: traverse_counted(t, cur, 1),
                lambda: traverse_counted(t, cur, 1, EXP),
            ):
                with pytest.raises(BoundsError, match=r"invalid for table with r'=9") as e:
                    query()
                assert type(e.value) is BoundsError
    with pytest.raises(BoundsError):
        ref_table.cursor_of(16)
    with pytest.raises(BoundsError):
        ref_table.cursor_of(-1)
    with pytest.raises(BoundsError):
        eval_abs(ref_table, -1)


def test_cursor_value_semantics(ref_table):
    """The cursors the library returns are plain (j, k) tuples; a result is
    a MoveResult."""
    want = (2, 0)
    res = ref_table.move((4, 1))
    end, _ = traverse_counted(ref_table, (4, 1), 1)
    got = [
        ref_table.cursor_of(14), res.cursor,
        ref_table.move((4, 1), EXP).cursor, end,
    ]
    for cur, expected in zip(got, [(8, 1), want, want, want]):
        assert type(cur) is tuple
        assert cur == expected
    assert res._fields == ("cursor", "fast_forwards", "probes")
    assert (res.fast_forwards, res.probes) == (1, 2)
    assert res == (want, 1, 2)


def test_move_result_contract(ref_table):
    """A MoveResult is the plain tuple (cursor, fast_forwards, probes) with
    read-only field names, and survives pickle and copy as itself."""
    for t in (ref_table, ref_table.to_relative()):
        for config in (QueryConfig(), EXP):
            for j, ell in enumerate(t.lengths):
                for k in range(ell):
                    res = t.move((j, k), config)
                    assert type(res) is MoveResult
                    assert type(res.cursor) is tuple
                    assert res == (res.cursor, res.fast_forwards, res.probes)
                    assert hash(res) == hash(tuple(res))
                    for name in ("cursor", "probes", "other"):
                        with pytest.raises(AttributeError):
                            setattr(res, name, 0)
                    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
                        back = pickle.loads(pickle.dumps(res, proto))
                        assert type(back) is MoveResult and back == res
                    for back in (copy.copy(res), copy.deepcopy(res)):
                        assert type(back) is MoveResult and back == res
                    assert repr(res) == (
                        f"MoveResult(cursor={res.cursor!r}, "
                        f"fast_forwards={res.fast_forwards!r}, probes={res.probes!r})"
                    )


def test_validator_catches_corruption():
    t = from_permutation(REF_PERM)
    t.dest_offset[0] += 1  # image no longer consistent with its rank
    with pytest.raises(InvalidInputError):
        t.validate()
    t2 = from_permutation(REF_PERM)
    t2.dest_rank[1] = 0  # not the predecessor rank of the image any more
    with pytest.raises(InvalidInputError):
        t2.validate()
    with pytest.raises(InvalidInputError):
        IntervalTable(4, ms.ABSOLUTE, [2, 3], [0, 0], [0, 2]).validate()


def test_unknown_search_kind_is_rejected():
    with pytest.raises(InvalidParameterError, match="unknown search kind 'binary'"):
        QueryConfig("binary")


def test_validate_rejects_columns_of_the_wrong_length():
    """validate() refuses core columns that differ in length, and an extra
    column that is not one value per interval."""
    t = from_permutation(REF_PERM)
    short = t.replace(dest_offset=t.dest_offset[:-1])
    with pytest.raises(InvalidInputError, match="core columns differ in length"):
        short.validate()
    extra = t.replace(extras={"sym": [0] * (len(t) + 1)})
    with pytest.raises(InvalidInputError, match="extra column 'sym' has wrong length"):
        extra.validate()


def _outcome(check) -> str:
    """The message check() raises InvalidInputError with, or "ok"."""
    try:
        check()
    except InvalidInputError as e:
        return str(e)
    return "ok"


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 150),
    seed=st.integers(0, 2**32),
    column=st.sampled_from(["dest_rank", "dest_offset", "lengths"]),
    at=st.integers(0, 1 << 16),
    value=st.one_of(st.integers(-2, 2), st.integers(-2, 160)),
    relative=st.booleans(),
    keep_sum=st.booleans(),
)
def test_validate_agrees_with_a_sort(n, seed, column, at, value, relative, keep_sum):
    """The O(r') validate() passes and fails exactly where the sort-based
    reference does, with the same message, on random runny tables (capped
    or not) after one entry of dest_rank, dest_offset or lengths changes:
    by a small step from its value when relative, or to a value outright.
    With keep_sum, a changed length changes n along, so that the lengths
    still sum to n and the table reaches the tiling check."""
    rng = random.Random(seed)
    t = from_permutation(random_runny_permutation(rng, n, rng.randint(1, n)))
    if rng.random() < 0.5:
        t = length_cap(t, Fraction(1, 2))
    vals = list(getattr(t, column))
    j = at % len(vals)
    vals[j] = vals[j] + value if relative else value
    fields = {column: vals}
    if column == "lengths" and keep_sum:
        fields["n"] = sum(vals)
    bad = t.replace(**fields)
    assert _outcome(bad.validate) == _outcome(lambda: validate_by_sort(bad))


def _split_variants(t):
    """t uncapped, capped, balanced, and each of these in relative mode."""
    for split in (t, length_cap(t, 1), balance(length_cap(t, 1), 2), balance(t, 2)):
        yield split
        yield split.to_relative()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32))
def test_inverse_evaluates_to_inverse_array(n, seed):
    rng = random.Random(seed)
    pi = random_runny_permutation(rng, n, rng.randint(1, max(1, n // 3)))
    pi_inv = [0] * n
    for i, v in enumerate(pi):
        pi_inv[v] = i
    for t in _split_variants(from_permutation(pi)):
        inv = inverse(t)
        inv.validate()
        assert table_to_permutation(inv) == pi_inv
        # The image ranges, in order, are the intervals of the inverse.
        by_image = [ell for _, ell in sorted(zip(t.images(), t.lengths))]
        assert (inv.mode, inv.lengths, inv.alpha) == (t.mode, by_image, 0)
        assert (inv.cap, inv.cap_len, inv.source_runs) == (t.cap, t.cap_len, t.source_runs)


def test_inverse_twice_is_identity():
    rng = random.Random(12)
    fields = [f.name for f in dataclasses.fields(IntervalTable)] + ["starts"]
    for _ in range(20):
        n = rng.randint(1, 400)
        t = from_permutation(random_runny_permutation(rng, n, rng.randint(1, 40)))
        t.extras["sym"] = [rng.randrange(256) for _ in range(len(t))]
        for v in _split_variants(t):
            if v.alpha:
                continue
            twice = inverse(inverse(v))
            assert [getattr(twice, f) for f in fields] == [getattr(v, f) for f in fields]


# The fields each transform may change; it must carry every other field over.
COLUMNS = {"lengths", "dest_rank", "dest_offset", "extras"}
TRANSFORMS = {
    "inverse": (inverse, COLUMNS | {"kind", "alpha"}),
    "length_cap": (lambda t: length_cap(t, 1), COLUMNS | {"cap", "cap_len", "alpha"}),
    "balance": (lambda t: balance(t, 2), COLUMNS | {"alpha"}),
    "attach_docs": (lambda t: attach_docs(t, DocBounds([0, 40, 90])), {"extras"}),
    "to_relative": (lambda t: t.to_relative(), {"mode"}),
    "to_absolute": (lambda t: t.to_absolute(), {"mode"}),
}


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transforms_carry_every_other_field(name):
    """Every field of IntervalTable, a future one included, that a transform
    does not change equals the input's, from a table with no default left."""
    transform, changes = TRANSFORMS[name]
    rl, _ = build_bwt(bytes(random.Random(5).choice(b"ab") for _ in range(150)))
    # Metadata set by hand, so that no transform under test builds the input.
    t = build_lf(rl).replace(source_runs=9, cap=Fraction(3, 2), cap_len=7, alpha=3)
    for src in (t, t.to_relative()):
        out = transform(src)
        for f in dataclasses.fields(IntervalTable):
            if f.name not in changes:
                assert getattr(out, f.name) == getattr(src, f.name), f.name


def test_inverse_kinds_and_extras(ref_table):
    for kind, inv_kind in (("lf", "fl"), ("phi", "phi_inv"), ("generic", "generic")):
        assert inverse(ref_table.replace(kind=kind)).kind == inv_kind
        assert inverse(ref_table.replace(kind=inv_kind)).kind == kind
    with pytest.raises(InvalidInputError):
        inverse(ref_table.replace(extras={"doc": [0] * len(ref_table)}))


def test_unknown_kind_or_mode_is_rejected(ref_table):
    # Saving and inverting index tables by kind, so a kind outside the five
    # is refused where the table is made, as an unknown mode is.
    for field in ({"kind": "bwt"}, {"mode": "bwt"}):
        with pytest.raises(InvalidParameterError, match="unknown"):
            ref_table.replace(**field)


def test_move_result_probe_counts(ref_table):
    for j in range(len(ref_table)):
        for k in range(ref_table.lengths[j]):
            lin = ref_table.move((j, k))
            assert lin.probes >= lin.fast_forwards


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32))
def test_runny_permutation_round_trip(n, seed):
    rng = random.Random(seed)
    pi = random_runny_permutation(rng, n, rng.randint(1, max(1, n // 3)))
    t = from_permutation(pi)
    t.validate()
    assert table_to_permutation(t) == pi
    rel = t.to_relative()
    assert table_to_permutation(rel) == pi
    # Every individual query agrees with the generating array, in both modes
    # and with both search strategies.
    for i in range(n):
        cur = t.cursor_of(i)
        assert t.position_of(t.move(cur).cursor) == pi[i]
        assert t.position_of(t.move(cur, EXP).cursor) == pi[i]
        rcur = rel.cursor_of(i)
        assert rel.position_of(rel.move(rcur).cursor) == pi[i]


def test_single_cycle_chain_visits_everything():
    rng = random.Random(7)
    for _ in range(5):
        text = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 400)))
        rl, _ = build_bwt(text)
        t = build_lf(rl)
        seen = set()
        cur = (0, 0)
        for _ in range(rl.n):
            assert cur not in seen
            seen.add(cur)
            cur = t.move(cur).cursor
        assert cur == (0, 0)
        assert len(seen) == rl.n


def _capped_walks(seed: int):
    """Capped tables with a start cursor and a step count, as the kernels
    take them."""
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(2, 300)
        t = length_cap(
            from_permutation(random_runny_permutation(rng, n, rng.randint(1, 6))),
            Fraction(1, 2),
        )
        yield t, t.cursor_of(rng.randrange(n)), rng.randint(0, 2 * n)


def test_walk_puts_the_interval_each_query_leaves():
    # On a capped table, with each interval's own rank as its column value,
    # the kernel puts the interval of every cursor it leaves, starting with
    # the start's, and ends where chained IntervalTable.move ends.
    for t, start, size in _capped_walks(11):
        col = list(range(len(t)))
        got = []
        end = walk(t.lengths, t.dest_rank, t.dest_offset, *start, size, col, got.append)
        left = []
        cur = start
        for _ in range(size):
            left.append(cur[0])
            cur = t.move(cur).cursor
        assert got == left
        assert end == cur


def _moved_positions(t, start, size):
    """The positions that `size` chained IntervalTable.move queries from
    start leave, the end cursor, and the most boundaries one skipped."""
    left, cur, top = [], start, 0
    for _ in range(size):
        left.append(t.position_of(cur))
        res = t.move(cur)
        cur, top = res.cursor, max(top, res.fast_forwards)
    return left, cur, top


def test_position_walk_puts_the_position_each_query_leaves():
    # The kernel carries (interval, position): it puts the position of
    # every cursor it leaves, starting with the start's, and ends at the
    # interval and position of chained IntervalTable.move's end cursor.
    pi = adversarial_permutation(400, 100)
    uncapped = from_permutation(pi)
    last = len(uncapped) - 1
    cases = list(_capped_walks(13))
    for i in (0, 150, 399):
        cases.append((uncapped, uncapped.cursor_of(i), 2 * uncapped.n))
    # Walks that end in the last interval: size steps back from its start
    # along the inverse permutation.
    back = {v: i for i, v in enumerate(pi)}
    p = uncapped.starts[last]
    for size in range(1, 60):
        p = back[p]
        cases.append((uncapped, uncapped.cursor_of(p), size))
    skipped = []
    for t, start, size in cases:
        ends = t.starts[1:] + [t.n]
        delta = [v - s for v, s in zip(t.images(), t.starts)]
        got = []
        j, p = position_walk(
            ends, t.dest_rank, delta, start[0], t.position_of(start), size, got.append)
        left, cur, top = _moved_positions(t, start, size)
        assert got == left
        assert (j, p) == (cur[0], t.position_of(cur))
        skipped.append(top)
        if t is uncapped and size < 60:
            assert j == last
    # Uncapped, a query from [0, 200) skips up to 99 boundaries.
    assert max(skipped) > 16


def test_counted_walk_counts_the_queries_that_fast_forward():
    # The counting kernel ends where chained IntervalTable.move ends and
    # counts the queries that fast-forward by their fast forwards, leaving
    # counts[0] alone.
    for t, start, size in _capped_walks(11):
        counts = [0] * len(t)
        end = counted_walk(t.lengths, t.dest_rank, t.dest_offset, *start, size, counts)
        want_counts = [0] * len(t)
        cur = start
        for _ in range(size):
            res = t.move(cur)
            if res.fast_forwards:
                want_counts[res.fast_forwards] += 1
            cur = res.cursor
        assert end == cur
        assert counts == want_counts


def test_eval_offset_consistency(ref_table):
    # Within an interval the evaluation is the image plus the offset.
    for j, s in enumerate(ref_table.starts):
        for k in range(ref_table.lengths[j]):
            assert eval_abs(ref_table, s + k) == eval_abs(ref_table, s) + k

"""Streaming traversals: BWT inversion, SA/DA enumeration, counted driver."""

import io
import math
import random
import struct
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movestruct as ms
from movestruct import (
    BoundsError,
    DocBounds,
    InvalidInputError,
    InvalidParameterError,
    MissingColumnError,
    QueryConfig,
    Rlbwt,
    TraversalStats,
    balance,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    attach_docs,
    cycle_profile,
    enumerate_da,
    enumerate_sa,
    from_permutation,
    inverse,
    invert_bwt,
    length_cap,
    load_move,
    save_move,
    save_rlbwt,
    table_to_permutation,
    traverse_counted,
)
from movestruct import traversal
from movestruct.cli import main
from movestruct.oracle import (
    max_fast_forwards,
    naive_lf,
    naive_phi,
    naive_sa,
    simulate_fast_forwards,
)
from movestruct.rlbwt import cut_at_documents, doc_bounds_of
from support import (
    adversarial_permutation,
    check_consistency,
    doc_of,
    doubling_search,
    random_runny_permutation,
    random_text,
    recover_text,
    repetitive_text,
    skewed_runny_permutation,
)

EXP = QueryConfig(search=ms.EXPONENTIAL)


def u64s(buf: io.BytesIO) -> list[int]:
    raw = buf.getvalue()
    return list(struct.unpack(f"<{len(raw) // 8}Q", raw))


def test_invert_abaaba():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    assert recover_text(lf) == b"abaaba\x00"


def test_invert_emission_order():
    rl, _ = build_bwt(b"abaaba")
    for table in (build_lf(rl), inverse(build_lf(rl))):
        out = io.BytesIO()
        stats = invert_bwt(table, out)
        assert stats.steps == rl.n
        check_consistency(stats)
        # Written in text order with the sentinel last.
        assert out.getvalue() == b"abaaba\x00"


def test_invert_unary():
    rl, _ = build_bwt(b"aaaaa")
    assert recover_text(build_lf(rl)) == b"aaaaa\x00"


def test_invert_requires_symbol_column():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    lf.extras.pop("sym")
    with pytest.raises(MissingColumnError):
        invert_bwt(lf, io.BytesIO())


def test_invert_rejects_other_kinds():
    rl, _ = build_bwt(b"abaaba")
    phi_inv = inverse(build_phi_via_lf(rl))
    with pytest.raises(InvalidInputError):
        invert_bwt(phi_inv.replace(extras={"sym": [0] * len(phi_inv)}), io.BytesIO())


def test_invert_refuses_an_fl_whose_row_0_interval_is_not_the_sentinel():
    # Two cycles of two rows each and no sentinel: the walk never meets
    # row 0's sentinel, so only the check of sym[0] stops it writing "aaaa".
    t = from_permutation([1, 0, 3, 2]).replace(kind="fl", extras={"sym": [97] * 4})
    out = io.BytesIO()
    with pytest.raises(InvalidInputError, match="not the sentinel"):
        invert_bwt(t, out)
    assert out.getvalue() == b""
    # One cycle, with the sentinel moved off row 0's interval.
    fl = inverse(build_lf(build_bwt(b"abaaba")[0]))
    sym = list(fl.extras["sym"])
    sym[0], sym[1] = sym[1], sym[0]
    assert sym[0] != 0
    out = io.BytesIO()
    with pytest.raises(InvalidInputError, match="not the sentinel"):
        invert_bwt(fl.replace(extras={"sym": sym}), out)
    assert out.getvalue() == b""


def test_invert_random_sweep_with_caps():
    rng = random.Random(17)
    for _ in range(30):
        text = random_text(rng, 2, 2000)
        rl, _ = build_bwt(text)
        lf = build_lf(rl)
        for c in (1, 2, 8):
            capped = length_cap(lf, c)
            assert recover_text(capped) == text + b"\x00"
            assert recover_text(capped.to_relative()) == text + b"\x00"


def test_enumerate_sa_abaaba():
    rl, _ = build_bwt(b"abaaba")
    phi_inv = inverse(build_phi_via_lf(rl))
    sink = io.BytesIO()
    stats = enumerate_sa(phi_inv, sink)
    assert u64s(sink) == [6, 5, 2, 3, 0, 4, 1]
    assert stats.steps == rl.n
    check_consistency(stats)


def test_enumerate_sa_is_permutation():
    rng = random.Random(23)
    for _ in range(20):
        text = random_text(rng, 2, 1500)
        rl, sa = build_bwt(text)
        phi_inv = inverse(build_phi_via_lf(rl))
        sink = io.BytesIO()
        enumerate_sa(phi_inv, sink)
        out = u64s(sink)
        assert out == sa == naive_sa(text + b"\x00")
        assert sorted(out) == list(range(rl.n))


@pytest.mark.parametrize("block", [4, 1 << 16])
def test_sa_walk_that_returns_to_n_minus_1_early_fails_before_that_block(
    block, monkeypatch
):
    # A phi-inverse table of two cycles: 19 -> 0 -> ... -> 8 -> 19 and
    # 9 -> ... -> 18 -> 9. The walk meets 19 again at step 10, so the
    # blocks before step 8 are written and the one holding step 10 is not.
    pi = [i + 1 for i in range(20)]
    pi[8], pi[18], pi[19] = 19, 9, 0
    table = from_permutation(pi).replace(kind="phi_inv")
    monkeypatch.setattr(traversal, "_BLOCK", block)
    sink = io.BytesIO()
    with pytest.raises(InvalidInputError, match="19 again at position 10"):
        enumerate_sa(table, sink)
    assert u64s(sink) == [19, *range(9)][: 8 if block == 4 else 0]


@pytest.mark.parametrize("block", [4, 1 << 16])
@pytest.mark.parametrize("attached", [False, True])
def test_da_walk_that_returns_to_n_minus_1_early_fails_before_that_block(
    block, attached, monkeypatch
):
    # The two-cycle phi-inverse above, with documents that start at its
    # interval starts 0, 8 and 18, passed as bounds or as attached doc
    # columns. The cut at n - 1 = 19 gives 19 a document of its own, which
    # the walk meets at step 10, as the SA walk meets 19.
    pi = [i + 1 for i in range(20)]
    pi[8], pi[18], pi[19] = 19, 9, 0
    table = from_permutation(pi).replace(kind="phi_inv")
    bounds = DocBounds([0, 8, 18])
    assert set(bounds.starts) <= set(table.starts)
    table, given = (attach_docs(table, bounds), None) if attached else (table, bounds)
    monkeypatch.setattr(traversal, "_BLOCK", block)
    sink = io.BytesIO()
    with pytest.raises(InvalidInputError) as info:
        enumerate_da(table, sink, given)
    assert str(info.value) == (
        "SA value 19 again at position 10; phi-inverse is not one cycle")
    assert u64s(sink) == [doc_of(bounds, v) for v in [19, *range(9)]][
        : 8 if block == 4 else 0]


@pytest.mark.parametrize("block", [64, 1 << 16])
def test_da_walk_with_a_two_byte_marker_fails_before_that_block(block, monkeypatch):
    # A phi-inverse of two cycles, 599 -> 0 -> ... -> 299 -> 599 and
    # 300 -> ... -> 598 -> 300, with 300 documents of two positions. The cut
    # at n - 1 gives 599 document 300, a marker of two significant bytes,
    # whose low byte is that of document 44; the walk meets it at step 301.
    n = 600
    pi = [i + 1 for i in range(n)]
    pi[299], pi[598], pi[599] = 599, 300, 0
    table = from_permutation(pi).replace(kind="phi_inv")
    bounds = DocBounds(list(range(0, n, 2)))
    monkeypatch.setattr(traversal, "_BLOCK", block)
    sink = io.BytesIO()
    with pytest.raises(InvalidInputError) as info:
        enumerate_da(table, sink, bounds)
    assert str(info.value) == (
        "SA value 599 again at position 301; phi-inverse is not one cycle")
    assert u64s(sink) == [299, *(v // 2 for v in range(255))][: 256 if block == 64 else 0]


@pytest.mark.parametrize("block", [4, 1 << 16])
def test_invert_walk_that_returns_to_row_0_early_fails_before_that_block(
    block, monkeypatch
):
    # An FL table of two cycles: 0 -> 2 -> ... -> 10 -> 1 -> 0 and
    # 11 -> ... -> 19 -> 11. Row 0's interval holds the sentinel alone, and
    # the walk leaves row 0 at step 10, so it writes the sentinel at text
    # position 10: the blocks before step 8 are written and the one holding
    # step 10 is not.
    pi = [2, 0, *range(3, 11), 1, *range(12, 20), 11]
    table = from_permutation(pi)
    assert table.starts == [0, 1, 2, 10, 11, 19]
    table = table.replace(kind="fl", extras={"sym": [0, 98, 97, 99, 100, 101]})
    monkeypatch.setattr(traversal, "_BLOCK", block)
    sink = io.BytesIO()
    with pytest.raises(InvalidInputError) as info:
        invert_bwt(table, sink)
    assert str(info.value) == (
        "sentinel at text position 10 of 20; the table is the BWT of no text")
    assert sink.getvalue() == (b"a" * 8 if block == 4 else b"")


def test_walks_in_every_block_size_equal_the_oracle(monkeypatch):
    # From one entry per block to one block past n: the sentinel at n - 1
    # starts a block whenever the size divides n - 1, and is alone in the
    # last block at size n - 1; SA[0] = n - 1 always starts the first block.
    text = b"abaabbabaabaababbaabaababaaabbabaabaaba"
    rl, sa = build_bwt(text)
    n = rl.n
    assert n == 40 and sa == naive_sa(text + b"\x00")
    lf = build_lf(rl)
    pi = build_phi_via_lf(rl, inverse=True)
    bounds = DocBounds([0, 7, 20, 39])
    for block in range(1, n + 2):
        monkeypatch.setattr(traversal, "_BLOCK", block)
        out = io.BytesIO()
        assert invert_bwt(lf, out).steps == n
        assert out.getvalue() == text + b"\x00"
        out = io.BytesIO()
        assert enumerate_sa(pi, out).steps == n
        assert u64s(out) == sa
        out = io.BytesIO()
        assert enumerate_da(pi, out, bounds).steps == n
        assert u64s(out) == [doc_of(bounds, v) for v in sa]


def test_walks_of_one_and_two_positions():
    # The first block holds the fixed value and at most one walked step.
    one = from_permutation([0])
    out = io.BytesIO()
    assert invert_bwt(one.replace(kind="fl", extras={"sym": [0]}), out).steps == 1
    assert out.getvalue() == b"\0"
    two = from_permutation([1, 0]).replace(kind="phi_inv")
    for table, bounds, da in ((one.replace(kind="phi_inv"), DocBounds([0]), [0]),
                              (two, DocBounds([0, 1]), [1, 0]),
                              (two, DocBounds([0]), [0, 0])):
        out = io.BytesIO()
        assert enumerate_sa(table, out).steps == table.n
        assert u64s(out) == list(range(table.n))[::-1]
        out = io.BytesIO()
        assert enumerate_da(table, out, bounds).steps == table.n
        assert u64s(out) == da


def test_sa_walk_ignores_n_minus_1_across_two_values():
    # n - 1 = 256 is the bytes 00 01 00 ... 00, which the u64 values v and 1
    # make whenever 1 follows v in the SA.
    text = random_text(random.Random(256), 256, 256)
    rl, sa = build_bwt(text)
    assert rl.n == 257
    sink = io.BytesIO()
    enumerate_sa(build_phi_via_lf(rl, inverse=True), sink)
    assert struct.pack("<Q", 256) in sink.getvalue()[8:]
    assert u64s(sink) == sa


def test_enumerate_da_abaaba():
    rl, _ = build_bwt(b"abaaba")
    phi_inv = inverse(build_phi_via_lf(rl))
    bounds = DocBounds([0, 3])
    table = attach_docs(phi_inv, bounds)
    sink = io.BytesIO()
    enumerate_da(table, sink, bounds=bounds)
    assert u64s(sink) == [1, 1, 0, 1, 0, 1, 0]


def test_enumerate_da_single_document():
    rl, _ = build_bwt(b"abaaba")
    phi_inv = inverse(build_phi_via_lf(rl))
    table = attach_docs(phi_inv, DocBounds([0]))
    sink = io.BytesIO()
    enumerate_da(table, sink)
    assert u64s(sink) == [0] * rl.n


def test_enumerate_da_bounds_replace_attached_columns():
    # Doc columns attached for bounds A, walked with bounds B: the output is
    # B's document array, capped or not.
    rl, sa = build_bwt(b"abaabaabbaababaab")
    phi_inv = build_phi_via_lf(rl, inverse=True)
    a, b = DocBounds([0, 5]), DocBounds([0, 9])
    for table in (phi_inv, length_cap(phi_inv, Fraction(1, 4))):
        sink = io.BytesIO()
        enumerate_da(attach_docs(table, a), sink, bounds=b)
        assert u64s(sink) == [doc_of(b, v) for v in sa]


def test_sa_da_walks_reject_other_kinds():
    # A walk from SA[0] = n - 1 over LF, FL or phi writes one of their
    # cycles, not the SA.
    rl, _ = build_bwt(b"abaaba")
    bounds = DocBounds([0, 3])
    lf = build_lf(rl)
    phi = build_phi_via_lf(rl)
    for table in (lf, inverse(lf), phi, from_permutation(list(range(rl.n)))):
        with pytest.raises(InvalidInputError, match="phi"):
            enumerate_sa(table, io.BytesIO())
        with pytest.raises(InvalidInputError, match="phi"):
            enumerate_da(attach_docs(table, bounds), io.BytesIO(), bounds)


def test_enumerate_da_requires_doc_columns():
    rl, _ = build_bwt(b"abaaba")
    phi_inv = inverse(build_phi_via_lf(rl))
    with pytest.raises(MissingColumnError, match="document bounds"):
        enumerate_da(phi_inv, io.BytesIO())


def test_enumerate_da_random_multi_doc():
    rng = random.Random(31)
    for _ in range(50):
        docs = [random_text(rng, 2, 120) for _ in range(rng.randint(1, 6))]
        text = b"".join(docs)
        starts, pos = [], 0
        for d in docs:
            starts.append(pos)
            pos += len(d)
        bounds = DocBounds(starts)
        rl, sa = build_bwt(text)
        phi_inv = inverse(build_phi_via_lf(rl))
        table = attach_docs(phi_inv, bounds)
        sink = io.BytesIO()
        enumerate_da(table, sink, bounds=bounds)
        assert u64s(sink) == [doc_of(bounds, v) for v in sa]


def test_traverse_counted_cycle_closure():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    end, stats = traverse_counted(lf, (0, 0), rl.n)
    assert end == (0, 0)
    assert stats.steps == rl.n
    check_consistency(stats)


def test_traverse_counted_relative_and_exponential():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    rel = lf.to_relative()
    _, s_abs = traverse_counted(lf, (0, 0), rl.n)
    _, s_rel = traverse_counted(rel, (0, 0), rl.n)
    assert s_abs.total_fast_forwards == s_rel.total_fast_forwards
    exp = QueryConfig(search=ms.EXPONENTIAL)
    end, s_exp = traverse_counted(lf, (0, 0), rl.n, exp)
    assert end == (0, 0)

    # Both storage modes and both search kinds agree with each other and
    # with the oracles on random texts, capped, balanced or neither.
    rng = random.Random(43)
    splits = (
        lambda t: t, lambda t: length_cap(t, 1), lambda t: length_cap(t, 8),
        lambda t: balance(length_cap(t, 8), 2),
    )
    for _ in range(6):
        text = random_text(rng, 2, 400)
        rl, _ = build_bwt(text)
        n = rl.n
        sa = naive_sa(text + b"\x00")
        bounds = DocBounds([0] + sorted(rng.sample(range(1, n - 1), min(3, n - 2))))
        oracles = {"lf": naive_lf(rl.expand()), "phi_inv": naive_phi(sa, inverse=True)}
        for split in splits:
            tables = {
                "lf": split(build_lf(rl)),
                "phi_inv": split(inverse(build_phi_via_lf(rl))),
            }
            for kind, table in tables.items():
                # Oracle walk: positions via the permutation, fast forwards
                # counted from the starts between rank and predecessor.
                pos = start = rng.randrange(n)
                ffs = []
                for _ in range(n + 7):
                    ffs.append(simulate_fast_forwards(table, pos))
                    pos = oracles[kind][pos]
                expected = (n + 7, sum(ffs), max(ffs), dict(Counter(ffs)))
                ends = []
                rel = table.to_relative()
                for t, config in ((table, QueryConfig()), (rel, QueryConfig()),
                                  (table, exp), (rel, exp)):
                    end, stats = traverse_counted(t, t.cursor_of(start), n + 7, config)
                    assert t.position_of(end) == pos
                    assert (stats.steps, stats.total_fast_forwards, stats.max_fast_forwards,
                            stats.histogram) == expected
                    ends.append(end)
                assert ends[0] == ends[1] == ends[2] == ends[3]

            lf = tables["lf"]
            inverted = [recover_text(t) for t in (lf, lf.to_relative())]
            assert inverted == [text + b"\x00"] * 2
            for t in (tables["phi_inv"], tables["phi_inv"].to_relative()):
                sink = io.BytesIO()
                enumerate_sa(t, sink)
                assert u64s(sink) == sa
                sink = io.BytesIO()
                enumerate_da(attach_docs(t, bounds), sink, bounds=bounds)
                assert u64s(sink) == [doc_of(bounds, v) for v in sa]


def test_traverse_counted_rejects_negative_steps():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    for config in (QueryConfig(), QueryConfig(search=ms.EXPONENTIAL)):
        with pytest.raises(InvalidParameterError):
            traverse_counted(lf, (0, 0), -5, config)
        end, stats = traverse_counted(lf, (0, 0), 0, config)
        assert end == (0, 0)
        assert vars(stats) == vars(TraversalStats())


def test_traverse_counted_rejects_steps_past_maxsize():
    # A count that no C-level loop can take is a parameter error, raised
    # before any query, not an OverflowError from inside the kernel.
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    for config in (QueryConfig(), QueryConfig(search=ms.EXPONENTIAL)):
        for steps in (sys.maxsize + 1, 2**64):
            with pytest.raises(InvalidParameterError):
                traverse_counted(lf, (0, 0), steps, config)


def test_traverse_counted_bad_start():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    with pytest.raises(BoundsError):
        traverse_counted(lf, (99, 0), 1)


def test_stats_consistency_check():
    # Two linear queries, one of which skips two boundaries: the kernel
    # counts only that one, and probes are one per query plus its skips.
    s = traversal._walk_stats([0, 0, 1], 2)
    assert vars(s) == {
        "steps": 2, "total_fast_forwards": 2, "max_fast_forwards": 2,
        "histogram": {0: 1, 2: 1}, "total_probes": 4, "max_probes": 3,
    }
    check_consistency(s)
    s.steps = 5
    with pytest.raises(InvalidInputError):
        check_consistency(s)


def test_walks_write_to_files(tmp_path):
    rl, sa = build_bwt(b"abaaba")
    path = tmp_path / "text.bin"
    with open(path, "wb") as fp:
        invert_bwt(build_lf(rl), fp)
    assert path.read_bytes() == b"abaaba\x00"

    phi_inv = inverse(build_phi_via_lf(rl))
    vpath = tmp_path / "sa.bin"
    with open(vpath, "wb") as fp:
        enumerate_sa(phi_inv, fp)
    raw = vpath.read_bytes()
    vals = [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)]
    assert vals == sa


def test_walks_flush_in_blocks(monkeypatch):
    # Outputs longer than one block come out whole and in order.
    monkeypatch.setattr(traversal, "_BLOCK", 3)
    rl, sa = build_bwt(b"abaaba")
    assert recover_text(build_lf(rl)) == b"abaaba\x00"
    out = io.BytesIO()
    enumerate_sa(inverse(build_phi_via_lf(rl)), out)
    assert u64s(out) == sa
    bounds = DocBounds([0, 3])
    out = io.BytesIO()
    enumerate_da(attach_docs(inverse(build_phi_via_lf(rl)), bounds), out)
    assert u64s(out) == [1, 1, 0, 1, 0, 1, 0]


def _unary_rlbwt(m: int) -> Rlbwt:
    """The RLBWT of a^m with its samples in closed form: SA values m, m - 1,
    ..., 1 fill the run of a's and 0 the sentinel's run."""
    return Rlbwt([(97, m), (0, 1)], head_sa=[m, 0], tail_sa=[1, 0])


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_unary_rlbwt_is_that_of_build_bwt(m):
    rl, _ = build_bwt(b"a" * m)
    unary = _unary_rlbwt(m)
    assert unary == rl


def test_invert_cli_working_space(tmp_path):
    # n = 1,000,001 in r = 2 runs: the inversion keeps O(r) state and one
    # output block, never the text.
    rl = _unary_rlbwt(10**6)
    for source, name in ((_unary_rlbwt(3), "warm.rl"), (rl, "a.rl")):
        with open(tmp_path / name, "wb") as fp:
            save_rlbwt(source, fp)
    # A first small run makes the one-time allocations of the command line
    # parser and lazy imports, which do not grow with n.
    assert main(["invert", str(tmp_path / "warm.rl"), "-o", str(tmp_path / "w")]) == 0
    src = tmp_path / "a.rl"
    out = tmp_path / "a.txt"
    tracemalloc.start()
    try:
        assert main(["invert", str(src), "-o", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rl.n // 4
    assert out.read_bytes() == b"a" * 10**6 + b"\x00"


def test_sa_walk_working_space(tmp_path):
    # n = 1,000,001 in r = 2 runs: the SA walk keeps O(r) state and one
    # block of values, never a buffer that grows with the output.
    rl = _unary_rlbwt(10**6)
    phi_inv = build_phi_via_lf(rl, inverse=True)
    with open(tmp_path / "sa.u64", "wb") as fp:
        tracemalloc.start()
        try:
            stats = enumerate_sa(phi_inv, fp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 * rl.n // 4
    assert stats.steps == rl.n
    raw = (tmp_path / "sa.u64").read_bytes()
    assert len(raw) == 8 * rl.n
    assert struct.unpack("<3Q", raw[:24]) == (10**6, 10**6 - 1, 10**6 - 2)
    assert struct.unpack("<Q", raw[-8:]) == (0,)


def test_traverse_counted_working_space():
    # max_len 20,000 and r' 10,001: a 1-step walk whose query skips no
    # boundary keeps a fixed few fast-forward counts, not one per interval.
    t = from_permutation(adversarial_permutation(40000, 10000))
    assert min(t.max_len, len(t)) >= 10**4
    start = t.cursor_of(t.n // 2)
    for config in (QueryConfig(), EXP):
        traverse_counted(t, start, 1, config)
        tracemalloc.start()
        try:
            _, stats = traverse_counted(t, start, 1, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.histogram == {0: 1}
        assert peak < 4096


def _moved_stats(table, cur, steps, config=QueryConfig()):
    """The end cursor and vars() of the stats of `steps` chained
    IntervalTable.move queries from cur, summed one query at a time."""
    ffs, probes = [], []
    for _ in range(steps):
        res = table.move(cur, config)
        cur = res.cursor
        ffs.append(res.fast_forwards)
        probes.append(res.probes)
    return cur, {
        "steps": steps, "total_fast_forwards": sum(ffs),
        "max_fast_forwards": max(ffs, default=0), "histogram": dict(Counter(ffs)),
        "total_probes": sum(probes), "max_probes": max(probes, default=0),
    }


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_walks_across_block_seams(monkeypatch, block):
    # Only the kernel's cursor, and the SA walk's last value, cross from one
    # block to the next: each query puts the value of the interval it leaves.
    monkeypatch.setattr(traversal, "_BLOCK", block)
    rng = random.Random(1500 + block)
    exp = QueryConfig(search=ms.EXPONENTIAL)
    texts = [random_text(rng, 2, 300) for _ in range(3)]
    texts += [repetitive_text(rng, copies=6, seed_len=40, mutations=2)
              for _ in range(2)]
    for text in texts:
        rl, sa = build_bwt(text)
        n = rl.n
        lf = build_lf(rl)
        phi_inv = build_phi_via_lf(rl, inverse=True)
        bounds = DocBounds([0] + sorted(rng.sample(range(1, n), min(4, n - 1))))
        for split in (lambda t: t, lambda t: length_cap(t, Fraction(1, 2)),
                      lambda t: balance(length_cap(t, 8), 2).to_relative()):
            fl = inverse(split(lf))
            out = io.BytesIO()
            stats = invert_bwt(fl, out)
            assert out.getvalue() == text + b"\x00"
            assert vars(stats) == _moved_stats(fl, (0, 0), n)[1]

            pi = split(phi_inv)
            first = pi.cursor_of(n - 1)
            ref = _moved_stats(pi, first, n)[1]
            out = io.BytesIO()
            assert vars(enumerate_sa(pi, out)) == ref
            assert u64s(out) == sa
            # DA stats are those of the walk on the table cut at the bounds
            # and at n - 1.
            cut = cut_at_documents(pi, DocBounds(sorted({*bounds.starts, n - 1})))
            out = io.BytesIO()
            assert vars(enumerate_da(pi, out, bounds)) == _moved_stats(
                cut, cut.cursor_of(n - 1), n)[1]
            assert u64s(out) == [doc_of(bounds, v) for v in sa]
            # Documents that start only at interval starts leave no interval
            # spanning a boundary: the cut adds only n - 1, and the attached
            # columns suffice.
            whole = DocBounds(sorted({0, *rng.sample(pi.starts, min(3, len(pi)))}))
            cut = cut_at_documents(pi, DocBounds(sorted({*pi.starts, n - 1})))
            ref = _moved_stats(cut, cut.cursor_of(n - 1), n)[1]
            for table, given in ((pi, whole), (attach_docs(pi, whole), None)):
                out = io.BytesIO()
                assert vars(enumerate_da(table, out, given)) == ref
                assert u64s(out) == [doc_of(whole, v) for v in sa]

            for t in (split(lf), pi):
                start = t.cursor_of(rng.randrange(n))
                for steps in (1, 5, 2 * n + 1):
                    for config in (QueryConfig(), exp):
                        end, stats = traverse_counted(t, start, steps, config)
                        ref = _moved_stats(t, start, steps, config)
                        assert (end, vars(stats)) == ref


def test_da_without_bounds_fails_before_the_first_byte(monkeypatch):
    # The first cursor whose interval crosses a document boundary lies in a
    # block after the first; the walk still raises before it writes any.
    monkeypatch.setattr(traversal, "_BLOCK", 3)
    rl, sa = build_bwt(b"abaabaabbaababaab")
    pi = build_phi_via_lf(rl, inverse=True)
    starts = pi.starts
    for b in range(1, rl.n):
        # SA ranks whose cursor is in an interval that starts before b at a
        # value at or past b.
        crossing = [i for i, v in enumerate(sa)
                    if starts[pi.cursor_of(v)[0]] < b <= v]
        if crossing and crossing[0] >= 3:
            break
    else:
        pytest.fail("no boundary is first crossed after the first block")
    out = io.BytesIO()
    with pytest.raises(InvalidInputError, match="spans a document boundary"):
        enumerate_da(attach_docs(pi, DocBounds([0, b])), out)
    assert out.getvalue() == b""


@pytest.mark.parametrize("block", [1, 2, 7])
def test_da_walks_the_table_cut_at_document_starts(monkeypatch, block):
    monkeypatch.setattr(traversal, "_BLOCK", block)
    rl, sa = build_bwt(b"abaabaabbaababaab")
    n = rl.n
    pi = build_phi_via_lf(rl, inverse=True)

    def da(bounds):
        out = io.BytesIO()
        stats = enumerate_da(pi, out, bounds)
        assert u64s(out) == [doc_of(bounds, v) for v in sa]
        cut = cut_at_documents(pi, bounds)
        cut.validate()
        assert vars(stats) == _moved_stats(cut, cut.cursor_of(n - 1), n)[1]
        return u64s(out), cut

    def core(t):
        return t.lengths, t.dest_rank, t.dest_offset

    # Every position starts a document of its own.
    out, cut = da(DocBounds(list(range(n))))
    assert out == sa
    assert cut.lengths == [1] * n
    # One document: the cut adds nothing.
    out, cut = da(DocBounds([0]))
    assert out == [0] * n
    assert core(cut) == core(pi)
    # Interval [1, 5) of the uncapped table holds three documents.
    assert (pi.starts[1], pi.lengths[1]) == (1, 4)
    out, cut = da(DocBounds([0, 2, 3]))
    assert len(cut) == len(pi) + 2
    # Documents that start only at interval starts: the walk is the uncut one.
    out, cut = da(DocBounds(pi.starts[::2]))
    assert core(cut) == core(pi)
    # A document that starts at n is refused before anything is written.
    out = io.BytesIO()
    with pytest.raises(InvalidInputError, match="not below n"):
        enumerate_da(pi, out, DocBounds([0, n]))
    assert out.getvalue() == b""


def test_da_without_bounds_checks_the_doc_columns(tmp_path):
    # Columns that attach_docs would not make are refused, even from a file
    # whose checksum holds.
    rl, sa = build_bwt(b"abaabaabbaababaab")
    pi = build_phi_via_lf(rl, inverse=True)
    table = attach_docs(pi, DocBounds([0, 5, 12]))
    assert doc_bounds_of(table).starts == [0, 5, 12]
    out = io.BytesIO()
    enumerate_da(table, out)
    assert u64s(out) == [doc_of(DocBounds([0, 5, 12]), v) for v in sa]
    for name in ("doc", "docdist"):
        partial = pi.replace(extras={name: table.extras[name]})
        with pytest.raises(MissingColumnError, match="document bounds"):
            doc_bounds_of(partial)
    bad = attach_docs(pi, DocBounds([0]))
    bad.extras["doc"] = [7] * len(bad)
    with open(tmp_path / "bad.mv", "wb") as fp:
        save_move(bad, fp)
    with open(tmp_path / "bad.mv", "rb") as fp:
        loaded = load_move(fp)
    out = io.BytesIO()
    with pytest.raises(InvalidInputError, match="describe no document bounds"):
        enumerate_da(loaded, out)
    assert out.getvalue() == b""


def _exp_walk(table, start, steps):
    """Exponential traverse_counted from start, checked against the same
    queries made one IntervalTable.move at a time; returns its stats."""
    end, stats = traverse_counted(table, start, steps, EXP)
    assert (end, vars(stats)) == _moved_stats(table, start, steps, EXP)
    return stats


def test_exponential_walk_on_one_interval():
    # r' = 1: every query lands in the last interval, past which there is no
    # start to probe.
    t = from_permutation(range(40))
    assert len(t) == 1
    for u in (t, t.to_relative()):
        for steps in (0, 1, 39, 200):
            stats = _exp_walk(u, u.cursor_of(17), steps)
            assert (stats.steps, stats.total_probes, stats.max_probes) == (steps, 0, 0)


def test_exponential_walk_landing_in_the_last_interval():
    # [0, half) maps onto [half, n), cut into 8 blocks that map back in
    # reversed order. From half - 1 the walk cycles through n - 1, m - 1 and
    # half + m - 1: once per four steps it gallops from the first block
    # across every other into the last interval.
    n, blocks = 256, 8
    half, m = n // 2, n // 2 // blocks
    t = from_permutation(adversarial_permutation(n, blocks))
    last = len(t) - 1
    for u in (t, t.to_relative(), length_cap(t, 1), balance(t, 2)):
        cur = u.cursor_of(half - 1)
        seen = [u.position_of(cur)]
        for _ in range(4):
            cur = u.move(cur, EXP).cursor
            seen.append(u.position_of(cur))
        assert seen == [half - 1, n - 1, m - 1, half + m - 1, half - 1]
        for steps in (0, 1, 2, 3, 4, 401):
            _exp_walk(u, u.cursor_of(half - 1), steps)
    res = t.move(t.cursor_of(half - 1), EXP)
    assert (res.cursor[0], res.fast_forwards) == (last, blocks - 1)

    # A last interval that maps onto itself keeps the walk there, with no
    # probe per step. Capped, the identity is cut into intervals that each
    # map onto themselves, and every one but the last probes one start.
    pi = list(range(100))
    pi[:60] = pi[30:60] + pi[:30]
    t = from_permutation(pi)
    capped = length_cap(t, 1)
    for u in (t, capped):
        stats = _exp_walk(u, u.cursor_of(99), 300)
        assert (stats.total_probes, stats.max_probes) == (0, 0)
    assert capped.cursor_of(60)[0] < len(capped) - 1
    stats = _exp_walk(capped, capped.cursor_of(60), 300)
    assert (stats.total_probes, stats.max_probes) == (300, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32))
def test_exponential_walk_equals_chained_moves(n, seed):
    rng = random.Random(seed)
    pi = random_runny_permutation(rng, n, rng.randint(1, max(1, n // 3)))
    t = from_permutation(pi)
    splits = [t, balance(t, 2)]
    splits += [length_cap(t, c) for c in (Fraction(1, 2), 1, 8)]
    for split in splits:
        for u in (split, split.to_relative()):
            for i in range(n):
                cur = u.cursor_of(i)
                res = u.move(cur, EXP)
                assert (*res.cursor, res.fast_forwards, res.probes) == doubling_search(u, cur)
            start = u.cursor_of(rng.randrange(n))
            for steps in (0, 1, rng.randrange(2 * n + 2)):
                stats = _exp_walk(u, start, steps)
                if u.cap_len:
                    assert stats.max_probes <= 2 * math.log2(u.cap_len) + 4


def _long_run_text() -> bytes:
    """Its uncapped LF has a query that skips 82 intervals, and FL one
    that skips 76."""
    rng = random.Random(2)
    return b"".join(rng.choice([b"abaab", b"abba", b"ba"]) for _ in range(300))


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_walks_grow_their_fast_forward_counts(monkeypatch, block):
    # Uncapped tables whose walks skip more boundaries in one query than a
    # walk's counts start with, so the kernels grow them, mid-block or
    # across block seams. Every walk's stats still equal those of the same
    # queries made one move at a time, with the histogram in ascending order.
    monkeypatch.setattr(traversal, "_BLOCK", block)
    slots = traversal._FF_SLOTS
    adv = from_permutation(adversarial_permutation(2000, 100))
    text = _long_run_text()
    rl, sa = build_bwt(text)
    lf = build_lf(rl)
    assert lf.cap_len == 0
    for t in (adv, adv.to_relative(), lf, lf.to_relative()):
        start = t.cursor_of(max(
            range(t.n), key=lambda i: t.move(t.cursor_of(i)).fast_forwards))
        assert t.move(start).fast_forwards > slots
        for steps in (0, 1, 400, t.n):
            for config in (QueryConfig(), EXP):
                end, stats = traverse_counted(t, start, steps, config)
                assert (end, vars(stats)) == _moved_stats(t, start, steps, config)
                assert list(stats.histogram) == sorted(stats.histogram)

    fl = inverse(lf)
    out = io.BytesIO()
    stats = invert_bwt(fl, out)
    assert out.getvalue() == text + b"\x00"
    assert stats.max_fast_forwards > slots
    assert vars(stats) == _moved_stats(fl, (0, 0), rl.n)[1]
    assert list(stats.histogram) == sorted(stats.histogram)

    # The SA walk chains any phi-inverse table of one cycle from n - 1. In
    # the adversarial shape, [0, 1000) maps onto [1000, 2000), and 1000 + b
    # back onto 21b + 7 mod 1000, a map of full period, so the walk writes
    # every position and one interval's image holds 1,000 starts.
    perm = list(range(1000, 2000)) + [(21 * b + 7) % 1000 for b in range(1000)]
    pi = from_permutation(perm).replace(kind="phi_inv")
    values = [pi.n - 1]
    while len(values) < pi.n:
        values.append(perm[values[-1]])
    assert sorted(values) == list(range(pi.n))
    out = io.BytesIO()
    stats = enumerate_sa(pi, out)
    assert u64s(out) == values
    assert stats.max_fast_forwards > slots
    assert vars(stats) == _moved_stats(pi, pi.cursor_of(pi.n - 1), pi.n)[1]
    assert list(stats.histogram) == sorted(stats.histogram)


def _profile_by_moves(table):
    """vars() of the stats of one IntervalTable.move from every position,
    summed one query at a time."""
    ffs, probes = Counter(), []
    for i in range(table.n):
        res = table.move(table.cursor_of(i))
        ffs[res.fast_forwards] += 1
        probes.append(res.probes)
    return {
        "steps": table.n, "total_fast_forwards": sum(f * c for f, c in ffs.items()),
        "max_fast_forwards": max(ffs), "histogram": dict(sorted(ffs.items())),
        "total_probes": sum(probes), "max_probes": max(probes),
    }


def _cycles(table) -> int:
    pi = table_to_permutation(table)
    seen, count = set(), 0
    for i in range(table.n):
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = pi[i]
    return count


def test_cycle_profile_equals_the_moves_from_every_position():
    # Random runny permutations, most of several cycles, so no walk covers
    # them; uncapped, capped, balanced and relative. The profile is the sum
    # over every position whatever the cycles, with its histogram ascending,
    # and its maximum is the oracle's worst query.
    rng = random.Random(3001)
    several = 0
    for _ in range(150):
        n = rng.randint(1, 300)
        t = from_permutation(random_runny_permutation(rng, n, rng.randint(1, max(1, n // 3))))
        several += _cycles(t) > 1
        for u in (t, length_cap(t, Fraction(1, 2)), length_cap(t, 1),
                  length_cap(t, 8).to_relative(), balance(t, 2),
                  balance(length_cap(t, 1), 3)):
            stats = cycle_profile(u)
            assert vars(stats) == _profile_by_moves(u)
            assert list(stats.histogram) == sorted(stats.histogram)
            assert stats.max_fast_forwards == max_fast_forwards(u)
    assert several > 100
    # An image that covers every start of the other half: one interval's
    # positions skip 0 to 99 boundaries.
    adv = from_permutation(adversarial_permutation(2000, 100))
    for u in (adv, length_cap(adv, 1), balance(adv, 2)):
        assert vars(cycle_profile(u)) == _profile_by_moves(u)
    assert cycle_profile(adv).max_fast_forwards == 99


_TEXTS = st.one_of(
    st.binary(min_size=1, max_size=200).map(lambda b: b.replace(b"\0", b"a")),
    st.lists(st.sampled_from([b"a", b"b", b"ab", b"ba", b"abb", b"abab"]),
             min_size=1, max_size=120).map(b"".join),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_TEXTS, st.sampled_from([None, Fraction(1, 2), Fraction(2)]))
def test_cycle_profile_of_text_tables(text, cap):
    # LF, FL, phi and phi-inverse of a text, each one cycle: the profile is
    # the summed moves from every position and the stats of a full walk.
    rl, _sa = build_bwt(text)
    lf = build_lf(rl)
    phi = build_phi_via_lf(rl)
    for t in (lf, inverse(lf), phi, inverse(phi)):
        if cap is not None:
            t = length_cap(t, cap)
        stats = cycle_profile(t)
        assert vars(stats) == _profile_by_moves(t)
        assert stats == traverse_counted(t, t.cursor_of(rl.n // 2), rl.n)[1]


def test_streaming_walk_stats_equal_traverse_counted():
    # Each streaming walk reports the profile of its table, which is the
    # stats of a linear walk of n steps from its own start.
    rng = random.Random(3002)
    for text in [random_text(rng, 2, 400) for _ in range(5)] + [
            repetitive_text(rng, copies=6, seed_len=40, mutations=2)]:
        rl, _sa = build_bwt(text)
        n = rl.n
        fl = length_cap(inverse(build_lf(rl)), 1)
        assert invert_bwt(fl, io.BytesIO()) == traverse_counted(
            fl, fl.move((0, 0)).cursor, n)[1]
        pi = balance(build_phi_via_lf(rl, inverse=True), 2)
        assert enumerate_sa(pi, io.BytesIO()) == traverse_counted(
            pi, pi.cursor_of(n - 1), n)[1]
        bounds = DocBounds([0] + sorted(rng.sample(range(1, n), min(3, n - 1))))
        cut = cut_at_documents(pi, DocBounds(sorted({*bounds.starts, n - 1})))
        assert enumerate_da(pi, io.BytesIO(), bounds) == traverse_counted(
            cut, cut.cursor_of(n - 1), n)[1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), skewed=st.booleans(),
       block=st.sampled_from([1, 3, 1 << 16]))
def test_da_walk_is_refused_exactly_when_phi_inverse_is_not_one_cycle(
    seed, skewed, block
):
    # Runny permutations relabelled phi-inverse, with random document bounds:
    # skewed ones, mostly of many cycles, and ones of a few runs, often of
    # one. The DA walk meets n - 1 again at the length of its cycle.
    rng = random.Random(seed)
    if skewed:
        perm = skewed_runny_permutation(rng)
    else:
        perm = random_runny_permutation(rng, rng.randint(1, 60), rng.randint(1, 4))
    table = from_permutation(perm).replace(kind="phi_inv")
    n = table.n
    bounds = DocBounds(sorted({0, *rng.sample(range(n), min(n, rng.randint(0, 5)))}))
    length, p = 1, perm[n - 1]
    while p != n - 1:
        length, p = length + 1, perm[p]
    out = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traversal, "_BLOCK", block)
        if _cycles(table) > 1:
            with pytest.raises(InvalidInputError) as info:
                enumerate_da(table, out, bounds)
            assert str(info.value) == (f"SA value {n - 1} again at position "
                                       f"{length}; phi-inverse is not one cycle")
        else:
            enumerate_da(table, out, bounds)
            sa = io.BytesIO()
            enumerate_sa(table, sa)
            assert u64s(out) == [doc_of(bounds, v) for v in u64s(sa)]

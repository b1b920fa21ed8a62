"""RLBWT construction and the LF/FL and predecessor/successor-permutation
builders, checked against the brute-force oracles."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestruct import rlbwt
from movestruct import (
    DocBounds,
    FormatError,
    InvalidInputError,
    MoveCursor,
    Rlbwt,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    collect_sa_samples,
    inverse,
    load_rlbwt,
    recover_text,
    rlbwt_from_text,
    rlbwt_to_text,
    sample_docs,
    save_rlbwt,
    table_to_permutation,
)
from movestruct.oracle import (
    MAX_ORACLE_N,
    build_phi_sorted,
    naive_bwt,
    naive_fl,
    naive_lf,
    naive_phi,
    naive_sa,
)
from support import random_text, repetitive_text

ABAABA_SA = [6, 5, 2, 3, 0, 4, 1]
ABAABA_BWT = b"abba\x00aa"
ABAABA_LF = [1, 5, 6, 2, 0, 3, 4]


def test_build_bwt_abaaba():
    rl, sa = build_bwt(b"abaaba")
    assert sa == ABAABA_SA
    assert rl.expand() == ABAABA_BWT
    assert rl.runs == [(97, 1), (98, 2), (97, 1), (0, 1), (97, 2)]
    assert rl.r == 5
    assert rl.sigma == 3


def test_build_bwt_small_cases():
    rl, sa = build_bwt(b"a")
    assert sa == [1, 0]
    assert rl.expand() == b"a\x00"
    rl, sa = build_bwt(b"aaaa")
    text = b"aaaa\x00"
    assert sa == naive_sa(text)
    assert rl.expand() == bytes(text[i - 1] for i in sa)
    assert rl.r <= 3


def test_build_bwt_errors():
    with pytest.raises(InvalidInputError):
        build_bwt(b"")
    with pytest.raises(InvalidInputError):
        build_bwt(b"ab\x00ab")


def _fibonacci_word(k: int) -> bytes:
    a, b = b"b", b"a"
    for _ in range(k):
        a, b = b, b + a
    return b


def _random_over(sigma: int, n: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randint(1, sigma) for _ in range(n))


# name -> (text, least number of SA-IS levels it must reach: 1 means no
# recursion, 3 means the reduced string is itself reduced again).
SUFFIX_SORT_CASES = {
    "fibonacci-10": (_fibonacci_word(10), 3),
    "fibonacci-15": (_fibonacci_word(15), 3),
    "ab-times-200": (b"ab" * 200, 2),
    "a-times-300": (b"a" * 300, 1),
    "abc-times-100-then-b": (b"abc" * 100 + b"b", 2),
    "random-sigma-1": (_random_over(1, 257, 1), 1),
    "random-sigma-2": (_random_over(2, 600, 2), 2),
    "random-sigma-4": (_random_over(4, 600, 4), 2),
    "bytes-1-to-255": (bytes(range(1, 256)) * 4, 2),
    "random-bytes-with-ff": (_random_over(255, 500, 5) + b"\xff" * 9, 1),
    "repetitive": (repetitive_text(random.Random(1), 8, 64, 2), 3),
}


@pytest.mark.parametrize("case", sorted(SUFFIX_SORT_CASES))
def test_suffix_sort_matches_naive(case, monkeypatch):
    text, least_levels = SUFFIX_SORT_CASES[case]
    # Each level recurses at most once, so the calls count the levels; the
    # check keeps each case covering the levels it was chosen for.
    levels = []
    sort = rlbwt._suffix_array

    def counted(s, sigma=256):
        levels.append(len(s))
        return sort(s, sigma)

    monkeypatch.setattr(rlbwt, "_suffix_array", counted)
    rl, sa = build_bwt(text)
    s = text + b"\x00"
    assert sa == naive_sa(s)
    assert rl.expand() == naive_bwt(s, sa)
    assert len(levels) >= least_levels


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_suffix_sort_matches_naive_hypothesis(data):
    alphabets = [b"a", b"ab", b"abcd", bytes(range(1, 256))]
    symbols = st.sampled_from(data.draw(st.sampled_from(alphabets)))
    text = bytes(data.draw(st.lists(symbols, min_size=1, max_size=300)))
    assert build_bwt(text)[1] == naive_sa(text + b"\x00")


def test_build_bwt_at_roadmap_scale():
    # n = 200,001, the ROADMAP corpus. The oracle checks are O(n): the LF
    # chain from row 0 visits SA values n - 1, n - 2, ..., 0, and inverting
    # the BWT gives back the text, so the BWT and the SA are both the text's.
    text = repetitive_text(random.Random(3), 100, 2000, 20)
    rl, sa = build_bwt(text)
    assert rl.n == 200_001 <= MAX_ORACLE_N
    lf = naive_lf(rl.expand())
    expected = [0] * rl.n
    row = 0
    for v in range(rl.n - 1, -1, -1):
        expected[row] = v
        row = lf[row]
    assert sa == expected
    assert recover_text(build_lf(rl)) == text + b"\x00"


def test_rlbwt_validation():
    with pytest.raises(InvalidInputError):
        Rlbwt.from_runs([])
    with pytest.raises(InvalidInputError):
        Rlbwt.from_runs([(97, 2), (97, 1), (0, 1)])  # adjacent same symbol
    with pytest.raises(InvalidInputError):
        Rlbwt.from_runs([(97, 3)])  # no sentinel
    with pytest.raises(InvalidInputError):
        Rlbwt.from_runs([(0, 2), (97, 1)])  # two sentinels
    with pytest.raises(InvalidInputError):
        Rlbwt.from_runs([(97, 0), (0, 1)])  # empty run


def test_build_lf_abaaba():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    lf.validate()
    assert table_to_permutation(lf) == ABAABA_LF
    assert table_to_permutation(lf) == naive_lf(ABAABA_BWT)
    assert lf.extras["sym"] == [97, 98, 97, 0, 97]
    assert len(lf) <= rl.r


def test_build_fl_inverse_of_lf():
    rl, _ = build_bwt(b"abaaba")
    fl = inverse(build_lf(rl))
    fl.validate()
    assert table_to_permutation(fl) == naive_fl(ABAABA_BWT)
    lf_perm = table_to_permutation(build_lf(rl))
    fl_perm = table_to_permutation(fl)
    assert all(fl_perm[lf_perm[i]] == i for i in range(rl.n))


def test_build_lf_unary_single_cycle():
    rl, _ = build_bwt(b"aaa")
    lf = build_lf(rl)
    cur = MoveCursor(0, 0)
    seen = set()
    for _ in range(rl.n):
        seen.add(cur)
        cur = lf.move(cur).cursor
    assert cur == MoveCursor(0, 0) and len(seen) == rl.n


def test_phi_abaaba():
    rl, sa = build_bwt(b"abaaba")
    expected = naive_phi(sa)
    assert expected == [3, 4, 5, 2, 0, 6, 1]
    phi, samples = build_phi_via_lf(rl)
    phi.validate()
    assert table_to_permutation(phi) == expected
    assert len(phi) <= rl.r
    # Samples hold the SA value at each run head and tail.
    starts = rl.run_starts()
    for k, (sym, length) in enumerate(rl.runs):
        assert samples.head_sa[k] == sa[starts[k]]
        assert samples.tail_sa[k] == sa[starts[k] + length - 1]


def test_phi_inverse_composition():
    rl, sa = build_bwt(b"abaaba")
    phi = table_to_permutation(build_phi_via_lf(rl)[0])
    phi_inv = table_to_permutation(inverse(build_phi_via_lf(rl)[0]))
    assert all(phi_inv[phi[x]] == x for x in range(rl.n))
    assert phi_inv == naive_phi(sa, inverse=True)


def test_phi_sorted_matches_traversal_builder():
    rl, _ = build_bwt(b"abaaba")
    phi = build_phi_via_lf(rl)[0]
    assert table_to_permutation(phi) == table_to_permutation(build_phi_sorted(rl))
    assert table_to_permutation(inverse(phi)) == table_to_permutation(
        build_phi_sorted(rl, inverse=True)
    )


def test_phi_unary():
    rl, sa = build_bwt(b"aaaa")
    assert table_to_permutation(build_phi_sorted(rl)) == naive_phi(sa)


def test_builders_random_sweep():
    rng = random.Random(99)
    for _ in range(50):
        text = random_text(rng, 2, 2000)
        rl, sa = build_bwt(text)
        bwt = rl.expand()
        assert sa == naive_sa(text + b"\x00")
        assert table_to_permutation(build_lf(rl)) == naive_lf(bwt)
        assert table_to_permutation(inverse(build_lf(rl))) == naive_fl(bwt)
        phi = build_phi_via_lf(rl)[0]
        for inv, table in ((False, phi), (True, inverse(phi))):
            srt = table_to_permutation(build_phi_sorted(rl, inv))
            assert table_to_permutation(table) == srt == naive_phi(sa, inv)


def test_collect_sa_samples_standalone():
    rl, sa = build_bwt(b"abaaba")
    samples = collect_sa_samples(rl)
    starts = rl.run_starts()
    assert samples.head_sa == [sa[s] for s in starts]


def test_doc_bounds():
    b = DocBounds([0, 3])
    assert b.d == 2
    assert b.doc_of(2) == 0
    assert b.doc_of(3) == 1
    assert b.doc_of(6) == 1
    with pytest.raises(InvalidInputError):
        DocBounds([])
    with pytest.raises(InvalidInputError):
        DocBounds([1, 3])
    with pytest.raises(InvalidInputError):
        DocBounds([0, 3, 3])


def test_sample_docs():
    rl, _ = build_bwt(b"abaaba")
    samples = collect_sa_samples(rl)
    single = sample_docs(samples, DocBounds([0]))
    assert set(single.head_doc) == {0} and set(single.tail_doc) == {0}
    two = sample_docs(samples, DocBounds([0, 3]))
    bounds = DocBounds([0, 3])
    assert two.head_doc == [bounds.doc_of(v) for v in samples.head_sa]
    assert all(0 <= d < 2 for d in two.head_doc + two.tail_doc)


def test_rlbwt_binary_round_trip():
    rl, _ = build_bwt(b"abaaba")
    buf = io.BytesIO()
    save_rlbwt(rl, buf)
    buf.seek(0)
    rl2 = load_rlbwt(buf)
    assert rl2.runs == rl.runs and rl2.n == rl.n
    buf2 = io.BytesIO()
    save_rlbwt(rl2, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_rlbwt_binary_errors():
    with pytest.raises(FormatError):
        load_rlbwt(io.BytesIO(b"XXXX" + bytes(20)))
    rl, _ = build_bwt(b"abaaba")
    buf = io.BytesIO()
    save_rlbwt(rl, buf)
    data = bytearray(buf.getvalue())
    data[4] = 99  # unsupported version
    with pytest.raises(FormatError):
        load_rlbwt(io.BytesIO(bytes(data)))


def test_rlbwt_text_round_trip():
    rl, _ = build_bwt(b"abaaba")
    text = rlbwt_to_text(rl)
    assert text.splitlines()[0] == "61 1"
    rl2 = rlbwt_from_text(text)
    assert rl2.runs == rl.runs
    with pytest.raises(FormatError):
        rlbwt_from_text("61 one\n")

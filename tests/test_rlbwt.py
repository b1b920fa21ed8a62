"""RLBWT construction and the LF/FL and predecessor/successor-permutation
builders, checked against the brute-force oracles."""

import io
import random
from fractions import Fraction

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
    SaSamples,
    SplitConfig,
    apply_splits,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    collect_sa_samples,
    inverse,
    load_rlbwt,
    recover_text,
    rlbwt_from_text,
    rlbwt_to_text,
    save_move,
    save_rlbwt,
    table_to_permutation,
)
from movestruct.cli import main
from movestruct.oracle import (
    MAX_ORACLE_N,
    naive_bwt,
    naive_fl,
    naive_lf,
    naive_phi,
    naive_sa,
    sample_docs,
)
from support import random_text, repetitive_text, rlbwt_v1_bytes

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
    # Samples read off the suffix array and samples from one LF traversal
    # give the same tables.
    rl, sa = build_bwt(b"abaaba")
    walked = Rlbwt.from_runs(rl.runs)
    assert walked.samples is None
    for inv in (False, True):
        table, samples = build_phi_via_lf(rl, inverse=inv)
        from_walk, walk_samples = build_phi_via_lf(walked, inverse=inv)
        assert walk_samples == samples == rl.samples
        assert vars(from_walk) == vars(table)
        assert table_to_permutation(table) == naive_phi(sa, inv)


def test_phi_unary():
    rl, sa = build_bwt(b"aaaa")
    assert table_to_permutation(build_phi_via_lf(rl)[0]) == naive_phi(sa)


def test_builders_random_sweep():
    rng = random.Random(99)
    for _ in range(50):
        text = random_text(rng, 2, 2000)
        rl, sa = build_bwt(text)
        bwt = rl.expand()
        assert sa == naive_sa(text + b"\x00")
        assert table_to_permutation(build_lf(rl)) == naive_lf(bwt)
        assert table_to_permutation(inverse(build_lf(rl))) == naive_fl(bwt)
        walked = Rlbwt.from_runs(rl.runs)
        for inv in (False, True):
            expected = naive_phi(sa, inv)
            for source in (rl, walked):
                table = build_phi_via_lf(source, inverse=inv)[0]
                assert table_to_permutation(table) == expected


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    repetitive=st.booleans(),
)
def test_phi_from_samples_matches_naive_hypothesis(seed, repetitive):
    """Phi and phi-inverse from the samples of build_bwt, of an .rl v2 file
    and of an LF walk all evaluate to the oracle's, and phi-inverse is
    inverse(phi) field for field."""
    rng = random.Random(seed)
    if repetitive:
        text = repetitive_text(rng, rng.randint(2, 6), rng.randint(4, 60), rng.randint(0, 3))
    else:
        text = random_text(rng, 1, 300)
    rl, _ = build_bwt(text)
    sa = naive_sa(text + b"\x00")
    buf = io.BytesIO()
    save_rlbwt(rl, buf)
    buf.seek(0)
    from_file = load_rlbwt(buf)
    walked = Rlbwt.from_runs(rl.runs)
    assert from_file.samples == rl.samples and walked.samples is None
    for source in (rl, from_file, walked):
        phi, samples = build_phi_via_lf(source)
        phi_inv = build_phi_via_lf(source, inverse=True)[0]
        assert samples == rl.samples
        assert table_to_permutation(phi) == naive_phi(sa)
        assert table_to_permutation(phi_inv) == naive_phi(sa, inverse=True)
        assert vars(phi_inv) == vars(inverse(phi))


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


# The .rl v2 file of abaaba, one section a line: magic and version 2, n = 7
# and r = 5, the five (symbol, length) runs, head_sa = (6, 5, 3, 0, 4),
# tail_sa = (6, 2, 3, 0, 1), and the CRC-32 of all but the magic.
ABAABA_RL_V2 = bytes.fromhex(
    "524c425702"
    "07000000000000000500000000000000"
    "610100000000000000620200000000000000610100000000000000000100000000000000"
    "610200000000000000"
    "06000000000000000500000000000000030000000000000000000000000000000400000000000000"
    "06000000000000000200000000000000030000000000000000000000000000000100000000000000"
    "3fb55f62"
)
# Its version 1 twin: version 1, the same n, r and runs, no samples and no CRC.
ABAABA_RL_V1 = bytes.fromhex(
    "524c425701"
    "07000000000000000500000000000000"
    "610100000000000000620200000000000000610100000000000000000100000000000000"
    "610200000000000000"
)


def test_save_rlbwt_v2_bytes_are_pinned():
    rl, _ = build_bwt(b"abaaba")
    for source in (rl, Rlbwt.from_runs(rl.runs)):  # samples from the SA, from LF
        buf = io.BytesIO()
        save_rlbwt(source, buf)
        assert buf.getvalue() == ABAABA_RL_V2
    loaded = load_rlbwt(io.BytesIO(ABAABA_RL_V2))
    assert loaded.runs == rl.runs
    assert loaded.samples == SaSamples(head_sa=[6, 5, 3, 0, 4], tail_sa=[6, 2, 3, 0, 1])


def test_v1_file_builds_the_move_files_of_its_v2_twin(tmp_path):
    v1 = load_rlbwt(io.BytesIO(ABAABA_RL_V1))
    v2 = load_rlbwt(io.BytesIO(ABAABA_RL_V2))
    assert v1.samples is None and v1 == v2
    assert rlbwt_v1_bytes(v2) == ABAABA_RL_V1
    for inv in (False, True):
        for cfg in (SplitConfig(c=Fraction(0)), SplitConfig(c=Fraction(1), alpha=2)):
            saved = []
            for rl in (v1, v2):
                table = apply_splits(build_phi_via_lf(rl, inverse=inv)[0], cfg)
                buf = io.BytesIO()
                save_move(table.to_relative(), buf)
                saved.append(buf.getvalue())
            assert saved[0] == saved[1]
    # The same through the CLI, with document columns.
    (tmp_path / "docs").write_text("0\n3\n")
    for perm in ("phi", "phi-inv"):
        outputs = []
        for name, raw in (("v1.rl", ABAABA_RL_V1), ("v2.rl", ABAABA_RL_V2)):
            (tmp_path / name).write_bytes(raw)
            out = tmp_path / f"{name}.{perm}.mv"
            argv = ["build", str(tmp_path / name), "--perm", perm, "--cap", "1",
                    "--docs", str(tmp_path / "docs"), "-o", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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

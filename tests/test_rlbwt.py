"""RLBWT construction and the LF/FL and predecessor/successor-permutation
builders, checked against the brute-force oracles."""

import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestruct import rlbwt
from movestruct import (
    DocBounds,
    FormatError,
    InvalidInputError,
    Rlbwt,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    inverse,
    load_rlbwt,
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
)
from support import (
    doc_of,
    random_text,
    recover_text,
    repetitive_text,
    rl_file_bytes,
)

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
    # LMS substrings acba, acb, bc\0 and \0: acb is a proper prefix of acba
    # and must sort after it. One of the texts of the test below, 150 of
    # which get a wrong SA if a prefix sorts first.
    "lms-substring-prefix-of-another": (b"bacbacbc", 1),
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


def test_suffix_sort_matches_naive_on_every_short_text():
    # 19,680 texts; 0x01 and 0xFF complement to the ends of the key range.
    for alphabet in (b"abc", bytes([1, 0x80, 0xFF])):
        for length in range(1, 9):
            for text in map(bytes, itertools.product(alphabet, repeat=length)):
                assert build_bwt(text)[1] == naive_sa(text + b"\x00"), text


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
        Rlbwt([], [], [])
    with pytest.raises(InvalidInputError):
        Rlbwt([(97, 2), (97, 1), (0, 1)], [3, 1, 0], [2, 1, 0])  # adjacent same symbol
    with pytest.raises(InvalidInputError):
        Rlbwt([(97, 3)], [2], [0])  # no sentinel
    with pytest.raises(InvalidInputError):
        Rlbwt([(0, 2), (97, 1)], [2, 0], [1, 0])  # two sentinels
    with pytest.raises(InvalidInputError):
        Rlbwt([(97, 0), (0, 1)], [0, 0], [0, 0])  # empty run
    # The message names the first bad run, which is found only on failure;
    # a run that is both empty and a repeat is reported as bad.
    for runs, message in [
        ([(97, 1), (98, 1), (97, 1), (97, 2), (0, 1)], "adjacent runs 2,3 share"),
        ([(97, 1), (98, 1), (256, 1), (0, 1)], "bad run 2: symbol 256, length 1"),
        ([(97, 1), (98, 1), (98, 0), (0, 1)], "bad run 2: symbol 98, length 0"),
    ]:
        with pytest.raises(InvalidInputError, match=message):
            Rlbwt(runs, [0] * len(runs), [0] * len(runs))


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
    cur = (0, 0)
    seen = set()
    for _ in range(rl.n):
        seen.add(cur)
        cur = lf.move(cur).cursor
    assert cur == (0, 0) and len(seen) == rl.n


def test_phi_abaaba():
    rl, sa = build_bwt(b"abaaba")
    expected = naive_phi(sa)
    assert expected == [3, 4, 5, 2, 0, 6, 1]
    phi = build_phi_via_lf(rl)
    phi.validate()
    assert table_to_permutation(phi) == expected
    assert len(phi) <= rl.r
    # Samples hold the SA value at each run head and tail.
    start = 0
    for k, (sym, length) in enumerate(rl.runs):
        assert rl.head_sa[k] == sa[start]
        assert rl.tail_sa[k] == sa[start + length - 1]
        start += length


def test_phi_inverse_composition():
    rl, sa = build_bwt(b"abaaba")
    phi = table_to_permutation(build_phi_via_lf(rl))
    phi_inv = table_to_permutation(inverse(build_phi_via_lf(rl)))
    assert all(phi_inv[phi[x]] == x for x in range(rl.n))
    assert phi_inv == naive_phi(sa, inverse=True)


def test_phi_sorted_matches_traversal_builder():
    # The tables sorted from the samples evaluate to the phi of the suffix
    # array, which an LF traversal visits in reverse text order.
    rl, sa = build_bwt(b"abaaba")
    lf = table_to_permutation(build_lf(rl))
    walked = [0] * rl.n
    row = 0
    for v in range(rl.n - 1, -1, -1):
        walked[row] = v
        row = lf[row]
    assert walked == sa
    for inv in (False, True):
        table = build_phi_via_lf(rl, inverse=inv)
        assert table_to_permutation(table) == naive_phi(walked, inv)


def test_phi_unary():
    rl, sa = build_bwt(b"aaaa")
    assert table_to_permutation(build_phi_via_lf(rl)) == naive_phi(sa)


def test_builders_random_sweep():
    rng = random.Random(99)
    for _ in range(50):
        text = random_text(rng, 2, 2000)
        rl, sa = build_bwt(text)
        bwt = rl.expand()
        assert sa == naive_sa(text + b"\x00")
        assert table_to_permutation(build_lf(rl)) == naive_lf(bwt)
        assert table_to_permutation(inverse(build_lf(rl))) == naive_fl(bwt)
        for inv in (False, True):
            table = build_phi_via_lf(rl, inverse=inv)
            assert table_to_permutation(table) == naive_phi(sa, inv)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    repetitive=st.booleans(),
)
def test_phi_from_samples_matches_naive_hypothesis(seed, repetitive):
    """Phi and phi-inverse from the samples of build_bwt and of an .rl v2
    file both evaluate to the oracle's, and phi-inverse is inverse(phi)
    field for field."""
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
    assert (from_file.head_sa, from_file.tail_sa) == (rl.head_sa, rl.tail_sa)
    for source in (rl, from_file):
        phi = build_phi_via_lf(source)
        phi_inv = build_phi_via_lf(source, inverse=True)
        assert table_to_permutation(phi) == naive_phi(sa)
        assert table_to_permutation(phi_inv) == naive_phi(sa, inverse=True)
        assert vars(phi_inv) == vars(inverse(phi))


def test_doc_bounds():
    b = DocBounds([0, 3])
    assert len(b.starts) == 2
    assert doc_of(b, 2) == 0
    assert doc_of(b, 3) == 1
    assert doc_of(b, 6) == 1
    with pytest.raises(InvalidInputError):
        DocBounds([])
    with pytest.raises(InvalidInputError):
        DocBounds([1, 3])
    with pytest.raises(InvalidInputError):
        DocBounds([0, 3, 3])


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
# Its version 1 twin, which load_rlbwt refuses: version 1, the same n, r and
# runs, no samples and no CRC.
ABAABA_RL_V1 = bytes.fromhex(
    "524c425701"
    "07000000000000000500000000000000"
    "610100000000000000620200000000000000610100000000000000000100000000000000"
    "610200000000000000"
)


def test_save_rlbwt_v2_bytes_are_pinned():
    rl, _ = build_bwt(b"abaaba")
    buf = io.BytesIO()
    save_rlbwt(rl, buf)
    assert buf.getvalue() == ABAABA_RL_V2
    loaded = load_rlbwt(io.BytesIO(ABAABA_RL_V2))
    assert loaded.runs == rl.runs
    assert loaded.head_sa == [6, 5, 3, 0, 4] and loaded.tail_sa == [6, 2, 3, 0, 1]


def test_v1_file_is_refused(tmp_path, capsys):
    """A v1 file holds no SA samples: it raises FormatError before any field
    is read, and the commands that read it exit 2 with no output."""
    with pytest.raises(FormatError, match="version 1.*build-rlbwt"):
        load_rlbwt(io.BytesIO(ABAABA_RL_V1))
    path = tmp_path / "v1.rl"
    path.write_bytes(ABAABA_RL_V1)
    out = tmp_path / "out"
    for argv in (["build", str(path)], ["invert", str(path)]):
        assert main(argv + ["-o", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "version 1" in err
        assert not out.exists(), argv


ABAABA_RUNS = [(97, 1), (98, 2), (97, 1), (0, 1), (97, 2)]
# Samples for abaaba's runs that the Rlbwt constructor refuses; the true ones
# are head_sa [6, 5, 3, 0, 4] and tail_sa [6, 2, 3, 0, 1]. The first pair
# would make a phi that passes validate() but is not abaaba's; each other
# pair breaks one check alone: row 0 holds SA value n - 1, the sentinel's
# row SA value 0, and a run of one row has one sample.
WRONG_SAMPLES = {
    "another-permutation": ([0, 4, 1, 2, 3], [4, 1, 3, 2, 0]),
    "row-0": ([5, 6, 3, 0, 4], [5, 2, 3, 0, 1]),
    "sentinel": ([6, 5, 3, 1, 4], [6, 2, 3, 1, 0]),
    "one-row-run": ([6, 5, 3, 0, 4], [6, 2, 2, 0, 1]),
}


def test_rl_file_bytes_are_those_of_save_rlbwt():
    rl, _ = build_bwt(b"abaaba")
    assert rl_file_bytes(rl.runs, rl.head_sa, rl.tail_sa) == ABAABA_RL_V2


@pytest.mark.parametrize("case", sorted(WRONG_SAMPLES))
def test_samples_that_are_not_the_runs_are_refused(case, tmp_path, capsys):
    """The Rlbwt constructor refuses samples that disagree with the runs. A
    CRC-valid .rl file that holds them raises FormatError, and building phi
    or phi-inverse from it exits 2 and leaves no output."""
    with pytest.raises(InvalidInputError, match="do not match the runs"):
        Rlbwt(ABAABA_RUNS, *WRONG_SAMPLES[case])
    data = rl_file_bytes(ABAABA_RUNS, *WRONG_SAMPLES[case])
    with pytest.raises(FormatError, match="malformed RLBWT: SA samples do not match"):
        load_rlbwt(io.BytesIO(data))
    path = tmp_path / "bad.rl"
    path.write_bytes(data)
    out = tmp_path / "out"
    for perm in ("phi", "phi-inv"):
        assert main(["build", str(path), "--perm", perm, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out
        assert not out.exists()


# Samples for abaaba's runs of the wrong count or outside [0, n), n = 7.
OUT_OF_SHAPE_SAMPLES = {
    "four-heads": ([6, 5, 3, 0], [6, 2, 3, 0, 1]),
    "six-tails": ([6, 5, 3, 0, 4], [6, 2, 3, 0, 1, 1]),
    "negative": ([6, 5, 3, 0, 4], [6, -2, 3, 0, 1]),
    "n": ([6, 5, 3, 0, 7], [6, 2, 3, 0, 1]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_SHAPE_SAMPLES))
def test_samples_of_the_wrong_count_or_range_are_refused(case):
    with pytest.raises(InvalidInputError, match="SA sample"):
        Rlbwt(ABAABA_RUNS, *OUT_OF_SHAPE_SAMPLES[case])


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

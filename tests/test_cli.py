"""End-to-end command-line workflows on temporary files."""

import io
import itertools
import math
import os
import random
import struct
import subprocess
import sys
import zlib
from fractions import Fraction

import pytest

import movestruct as ms
from movestruct import (
    DocBounds,
    cap_length,
    FormatError,
    InvalidInputError,
    Rlbwt,
    build_lf,
    from_permutation,
    length_cap,
    load_move,
    load_rlbwt,
    save_move,
    table_to_permutation,
    traverse_counted,
)
from movestruct import oracle, rlbwt, splitting
from movestruct.cli import main
from movestruct.core import refine
from movestruct.oracle import max_fast_forwards, naive_bwt, naive_lf, naive_sa
from support import doc_of, rl_file_bytes


@pytest.fixture()
def ws(tmp_path):
    (tmp_path / "text").write_bytes(b"abaaba")
    assert main(["build-rlbwt", str(tmp_path / "text"), "-o", str(tmp_path / "rl")]) == 0
    return tmp_path


def read_values(path):
    raw = path.read_bytes()
    return [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)]


def test_build_rlbwt(ws):
    with open(ws / "rl", "rb") as fp:
        rl = load_rlbwt(fp)
    assert rl.r == 5 and rl.n == 7


def test_build_rlbwt_empty_input(tmp_path, capsys):
    (tmp_path / "empty").write_bytes(b"")
    assert main(["build-rlbwt", str(tmp_path / "empty"), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: empty text\n"
    assert not (tmp_path / "o").exists()


def test_build_rlbwt_refuses_a_text_holding_the_sentinel(tmp_path, capsys):
    # Only a trailing 0x00, an inverted output's sentinel, is dropped.
    (tmp_path / "text").write_bytes(b"a\0b")
    assert main(["build-rlbwt", str(tmp_path / "text"), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: text must not contain the 0x00 sentinel byte\n")
    assert not (tmp_path / "o").exists()


def test_build_defaults_and_inspect(ws, capsys):
    out = ws / "lf.mv"
    assert main(["build", str(ws / "rl"), "-o", str(out)]) == 0
    assert main(["inspect", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=7" in text and "mode=abs" in text and "kind=lf" in text


def test_build_uncapped_keeps_run_count(ws):
    out = ws / "lf0.mv"
    assert main(["build", str(ws / "rl"), "--cap", "0", "-o", str(out)]) == 0
    with open(out, "rb") as fp:
        t = load_move(fp)
    assert len(t) == 5


def test_build_rel_capped_lengths(ws):
    out = ws / "lfrel.mv"
    assert main(
        ["build", str(ws / "rl"), "--cap", "1", "--mode", "rel", "-o", str(out)]
    ) == 0
    with open(out, "rb") as fp:
        t = load_move(fp)
    assert t.mode == "rel"
    assert max(t.lengths) <= t.cap_len


def test_build_fraction_cap(ws):
    out = ws / "half.mv"
    assert main(["build", str(ws / "rl"), "--cap", "1/2", "-o", str(out)]) == 0
    with open(out, "rb") as fp:
        t = load_move(fp)
    assert t.cap_len == 1


def test_invert_round_trip(ws):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "-o", str(out)])
    rec = ws / "rec"
    assert main(["invert", str(out), "-o", str(rec)]) == 0
    assert rec.read_bytes() == b"abaaba\x00"
    # Inverting straight from the RLBWT file works too.
    rec2 = ws / "rec2"
    assert main(["invert", str(ws / "rl"), "-o", str(rec2)]) == 0
    assert rec2.read_bytes() == b"abaaba\x00"


def test_invert_then_rebuild_matches(ws):
    rec = ws / "rec"
    main(["invert", str(ws / "rl"), "-o", str(rec)])
    rl2 = ws / "rl2"
    assert main(["build-rlbwt", str(rec), "-o", str(rl2)]) == 0
    assert rl2.read_bytes() == (ws / "rl").read_bytes()


def test_sa_command(ws):
    out = ws / "pi.mv"
    main(["build", str(ws / "rl"), "--perm", "phi-inv", "-o", str(out)])
    sa_out = ws / "sa"
    assert main(["sa", str(out), "-o", str(sa_out)]) == 0
    assert read_values(sa_out) == naive_sa(b"abaaba\x00")


def test_da_command(ws):
    docs = ws / "docs"
    docs.write_text("0\n3\n")
    out = ws / "pi.mv"
    main(
        ["build", str(ws / "rl"), "--perm", "phi-inv", "--docs", str(docs),
         "-o", str(out)]
    )
    da_out = ws / "da"
    assert main(["da", str(out), "--docs", str(docs), "-o", str(da_out)]) == 0
    assert read_values(da_out) == [1, 1, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("perm", ["lf", "fl", "phi"])
def test_sa_da_reject_other_kinds(ws, capsys, perm):
    # SA[0] = n - 1 starts the walk, which only phi-inverse continues.
    table = ws / f"{perm}.mv"
    assert main(["build", str(ws / "rl"), "--perm", perm, "-o", str(table)]) == 0
    docs = ws / "docs"
    docs.write_text("0\n3\n")
    capsys.readouterr()
    for argv in (["sa", str(table)], ["da", str(table), "--docs", str(docs)]):
        out = ws / "out"
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "1/4"])
def test_da_docs_replace_embedded_columns(tmp_path, cap):
    """da --docs B on a file built with --docs A writes B's document array,
    not A's."""
    text = b"abaabaabbaababaab"
    (tmp_path / "text").write_bytes(text)
    rl = tmp_path / "rl"
    assert main(["build-rlbwt", str(tmp_path / "text"), "-o", str(rl)]) == 0
    (tmp_path / "a").write_text("0\n6\n")
    (tmp_path / "b").write_text("0\n3\n9\n12\n")
    pi = tmp_path / "pi.mv"
    assert main(["build", str(rl), "--perm", "phi-inv", "--cap", cap,
                 "--docs", str(tmp_path / "a"), "-o", str(pi)]) == 0
    sa = naive_sa(text + b"\x00")
    for bounds, name in (([0, 6], "a"), ([0, 3, 9, 12], "b")):
        da = tmp_path / "da"
        assert main(["da", str(pi), "--docs", str(tmp_path / name), "-o", str(da)]) == 0
        assert read_values(da) == [doc_of(DocBounds(bounds), v) for v in sa]


def test_da_requires_doc_columns(ws, capsys):
    out = ws / "pi.mv"
    main(["build", str(ws / "rl"), "--perm", "phi-inv", "-o", str(out)])
    capsys.readouterr()
    assert main(["da", str(out), "-o", str(ws / "da")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "document bounds" in err
    assert not (ws / "da").exists()


def test_da_refuses_doc_columns_that_describe_no_bounds(ws, capsys):
    """A file whose doc columns attach_docs would not make, with a valid
    checksum, needs --docs: da without it exits 2 and writes nothing."""
    (ws / "docs").write_text("0\n")
    pi = ws / "pi.mv"
    assert main(["build", str(ws / "rl"), "--perm", "phi-inv", "--docs", str(ws / "docs"),
                 "-o", str(pi)]) == 0
    with open(pi, "rb") as fp:
        table = load_move(fp)
    table.extras["doc"] = [7] * len(table)
    with open(pi, "wb") as fp:
        save_move(table, fp)
    capsys.readouterr()
    out = ws / "da"
    assert main(["da", str(pi), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no document bounds" in err
    assert not out.exists()
    assert main(["da", str(pi), "--docs", str(ws / "docs"), "-o", str(out)]) == 0
    assert read_values(out) == [0] * 7


def test_docs_flag_rejected_for_lf(ws):
    docs = ws / "docs"
    docs.write_text("0\n")
    assert main(
        ["build", str(ws / "rl"), "--perm", "lf", "--docs", str(docs),
         "-o", str(ws / "x.mv")]
    ) == 2


@pytest.mark.parametrize("perm", ["lf", "fl"])
def test_docs_flag_rejected_before_the_rlbwt_is_loaded(ws, capsys, monkeypatch, perm):
    (ws / "docs").write_text("0\n")

    def load_rlbwt(fp):
        raise AssertionError("build loaded the RLBWT before refusing --docs")

    monkeypatch.setattr(rlbwt, "load_rlbwt", load_rlbwt)
    out = ws / "x.mv"
    assert main(["build", str(ws / "rl"), "--perm", perm, "--docs", str(ws / "docs"),
                 "-o", str(out)]) == 2
    assert "--docs only applies to phi/phi-inv tables" in capsys.readouterr().err
    assert not out.exists()


def test_build_all_kinds_verify(ws):
    for kind in ("lf", "fl", "phi", "phi-inv"):
        out = ws / f"{kind}.mv"
        assert main(
            ["build", str(ws / "rl"), "--perm", kind, "--cap", "2",
             "--balance", "2", "-o", str(out)]
        ) == 0
        assert main(["verify", str(out), str(ws / "rl")]) == 0


def test_verify_fails_on_wrong_source(ws, tmp_path, capsys):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "-o", str(out)])
    (tmp_path / "other").write_bytes(b"abcabcab")
    other_rl = tmp_path / "orl"
    main(["build-rlbwt", str(tmp_path / "other"), "-o", str(other_rl)])
    assert main(["verify", str(out), str(other_rl)]) == 1
    assert "FAIL" in capsys.readouterr().out


# The .rl file of a\0a with samples that pass the Rlbwt constructor: its LF
# is the cycle (0 1) and the fixed point 2, so it is the BWT of no text.
NO_TEXT_RL = rl_file_bytes([(97, 1), (0, 1), (97, 1)], [2, 0, 0], [2, 0, 0])


@pytest.mark.parametrize("perm", ["lf", "fl"])
def test_verify_fails_when_lf_is_not_one_cycle(tmp_path, capsys, perm):
    """build stays O(r) and writes the table of an RLBWT of no text, but
    verify fails it before any other check, and invert refuses it."""
    rl, out = tmp_path / "nt.rl", tmp_path / "nt.mv"
    rl.write_bytes(NO_TEXT_RL)
    assert main(["build", str(rl), "--perm", perm, "--cap", "0", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), str(rl)]) == 1
    assert capsys.readouterr().out == "FAIL LF is one cycle\n"
    assert main(["invert", str(rl), "-o", str(tmp_path / "text")]) == 2
    assert not (tmp_path / "text").exists()


def test_verify_catches_samples_that_pass_every_check(tmp_path, capsys):
    """The runs of abab with samples that the constructor accepts and that
    make a phi-inverse passing validate(), but not abab's: verify fails it
    against the oracle."""
    rl, out = tmp_path / "abab.rl", tmp_path / "pi.mv"
    rl.write_bytes(rl_file_bytes([(98, 2), (0, 1), (97, 2)], [4, 0, 1], [3, 0, 4]))
    assert main(["build", str(rl), "--perm", "phi-inv", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), str(rl)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["PASS LF is one cycle", "FAIL evaluation equals oracle"]


def test_sa_refuses_a_phi_inverse_that_is_not_one_cycle(tmp_path, capsys):
    """The same file's phi-inverse fixes n - 1 = 4, so the SA walk meets it
    again at its first step: sa fails and leaves no file."""
    rl, out = tmp_path / "abab.rl", tmp_path / "pi.mv"
    rl.write_bytes(rl_file_bytes([(98, 2), (0, 1), (97, 2)], [4, 0, 1], [3, 0, 4]))
    assert main(["build", str(rl), "--perm", "phi-inv", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["sa", str(out), "-o", str(tmp_path / "sa.u64")]) == 2
    assert "SA value 4 again at position 1" in capsys.readouterr().err
    assert not (tmp_path / "sa.u64").exists()


def test_da_refuses_a_phi_inverse_that_is_not_one_cycle(tmp_path, capsys):
    """The same phi-inverse under documents: da meets n - 1 = 4 again at its
    first step, with bounds 0 and 2 from --docs and from columns built for
    bounds 0 and 3 (0 and 2 split the interval [0, 3), whose columns da
    refuses before it walks), and fails with no file."""
    rl = tmp_path / "abab.rl"
    rl.write_bytes(rl_file_bytes([(98, 2), (0, 1), (97, 2)], [4, 0, 1], [3, 0, 4]))
    docs, docs3 = tmp_path / "docs", tmp_path / "docs3"
    docs.write_text("0\n2\n")
    docs3.write_text("0\n3\n")
    pi, pi_docs = tmp_path / "pi.mv", tmp_path / "pi_docs.mv"
    assert main(["build", str(rl), "--perm", "phi-inv", "-o", str(pi)]) == 0
    assert main(["build", str(rl), "--perm", "phi-inv", "--docs", str(docs3),
                 "-o", str(pi_docs)]) == 0
    capsys.readouterr()
    out = tmp_path / "da.u64"
    for args in ([str(pi), "--docs", str(docs)], [str(pi_docs)]):
        assert main(["da", *args, "-o", str(out)]) == 2
        assert "SA value 4 again at position 1" in capsys.readouterr().err
        assert not out.exists()


def test_verify_refuses_a_generic_table(ws, capsys):
    """verify has an oracle for the RLBWT permutations only."""
    out = ws / "generic.mv"
    with open(out, "wb") as fp:
        save_move(from_permutation([3, 4, 5, 6, 0, 1, 2]), fp)
    assert main(["verify", str(out), str(ws / "rl")]) == 2
    assert "cannot verify tables of kind 'generic'" in capsys.readouterr().err


def test_verify_refuses_a_domain_beyond_the_oracle(tmp_path, capsys, monkeypatch):
    """The runs of a^m$ for m = MAX_ORACLE_N, written with that text's SA
    samples, so that no suffix sort is needed: build writes the LF table in
    O(r), and verify refuses n = m + 1 with exit 2 before it expands the
    BWT for the oracle."""
    m = oracle.MAX_ORACLE_N
    rl, out = tmp_path / "a.rl", tmp_path / "a.mv"
    rl.write_bytes(rl_file_bytes([(97, m), (0, 1)], [m, 0], [1, 0]))
    assert main(["build", str(rl), "--cap", "0", "-o", str(out)]) == 0

    def expand(self):
        raise AssertionError("verify expanded the BWT")

    monkeypatch.setattr(rlbwt.Rlbwt, "expand", expand)
    capsys.readouterr()
    assert main(["verify", str(out), str(rl)]) == 2
    assert f"verify is limited to n <= {m}" in capsys.readouterr().err


def test_cap_with_a_zero_denominator_is_a_usage_error(ws, capsys):
    out = ws / "x.mv"
    with pytest.raises(SystemExit) as e:
        main(["build", str(ws / "rl"), "--cap", "1/0", "-o", str(out)])
    assert e.value.code == 2
    assert "bad cap factor '1/0'" in capsys.readouterr().err
    assert not out.exists()


# The BWT of the 400-piece text of the CI's console-script steps has
# n = 1471 and r = 317.
PIECES_N, PIECES_R = 1471, 317


@pytest.fixture(scope="module")
def pieces(tmp_path_factory):
    root = tmp_path_factory.mktemp("pieces")
    rng = random.Random(1)
    (root / "text").write_bytes(
        b"".join(rng.choice([b"abaab", b"abba", b"ba"]) for _ in range(400)))
    assert main(["build-rlbwt", str(root / "text"), "-o", str(root / "rl")]) == 0
    with open(root / "rl", "rb") as fp:
        rl = load_rlbwt(fp)
    assert (rl.n, rl.r) == (PIECES_N, PIECES_R)
    return root


def _set_u64(path, at, value):
    """Overwrite the u64 header field at byte `at` of a .mv file and redo its
    CRC-32, so that the file loads."""
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, at, value)
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[4:-4]))
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("perm", ["lf", "fl", "phi", "phi-inv"])
def test_verify_checks_L_and_the_interval_count(pieces, capsys, perm):
    """Every file that build writes passes every bound check, each printed
    with its value and its limit. When capped, the total fast forwards of
    one query from every position is at most n(c+1). The interval bound is
    that of the paper:
    r intervals, plus floor(n/L) when capped, and then ceil(R/(alpha-1)) of
    the bound R so far when balanced."""
    n, r = PIECES_N, PIECES_R
    out = pieces / f"{perm}.mv"
    for cap, alpha in itertools.product(("0", "1/2", "1", "2", "8"), (0, 2, 3, 4)):
        assert main(["build", str(pieces / "rl"), "--perm", perm, "--cap", cap,
                     "--balance", str(alpha), "-o", str(out)]) == 0
        with open(out, "rb") as fp:
            t = load_move(fp)
        r_prime, ff = len(t), max_fast_forwards(t)
        capsys.readouterr()
        assert main(["verify", str(out), str(pieces / "rl")]) == 0
        lines = capsys.readouterr().out.splitlines()
        limit = r
        if cap != "0":
            L = cap_length(n, r, Fraction(cap))
            assert t.cap_len == L
            assert f"PASS max interval length {t.max_len} <= L {L}" in lines
            assert f"PASS per-query fast forwards {ff} <= L {L}" in lines
            # Every kind that build writes is one cycle, so the closed-form
            # total is that of a walk of n steps.
            _end, walked = traverse_counted(t, (0, 0), n)
            bound = math.floor(n * (Fraction(cap) + 1))
            assert (f"PASS total fast forwards {walked.total_fast_forwards} "
                    f"<= n*(c+1) {bound}") in lines
            limit += n // L
        else:
            assert not any(line.startswith(("PASS L ", "FAIL L ", "PASS total"))
                           for line in lines)
        if alpha:
            assert f"PASS per-query fast forwards {ff} < 2*alpha {2 * alpha}" in lines
            limit += -(-limit // (alpha - 1))
        assert lines[-1] == f"PASS intervals {r_prime} <= {limit}"


@pytest.mark.parametrize("cap, at, value, code, failed, err", [
    # source_runs lowered by one: the uncapped table has one interval too many.
    ("0", 55, PIECES_R - 1, 1, ["FAIL intervals 317 <= 316"], ""),
    # L raised to n: not the L of n, r and c = 1, so the file does not load.
    ("1", 23, PIECES_N, 2, [], f"header L {PIECES_N} is not 5, the L that n, r and c give"),
], ids=["source_runs", "L"])
def test_verify_fails_a_header_that_lies(pieces, capsys, cap, at, value, code, failed, err):
    """Header fields rewritten with the CRC-32 redone. A lowered source_runs
    loads, and verify fails it on the interval count alone; an L that n, r
    and c do not give is refused at load, and verify exits 2."""
    out = pieces / "lie.mv"
    assert main(["build", str(pieces / "rl"), "--cap", cap, "-o", str(out)]) == 0
    _set_u64(out, at, value)
    capsys.readouterr()
    assert main(["verify", str(out), str(pieces / "rl")]) == code
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line.startswith("FAIL")] == failed
    assert err in captured.err


def test_verify_fails_a_cap_that_the_table_does_not_keep(pieces, capsys):
    """An uncapped LF file whose header claims c = 1 and the L that follows
    from it, under a redone CRC-32: the header's L is right, but its longest
    interval is longer, so load refuses the file and verify exits 2 with
    nothing on stdout."""
    out = pieces / "claim.mv"
    assert main(["build", str(pieces / "rl"), "--cap", "0", "-o", str(out)]) == 0
    with open(out, "rb") as fp:
        t = load_move(fp)
    L = cap_length(PIECES_N, PIECES_R, Fraction(1))
    assert t.max_len > L
    for at, value in ((23, L), (31, 1), (39, 1)):  # L, then c = 1/1
        _set_u64(out, at, value)
    capsys.readouterr()
    assert main(["verify", str(out), str(pieces / "rl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"interval length {t.max_len} exceeds header L {L}" in captured.err


def test_bounds_fail_a_cap_that_the_table_does_not_keep(pieces):
    """The same uncapped LF table labelled c = 1 in memory, where no load
    refuses it: bounds fails the length, the per-query and the amortized
    total rows, the total being that of a walk over the whole cycle."""
    with open(pieces / "rl", "rb") as fp:
        t = build_lf(load_rlbwt(fp))
    claim = t.replace(cap=Fraction(1))
    L = claim.cap_len
    total = traverse_counted(t, (0, 0), PIECES_N)[1].total_fast_forwards
    assert total > 2 * PIECES_N
    assert [line for line, _value, _limit, holds in splitting.bounds(claim) if not holds] == [
        f"max interval length {t.max_len} <= L {L}",
        f"per-query fast forwards {max_fast_forwards(t)} <= L {L}",
        f"total fast forwards {total} <= n*(c+1) {2 * PIECES_N}",
    ]


def test_verify_refuses_a_capped_file_of_no_runs(pieces, capsys):
    """A source_runs field of 0 under a redone CRC-32: no L follows from it,
    so load refuses the file, and verify reports an error in place of
    dividing by zero."""
    out = pieces / "norun.mv"
    assert main(["build", str(pieces / "rl"), "--cap", "1", "-o", str(out)]) == 0
    _set_u64(out, 55, 0)
    capsys.readouterr()
    assert main(["verify", str(out), str(pieces / "rl")]) == 2
    assert "run count r must be >= 1, got 0" in capsys.readouterr().err


def test_verify_fails_one_split_beyond_the_bound(pieces, capsys):
    """An uncapped LF file with one interval split in two: the permutation
    and every other check stay right, and the count exceeds r by one."""
    out = pieces / "split.mv"
    assert main(["build", str(pieces / "rl"), "--cap", "0", "-o", str(out)]) == 0
    with open(out, "rb") as fp:
        t = load_move(fp)
    j = t.lengths.index(max(t.lengths))
    with open(out, "wb") as fp:
        save_move(refine(t, [t.starts[j] + 1]), fp)
    capsys.readouterr()
    assert main(["verify", str(out), str(pieces / "rl")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "PASS evaluation equals oracle" in lines
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL intervals {PIECES_R + 1} <= {PIECES_R}"]


def test_verify_fails_a_profile_that_the_oracle_contradicts(pieces, capsys, monkeypatch):
    """The bound lines read the closed-form profile's worst case; verify
    cross-checks it against the oracle's and fails the file when they
    differ, here through an oracle that is off by one."""
    out = pieces / "cross.mv"
    assert main(["build", str(pieces / "rl"), "--cap", "1", "-o", str(out)]) == 0
    with open(out, "rb") as fp:
        ff = max_fast_forwards(load_move(fp))
    monkeypatch.setattr(oracle, "max_fast_forwards", lambda t: max_fast_forwards(t) + 1)
    capsys.readouterr()
    assert main(["verify", str(out), str(pieces / "rl")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"PASS per-query fast forwards {ff} <= L 5" in lines
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL profile max fast forwards {ff} == oracle {ff + 1}"]


def test_an_alpha_of_1_is_refused(pieces, capsys):
    """No builder writes alpha = 1, since balance needs alpha >= 2. A header
    that claims it under a redone CRC-32 would skip the 2*alpha check, so
    load_move, inspect and verify refuse it."""
    out = pieces / "alpha1.mv"
    assert main(["build", str(pieces / "rl"), "--cap", "1", "-o", str(out)]) == 0
    _set_u64(out, 47, 1)
    with open(out, "rb") as fp, pytest.raises(FormatError, match="alpha 1"):
        load_move(fp)
    capsys.readouterr()
    assert main(["inspect", str(out)]) == 2
    assert main(["verify", str(out), str(pieces / "rl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("alpha 1") == 2


def test_verify_detects_corruption(ws):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "-o", str(out)])
    data = bytearray(out.read_bytes())
    data[-16] ^= 0x01  # inside the payload: padding spans at most 7 bytes
    out.write_bytes(bytes(data))
    assert main(["verify", str(out), str(ws / "rl")]) == 2


def test_bench_csv(ws, capsys):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "-o", str(out)])
    assert main(["bench", str(out), "--steps", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2] == "steps,ns_per_query,total_ff,max_ff,total_probes,max_probes"
    fields = lines[-1].split(",")
    assert fields[0] == "100"
    float(fields[1])
    # A linear query probes one length more than it fast-forwards.
    assert int(fields[4]) == 100 + int(fields[2])
    assert int(fields[5]) == int(fields[3]) + 1


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_bench_rejects_steps_below_one(ws, capsys, steps):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "-o", str(out)])
    capsys.readouterr()
    assert main(["bench", str(out), "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--steps" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("search", ["linear", "exp"])
def test_bench_rejects_steps_past_maxsize(ws, capsys, search):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "-o", str(out)])
    capsys.readouterr()
    steps = str(sys.maxsize + 1)
    assert main(["bench", str(out), "--steps", steps, "--search", search]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "steps" in captured.err
    assert captured.out == ""


def test_bench_exponential_on_relative(ws, capsys):
    """Exponential search reads the starts, which a relative table derives
    from its lengths: it counts the same fast forwards as on the absolute
    file."""
    counts = []
    for mode in ("abs", "rel"):
        out = ws / f"{mode}.mv"
        assert main(["build", str(ws / "rl"), "--cap", "0", "--mode", mode,
                     "-o", str(out)]) == 0
        for search in ("linear", "exp"):
            capsys.readouterr()
            assert main(["bench", str(out), "--steps", "10", "--search", search]) == 0
            fields = capsys.readouterr().out.strip().splitlines()[-1].split(",")
            counts.append((search, fields[2], fields[3]))
    assert counts[:2] == counts[2:]


def test_build_is_deterministic(ws):
    a, b = ws / "a.mv", ws / "b.mv"
    args = ["build", str(ws / "rl"), "--cap", "2", "--balance", "2", "--mode", "rel"]
    main(args + ["-o", str(a)])
    main(args + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_main_runs_the_command_that_the_module_holds_now(ws, monkeypatch):
    """The parser is built once per process and main looks up cmd_<command>
    on every call, so a command replaced after the first call is the one
    that runs, as the benchmark's tracer needs."""
    from movestruct import cli

    phi_inv = ws / "phi_inv.mv"
    assert main(["build", str(ws / "rl"), "--perm", "phi-inv", "-o", str(phi_inv)]) == 0
    assert main(["sa", str(phi_inv), "-o", str(ws / "sa.u64")]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_sa", lambda args: calls.append(args.input) or 0)
    assert main(["sa", str(phi_inv), "-o", str(ws / "spied.u64")]) == 0
    assert calls == [str(phi_inv)]
    assert (ws / "sa.u64").exists() and not (ws / "spied.u64").exists()
    assert cli.build_parser() is cli.build_parser()


def test_a_build_leaves_no_option_to_the_next(ws):
    """After a phi-inverse build with docs, cap 1 and relative mode, a plain
    build in the same process writes the bytes of LF at cap 8 in absolute
    mode, with no doc columns."""
    (ws / "docs").write_text("0\n3\n")
    first, plain = ws / "first.mv", ws / "plain.mv"
    assert main(["build", str(ws / "rl"), "--perm", "phi-inv", "--docs", str(ws / "docs"),
                 "--cap", "1", "--mode", "rel", "-o", str(first)]) == 0
    with open(first, "rb") as fp:
        t = load_move(fp)
    assert (t.kind, t.mode, t.cap, "doc" in t.extras) == ("phi_inv", "rel", 1, True)
    assert main(["build", str(ws / "rl"), "-o", str(plain)]) == 0
    with open(ws / "rl", "rb") as fp:
        table = length_cap(build_lf(load_rlbwt(fp)), 8)
    buf = io.BytesIO()
    save_move(table, buf)
    assert plain.read_bytes() == buf.getvalue()


def test_loaded_table_evaluates(ws):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "--cap", "1", "-o", str(out)])
    with open(out, "rb") as fp:
        t = load_move(fp)
    from movestruct.oracle import naive_lf

    assert table_to_permutation(t) == naive_lf(b"abba\x00aa")


def test_sa_values_fit_u64(ws):
    out = ws / "pi.mv"
    main(["build", str(ws / "rl"), "--perm", "phi-inv", "-o", str(out)])
    sa_out = ws / "sa"
    main(["sa", str(out), "-o", str(sa_out)])
    raw = sa_out.read_bytes()
    assert len(raw) == 7 * 8
    struct.unpack("<7Q", raw)


def test_missing_input_file(tmp_path, capsys):
    assert main(["invert", str(tmp_path / "absent.mv"), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_document_bounds_line(ws, capsys):
    docs = ws / "docs"
    docs.write_text("0\nthree\n")
    argv = ["build", str(ws / "rl"), "--perm", "phi-inv", "--docs", str(docs),
            "-o", str(ws / "pi.mv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("last", ["18", "40"])
def test_document_bounds_past_the_text(tmp_path, capsys, last):
    """A document that starts at or past n is refused by build and da alike,
    and neither leaves an output file."""
    (tmp_path / "text").write_bytes(b"abaabaabbaababaab")  # n = 18 with the sentinel
    rl = tmp_path / "rl"
    assert main(["build-rlbwt", str(tmp_path / "text"), "-o", str(rl)]) == 0
    pi = tmp_path / "pi.mv"
    assert main(["build", str(rl), "--perm", "phi-inv", "-o", str(pi)]) == 0
    docs = tmp_path / "docs"
    docs.write_text(f"0\n5\n{last}\n")
    capsys.readouterr()
    for argv in (["build", str(rl), "--perm", "phi-inv", "--docs", str(docs)],
                 ["da", str(pi), "--docs", str(docs)]):
        out = tmp_path / "out"
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
    docs.write_text("0\n5\n17\n")  # the sentinel's position is the last below n
    assert main(["da", str(pi), "--docs", str(docs), "-o", str(tmp_path / "da")]) == 0


@pytest.mark.parametrize("mode", ["abs", "rel"])
def test_invert_round_trip_fl(ws, mode):
    out = ws / "fl.mv"
    assert main(["build", str(ws / "rl"), "--perm", "fl", "--mode", mode,
                 "-o", str(out)]) == 0
    rec = ws / "rec"
    assert main(["invert", str(out), "-o", str(rec)]) == 0
    assert rec.read_bytes() == b"abaaba\x00"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_invert_to_a_pipe_is_refused_before_it_writes(ws, capsys):
    # Inversion writes back to front, so it needs an output that can seek.
    lf = ws / "lf.mv"
    assert main(["build", str(ws / "rl"), "-o", str(lf)]) == 0
    capsys.readouterr()
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader:
        with os.fdopen(w, "wb"):
            assert main(["invert", str(lf), "-o", f"/dev/fd/{w}"]) == 2
        assert reader.read() == b""
    assert "seekable" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_to_the_file_of_stdout_is_refused(ws):
    """`-o /dev/stdout > file` opens the file afresh at offset 0, so a
    command wrote its output and then its stats line over the start of it.
    Every command that writes and then prints exits 2 in its own process,
    names stdout, and leaves the file with no stats line."""
    assert main(["build", str(ws / "rl"), "-o", str(ws / "lf.mv")]) == 0
    assert main(["build", str(ws / "rl"), "--perm", "phi-inv", "-o", str(ws / "pi.mv")]) == 0
    src = os.path.dirname(os.path.dirname(ms.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    for argv in (["invert", "lf.mv"], ["sa", "pi.mv"], ["build", "rl"],
                 ["build-rlbwt", "text"]):
        out = ws / "out.txt"
        with open(out, "wb") as fp:
            proc = subprocess.run(
                [sys.executable, "-m", "movestruct.cli", *argv, "-o", "/dev/stdout"],
                cwd=ws, env=env, stdout=fp, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 2, argv
        assert b"is the file of stdout" in proc.stderr
        assert out.read_bytes() == b""


def test_invert_refuses_an_fl_whose_row_0_interval_is_not_the_sentinel(tmp_path, capsys):
    # Two cycles of two rows each and no sentinel: invert exited 0 and
    # wrote "aaaa" before it checked sym[0].
    bad = tmp_path / "bad.mv"
    with open(bad, "wb") as fp:
        save_move(from_permutation([1, 0, 3, 2]).replace(
            kind="fl", extras={"sym": [97] * 4}), fp)
    out = tmp_path / "out"
    assert main(["invert", str(bad), "-o", str(out)]) == 2
    assert "not the sentinel" in capsys.readouterr().err
    assert not out.exists()


def _one_sentinel_strings(longest: int):
    """Every string of 1 to longest bytes over {0x00, a, b} with exactly one
    0x00 byte."""
    for size in range(1, longest + 1):
        for rest in itertools.product(b"ab", repeat=size - 1):
            for i in range(size):
                yield bytes(rest[:i]) + b"\x00" + bytes(rest[i:])


def _lf_is_one_cycle(bwt: bytes) -> bool:
    lf = naive_lf(bwt)
    row, steps = lf[0], 1
    while row != 0:
        row, steps = lf[row], steps + 1
    return steps == len(bwt)


def _placeholder_samples(runs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """SA samples n - 1 for run 0 and 0 for every other run. They pass the
    Rlbwt constructor's checks unless the sentinel's run comes first and
    n > 1; only the phi builders read them, and for r >= 3 they repeat a
    start."""
    head = [sum(l for _, l in runs) - 1] + [0] * (len(runs) - 1)
    return head, list(head)


def _save_with_placeholder_samples(runs: list[tuple[int, int]], path) -> None:
    """Write runs as an .rl v2 file with _placeholder_samples, byte by byte,
    so that the file exists even where the constructor refuses them."""
    path.write_bytes(rl_file_bytes(runs, *_placeholder_samples(runs)))


def test_rlbwt_of_no_text_is_rejected(tmp_path, capsys):
    """A BWT whose LF is not one cycle is the BWT of no text: inverting its
    .rl file or its LF table, and building phi or phi-inverse from the file,
    exit 2 with an error, and a valid one inverts to its text. Where the
    sentinel's run comes first, the constructor refuses the samples, so no
    LF table is built."""
    bad = good = sentinel_first = 0
    for bwt in _one_sentinel_strings(6):
        runs = [(c, len(list(g))) for c, g in itertools.groupby(bwt)]
        path = tmp_path / "in.rl"
        _save_with_placeholder_samples(runs, path)
        out = tmp_path / "out"
        if _lf_is_one_cycle(bwt):
            good += 1
            assert main(["invert", str(path), "-o", str(out)]) == 0
            text = out.read_bytes()
            assert text.endswith(b"\x00") and naive_bwt(text, naive_sa(text)) == bwt
            continue
        bad += 1
        commands = [
            ["build", str(path), "--perm", "phi"],
            ["build", str(path), "--perm", "phi-inv"],
            ["invert", str(path)],
        ]
        if runs[0][0] == 0:
            sentinel_first += 1
            with pytest.raises(InvalidInputError, match="do not match the runs"):
                Rlbwt(runs, *_placeholder_samples(runs))
        else:
            lf = tmp_path / "lf.mv"
            with open(lf, "wb") as fp:
                save_move(build_lf(Rlbwt(runs, *_placeholder_samples(runs))), fp)
            commands.append(["invert", str(lf)])
        for argv in commands:
            assert main(argv + ["-o", str(out)]) == 2, (bwt, argv)
            assert capsys.readouterr().err.startswith("error:")
    # 63 texts of at most five bytes over {a, b}, one BWT each, out of the
    # 321 strings; the 62 of 2 to 6 bytes that start with the sentinel are
    # the BWT of no text.
    assert (good, bad, sentinel_first) == (63, 258, 62)


def test_failed_commands_leave_no_output(ws, capsys):
    """A command that fails after it has opened its output removes it."""
    # An RLBWT of no text whose early sentinel falls in the second output
    # block of the inversion, so that the first block has been written.
    runs = [(97, 70000), (0, 1), (98, 1)]
    _save_with_placeholder_samples(runs, ws / "early.rl")
    with open(ws / "lf.mv", "wb") as fp:
        save_move(build_lf(Rlbwt(runs, *_placeholder_samples(runs))), fp)
    # Document bounds that an interval of the phi-inverse table spans, so
    # that da needs --docs at that interval.
    (ws / "docs").write_text("0\n4\n")
    pi = ws / "pi.mv"
    assert main(["build", str(ws / "rl"), "--perm", "phi-inv", "--docs", str(ws / "docs"),
                 "-o", str(pi)]) == 0
    capsys.readouterr()
    out = ws / "out"
    for argv in (
        ["invert", str(ws / "lf.mv")],
        ["invert", str(ws / "early.rl")],
        ["da", str(pi)],
    ):
        assert main(argv + ["-o", str(out)]) == 2, argv
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists(), argv


@pytest.mark.parametrize(
    "option", [["--cap", "1e30"], ["--cap", "1e-30"], ["--balance", str(10**23)]]
)
def test_header_field_beyond_u64_is_rejected(ws, capsys, option):
    out = ws / "big.mv"
    assert main(["build", str(ws / "rl"), *option, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "u64" in err
    assert not out.exists()

"""End-to-end command-line workflows on temporary files."""

import struct

import pytest

from movestruct import load_move, load_rlbwt, table_to_permutation
from movestruct.cli import main
from movestruct.oracle import naive_sa


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


def test_build_rlbwt_empty_input(tmp_path):
    (tmp_path / "empty").write_bytes(b"")
    assert main(["build-rlbwt", str(tmp_path / "empty"), "-o", str(tmp_path / "o")]) == 2


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


def test_da_requires_doc_columns(ws):
    out = ws / "pi.mv"
    main(["build", str(ws / "rl"), "--perm", "phi-inv", "-o", str(out)])
    assert main(["da", str(out), "-o", str(ws / "da")]) == 2


def test_docs_flag_rejected_for_lf(ws):
    docs = ws / "docs"
    docs.write_text("0\n")
    assert main(
        ["build", str(ws / "rl"), "--perm", "lf", "--docs", str(docs),
         "-o", str(ws / "x.mv")]
    ) == 2


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
    assert lines[-2] == "steps,ns_per_query,total_ff,max_ff"
    fields = lines[-1].split(",")
    assert fields[0] == "100"
    float(fields[1])


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_bench_rejects_steps_below_one(ws, capsys, steps):
    out = ws / "lf.mv"
    main(["build", str(ws / "rl"), "-o", str(out)])
    capsys.readouterr()
    assert main(["bench", str(out), "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--steps" in captured.err
    assert captured.out == ""


def test_bench_exponential_rejects_relative(ws):
    out = ws / "rel.mv"
    main(["build", str(ws / "rl"), "--mode", "rel", "-o", str(out)])
    assert main(["bench", str(out), "--steps", "10", "--search", "exp"]) == 2
    assert main(["bench", str(out), "--steps", "10"]) == 0


def test_build_is_deterministic(ws):
    a, b = ws / "a.mv", ws / "b.mv"
    args = ["build", str(ws / "rl"), "--cap", "2", "--balance", "2", "--mode", "rel"]
    main(args + ["-o", str(a)])
    main(args + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("mode", ["abs", "rel"])
def test_invert_round_trip_fl(ws, mode):
    out = ws / "fl.mv"
    assert main(["build", str(ws / "rl"), "--perm", "fl", "--mode", mode,
                 "-o", str(out)]) == 0
    rec = ws / "rec"
    assert main(["invert", str(out), "-o", str(rec)]) == 0
    assert rec.read_bytes() == b"abaaba\x00"

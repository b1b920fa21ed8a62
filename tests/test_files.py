"""Move-file serialization: byte-exact round trips and corruption detection."""

import io
import random
import struct
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movestruct as ms
from movestruct import (
    BoundsError,
    DocBounds,
    FormatError,
    IntervalTable,
    InvalidInputError,
    InvalidParameterError,
    InvalidSpecError,
    MoveStructError,
    ValueOverflowError,
    attach_docs,
    balance,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    from_permutation,
    inspect_move,
    inverse,
    invert_bwt,
    length_cap,
    load_move,
    load_rlbwt,
    pack_table,
    save_move,
    save_rlbwt,
    table_to_permutation,
)
from movestruct.cli import main
from movestruct.core import lf_columns
from movestruct.oracle import naive_lf
from movestruct.rlbwt import cut_at_documents
from support import (
    REF_PERM,
    check_min_widths,
    mv_file_bytes,
    random_runny_permutation,
    random_text,
    reference_pack,
    repetitive_text,
    validate_by_sort,
)


def roundtrip(table):
    buf = io.BytesIO()
    save_move(table, buf)
    buf.seek(0)
    loaded = load_move(buf)
    buf2 = io.BytesIO()
    save_move(loaded, buf2)
    assert buf2.getvalue() == buf.getvalue()
    return loaded


def test_round_trip_absolute():
    t = from_permutation(REF_PERM)
    loaded = roundtrip(t)
    assert loaded.mode == ms.ABSOLUTE
    assert loaded.starts == t.starts
    assert loaded.dest_rank == t.dest_rank
    assert loaded.dest_offset == t.dest_offset
    assert table_to_permutation(loaded) == REF_PERM


def test_round_trip_relative_with_metadata():
    t = balance(length_cap(from_permutation(REF_PERM), 1), 2)
    rel = t.to_relative()
    loaded = roundtrip(rel)
    assert loaded.mode == ms.RELATIVE
    assert loaded.starts == roundtrip(t).starts == t.starts
    assert loaded.cap == Fraction(1)
    assert loaded.cap_len == 2
    assert loaded.alpha == 2
    assert table_to_permutation(loaded) == REF_PERM


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32))
def test_modes_and_files_answer_alike(n, seed):
    """Uncapped, capped and balanced tables, in either mode and after a
    save/load round trip, have the same starts and the same answer to every
    query, with linear and with exponential search."""
    rng = random.Random(seed)
    pi = random_runny_permutation(rng, n, rng.randint(1, max(1, n // 3)))
    t = from_permutation(pi)
    exp = ms.QueryConfig(search=ms.EXPONENTIAL)
    for split in (t, length_cap(t, 1), balance(length_cap(t, 1), 2), balance(t, 2)):
        rel = split.to_relative()
        twins = [split, rel, roundtrip(split), roundtrip(rel)]
        assert [v.mode for v in twins] == [ms.ABSOLUTE, ms.RELATIVE] * 2
        for i in range(n):
            cur = split.cursor_of(i)
            lin, gal = split.move(cur), split.move(cur, exp)
            assert split.position_of(lin.cursor) == pi[i]
            assert gal.cursor == lin.cursor
            for v in twins:
                assert v.starts == split.starts
                assert v.cursor_of(i) == cur and v.position_of(cur) == i
                assert (v.move(cur), v.move(cur, exp)) == (lin, gal)


def test_round_trip_extra_columns():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    loaded = roundtrip(lf)
    assert loaded.kind == "lf"
    assert loaded.extras["sym"] == lf.extras["sym"]


def test_minimum_widths():
    rl, _ = build_bwt(b"abaaba")
    m = pack_table(build_lf(rl))
    check_min_widths(m)


def test_checksum_detects_corruption():
    t = from_permutation(REF_PERM)
    buf = io.BytesIO()
    save_move(t, buf)
    data = bytearray(buf.getvalue())
    data[-16] ^= 0x40  # inside the payload
    with pytest.raises(FormatError):
        load_move(io.BytesIO(bytes(data)))


def test_truncation_detected():
    t = from_permutation(REF_PERM)
    buf = io.BytesIO()
    save_move(t, buf)
    with pytest.raises(FormatError):
        load_move(io.BytesIO(buf.getvalue()[:-4]))
    with pytest.raises(FormatError):
        load_move(io.BytesIO(b"NOPE" + bytes(32)))


def _tables_of_every_kind():
    rl, _ = build_bwt(repetitive_text(random.Random(4), 3, 60, 4))
    lf = build_lf(rl)
    for t in (from_permutation(REF_PERM), lf, inverse(lf), build_phi_via_lf(rl),
              build_phi_via_lf(rl, inverse=True)):
        for split in (t, balance(length_cap(t, 1), 2)):
            yield split
            yield split.to_relative()


def test_inspect_reports_space_accounting():
    capped = length_cap(from_permutation(REF_PERM), 1).to_relative()
    info = inspect_move(io.BytesIO(_saved(capped)))
    assert info["n"] == 16
    assert info["r_prime"] == 11
    assert info["mode"] == ms.RELATIVE
    assert info["cap"] == "1/1"
    assert info["cap_len"] == 2
    seen = set()
    for t in _tables_of_every_kind():
        data = _saved(t)
        info = inspect_move(io.BytesIO(data))
        loaded = load_move(io.BytesIO(data))
        cap = f"{loaded.cap.numerator}/{loaded.cap.denominator}" if loaded.cap else "off"
        assert (info["n"], info["r_prime"], info["mode"], info["kind"]) == (
            loaded.n, len(loaded), loaded.mode, loaded.kind)
        assert (info["cap"], info["cap_len"], info["alpha"]) == (
            cap, loaded.cap_len or "off", loaded.alpha or "off")
        widths = dict(info["columns"])
        assert info["row_stride_bits"] == sum(widths.values())
        assert info["payload_bits"] == info["r_prime"] * info["row_stride_bits"]
        assert info["payload_bytes"] == (info["payload_bits"] + 7) // 8
        # the version byte, then the mode and kind tags of the file format
        tags = [4, ("abs", "rel").index(t.mode),
                ("generic", "lf", "fl", "phi", "phi_inv").index(t.kind)]
        assert list(data[4:7]) == tags
        assert (info["version"], info["r"]) == (4, loaded.source_runs)
        # every LF table here has sym, so its file stores no destinations
        assert ("off" in widths, "rank" in widths) == (t.kind != "lf",) * 2
        # the header, the payload and the CRC-32 make up the file
        assert _payload_span(data).stop + 4 == len(data)
        assert "doc_records" not in info
        seen.add((t.kind, t.mode, bool(t.cap)))
    assert len(seen) == 5 * 2 * 2
    # The doc pair is stored as records, outside the columns and the
    # payload: the file is the one without the pair, plus the pair's specs,
    # the record count and the records.
    info = inspect_move(io.BytesIO(PINNED_V4_FILE))
    assert info["columns"] == [("len", 2), ("off", 1), ("rank", 4), ("sym", 3)]
    assert (info["row_stride_bits"], info["payload_bits"], info["payload_bytes"]) == (
        10, 110, 14)
    assert (info["doc_records"], info["doc_record_bytes"]) == (5, 5)
    plain = _saved(IntervalTable(**PINNED_TABLE, source_runs=5))
    specs = len(b"\x03doc\x03\x07docdist\x05")
    assert len(PINNED_V4_FILE) == len(plain) + specs + 4 + 5


def test_round_trip_keeps_every_field():
    """A round trip gives a table equal in every field, source_runs included."""
    for t in _tables_of_every_kind():
        assert vars(roundtrip(t)) == vars(t)


def _lf_tables(text: bytes) -> tuple[bytes, list[IntervalTable]]:
    """The BWT of text, and its LF tables as the builders make them:
    uncapped, capped at c = 1/2, 1 and 8, balanced at alpha = 2 and 8,
    capped at c = 1 then balanced at alpha = 2, and the inverse of that
    table's FL, each in both modes."""
    rl, _ = build_bwt(text)
    lf = build_lf(rl)
    capped_balanced = balance(length_cap(lf, 1), 2)
    splits = [lf, *(length_cap(lf, c) for c in (Fraction(1, 2), 1, 8)),
              *(balance(lf, alpha) for alpha in (2, 8)), capped_balanced,
              inverse(inverse(capped_balanced))]
    return rl.expand(), [t for split in splits for t in (split, split.to_relative())]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**32))
def test_lf_files_store_no_destinations(n, sigma, seed):
    """An LF table of a random text, uncapped, capped, balanced or capped
    then balanced, in either mode, has the destinations that lf_columns
    gives its lengths and symbols. Its file holds no off and no rank
    column, and loads to a table equal in every field whose permutation is
    the text's LF."""
    rng = random.Random(seed)
    text = bytes(rng.choice(b"abcd"[:sigma]) for _ in range(n))
    bwt, tables = _lf_tables(text)
    lf = naive_lf(bwt)
    for t in tables:
        assert lf_columns(t.lengths, t.extras["sym"]) == (t.dest_rank, t.dest_offset)
        data = _saved(t)
        first = "start" if t.mode == ms.ABSOLUTE else "len"
        assert [name for name, _ in inspect_move(io.BytesIO(data))["columns"]] == [
            first, "sym"]
        loaded = load_move(io.BytesIO(data))
        assert vars(loaded) == vars(t)
        assert table_to_permutation(loaded) == lf


@pytest.mark.parametrize("table", [
    from_permutation([1, 0, 2]).replace(kind="lf", extras={"sym": [97, 98, 0]}),
    IntervalTable(3, ms.ABSOLUTE, [0, 3], [1, 1], [0, 0], kind="lf",
                  extras={"sym": [97, 97]}),
], ids=["not-lf", "zero-length"])
def test_lf_tables_whose_destinations_are_not_their_own_are_not_written(table):
    """An LF file with sym stores no destinations, so save_move refuses an
    LF table whose destinations are not lf_columns' of its lengths and
    symbols, or that has a zero length, before it writes a byte. The same
    table of kind generic or fl is stored with its off and rank columns."""
    buf = io.BytesIO()
    with pytest.raises(InvalidInputError, match="not those of its lengths and sym column"):
        save_move(table, buf)
    assert buf.getvalue() == b""
    for kind in ("generic", "fl"):
        other = table.replace(kind=kind)
        data = _saved(other)
        assert [name for name, _ in inspect_move(io.BytesIO(data))["columns"]] == [
            "start", "off", "rank", "sym"]
        if min(table.lengths) > 0:
            assert vars(roundtrip(other)) == vars(other)


def test_doc_pairs_round_trip_through_records():
    """Seeded runny tables with the doc columns of attach_docs or
    cut_at_documents, sym and a 64-bit extra, in both modes, load to tables
    equal in every field, with their columns in the same order; some of
    their documents hold no interval start."""
    rng = random.Random(38)
    empty = 0
    for _ in range(150):
        n = rng.randint(1, 300)
        t = from_permutation(random_runny_permutation(rng, n, rng.randint(1, 40)))
        if rng.random() < 0.5:
            t = length_cap(t, rng.choice([Fraction(1, 2), 1, 8]))
        bounds = DocBounds(sorted([0, *rng.sample(range(1, n), min(n - 1, rng.randint(0, 12)))]))
        for docs in (attach_docs(t, bounds), cut_at_documents(t, bounds)):
            extras = {"sym": [rng.choice(b"\x00ab\xff") for _ in docs.lengths],
                      **docs.extras,
                      "wide": [rng.randrange(2**64) for _ in docs.lengths]}
            docs = docs.replace(extras=extras)
            # docdist first too: the records hold the count, then the end
            swapped = docs.replace(extras={k: extras[k] for k in reversed(extras)})
            for table in (docs, docs.to_relative(), swapped):
                loaded = roundtrip(table)
                assert vars(loaded) == vars(table)
                assert list(loaded.extras) == list(table.extras)
            empty += len(bounds.starts) - len(set(docs.extras["doc"]))
    assert empty > 100


def test_capping_a_loaded_table_again_gives_the_same_table():
    """source_runs survives a save. On the benchmark's text shape (seed 7:
    r = 5,156), re-capping a loaded LF table at c = 1 gives the L and r' of
    the table in memory; a load that took source_runs = r' would give L = 12
    and r' = 13,658 here."""
    rl, _ = build_bwt(repetitive_text(random.Random(7), 100, 1000, 10))
    capped = length_cap(build_lf(rl), 1)
    for t in (capped, capped.to_relative()):
        loaded = roundtrip(t)
        assert loaded.source_runs == rl.r == 5156
        again = length_cap(loaded, 1)
        assert (again.cap_len, len(again)) == (capped.cap_len, len(capped)) == (20, 8999)
        assert vars(again) == vars(length_cap(t, 1))


# (offset, new u64) of a header field: alpha 2 -> 9 on a balanced table, and
# L and source_runs one more than they are.
HEADER_CHANGES = {
    "alpha": (47, lambda old: 9),
    "L": (23, lambda old: old + 1),
    "source_runs": (55, lambda old: old + 1),
}


@pytest.mark.parametrize("field", sorted(HEADER_CHANGES))
def test_changed_header_fields_fail_the_checksum(field, tmp_path, capsys):
    """The CRC-32 covers the header: a v2 file with one header field changed
    raises FormatError, and invert on it exits 2 and writes nothing."""
    rl, _ = build_bwt(repetitive_text(random.Random(4), 3, 60, 4))
    table = balance(length_cap(build_lf(rl), 1), 2)
    assert (table.alpha, table.cap_len, table.source_runs) == (2, 3, rl.r)
    raw = _saved(table)
    at, change = HEADER_CHANGES[field]
    (old,) = struct.unpack_from("<Q", raw, at)
    assert old == {"alpha": 2, "L": 3, "source_runs": rl.r}[field]
    data = raw[:at] + struct.pack("<Q", change(old)) + raw[at + 8 :]
    with pytest.raises(FormatError, match="checksum"):
        load_move(io.BytesIO(data))
    path, out = tmp_path / "bad.mv", tmp_path / "out"
    path.write_bytes(data)
    assert main(["invert", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_round_trip_random_tables():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 1500)
        pi = random_runny_permutation(rng, n, rng.randint(1, 50))
        t = from_permutation(pi)
        for mode_table in (t, t.to_relative()):
            loaded = roundtrip(mode_table)
            assert table_to_permutation(loaded) == pi


def test_alignment_and_trailer():
    data = _saved(from_permutation(REF_PERM))
    # No padding: the payload ends 4 bytes before the end of the file, and
    # those bytes are the CRC-32 of everything after the magic.
    assert _payload_span(data).stop == len(data) - 4
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[4:-4])


# A relative table of 11 rows with cap metadata and a sym column.
PINNED_TABLE = dict(
    n=16,
    mode=ms.RELATIVE,
    lengths=[2, 2, 1, 1, 2, 2, 1, 1, 1, 2, 1],
    dest_rank=[0, 5, 7, 1, 8, 2, 9, 0, 10, 4, 5],
    dest_offset=[1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0],
    cap=Fraction(1),
    cap_len=2,
    alpha=2,
    extras={"sym": [97, 98, 97, 99, 100, 255, 0, 97, 98, 1, 128]},
)
# PINNED_TABLE as version 1 stored it: no source_runs, byte-valued symbols in
# an 8-bit column, zero padding to an 8-byte boundary and an FNV-1a checksum.
PINNED_FILE = bytes.fromhex(
    "52504d5601010010000000000000000b000000000000000200000000000000010000"
    "00000000000100000000000000020000000000000004000000036c656e02036f6666"
    "010472616e6b040373796d08863097582eac31262493fc37010261513151400a1000"
    "0000c89882c78c1daa53"
)


# PINNED_TABLE as version 2 wrote it, with source_runs 5: no padding, the
# source_runs u64 after alpha, the symbol list 00 01 61 62 63 64 80 ff after
# the column specs, a 3-bit sym column of ranks, so a 10-bit stride, and a
# CRC-32 at the end. Version 2 stored doc columns as payload columns.
PINNED_V2_FILE = bytes.fromhex(
    "52504d5602010010000000000000000b000000000000000200000000000000010000"
    "00000000000100000000000000020000000000000005000000000000000400000003"
    "6c656e02036f6666010472616e6b040373796d03080000016162636480ff06b99653"
    "83c24ade4440d18992325ffb6a12"
)


# PINNED_TABLE with the doc columns of documents 0, 3, 9, 14 and 15, as
# version 3 wrote it: the version 2 file with version byte 3, column count
# 6 and the specs of doc and docdist after sym at the widths of the record
# fields (3 and 5 bits), then after the symbol list the record count 5 and one byte a
# record, count | end << 3: 1a 4c 74 00 81 for counts 2, 4, 4, 0, 1 and
# ends 3, 9, 14, 0, 16 (document 3, [14, 15), holds no start), then the
# payload of version 2 and the CRC-32.
PINNED_V3_FILE = bytes.fromhex(
    "52504d5603010010000000000000000b000000000000000200000000000000010000"
    "00000000000100000000000000020000000000000005000000000000000600000003"
    "6c656e02036f6666010472616e6b040373796d0303646f630307646f636469737405"
    "080000016162636480ff050000001a4c74008106b9965383c24ade4440d18992320f"
    "e3a796"
)
# The same table as version 4 writes it. It is not of kind lf, so it keeps
# its off and rank columns: only the version byte and the CRC-32 change.
PINNED_V4_FILE = bytes.fromhex(
    "52504d5604010010000000000000000b000000000000000200000000000000010000"
    "00000000000100000000000000020000000000000005000000000000000600000003"
    "6c656e02036f6666010472616e6b040373796d0303646f630307646f636469737405"
    "080000016162636480ff050000001a4c74008106b9965383c24ade4440d1899232e3"
    "816961"
)
PINNED_DOCS = DocBounds([0, 3, 9, 14, 15])
# The counts and the ends of its records, and their offsets: the 67-byte
# fixed header, 35 bytes of specs, the symbol count and 8 symbols, then the
# record count.
PINNED_RECORDS = ([2, 4, 4, 0, 1], [3, 9, 14, 0, 16])
PINNED_RECORD_SPAN = range(116, 121)


@pytest.mark.parametrize("version, data", [
    (1, PINNED_FILE), (2, PINNED_V2_FILE), (3, PINNED_V3_FILE)], ids=["v1", "v2", "v3"])
def test_old_version_files_are_refused(version, data, tmp_path, capsys):
    """A version 1 file loaded with source_runs = r', so a capped table from
    one re-capped to another L, a version 2 file stored doc columns per
    interval, and a version 3 file stored the destinations of LF tables:
    loading or inspecting any of them raises FormatError that names the
    command which writes a version 4 file, and the CLI exits 2 on it."""
    for read in (load_move, inspect_move):
        with pytest.raises(FormatError,
                           match=f"unsupported .* version {version}.*movestruct build"):
            read(io.BytesIO(data))
    path, out = tmp_path / "old.mv", tmp_path / "out"
    path.write_bytes(data)
    for argv in (["invert", str(path), "-o", str(out)], ["inspect", str(path)]):
        assert main(argv) == 2
        assert "movestruct build" in capsys.readouterr().err
    assert not out.exists()


def test_save_move_v4_bytes_are_pinned():
    table = attach_docs(IntervalTable(**PINNED_TABLE, source_runs=5), PINNED_DOCS)
    assert table.extras["doc"] == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 4]
    assert _saved(table) == PINNED_V4_FILE == mv_file_bytes(table)
    assert PINNED_V4_FILE[:-4] == PINNED_V3_FILE[:4] + b"\x04" + PINNED_V3_FILE[5:-4]
    loaded = load_move(io.BytesIO(PINNED_V4_FILE))
    assert vars(loaded) == vars(table)
    info = inspect_move(io.BytesIO(PINNED_V4_FILE))
    assert (info["version"], info["r"], info["r_prime"]) == (4, 5, 11)
    at = PINNED_RECORD_SPAN
    assert PINNED_V4_FILE[at.start - 4 : at.stop].hex() == "050000001a4c740081"
    assert _payload_span(PINNED_V4_FILE).start == at.stop
    assert PINNED_V4_FILE[at.stop :] == PINNED_V2_FILE[-18:-4] + PINNED_V4_FILE[-4:]


# abaaba's LF table (runs a, bb, a, $, aa) as version 4 writes it: kind 1,
# n = 7, r' = 5, no cap, source_runs 5, then two columns, "start" at 3 bits
# and "sym" at 2, with no "off" and no "rank"; at 79 the symbol count 3 and
# the symbols 00 61 62; the rows (start, sym rank) (0, 1), (1, 2), (3, 1),
# (4, 0), (5, 1) in 5 bits each, 28 2e d2 00; and the CRC-32.
PINNED_LF_FILE = bytes.fromhex(
    "52504d56040001070000000000000005000000000000000000000000000000000000"
    "00000000000100000000000000000000000000000005000000000000000200000005"
    "7374617274030373796d020300006162282ed20035b8afc6"
)


def test_save_move_v4_lf_bytes_are_pinned():
    """An LF file stores its lengths and symbols only; load_move rebuilds
    the destinations. As a generic table, with off and rank, the same
    columns take 13 bytes more: 11 of specs and 2 of payload."""
    _, lf = _lf_abaaba()
    assert (lf.dest_rank, lf.dest_offset) == ([1, 4, 1, 0, 2], [0, 0, 1, 0, 0])
    assert _saved(lf) == PINNED_LF_FILE == mv_file_bytes(lf)
    assert PINNED_LF_FILE[79:88].hex() == "0300006162282ed200"
    assert _payload_span(PINNED_LF_FILE) == range(84, 88)
    assert vars(load_move(io.BytesIO(PINNED_LF_FILE))) == vars(lf)
    assert inspect_move(io.BytesIO(PINNED_LF_FILE))["columns"] == [("start", 3), ("sym", 2)]
    generic = _saved(lf.replace(kind="generic"))
    assert inspect_move(io.BytesIO(generic))["columns"] == [
        ("start", 3), ("off", 1), ("rank", 3), ("sym", 2)]
    assert len(generic) - len(PINNED_LF_FILE) == 13


def _saved(table) -> bytes:
    buf = io.BytesIO()
    save_move(table, buf)
    return buf.getvalue()


def _lf_abaaba():
    rl, _ = build_bwt(b"abaaba")
    return rl, build_lf(rl)


def _fl_with(column: str, value) -> bytes:
    """A checksummed file of abaaba's FL table whose last entry of a core
    column is replaced. An LF file with sym stores no destinations, and
    save_move refuses an LF table whose destinations are not its own; an FL
    file stores both, and a bad one reaches validate()."""
    fl = inverse(_lf_abaaba()[1])
    vals = list(getattr(fl, column))
    vals[-1] = value(fl)
    return _saved(fl.replace(**{column: vals}))


# Header offsets: the magic, then the version, mode and kind bytes at 4, 5
# and 6; n, r', L, the cap numerator and denominator, alpha and source_runs
# as u64 from 7; the u32 column count at 63; the first column's name length
# at 67. The abaaba LF file's first column is "start", so its width byte is
# at 73.
def _lf_with_header(at: int, new: bytes) -> bytes:
    """The abaaba LF file with its header bytes from offset at replaced by
    new, and a new CRC-32, so that the change reaches the header checks."""
    raw = _saved(_lf_abaaba()[1])
    return _with_crc(raw[:at] + new + raw[at + len(new) :])


def _lf_with_row_count(count: int) -> bytes:
    """An LF file whose header declares r' = count."""
    return _lf_with_header(15, struct.pack("<Q", count))


def _rlbwt_bytes() -> bytes:
    rl, _ = _lf_abaaba()
    buf = io.BytesIO()
    save_rlbwt(rl, buf)
    return buf.getvalue()


def _rlbwt_with_run_count(count: int) -> bytes:
    """An .rl file whose header declares r = count; r is the u64 after the
    magic, the version byte and n."""
    raw = _rlbwt_bytes()
    return raw[:13] + struct.pack("<Q", count) + raw[21:]


def _with_crc(data: bytes) -> bytes:
    """data with its last four bytes replaced by the CRC-32 of everything
    between the magic and them, as an .rl v2 file ends."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[4:-4]))


def _rlbwt_with_samples(change) -> bytes:
    """The .rl file of abaaba with its 2r samples, head_sa then tail_sa,
    changed in place by change(values), and a matching CRC."""
    raw = _rlbwt_bytes()
    r = _lf_abaaba()[0].r
    at = len(raw) - 4 - 16 * r
    values = list(struct.unpack(f"<{2 * r}Q", raw[at:-4]))
    change(values)
    return _with_crc(raw[:at] + struct.pack(f"<{2 * r}Q", *values) + raw[-4:])


def _rlbwt_with_crc_flipped() -> bytes:
    raw = _rlbwt_bytes()
    return raw[:-1] + bytes([raw[-1] ^ 1])


def _lf_with_sym_twice() -> bytes:
    """The abaaba LF file with a second "sym" column after the true one, in
    which a and b are swapped. The second column is saved as "zzz" and
    renamed in the header, under a new CRC-32."""
    _, lf = _lf_abaaba()
    swapped = [{97: 98, 98: 97}.get(c, c) for c in lf.extras["sym"]]
    raw = _saved(lf.replace(extras={**lf.extras, "zzz": swapped}))
    return _with_crc(raw.replace(b"\x03zzz", b"\x03sym", 1))


def _lf_with_symbols(symbols: bytes) -> bytes:
    """The abaaba LF file with its symbol list (the u16 count 3, then
    00 61 62, right before the payload) replaced by symbols, under a new
    CRC-32."""
    raw = _saved(_lf_abaaba()[1])
    end = _payload_span(raw).start
    at = end - 5
    assert raw[at:end] == b"\x03\x00\x00ab"
    return _with_crc(raw[:at] + struct.pack("<H", len(symbols)) + symbols + raw[end:])


def _lf_with_destination_columns() -> bytes:
    """abaaba's LF table saved as a generic table, which stores off and
    rank, then tagged kind lf (the kind byte at 6) under a new CRC-32."""
    raw = _saved(_lf_abaaba()[1].replace(kind="generic"))
    return _with_crc(raw[:6] + b"\x01" + raw[7:])


def _rel_lf_with_first_length_0() -> bytes:
    """The relative abaaba LF file with its first length, the low 2 bits of
    the payload, set to 0 under a new CRC-32."""
    raw = _saved(_lf_abaaba()[1].to_relative())
    at = _payload_span(raw).start
    assert raw[at] & 3 == 1
    return _with_crc(raw[:at] + bytes([raw[at] & ~3]) + raw[at + 1 :])


def _pinned_with_records(k: int, count: int, end: int) -> bytes:
    """PINNED_V4_FILE with record k's count and end replaced, at the same
    widths, under a new CRC-32. Document 1 holds the starts 4, 5, 6 and 8,
    and document 4 the start 15 of n = 16."""
    counts, ends = (list(v) for v in PINNED_RECORDS)
    counts[k], ends[k] = count, end
    at = PINNED_RECORD_SPAN
    records = reference_pack([3, 5], [list(row) for row in zip(counts, ends)])
    return _with_crc(PINNED_V4_FILE[: at.start] + records + PINNED_V4_FILE[at.stop :])


MALFORMED = {
    "move-5-bytes": lambda: _saved(_lf_abaaba()[1])[:5],
    "move-30-byte-header": lambda: _saved(_lf_abaaba()[1])[:30],
    "move-no-intervals": lambda: _saved(
        IntervalTable(7, ms.ABSOLUTE, [], [], [], kind="lf")
    ),
    # these two now alter abaaba's FL file, which still stores its destinations
    "lf-rank-beyond-table": lambda: _fl_with("dest_rank", lambda t: len(t) + 3),
    "lf-offset-n": lambda: _fl_with("dest_offset", lambda t: t.n),
    "lf-holds-rank-column": _lf_with_destination_columns,
    "lf-zero-length": _rel_lf_with_first_length_0,
    "rlbwt-20-bytes": lambda: _rlbwt_bytes()[:20],
    "rlbwt-huge-run-count": lambda: _rlbwt_with_run_count(1 << 60),
    "rlbwt-crc-mismatch": _rlbwt_with_crc_flipped,
    "rlbwt-truncated-samples": lambda: _rlbwt_bytes()[:-12],
    "rlbwt-trailing-byte": lambda: _rlbwt_bytes() + b"\x00",
    "rlbwt-sample-n": lambda: _rlbwt_with_samples(lambda v: v.__setitem__(0, 7)),
    # run 1's symbol b (at 21 + 9) becomes a, the symbol of run 0
    "rlbwt-runs-repeat-a-symbol": lambda: _with_crc(
        _rlbwt_bytes()[:30] + b"a" + _rlbwt_bytes()[31:]),
    "move-body-shorter-than-header": lambda: _with_crc(
        _saved(_lf_abaaba()[1])[:30] + bytes(4)),
    "move-huge-row-count": lambda: _lf_with_row_count(1 << 60),
    "move-sym-twice": _lf_with_sym_twice,
    "move-version-2": lambda: _lf_with_header(4, b"\x02"),
    "move-version-5": lambda: _lf_with_header(4, b"\x05"),
    "move-doc-records-truncated": lambda: _with_crc(
        PINNED_V4_FILE[: PINNED_RECORD_SPAN.start + 2] + bytes(4)),
    "move-doc-counts-not-r-prime": lambda: _pinned_with_records(0, 3, 3),
    "move-doc-end-at-a-start": lambda: _pinned_with_records(1, 4, 8),
    "move-doc-end-past-n": lambda: _pinned_with_records(4, 1, 17),
    "move-mode-tag-2": lambda: _lf_with_header(5, b"\x02"),
    "move-kind-tag-5": lambda: _lf_with_header(6, b"\x05"),
    "move-cap-zero-denominator": lambda: _lf_with_header(31, struct.pack("<QQ", 1, 0)),
    "move-width-0": lambda: _lf_with_header(73, b"\x00"),
    "move-width-65": lambda: _lf_with_header(73, bytes([65])),
    "move-name-not-utf8": lambda: _lf_with_header(68, b"\xff"),
    "move-symbols-unsorted": lambda: _lf_with_symbols(b"\x00ba"),
    "move-sym-rank-beyond-symbols": lambda: _lf_with_symbols(b"\x00a"),
}


# The refusal that a CRC-valid case must reach, where no other case does.
MALFORMED_MESSAGES = {
    "rlbwt-runs-repeat-a-symbol": "malformed RLBWT: adjacent runs 0,1 share a symbol",
    "move-body-shorter-than-header": "truncated header",
    "move-version-2": "unsupported .mv file version 2",
    "lf-holds-rank-column": "unexpected core column 'off' in a file of kind lf",
    "lf-zero-length": "a length below 1",
    "move-doc-records-truncated": "truncated doc records",
    "move-doc-counts-not-r-prime": "counts do not sum to r'",
    "move-doc-end-at-a-start": "at or before a start",
    "move-doc-end-past-n": "past n=16",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_raise_format_error(case, tmp_path, capsys):
    data = MALFORMED[case]()
    load = load_rlbwt if case.startswith("rlbwt") else load_move
    with pytest.raises(FormatError, match=MALFORMED_MESSAGES.get(case)):
        load(io.BytesIO(data))
    path = tmp_path / "bad"
    path.write_bytes(data)
    commands = [["invert", str(path)]]
    if case.startswith("rlbwt"):
        commands.append(["build", str(path), "--perm", "phi-inv"])
    for argv in commands:
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")


# Small v2 files: an absolute LF table with a sym column, a capped relative
# table without one, and an .rl file.
CRC_FIRST = {
    "lf-abs-sym": lambda: (load_move, _saved(_lf_abaaba()[1])),
    "capped-rel": lambda: (
        load_move, _saved(length_cap(from_permutation(REF_PERM), 1).to_relative())),
    "rlbwt": lambda: (load_rlbwt, _rlbwt_bytes()),
}


@pytest.mark.parametrize("case", sorted(CRC_FIRST))
def test_checksum_is_checked_before_any_field(case):
    """Every byte after the magic is under the CRC-32, and it is checked
    before any field is read: a flip of any one byte but the version byte
    fails the checksum, a flip of the version byte names the version, and a
    file cut at any length raises FormatError."""
    load, data = CRC_FIRST[case]()
    readers = [load, inspect_move] if load is load_move else [load]
    for at in range(4, len(data)):
        message = "unsupported .* version" if at == 4 else "checksum"
        for flip in (0x01, 0x80, 0xFF):
            bad = bytearray(data)
            bad[at] ^= flip
            for read in readers:
                with pytest.raises(FormatError, match=message):
                    read(io.BytesIO(bytes(bad)))
    for size in range(len(data)):
        for read in readers:
            with pytest.raises(FormatError):
                read(io.BytesIO(data[:size]))


@pytest.mark.parametrize("name", ["off", "x" * 256], ids=["core-name", "256-byte-name"])
def test_bad_column_names_are_refused_before_writing(name):
    """An extra column named like a core column, or with a name longer than
    its length byte holds, raises FormatError before any byte is written."""
    _, lf = _lf_abaaba()
    bad = lf.replace(extras={**lf.extras, name: [0] * len(lf)})
    buf = io.BytesIO()
    with pytest.raises(FormatError, match="clashes" if name == "off" else "too long"):
        save_move(bad, buf)
    assert buf.getvalue() == b""


@pytest.mark.parametrize("alpha, error, message", [
    (1, InvalidParameterError, "alpha 1"),
    (1 << 64, ValueOverflowError, "alpha = 18446744073709551616"),
], ids=["alpha-1", "alpha-beyond-u64"])
def test_header_fields_that_load_move_refuses_are_not_written(alpha, error, message):
    """load_move refuses a header that claims alpha 1, and a u64 cannot hold
    2**64, so save_move raises before it writes any byte."""
    table = from_permutation([3, 4, 5, 6, 0, 1, 2]).replace(alpha=alpha)
    buf = io.BytesIO()
    with pytest.raises(error, match=message):
        save_move(table, buf)
    assert buf.getvalue() == b""


@pytest.mark.parametrize("change, error", [
    ({"extras": {"x": [1.5, 3]}}, InvalidInputError),
    ({"extras": {"x": [1.5, 2.0]}}, InvalidInputError),
    ({"dest_offset": [0.0, 0]}, InvalidInputError),
    ({"extras": {"x": [None, 1]}}, InvalidInputError),
    ({"extras": {"x": [1, -1]}}, ValueOverflowError),
    ({"extras": {"x": [0, 2**64]}}, InvalidSpecError),
    ({"extras": {"x": [1]}}, BoundsError),
], ids=["float-below-max", "float-max", "float-core", "none", "negative",
        "beyond-64-bits", "short"])
def test_column_values_that_do_not_pack_are_not_written(change, error):
    """A column value that is not an integer raises InvalidInputError, not a
    bare TypeError or AttributeError; one below 0 or of 2**64 or more, or a
    column of the wrong length, raises as well. Nothing is written."""
    table = from_permutation([3, 4, 5, 6, 0, 1, 2]).replace(**change)
    buf = io.BytesIO()
    with pytest.raises(error):
        save_move(table, buf)
    assert buf.getvalue() == b""


@pytest.mark.parametrize("column, row, value, message", [
    ("doc", 5, 0, "the doc column decreases"),
    ("docdist", 0, 2, "two intervals of one document name different ends"),
    ("docdist", 10, 0, "at or before its start"),
    ("docdist", 10, 2, "past n=16"),
], ids=["doc-decreases", "ends-differ", "end-at-start", "end-past-n"])
def test_doc_pairs_that_records_do_not_hold_are_not_written(column, row, value, message):
    """A doc pair that attach_docs cannot make, or whose records load_move
    would refuse, raises InvalidInputError before any byte is written; a
    lone doc or docdist column is an ordinary payload column."""
    table = attach_docs(IntervalTable(**PINNED_TABLE, source_runs=5), PINNED_DOCS)
    values = list(table.extras[column])
    values[row] = value
    bad = table.replace(extras={**table.extras, column: values})
    buf = io.BytesIO()
    with pytest.raises(InvalidInputError, match=message):
        save_move(bad, buf)
    assert buf.getvalue() == b""
    lone = table.replace(extras={column: values})
    info = inspect_move(io.BytesIO(_saved(lone)))
    assert info["columns"][-1] == (column, max(values).bit_length())
    assert "doc_records" not in info
    assert vars(roundtrip(lone)) == vars(lone)


def test_inspect_prints_the_doc_records(tmp_path, capsys):
    """inspect prints the record count and bytes of a file with a doc pair,
    and no column line for the pair."""
    path = tmp_path / "docs.mv"
    path.write_bytes(PINNED_V4_FILE)
    assert main(["inspect", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "doc_records=5" in lines and "doc_record_bytes=5" in lines
    assert [x for x in lines if x.startswith("column ")] == [
        "column len width=2", "column off width=1", "column rank width=4",
        "column sym width=3"]


def test_save_move_matches_a_bit_at_a_time_writer():
    """save_move packs each column in one pass. On 300 seeded runny tables in
    both modes, with sym, doc/docdist (as records) and a 64-bit extra
    column, and on the LF tables of 40 seeded texts, which the writer
    stores without off and rank by its own rule, its bytes equal those of a
    writer that packs one bit at a time."""
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(1, 200)
        t = from_permutation(random_runny_permutation(rng, n, rng.randint(1, 40)))
        if rng.random() < 0.5:
            t = length_cap(t, rng.choice([Fraction(1, 2), 1, 8]))
        cuts = rng.sample(range(1, n), min(n - 1, rng.randint(0, 5)))
        t = attach_docs(t, DocBounds(sorted([0, *cuts])))
        wide = [rng.choice([0, 1, 2**63, 2**64 - 1, rng.randrange(2**64)]) for _ in t.lengths]
        sym = [rng.choice(b"\x00ab\xff") for _ in t.lengths]
        t = t.replace(extras={**t.extras, "sym": sym, "wide": wide})
        for table in (t, t.to_relative()):
            assert _saved(table) == mv_file_bytes(table)
    for _ in range(40):
        for table in _lf_tables(random_text(rng, 1, 300))[1]:
            assert _saved(table) == mv_file_bytes(table)


@pytest.mark.parametrize("perm, row, value", [("lf", 1, 300), ("fl", 2, 1000)])
def test_symbol_beyond_a_byte_is_rejected(perm, row, value):
    """Files store symbol ranks, so only a table built in process holds a
    symbol that is not a byte; saving or inverting it raises
    InvalidInputError."""
    _, lf = _lf_abaaba()
    table = lf if perm == "lf" else inverse(lf)
    sym = list(table.extras["sym"])
    for symbol in (value, -1):
        sym[row] = symbol
        bad = table.replace(extras={"sym": sym})
        for write in (save_move, invert_bwt):
            with pytest.raises(InvalidInputError, match="not a byte"):
                write(bad, io.BytesIO())


@pytest.mark.parametrize("which", ["head_sa", "tail_sa"])
def test_samples_that_make_no_permutation_raise(which, tmp_path, capsys):
    """A sample copied onto the next one of its kind loads, but repeats a
    start of one phi table, which makes a zero-length interval, and an image
    of the other."""
    r = _lf_abaaba()[0].r
    first = 0 if which == "head_sa" else r
    data = _rlbwt_with_samples(lambda v: v.__setitem__(first + 1, v[first]))
    rl = load_rlbwt(io.BytesIO(data))
    repeats_start = {"head_sa": False, "tail_sa": True}[which]
    for inv in (False, True):
        match = "zero-length" if inv == repeats_start else "tile"
        with pytest.raises(InvalidInputError, match=match):
            build_phi_via_lf(rl, inverse=inv)
    path = tmp_path / "bad.rl"
    path.write_bytes(data)
    for perm in ("phi", "phi-inv"):
        assert main(["build", str(path), "--perm", perm, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _payload_span(data: bytes) -> range:
    """Offsets of the payload that the header of data declares, read without
    a checksum check; struct.error or IndexError when the header is cut."""
    # magic and tags, seven u64 fields, the column count, then per column a
    # name length, the name and a width, then the symbol list of a sym
    # column, then the record count and the records of a doc pair
    (r_prime,) = struct.unpack_from("<Q", data, 15)
    (ncols,) = struct.unpack_from("<I", data, 63)
    at, widths = 67, {}
    for _ in range(ncols):
        name = bytes(data[at + 1 : at + 1 + data[at]])
        at += 1 + len(name)
        widths[name] = data[at]
        at += 1
    if b"sym" in widths:
        at += 2 + struct.unpack_from("<H", data, at)[0]
    if b"doc" in widths and b"docdist" in widths:
        (count,) = struct.unpack_from("<I", data, at)
        pair = widths.pop(b"doc") + widths.pop(b"docdist")
        at += 4 + (count * pair + 7) // 8
    return range(at, at + (r_prime * sum(widths.values()) + 7) // 8)


def _rechecksummed(data: bytes) -> bytes:
    """data cut after the payload its header declares and given its CRC-32,
    so that a mutation reaches the header checks, the payload decoder and
    validate(); data itself when its header is cut or its payload short."""
    try:
        end = _payload_span(data).stop
    except (struct.error, IndexError):
        return data
    if len(data) < end:
        return data
    return _with_crc(data[:end] + bytes(4))


def _fuzz_bases() -> list[bytes]:
    _, lf = _lf_abaaba()
    rng = random.Random(11)
    perm = from_permutation(random_runny_permutation(rng, 2000, 150))
    capped = balance(length_cap(perm, 1), 2)
    return [
        _saved(lf),
        _saved(lf.to_relative()),
        _saved(perm),
        _saved(capped.to_relative()),
        PINNED_V4_FILE,
    ]


FUZZ_BASES = _fuzz_bases()
# Flips are drawn most often and count back from the end of the file, where
# the payload is: a flip there reaches the payload decoder once the checksum
# is recomputed.
MUTATION = st.tuples(
    st.sampled_from(["flip", "flip", "flip", "truncate", "append"]),
    st.integers(0, 1 << 16),
    st.integers(1, 255),
)


def _mutated(data: bytearray, mutations) -> bytearray:
    for kind, pos, byte in mutations:
        if kind == "flip" and data:
            data[-1 - pos % len(data)] ^= byte
        elif kind == "truncate":
            del data[pos % (len(data) + 1) :]
        elif kind == "append":
            data += bytes([byte]) * (1 + pos % 16)
    return data


@settings(max_examples=400, deadline=None)
@given(
    base=st.integers(0, len(FUZZ_BASES) - 1),
    mutations=st.lists(MUTATION, min_size=1, max_size=4),
    rechecksum=st.booleans(),
)
def test_mutated_files_fail_cleanly(base, mutations, rechecksum):
    """A mutated file either raises FormatError or loads a table that passes
    validate(); no other outcome is allowed. Bytes appended to an intact file
    must raise."""
    original = FUZZ_BASES[base]
    data = bytes(_mutated(bytearray(original), mutations))
    if rechecksum:
        data = _rechecksummed(data)
    appended = len(data) > len(original) and data.startswith(original)
    try:
        table = load_move(io.BytesIO(data))
    except FormatError:
        return
    assert not appended
    table.validate()


def _rlbwt_fuzz_bases() -> list[bytes]:
    rng = random.Random(12)
    out = []
    for text in (b"abaaba", random_text(rng, 50, 200), repetitive_text(rng, 4, 40, 2)):
        buf = io.BytesIO()
        save_rlbwt(build_bwt(text)[0], buf)
        out.append(buf.getvalue())
    return out


RLBWT_FUZZ_BASES = _rlbwt_fuzz_bases()


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(0, len(RLBWT_FUZZ_BASES) - 1),
    mutations=st.lists(MUTATION, min_size=1, max_size=4),
    rechecksum=st.booleans(),
)
def test_mutated_rlbwt_files_fail_cleanly(base, mutations, rechecksum):
    """A mutated .rl file either raises a MoveStructError, when it is loaded
    or phi is built from it, or gives phi and phi-inverse tables that pass
    validate(). With rechecksum, a new CRC lets the mutation reach the
    decoder of the runs and the phi builders."""
    data = bytes(_mutated(bytearray(RLBWT_FUZZ_BASES[base]), mutations))
    if rechecksum and len(data) >= 9:
        data = _with_crc(data)
    try:
        rl = load_rlbwt(io.BytesIO(data))
        tables = [build_phi_via_lf(rl, inverse=inv) for inv in (False, True)]
    except MoveStructError:
        return
    for table in tables:
        table.validate()

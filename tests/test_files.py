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
    cap_length,
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
from movestruct.bitpack import unpack_columns
from movestruct.cli import main
from movestruct.core import lf_order, tile_columns
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
    rl_file_bytes,
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
        tags = [5, ("abs", "rel").index(t.mode),
                ("generic", "lf", "fl", "phi", "phi_inv").index(t.kind)]
        assert list(data[4:7]) == tags
        assert (info["version"], info["r"]) == (5, loaded.source_runs)
        # no file stores a destination; every LF table here has sym, so its
        # file stores no image order either, and every other file does, at
        # the width of r' - 1
        assert "off" not in widths and "rank" not in widths
        assert widths.get("ord") == (None if t.kind == "lf" else max(1, (len(t) - 1).bit_length()))
        # the header, the payload and the CRC-32 make up the file
        assert _payload_span(data).stop + 4 == len(data)
        assert "doc_records" not in info
        seen.add((t.kind, t.mode, bool(t.cap)))
    assert len(seen) == 5 * 2 * 2
    # The doc pair is stored as records, outside the columns and the
    # payload: the file is the one without the pair, plus the pair's specs,
    # the record count and the records.
    info = inspect_move(io.BytesIO(PINNED_V5_FILE))
    assert info["columns"] == [("len", 2), ("ord", 4), ("sym", 3)]
    assert (info["row_stride_bits"], info["payload_bits"], info["payload_bytes"]) == (
        9, 99, 13)
    assert (info["doc_records"], info["doc_record_bytes"]) == (5, 5)
    plain = _saved(IntervalTable(**PINNED_TABLE, source_runs=5))
    specs = len(b"\x03doc\x03\x07docdist\x05")
    assert len(PINNED_V5_FILE) == len(plain) + specs + 4 + 5


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
    then balanced, in either mode, has the destinations that tile_columns
    gives its lengths in the order that lf_order gives its symbols. Its
    file holds no off, rank or ord column, and loads to a table equal in
    every field whose permutation is the text's LF."""
    rng = random.Random(seed)
    text = bytes(rng.choice(b"abcd"[:sigma]) for _ in range(n))
    bwt, tables = _lf_tables(text)
    lf = naive_lf(bwt)
    for t in tables:
        assert tile_columns(t.lengths, lf_order(t.extras["sym"])) == (
            t.dest_rank, t.dest_offset)
        data = _saved(t)
        first = "start" if t.mode == ms.ABSOLUTE else "len"
        assert [name for name, _ in inspect_move(io.BytesIO(data))["columns"]] == [
            first, "sym"]
        loaded = load_move(io.BytesIO(data))
        assert vars(loaded) == vars(t)
        assert table_to_permutation(loaded) == lf


def _lf_sym(lengths, dest_rank, dest_offset):
    """An absolute LF table of these columns, every interval of symbol a."""
    return IntervalTable(sum(lengths), ms.ABSOLUTE, lengths, dest_rank, dest_offset,
                         kind="lf", extras={"sym": [97] * len(lengths)})


@pytest.mark.parametrize("table", [
    from_permutation([1, 0, 2]).replace(kind="lf", extras={"sym": [97, 98, 0]}),
    IntervalTable(3, ms.ABSOLUTE, [0, 3], [1, 1], [0, 0], kind="lf",
                  extras={"sym": [97, 97]}),
    _lf_sym([1, 2], [0, 0], [0, 0]),  # both images at 0
    _lf_sym([1, 2], [2, 0], [0, 0]),  # a rank beyond the table
    _lf_sym([1, 2], [0, 0], [2, 0]),  # image 2 by an offset past interval 0
    _lf_sym([1, 2], [1, 0], [0, 0]).replace(n=5),  # an absolute file would load n = 5
], ids=["not-lf", "zero-length", "images-overlap", "rank-beyond-table",
        "offset-beyond-rank", "lengths-not-n"])
def test_lf_tables_whose_destinations_are_not_their_own_are_not_written(table):
    """No file stores a destination, so save_move refuses, before it writes
    a byte, a table of any kind whose destinations are not tile_columns' of
    its lengths and image order: one with a zero length, one that is not a
    permutation, one whose image is reached by an offset past its rank's
    interval, one whose lengths do not sum to its n, which an absolute file
    would load as another table, and an LF table whose symbols do not give
    its order. That permutation, labelled generic, fl, phi or phi_inv, is
    stored with an ord column and loads to a table equal in every field."""
    for kind in ("generic", "lf", "fl", "phi", "phi_inv"):
        other = table.replace(kind=kind)
        buf = io.BytesIO()
        try:
            validate_by_sort(other)
        except InvalidInputError:
            own = False
        else:
            own = kind != "lf"
        if not own:
            with pytest.raises(InvalidInputError,
                               match="would not rebuild this table"):
                save_move(other, buf)
            assert buf.getvalue() == b""
            continue
        data = _saved(other)
        assert [name for name, _ in inspect_move(io.BytesIO(data))["columns"]] == [
            "start", "ord", "sym"]
        assert vars(roundtrip(other)) == vars(other)


# Every kind of table, and an LF table with sym, whose lengths and image
# order are drawn: tile_columns makes a permutation of any such pair.
TILED = st.lists(st.integers(1, 40), min_size=1, max_size=60).flatmap(
    lambda lengths: st.tuples(
        st.just(lengths),
        st.permutations(range(len(lengths))),
        st.lists(st.integers(0, 255), min_size=len(lengths), max_size=len(lengths)),
        st.sampled_from([ms.ABSOLUTE, ms.RELATIVE]),
    ))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TILED)
def test_tiled_tables_are_permutations(drawn):
    """The proof that lets load_move skip validate(): for any lengths >= 1
    and any permutation order of [0, r'), tile_columns gives a table that
    passes validate() and whose sorted images give back order; for any byte
    symbols, so does lf_order's order. So every file that save_move writes
    of such a table, in either mode and of any kind, loads to a table equal
    in every field, which save_move writes to the same bytes."""
    lengths, order, sym, mode = drawn
    n = sum(lengths)
    table = IntervalTable(n, mode, lengths, *tile_columns(lengths, order))
    table.validate()
    images = table.images()
    assert sorted(range(len(lengths)), key=images.__getitem__) == order
    lf = IntervalTable(n, mode, lengths, *tile_columns(lengths, lf_order(sym)),
                       kind="lf", extras={"sym": sym})
    lf.validate()
    images = lf.images()
    assert sorted(range(len(lengths)), key=images.__getitem__) == lf_order(sym)
    for t in (lf, *(table.replace(kind=kind) for kind in ("generic", "fl", "phi", "phi_inv"))):
        data = _saved(t)
        loaded = load_move(io.BytesIO(data))
        assert vars(loaded) == vars(t)
        assert _saved(loaded) == data


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 300), st.integers(0, 2**32),
       st.sampled_from(["generic", "lf", "fl", "phi", "phi_inv"]),
       st.sampled_from([ms.ABSOLUTE, ms.RELATIVE]),
       st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(8)]),
       st.sampled_from([0, 2]), st.booleans())
def test_built_tables_round_trip(n, seed, kind, mode, c, alpha, docs):
    """A table of each kind built from a random text (generic: a runny
    permutation of its length), capped at c, balanced at alpha, in either
    mode, with or without document columns, loads to a table equal in every
    field, which save_move writes to the same bytes."""
    rng = random.Random(seed)
    text = bytes(rng.choice(b"abc") for _ in range(n - 1))
    rl, _ = build_bwt(text)
    if kind == "generic":
        table = from_permutation(random_runny_permutation(rng, n, rng.randint(1, n)))
    elif kind in ("lf", "fl"):
        table = build_lf(rl) if kind == "lf" else inverse(build_lf(rl))
    else:
        table = build_phi_via_lf(rl, inverse=kind == "phi_inv")
    if c:
        table = length_cap(table, c)
    if alpha:
        table = balance(table, alpha)
    table = table.replace(mode=mode)
    if docs:
        table = attach_docs(table, DocBounds(sorted({0, *rng.sample(range(n), min(n, 4))})))
    data = _saved(table)
    loaded = load_move(io.BytesIO(data))
    assert vars(loaded) == vars(table)
    assert _saved(loaded) == data


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
# its off and rank columns. The version byte, the CRC-32 and the L field at
# 23 change: the L is now the one that c = 1, r = 5 and n = 16 give, 4, where
# the version 3 pin held 2, an L that no builder makes of those fields.
PINNED_V4_FILE = bytes.fromhex(
    "52504d5604010010000000000000000b000000000000000400000000000000010000"
    "00000000000100000000000000020000000000000005000000000000000600000003"
    "6c656e02036f6666010472616e6b040373796d0303646f630307646f636469737405"
    "080000016162636480ff050000001a4c74008106b9965383c24ade4440d189923261"
    "2179c5"
)
# The same table as version 5 writes it: the version 4 file with version
# byte 5, column count 5, and the specs of off and rank replaced by that of
# ord at 4 bits, the intervals by image (7 0 3 5 9 10 1 2 4 6 8); then the
# same symbol list and records, a payload of 9-bit rows (len, ord, sym
# rank) in 13 bytes, and the CRC-32.
PINNED_V5_FILE = bytes.fromhex(
    "52504d5605010010000000000000000b000000000000000400000000000000010000"
    "00000000000100000000000000020000000000000005000000000000000500000003"
    "6c656e02036f7264040373796d0303646f630307646f636469737405080000016162"
    "636480ff050000001a4c7400819e8435aa68567d8144d1b48406d930f13a"
)
PINNED_DOCS = DocBounds([0, 3, 9, 14, 15])
# The counts and the ends of its records, and their offsets in the version
# 5 file: the 67-byte fixed header, 29 bytes of specs, the symbol count and
# 8 symbols, then the record count.
PINNED_RECORDS = ([2, 4, 4, 0, 1], [3, 9, 14, 0, 16])
PINNED_RECORD_SPAN = range(110, 115)


@pytest.mark.parametrize("version, data", [
    (1, PINNED_FILE), (2, PINNED_V2_FILE), (3, PINNED_V3_FILE), (4, PINNED_V4_FILE)],
    ids=["v1", "v2", "v3", "v4"])
def test_old_version_files_are_refused(version, data, tmp_path, capsys):
    """A version 1 file loaded with source_runs = r', so a capped table from
    one re-capped to another L, a version 2 file stored doc columns per
    interval, a version 3 file stored the destinations of LF tables, and a
    version 4 file those of every other kind: loading or inspecting any of
    them raises FormatError that names the command which writes a version 5
    file, and the CLI exits 2 on it."""
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
    """The reference writer still writes version 4, the layout of off and
    rank columns that load_move refuses and criterion 8 measures against."""
    table = attach_docs(IntervalTable(**PINNED_TABLE, source_runs=5), PINNED_DOCS)
    assert table.extras["doc"] == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 4]
    assert mv_file_bytes(table, version=4) == PINNED_V4_FILE
    assert table.cap_len == 4
    assert PINNED_V4_FILE[:-4] == (PINNED_V3_FILE[:4] + b"\x04" + PINNED_V3_FILE[5:23]
                                   + b"\x04" + PINNED_V3_FILE[24:-4])
    # the record count and the records, after 35 bytes of specs
    assert PINNED_V4_FILE[112:121].hex() == "050000001a4c740081"
    assert _payload_span(PINNED_V4_FILE).start == 121
    assert PINNED_V4_FILE[121:] == PINNED_V2_FILE[-18:-4] + PINNED_V4_FILE[-4:]


def test_save_move_v5_bytes_are_pinned():
    """Version 5 stores ord in place of off and rank, and every other byte
    of version 4's header, symbol list and records as they were."""
    table = attach_docs(IntervalTable(**PINNED_TABLE, source_runs=5), PINNED_DOCS)
    assert _saved(table) == PINNED_V5_FILE == mv_file_bytes(table)
    assert PINNED_V5_FILE[:63] == b"RPMV\x05" + PINNED_V4_FILE[5:63]
    assert PINNED_V5_FILE[63:96] == struct.pack("<I", 5) + b"".join(
        bytes([len(name)]) + name + bytes([width]) for name, width in [
            (b"len", 2), (b"ord", 4), (b"sym", 3), (b"doc", 3), (b"docdist", 5)])
    assert PINNED_V5_FILE[96:115] == PINNED_V4_FILE[102:121]
    loaded = load_move(io.BytesIO(PINNED_V5_FILE))
    assert vars(loaded) == vars(table)
    info = inspect_move(io.BytesIO(PINNED_V5_FILE))
    assert (info["version"], info["r"], info["r_prime"]) == (5, 5, 11)
    at = PINNED_RECORD_SPAN
    assert PINNED_V5_FILE[at.start - 4 : at.stop].hex() == "050000001a4c740081"
    assert _payload_span(PINNED_V5_FILE) == range(at.stop, len(PINNED_V5_FILE) - 4)


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
    the destinations. Version 5 writes version 4's bytes but for the version
    byte and the CRC-32. As a generic table, the same columns take 13 bytes
    more in version 4, with off and rank (11 of specs and 2 of payload), and
    6 more in version 5, with ord (5 of specs and 1 of payload)."""
    _, lf = _lf_abaaba()
    assert (lf.dest_rank, lf.dest_offset) == ([1, 4, 1, 0, 2], [0, 0, 1, 0, 0])
    assert mv_file_bytes(lf, version=4) == PINNED_LF_FILE
    assert PINNED_LF_FILE[79:88].hex() == "0300006162282ed200"
    assert _payload_span(PINNED_LF_FILE) == range(84, 88)
    data = _saved(lf)
    assert data == mv_file_bytes(lf) == _with_crc(PINNED_LF_FILE[:4] + b"\x05"
                                                   + PINNED_LF_FILE[5:])
    assert vars(load_move(io.BytesIO(data))) == vars(lf)
    assert inspect_move(io.BytesIO(data))["columns"] == [("start", 3), ("sym", 2)]
    generic = lf.replace(kind="generic")
    assert len(mv_file_bytes(generic, version=4)) - len(PINNED_LF_FILE) == 13
    assert inspect_move(io.BytesIO(_saved(generic)))["columns"] == [
        ("start", 3), ("ord", 3), ("sym", 2)]
    assert len(_saved(generic)) - len(data) == 6


def _saved(table) -> bytes:
    buf = io.BytesIO()
    save_move(table, buf)
    return buf.getvalue()


def _lf_abaaba():
    rl, _ = build_bwt(b"abaaba")
    return rl, build_lf(rl)


def _rel_fl_with(column: str, change) -> bytes:
    """abaaba's relative FL file, whose columns are len (1 1 1 2 2 at 2
    bits), ord (the intervals by image, 1 4 2 0 3 at 3 bits) and sym, with
    one column changed in place by change(values), at the same widths,
    under a new CRC-32. save_move refuses a table whose destinations are not
    those of its lengths and order, so only a changed file holds such a
    column."""
    raw = _saved(inverse(_lf_abaaba()[1]).to_relative())
    at = _payload_span(raw)
    specs = inspect_move(io.BytesIO(raw))["columns"]
    widths = [w for _, w in specs]
    cols = unpack_columns(widths, 5, raw[at.start : at.stop])
    assert cols[:2] == [[1, 1, 1, 2, 2], [1, 4, 2, 0, 3]]
    change(cols[[name for name, _ in specs].index(column)])
    payload = reference_pack(widths, [list(row) for row in zip(*cols)])
    return _with_crc(raw[: at.start] + payload + raw[at.stop :])


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


def _fl_with_column_name_repeated() -> bytes:
    """abaaba's FL file with extra columns xa and xb, the second renamed xa
    in the header, under a new CRC-32."""
    fl = inverse(_lf_abaaba()[1])
    raw = _saved(fl.replace(extras={**fl.extras, "xa": [1] * len(fl), "xb": [2] * len(fl)}))
    assert raw.count(b"\x02xb") == 1
    return _with_crc(raw.replace(b"\x02xb", b"\x02xa"))


def _lf_with_symbols(symbols: bytes) -> bytes:
    """The abaaba LF file with its symbol list (the u16 count 3, then
    00 61 62, right before the payload) replaced by symbols, under a new
    CRC-32."""
    raw = _saved(_lf_abaaba()[1])
    end = _payload_span(raw).start
    at = end - 5
    assert raw[at:end] == b"\x03\x00\x00ab"
    return _with_crc(raw[:at] + struct.pack("<H", len(symbols)) + symbols + raw[end:])


def _lf_with_order_column() -> bytes:
    """abaaba's LF table saved as a generic table, which stores ord, then
    tagged kind lf (the kind byte at 6) under a new CRC-32."""
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
    """PINNED_V5_FILE with record k's count and end replaced, at the same
    widths, under a new CRC-32. Document 1 holds the starts 4, 5, 6 and 8,
    and document 4 the start 15 of n = 16."""
    counts, ends = (list(v) for v in PINNED_RECORDS)
    counts[k], ends[k] = count, end
    at = PINNED_RECORD_SPAN
    records = reference_pack([3, 5], [list(row) for row in zip(counts, ends)])
    return _with_crc(PINNED_V5_FILE[: at.start] + records + PINNED_V5_FILE[at.stop :])


MALFORMED = {
    "move-5-bytes": lambda: _saved(_lf_abaaba()[1])[:5],
    "move-30-byte-header": lambda: _saved(_lf_abaaba()[1])[:30],
    # save_move refuses it, since its lengths do not sum to n
    "move-no-intervals": lambda: mv_file_bytes(
        IntervalTable(7, ms.ABSOLUTE, [], [], [], kind="lf")
    ),
    # an ord value of r' + 2, the others distinct; a value repeated
    "ord-beyond-table": lambda: _rel_fl_with("ord", lambda v: v.__setitem__(-1, 7)),
    "ord-repeated": lambda: _rel_fl_with("ord", lambda v: v.__setitem__(-1, v[0])),
    "lf-holds-ord-column": _lf_with_order_column,
    "lf-zero-length": _rel_lf_with_first_length_0,
    # lengths 0 2 1 2 2, which still sum to n
    "fl-zero-length-sum-n": lambda: _rel_fl_with(
        "len", lambda v: v.__setitem__(slice(0, 2), [0, 2])),
    # the relative FL file of abaaba, uncapped, with n = 8 for lengths of sum 7
    "move-lengths-not-n": lambda: _with_n(_saved(inverse(_lf_abaaba()[1]).to_relative()), 8),
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
    "move-version-6": lambda: _lf_with_header(4, b"\x06"),
    "move-doc-records-truncated": lambda: _with_crc(
        PINNED_V5_FILE[: PINNED_RECORD_SPAN.start + 2] + bytes(4)),
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
    # the uncapped file claims L = 1, where c = 0 gives none
    "move-L-not-derived": lambda: _lf_with_header(23, struct.pack("<Q", 1)),
    # c = 1 over source_runs 0: c_num, c_den, alpha and source_runs from 31
    "move-cap-over-no-runs": lambda: _lf_with_header(31, struct.pack("<4Q", 1, 1, 0, 0)),
    # L = 1 and c = 1/2, the L of n = 7 and r = 5, over intervals of length 2
    "move-interval-longer-than-L": lambda: _lf_with_header(23, struct.pack("<3Q", 1, 1, 2)),
    # a column count of 0, and no specs, symbols or payload after it
    "move-no-columns": lambda: _with_crc(
        _saved(_lf_abaaba()[1])[:63] + struct.pack("<I", 0) + bytes(4)),
    # n = 8, against runs that sum to 7
    "rlbwt-n-not-run-sum": lambda: _with_crc(
        _rlbwt_bytes()[:5] + struct.pack("<Q", 8) + _rlbwt_bytes()[13:]),
    "move-magic-XXXX": lambda: b"XXXX" + _saved(_lf_abaaba()[1])[4:],
    "move-column-name-repeated": _fl_with_column_name_repeated,
    # a body of 6 bytes, version 2 and five zero bytes, too few for n and r
    "rlbwt-6-byte-body": lambda: _with_crc(b"RLBW\x02" + bytes(5) + bytes(4)),
    "rlbwt-no-runs": lambda: rl_file_bytes([], [], []),
}


# The refusal that a CRC-valid case must reach, where no other case does.
MALFORMED_MESSAGES = {
    "rlbwt-runs-repeat-a-symbol": "malformed RLBWT: adjacent runs 0,1 share a symbol",
    "move-body-shorter-than-header": "truncated header",
    "move-version-2": "unsupported .mv file version 2",
    "lf-holds-ord-column": "unexpected core column 'ord' in a file of kind lf",
    "lf-zero-length": "a length below 1",
    "fl-zero-length-sum-n": "a length below 1",
    "move-lengths-not-n": "lengths not summing to n",
    "ord-beyond-table": "ord is not a permutation",
    "ord-repeated": "ord is not a permutation",
    "move-doc-records-truncated": "truncated doc records",
    "move-doc-counts-not-r-prime": "counts do not sum to r'",
    "move-doc-end-at-a-start": "at or before a start",
    "move-doc-end-past-n": "past n=16",
    "move-L-not-derived": "header L 1 is not 0, the L that n, r and c give",
    "move-cap-over-no-runs": "header cap gives no L: run count r must be >= 1, got 0",
    "move-interval-longer-than-L": "interval length 2 exceeds header L 1",
    "move-no-columns": "file lacks core column 'start'",
    "rlbwt-n-not-run-sum": "run lengths do not sum to the declared n",
    "move-magic-XXXX": "not a .mv file",
    "move-column-name-repeated": "a column name is repeated",
    "rlbwt-6-byte-body": "truncated RLBWT header",
    "rlbwt-no-runs": "malformed RLBWT: RLBWT must have at least one run",
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


@pytest.mark.parametrize("name", ["ord", "x" * 256], ids=["core-name", "256-byte-name"])
def test_bad_column_names_are_refused_before_writing(name):
    """An extra column named like a core column, or with a name longer than
    its length byte holds, raises FormatError before any byte is written."""
    _, lf = _lf_abaaba()
    bad = lf.replace(extras={**lf.extras, name: [0] * len(lf)})
    buf = io.BytesIO()
    with pytest.raises(FormatError, match="clashes" if name == "ord" else "too long"):
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


@pytest.mark.parametrize("change, error, message", [
    ({"cap": Fraction(1)}, InvalidInputError, "interval length 11 exceeds the cap's L 4"),
    ({"cap": Fraction(1), "source_runs": 0}, InvalidParameterError, "run count r"),
], ids=["longer-than-L", "no-runs"])
def test_caps_that_load_move_refuses_are_not_written(change, error, message):
    """An uncapped LF table labelled c = 1 keeps intervals longer than its L,
    and a cap over source_runs 0 gives no L; save_move raises on either
    before it writes a byte."""
    lf = build_lf(build_bwt(b"abaababbaab" * 3)[0])
    buf = io.BytesIO()
    with pytest.raises(error, match=message):
        save_move(lf.replace(**change), buf)
    assert buf.getvalue() == b""


def _with_n(data: bytes, n: int) -> bytes:
    """A .mv file with its header n (the u64 at 7) set to n, under a new
    CRC-32."""
    return _with_crc(data[:7] + struct.pack("<Q", n) + data[15:])


def test_a_capped_file_proves_its_n(tmp_path, capsys):
    """The capped (c = 1) absolute LF file of (abaababbaab)^3 with its header
    n raised by 1..3000 under a new CRC-32. Its lengths come from its starts
    and n, so the last interval takes the rise. A rise loads exactly when it
    leaves L = cap_length(n, r, 1) as it is and the last interval no longer
    than L, which here only a rise of 1 does; every other raises
    FormatError, and invert exits 2 on a rise of 1000 and writes nothing."""
    table = length_cap(build_lf(build_bwt(b"abaababbaab" * 3)[0]), 1)
    L, last, n, r = table.cap_len, table.lengths[-1], table.n, table.source_runs
    assert (L, last) == (4, 3)
    data = _saved(table)
    loaded = []
    for rise in range(1, 3001):
        bad = _with_n(data, n + rise)
        if cap_length(n + rise, r, 1) == L and rise <= L - last:
            t = load_move(io.BytesIO(bad))
            assert (t.n, t.max_len) == (n + rise, last + rise)
            loaded.append(rise)
        else:
            with pytest.raises(FormatError, match="header L"):
                load_move(io.BytesIO(bad))
    assert loaded == [1]
    path, out = tmp_path / "raised.mv", tmp_path / "out"
    path.write_bytes(_with_n(data, n + 1000))
    capsys.readouterr()
    assert main(["invert", str(path), "-o", str(out)]) == 2
    assert "header L" in capsys.readouterr().err
    assert not out.exists()


def test_a_document_beyond_a_u32_count_is_not_written():
    """A doc id of 2**32 needs a record count beyond a u32: save_move raises
    ValueOverflowError before it writes a byte, and before it makes a list
    per document."""
    table = from_permutation([3, 4, 5, 6, 0, 1, 2]).replace(
        extras={"doc": [0, 2**32], "docdist": [4, 3]})
    buf = io.BytesIO()
    with pytest.raises(ValueOverflowError, match="u32 record count"):
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
    path.write_bytes(PINNED_V5_FILE)
    assert main(["inspect", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "doc_records=5" in lines and "doc_record_bytes=5" in lines
    assert [x for x in lines if x.startswith("column ")] == [
        "column len width=2", "column ord width=4", "column sym width=3"]


def test_save_move_matches_a_bit_at_a_time_writer():
    """save_move packs each column in one pass. On 300 seeded runny tables in
    both modes, with sym, doc/docdist (as records) and a 64-bit extra
    column, and on the LF tables of 40 seeded texts, which the writer
    stores without ord by its own rule, its bytes equal those of a writer
    that packs one bit at a time and sorts the images for ord."""
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
        PINNED_V5_FILE,
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

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
    FormatError,
    IntervalTable,
    InvalidInputError,
    MoveStructError,
    apply_splits,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    from_permutation,
    inspect_move,
    load_move,
    load_rlbwt,
    pack_table,
    save_move,
    save_rlbwt,
    table_to_permutation,
)
from movestruct.cli import main
from movestruct.files import fnv1a64
from support import REF_PERM, random_runny_permutation, random_text, repetitive_text


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
    t = apply_splits(from_permutation(REF_PERM), ms.SplitConfig(c=Fraction(1), alpha=2))
    rel = t.to_relative()
    loaded = roundtrip(rel)
    assert loaded.mode == ms.RELATIVE
    assert loaded.cap == Fraction(1)
    assert loaded.cap_len == 2
    assert loaded.alpha == 2
    assert table_to_permutation(loaded) == REF_PERM


def test_round_trip_extra_columns():
    rl, _ = build_bwt(b"abaaba")
    lf = build_lf(rl)
    loaded = roundtrip(lf)
    assert loaded.kind == "lf"
    assert loaded.extras["sym"] == lf.extras["sym"]


def test_minimum_widths():
    rl, _ = build_bwt(b"abaaba")
    m = pack_table(build_lf(rl))
    m.check_min_widths()


def test_checksum_detects_corruption():
    t = from_permutation(REF_PERM)
    buf = io.BytesIO()
    save_move(t, buf)
    data = bytearray(buf.getvalue())
    data[-16] ^= 0x40  # inside the payload: padding spans at most 7 bytes
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


def test_inspect_reports_space_accounting():
    t = apply_splits(from_permutation(REF_PERM), ms.SplitConfig(c=Fraction(1)))
    buf = io.BytesIO()
    save_move(t.to_relative(), buf)
    buf.seek(0)
    info = inspect_move(buf)
    assert info["n"] == 16
    assert info["r_prime"] == 11
    assert info["mode"] == ms.RELATIVE
    assert info["cap"] == "1/1"
    assert info["cap_len"] == 2
    widths = dict(info["columns"])
    assert info["row_stride_bits"] == sum(widths.values())
    assert info["payload_bits"] == info["r_prime"] * info["row_stride_bits"]
    assert info["payload_bytes"] == (info["payload_bits"] + 7) // 8


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
    t = from_permutation(REF_PERM)
    buf = io.BytesIO()
    save_move(t, buf)
    # Everything before the 8-byte checksum is padded to an 8-byte boundary.
    assert (len(buf.getvalue()) - 8) % 8 == 0


# A relative table of 11 rows with cap metadata and an 8-bit extra column:
# stride 15 bits, so the payload holds one full 8-row group and a 3-row tail.
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
PINNED_FILE = bytes.fromhex(
    "52504d5601010010000000000000000b000000000000000200000000000000010000"
    "00000000000100000000000000020000000000000004000000036c656e02036f6666"
    "010472616e6b040373796d08863097582eac31262493fc37010261513151400a1000"
    "0000c89882c78c1daa53"
)


def test_save_move_bytes_are_pinned():
    table = IntervalTable(**PINNED_TABLE)
    assert _saved(table) == PINNED_FILE
    loaded = load_move(io.BytesIO(PINNED_FILE))
    for field, value in PINNED_TABLE.items():
        assert getattr(loaded, field) == value, field


def _saved(table) -> bytes:
    buf = io.BytesIO()
    save_move(table, buf)
    return buf.getvalue()


def _lf_abaaba():
    rl, _ = build_bwt(b"abaaba")
    return rl, build_lf(rl)


def _lf_with(column: str, value) -> bytes:
    """A checksummed LF file whose last entry of a core column is replaced."""
    _, lf = _lf_abaaba()
    vals = list(getattr(lf, column))
    vals[-1] = value(lf)
    return _saved(lf.replace(**{column: vals}))


def _lf_with_row_count(count: int) -> bytes:
    """An LF file whose header declares r' = count; r' is the u64 after the
    7 tag bytes and n."""
    raw = _saved(_lf_abaaba()[1])
    return raw[:15] + struct.pack("<Q", count) + raw[23:]


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


MALFORMED = {
    "move-5-bytes": lambda: _saved(_lf_abaaba()[1])[:5],
    "move-30-byte-header": lambda: _saved(_lf_abaaba()[1])[:30],
    "move-no-intervals": lambda: _saved(
        IntervalTable(7, ms.ABSOLUTE, [], [], [], starts=[], kind="lf")
    ),
    "lf-rank-beyond-table": lambda: _lf_with("dest_rank", lambda t: len(t) + 3),
    "lf-offset-n": lambda: _lf_with("dest_offset", lambda t: t.n),
    "rlbwt-20-bytes": lambda: _rlbwt_bytes()[:20],
    "rlbwt-huge-run-count": lambda: _rlbwt_with_run_count(1 << 60),
    "rlbwt-crc-mismatch": _rlbwt_with_crc_flipped,
    "rlbwt-truncated-samples": lambda: _rlbwt_bytes()[:-12],
    "rlbwt-trailing-byte": lambda: _rlbwt_bytes() + b"\x00",
    "rlbwt-sample-n": lambda: _rlbwt_with_samples(lambda v: v.__setitem__(0, 7)),
    "move-huge-row-count": lambda: _lf_with_row_count(1 << 60),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_raise_format_error(case, tmp_path, capsys):
    data = MALFORMED[case]()
    load = load_rlbwt if case.startswith("rlbwt") else load_move
    with pytest.raises(FormatError):
        load(io.BytesIO(data))
    path = tmp_path / "bad"
    path.write_bytes(data)
    commands = [["invert", str(path)]]
    if case.startswith("rlbwt"):
        commands.append(["build", str(path), "--perm", "phi-inv"])
    for argv in commands:
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("which", ["head_sa", "tail_sa"])
def test_samples_that_make_no_permutation_raise(which, tmp_path, capsys):
    """A sample copied onto the next one of its kind loads, but repeats a
    start of one phi table and an image of the other."""
    r = _lf_abaaba()[0].r
    first = 0 if which == "head_sa" else r
    data = _rlbwt_with_samples(lambda v: v.__setitem__(first + 1, v[first]))
    rl = load_rlbwt(io.BytesIO(data))
    repeats_start = {"head_sa": False, "tail_sa": True}[which]
    for inv in (False, True):
        match = "repeat" if inv == repeats_start else "tile"
        with pytest.raises(InvalidInputError, match=match):
            build_phi_via_lf(rl, inverse=inv)
    path = tmp_path / "bad.rl"
    path.write_bytes(data)
    for perm in ("phi", "phi-inv"):
        assert main(["build", str(path), "--perm", perm, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _payload_span(data: bytes) -> range:
    """Offsets of the payload that the header of data declares."""
    info = inspect_move(io.BytesIO(data))
    # magic and tags, six u64 fields, the column count, then per column a
    # name length, the name and a width
    header_len = 7 + 48 + 4 + sum(2 + len(name.encode()) for name, _ in info["columns"])
    return range(header_len, header_len + info["payload_bytes"])


def _padding(data: bytes) -> range:
    """Offsets of the zero padding between the payload and the checksum."""
    end = _payload_span(data).stop
    return range(end, end + -end % 8)


def _rechecksummed(data: bytes) -> bytes:
    """data cut after the payload its header declares, padded, and given that
    payload's checksum, so that a mutation reaches the payload decoder and
    validate(); data itself when its header or payload is unreadable."""
    try:
        payload = _payload_span(data)
    except FormatError:
        return data
    end = payload.stop
    if len(data) < end:
        return data
    return data[:end] + bytes(-end % 8) + struct.pack("<Q", fnv1a64(data[payload.start : end]))


def _fuzz_bases() -> list[bytes]:
    _, lf = _lf_abaaba()
    rng = random.Random(11)
    perm = from_permutation(random_runny_permutation(rng, 2000, 150))
    capped = apply_splits(perm, ms.SplitConfig(c=Fraction(1), alpha=2))
    return [
        _saved(lf),
        _saved(lf.to_relative()),
        _saved(perm),
        _saved(capped.to_relative()),
        PINNED_FILE,
    ]


FUZZ_BASES = _fuzz_bases()
# Flips are drawn most often and count back from the end of the file, where
# the payload is: a flip there reaches the payload decoder once the checksum
# is recomputed. A "pad" flip hits a padding byte of the unmutated file.
MUTATION = st.tuples(
    st.sampled_from(["flip", "flip", "flip", "pad", "truncate", "append"]),
    st.integers(0, 1 << 16),
    st.integers(1, 255),
)


def _mutated(data: bytearray, mutations, padding: range = range(0)) -> bytearray:
    for kind, pos, byte in mutations:
        if kind == "flip" and data:
            data[-1 - pos % len(data)] ^= byte
        elif kind == "pad" and padding and padding[pos % len(padding)] < len(data):
            data[padding[pos % len(padding)]] ^= byte
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
    and flips confined to its padding, which no checksum covers, must raise."""
    original = FUZZ_BASES[base]
    padding = _padding(original)
    data = bytes(_mutated(bytearray(original), mutations, padding))
    if rechecksum:
        data = _rechecksummed(data)
    appended = len(data) > len(original) and data.startswith(original)
    changed = {i for i, (a, b) in enumerate(zip(data, original)) if a != b}
    pad_flipped = len(data) == len(original) and changed and changed <= set(padding)
    try:
        table = load_move(io.BytesIO(data))
    except FormatError:
        return
    assert not appended and not pad_flipped
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
        tables = [build_phi_via_lf(rl, inverse=inv)[0] for inv in (False, True)]
    except MoveStructError:
        return
    for table in tables:
        table.validate()

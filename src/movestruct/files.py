"""Binary serialization of interval tables.

The storage mode picks the first core column: absolute files store each
interval's start, relative files its length, which needs fewer bits on
capped tables. Both load to the same in-memory table; an absolute file's
starts are checked through the lengths they yield, which must be >= 1 and
sum to n.

Layout of version 2, which save_move writes (all integers little-endian):
  magic "RPMV" | version u8 | mode u8 | kind u8 | n u64 | r' u64 | L u64 |
  c numerator u64 | c denominator u64 | alpha u64 | source_runs u64 |
  column count u32 | per column: name length u8, name bytes, width u8 |
  if a column is named "sym": symbol count u16, the sorted distinct
  symbols as bytes |
  payload (bit-packed matrix, rows contiguous) |
  CRC-32 (zlib.crc32) u32 of every byte after the magic, and nothing after it

The "sym" column holds each run's rank among the listed symbols, so it is
as wide as the alphabet needs; load_move maps the ranks back to bytes.

Version 1, which load_move still reads, has no source_runs field (a v1 table
loads with source_runs = r'), no symbol list (sym holds the byte values),
zero padding after the payload to an 8-byte file boundary, and ends with
an FNV-1a 64-bit checksum of the payload bytes alone.

_FIXED holds the one struct per version of the fixed part from the mode
byte to the column count; the mode and kind bytes index _MODES and _KINDS.
A load reads the file once, front to back, and leaves it at its end.
"""

from __future__ import annotations

import struct
import zlib
from fractions import Fraction
from operator import lt, sub
from typing import BinaryIO, NamedTuple, Optional

from .bitpack import ColumnSpec, PackedMatrix, min_width
from .core import ABSOLUTE, RELATIVE, IntervalTable
from .errors import FormatError, InvalidInputError, InvalidSpecError, ValueOverflowError

MOVE_MAGIC = b"RPMV"
MOVE_VERSION = 2

_MODES = (ABSOLUTE, RELATIVE)
_KINDS = ("generic", "lf", "fl", "phi", "phi_inv")
# mode, kind, the u64 fields named below, column count; version 1 has no
# source_runs field
_FIXED = {1: struct.Struct("<2B6QI"), 2: struct.Struct("<2B7QI")}
_U64_FIELDS = ("n", "r'", "L", "cap numerator", "cap denominator", "alpha",
               "source_runs")
_SIGMA = struct.Struct("<H")

# The first core column of each mode's files; "off" and "rank" follow it.
_FIRST_COLUMN = {ABSOLUTE: "start", RELATIVE: "len"}


class _Header(NamedTuple):
    version: int
    mode: str
    kind: str
    n: int
    r_prime: int
    cap_len: int
    c_num: int
    c_den: int
    alpha: int
    source_runs: int
    specs: list[ColumnSpec]
    symbols: Optional[bytes]  # the symbol list of a v2 file with a sym column
    size: int  # bytes from the magic to the payload
    payload_bytes: int
    crc: int  # CRC-32 of the header bytes after the magic


def fnv1a64(data: bytes) -> int:
    """The checksum of a version 1 file's payload."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _symbols(sym: list[int]) -> bytes:
    """The sorted distinct values of a sym column; one beyond a byte raises
    InvalidInputError, as inverting the table would."""
    try:
        return bytes(sorted(set(sym)))
    except ValueError:
        raise InvalidInputError("symbol column holds a value that is not a byte") from None


def pack_table(table: IntervalTable) -> PackedMatrix:
    """The serialized columns in order, core columns for the mode and then
    extras, each at its minimal width; sym holds symbol ranks."""
    first = table.starts if table.mode == ABSOLUTE else table.lengths
    cols = {_FIRST_COLUMN[table.mode]: first, "off": table.dest_offset,
            "rank": table.dest_rank}
    for name, vals in table.extras.items():
        if name in cols:
            raise FormatError(f"extra column {name!r} clashes with a core column")
        cols[name] = vals
    if "sym" in cols:
        rank_of = bytearray(256)
        for rank, symbol in enumerate(_symbols(cols["sym"])):
            rank_of[symbol] = rank
        cols["sym"] = list(map(rank_of.__getitem__, cols["sym"]))
    specs = [
        ColumnSpec(name, min_width(max(vals) if vals else 0))
        for name, vals in cols.items()
    ]
    m = PackedMatrix(specs, len(table))
    for name, vals in cols.items():
        m.set_column(name, vals)
    return m


def save_move(table: IntervalTable, fp: BinaryIO) -> None:
    """Write table to fp as a version 2 file. A header field beyond u64, or a
    symbol beyond a byte, raises before anything is written."""
    cap = table.cap if table.cap is not None else Fraction(0)
    values = (table.n, len(table), table.cap_len, cap.numerator, cap.denominator,
              table.alpha, table.source_runs)
    for name, value in zip(_U64_FIELDS, values):
        if not 0 <= value < 1 << 64:
            raise ValueOverflowError(f"{name} = {value} does not fit in a u64")
    m = pack_table(table)
    header = bytearray([MOVE_VERSION])
    header += _FIXED[MOVE_VERSION].pack(
        _MODES.index(table.mode), _KINDS.index(table.kind), *values, len(m.columns)
    )
    for spec in m.columns:
        name = spec.name.encode()
        if len(name) > 255:
            raise FormatError("column name too long")
        header += bytes([len(name)]) + name + bytes([spec.width])
    if "sym" in table.extras:
        symbols = _symbols(table.extras["sym"])
        header += _SIGMA.pack(len(symbols)) + symbols
    payload = m.payload
    fp.write(MOVE_MAGIC)
    fp.write(header)
    fp.write(payload)
    fp.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(header))))


def read_exact(fp: BinaryIO, size: int) -> bytes:
    """The next size bytes of fp; a short read means a truncated file.

    Reads at most 1 MiB at a time, so that a size declared by a corrupt
    header is never allocated before the file proves that long.
    """
    parts = []
    while size > 0:
        part = fp.read(min(size, 1 << 20))
        if not part:
            raise FormatError("truncated file")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_header(fp: BinaryIO) -> _Header:
    if fp.read(4) != MOVE_MAGIC:
        raise FormatError("not a move-structure file")
    tag = read_exact(fp, 1)
    version = tag[0]
    fixed = _FIXED.get(version)
    if fixed is None:
        raise FormatError(f"unsupported version {version}")
    raw = read_exact(fp, fixed.size)
    mode, kind, *fields, ncols = fixed.unpack(raw)
    if mode >= len(_MODES) or kind >= len(_KINDS):
        raise FormatError("unknown mode or kind tag")
    if len(fields) < len(_U64_FIELDS):
        fields.append(fields[1])  # a v1 file's source_runs is r'
    n, r_prime, cap_len, c_num, c_den, alpha, source_runs = fields
    if c_num and not c_den:
        raise FormatError("cap factor has a zero denominator")
    parts = [tag, raw]
    specs = []
    for _ in range(ncols):
        name_len = read_exact(fp, 1)
        name_bytes = read_exact(fp, name_len[0])
        width = read_exact(fp, 1)
        parts += (name_len, name_bytes, width)
        try:
            specs.append(ColumnSpec(name_bytes.decode(), width[0]))
        except (UnicodeDecodeError, InvalidSpecError) as e:
            raise FormatError(f"bad column spec: {e}") from e
    names = {s.name for s in specs}
    if len(names) < len(specs):
        raise FormatError("a column name is repeated")
    symbols = None
    if version > 1 and "sym" in names:
        sigma = read_exact(fp, _SIGMA.size)
        symbols = read_exact(fp, _SIGMA.unpack(sigma)[0])
        parts += (sigma, symbols)
        if not all(map(lt, symbols, symbols[1:])):
            raise FormatError("the symbol list is not sorted and distinct")
    head = b"".join(parts)
    payload_bytes = (r_prime * sum(s.width for s in specs) + 7) // 8
    return _Header(version, _MODES[mode], _KINDS[kind], *fields, specs, symbols,
                   len(MOVE_MAGIC) + len(head), payload_bytes, zlib.crc32(head))


def load_move(fp: BinaryIO) -> IntervalTable:
    """Read a table of either version and check its structure; any malformed
    input raises FormatError."""
    h = _read_header(fp)
    payload = read_exact(fp, h.payload_bytes)
    if h.version == 1:
        # Neither the padding nor the header is under a v1 checksum.
        if any(read_exact(fp, (-(h.size + h.payload_bytes)) % 8)):
            raise FormatError("non-zero padding")
        (checksum,) = struct.unpack("<Q", read_exact(fp, 8))
        intact = checksum == fnv1a64(payload)
    else:
        (checksum,) = struct.unpack("<I", read_exact(fp, 4))
        intact = checksum == zlib.crc32(payload, h.crc)
    if fp.read(1):
        raise FormatError("trailing bytes after the checksum")
    if not intact:
        raise FormatError("checksum mismatch")
    m = PackedMatrix.from_payload(h.specs, h.r_prime, payload)
    cols = {s.name: m.get_column(s.name) for s in h.specs}
    core = (_FIRST_COLUMN[h.mode], "off", "rank")
    for name in core:
        if name not in cols:
            raise FormatError(f"file lacks core column {name!r}")
    if h.symbols is not None:
        ranks = cols["sym"]
        if ranks and max(ranks) >= len(h.symbols):
            raise FormatError("a sym rank is beyond the symbol list")
        cols["sym"] = list(map(h.symbols.__getitem__, ranks))
    extras = {k: v for k, v in cols.items() if k not in core}
    if h.mode == ABSOLUTE:
        # A bad start column shows as lengths below 1 or not summing to n.
        starts = cols["start"]
        lengths = list(map(sub, starts[1:] + [h.n], starts))
    else:
        lengths = cols["len"]
    table = IntervalTable(
        h.n,
        h.mode,
        lengths,
        cols["rank"],
        cols["off"],
        source_runs=h.source_runs,
        kind=h.kind,
        cap=Fraction(h.c_num, h.c_den) if h.c_num else None,
        cap_len=h.cap_len,
        alpha=h.alpha,
        extras=extras,
    )
    try:
        table.validate()
    except InvalidInputError as e:
        raise FormatError(f"malformed table: {e}") from e
    return table


def inspect_move(fp: BinaryIO) -> dict:
    h = _read_header(fp)
    stride = sum(s.width for s in h.specs)
    return {
        "version": h.version,
        "n": h.n,
        "r": h.source_runs,
        "r_prime": h.r_prime,
        "mode": h.mode,
        "kind": h.kind,
        "cap": f"{h.c_num}/{h.c_den}" if h.c_num else "off",
        "alpha": h.alpha or "off",
        "cap_len": h.cap_len or "off",
        "columns": [(s.name, s.width) for s in h.specs],
        "row_stride_bits": stride,
        "payload_bits": h.r_prime * stride,
        "payload_bytes": h.payload_bytes,
    }

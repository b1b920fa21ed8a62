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

Version 1 files had no source_runs field, so a capped table loaded from one
re-capped to another L; they raise FormatError and need movestruct build.

.mv and .rl files share one container, magic | version u8 | body | CRC-32
of the version and body. Each format reads one version, 2 for both, and
refuses its version 1 files; read_framed checks the version, then the CRC,
before any field is parsed.

_FIXED is the fixed part from the mode byte to the column count; the mode
and kind bytes index _MODES and _KINDS.
"""

from __future__ import annotations

import struct
import zlib
from fractions import Fraction
from operator import lt, sub
from typing import BinaryIO, NamedTuple, Optional

from .bitpack import ColumnSpec, PackedMatrix, min_width, unpack_columns
from .core import ABSOLUTE, RELATIVE, IntervalTable
from .errors import (
    BoundsError,
    FormatError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSpecError,
    ValueOverflowError,
)

MOVE_MAGIC = b"RPMV"
MOVE_VERSION = 2

_MODES = (ABSOLUTE, RELATIVE)
_KINDS = ("generic", "lf", "fl", "phi", "phi_inv")
# mode, kind, the u64 fields named below, column count
_FIXED = struct.Struct("<2B7QI")
_U64_FIELDS = ("n", "r'", "L", "cap numerator", "cap denominator", "alpha",
               "source_runs")
_SIGMA = struct.Struct("<H")
_CRC = struct.Struct("<I")

# The first core column of each mode's files; "off" and "rank" follow it.
_FIRST_COLUMN = {ABSOLUTE: "start", RELATIVE: "len"}


class _Header(NamedTuple):
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
    symbols: Optional[bytes]  # the symbol list of a file with a sym column
    payload: memoryview


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash, the checksum of the refused version 1 files. No
    library code calls it; the benchmark's tracer wraps it by name."""
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
    extras, each at its minimal width, which one max per column gives; sym
    holds symbol ranks. A column that is not r' long raises BoundsError, a
    negative value ValueOverflowError, and a value of 2**64 or more
    InvalidSpecError."""
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
    rows = len(table)
    specs = []
    for name, vals in cols.items():
        if len(vals) != rows:
            raise BoundsError(f"column {name!r} needs {rows} values, got {len(vals)}")
        if min(vals, default=0) < 0:
            raise ValueOverflowError(f"column {name!r} holds {min(vals)}, below 0")
        specs.append(ColumnSpec(name, min_width(max(vals, default=0))))
    return PackedMatrix(specs, rows, list(cols.values()))


def save_move(table: IntervalTable, fp: BinaryIO) -> None:
    """Write table to fp as a version 2 file. A header field beyond u64, an
    alpha of 1, which load_move refuses, a symbol beyond a byte or a column
    value that is not an integer raises before anything is written."""
    cap = table.cap if table.cap is not None else Fraction(0)
    values = (table.n, len(table), table.cap_len, cap.numerator, cap.denominator,
              table.alpha, table.source_runs)
    for name, value in zip(_U64_FIELDS, values):
        if not 0 <= value < 1 << 64:
            raise ValueOverflowError(f"{name} = {value} does not fit in a u64")
    if table.alpha == 1:
        raise InvalidParameterError("alpha 1 is no balance: balancing needs alpha >= 2")
    try:
        m = pack_table(table)
        payload = m.payload
        symbols = _symbols(table.extras["sym"]) if "sym" in table.extras else None
    except (TypeError, AttributeError):  # a float or None meets min, max or <<
        raise InvalidInputError("a column holds a value that is not an integer") from None
    body = bytearray([MOVE_VERSION])
    body += _FIXED.pack(
        _MODES.index(table.mode), _KINDS.index(table.kind), *values, len(m.columns)
    )
    for spec in m.columns:
        name = spec.name.encode()
        if len(name) > 255:
            raise FormatError("column name too long")
        body += bytes([len(name)]) + name + bytes([spec.width])
    if symbols is not None:
        body += _SIGMA.pack(len(symbols)) + symbols
    body += payload
    write_framed(fp, MOVE_MAGIC, body)


def write_framed(fp: BinaryIO, magic: bytes, body: bytes) -> None:
    """Write the container of .mv and .rl files: magic, body (its version
    byte first) and the CRC-32 of the body."""
    fp.write(magic)
    fp.write(body)
    fp.write(_CRC.pack(zlib.crc32(body)))


def read_framed(fp: BinaryIO, magic: bytes, what: str,
                version: int) -> memoryview:
    """Read the rest of fp in one call and return the body of the container
    write_framed wrote, its version byte first and without its CRC-32. The
    version, which must be the one given, then the CRC, are checked before
    anything reads a field of the body."""
    data = memoryview(fp.read())
    if data[: len(magic)] != magic:
        raise FormatError(f"not a {what}")
    body = data[len(magic) :]
    if not body:
        raise FormatError(f"truncated {what}")
    if body[0] != version:
        raise FormatError(
            f"unsupported {what} version {body[0]}; rebuild it with "
            "movestruct build-rlbwt (.rl) or movestruct build (.mv)"
        )
    if len(body) < 1 + _CRC.size:
        raise FormatError(f"truncated {what}")
    body, (crc,) = body[: -_CRC.size], _CRC.unpack(body[-_CRC.size :])
    if crc != zlib.crc32(body):
        raise FormatError(f"{what} checksum mismatch")
    return body


def _read_header(fp: BinaryIO) -> _Header:
    body = read_framed(fp, MOVE_MAGIC, ".mv file", MOVE_VERSION)
    try:
        mode, kind, *fields, ncols = _FIXED.unpack_from(body, 1)
        at = 1 + _FIXED.size
        specs = []
        for _ in range(ncols):
            name = bytes(body[at + 1 : at + 1 + body[at]])
            at += 1 + len(name)
            specs.append(ColumnSpec(name.decode(), body[at]))
            at += 1
        names = {s.name for s in specs}
        symbols = None
        if "sym" in names:
            (sigma,) = _SIGMA.unpack_from(body, at)
            at += _SIGMA.size
            symbols = bytes(body[at : at + sigma])
            at += sigma
    except (struct.error, IndexError):
        raise FormatError("truncated header") from None
    except (UnicodeDecodeError, InvalidSpecError) as e:
        raise FormatError(f"bad column spec: {e}") from e
    if mode >= len(_MODES) or kind >= len(_KINDS):
        raise FormatError("unknown mode or kind tag")
    n, r_prime, cap_len, c_num, c_den, alpha, source_runs = fields
    if alpha == 1:
        raise FormatError("header claims alpha 1, but balancing needs alpha >= 2")
    if c_num and not c_den:
        raise FormatError("cap factor has a zero denominator")
    if len(names) < len(specs):
        raise FormatError("a column name is repeated")
    if symbols is not None and not all(map(lt, symbols, symbols[1:])):
        raise FormatError("the symbol list is not sorted and distinct")
    payload_bytes = (r_prime * sum(s.width for s in specs) + 7) // 8
    if len(body) != at + payload_bytes:
        raise FormatError("file size does not match its header")
    return _Header(_MODES[mode], _KINDS[kind], *fields, specs, symbols, body[at:])


def load_move(fp: BinaryIO) -> IntervalTable:
    """Read a version 2 table and check its structure; any malformed input
    raises FormatError."""
    h = _read_header(fp)
    widths = [s.width for s in h.specs]
    cols = dict(zip([s.name for s in h.specs],
                    unpack_columns(widths, h.r_prime, h.payload)))
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
        "version": MOVE_VERSION,
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
        "payload_bytes": len(h.payload),
    }

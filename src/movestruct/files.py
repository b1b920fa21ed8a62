"""Binary serialization of interval tables.

The storage mode picks the first core column: absolute files store each
interval's start, relative files its length, which needs fewer bits on
capped tables. Both load to the same in-memory table; an absolute file's
starts are checked through the lengths they yield, which must be >= 1 and
sum to n.

Layout (all integers little-endian):
  magic "RPMV" | version u8 | mode u8 | kind u8 | n u64 | r' u64 | L u64 |
  c numerator u64 | c denominator u64 | alpha u64 |
  column count u32 | per column: name length u8, name bytes, width u8 |
  payload (bit-packed matrix, rows contiguous) |
  zero padding to an 8-byte file boundary |
  FNV-1a 64-bit checksum of the payload bytes, and nothing after it

_FIXED is the one struct of the fixed part from version to column count;
the mode and kind bytes index _MODES and _KINDS.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import BinaryIO, NamedTuple

from .bitpack import ColumnSpec, PackedMatrix, min_width
from .core import ABSOLUTE, RELATIVE, IntervalTable
from .errors import FormatError, InvalidInputError, InvalidSpecError, ValueOverflowError

MOVE_MAGIC = b"RPMV"
MOVE_VERSION = 1

_MODES = (ABSOLUTE, RELATIVE)
_KINDS = ("generic", "lf", "fl", "phi", "phi_inv")
# version, mode, kind, the six u64 fields named below, column count
_FIXED = struct.Struct("<3B6QI")
_U64_FIELDS = ("n", "r'", "L", "cap numerator", "cap denominator", "alpha")

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
    specs: list[ColumnSpec]
    size: int  # bytes from the magic to the payload
    payload_bytes: int


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def pack_table(table: IntervalTable) -> PackedMatrix:
    """The serialized columns in order, core columns for the mode and then
    extras, each at its minimal width."""
    first = table.starts if table.mode == ABSOLUTE else table.lengths
    cols = {_FIRST_COLUMN[table.mode]: first, "off": table.dest_offset,
            "rank": table.dest_rank}
    for name, vals in table.extras.items():
        if name in cols:
            raise FormatError(f"extra column {name!r} clashes with a core column")
        cols[name] = vals
    specs = [
        ColumnSpec(name, min_width(max(vals) if vals else 0))
        for name, vals in cols.items()
    ]
    m = PackedMatrix(specs, len(table))
    for name, vals in cols.items():
        m.set_column(name, vals)
    return m


def save_move(table: IntervalTable, fp: BinaryIO) -> None:
    """Write table to fp. A header field beyond u64 raises ValueOverflowError
    before anything is written."""
    cap = table.cap if table.cap is not None else Fraction(0)
    values = (table.n, len(table), table.cap_len, cap.numerator, cap.denominator,
              table.alpha)
    for name, value in zip(_U64_FIELDS, values):
        if not 0 <= value < 1 << 64:
            raise ValueOverflowError(f"{name} = {value} does not fit in a u64")
    m = pack_table(table)
    header = bytearray(MOVE_MAGIC)
    header += _FIXED.pack(MOVE_VERSION, _MODES.index(table.mode),
                          _KINDS.index(table.kind), *values, len(m.columns))
    for spec in m.columns:
        name = spec.name.encode()
        if len(name) > 255:
            raise FormatError("column name too long")
        header += bytes([len(name)]) + name + bytes([spec.width])
    payload = m.payload
    fp.write(header)
    fp.write(payload)
    pad = (-(len(header) + len(payload))) % 8
    fp.write(b"\x00" * pad)
    fp.write(struct.pack("<Q", fnv1a64(payload)))


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
    version, mode, kind, *fields, ncols = _FIXED.unpack(read_exact(fp, _FIXED.size))
    if version != MOVE_VERSION:
        raise FormatError(f"unsupported version {version}")
    if mode >= len(_MODES) or kind >= len(_KINDS):
        raise FormatError("unknown mode or kind tag")
    n, r_prime, cap_len, c_num, c_den, alpha = fields
    if c_num and not c_den:
        raise FormatError("cap factor has a zero denominator")
    specs = []
    size = len(MOVE_MAGIC) + _FIXED.size
    for _ in range(ncols):
        (name_len,) = read_exact(fp, 1)
        name_bytes = read_exact(fp, name_len)
        (width,) = read_exact(fp, 1)
        try:
            specs.append(ColumnSpec(name_bytes.decode(), width))
        except (UnicodeDecodeError, InvalidSpecError) as e:
            raise FormatError(f"bad column spec: {e}") from e
        size += 2 + name_len
    if len({s.name for s in specs}) < len(specs):
        raise FormatError("a column name is repeated")
    payload_bytes = (r_prime * sum(s.width for s in specs) + 7) // 8
    return _Header(_MODES[mode], _KINDS[kind], *fields, specs, size, payload_bytes)


def load_move(fp: BinaryIO) -> IntervalTable:
    """Read a table and check its structure; any malformed input raises
    FormatError."""
    h = _read_header(fp)
    payload = read_exact(fp, h.payload_bytes)
    # Neither the padding nor the end of the file is under the checksum.
    if any(read_exact(fp, (-(h.size + h.payload_bytes)) % 8)):
        raise FormatError("non-zero padding")
    (checksum,) = struct.unpack("<Q", read_exact(fp, 8))
    if fp.read(1):
        raise FormatError("trailing bytes after the checksum")
    if checksum != fnv1a64(payload):
        raise FormatError("payload checksum mismatch")
    m = PackedMatrix.from_payload(h.specs, h.r_prime, payload)
    cols = {s.name: m.get_column(s.name) for s in h.specs}
    core = (_FIRST_COLUMN[h.mode], "off", "rank")
    for name in core:
        if name not in cols:
            raise FormatError(f"file lacks core column {name!r}")
    extras = {k: v for k, v in cols.items() if k not in core}
    if h.mode == ABSOLUTE:
        # A bad start column shows as lengths below 1 or not summing to n.
        starts = cols["start"]
        lengths = [b - a for a, b in zip(starts, starts[1:] + [h.n])]
    else:
        lengths = cols["len"]
    table = IntervalTable(
        h.n,
        h.mode,
        lengths,
        cols["rank"],
        cols["off"],
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
        "n": h.n,
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

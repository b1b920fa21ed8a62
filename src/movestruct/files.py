"""Binary serialization of interval tables.

Layout (all integers little-endian):
  magic "RPMV" | version u8 | mode u8 | kind u8 | n u64 | r' u64 | L u64 |
  c numerator u64 | c denominator u64 | alpha u64 |
  column count u32 | per column: name length u8, name bytes, width u8 |
  payload (bit-packed matrix, rows contiguous) |
  zero padding to an 8-byte file boundary |
  FNV-1a 64-bit checksum of the payload bytes, and nothing after it
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import BinaryIO

from .bitpack import ColumnSpec, PackedMatrix, min_width
from .core import ABSOLUTE, RELATIVE, IntervalTable
from .errors import FormatError, InvalidInputError, InvalidSpecError

MOVE_MAGIC = b"RPMV"
MOVE_VERSION = 1

_MODE_TAGS = {ABSOLUTE: 0, RELATIVE: 1}
_MODE_NAMES = {v: k for k, v in _MODE_TAGS.items()}
_KIND_TAGS = {"generic": 0, "lf": 1, "fl": 2, "phi": 3, "phi_inv": 4}
_KIND_NAMES = {v: k for k, v in _KIND_TAGS.items()}

_CORE_ABS = ("start", "off", "rank")
_CORE_REL = ("len", "off", "rank")


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def table_columns(table: IntervalTable) -> dict[str, list[int]]:
    """Serialized columns in order: core columns for the mode, then extras."""
    if table.mode == ABSOLUTE:
        cols = {
            "start": table.starts,
            "off": table.dest_offset,
            "rank": table.dest_rank,
        }
    else:
        cols = {
            "len": table.lengths,
            "off": table.dest_offset,
            "rank": table.dest_rank,
        }
    for name, vals in table.extras.items():
        if name in cols:
            raise FormatError(f"extra column {name!r} clashes with a core column")
        cols[name] = vals
    return cols


def pack_table(table: IntervalTable) -> PackedMatrix:
    cols = table_columns(table)
    specs = [
        ColumnSpec(name, min_width(max(vals) if vals else 0))
        for name, vals in cols.items()
    ]
    m = PackedMatrix(specs, len(table))
    for name, vals in cols.items():
        m.set_column(name, vals)
    return m


def save_move(table: IntervalTable, fp: BinaryIO) -> None:
    m = pack_table(table)
    cap = table.cap if table.cap is not None else Fraction(0)
    header = bytearray()
    header += MOVE_MAGIC
    header += bytes([MOVE_VERSION, _MODE_TAGS[table.mode], _KIND_TAGS[table.kind]])
    header += struct.pack(
        "<QQQQQQ",
        table.n,
        len(table),
        table.cap_len,
        cap.numerator,
        cap.denominator,
        table.alpha,
    )
    header += struct.pack("<I", len(m.columns))
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


def _read_header(fp: BinaryIO):
    if fp.read(4) != MOVE_MAGIC:
        raise FormatError("not a move-structure file")
    version, mode_tag, kind_tag = read_exact(fp, 3)
    if version != MOVE_VERSION:
        raise FormatError(f"unsupported version {version}")
    if mode_tag not in _MODE_NAMES or kind_tag not in _KIND_NAMES:
        raise FormatError("unknown mode or kind tag")
    n, r_prime, cap_len, c_num, c_den, alpha = struct.unpack(
        "<QQQQQQ", read_exact(fp, 48)
    )
    if c_num and not c_den:
        raise FormatError("cap factor has a zero denominator")
    (ncols,) = struct.unpack("<I", read_exact(fp, 4))
    specs = []
    header_len = 7 + 48 + 4
    for _ in range(ncols):
        (name_len,) = read_exact(fp, 1)
        name_bytes = read_exact(fp, name_len)
        (width,) = read_exact(fp, 1)
        try:
            specs.append(ColumnSpec(name_bytes.decode(), width))
        except (UnicodeDecodeError, InvalidSpecError) as e:
            raise FormatError(f"bad column spec: {e}") from e
        header_len += 2 + name_len
    return (
        _MODE_NAMES[mode_tag],
        _KIND_NAMES[kind_tag],
        n,
        r_prime,
        cap_len,
        c_num,
        c_den,
        alpha,
        specs,
        header_len,
    )


def load_move(fp: BinaryIO) -> IntervalTable:
    """Read a table and check its structure; any malformed input raises
    FormatError."""
    (mode, kind, n, r_prime, cap_len, c_num, c_den, alpha, specs, header_len) = (
        _read_header(fp)
    )
    stride = sum(s.width for s in specs)
    payload_len = (r_prime * stride + 7) // 8
    payload = read_exact(fp, payload_len)
    # Neither the padding nor the end of the file is under the checksum.
    if any(read_exact(fp, (-(header_len + payload_len)) % 8)):
        raise FormatError("non-zero padding")
    (checksum,) = struct.unpack("<Q", read_exact(fp, 8))
    if fp.read(1):
        raise FormatError("trailing bytes after the checksum")
    if checksum != fnv1a64(payload):
        raise FormatError("payload checksum mismatch")
    m = PackedMatrix.from_payload(specs, r_prime, payload)
    cols = {s.name: m.get_column(s.name) for s in specs}
    core = _CORE_ABS if mode == ABSOLUTE else _CORE_REL
    for name in core:
        if name not in cols:
            raise FormatError(f"file lacks core column {name!r}")
    extras = {k: v for k, v in cols.items() if k not in core}
    if mode == ABSOLUTE:
        starts = cols["start"]
        lengths = [b - a for a, b in zip(starts, starts[1:] + [n])]
    else:
        starts = None
        lengths = cols["len"]
    table = IntervalTable(
        n,
        mode,
        lengths,
        cols["rank"],
        cols["off"],
        starts=starts,
        kind=kind,
        cap=Fraction(c_num, c_den) if c_num else None,
        cap_len=cap_len,
        alpha=alpha,
        extras=extras,
    )
    try:
        table.validate()
    except InvalidInputError as e:
        raise FormatError(f"malformed table: {e}") from e
    return table


def inspect_move(fp: BinaryIO) -> dict:
    (mode, kind, n, r_prime, cap_len, c_num, c_den, alpha, specs, _hl) = (
        _read_header(fp)
    )
    stride = sum(s.width for s in specs)
    return {
        "n": n,
        "r_prime": r_prime,
        "mode": mode,
        "kind": kind,
        "cap": f"{c_num}/{c_den}" if c_num else "off",
        "alpha": alpha or "off",
        "cap_len": cap_len or "off",
        "columns": [(s.name, s.width) for s in specs],
        "row_stride_bits": stride,
        "payload_bits": r_prime * stride,
        "payload_bytes": (r_prime * stride + 7) // 8,
    }

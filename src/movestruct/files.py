"""Binary serialization of interval tables.

The storage mode picks the first core column: absolute files store each
interval's start, relative files its length, which needs fewer bits on
capped tables. Both load to the same in-memory table; an absolute file's
starts are checked through the lengths they yield, which must be >= 1 and
sum to n.

The header's L is not a free field. _read_header, which inspect_move
shares, refuses an L that is not cap_length(n, source_runs, c) of the
header's own fields (0 when c is 0) and a cap over source_runs 0, which
gives no L; load_move refuses a capped table with an interval longer than
L, and save_move refuses one before it writes a byte. So a capped file
proves its n: a larger n changes L, or lengthens an absolute file's last
interval past it, unless it adds at most L less that interval's length.
An uncapped absolute file has nothing to check its n against, since its
lengths come from its starts and n, nor has a relative file whose n and
lengths change together: both load as valid tables of other permutations.

Layout of version 5, which save_move writes (all integers little-endian):
  magic "RPMV" | version u8 | mode u8 | kind u8 | n u64 | r' u64 | L u64 |
  c numerator u64 | c denominator u64 | alpha u64 | source_runs u64 |
  column count u32 | per column: name length u8, name bytes, width u8 |
  if a column is named "sym": symbol count u16, the sorted distinct
  symbols as bytes |
  if columns are named "doc" and "docdist": record count u32, the
  document records (bit-packed, records contiguous) |
  payload (bit-packed matrix of the other columns, rows contiguous) |
  CRC-32 (zlib.crc32) u32 of every byte after the magic, and nothing after it

No file stores a destination: a permutation's images tile [0, n), so the
lengths and the image order fix them (core.tile_columns). The columns are
the first core column, then "ord", whose row i is the interval with the
i-th smallest image (an LF table with "sym" stores none: core.lf_order of
its symbols gives it), then the extras in table order; no extra column is
named "start", "len" or "ord". The "sym" column holds each run's rank
among the listed symbols, so it is as wide as the alphabet needs.

The document columns of rlbwt.attach_docs follow from two numbers per
document, so a table that holds both is stored per document, not per
interval. Record k holds how many interval starts lie in document k, at
the width of the "doc" spec, and where k ends, at the width of the
"docdist" spec, or 0 if k holds no start; records run from document 0 to
the last one that "doc" names. load_move repeats each k its count to make
"doc", and docdist[j] is the end of doc[j] minus starts[j]. A lone "doc"
or "docdist" column is an ordinary payload column.

Version 1 files had no source_runs field, so a capped table loaded from one
re-capped to another L, version 2 files stored the document columns per
interval, and versions 3 and 4 the destinations of LF and of other tables;
all raise FormatError and need movestruct build.

.mv and .rl files share one container, magic | version u8 | body | CRC-32
of the version and body. Each format reads one version, 5 for .mv and 2
for .rl, and refuses every other; read_framed checks the version, then the
CRC, before any field is parsed.

_FIXED is the fixed part from the mode byte to the column count; the mode
and kind bytes index _MODES and _KINDS.
"""

from __future__ import annotations

import struct
import zlib
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import lt, ne, sub
from typing import BinaryIO, NamedTuple, Optional

from .bitpack import ColumnSpec, PackedMatrix, min_width, pack_columns, unpack_columns
from .core import ABSOLUTE, RELATIVE, IntervalTable, cap_length, lf_order, tile_columns
from .errors import (
    BoundsError,
    FormatError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSpecError,
    ValueOverflowError,
)

MOVE_MAGIC = b"RPMV"
MOVE_VERSION = 5

_MODES = (ABSOLUTE, RELATIVE)
_KINDS = ("generic", "lf", "fl", "phi", "phi_inv")
# mode, kind, the u64 fields named below, column count
_FIXED = struct.Struct("<2B7QI")
_U64_FIELDS = ("n", "r'", "L", "cap numerator", "cap denominator", "alpha",
               "source_runs")
_SIGMA = struct.Struct("<H")
_RECORDS = struct.Struct("<I")
_CRC = struct.Struct("<I")

# The first core column of each mode's files; "ord" follows it where
# _core_columns says. No extra column takes one of these names.
_FIRST_COLUMN = {ABSOLUTE: "start", RELATIVE: "len"}
_CORE_NAMES = ("start", "len", "ord")
# The document columns that a file holding both stores as records.
_DOC_PAIR = ("doc", "docdist")


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
    specs: list[ColumnSpec]  # every column, in file order
    payload_specs: list[ColumnSpec]  # the columns that the payload holds
    symbols: Optional[bytes]  # the symbol list of a file with a sym column
    records: Optional[list[list[int]]]  # counts and ends of a file with records
    record_bytes: int
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


def _has_doc_pair(names) -> bool:
    return _DOC_PAIR[0] in names and _DOC_PAIR[1] in names


def _core_columns(mode: str, kind: str, names) -> tuple[str, ...]:
    """The core columns in a file of a table of this mode and kind whose
    other columns have these names: the mode's first column, then "ord",
    but for LF with "sym", whose order core.lf_order gives."""
    if kind == "lf" and "sym" in names:
        return (_FIRST_COLUMN[mode],)
    return (_FIRST_COLUMN[mode], "ord")


def pack_table(table: IntervalTable) -> PackedMatrix:
    """The payload: the serialized columns in order, the core columns that
    the file stores and then extras but a doc pair, which records hold, each
    at its minimal width, which one max per column gives; sym holds symbol
    ranks, and ord the intervals sorted by image.
    A symbol beyond a byte, then a table that tile_columns does not rebuild
    from its lengths and image order, raise InvalidInputError; a column,
    the pair's included, that is not r' long raises BoundsError, a negative
    value ValueOverflowError, and a payload value of 2**64 or more
    InvalidSpecError."""
    lengths, extras = table.lengths, table.extras
    core = _core_columns(table.mode, table.kind, extras)
    for name in extras:
        if name in _CORE_NAMES:
            raise FormatError(f"extra column {name!r} clashes with a core column")
    if "sym" in extras:
        rank_of = bytearray(256)
        for rank, symbol in enumerate(_symbols(extras["sym"])):
            rank_of[symbol] = rank
    try:  # IndexError: images() on a dest_rank beyond the table, sorted on a short one
        if "ord" in core:
            images = table.images()
            order = sorted(range(len(lengths)), key=images.__getitem__)
        else:
            order = lf_order(extras["sym"])
        if min(lengths, default=1) < 1 or sum(lengths) != table.n or tile_columns(
                lengths, order) != (table.dest_rank, table.dest_offset):
            raise IndexError
    except IndexError:
        raise InvalidInputError("the lengths and image order, all that the file stores, "
                                "would not rebuild this table: a length below 1, lengths "
                                "not summing to n, or other destinations") from None
    cols = dict(zip(core, [table.starts if table.mode == ABSOLUTE else lengths, order]))
    cols.update(extras)
    if "sym" in cols:
        cols["sym"] = list(map(rank_of.__getitem__, cols["sym"]))
    rows = len(table)
    pair = _DOC_PAIR if _has_doc_pair(cols) else ()
    specs, values = [], []
    for name, vals in cols.items():
        if len(vals) != rows:
            raise BoundsError(f"column {name!r} needs {rows} values, got {len(vals)}")
        if min(vals, default=0) < 0:
            raise ValueOverflowError(f"column {name!r} holds {min(vals)}, below 0")
        if name not in pair:
            specs.append(ColumnSpec(name, min_width(max(vals, default=0))))
            values.append(vals)
    return PackedMatrix(specs, rows, values)


def _doc_columns(records: list[list[int]], starts: list[int]) -> list[list[int]]:
    """"doc" and "docdist" from the counts and the ends of the records:
    each document k repeated its count, and each interval's document end
    minus its start."""
    counts, ends = records
    doc = list(chain.from_iterable(map(repeat, range(len(counts)), counts)))
    dist = list(map(sub, chain.from_iterable(map(repeat, ends, counts)), starts))
    return [doc, dist]


def _doc_records(table: IntervalTable) -> list[list[int]]:
    """The counts and the ends of the records of a table's doc pair, one
    each per document up to the last that "doc" names, taken from the
    first interval of each run of equal "doc" values. A pair that
    _doc_columns does not rebuild from them, a "doc" that decreases or two
    intervals of one document that name different ends, raises
    InvalidInputError, and so does one that load_move would refuse, an end
    at or before its interval's start or past n. A document beyond a u32
    count raises ValueOverflowError."""
    doc, dist = table.extras["doc"], table.extras["docdist"]
    starts, r = table.starts, len(table)
    firsts = list(compress(range(r), map(ne, [None, *doc], doc)))
    d = max([doc[i] for i in firsts], default=-1) + 1
    if d >> 32:
        raise ValueOverflowError(f"{d} documents do not fit in a u32 record count")
    counts, ends = [0] * d, [0] * d
    for i, j in zip(firsts, firsts[1:] + [r]):
        counts[doc[i]] = j - i
        ends[doc[i]] = starts[i] + dist[i]
    rebuilt = _doc_columns([counts, ends], starts)
    if rebuilt[0] != doc:
        raise InvalidInputError("the doc column decreases")
    if rebuilt[1] != dist:
        raise InvalidInputError("two intervals of one document name different ends")
    if min(dist, default=1) < 1 or max(ends, default=0) > table.n:
        raise InvalidInputError(
            f"a docdist ends its document at or before its start, or past n={table.n}")
    return [counts, ends]


def save_move(table: IntervalTable, fp: BinaryIO) -> None:
    """Write table to fp as a version 5 file, with the L that its cap_len
    derives. A header field beyond u64, an alpha of 1, which load_move
    refuses, an interval longer than a capped table's L, a symbol beyond a
    byte, destinations that are not those of the table's lengths and image
    order (pack_table), a column value that is not an integer, or a doc
    pair that _doc_records refuses raises before anything is written."""
    cap = table.cap if table.cap is not None else Fraction(0)
    L = table.cap_len
    values = (table.n, len(table), L, cap.numerator, cap.denominator,
              table.alpha, table.source_runs)
    for name, value in zip(_U64_FIELDS, values):
        if not 0 <= value < 1 << 64:
            raise ValueOverflowError(f"{name} = {value} does not fit in a u64")
    if L and table.max_len > L:
        raise InvalidInputError(f"interval length {table.max_len} exceeds the cap's L {L}")
    if table.alpha == 1:
        raise InvalidParameterError("alpha 1 is no balance: balancing needs alpha >= 2")
    try:
        m = pack_table(table)
        payload = m.payload
        symbols = _symbols(table.extras["sym"]) if "sym" in table.extras else None
        width = {spec.name: spec.width for spec in m.columns}
        records = None
        if _has_doc_pair(table.extras):
            records = _doc_records(table)
            for name, vals in zip(_DOC_PAIR, records):
                width[name] = min_width(max(vals, default=0))
    except (TypeError, AttributeError):  # a float or None meets min, max or <<
        raise InvalidInputError("a column holds a value that is not an integer") from None
    names = [*_core_columns(table.mode, table.kind, table.extras), *table.extras]
    body = bytearray([MOVE_VERSION])
    body += _FIXED.pack(
        _MODES.index(table.mode), _KINDS.index(table.kind), *values, len(names)
    )
    for name in names:
        raw = name.encode()
        if len(raw) > 255:
            raise FormatError("column name too long")
        body += bytes([len(raw)]) + raw + bytes([width[name]])
    if symbols is not None:
        body += _SIGMA.pack(len(symbols)) + symbols
    if records is not None:
        body += _RECORDS.pack(len(records[0]))
        body += pack_columns(records, [width[name] for name in _DOC_PAIR])
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
        records, record_bytes, payload_specs = None, 0, specs
        if _has_doc_pair(names):
            (count,) = _RECORDS.unpack_from(body, at)
            at += _RECORDS.size
            width = {s.name: s.width for s in specs}
            widths = [width[name] for name in _DOC_PAIR]
            record_bytes = (count * sum(widths) + 7) // 8
            if len(body) < at + record_bytes:
                raise FormatError("truncated doc records")
            records = unpack_columns(widths, count, body[at : at + record_bytes])
            at += record_bytes
            payload_specs = [s for s in specs if s.name not in _DOC_PAIR]
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
    try:
        L = cap_length(n, source_runs, Fraction(c_num, c_den)) if c_num else 0
    except InvalidParameterError as e:
        raise FormatError(f"header cap gives no L: {e}") from None
    if cap_len != L:
        raise FormatError(f"header L {cap_len} is not {L}, the L that n, r and c give")
    if len(names) < len(specs):
        raise FormatError("a column name is repeated")
    if symbols is not None and not all(map(lt, symbols, symbols[1:])):
        raise FormatError("the symbol list is not sorted and distinct")
    payload_bytes = (r_prime * sum(s.width for s in payload_specs) + 7) // 8
    if len(body) != at + payload_bytes:
        raise FormatError("file size does not match its header")
    return _Header(_MODES[mode], _KINDS[kind], *fields, specs, payload_specs,
                   symbols, records, record_bytes, body[at:])


def load_move(fp: BinaryIO) -> IntervalTable:
    """Read a version 5 table and check its structure; any malformed input
    raises FormatError, a capped table with an interval longer than its L
    included. Checked lengths tiled in a checked order make a permutation."""
    h = _read_header(fp)
    # Every column in file order; records fill in the doc pair below.
    cols = dict.fromkeys(s.name for s in h.specs)
    cols.update(zip([s.name for s in h.payload_specs],
                    unpack_columns([s.width for s in h.payload_specs], h.r_prime,
                                   h.payload)))
    core = _core_columns(h.mode, h.kind, cols)
    for name in core:
        if name not in cols:
            raise FormatError(f"file lacks core column {name!r}")
    for name in _CORE_NAMES:
        if name in cols and name not in core:
            raise FormatError(
                f"unexpected core column {name!r} in a file of kind {h.kind}, mode {h.mode}")
    if h.symbols is not None:
        ranks = cols["sym"]
        if ranks and max(ranks) >= len(h.symbols):
            raise FormatError("a sym rank is beyond the symbol list")
        # ranks below sigma <= 256 are bytes, and translate maps them
        cols["sym"] = list(bytes(ranks).translate(h.symbols.ljust(256, b"\0")))
    extras = {k: v for k, v in cols.items() if k not in core}
    if h.mode == ABSOLUTE:
        # A bad start column shows as lengths below 1 or not summing to n.
        starts = cols["start"]
        lengths = list(map(sub, starts[1:] + [h.n], starts))
    else:
        lengths = cols["len"]
    if min(lengths, default=0) < 1 or sum(lengths) != h.n:
        raise FormatError("malformed table: a length below 1, or lengths not summing to n")
    if "ord" in core:
        order = cols["ord"]
        if max(order) >= h.r_prime or len(set(order)) != h.r_prime:
            raise FormatError("malformed table: ord is not a permutation of [0, r')")
    else:
        order = lf_order(cols["sym"])
    table = IntervalTable(
        h.n,
        h.mode,
        lengths,
        *tile_columns(lengths, order),
        source_runs=h.source_runs,
        kind=h.kind,
        cap=Fraction(h.c_num, h.c_den) if h.c_num else None,
        alpha=h.alpha,
        extras=extras,
    )
    if h.c_num and table.max_len > h.cap_len:
        raise FormatError(f"interval length {table.max_len} exceeds header L {h.cap_len}")
    if h.records is not None:
        counts, ends = h.records
        if sum(counts) != h.r_prime:
            raise FormatError("doc record counts do not sum to r'")
        table.extras["doc"], table.extras["docdist"] = doc, dist = _doc_columns(
            h.records, table.starts)
        if min(dist, default=1) < 1:
            raise FormatError("a doc record ends its document at or before a start in it")
        if max(compress(ends, counts), default=0) > h.n:
            raise FormatError(f"a doc record ends its document past n={h.n}")
    return table


def inspect_move(fp: BinaryIO) -> dict:
    h = _read_header(fp)
    stride = sum(s.width for s in h.payload_specs)
    records = {} if h.records is None else {
        "doc_records": len(h.records[0]), "doc_record_bytes": h.record_bytes}
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
        "columns": [(s.name, s.width) for s in h.payload_specs],
        "row_stride_bits": stride,
        "payload_bits": h.r_prime * stride,
        "payload_bytes": len(h.payload),
        **records,
    }

"""Fixed-width integer columns and their bit-packed, row-major file format.

`pack_columns` writes column lists as one LSB-first bit stream, in which bit
b lives at bit (b mod 8) of byte b // 8, rows follow one another with no
padding, and the fields of a row are concatenated in column order, each at
its column's width. `unpack_columns` reads that stream back into one list
per column. Neither checks the values: the caller sizes the widths.

Eight rows of stride s bits span exactly s bytes, so both directions work on
8-row groups: one `int.to_bytes` or `int.from_bytes` per group, and shifts
within it, one pass per column.

`PackedMatrix` wraps the lists with named, checked column specs: `payload`
and `from_payload` call the packer and the unpacker, and `set_column`
checks each value against its column's width.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from .errors import BoundsError, InvalidSpecError, ValueOverflowError

MAX_WIDTH = 64


def min_width(value: int) -> int:
    """Smallest width w >= 1 such that 2**w > value."""
    if value < 0:
        raise ValueOverflowError("negative values cannot be packed")
    return max(1, value.bit_length())


def pack_columns(columns: Sequence[Sequence[int]], widths: Sequence[int]) -> bytes:
    """The rows of the equal-length columns packed into
    ceil(rows * sum(widths) / 8) bytes; each value must fit its width."""
    rows = len(columns[0]) if columns else 0
    s = sum(widths)
    groups = [0] * -(-rows // 8)
    off = 0
    for values, width in zip(columns, widths):
        o0, o1, o2, o3, o4, o5, o6, o7 = (s * k + off for k in range(8))
        it = iter(values)
        groups = [
            x | a << o0 | b << o1 | c << o2 | d << o3 | e << o4 | f << o5
            | g << o6 | h << o7
            for x, (a, b, c, d, e, f, g, h) in zip(
                groups, zip_longest(it, it, it, it, it, it, it, it, fillvalue=0)
            )
        ]
        off += width
    parts = [x.to_bytes(s, "little") for x in groups]
    if parts:
        # The last group may hold fewer than 8 rows: keep only its bytes.
        last = (rows * s + 7) // 8 - (len(parts) - 1) * s
        parts[-1] = groups[-1].to_bytes(last, "little")
    return b"".join(parts)


def unpack_columns(widths: Sequence[int], rows: int, payload: bytes) -> list[list[int]]:
    """One list per column from the first ceil(rows * sum(widths) / 8) bytes
    of payload; a shorter payload raises InvalidSpecError."""
    s = sum(widths)
    nbytes = (rows * s + 7) // 8
    if len(payload) < nbytes:
        raise InvalidSpecError("payload shorter than row_count * stride bits")
    if not s:
        return [[0] * rows for _ in widths]
    view = memoryview(payload)[:nbytes]
    groups = [int.from_bytes(view[i : i + s], "little") for i in range(0, nbytes, s)]
    columns = []
    off = 0
    for width in widths:
        mask = (1 << width) - 1
        shifts = [s * k + off for k in range(8)]
        values = [x >> t & mask for x in groups for t in shifts]
        del values[rows:]
        columns.append(values)
        off += width
    return columns


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise InvalidSpecError(
                f"column {self.name!r}: width {self.width} outside 1..{MAX_WIDTH}"
            )


class PackedMatrix:
    """A matrix of row_count rows and fixed-width columns: the given column
    lists, or zeros. values is taken as it is, unchecked: one list per column,
    each row_count long, each value fitting its column's width."""

    def __init__(self, columns: Sequence[ColumnSpec], row_count: int,
                 values: Optional[list[list[int]]] = None):
        if row_count < 0:
            raise InvalidSpecError("row_count must be >= 0")
        self.columns = tuple(
            c if isinstance(c, ColumnSpec) else ColumnSpec(*c) for c in columns
        )
        self.row_count = row_count
        self._col_index = {c.name: i for i, c in enumerate(self.columns)}
        self.row_stride_bits = sum(c.width for c in self.columns)
        self._cols = values if values is not None else [
            [0] * row_count for _ in self.columns]

    @property
    def payload_bits(self) -> int:
        return self.row_count * self.row_stride_bits

    @property
    def payload(self) -> bytes:
        """The rows packed into ceil(payload_bits / 8) bytes."""
        return pack_columns(self._cols, [c.width for c in self.columns])

    @classmethod
    def from_payload(
        cls, columns: Sequence[ColumnSpec], row_count: int, payload: bytes
    ) -> "PackedMatrix":
        """Unpack the first ceil(payload_bits / 8) bytes of payload."""
        widths = [c.width for c in columns]
        return cls(columns, row_count, unpack_columns(widths, row_count, payload))

    def column_of(self, name: str) -> int:
        try:
            return self._col_index[name]
        except KeyError:
            raise BoundsError(f"no column named {name!r}") from None

    def set_column(self, name: str, values: Iterable[int]) -> None:
        """Replace a whole column; nothing is written unless all row_count
        values fit."""
        col = self.column_of(name)
        values = list(values)
        if len(values) != self.row_count:
            raise BoundsError(
                f"column {name!r} needs {self.row_count} values, got {len(values)}"
            )
        if values:
            low, high = min(values), max(values)
            width = self.columns[col].width
            if low < 0 or high >> width:
                bad = low if low < 0 else high
                raise ValueOverflowError(f"value {bad} does not fit in {width} bits")
        self._cols[col] = values

    def get_column(self, name: str) -> list[int]:
        return list(self._cols[self.column_of(name)])

"""Row-contiguous bit-packed matrix with per-column fixed bitwidths.

Fields of one row are stored adjacent (row-major) so that a full row is read
with at most two word-sized loads. The logical bit stream is LSB-first: bit b
lives at bit (b mod 8) of byte b // 8, and fields within a row are concatenated
in column order with no per-row padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BoundsError, InvalidSpecError, ValueOverflowError

MAX_WIDTH = 64


def min_width(value: int) -> int:
    """Smallest width w >= 1 such that 2**w > value."""
    if value < 0:
        raise ValueOverflowError("negative values cannot be packed")
    return max(1, value.bit_length())


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
    """Zero-initialized fixed-width matrix over a contiguous bit buffer."""

    def __init__(self, columns: Sequence[ColumnSpec], row_count: int):
        if row_count < 0:
            raise InvalidSpecError("row_count must be >= 0")
        self.columns = tuple(
            c if isinstance(c, ColumnSpec) else ColumnSpec(*c) for c in columns
        )
        self.row_count = row_count
        self._col_index = {c.name: i for i, c in enumerate(self.columns)}
        offsets = []
        off = 0
        for c in self.columns:
            offsets.append(off)
            off += c.width
        self._offsets = tuple(offsets)
        self.row_stride_bits = off
        nbits = row_count * self.row_stride_bits
        self._payload = bytearray((nbits + 7) // 8)

    @property
    def payload(self) -> bytes:
        return bytes(self._payload)

    @property
    def payload_bits(self) -> int:
        return self.row_count * self.row_stride_bits

    @classmethod
    def from_payload(
        cls, columns: Sequence[ColumnSpec], row_count: int, payload: bytes
    ) -> "PackedMatrix":
        m = cls(columns, row_count)
        if len(payload) < len(m._payload):
            raise InvalidSpecError("payload shorter than row_count * stride bits")
        m._payload[:] = payload[: len(m._payload)]
        return m

    def column_of(self, name: str) -> int:
        try:
            return self._col_index[name]
        except KeyError:
            raise BoundsError(f"no column named {name!r}") from None

    def _bitpos(self, row: int, col: int) -> tuple[int, int]:
        if not 0 <= row < self.row_count:
            raise BoundsError(f"row {row} out of range 0..{self.row_count - 1}")
        if not 0 <= col < len(self.columns):
            raise BoundsError(f"column {col} out of range")
        return row * self.row_stride_bits + self._offsets[col], self.columns[col].width

    def get(self, row: int, col: int) -> int:
        bitpos, width = self._bitpos(row, col)
        byte0, shift = bitpos >> 3, bitpos & 7
        nbytes = (shift + width + 7) >> 3
        window = int.from_bytes(self._payload[byte0 : byte0 + nbytes], "little")
        return (window >> shift) & ((1 << width) - 1)

    def set(self, row: int, col: int, value: int) -> None:
        bitpos, width = self._bitpos(row, col)
        if value < 0 or value >> width:
            raise ValueOverflowError(
                f"value {value} does not fit in {width} bits"
            )
        byte0, shift = bitpos >> 3, bitpos & 7
        nbytes = (shift + width + 7) >> 3
        window = int.from_bytes(self._payload[byte0 : byte0 + nbytes], "little")
        mask = ((1 << width) - 1) << shift
        window = (window & ~mask) | (value << shift)
        self._payload[byte0 : byte0 + nbytes] = window.to_bytes(nbytes, "little")

    def set_column(self, name: str, values: Iterable[int]) -> None:
        col = self.column_of(name)
        for row, v in enumerate(values):
            self.set(row, col, v)

    def get_column(self, name: str) -> list[int]:
        col = self.column_of(name)
        return [self.get(row, col) for row in range(self.row_count)]

    def check_min_widths(self) -> None:
        """Verify each column uses the minimum width for its stored maximum."""
        for col, spec in enumerate(self.columns):
            mx = 0
            for row in range(self.row_count):
                v = self.get(row, col)
                if v > mx:
                    mx = v
            if self.row_count and spec.width != min_width(mx):
                raise InvalidSpecError(
                    f"column {spec.name!r}: width {spec.width} is not minimal "
                    f"for max value {mx}"
                )

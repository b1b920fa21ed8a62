"""Streaming algorithms driven by chained move queries: BWT inversion,
SA enumeration, DA enumeration, and an instrumented traversal driver.

Every walk steps with core.step and counts its fast forwards per step, so
the amortized bounds can be checked exactly. The streaming walks write to a
binary file object in blocks of _BLOCK entries: bytes for the text,
little-endian u64 values for SA and DA. Their working space is O(r').
"""

from __future__ import annotations

import io
import sys
from array import array
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, Optional

from .core import (
    EXPONENTIAL,
    IntervalTable,
    MoveCursor,
    QueryConfig,
    gallop,
    inverse,
    step,
)
from .errors import BoundsError, InvalidInputError, MissingColumnError
from .rlbwt import SENTINEL, DocBounds

# Entries buffered between two writes to the output file.
_BLOCK = 1 << 16


@dataclass
class TraversalStats:
    steps: int = 0
    total_fast_forwards: int = 0
    max_fast_forwards: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    total_probes: int = 0
    max_probes: int = 0

    @classmethod
    def from_histogram(cls, counts: list[int]) -> "TraversalStats":
        """Stats of a walk whose counts[ff] steps each took ff fast forwards.

        Probes are left at 0; only traverse_counted accounts for them.
        """
        stats = cls()
        for ff, count in enumerate(counts):
            if count:
                stats.histogram[ff] = count
                stats.steps += count
                stats.total_fast_forwards += ff * count
                stats.max_fast_forwards = ff
        return stats

    def check_consistency(self) -> None:
        if sum(self.histogram.values()) != self.steps:
            raise InvalidInputError("histogram does not sum to steps")
        if sum(f * c for f, c in self.histogram.items()) != self.total_fast_forwards:
            raise InvalidInputError("histogram-weighted sum != total fast forwards")


def _ff_counts(table: IntervalTable) -> list[int]:
    """Zeroed per-step fast-forward counts. On a valid table a query skips
    fewer boundaries than its interval's length and than r'."""
    return [0] * min(table.max_len, len(table))


def _require_extra(table: IntervalTable, name: str) -> list[int]:
    try:
        return table.extras[name]
    except KeyError:
        raise MissingColumnError(f"table lacks extra column {name!r}") from None


def _blocks(n: int) -> Iterator[int]:
    """Sizes of the consecutive blocks of at most _BLOCK entries that cover n."""
    return (min(_BLOCK, n - i) for i in range(0, n, _BLOCK))


def invert_bwt(table: IntervalTable, fp: BinaryIO) -> TraversalStats:
    """Write the text and then its sentinel to fp, in text order.

    Walks FL from row 0, the sentinel's row: each step lands on the row of
    the next suffix, whose first symbol is the FL interval's "sym" column.
    An LF table is inverted into FL first. A walk that writes the sentinel
    before the end has come back to row 0 early: FL is not one cycle, the
    table is the BWT of no text, and InvalidInputError is raised.
    """
    if table.kind == "lf":
        table = inverse(table)
    elif table.kind != "fl":
        raise InvalidInputError(
            f"inversion needs an LF or FL table, not kind {table.kind!r}"
        )
    sym = _require_extra(table, "sym")
    lengths = table.lengths
    dest_rank = table.dest_rank
    dest_offset = table.dest_offset
    counts = _ff_counts(table)
    buf = bytearray()
    put = buf.append
    j, k = 0, 0
    pos = 0
    for size in _blocks(table.n):
        for _ in range(size):
            j, k, ff = step(lengths, dest_rank, dest_offset, j, k)
            counts[ff] += 1
            put(sym[j])
        early = buf.find(SENTINEL)
        if early != -1 and pos + early != table.n - 1:
            raise InvalidInputError(
                f"sentinel at text position {pos + early} of {table.n}; "
                "the table is the BWT of no text"
            )
        pos += size
        fp.write(buf)
        buf.clear()
    return TraversalStats.from_histogram(counts)


def recover_text(table: IntervalTable) -> bytes:
    """The text with its trailing sentinel, from an LF or FL table."""
    out = io.BytesIO()
    invert_bwt(table, out)
    return out.getvalue()


def _require_phi(table: IntervalTable) -> None:
    """Only phi and phi-inverse map SA values to SA values; walking another
    kind would write one of its cycles, which is not the SA."""
    if table.kind not in ("phi", "phi_inv"):
        raise InvalidInputError(
            f"SA and DA walks need a phi or phi-inverse table, not {table.kind!r}"
        )


def _value_walk(
    table: IntervalTable,
    first_value: int,
    fp: BinaryIO,
    label: Optional[Callable[[int, int, int], int]],
) -> TraversalStats:
    """Shared n-step walk in value space from first_value. Writes each value
    v at cursor (j, k), or label(j, k, v) if a label is given, as u64."""
    if not 0 <= first_value < table.n:
        raise BoundsError(f"start value {first_value} out of range")
    starts = table.materialized_starts()
    lengths = table.lengths
    dest_rank = table.dest_rank
    dest_offset = table.dest_offset
    counts = _ff_counts(table)
    buf = array("Q")
    put = buf.append
    cur = table.cursor_of(first_value)
    j, k = cur.j, cur.k
    for size in _blocks(table.n):
        for _ in range(size):
            v = starts[j] + k
            put(v if label is None else label(j, k, v))
            j, k, ff = step(lengths, dest_rank, dest_offset, j, k)
            counts[ff] += 1
        if sys.byteorder == "big":
            buf.byteswap()
        fp.write(buf)
        del buf[:]
    return TraversalStats.from_histogram(counts)


def enumerate_sa(
    phi_inv_table: IntervalTable, first_sa: int, fp: BinaryIO
) -> TraversalStats:
    """Write SA[0..n-1] by chaining the lexicographic-successor permutation
    from SA[0] = n - 1. Works on a phi table too, writing the reverse order
    when started from SA[n-1]. Any other kind raises InvalidInputError."""
    _require_phi(phi_inv_table)
    return _value_walk(phi_inv_table, first_sa, fp, None)


def enumerate_da(
    phi_inv_table: IntervalTable,
    first_sa: int,
    fp: BinaryIO,
    bounds: Optional[DocBounds] = None,
) -> TraversalStats:
    """Write DA[0..n-1]: the document of each SA value in lexicographic order.

    Uses the per-interval (doc id, distance to next boundary) columns; an
    interval spanning several documents falls back to the bounds index.
    """
    _require_phi(phi_inv_table)
    doc0 = _require_extra(phi_inv_table, "doc")
    dist = _require_extra(phi_inv_table, "docdist")

    def label(j: int, k: int, v: int) -> int:
        if k < dist[j]:
            return doc0[j]
        if bounds is not None:
            return bounds.doc_of(v)
        raise InvalidInputError("interval spans several documents; bounds required")

    return _value_walk(phi_inv_table, first_sa, fp, label)


def traverse_counted(
    table: IntervalTable,
    start: MoveCursor,
    steps: int,
    config: QueryConfig = QueryConfig(),
) -> tuple[MoveCursor, TraversalStats]:
    """Chained move queries from `start`, aggregating fast-forward stats."""
    table._check_cursor(start)
    j, k = start.j, start.k
    dest_rank = table.dest_rank
    dest_offset = table.dest_offset
    counts = _ff_counts(table)
    if config.search == EXPONENTIAL:
        starts = table._require_starts()
        total_probes = max_probes = 0
        for _ in range(steps):
            j, k, ff, probes = gallop(starts, dest_rank, dest_offset, j, k)
            counts[ff] += 1
            total_probes += probes
            if probes > max_probes:
                max_probes = probes
        stats = TraversalStats.from_histogram(counts)
    else:
        lengths = table.lengths
        for _ in range(steps):
            j, k, ff = step(lengths, dest_rank, dest_offset, j, k)
            counts[ff] += 1
        stats = TraversalStats.from_histogram(counts)
        total_probes = stats.steps + stats.total_fast_forwards
        max_probes = stats.max_fast_forwards + 1 if stats.steps else 0
    stats.total_probes = total_probes
    stats.max_probes = max_probes
    return MoveCursor(j, k), stats

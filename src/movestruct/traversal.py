"""Streaming algorithms driven by chained move queries: BWT inversion,
SA enumeration, DA enumeration, and an instrumented traversal driver.

Every walk steps with core.step and counts its fast forwards per step, so
the amortized bounds can be checked exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Optional

from .core import EXPONENTIAL, IntervalTable, MoveCursor, QueryConfig, gallop, step
from .errors import BoundsError, InvalidInputError, MissingColumnError
from .rlbwt import DocBounds

_FLUSH_BYTES = 1 << 16


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


class ByteSink:
    """Byte stream destination: in-memory unless a file object is given."""

    def __init__(self, fileobj: Optional[BinaryIO] = None):
        self._file = fileobj
        self._buf = bytearray()

    def put(self, b: int) -> None:
        self._buf.append(b)
        if self._file is not None and len(self._buf) >= _FLUSH_BYTES:
            self._file.write(self._buf)
            self._buf.clear()

    def close(self) -> None:
        if self._file is not None and self._buf:
            self._file.write(self._buf)
            self._buf.clear()

    def data(self) -> bytes:
        if self._file is not None:
            raise InvalidInputError("file-backed sink holds no in-memory data")
        return bytes(self._buf)


class ValueSink:
    """Stream of 64-bit little-endian values."""

    def __init__(self, fileobj: Optional[BinaryIO] = None):
        self._file = fileobj
        self._values: list[int] = []
        self._buf = bytearray()

    def put(self, v: int) -> None:
        if self._file is None:
            self._values.append(v)
        else:
            self._buf += struct.pack("<Q", v)
            if len(self._buf) >= _FLUSH_BYTES:
                self._file.write(self._buf)
                self._buf.clear()

    def close(self) -> None:
        if self._file is not None and self._buf:
            self._file.write(self._buf)
            self._buf.clear()

    def data(self) -> list[int]:
        if self._file is not None:
            raise InvalidInputError("file-backed sink holds no in-memory data")
        return list(self._values)


def _require_extra(table: IntervalTable, name: str) -> list[int]:
    try:
        return table.extras[name]
    except KeyError:
        raise MissingColumnError(f"table lacks extra column {name!r}") from None


def invert_bwt(lf_table: IntervalTable, sink: ByteSink) -> TraversalStats:
    """Emit the text in reverse (sentinel first) by walking LF from row 0.

    Reversing the emitted stream yields the original text with its trailing
    sentinel. Needs the run symbol attached as extra column "sym".
    """
    sym = _require_extra(lf_table, "sym")
    put = sink.put
    lengths = lf_table.lengths
    dest_rank = lf_table.dest_rank
    dest_offset = lf_table.dest_offset
    counts = _ff_counts(lf_table)
    j, k = 0, 0
    for _ in range(lf_table.n):
        put(sym[j])
        j, k, ff = step(lengths, dest_rank, dest_offset, j, k)
        counts[ff] += 1
    sink.close()
    return TraversalStats.from_histogram(counts)


def recover_text(lf_table: IntervalTable) -> bytes:
    """Convenience wrapper: invert into memory and undo the reversal.

    The chain emits T[n-2], ..., T[0] and finally the sentinel, so the
    reversed stream starts with the sentinel, which belongs at the end.
    """
    sink = ByteSink()
    invert_bwt(lf_table, sink)
    data = sink.data()[::-1]
    return data[1:] + data[:1]


def _value_walk(table: IntervalTable, first_value: int, sink, emit):
    """Shared n-step walk in value space; emit(j, k, v) pushes to the sink."""
    if not 0 <= first_value < table.n:
        raise BoundsError(f"start value {first_value} out of range")
    starts = table.materialized_starts()
    lengths = table.lengths
    dest_rank = table.dest_rank
    dest_offset = table.dest_offset
    counts = _ff_counts(table)
    cur = table.cursor_of(first_value)
    j, k = cur.j, cur.k
    for _ in range(table.n):
        emit(j, k, starts[j] + k)
        j, k, ff = step(lengths, dest_rank, dest_offset, j, k)
        counts[ff] += 1
    sink.close()
    return TraversalStats.from_histogram(counts)


def enumerate_sa(
    phi_inv_table: IntervalTable, first_sa: int, sink: ValueSink
) -> TraversalStats:
    """Emit SA[0..n-1] by chaining the lexicographic-successor permutation
    from SA[0] = n - 1. Works on a phi table too, emitting the reverse order
    when started from SA[n-1]."""
    put = sink.put

    def emit(j: int, k: int, v: int) -> None:
        put(v)

    return _value_walk(phi_inv_table, first_sa, sink, emit)


def enumerate_da(
    phi_inv_table: IntervalTable,
    first_sa: int,
    sink: ValueSink,
    bounds: Optional[DocBounds] = None,
) -> TraversalStats:
    """Emit DA[0..n-1]: the document of each SA value in lexicographic order.

    Uses the per-interval (doc id, distance to next boundary) columns; an
    interval spanning several documents falls back to the bounds index.
    """
    doc0 = _require_extra(phi_inv_table, "doc")
    dist = _require_extra(phi_inv_table, "docdist")
    put = sink.put

    def emit(j: int, k: int, v: int) -> None:
        if k < dist[j]:
            put(doc0[j])
        elif bounds is not None:
            put(bounds.doc_of(v))
        else:
            raise InvalidInputError(
                "interval spans several documents; bounds required"
            )

    return _value_walk(phi_inv_table, first_sa, sink, emit)


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

"""Streaming algorithms driven by chained move queries: BWT inversion,
SA enumeration, DA enumeration, and an instrumented traversal driver.

Each walk runs on a block kernel that does only the work its caller reads,
with the fast-forward loop inlined. Inversion and the DA walk run on
core.walk, which hands a C-level sink the column value of the interval each
query leaves, and the SA walk on core.position_walk, which hands it each
position; neither counts: each walk is a full cycle of n steps, so its
stats are cycle_profile(table), made in O(r') with no walk. Linear
traverse_counted runs on core.counted_walk, which counts fast forwards and
emits nothing, and exponential traverse_counted on core.gallop_walk, which
searches as IntervalTable.move does and counts its probes too. Every walk's
stats, probes included, are the sums of the MoveResults of the same queries
made one IntervalTable.move at a time; _walk_stats makes them from
fast-forward counts. traverse_counted's counts start at _FF_SLOTS and grow
on demand, so its fixed cost does not grow with L or r'.

The three streaming walks share one block loop, which hands each block of
_BLOCK entries to a writer. Inversion walks LF (or FL, inverted first) from
row 0, which meets the text back to front: it emits the symbol column into a
bytearray and writes each block reversed at its offset in a seekable file.
The SA walk emits the positions it leaves, which on phi-inverse are the SA
values, straight into an array("Q"); the DA walk emits the doc column of the
table cut at its d document starts. Both write little-endian u64 values in
order, chain phi-inverse from SA[0] = n - 1 and refuse any other kind before
they write. Working space is O(r'), O(r' + d) for DA, plus one block.

The block loop holds the one rule that proves a walk is one cycle: a walk
fixes one value, starts one move past it, and refuses, unwritten, any block
of its other n - 1 steps that holds its marker. Inversion writes its marker,
the sentinel, after its steps, and the SA walk n - 1 before them; the DA
walk writes d - 1 first and refuses the document that [n - 1, n) has to
itself. So a walk that ends is one cycle, with the stats of its walk.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import add, mul, sub
from typing import Any, BinaryIO, Callable, Optional

from . import rlbwt
from .core import (
    EXPONENTIAL,
    IntervalTable,
    QueryConfig,
    counted_walk,
    gallop_walk,
    inverse,
    position_walk,
    walk,
)
from .errors import InvalidInputError, InvalidParameterError, MissingColumnError

# Entries buffered between two writes to the output file.
_BLOCK = 1 << 16
# Fast-forward counts a walk starts with, whatever the table; the kernels
# grow them for a query that skips more boundaries.
_FF_SLOTS = 16


@dataclass
class TraversalStats:
    steps: int = 0
    total_fast_forwards: int = 0
    max_fast_forwards: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    total_probes: int = 0
    max_probes: int = 0


def _walk_stats(counts: list[int], steps: int) -> TraversalStats:
    """Stats of `steps` linear queries whose counts hold only the queries
    that fast-forwarded; the rest took none. A linear query probes one more
    length than it skips, so these are the sums of the MoveResults of the
    same queries made one IntervalTable.move at a time."""
    counts[0] = steps - sum(counts)
    ffs = list(compress(range(len(counts)), counts))
    histogram = dict(zip(ffs, compress(counts, counts)))
    total = sum(map(mul, ffs, histogram.values()))
    top = ffs[-1] if ffs else 0
    return TraversalStats(
        steps, total, top, histogram, steps + total, top + 1 if steps else 0
    )


def cycle_profile(table: IntervalTable) -> TraversalStats:
    """The stats of n linear queries, one from each position, with no walk:
    those of a walk of n steps when the table is one cycle, and the sums of
    the MoveResults of IntervalTable.move from every position whatever its
    cycles.

    The query of offset k in interval j lands at offset dest_offset[j] + k
    of j's destination q. Only an interval whose image runs past q's end
    skips boundaries: its positions past that end fill q + 1, q + 2, ... in
    order, and those in the d-th interval crossed skip d. The images tile
    [0, n), so the scans cross each interval start at most once: O(r').
    """
    lengths = table.lengths
    dest_rank = table.dest_rank
    # A query skips fewer boundaries than there are intervals.
    counts = [0] * len(lengths)
    # How far each image runs past its destination's end, where it does.
    over = list(map(sub, map(add, table.dest_offset, lengths),
                    map(lengths.__getitem__, dest_rank)))
    for q, rest in zip(dest_rank, over):
        ff = 0
        while rest > 0:
            q += 1
            ff += 1
            ell = lengths[q]
            counts[ff] += rest if rest < ell else ell
            rest -= ell
    return _walk_stats(counts, table.n)


def _block_walk(
    table: IntervalTable,
    write: Callable[[Any], object],
    kernel: Callable[..., tuple[int, int]],
    state: tuple[int, int],
    buf: Any,
    marker: bytes,
    error: Callable[[int], str],
) -> TraversalStats:
    """n - 1 chained steps from state, in blocks, after any value buf holds:
    kernel(*state, size, put=...) walks a block, putting one value per step
    into buf, and returns the state the next block starts from. Each block
    is encoded, a bytearray as it is and an array("Q") little-endian,
    handed to write, and emptied. A one-cycle walk from one move past a
    fixed value puts the value encoded as marker at none of its steps. A
    block whose steps hold it raises InvalidInputError, with error() of the
    index of the first, before it is written. So a walk that ends is one
    cycle, and the cycle_profile(table) returned is the stats of its n moves.

    A marker of one significant byte, as small DA values have, is searched
    by that byte alone, since its zero bytes would match almost every byte
    of the other values; a hit counts only where the whole marker lies at
    an aligned offset."""
    width = len(marker)
    low = marker.rstrip(b"\0")
    needle = low if len(low) == 1 else marker
    end = table.n - 1 + len(buf)
    for i in range(0, end, _BLOCK):
        fixed = len(buf)
        state = kernel(*state, min(_BLOCK, end - i) - fixed, put=buf.append)
        if isinstance(buf, array) and sys.byteorder == "big":
            buf.byteswap()
        # Values as bytes, where unaligned matches straddle two values.
        data = buf.tobytes() if width > 1 else buf
        j = data.find(needle, fixed * width)
        while j != -1 and (j % width or data[j : j + width] != marker):
            j = data.find(needle, j + 1)
        if j != -1:
            raise InvalidInputError(error(i + j // width))
        write(data)
        del buf[:]
    return cycle_profile(table)


def invert_bwt(table: IntervalTable, fp: BinaryIO) -> TraversalStats:
    """Write the text and then its sentinel to fp, in text order.

    Walks LF (FL is inverted first) from row 0, the row of suffix n - 1:
    step t leaves the row of suffix n - 1 - t, whose "sym" is text[n - 2 - t],
    so each block is written reversed at its offset, and the sentinel last.
    The interval that LF maps onto row 0 must hold the sentinel, symbols
    must be bytes and fp seekable, or InvalidInputError is raised before
    anything is written. A step that leaves the sentinel has come back to
    row 0 early: LF is not one cycle, the table is the BWT of no text, and
    InvalidInputError is raised before that block is written. So a walk
    that ends is one cycle, and its stats are those of the walk.
    """
    if table.kind == "fl":
        table = inverse(table)
    elif table.kind != "lf":
        raise InvalidInputError(
            f"inversion needs an LF or FL table, not kind {table.kind!r}"
        )
    sym = table.extras.get("sym")
    if sym is None:
        raise MissingColumnError(
            "table lacks extra column 'sym'; inversion reads the BWT symbols")
    if min(sym) < 0 or max(sym) > 255:
        raise InvalidInputError("symbol column holds a value that is not a byte")
    if (last := sym[table.images().index(0)]) != rlbwt.SENTINEL:
        raise InvalidInputError(
            f"the interval that LF maps onto row 0 holds symbol {last}, not the "
            "sentinel; the table is the BWT of no text")
    if not fp.seekable():
        raise InvalidInputError("inversion writes back to front; the output must be seekable")
    n = table.n
    end = fp.tell() + n - 1

    def write(block: bytearray) -> None:
        nonlocal end
        block.reverse()
        end -= len(block)
        fp.seek(end)
        fp.write(block)

    kernel = partial(walk, table.lengths, table.dest_rank, table.dest_offset, col=sym)
    stats = _block_walk(
        table, write, kernel, (0, 0), bytearray(), bytes([rlbwt.SENTINEL]),
        lambda t: f"sentinel at text position {n - 2 - t} of {n}; "
                  "the table is the BWT of no text")
    fp.seek(end + n - 1)
    fp.write(bytes([rlbwt.SENTINEL]))
    return stats


def _check_sa_kind(table: IntervalTable) -> None:
    """The SA and DA walks start at SA[0] = n - 1 and chain phi-inverse, the
    lexicographic successor; from there any other kind writes one of its own
    cycles, which is not the SA."""
    if table.kind != "phi_inv":
        raise InvalidInputError(
            f"SA and DA walks need a phi-inverse table, not kind {table.kind!r}"
        )


def enumerate_sa(table: IntervalTable, fp: BinaryIO) -> TraversalStats:
    """Write SA[0..n-1] by chaining phi-inverse from SA[0] = n - 1. A table
    of any other kind raises InvalidInputError before anything is written.

    After n - 1, the walk takes n - 1 steps from SA[1]. It carries the
    position, which for phi-inverse is the SA value (core.position_walk), so
    each step appends its value straight into the block's array. A step that
    meets n - 1 again has come back to SA[0] early: phi-inverse is not one
    cycle, and InvalidInputError is raised before that block is written. So
    a walk that ends is one cycle, and its stats are those of the walk.
    """
    _check_sa_kind(table)
    n = table.n
    starts = table.starts
    kernel = partial(position_walk, starts[1:] + [n], table.dest_rank,
                     list(map(sub, table.images(), starts)))
    j, k = table.move(table.cursor_of(n - 1)).cursor
    return _block_walk(
        table, fp.write, kernel, (j, starts[j] + k), array("Q", [n - 1]),
        (n - 1).to_bytes(8, "little"),
        f"SA value {n - 1} again at position {{}}; phi-inverse is not one cycle".format)


def enumerate_da(
    table: IntervalTable,
    fp: BinaryIO,
    bounds: Optional[rlbwt.DocBounds] = None,
) -> TraversalStats:
    """Write DA[0..n-1], the document of each SA value, by the walk of
    enumerate_sa on the table cut at document starts (rlbwt.cut_at_documents),
    emitting its "doc" column. The cut is at bounds, in place of any doc
    columns the table holds, or else at those that its columns describe
    (rlbwt.doc_bounds_of, which raises on missing or inconsistent ones),
    and at n - 1, whose "doc" value no other position then has. After
    DA[0] = d - 1, a step that meets it has come back to SA[0] early, and
    InvalidInputError is raised before that block is written. Every other
    error is raised before anything is written. The stats are the cut
    table's cycle_profile, which is those of the walk.
    """
    _check_sa_kind(table)
    if bounds is None:
        bounds = rlbwt.doc_bounds_of(table)
    n = table.n
    cut = rlbwt.cut_at_documents(table, rlbwt.DocBounds(sorted({*bounds.starts, n - 1})))
    doc = cut.extras["doc"]
    start = cut.move(cut.cursor_of(n - 1)).cursor
    kernel = partial(walk, cut.lengths, cut.dest_rank, cut.dest_offset, col=doc)
    return _block_walk(
        cut, fp.write, kernel, start, array("Q", [len(bounds.starts) - 1]),
        doc[-1].to_bytes(8, "little"),
        f"SA value {n - 1} again at position {{}}; phi-inverse is not one cycle".format)


def traverse_counted(
    table: IntervalTable,
    start: tuple[int, int],
    steps: int,
    config: QueryConfig = QueryConfig(),
) -> tuple[tuple[int, int], TraversalStats]:
    """`steps` chained move queries from `start`, with the end cursor (j, k)
    and the stats of the same queries made one IntervalTable.move at a time.
    A count below 0 or above sys.maxsize raises InvalidParameterError, and a
    cursor outside the table BoundsError."""
    if not 0 <= steps <= sys.maxsize:
        raise InvalidParameterError(
            f"steps must be in 0..{sys.maxsize}, got {steps}"
        )
    table.position_of(start)
    j, k = start
    lengths = table.lengths
    dest_rank = table.dest_rank
    dest_offset = table.dest_offset
    counts = [0] * _FF_SLOTS
    if config.search != EXPONENTIAL:
        j, k = counted_walk(lengths, dest_rank, dest_offset, j, k, steps, counts)
        return (j, k), _walk_stats(counts, steps)
    j, k, *probes = gallop_walk(
        table.starts, lengths, dest_rank, dest_offset, j, k, steps, counts
    )
    stats = _walk_stats(counts, steps)
    stats.total_probes, stats.max_probes = probes
    return (j, k), stats

"""Shared generators and measurement helpers for the test suite."""

from __future__ import annotations

import bisect
import io
import random
import struct
import zlib
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate

from movestruct import (
    DocBounds,
    IntervalTable,
    InvalidInputError,
    InvalidParameterError,
    InvalidSpecError,
    PackedMatrix,
    TraversalStats,
    invert_bwt,
    min_width,
)
from movestruct.core import interval_columns, run_columns

ALPHABET = b"abcd"

# Split-parameter grid shared by the property and acceptance suites.
CAPS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(8))
ALPHAS = (0, 2, 8)

# Reference 16-element permutation used as a hand-checked regression fixture.
REF_PERM = [1, 2, 9, 10, 11, 3, 12, 13, 4, 5, 14, 0, 15, 6, 7, 8]
REF_STARTS = [0, 2, 5, 6, 8, 10, 11, 12, 13]
REF_IMAGES = [1, 9, 3, 12, 4, 14, 0, 15, 6]
REF_DEST_RANK = [0, 4, 1, 7, 1, 8, 0, 8, 3]


def random_text(rng: random.Random, lo: int = 2, hi: int = 2000) -> bytes:
    sigma = rng.randint(1, 4)
    n = rng.randint(lo, hi)
    return bytes(rng.choice(ALPHABET[:sigma]) for _ in range(n))


def repetitive_text(
    rng: random.Random,
    copies: int = 8,
    seed_len: int = 256,
    mutations: int = 5,
) -> bytes:
    """Concatenation of mutated copies of one random seed."""
    seed = bytes(rng.choice(ALPHABET) for _ in range(seed_len))
    parts = []
    for _ in range(copies):
        b = bytearray(seed)
        for _ in range(mutations):
            b[rng.randrange(seed_len)] = rng.choice(ALPHABET)
        parts.append(bytes(b))
    return b"".join(parts)


def run_blocks_text(
    rng: random.Random, blocks: int, lo: int, hi: int, alphabet: bytes = b"ab"
) -> bytes:
    """Alternating same-symbol blocks of varying length (adjacent distinct)."""
    out = []
    prev = None
    for _ in range(blocks):
        sym = rng.choice([bytes([s]) for s in alphabet if s != prev])
        prev = sym[0]
        out.append(sym * rng.randrange(lo, hi))
    return b"".join(out)


def adversarial_permutation(n: int, blocks: int) -> list[int]:
    """Permutation whose single long interval fast-forwards across every
    second-half start: [0, n/2) maps onto [n/2, n) contiguously, and the
    second half is cut into `blocks` pieces mapped back in reversed block
    order so no two adjacent pieces merge into one run."""
    half = n // 2
    if half % blocks:
        raise ValueError("blocks must divide n/2")
    m = half // blocks
    pi = [0] * n
    for i in range(half):
        pi[i] = i + half
    for b in range(blocks):
        src = half + b * m
        dst = (blocks - 1 - b) * m
        for k in range(m):
            pi[src + k] = dst + k
    return pi


def random_runny_permutation(
    rng: random.Random, n: int, runs: int
) -> list[int]:
    """Permutation assembled from `runs` contiguous blocks in shuffled order."""
    runs = min(runs, n)
    cuts = sorted(rng.sample(range(1, n), runs - 1)) if runs > 1 else []
    order = list(range(runs))
    rng.shuffle(order)
    return runny_permutation([0] + cuts + [n], order)


def runny_permutation(bounds: list[int], order: list[int]) -> list[int]:
    """Permutation that maps the blocks [bounds[b], bounds[b + 1]), taken in
    the given order, onto consecutive positions."""
    pi = [0] * bounds[-1]
    pos = 0
    for b in order:
        lo, hi = bounds[b], bounds[b + 1]
        for i in range(lo, hi):
            pi[i] = pos
            pos += 1
    return pi


def skewed_runny_permutation(rng: random.Random) -> list[int]:
    """Runs of 1-3 positions with a few long ones among them, in a random
    order on each side, so that a long run's image covers many starts and
    balance has splits to make."""
    lengths = [rng.randint(1, 3) for _ in range(rng.randint(1, 200))]
    lengths += [rng.randint(8, 300) for _ in range(rng.randint(0, 8))]
    rng.shuffle(lengths)
    order = list(range(len(lengths)))
    rng.shuffle(order)
    return runny_permutation(list(accumulate(lengths, initial=0)), order)


def sweep_fast_forwards(table: IntervalTable) -> tuple[int, int]:
    """(total, max) fast forwards over every query, by actually querying."""
    total = worst = 0
    for j in range(len(table)):
        for k in range(table.lengths[j]):
            ff = table.move((j, k)).fast_forwards
            total += ff
            if ff > worst:
                worst = ff
    return total, worst


def doubling_search(table: IntervalTable, cur: tuple[int, int]) -> tuple[int, int, int, int]:
    """Reference exponential search for the move of cur: (q, off, ff, probes).

    Doubles the step from the destination rank q0 until a start beyond the
    image p (or the table end) brackets it, then bisects, and counts every
    start it reads. It takes no early exit, so it pins the probe counts that
    the early exits of IntervalTable.move must reproduce.
    """
    starts = table.starts
    r = len(starts)
    j, k = cur
    q0 = table.dest_rank[j]
    p = starts[q0] + table.dest_offset[j] + k
    probes = 0
    lo, span = q0, 1
    while q0 + span < r:
        probes += 1
        if starts[q0 + span] > p:
            break
        lo = q0 + span
        span <<= 1
    a, b = lo, min(q0 + span, r)
    while b - a > 1:
        mid = (a + b) >> 1
        probes += 1
        if starts[mid] <= p:
            a = mid
        else:
            b = mid
    return a, p - starts[a], a - q0, probes


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def validate_by_sort(table: IntervalTable) -> None:
    """Reference for IntervalTable.validate: the same checks and messages,
    with the tiling checked by sorting (image, length) pairs."""
    lengths = table.lengths
    r = len(lengths)
    if r == 0 or table.n <= 0:
        raise InvalidInputError("empty table")
    if len(table.dest_rank) != r or len(table.dest_offset) != r:
        raise InvalidInputError("core columns differ in length")
    if min(lengths) < 1:
        raise InvalidInputError("zero-length interval")
    if sum(lengths) != table.n:
        raise InvalidInputError("interval lengths do not sum to n")
    for j, (q, off) in enumerate(zip(table.dest_rank, table.dest_offset)):
        if not 0 <= q < r:
            raise InvalidInputError(f"dest_rank[{j}] out of range")
        if not 0 <= off < lengths[q]:
            raise InvalidInputError(
                f"dest_offset[{j}]={off} not below len[{q}]={lengths[q]}"
            )
    starts = table.starts
    images = [starts[q] + off for q, off in zip(table.dest_rank, table.dest_offset)]
    pos = 0
    for v, ell in sorted(zip(images, lengths)):
        if v != pos:
            raise InvalidInputError("interval images do not tile [0, n)")
        pos += ell
    for name, vals in table.extras.items():
        if len(vals) != r:
            raise InvalidInputError(f"extra column {name!r} has wrong length")


def _inside_count(sorted_starts: list[int], image: int, length: int) -> int:
    """Interval starts strictly inside the output interval (image, image+length)."""
    return bisect.bisect_left(sorted_starts, image + length) - bisect.bisect_right(
        sorted_starts, image
    )


def balance_by_lists(t: IntervalTable, alpha: int) -> IntervalTable:
    """Reference for splitting.balance: the same work queue over violators,
    each split at the offset of the alpha-th start contained in its output
    interval, with the ordered indexes over starts and images kept as flat
    sorted lists and each new piece's count recounted by bisection."""
    if alpha < 2:
        raise InvalidParameterError("alpha must be >= 2")
    starts0, images0 = t.starts, t.images()
    r = len(starts0)

    # Interval records indexed by a stable id; order recovered at the end.
    start_ = list(starts0)
    image_ = list(images0)
    len_ = list(t.lengths)
    src_ = list(range(r))
    sorted_starts = list(starts0)  # already sorted
    # Output intervals partition the domain: (image, id) sorted by image.
    by_image = sorted(zip(images0, range(r)))
    img_keys = [v for v, _ in by_image]
    img_ids = [i for _, i in by_image]

    cnt = [_inside_count(sorted_starts, image_[i], len_[i]) for i in range(r)]
    limit = 2 * alpha
    queue = deque(i for i in range(r) if cnt[i] >= limit)
    queued = set(queue)

    def enqueue(i: int) -> None:
        if cnt[i] >= limit and i not in queued:
            queue.append(i)
            queued.add(i)

    while queue:
        i = queue.popleft()
        queued.discard(i)
        if cnt[i] < limit:
            continue
        v, ell = image_[i], len_[i]
        idx = bisect.bisect_right(sorted_starts, v) + alpha - 1
        s_split = sorted_starts[idx]
        d = s_split - v  # 0 < d < ell since s_split is strictly inside
        new_id = len(start_)
        p_new = start_[i] + d
        start_.append(p_new)
        image_.append(s_split)
        len_.append(ell - d)
        src_.append(src_[i])
        len_[i] = d
        cnt[i] = _inside_count(sorted_starts, v, d)
        cnt.append(_inside_count(sorted_starts, s_split, ell - d))
        pos = bisect.bisect_left(img_keys, s_split)
        img_keys.insert(pos, s_split)
        img_ids.insert(pos, new_id)
        # The new domain start lands inside exactly one output interval.
        bisect.insort(sorted_starts, p_new)
        owner_pos = bisect.bisect_right(img_keys, p_new) - 1
        owner = img_ids[owner_pos]
        if p_new > img_keys[owner_pos]:
            cnt[owner] += 1
            enqueue(owner)
        enqueue(i)
        enqueue(new_id)

    # sorted_starts holds every start_ in order, so it is the new start column.
    order = sorted(range(len(start_)), key=start_.__getitem__)
    return t.replace(
        **interval_columns(t.n, sorted_starts, [image_[i] for i in order]),
        extras=run_columns(t, [src_[i] for i in order]), alpha=alpha,
    )


def refine_by_search(t: IntervalTable, new: list[int], alpha: int = 0) -> IntervalTable:
    """core.refine by one merge of the sorted positions new into t.starts
    and a search of every image among the merged starts
    (core.interval_columns): the reference that refine's forward cursor
    must match."""
    starts = t.starts
    cut, src = [], []
    i, m = 0, len(new)
    for j, (s, ell) in enumerate(zip(starts, t.lengths)):
        cut.append(s)
        src.append(j)
        while i < m and new[i] < s + ell:
            if new[i] > cut[-1]:
                cut.append(new[i])
                src.append(j)
            i += 1
    images = t.images()
    return t.replace(
        **interval_columns(
            t.n, cut, [images[j] + p - starts[j] for p, j in zip(cut, src)]),
        extras=run_columns(t, src), alpha=alpha,
    )


def doc_of(bounds: DocBounds, position: int) -> int:
    """The document that position lies in."""
    return bisect_right(bounds.starts, position) - 1


def recover_text(table: IntervalTable) -> bytes:
    """The text with its trailing sentinel, from an LF or FL table."""
    out = io.BytesIO()
    invert_bwt(table, out)
    return out.getvalue()


def rl_file_bytes(
    runs: list[tuple[int, int]], head_sa: list[int], tail_sa: list[int]
) -> bytes:
    """An .rl v2 file, written field by field as the layout in the rlbwt
    module's docstring, so that it can hold samples that no Rlbwt holds."""
    n, r = sum(l for _, l in runs), len(runs)
    body = bytes([2]) + struct.pack("<QQ", n, r)
    body += b"".join(struct.pack("<BQ", c, l) for c, l in runs)
    body += struct.pack(f"<{2 * r}Q", *head_sa, *tail_sa)
    return b"RLBW" + body + struct.pack("<I", zlib.crc32(body))


def check_min_widths(m: PackedMatrix) -> None:
    """Raise InvalidSpecError unless each column has the minimum width for
    its largest value."""
    for spec in m.columns:
        values = m.get_column(spec.name)
        if values and spec.width != min_width(max(values)):
            raise InvalidSpecError(
                f"column {spec.name!r}: width {spec.width} is not minimal "
                f"for max value {max(values)}"
            )


def check_consistency(stats: TraversalStats) -> None:
    """Raise InvalidInputError unless the histogram agrees with the steps and
    the total fast forwards."""
    if sum(stats.histogram.values()) != stats.steps:
        raise InvalidInputError("histogram does not sum to steps")
    if sum(f * c for f, c in stats.histogram.items()) != stats.total_fast_forwards:
        raise InvalidInputError("histogram-weighted sum != total fast forwards")


def rows_of(m: PackedMatrix) -> list[list[int]]:
    """The matrix's cells, row by row, read through get_column."""
    return [list(row) for row in zip(*(m.get_column(c.name) for c in m.columns))]


def reference_pack(widths: list[int], rows: list[list[int]]) -> bytes:
    """The layout of the bitpack module docstring, one bit at a time: the
    fields of each row in column order, bit b of the stream at bit b mod 8
    of byte b // 8."""
    bits = [(v >> i) & 1 for row in rows for w, v in zip(widths, row) for i in range(w)]
    out = bytearray((len(bits) + 7) // 8)
    for b, bit in enumerate(bits):
        out[b // 8] |= bit << (b % 8)
    return bytes(out)


def mv_file_bytes(table: IntervalTable, version: int = 5) -> bytes:
    """A .mv file of version 5, or of version 4, written field by field as
    the layout in the files module's docstring: each column at the width of
    its largest value; in version 5 an ord column, the intervals sorted by
    their images, and in version 4 off and rank columns, but neither for an
    LF table with sym; the sym column as ranks, a doc pair as one record per
    document up to the last that "doc" names, found by one scan of the
    intervals, and the records and the payload packed by reference_pack.
    Version 4 is the three-column layout of the original move structure, a
    start or a length, an offset and a rank a row, which load_move now
    refuses; it stays as the baseline that criterion 8 measures against."""
    first = ("start", table.starts) if table.mode == "abs" else ("len", table.lengths)
    cols = dict([first])
    if version == 4 and not (table.kind == "lf" and "sym" in table.extras):
        cols.update(off=table.dest_offset, rank=table.dest_rank)
    elif version == 5 and not (table.kind == "lf" and "sym" in table.extras):
        images = [table.starts[q] + off for q, off in zip(table.dest_rank, table.dest_offset)]
        cols["ord"] = sorted(range(len(table)), key=images.__getitem__)
    cols.update(table.extras)
    symbols = bytes(sorted(set(cols.get("sym", []))))
    if "sym" in cols:
        cols["sym"] = [symbols.index(c) for c in cols["sym"]]
    records = {}
    if "doc" in cols and "docdist" in cols:
        d = max(cols["doc"], default=-1) + 1
        counts, ends = [0] * d, [0] * d
        for k, start, dist in zip(cols["doc"], table.starts, cols["docdist"]):
            counts[k] += 1
            ends[k] = start + dist
        records = {"doc": counts, "docdist": ends}
    widths = {name: max(1, max(records.get(name, vals), default=0).bit_length())
              for name, vals in cols.items()}
    cap = table.cap or Fraction(0)
    kinds = ("generic", "lf", "fl", "phi", "phi_inv")
    body = bytes([version, ("abs", "rel").index(table.mode), kinds.index(table.kind)])
    body += struct.pack("<7QI", table.n, len(table), table.cap_len, cap.numerator,
                        cap.denominator, table.alpha, table.source_runs, len(cols))
    for name, width in widths.items():
        body += bytes([len(name)]) + name.encode() + bytes([width])
    if "sym" in cols:
        body += struct.pack("<H", len(symbols)) + symbols
    if records:
        body += struct.pack("<I", d) + reference_pack(
            [widths["doc"], widths["docdist"]], [list(row) for row in zip(counts, ends)])
    payload = [name for name in cols if name not in records]
    body += reference_pack([widths[name] for name in payload],
                           [list(row) for row in zip(*(cols[name] for name in payload))])
    return b"RPMV" + body + struct.pack("<I", zlib.crc32(body))

"""Interval-splitting transforms: length capping and alpha-balancing.

Both consume and produce an IntervalTable and preserve the evaluated
permutation exactly; only the interval partition gets finer. Each piece
copies the extra columns of the interval it is cut from, which is right
only for the run-constant columns in core.RUN_COLUMNS; any other column
raises InvalidInputError. bounds(t) is the one statement of the bounds
they give, which movestruct verify prints line by line.

length_cap is one O(r') pass: one forward cursor places its cuts, with no
search. balance pays per split it makes: it keeps the interval starts and
the output images in two blocked sorted lists (sorted blocks of fewer than
2 * _BLOCK values plus a list of block heads), so that finding the alpha-th
start after an image, the output interval that holds a new start, and each
insert cost two bisects and a shift within one block. The count of starts
inside each output interval is updated exactly at each split, with no
recount. Each split costs O(log r' + _BLOCK + alpha) amortized; setting up
the indexes adds O(r' log r') at C level, and core.refine reads the table
out in O(r' + m + A log m) for m splits, A of the images landing in a split
interval.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from itertools import accumulate, compress, repeat
from operator import add, index, le, lt, sub

from .core import CapFactor, IntervalTable, _cap_factor, cap_length, refine, run_columns
from .errors import InvalidParameterError
from .traversal import cycle_profile

# Values per block of balance's sorted indexes: blocks start with at most
# _BLOCK values and are cut in two when they reach 2 * _BLOCK.
_BLOCK = 512


def length_cap(t: IntervalTable, c: CapFactor) -> IntervalTable:
    """Split intervals longer than L = ceil(c * n / r) into uniform pieces.

    r is the source table's run count, kept even when re-capping an already
    split table so the interval-count bound stays phrased in the original r.
    The new starts can break a balance, so alpha resets to 0: cap first,
    then balance.

    One pass in O(r') time, with no sort and no search. Piece m of interval
    j maps onto source cursor (dest_rank[j], dest_offset[j] + m*L); it is the
    cursor of piece m - 1 advanced by L and fast-forwarded over the lengths.
    Source interval q splits into pieces from first[q] on, so that cursor
    (q, off) is piece cursor (first[q] + off // L, off % L). The images of
    the intervals tile [0, n), so the fast forwards of the whole pass sum to
    fewer than r.
    """
    c = _cap_factor(c)
    L = cap_length(t.n, t.source_runs, c)
    lengths = t.lengths
    first = list(accumulate(((ell - 1) // L + 1 for ell in lengths), initial=0))

    new_lens: list[int] = []
    dest_rank: list[int] = []
    dest_offset: list[int] = []
    src: list[int] = []  # originating interval, for extras
    for j, ell in enumerate(lengths):
        q = t.dest_rank[j]
        off = t.dest_offset[j]
        while True:
            while off >= lengths[q]:
                off -= lengths[q]
                q += 1
            piece, off_in = divmod(off, L)
            dest_rank.append(first[q] + piece)
            dest_offset.append(off_in)
            src.append(j)
            if ell <= L:
                new_lens.append(ell)
                break
            new_lens.append(L)
            ell -= L
            off += L

    return t.replace(
        lengths=new_lens, dest_rank=dest_rank, dest_offset=dest_offset,
        extras=run_columns(t, src), cap=c, alpha=0,
    )


def bounds(t: IntervalTable) -> list[tuple[str, int, int, bool]]:
    """The bounds t's header claims, as (line, value, limit, holds), with
    cycle_profile(t)'s fast forwards, in O(r'). Capping at c claims lengths
    and per-query fast forwards up to L = t.cap_len, which follows from n, r
    and c, and at most floor(n(c+1)) in all; balancing fewer than 2*alpha
    per query. Intervals: r, plus floor(n/L) after capping, plus
    ceil(R/(alpha-1)) of the R before."""
    prof = cycle_profile(t)
    ff, n, L, alpha = prof.max_fast_forwards, t.n, t.cap_len, t.alpha
    limit = t.source_runs + (L and n // L)
    rows = [("max interval length {} <= L {}", t.max_len, L, le),
            ("per-query fast forwards {} <= L {}", ff, L, le),
            ("total fast forwards {} <= n*(c+1) {}",
             prof.total_fast_forwards, n * (t.cap + 1) // 1, le)] if t.cap else []
    if alpha >= 2:
        rows.append(("per-query fast forwards {} < 2*alpha {}", ff, 2 * alpha, lt))
        limit += -(-limit // (alpha - 1))
    rows.append(("intervals {} <= {}", len(t), limit, le))
    return [(line.format(v, m), v, m, op(v, m)) for line, v, m, op in rows]


def _split_block(blocks: list[list[int]], heads: list[int], b: int) -> None:
    """Cut blocks[b] into two halves, each with its head."""
    blk = blocks[b]
    half = len(blk) >> 1
    blocks.insert(b + 1, blk[half:])
    heads.insert(b + 1, blk[half])
    del blk[half:]


def balance(t: IntervalTable, alpha: int) -> IntervalTable:
    """Split until every output interval contains < 2*alpha interval starts.

    A FIFO work queue holds the violators, the intervals whose output
    interval holds 2*alpha or more starts strictly inside it. A violator is
    split at the alpha-th such start, s_split: its input interval is cut at
    offset d = s_split - image, and the new piece starts at p_new and maps
    onto s_split.

    The counts stay exact without a recount. If the violator held c starts,
    its left piece holds the alpha - 1 before s_split and the new piece the
    c - alpha after it; of the other output intervals only the one that
    contains p_new gains a start. An interval is queued when its count
    reaches 2*alpha, so the left piece (alpha - 1, or alpha when it
    contains p_new) never is.

    Two blocked sorted lists serve the searches: the interval starts, for
    the alpha-th start after an image, and the images, for the output
    interval that contains p_new. Each is a list of sorted blocks of fewer
    than 2*_BLOCK values and a list of their heads, so a search is two
    bisects, an insert shifts one block, and a block that fills is cut in
    two. A split costs O(log r' + _BLOCK + alpha) plus an amortized
    O(r' / _BLOCK^2) for the cuts, nearly flat in r'. Both lists hold 0,
    the first start and the first image, and every inserted value is
    positive, so each value lands in the block of its predecessor head.
    Once no violator is left, core.refine cuts t at the new starts.
    """
    try:
        alpha = index(alpha)
    except TypeError:
        raise InvalidParameterError(f"alpha must be an integer, not {alpha!r}") from None
    if alpha < 2:
        raise InvalidParameterError("alpha must be >= 2")
    starts0 = t.starts
    r = len(starts0)
    # Interval records indexed by a stable id; the new pieces from r on.
    start_ = list(starts0)
    image_ = t.images()
    # Starts strictly inside each output interval (image, image + length):
    # those below its end, less the dest_rank + 1 at or below its image.
    cnt = list(map(sub, map(bisect_left, repeat(starts0), map(add, image_, t.lengths)),
                   map((1).__add__, t.dest_rank)))
    limit = 2 * alpha
    queue = deque(compress(range(r), map(limit.__le__, cnt)))

    B = _BLOCK
    full = 2 * B
    s_blocks = [starts0[k:k + B] for k in range(0, r, B)]
    s_heads = [blk[0] for blk in s_blocks]
    sorted_images = sorted(image_)
    i_blocks = [sorted_images[k:k + B] for k in range(0, r, B)]
    i_heads = [blk[0] for blk in i_blocks]
    img_id = dict(zip(image_, range(r)))  # images tile [0, n): distinct

    while queue:
        i = queue.popleft()
        v = image_[i]
        # The alpha-th start after v, which may lie in a later block.
        b = bisect_right(s_heads, v) - 1
        blk = s_blocks[b]
        k = bisect_right(blk, v) + alpha - 1
        while k >= len(blk):
            k -= len(blk)
            b += 1
            blk = s_blocks[b]
        s_split = blk[k]
        # 0 < s_split - v < i's length, since s_split is strictly inside.
        new_id = len(start_)
        p_new = start_[i] + s_split - v
        start_.append(p_new)
        image_.append(s_split)
        cnt.append(cnt[i] - alpha)
        cnt[i] = alpha - 1

        b = bisect_right(i_heads, s_split) - 1
        blk = i_blocks[b]
        insort(blk, s_split)
        if len(blk) == full:
            _split_block(i_blocks, i_heads, b)
        img_id[s_split] = new_id
        b = bisect_right(s_heads, p_new) - 1
        blk = s_blocks[b]
        insort(blk, p_new)
        if len(blk) == full:
            _split_block(s_blocks, s_heads, b)

        # p_new lands in the output interval of the greatest image <= p_new.
        # The queue holds just the intervals counting limit or more, so the
        # owner joins it when its count reaches the limit, and the new piece
        # once its count is final.
        blk = i_blocks[bisect_right(i_heads, p_new) - 1]
        w = blk[bisect_right(blk, p_new) - 1]
        if w != p_new:
            owner = img_id[w]
            cnt[owner] += 1
            if cnt[owner] == limit and owner != new_id:
                queue.append(owner)
        if cnt[new_id] >= limit:
            queue.append(new_id)

    return refine(t, sorted(start_[r:]), alpha=alpha)

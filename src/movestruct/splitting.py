"""Interval-splitting transforms: length capping and alpha-balancing.

Both consume and produce an IntervalTable and preserve the evaluated
permutation exactly; only the interval partition gets finer. Each piece
copies the extra columns of the interval it is cut from, which is right
only for the run-constant columns in core.RUN_COLUMNS; any other column
raises InvalidInputError.
"""

from __future__ import annotations

import bisect
from collections import deque
from fractions import Fraction
from itertools import accumulate
from typing import Union

from .core import IntervalTable, interval_columns, run_columns
from .errors import InvalidParameterError

CapFactor = Union[int, float, str, Fraction]


def cap_length(n: int, r: int, c: CapFactor) -> int:
    """Maximum interval length L = max(1, ceil(c * n / r))."""
    c = Fraction(c)
    if c <= 0:
        raise InvalidParameterError("cap factor c must be > 0")
    num = c.numerator * n
    den = c.denominator * r
    return max(1, -(-num // den))


def length_cap(t: IntervalTable, c: CapFactor) -> IntervalTable:
    """Split intervals longer than L = ceil(c * n / r) into uniform pieces.

    r is the source table's run count, kept even when re-capping an already
    split table so the interval-count bound stays phrased in the original r.
    The new starts can break a balance, so alpha resets to 0: cap first,
    then balance.

    One pass in O(r') time, with no sort and no search. Piece m of interval
    j maps onto source cursor (dest_rank[j], dest_offset[j] + m*L); it is the
    cursor of piece m - 1 advanced by L and fast-forwarded as in core.step.
    Source interval q splits into pieces from first[q] on, so that cursor
    (q, off) is piece cursor (first[q] + off // L, off % L). The images of
    the intervals tile [0, n), so the fast forwards of the whole pass sum to
    fewer than r.
    """
    c = Fraction(c)
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
        extras=run_columns(t, src), cap=c, cap_len=L, alpha=0,
    )


def _inside_count(sorted_starts: list[int], image: int, length: int) -> int:
    """Interval starts strictly inside the output interval (image, image+length)."""
    return bisect.bisect_left(sorted_starts, image + length) - bisect.bisect_right(
        sorted_starts, image
    )


def balance(t: IntervalTable, alpha: int) -> IntervalTable:
    """Split until every output interval contains < 2*alpha interval starts.

    Work-queue over violators; a violator is split at the offset of the
    alpha-th start contained in its output interval. Ordered indexes over
    starts and images are kept as sorted lists.
    """
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

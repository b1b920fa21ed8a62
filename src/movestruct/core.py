"""Interval tables for runny permutations and move queries over them.

A table holds, per interval j, its length, the rank of the predecessor of its
image among interval starts (dest_rank) and the offset of the image within
that destination interval (dest_offset). The interval starts are the prefix
sums of the lengths, derived once at construction. Linear search steps over
the lengths; position lookups and exponential search read the starts.

The storage mode only names the core column a move file stores: the starts
(absolute) or the lengths (relative). In memory both modes are the same
table and answer every query the same way.

IntervalTable is a dataclass that declares its fields once. replace() is
the one way to derive a table: every transform (inverse, length capping,
balancing, document columns, storage mode) names only the fields it changes,
and replace() carries the rest. The cap length L is not a field: the
cap_len property derives it from n, source_runs and cap by cap_length(),
so no table carries an L that its cap does not give. Destination ranks
come from one of two places. interval_columns() ranks images that arrive
unsorted against the sorted starts; only from_intervals goes through it.
The forward-cursor builders, tile_columns() (of lengths taken in image
order: build_lf's, inverse's and every .mv file's), splitting.length_cap
and refine() (the one way to cut a table at new starts), meet their images
in an order that only moves forward, so each carries a destination cursor
and fast-forwards it, with no search; refine() bisects only the images
that land in an interval it cuts, among that interval's cuts.

IntervalTable.validate() is the one check that a table is a permutation of
[0, n); from_permutation and the phi builders, whose images come from
outside, call it. load_move needs none (see tile_columns).

A cursor is a plain tuple (j, k), since in CPython an instance of a tuple
subclass costs several times a plain tuple to build and misses the fast
path of unpacking. A query result (MoveResult) is a slotted tuple subclass
with no __new__ of its own and properties for its fields, so the query
path builds it by one type call (tuple.__new__ called as a function goes
through a slot wrapper that builds two argument tuples). The path checks
its cursor by one index of the lengths, so that a point query costs
little more than its fast forward or search.

IntervalTable.move answers one query; walk(), position_walk(),
counted_walk() and gallop_walk() answer a chained block of them, with the
same loops inlined over the whole block, since in CPython a call per query
costs about as much as the query itself. Each does only the work its
callers read. walk() searches linearly and hands a sink the column value of
the interval each query leaves, which is what inversion and the DA walk
write, and counts nothing, since their stats have a closed form
(traversal.cycle_profile). position_walk() makes the same queries carrying
the position in place of the offset, fast-forwards over the interval ends,
and hands the sink each position it leaves: on phi-inverse, the SA values.
counted_walk() searches linearly and counts fast forwards, for linear
traversal.traverse_counted. gallop_walk() searches exponentially and counts
fast forwards and probes. Most queries land in their destination interval
itself, so it settles those with one probe, or with none in the last
interval, before it gallops.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import add, itemgetter, le, lt, sub
from typing import Callable, Optional, Sequence, Union

from .errors import BoundsError, InvalidInputError, InvalidParameterError

ABSOLUTE = "abs"
RELATIVE = "rel"

LINEAR = "linear"
EXPONENTIAL = "exp"

# Extra columns that are constant over an interval, and so stay right when
# intervals are split or inverted; "doc"/"docdist" depend on the position.
RUN_COLUMNS = ("sym",)

_INVERSE_KIND = {
    "generic": "generic", "lf": "fl", "fl": "lf", "phi": "phi_inv", "phi_inv": "phi",
}

CapFactor = Union[int, float, str, Fraction]


def _cap_factor(c: CapFactor) -> Fraction:
    """c as a Fraction; InvalidParameterError unless it is a finite positive
    rational."""
    try:
        c = Fraction(c)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InvalidParameterError(
            f"cap factor c must be a finite rational, not {c!r}"
        ) from None
    if c <= 0:
        raise InvalidParameterError("cap factor c must be > 0")
    return c


def cap_length(n: int, r: int, c: CapFactor) -> int:
    """Maximum interval length L = max(1, ceil(c * n / r)); r must be >= 1."""
    c = _cap_factor(c)
    if r < 1:
        raise InvalidParameterError(f"run count r must be >= 1, got {r}")
    num = c.numerator * n
    den = c.denominator * r
    return max(1, -(-num // den))


@dataclass(frozen=True)
class QueryConfig:
    search: str = LINEAR

    def __post_init__(self) -> None:
        if self.search not in (LINEAR, EXPONENTIAL):
            raise InvalidParameterError(f"unknown search kind {self.search!r}")


class MoveResult(tuple):
    """The result of one move query, the tuple (cursor, fast_forwards,
    probes), equal to and hashed as that plain tuple. It defines no __new__,
    so MoveResult((cursor, ff, probes)) builds one by a single type call."""

    __slots__ = ()
    _fields = ("cursor", "fast_forwards", "probes")

    cursor = property(itemgetter(0), doc="The destination cursor, a plain (j, k).")
    fast_forwards = property(itemgetter(1), doc="The interval boundaries skipped.")
    probes = property(itemgetter(2), doc="The lengths or starts read by the search.")

    def __repr__(self) -> str:
        return "MoveResult(cursor=%r, fast_forwards=%r, probes=%r)" % self


def bad_cursor(cur: tuple[int, int], r: int) -> BoundsError:
    """The error for a cursor outside a table of r intervals. The query path
    checks j < 0 and 0 <= k < lengths[j] inside a try, and raises this from
    None in place of the IndexError that a j of r or more raises there."""
    return BoundsError(f"cursor {cur} invalid for table with r'={r}")


@dataclass(eq=False, repr=False)
class IntervalTable:
    """The move structure: immutable after construction."""

    n: int
    mode: str
    lengths: list[int]
    dest_rank: list[int]
    dest_offset: list[int]
    source_runs: Optional[int] = None
    kind: str = "generic"
    cap: Optional[Fraction] = None
    alpha: int = 0
    extras: Optional[dict[str, list[int]]] = None

    def __post_init__(self) -> None:
        if self.mode not in (ABSOLUTE, RELATIVE):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        if self.kind not in _INVERSE_KIND:
            raise InvalidParameterError(f"unknown kind {self.kind!r}")
        self.starts = list(accumulate(self.lengths, initial=0))
        self.starts.pop()  # the sum of the lengths, not a start
        self.max_len = max(self.lengths, default=0)
        if self.source_runs is None:
            self.source_runs = len(self.lengths)
        self.extras = dict(self.extras or {})

    # ------------------------------------------------------------------ basic

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def cap_len(self) -> int:
        """L, the longest interval the cap allows: cap_length(n,
        source_runs, cap), or 0 when the table is not capped."""
        return cap_length(self.n, self.source_runs, self.cap) if self.cap else 0

    def materialized_starts(self) -> list[int]:
        """The interval starts; kept for the benchmark, which calls it."""
        return self.starts

    def images(self) -> list[int]:
        return list(map(add, map(self.starts.__getitem__, self.dest_rank), self.dest_offset))

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_intervals(
        cls, n: int, starts: list[int], images: Sequence[int], **kw
    ) -> "IntervalTable":
        """An absolute table from parallel (start, image) arrays, starts sorted."""
        return cls(n, ABSOLUTE, **interval_columns(n, starts, images), **kw)

    def replace(self, **fields) -> "IntervalTable":
        """A new table with the given fields changed and every other field,
        metadata included, carried over."""
        return dataclasses.replace(self, **fields)

    def to_relative(self) -> "IntervalTable":
        return self.replace(mode=RELATIVE)

    def to_absolute(self) -> "IntervalTable":
        return self.replace(mode=ABSOLUTE)

    # --------------------------------------------------------------- cursors

    def cursor_of(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.n:
            raise BoundsError(f"position {i} out of range 0..{self.n - 1}")
        starts = self.starts
        j = bisect_right(starts, i) - 1
        return j, i - starts[j]

    def position_of(self, cur: tuple[int, int]) -> int:
        j, k = cur
        lengths = self.lengths
        try:
            if j < 0 or not 0 <= k < lengths[j]:
                raise IndexError
        except IndexError:
            raise bad_cursor(cur, len(lengths)) from None
        return self.starts[j] + k

    # ---------------------------------------------------------------- queries

    def move(
        self, cur: tuple[int, int], config: QueryConfig = QueryConfig()
    ) -> MoveResult:
        """One move query from cur: the destination cursor as a plain (j, k),
        the interval boundaries skipped, and the lengths (linear) or starts
        (exponential) probed. A linear search probes one more length than it
        skips."""
        j, k = cur
        lengths = self.lengths
        try:
            if j < 0 or not 0 <= k < lengths[j]:
                raise IndexError
        except IndexError:
            raise bad_cursor(cur, len(lengths)) from None
        q = self.dest_rank[j]
        k += self.dest_offset[j]
        if config.search == EXPONENTIAL:
            starts = self.starts
            r = len(starts)
            # The first probe, starts[q + 1] > p, settles most queries: they
            # land in q itself. Nothing lies past the last interval to probe.
            if q + 1 == r:
                return MoveResult(((q, k), 0, 0))
            p = starts[q] + k
            if starts[q + 1] > p:
                return MoveResult(((q, k), 0, 1))
            # Gallop: double the step until a start beyond p (or the table
            # end) brackets the destination rank.
            probes = 1
            lo = q + 1
            span = 2
            hi = q + span
            while hi < r:
                probes += 1
                if starts[hi] <= p:
                    lo = hi
                    span <<= 1
                    hi = q + span
                else:
                    break
            if hi > r:
                hi = r
            # Bisect [lo, hi) for the last start at or before p.
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                probes += 1
                if starts[mid] <= p:
                    lo = mid
                else:
                    hi = mid
            return MoveResult(((lo, p - starts[lo]), lo - q, probes))
        ff = 0
        ell = lengths[q]
        while k >= ell:
            k -= ell
            q += 1
            ff += 1
            ell = lengths[q]
        return MoveResult(((q, k), ff, ff + 1))

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        """Check the structural invariants in O(r'), with C-level passes and
        no sort; raises InvalidInputError on a violation."""
        lengths, ranks, offs, n = self.lengths, self.dest_rank, self.dest_offset, self.n
        r = len(lengths)
        if r == 0 or n <= 0:
            raise InvalidInputError("empty table")
        if len(ranks) != r or len(offs) != r:
            raise InvalidInputError("core columns differ in length")
        if min(lengths) < 1:
            raise InvalidInputError("zero-length interval")
        if sum(lengths) != n:
            raise InvalidInputError("interval lengths do not sum to n")
        # An offset below its rank's length makes the rank the predecessor
        # rank of the image.
        if not (0 <= min(ranks) and max(ranks) < r and 0 <= min(offs)
                and all(map(lt, offs, map(lengths.__getitem__, ranks)))):
            for j, (q, off) in enumerate(zip(ranks, offs)):
                if not 0 <= q < r:
                    raise InvalidInputError(f"dest_rank[{j}] out of range")
                if not 0 <= off < lengths[q]:
                    raise InvalidInputError(
                        f"dest_offset[{j}]={off} not below len[{q}]={lengths[q]}"
                    )
        # The images lie in [0, n). Let the distinct ones, sorted, be
        # p_0 < ... < p_{r-1}, and p_r = n. If there are r of them, p_0 = 0
        # and every range ends on some p, then the range from p_i ends at
        # some e_i >= p_{i+1}, so its length is at least p_{i+1} - p_i. These
        # gaps sum to p_r - p_0 = n, as the lengths do, so every e_i equals
        # p_{i+1}: the ranges tile [0, n).
        images = self.images()
        bounds = set(images)
        bounds.add(n)
        if not (len(bounds) == r + 1 and 0 in bounds
                and bounds.issuperset(map(add, images, lengths))):
            raise InvalidInputError("interval images do not tile [0, n)")
        for name, vals in self.extras.items():
            if len(vals) != r:
                raise InvalidInputError(f"extra column {name!r} has wrong length")


def run_columns(t: IntervalTable, src: Sequence[int]) -> dict[str, list[int]]:
    """t's extra columns for a table whose interval i comes from t's interval
    src[i]. Only RUN_COLUMNS carry over; any other column raises."""
    for name in t.extras:
        if name not in RUN_COLUMNS:
            raise InvalidInputError(
                f"extra column {name!r} depends on the position within an "
                "interval; attach it after splitting or inverting"
            )
    return {name: [vals[j] for j in src] for name, vals in t.extras.items()}


def interval_columns(
    n: int, starts: list[int], images: Sequence[int]
) -> dict[str, list[int]]:
    """The core columns (lengths, dest_rank, dest_offset) of the intervals
    that begin at the sorted starts and map onto the images. Each image's
    rank is that of its predecessor start; the maps run at C level."""
    dest_rank = list(map((-1).__add__, map(bisect_right, repeat(starts), images)))
    return {
        "lengths": list(map(sub, starts[1:] + [n], starts)),
        "dest_rank": dest_rank,
        "dest_offset": list(map(sub, images, map(starts.__getitem__, dest_rank))),
    }


def tile_columns(lengths: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """The dest_rank and dest_offset of the table whose interval order[i]
    has the i-th smallest image, in O(r'): the images tile [0, n), so one
    cursor (q, off), advanced by each interval's length and fast-forwarded
    over the lengths, meets them in order. For lengths >= 1 that sum to n
    and a permutation order of [0, r'), the table is a permutation of
    [0, n) by construction."""
    dest_rank = [0] * len(lengths)
    dest_offset = [0] * len(lengths)
    q = off = 0
    ell = lengths[0] if lengths else 0  # lengths[q]
    for j in order:
        while off >= ell:
            off -= ell
            q += 1
            ell = lengths[q]
        dest_rank[j] = q
        dest_offset[j] = off
        off += lengths[j]
    return dest_rank, dest_offset


def lf_order(sym: Sequence[int]) -> list[int]:
    """The image order of the LF table whose interval j holds the byte
    sym[j], by one bucket pass: LF(i) = C[c] + rank_c(BWT, i) maps any cut
    of the runs of c, in order, onto the rows after those of smaller symbols."""
    buckets: list[list[int]] = [[] for _ in range(256)]
    for j, c in enumerate(sym):
        buckets[c].append(j)
    return list(chain.from_iterable(buckets))


def refine(t: IntervalTable, new: Sequence[int], alpha: int = 0) -> IntervalTable:
    """t cut at the sorted positions new, in [0, n), or InvalidParameterError;
    a position that is already a start adds no cut. Each piece keeps its
    source interval's image offset and run columns. New starts can break a
    balance, so alpha is 0 unless passed.

    No image is searched for among all the starts. One that lands in an
    uncut interval keeps its offset, and its rank shifts by the cuts before
    that interval; one that lands in a cut interval is placed by one bisect
    among that interval's cuts. The images of a cut interval's pieces follow
    that of its first piece in order, so one forward cursor over the new
    ends, from the first piece's image, places them. The images tile
    [0, n), so m cuts, A of the images landing in cut intervals, cost
    O(r' + m + A log m).
    """
    n = t.n
    if not all(map(le, [0, *new], [*new, n - 1])):
        raise InvalidParameterError(f"cut positions are not sorted in [0, {n})")
    starts, lengths, dest_rank = t.starts, t.lengths, t.dest_rank
    r = len(starts)
    fresh = sorted(set(new).difference(starts))
    cuts: dict[int, list[int]] = {}  # the cuts inside each cut interval
    shift = [0] * r
    i = 0
    while i < len(fresh):
        j = bisect_right(starts, fresh[i]) - 1
        hi = bisect_left(fresh, starts[j] + lengths[j], i)
        cuts[j] = fresh[i:hi]
        shift[j] = hi - i
        i = hi
    # base[q]: the new rank of interval q's first piece.
    base = list(map(add, range(r), accumulate(shift, initial=0)))
    ranks = list(map(base.__getitem__, dest_rank))
    offs = list(t.dest_offset)
    for j in compress(range(r), map(cuts.__contains__, dest_rank)):
        q = dest_rank[j]
        cs = cuts[q]
        p = starts[q] + offs[j]
        x = bisect_right(cs, p)
        if x:
            ranks[j] += x
            offs[j] = p - cs[x - 1]
    # The first pieces up to each cut interval, then that interval's pieces,
    # whose images follow its first piece's in order.
    cut_starts = sorted(starts + fresh)
    cut_ends = cut_starts[1:] + [n]
    out_rank, out_off, src, lo = [], [], [], 0
    for j, cs in cuts.items():
        out_rank += ranks[lo:j + 1]
        out_off += offs[lo:j + 1]
        src += range(lo, j + 1)
        src += repeat(j, len(cs))
        q = ranks[j]
        d = cut_starts[q] + offs[j] - starts[j]
        for c in cs:
            p = c + d
            while p >= cut_ends[q]:
                q += 1
            out_rank.append(q)
            out_off.append(p - cut_starts[q])
        lo = j + 1
    return t.replace(
        lengths=list(map(sub, cut_ends, cut_starts)),
        dest_rank=out_rank + ranks[lo:], dest_offset=out_off + offs[lo:],
        extras=run_columns(t, src + list(range(lo, r))), alpha=alpha,
    )


def inverse(t: IntervalTable) -> IntervalTable:
    """Move structure of the inverse permutation, in t's storage mode, of a
    permutation table t. Its intervals are t's image ranges in image order,
    and the one with the k-th smallest image comes from t's interval k, so
    tile_columns places them by the inverse of the image order. Lengths are
    unchanged, so the cap and its bounds still hold; balancing does not
    survive, so alpha resets to 0. LF and FL swap kinds, as do phi and
    phi-inverse."""
    images = t.images()
    order = sorted(range(len(images)), key=images.__getitem__)
    back = [0] * len(order)
    for i, j in enumerate(order):
        back[j] = i
    lengths = list(map(t.lengths.__getitem__, order))
    dest_rank, dest_offset = tile_columns(lengths, back)
    return t.replace(
        lengths=lengths, dest_rank=dest_rank, dest_offset=dest_offset,
        kind=_INVERSE_KIND[t.kind], alpha=0, extras=run_columns(t, order),
    )


def walk(
    lengths: list[int],
    dest_rank: list[int],
    dest_offset: list[int],
    j: int,
    k: int,
    size: int,
    col: Sequence[int],
    put: Callable[[int], object],
) -> tuple[int, int]:
    """`size` chained move queries by linear fast forward from cursor (j, k),
    in either storage mode, each as IntervalTable.move takes it, with no
    counting: the streaming walks' kernel.

    Before each query, put(col[j]) receives the column value of the interval
    j that the query leaves, so the first value is that of the start cursor
    and none is that of the cursor returned. Returns the last cursor reached.
    """
    for _ in repeat(None, size):
        put(col[j])
        q = dest_rank[j]
        k += dest_offset[j]
        ell = lengths[q]
        while k >= ell:
            k -= ell
            q += 1
            ell = lengths[q]
        j = q
    return j, k


def position_walk(
    ends: list[int],
    dest_rank: list[int],
    delta: list[int],
    j: int,
    p: int,
    size: int,
    put: Callable[[int], object],
) -> tuple[int, int]:
    """The queries of walk() carried by position: from position p in
    interval j, `size` chained move queries, where ends[q] is the end of
    interval q and delta[j] the image of j minus its start. Each query puts
    the position it leaves, so the first is p and none is the position
    returned, then adds delta[j] and fast-forwards its destination rank over
    the ends. Returns the last interval and position reached.
    """
    for _ in repeat(None, size):
        put(p)
        p += delta[j]
        j = dest_rank[j]
        while p >= ends[j]:
            j += 1
    return j, p


def counted_walk(
    lengths: list[int],
    dest_rank: list[int],
    dest_offset: list[int],
    j: int,
    k: int,
    size: int,
    counts: list[int],
) -> tuple[int, int]:
    """The queries of walk(), with no sink, counted: a query that skips
    ff > 0 boundaries adds one to counts[ff], which grows geometrically when
    ff is past its end; counts[0] is left to the caller, which knows the
    number of queries. Returns the last cursor reached.
    """
    for _ in repeat(None, size):
        q = dest_rank[j]
        k += dest_offset[j]
        ell = lengths[q]
        if k >= ell:
            ff = 0
            while k >= ell:
                k -= ell
                q += 1
                ff += 1
                ell = lengths[q]
            try:
                counts[ff] += 1
            except IndexError:
                counts.extend([0] * (ff + len(counts)))
                counts[ff] += 1
        j = q
    return j, k


def gallop_walk(
    starts: list[int],
    lengths: list[int],
    dest_rank: list[int],
    dest_offset: list[int],
    j: int,
    k: int,
    size: int,
    counts: list[int],
) -> tuple[int, int, int, int]:
    """`size` chained move queries by exponential search from cursor (j, k),
    each probed and counted as IntervalTable.move does.

    A query whose offset stays below its destination interval's length takes
    move's one-probe exit, or its zero-probe exit in the last interval; any
    other query gallops on from the start after its destination. A query
    that skips ff > 0 boundaries adds one to counts[ff], grown as
    counted_walk grows it; counts[0] is left to the caller. Returns the
    last cursor reached, the probes of all queries and the most probes of
    one query.
    """
    r = len(starts)
    last = r - 1
    fast_probes = size
    total = top = 0
    for _ in repeat(None, size):
        q = dest_rank[j]
        k += dest_offset[j]
        if k < lengths[q]:
            if q == last:
                fast_probes -= 1
            j = q
            continue
        # starts[q + 1] <= p, so q < last and one probe is counted.
        fast_probes -= 1
        p = starts[q] + k
        probes = 1
        lo = q + 1
        span = 2
        hi = q + span
        while hi < r:
            probes += 1
            if starts[hi] <= p:
                lo = hi
                span <<= 1
                hi = q + span
            else:
                break
        if hi > r:
            hi = r
        b = hi
        while b - lo > 1:
            mid = (lo + b) >> 1
            probes += 1
            if starts[mid] <= p:
                lo = mid
            else:
                b = mid
        try:
            counts[lo - q] += 1
        except IndexError:
            counts.extend([0] * (lo - q + len(counts)))
            counts[lo - q] += 1
        total += probes
        if probes > top:
            top = probes
        j = lo
        k = p - starts[lo]
    if fast_probes and not top:
        top = 1
    return j, k, total + fast_probes, top


def from_permutation(pi: Sequence[int]) -> IntervalTable:
    """Unbalanced move structure of an explicit permutation array: one O(n)
    scan for the runs, then validate() in O(r log r), which raises
    InvalidInputError unless pi is a bijection on [0, n)."""
    n = len(pi)
    if n < 1:
        raise InvalidInputError("permutation must be non-empty")
    starts = [0]
    for i in range(1, n):
        if pi[i - 1] + 1 != pi[i]:
            starts.append(i)
    table = IntervalTable.from_intervals(n, starts, [pi[s] for s in starts])
    table.validate()
    return table


def table_to_permutation(t: IntervalTable) -> list[int]:
    """Expand the table to a full array by walking each interval's image range.

    Direct expansion, deliberately independent of the move-query path.
    """
    out = [0] * t.n
    starts = t.starts
    for j in range(len(t)):
        v = starts[t.dest_rank[j]] + t.dest_offset[j]
        s = starts[j]
        for k in range(t.lengths[j]):
            out[s + k] = v + k
    return out

"""Run-length encoded BWT: ingestion, desk-scale construction, the .rl file
format, and the specialized interval-table builders for LF (O(r)), and for
phi and phi-inverse (O(r log r), from the SA values at run heads and tails).
FL is core.inverse of LF.

The sentinel is byte 0x00 and compares smallest; symbol order is byte order.

.rl layout, version 2 (all integers little-endian):
  magic "RLBW" | version u8 = 2 | n u64 | r u64 |
  per run: symbol u8, length u64 |
  head_sa u64 x r | tail_sa u64 x r |
  CRC-32 (zlib.crc32) u32 of everything after the magic
That is the container of files.write_framed, so 16 + 25r bytes follow the
version byte. The stored samples are the only source of phi and
phi-inverse, and every Rlbwt carries them. Version 1 files, which held the
runs alone, raise FormatError; rebuild their text with build-rlbwt.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress, groupby
from operator import gt, itemgetter, ne
from typing import BinaryIO, Sequence

from .core import ABSOLUTE, IntervalTable, lf_columns, refine
from .errors import FormatError, InvalidInputError, MissingColumnError
from .files import read_framed, write_framed

SENTINEL = 0

RLBWT_MAGIC = b"RLBW"
RLBWT_VERSION = 2


@dataclass
class Rlbwt:
    """A run-length BWT with the SA samples at its run heads and tails; n, r
    and sigma are derived from runs. The constructor raises
    InvalidInputError unless the runs hold one sentinel and no empty run or
    repeated symbol, and the samples lie in [0, n), one head and one tail a
    run, and agree with the runs at row 0, at the sentinel and at every run
    of one row. These checks are necessary, not sufficient: the phi
    builders reject samples that make no permutation, but not a wrong one."""

    runs: list[tuple[int, int]]  # (symbol, length)
    head_sa: list[int]  # SA value at each run's first row
    tail_sa: list[int]  # SA value at each run's last row
    n: int = field(init=False)
    r: int = field(init=False)
    sigma: int = field(init=False)

    def __post_init__(self) -> None:
        runs = self.runs
        if not runs:
            raise InvalidInputError("RLBWT must have at least one run")
        counts = [0] * 256
        prev = None
        rest = iter(runs)
        for c, l in rest:
            if not 0 <= c < 256 or l < 1 or c == prev:
                i = len(runs) - 1 - sum(1 for _ in rest)  # only on failure
                if l < 1 or c != prev:
                    raise InvalidInputError(f"bad run {i}: symbol {c}, length {l}")
                raise InvalidInputError(f"adjacent runs {i - 1},{i} share a symbol")
            counts[c] += l
            prev = c
        if counts[SENTINEL] != 1:
            raise InvalidInputError("exactly one sentinel byte required")
        self.n = n = sum(counts)
        self.r = r = len(runs)
        self.sigma = sum(1 for c in counts if c)
        head, tail = self.head_sa, self.tail_sa
        if len(head) != r or len(tail) != r:
            raise InvalidInputError(
                f"{len(head)} head and {len(tail)} tail SA samples for {r} runs")
        if min(head) < 0 or min(tail) < 0 or max(head) >= n or max(tail) >= n:
            raise InvalidInputError(f"SA sample outside [0, {n})")
        # Row 0 holds the sentinel suffix n - 1, the sentinel's row holds suffix
        # 0, and a run of one row has one sample.
        sentinel = runs.index((SENTINEL, 1))
        single = [l == 1 for _, l in runs]
        if (head[0] != n - 1 or head[sentinel] or tail[sentinel]
                or any(map(ne, compress(head, single), compress(tail, single)))):
            raise InvalidInputError("SA samples do not match the runs")

    def expand(self) -> bytes:
        return b"".join(bytes([c]) * l for c, l in self.runs)


@dataclass
class DocBounds:
    starts: list[int]  # document start positions in the text, sorted

    def __post_init__(self) -> None:
        s = self.starts
        if not s:
            raise InvalidInputError("document bounds must be non-empty")
        if s[0] != 0 or any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise InvalidInputError("bounds must start at 0 and strictly increase")


# --------------------------------------------------------------------- build


_COMPLEMENT = bytes(range(255, -1, -1))  # byte c -> 255 - c


def _suffix_array(s: Sequence[int], sigma: int = 256) -> list[int]:
    """Suffix array by SA-IS (Nong, Zhang & Chan, DCC 2009).

    s is a sequence of ints in [0, sigma) (bytes at the top level, lists of
    LMS-substring names below it) whose last symbol is unique and smallest.
    A level makes O(n) passes and a C-level sort of its D distinct LMS
    substrings (O(D log D) comparisons), recurses on their names if two are
    equal, and induces the SA once.
    """
    n = len(s)
    if n == 1:
        return [0]
    # kind[i] = 1 if suffix i is S-type (smaller than suffix i + 1), else 0
    # (L-type); an S-type suffix after an L-type one is LMS. Classify right
    # to left: equal neighbours share a type. The last suffix is LMS.
    kind = bytearray(n)
    kind[-1] = 1
    lms = []
    is_s = True
    nxt = s[-1]
    for i in range(n - 2, -1, -1):
        c = s[i]
        if c != nxt:
            if c > nxt and is_s:
                lms.append(i + 1)
            is_s = c < nxt
            nxt = c
        if is_s:
            kind[i] = 1
    lms.reverse()

    counts = [0] * sigma
    tally = {c: s.count(c) for c in set(s)} if isinstance(s, bytes) else Counter(s)
    for c, k in tally.items():
        counts[c] = k
    names, reduced = _lms_names(s, lms, sigma)
    if names < len(lms):
        # Equal names: sort the LMS suffixes by the reduced string, whose
        # last name (the sentinel's) is again unique and smallest.
        sorted_lms = [lms[k] for k in _suffix_array(reduced, names)]
    else:  # distinct names are the LMS suffixes' ranks
        sorted_lms = lms[:]
        for p, k in zip(lms, reduced):
            sorted_lms[k] = p
    return _induce(s, kind, counts, sorted_lms)


def _lms_names(s: Sequence[int], lms: list[int], sigma: int) -> tuple[int, list[int]]:
    """The number of distinct LMS substrings and, in text order, the rank of
    each. One runs to the next LMS position, inclusive. A proper prefix ends
    at an S-type symbol that its extension holds as L-type, so it sorts after
    it, as its suffix does: bytes keys are complemented and sorted in
    reverse, and tuple keys end in sigma, above every name. The keys die on
    return, before the caller recurses."""
    ends = lms[1:] + [len(s) - 1]
    if isinstance(s, bytes):
        t = s.translate(_COMPLEMENT)
        keys = [t[p : q + 1] for p, q in zip(lms, ends)]
        distinct = sorted(set(keys), reverse=True)
    else:
        keys = [(*s[p : q + 1], sigma) for p, q in zip(lms, ends)]
        distinct = sorted(set(keys))
    rank = dict(zip(distinct, range(len(distinct))))
    return len(distinct), list(map(rank.__getitem__, keys))


def _induce(
    s: Sequence[int], kind: bytearray, counts: list[int], seeds: list[int]
) -> list[int]:
    """Induced sort, once per level: the sorted LMS positions at the tails of
    their buckets in the given order, then the L-type suffixes left to right,
    then the S-type suffixes right to left. The list iterators read entries
    written ahead of them, which is what the induction needs."""
    sa = [-1] * len(s)
    ends = list(accumulate(counts))
    tail = ends[:]
    for j in reversed(seeds):
        c = s[j]
        tail[c] -= 1
        sa[tail[c]] = j
    head = [e - k for e, k in zip(ends, counts)]
    for j in sa:
        if j > 0:
            j -= 1
            if not kind[j]:  # L-type
                c = s[j]
                sa[head[c]] = j
                head[c] += 1
    tail = ends
    for j in reversed(sa):
        if j > 0:
            j -= 1
            if kind[j]:  # S-type
                c = s[j]
                tail[c] -= 1
                sa[tail[c]] = j
    return sa


def build_bwt(text: bytes) -> tuple[Rlbwt, list[int]]:
    """Append the sentinel, suffix-sort, and run-length encode the BWT, with
    the SA samples at its run heads and tails."""
    if not text:
        raise InvalidInputError("empty text")
    if SENTINEL in text:
        raise InvalidInputError("text must not contain the 0x00 sentinel byte")
    s = bytes(text) + bytes([SENTINEL])
    sa = _suffix_array(s)
    # BWT[i] = s[sa[i] - 1]: read sa through s rotated right by one, so that
    # sa[i] == 0 reads the sentinel. The text is not empty, so sa has two or
    # more rows and itemgetter returns a tuple, not one int.
    bwt = bytes(itemgetter(*sa)(s[-1:] + s[:-1]))
    runs = [(c, len(list(g))) for c, g in groupby(bwt)]
    ends = list(accumulate(l for _, l in runs))  # one past each run's last row
    rl = Rlbwt(runs, [sa[i] for i in [0, *ends[:-1]]], [sa[i - 1] for i in ends])
    return rl, sa


# ------------------------------------------------------------------------ LF


def build_lf(rl: Rlbwt) -> IntervalTable:
    """LF interval table with the run symbol attached as extra column "sym".

    One pass in O(r) time, with no sort and no image list: core.lf_columns
    places each run's image by one forward cursor over the runs. Every LF
    table that keeps "sym", capped, balanced or not, derives its
    destinations from its lengths and symbols the same way, so a .mv file
    stores neither column for it and load_move rebuilds both.
    """
    syms = [c for c, _ in rl.runs]
    lengths = [l for _, l in rl.runs]
    dest_rank, dest_offset = lf_columns(lengths, syms)
    return IntervalTable(
        rl.n, ABSOLUTE, lengths, dest_rank, dest_offset, kind="lf",
        extras={"sym": syms},
    )


# ----------------------------------------------------------------- phi family


def build_phi_via_lf(rl: Rlbwt, inverse: bool = False) -> IntervalTable:
    """Move structure for phi, or for phi-inverse if inverse is set, from the
    SA samples in O(r log r) time.

    Row i at the head of run j has SA value head_sa[j], and row i - 1
    (cyclically) is the tail of run j - 1. So phi, which maps SA[i] to
    SA[i - 1], has an interval at each head_sa[j] with image tail_sa[j - 1],
    and phi-inverse one at each tail_sa[j] with image head_sa[j + 1].
    Samples that make no permutation of [0, n) fail IntervalTable.validate()
    with InvalidInputError; a repeated start is a zero-length interval.

    The benchmark's tracer wraps this function by its name.
    """
    head, tail = rl.head_sa, rl.tail_sa
    if inverse:
        starts, images = tail, head[1:] + head[:1]
    else:
        starts, images = head, tail[-1:] + tail[:-1]
    order = sorted(range(rl.r), key=starts.__getitem__)
    table = IntervalTable.from_intervals(
        rl.n,
        list(map(starts.__getitem__, order)),
        list(map(images.__getitem__, order)),
        kind="phi_inv" if inverse else "phi",
    )
    table.validate()
    return table


def _check_below_n(bounds: DocBounds, n: int) -> None:
    """InvalidInputError unless the last document starts below n."""
    if bounds.starts[-1] >= n:
        raise InvalidInputError(f"document start {bounds.starts[-1]} is not below n={n}")


def attach_docs(table: IntervalTable, bounds: DocBounds) -> IntervalTable:
    """Attach per-interval document data to a phi/phi-inverse table.

    Stores the doc id of the interval's first position and the distance to the
    next document boundary, so offsets within the interval resolve without a
    global predecessor search. One merge of the sorted interval starts
    against the document ends finds both in O(r' + d). A document that
    starts at or past n raises InvalidInputError.
    """
    _check_below_n(bounds, table.n)
    ends = bounds.starts[1:] + [table.n]
    doc0 = []
    dist = []
    d = 0
    for s in table.starts:
        while ends[d] <= s:
            d += 1
        doc0.append(d)
        dist.append(ends[d] - s)
    return table.replace(extras={**table.extras, "doc": doc0, "docdist": dist})


def cut_at_documents(table: IntervalTable, bounds: DocBounds) -> IntervalTable:
    """The table cut at each document start inside an interval by
    core.refine, with the doc columns of bounds in place of any it holds, so
    that "doc" is the document of every position; alpha resets to 0. A
    document that starts at or past n raises InvalidInputError before the
    cut."""
    _check_below_n(bounds, table.n)
    plain = table.replace(extras={
        k: v for k, v in table.extras.items() if k not in ("doc", "docdist")})
    return attach_docs(refine(plain, bounds.starts), bounds)


def doc_bounds_of(table: IntervalTable) -> DocBounds:
    """The bounds that a table's doc columns describe: the interval starts at
    which "doc" changes. MissingColumnError without both columns;
    InvalidInputError if an interval is longer than its "docdist", or if
    attach_docs does not remake both columns from those bounds."""
    try:
        doc, dist = table.extras["doc"], table.extras["docdist"]
    except KeyError as e:
        raise MissingColumnError(
            f"table lacks extra column {e}; pass document bounds") from None
    if any(map(gt, table.lengths, dist)):
        raise InvalidInputError(
            "an interval spans a document boundary; pass document bounds")
    bounds = DocBounds(list(compress(table.starts, map(ne, [None, *doc], doc))))
    attached = attach_docs(table, bounds).extras
    if attached["doc"] != doc or attached["docdist"] != dist:
        raise InvalidInputError("doc columns describe no document bounds")
    return bounds


# ------------------------------------------------------------------ file I/O


def save_rlbwt(rl: Rlbwt, fp: BinaryIO) -> None:
    """Write an .rl v2 file."""
    body = bytearray([RLBWT_VERSION])
    body += struct.pack("<QQ", rl.n, rl.r)
    body += b"".join(struct.pack("<BQ", c, l) for c, l in rl.runs)
    body += struct.pack(f"<{2 * rl.r}Q", *rl.head_sa, *rl.tail_sa)
    write_framed(fp, RLBWT_MAGIC, body)


def load_rlbwt(fp: BinaryIO) -> Rlbwt:
    """Read an .rl v2 file; any malformed file raises FormatError, and so does
    a v1 file, before any field is read. Runs or samples that the Rlbwt
    constructor refuses raise FormatError too."""
    body = read_framed(fp, RLBWT_MAGIC, ".rl file", RLBWT_VERSION)
    if len(body) < 17:
        raise FormatError("truncated RLBWT header")
    n, r = struct.unpack_from("<QQ", body, 1)
    if len(body) != 17 + 25 * r:
        raise FormatError("RLBWT file size does not match its run count")
    values = struct.unpack_from(f"<{2 * r}Q", body, 17 + 9 * r)
    try:
        rl = Rlbwt(list(struct.iter_unpack("<BQ", body[17 : 17 + 9 * r])),
                   list(values[:r]), list(values[r:]))
    except InvalidInputError as e:
        raise FormatError(f"malformed RLBWT: {e}") from e
    if rl.n != n:
        raise FormatError("run lengths do not sum to the declared n")
    return rl

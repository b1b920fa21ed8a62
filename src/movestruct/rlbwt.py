"""Run-length encoded BWT: ingestion, desk-scale construction, and the
specialized interval-table builders for LF (O(r)) and phi (O(n) via an LF
traversal; the sort-based cross-check is in the oracle). FL and
phi-inverse are core.inverse of these.

The sentinel is byte 0x00 and compares smallest; symbol order is byte order.
"""

from __future__ import annotations

import bisect
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import BinaryIO, Optional, Sequence

from .core import ABSOLUTE, IntervalTable, step
from .errors import FormatError, InvalidInputError
from .files import read_exact

SENTINEL = 0

RLBWT_MAGIC = b"RLBW"
RLBWT_VERSION = 1


@dataclass
class Rlbwt:
    runs: list[tuple[int, int]]  # (symbol, length)
    n: int
    r: int
    sigma: int
    char_counts: list[int]  # 256 entries

    @classmethod
    def from_runs(cls, runs: Sequence[tuple[int, int]]) -> "Rlbwt":
        runs = [(int(c), int(l)) for c, l in runs]
        if not runs:
            raise InvalidInputError("RLBWT must have at least one run")
        counts = [0] * 256
        n = 0
        for i, (c, l) in enumerate(runs):
            if not 0 <= c < 256 or l < 1:
                raise InvalidInputError(f"bad run {i}: symbol {c}, length {l}")
            if i and runs[i - 1][0] == c:
                raise InvalidInputError(f"adjacent runs {i - 1},{i} share a symbol")
            counts[c] += l
            n += l
        if counts[SENTINEL] != 1:
            raise InvalidInputError("exactly one sentinel byte required")
        return cls(
            runs=runs,
            n=n,
            r=len(runs),
            sigma=sum(1 for c in counts if c),
            char_counts=counts,
        )

    @classmethod
    def from_bwt(cls, bwt: bytes) -> "Rlbwt":
        if not bwt:
            raise InvalidInputError("empty BWT")
        return cls.from_runs([(c, len(list(g))) for c, g in groupby(bwt)])

    def expand(self) -> bytes:
        return b"".join(bytes([c]) * l for c, l in self.runs)

    def c_array(self) -> list[int]:
        """Prefix sums: c_array[c] = number of symbols smaller than c."""
        out = [0] * 257
        for c in range(256):
            out[c + 1] = out[c] + self.char_counts[c]
        return out[:256]

    def run_starts(self) -> list[int]:
        out = []
        pos = 0
        for _, l in self.runs:
            out.append(pos)
            pos += l
        return out


@dataclass
class DocBounds:
    starts: list[int]  # document start positions in the text, sorted
    d: int = field(init=False)

    def __post_init__(self) -> None:
        s = self.starts
        if not s:
            raise InvalidInputError("document bounds must be non-empty")
        if s[0] != 0 or any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise InvalidInputError("bounds must start at 0 and strictly increase")
        self.d = len(s)

    def doc_of(self, position: int) -> int:
        return bisect.bisect_right(self.starts, position) - 1


@dataclass
class SaSamples:
    """SA values at BWT run heads/tails, optionally annotated with doc ids."""

    head_sa: list[int]
    tail_sa: list[int]
    head_doc: Optional[list[int]] = None
    tail_doc: Optional[list[int]] = None


# --------------------------------------------------------------------- build


# Suffix types for SA-IS. A suffix is S-type if it is smaller than the next
# suffix, L-type if larger; LMS marks an S-type suffix preceded by an L-type.
_L, _S, _LMS = 0, 1, 2


def _suffix_array(s: Sequence[int], sigma: int = 256) -> list[int]:
    """Suffix array by SA-IS (Nong, Zhang & Chan, DCC 2009), in O(n) time.

    s is a sequence of ints in [0, sigma) (bytes at the top level, lists of
    LMS-substring names below it) whose last symbol is unique and smallest.
    """
    n = len(s)
    if n == 1:
        return [0]
    # Classify right to left: equal neighbours share a type, and an L-type
    # symbol before an S-type one makes the latter LMS. The last suffix is
    # S-type, and LMS because the symbol before it is larger.
    kind = bytearray(n)
    kind[-1] = _S
    lms = []
    is_s = True
    nxt = s[-1]
    for i in range(n - 2, -1, -1):
        c = s[i]
        if c != nxt:
            if c > nxt and is_s:
                kind[i + 1] = _LMS
                lms.append(i + 1)
            is_s = c < nxt
            nxt = c
        if is_s:
            kind[i] = _S
    lms.reverse()

    counts = [0] * sigma
    for c, k in Counter(s).items():
        counts[c] = k
    # Sort the LMS substrings: induce from the LMS positions in text order.
    sorted_lms = [j for j in _induce(s, kind, counts, lms) if kind[j] == _LMS]

    # Name the LMS substrings in sorted order; each runs from its LMS
    # position to the next one, inclusive. LMS positions are at least two
    # apart, so p // 2 indexes one slot per position: it holds the end of the
    # substring at p until p is named, then its name.
    slot = [0] * (n // 2 + 1)
    for p, q in zip(lms, lms[1:]):
        slot[p // 2] = q + 1
    slot[(n - 1) // 2] = n
    name = -1
    prev = None
    for p in sorted_lms:
        sub = s[p : slot[p // 2]]
        if sub != prev:
            name += 1
            prev = sub
        slot[p // 2] = name
    if name + 1 < len(lms):
        # Equal names: sort the LMS suffixes by the reduced string, whose
        # last name (the sentinel's) is again unique and smallest.
        reduced = [slot[p // 2] for p in lms]
        sorted_lms = [lms[k] for k in _suffix_array(reduced, name + 1)]
    return _induce(s, kind, counts, sorted_lms)


def _induce(
    s: Sequence[int], kind: bytearray, counts: list[int], seeds: list[int]
) -> list[int]:
    """Induced sort: seeds (LMS positions) at the tails of their buckets in
    the given order, then the L-type suffixes left to right, then the S-type
    suffixes right to left. The list iterators read entries written ahead of
    them, which is what the induction needs."""
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
            if kind[j]:  # S-type or LMS
                c = s[j]
                tail[c] -= 1
                sa[tail[c]] = j
    return sa


def build_bwt(text: bytes) -> tuple[Rlbwt, list[int]]:
    """Append the sentinel, suffix-sort, and run-length encode the BWT."""
    if not text:
        raise InvalidInputError("empty text")
    if SENTINEL in text:
        raise InvalidInputError("text must not contain the 0x00 sentinel byte")
    s = bytes(text) + bytes([SENTINEL])
    sa = _suffix_array(s)
    # BWT[i] = s[sa[i] - 1]: read sa through s rotated right by one, so that
    # sa[i] == 0 reads the sentinel.
    bwt = bytes(map((s[-1:] + s[:-1]).__getitem__, sa))
    return Rlbwt.from_bwt(bwt), sa


# ------------------------------------------------------------------------ LF


def _runs_by_symbol(rl: Rlbwt) -> list[list[int]]:
    buckets: list[list[int]] = [[] for _ in range(256)]
    for j, (c, _) in enumerate(rl.runs):
        buckets[c].append(j)
    return buckets


def build_lf(rl: Rlbwt) -> IntervalTable:
    """LF interval table with the run symbol attached as extra column "sym".

    dest_rank comes from a single merge of the symbol-bucketed images against
    the run starts; no comparison sort.
    """
    r = rl.r
    starts = rl.run_starts()
    C = rl.c_array()
    occ = [0] * 256
    images = [0] * r
    for j, (c, l) in enumerate(rl.runs):
        images[j] = C[c] + occ[c]
        occ[c] += l
    dest_rank = [0] * r
    dest_offset = [0] * r
    p = 0
    for bucket in _runs_by_symbol(rl):
        for j in bucket:
            v = images[j]
            while p + 1 < r and starts[p + 1] <= v:
                p += 1
            dest_rank[j] = p
            dest_offset[j] = v - starts[p]
    lengths = [l for _, l in rl.runs]
    return IntervalTable(
        rl.n,
        ABSOLUTE,
        lengths,
        dest_rank,
        dest_offset,
        starts=starts,
        kind="lf",
        extras={"sym": [c for c, _ in rl.runs]},
    )


# ----------------------------------------------------------------- phi family


def _lf_traversal_rows(rl: Rlbwt, lf: IntervalTable):
    """Yield (sa_value, run, is_head, is_tail) over one full LF cycle.

    Starts at BWT row 0 (the sentinel rotation), whose SA value is n - 1;
    each LF step decreases the SA value by one.
    """
    lengths = lf.lengths
    dest_rank = lf.dest_rank
    dest_offset = lf.dest_offset
    j, k = 0, 0
    v = rl.n - 1
    for _ in range(rl.n):
        yield v, j, k == 0, k == lengths[j] - 1
        j, k, _ff = step(lengths, dest_rank, dest_offset, j, k)
        v -= 1


def collect_sa_samples(rl: Rlbwt, lf: Optional[IntervalTable] = None) -> SaSamples:
    """SA values at every run head and tail, via one LF traversal."""
    lf = lf or build_lf(rl)
    head = [0] * rl.r
    tail = [0] * rl.r
    for v, run, is_head, is_tail in _lf_traversal_rows(rl, lf):
        if is_head:
            head[run] = v
        if is_tail:
            tail[run] = v
    return SaSamples(head_sa=head, tail_sa=tail)


def build_phi_via_lf(rl: Rlbwt) -> tuple[IntervalTable, SaSamples]:
    """Move structure for phi in O(n) time and O(r) space; phi-inverse is
    core.inverse of it.

    One LF traversal visits SA values in descending order, so interval starts
    are discovered already sorted and predecessor ranks of images are assigned
    on the fly: an image recorded at value v has as predecessor the next start
    discovered at value <= v.
    """
    lf = build_lf(rl)
    r = rl.r
    head = [0] * r
    tail = [0] * r
    # Per run: discovery index of its interval start, image value, image's
    # predecessor discovery index.
    disc_of_run = [-1] * r
    image_of_run = [-1] * r
    pred_disc_of_run = [-1] * r
    discovered = 0
    pending: list[int] = []

    for v, run, is_head, is_tail in _lf_traversal_rows(rl, lf):
        # Queue the image first: if this value is also a start, it is its
        # own predecessor and must be flushed by this very discovery.
        if is_tail:
            # The phi interval of run j starts at head_sa[j] and maps to
            # tail_sa[j - 1]; the image is seen when visiting a tail row.
            tail[run] = v
            owner = (run + 1) % r
            image_of_run[owner] = v
            pending.append(owner)
        if is_head:
            head[run] = v
            disc_of_run[run] = discovered
            for owner in pending:
                pred_disc_of_run[owner] = discovered
            pending.clear()
            discovered += 1

    if pending:
        raise InvalidInputError("traversal did not close; malformed RLBWT")
    # Discovery order is descending in value: rank = r - 1 - discovery index.
    starts = [0] * r
    lengths = [0] * r
    dest_rank = [0] * r
    dest_offset = [0] * r
    for run in range(r):
        rank = r - 1 - disc_of_run[run]
        starts[rank] = head[run]
    for j in range(r - 1):
        lengths[j] = starts[j + 1] - starts[j]
    lengths[r - 1] = rl.n - starts[r - 1]
    for run in range(r):
        rank = r - 1 - disc_of_run[run]
        q = r - 1 - pred_disc_of_run[run]
        dest_rank[rank] = q
        dest_offset[rank] = image_of_run[run] - starts[q]
    table = IntervalTable(
        rl.n, ABSOLUTE, lengths, dest_rank, dest_offset, starts=starts, kind="phi"
    )
    return table, SaSamples(head_sa=head, tail_sa=tail)


def sample_docs(samples: SaSamples, bounds: DocBounds) -> SaSamples:
    """Annotate each SA sample with its document id (predecessor rank)."""
    return SaSamples(
        head_sa=samples.head_sa,
        tail_sa=samples.tail_sa,
        head_doc=[bounds.doc_of(v) for v in samples.head_sa],
        tail_doc=[bounds.doc_of(v) for v in samples.tail_sa],
    )


def attach_docs(table: IntervalTable, bounds: DocBounds) -> IntervalTable:
    """Attach per-interval document data to a phi/phi-inverse table.

    Stores the doc id at the interval's start value and the distance to the
    next document boundary, so offsets within the interval resolve without a
    global predecessor search.
    """
    starts = table.materialized_starts()
    doc0 = []
    dist = []
    for s in starts:
        d = bounds.doc_of(s)
        doc0.append(d)
        nxt = bounds.starts[d + 1] if d + 1 < bounds.d else table.n
        dist.append(nxt - s)
    return table.replace(extras={**table.extras, "doc": doc0, "docdist": dist})


# ------------------------------------------------------------------ file I/O


def save_rlbwt(rl: Rlbwt, fp: BinaryIO) -> None:
    fp.write(RLBWT_MAGIC)
    fp.write(bytes([RLBWT_VERSION]))
    fp.write(struct.pack("<QQ", rl.n, rl.r))
    fp.write(b"".join(struct.pack("<BQ", c, l) for c, l in rl.runs))


def load_rlbwt(fp: BinaryIO) -> Rlbwt:
    if fp.read(4) != RLBWT_MAGIC:
        raise FormatError("not an RLBWT file")
    version = fp.read(1)
    if version != bytes([RLBWT_VERSION]):
        raise FormatError(f"unsupported RLBWT version {version!r}")
    n, r = struct.unpack("<QQ", read_exact(fp, 16))
    runs = list(struct.iter_unpack("<BQ", read_exact(fp, 9 * r)))
    try:
        rl = Rlbwt.from_runs(runs)
    except InvalidInputError as e:
        raise FormatError(f"malformed RLBWT: {e}") from e
    if rl.n != n:
        raise FormatError("run lengths do not sum to the declared n")
    return rl


def rlbwt_to_text(rl: Rlbwt) -> str:
    """Debug text form: one "symbol_hex length" pair per line."""
    return "".join(f"{c:02x} {l}\n" for c, l in rl.runs)


def rlbwt_from_text(text: str) -> Rlbwt:
    runs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            sym_hex, length = line.split()
            runs.append((int(sym_hex, 16), int(length)))
        except ValueError as e:
            raise FormatError(f"bad RLBWT text line {lineno}: {line!r}") from e
    return Rlbwt.from_runs(runs)

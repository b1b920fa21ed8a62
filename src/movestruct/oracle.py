"""Brute-force reference implementations.

These are definitional and deliberately slow; tests and the CLI verify
command compare everything else against them. Guarded to desk scale.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple, Sequence

from .core import IntervalTable
from .errors import BoundsError, InvalidInputError
from .rlbwt import DocBounds, SaSamples
from .splitting import _inside_count

MAX_ORACLE_N = 1_000_000


def _guard(n: int) -> None:
    if n > MAX_ORACLE_N:
        raise InvalidInputError(
            f"oracle limited to n <= {MAX_ORACLE_N}; got n = {n}"
        )


def naive_sa(text: bytes) -> list[int]:
    """Comparison sort of all suffixes. Input includes the sentinel."""
    n = len(text)
    _guard(n)
    return sorted(range(n), key=lambda i: text[i:])


def naive_bwt(text: bytes, sa: Sequence[int]) -> bytes:
    return bytes(text[i - 1] for i in sa)


def naive_lf(bwt: bytes) -> list[int]:
    """LF(i) = C[BWT[i]] + rank_{BWT[i]}(i), computed by direct counting."""
    _guard(len(bwt))
    counts = [0] * 256
    for b in bwt:
        counts[b] += 1
    C = [0] * 256
    acc = 0
    for c in range(256):
        C[c] = acc
        acc += counts[c]
    occ = [0] * 256
    out = []
    for b in bwt:
        out.append(C[b] + occ[b])
        occ[b] += 1
    return out


def naive_fl(bwt: bytes) -> list[int]:
    lf = naive_lf(bwt)
    out = [0] * len(lf)
    for i, v in enumerate(lf):
        out[v] = i
    return out


def naive_phi(sa: Sequence[int], inverse: bool = False) -> list[int]:
    """phi maps each SA value to its lexicographic predecessor's SA value."""
    n = len(sa)
    _guard(n)
    out = [0] * n
    for i in range(n):
        if inverse:
            out[sa[i]] = sa[(i + 1) % n]
        else:
            out[sa[i]] = sa[(i - 1) % n]
    return out


def naive_runs(pi: Sequence[int]) -> list[int]:
    """Starts of the maximal contiguously permuted runs of a permutation."""
    n = len(pi)
    _guard(n)
    starts = [0]
    for i in range(1, n):
        if pi[i - 1] + 1 != pi[i]:
            starts.append(i)
    return starts


def simulate_fast_forwards(t: IntervalTable, i: int) -> int:
    """Fast forwards of a single query at absolute position i, counted as the
    starts strictly between the recorded destination entry and the true
    predecessor of the landing position."""
    if not 0 <= i < t.n:
        raise BoundsError(f"position {i} out of range")
    starts = t.materialized_starts()
    j = bisect.bisect_right(starts, i) - 1
    v = starts[t.dest_rank[j]] + t.dest_offset[j] + (i - starts[j])
    true_rank = bisect.bisect_right(starts, v) - 1
    return true_rank - t.dest_rank[j]


def max_fast_forwards(t: IntervalTable) -> int:
    """Exact worst case over all n queries: the most interval starts strictly
    inside one interval's output range."""
    starts = t.materialized_starts()
    return max(
        _inside_count(starts, starts[q] + off, ell)
        for q, off, ell in zip(t.dest_rank, t.dest_offset, t.lengths)
    )


class DocSamples(NamedTuple):
    """The document ids of the SA samples at run heads and tails."""

    head_doc: list[int]
    tail_doc: list[int]


def sample_docs(samples: SaSamples, bounds: DocBounds) -> DocSamples:
    """Annotate each SA sample with its document id (predecessor rank)."""
    return DocSamples(
        head_doc=[bounds.doc_of(v) for v in samples.head_sa],
        tail_doc=[bounds.doc_of(v) for v in samples.tail_sa],
    )

"""The benchmark's workloads: set-up, the timed operation, and its checks.

Each operation has a pipeline part, timed as a whole, and a query part, timed
query by query or per chunk of chained steps. Checks run outside both and
compare every output with a reference built from the brute-force oracles or
from the generated input.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import random
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from movestruct import cli, core, files, oracle, rlbwt, splitting, traversal
from movestruct.core import EXPONENTIAL, QueryConfig

from . import inputs

QUERY_KINDS = ("abs", "rel", "exp")
_CONFIGS = {"abs": QueryConfig(), "rel": QueryConfig(), "exp": QueryConfig(EXPONENTIAL)}

# The CLI's default cap factor c, used by every `build` the workloads run.
CLI_CAP = 8

# (file, --perm, --mode, with --docs) of the four move files built from one
# RLBWT.
MOVE_FILES = (
    ("lf_abs.mv", "lf", "abs", False),
    ("lf_rel.mv", "lf", "rel", False),
    ("pi_docs.mv", "phi-inv", "abs", True),
    ("pi_rel.mv", "phi-inv", "rel", False),
)


class CheckFailed(Exception):
    """An output differs from its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """Timings and outputs of one operation."""

    id: int
    pipeline_s: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    # Per query kind: ns per query, one sample per point query or per chunk
    # of chained queries.
    samples: dict[str, list[float]] = field(
        default_factory=lambda: {k: [] for k in QUERY_KINDS})
    outputs: dict = field(default_factory=dict)

    def rescale(self, pipeline: float, queries: float) -> None:
        """Scale the pipeline's and the queries' times by the given factors."""
        self.pipeline_s *= pipeline
        self.stages = {k: v * pipeline for k, v in self.stages.items()}
        self.samples = {k: [v * queries for v in vals] for k, vals in self.samples.items()}


def timed_cli(op: Op, stage: str, argv: list[str]) -> str:
    """Call the `movestruct` CLI in-process, add its time to the op's stage,
    and return what it printed."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    op.stages[stage] = op.stages.get(stage, 0.0) + perf_counter() - t0
    if code != 0:
        raise CheckFailed(f"movestruct {argv[0]} exited with {code}")
    return out.getvalue()


def tail(values: list[float]) -> float:
    """Highest value with at least ten samples beyond it (the largest value
    when there are fewer than eleven)."""
    s = sorted(values)
    return s[max(0, len(s) - 11)]


# ------------------------------------------------------------ shared parts


@dataclass(frozen=True)
class TextShape:
    copies: int = 100
    seed_len: int = 1000
    mutations: int = 10


def write_corpus(work: Path, seed: int, shape: TextShape) -> tuple[bytes, list[int]]:
    text = inputs.repetitive_text(
        random.Random(seed), shape.copies, shape.seed_len, shape.mutations)
    docs = inputs.document_starts(shape.copies, shape.seed_len)
    (work / "text.txt").write_bytes(text)
    (work / "docs.txt").write_text("".join(f"{d}\n" for d in docs))
    return text, docs


def build_files(work: Path, op: Op) -> None:
    """Text file -> RLBWT -> the four move files, all through the CLI."""
    timed_cli(op, "build-rlbwt",
              ["build-rlbwt", str(work / "text.txt"), "-o", str(work / "text.rl")])
    for name, perm, mode, docs in MOVE_FILES:
        argv = ["build", str(work / "text.rl"), "--perm", perm, "--mode", mode,
                "-o", str(work / name)]
        timed_cli(op, "build", argv + (["--docs", str(work / "docs.txt")] if docs else []))


class TextReference:
    """Outputs for one text, derived from the oracles, and verified files.

    The RLBWT is accepted only if the oracle LF mapping over it inverts back
    to the text; the SA is then read off that LF chain, as `movestruct
    verify` does. Each move file must evaluate to its oracle permutation and
    keep the cap bounds.
    """

    def __init__(self, work: Path, text: bytes, docs: list[int]):
        self.work = work
        self.bytes: dict[str, bytes] = {}
        self.tables: dict[str, core.IntervalTable] = {}
        raw = (work / "text.rl").read_bytes()
        with open(work / "text.rl", "rb") as fp:
            rl = rlbwt.load_rlbwt(fp)
        bwt = rl.expand()
        self.n, self.r = rl.n, rl.r
        self.lf = oracle.naive_lf(bwt)
        sa = [0] * self.n
        out = bytearray(self.n)
        row = 0
        for t in range(self.n):
            sa[row] = self.n - 1 - t
            out[self.n - 1 - t] = bwt[row]  # bwt[row] precedes suffix sa[row]
            row = self.lf[row]
        # out[i] = S[i - 1], so S = out[1:] + out[:1] with the sentinel last.
        require(bytes(out[1:] + out[:1]) == text + b"\x00", "RLBWT does not invert to the text")
        require(row == 0 and len(set(sa)) == self.n, "LF chain is not one cycle")
        self.sa = sa
        self.da = [bisect.bisect_right(docs, v) - 1 for v in sa]
        self.docs = docs
        self.bytes["text.rl"] = raw
        perms = {"lf": self.lf, "phi-inv": oracle.naive_phi(sa, inverse=True)}
        for name, perm, _mode, _docs in MOVE_FILES:
            self.tables[name] = self._verify_move(name, perms[perm])

    def _verify_move(self, name: str, perm: list[int]) -> core.IntervalTable:
        raw = (self.work / name).read_bytes()
        with open(self.work / name, "rb") as fp:
            t = files.load_move(fp)
        require(core.table_to_permutation(t) == perm, f"{name} != oracle")
        L = splitting.cap_length(self.n, self.r, CLI_CAP)
        require(t.cap_len == L and t.max_len <= L, f"{name}: interval longer than L")
        require(len(t) <= self.r + self.n // L, f"{name}: r' > r + n/L")
        if "doc" in t.extras:
            for j, s in enumerate(t.materialized_starts()):
                d = bisect.bisect_right(self.docs, s) - 1
                end = self.docs[d + 1] if d + 1 < len(self.docs) else self.n
                require(t.extras["doc"][j] == d and t.extras["docdist"][j] == end - s,
                        f"{name}: doc columns")
        self.bytes[name] = raw
        return t

    def check_files(self) -> None:
        """The files in the work directory equal the verified ones byte for byte."""
        for name, raw in self.bytes.items():
            require((self.work / name).read_bytes() == raw, f"{name} differs")

    def file_bytes(self) -> int:
        return sum(len(raw) for name, raw in self.bytes.items() if name.endswith(".mv"))


def point_queries(op: Op, tables: dict[str, core.IntervalTable],
                  chunks: list[list[int]]) -> None:
    """Single `move` queries at the given positions, each timed on its own,
    alternating abs-linear, rel-linear and abs-exponential chunk by chunk."""
    results = []
    for chunk in chunks:
        for kind in QUERY_KINDS:
            t = tables["rel" if kind == "rel" else "abs"]
            move, cfg = t.move, _CONFIGS[kind]
            times = op.samples[kind]
            out = []
            for c in [t.cursor_of(i) for i in chunk]:
                t0 = perf_counter_ns()
                res = move(c, cfg)
                times.append(perf_counter_ns() - t0)
                out.append(res)
            results.append((t, chunk, out))
    op.outputs["points"] = results


def check_points(op: Op, perm: list[int], max_ff: int) -> None:
    for t, chunk, out in op.outputs["points"]:
        for i, res in zip(chunk, out):
            require(t.position_of(res.cursor) == perm[i], f"move({i}) != pi[{i}]")
            require(res.fast_forwards <= max_ff, f"move({i}): {res.fast_forwards} fast forwards")


# --------------------------------------------------------------- workloads


class Workload:
    name = ""
    n = 0

    def setup(self, work: Path, seed: int) -> None:
        """Generate the inputs and the files ops read; timed as setup_s."""

    def prepare(self) -> None:
        """Untimed: reference outputs for the checks."""

    def pipeline(self, op: Op) -> None:
        raise NotImplementedError

    def queries(self, op: Op) -> None:
        raise NotImplementedError

    def check(self, op: Op) -> None:
        """Raise CheckFailed if an output of the op is wrong."""
        raise NotImplementedError

    def file_bytes(self) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class RepetitiveBuild(Workload):
    """The write path: build-rlbwt, then four `build` calls at the default cap."""

    name = "repetitive-build"

    def __init__(self, shape: TextShape = TextShape(), chunks: int = 10, chunk_size: int = 100):
        self.shape, self.chunks, self.chunk_size = shape, chunks, chunk_size

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.text, self.docs = write_corpus(work, seed, self.shape)
        self.rng = random.Random(f"{seed}:queries")

    def prepare(self) -> None:
        # One untimed build gives the verified files every op must reproduce
        # and the tables the query part runs on.
        build_files(self.work, Op(-1))
        self.ref = TextReference(self.work, self.text, self.docs)
        self.n = self.ref.n
        self.tables = {"abs": self.ref.tables["lf_abs.mv"], "rel": self.ref.tables["lf_rel.mv"]}

    def pipeline(self, op: Op) -> None:
        build_files(self.work, op)

    def queries(self, op: Op) -> None:
        chunks = [inputs.positions(self.rng, self.n, self.chunk_size)
                  for _ in range(self.chunks)]
        point_queries(op, self.tables, chunks)

    def check(self, op: Op) -> None:
        self.ref.check_files()
        check_points(op, self.ref.lf, self.tables["abs"].cap_len)

    def file_bytes(self) -> int:
        return self.ref.file_bytes()

    def describe(self) -> str:
        t = self.tables["abs"]
        return f"n={self.n} r={self.ref.r} r'={len(t)} L={t.cap_len} alpha=off"


class RepetitiveStream(Workload):
    """The read path on prebuilt files: invert, sa, da, then chained queries."""

    name = "repetitive-stream"

    def __init__(self, shape: TextShape = TextShape(), rounds: int = 100, chunk_steps: int = 400):
        self.shape, self.rounds, self.chunk_steps = shape, rounds, chunk_steps

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.text, self.docs = write_corpus(work, seed, self.shape)
        build_files(work, Op(-1))
        self.tables = {}
        for kind, name in (("abs", "lf_abs.mv"), ("rel", "lf_rel.mv")):
            with open(work / name, "rb") as fp:
                self.tables[kind] = files.load_move(fp)
        self.position = random.Random(f"{seed}:start").randrange(len(self.text) + 1)

    def prepare(self) -> None:
        self.ref = TextReference(self.work, self.text, self.docs)
        self.n = self.ref.n
        self.inverted = self.text + b"\x00"

    def pipeline(self, op: Op) -> None:
        w = self.work
        op.outputs["invert"] = timed_cli(
            op, "invert", ["invert", str(w / "lf_abs.mv"), "-o", str(w / "inverted.txt")])
        timed_cli(op, "sa", ["sa", str(w / "pi_rel.mv"), "-o", str(w / "sa.u64")])
        timed_cli(op, "da", ["da", str(w / "pi_docs.mv"), "--docs", str(w / "docs.txt"),
                             "-o", str(w / "da.u64")])

    def queries(self, op: Op) -> None:
        """Chunks of chained queries that continue one position across
        tables and ops."""
        ends = []
        pos = self.position
        for _ in range(self.rounds):
            for kind in QUERY_KINDS:
                t = self.tables["rel" if kind == "rel" else "abs"]
                start = t.cursor_of(pos)
                t0 = perf_counter_ns()
                end, _stats = traversal.traverse_counted(t, start, self.chunk_steps, _CONFIGS[kind])
                op.samples[kind].append((perf_counter_ns() - t0) / self.chunk_steps)
                pos = t.position_of(end)
                ends.append(pos)
        op.outputs["chain"] = (self.position, ends)
        self.position = pos

    def check(self, op: Op) -> None:
        w = self.work
        require((w / "inverted.txt").read_bytes() == self.inverted, "inverted text")
        total_ff = int(re.search(r"total_ff=(\d+)", op.outputs["invert"]).group(1))
        require(total_ff <= self.n * (CLI_CAP + 1), "invert: total fast forwards > n(c+1)")
        for name, ref in (("sa.u64", self.ref.sa), ("da.u64", self.ref.da)):
            raw = (w / name).read_bytes()
            require(len(raw) == 8 * self.n and list(struct.unpack(f"<{self.n}Q", raw)) == ref,
                    f"{name} differs")
        pos, ends = op.outputs["chain"]
        lf = self.ref.lf
        for end in ends:
            for _ in range(self.chunk_steps):
                pos = lf[pos]
            require(end == pos, "chained queries left the oracle LF chain")

    def file_bytes(self) -> int:
        return self.ref.file_bytes()

    def describe(self) -> str:
        t = self.tables["abs"]
        return f"n={self.n} r={self.ref.r} r'={len(t)} L={t.cap_len} alpha=off"


class AdversarialSplit(Workload):
    """Capping and balancing where splitting dominates, then point queries."""

    name = "adversarial-split"
    CAP = 1
    ALPHA = 2

    def __init__(self, n: int = 400_000, blocks: int = 8_000, chunks: int = 10,
                 chunk_size: int = 100):
        self.n, self.blocks, self.chunks, self.chunk_size = n, blocks, chunks, chunk_size
        self.shape = None

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.pi = inputs.adversarial_permutation(random.Random(seed), self.n, self.blocks)
        self.rng = random.Random(f"{seed}:queries")

    def pipeline(self, op: Op) -> None:
        t0 = perf_counter()
        table = core.from_permutation(self.pi)
        t1 = perf_counter()
        capped = splitting.length_cap(table, self.CAP)
        t2 = perf_counter()
        balanced = splitting.balance(table, self.ALPHA)
        t3 = perf_counter()
        for name, t in (("capped.mv", capped), ("balanced.mv", balanced)):
            with open(self.work / name, "wb") as fp:
                files.save_move(t, fp)
        t4 = perf_counter()
        op.stages.update({"from_permutation": t1 - t0, "length_cap": t2 - t1,
                          "balance": t3 - t2, "save_move": t4 - t3})
        op.outputs["tables"] = (table, capped, balanced)

    def queries(self, op: Op) -> None:
        balanced = op.outputs["tables"][2]
        chunks = [inputs.positions(self.rng, self.n, self.chunk_size)
                  for _ in range(self.chunks)]
        point_queries(op, {"abs": balanced, "rel": balanced.to_relative()}, chunks)

    def check(self, op: Op) -> None:
        table, capped, balanced = op.outputs["tables"]
        r, n = len(table), self.n
        for name, t in (("capped.mv", capped), ("balanced.mv", balanced)):
            require(core.table_to_permutation(t) == self.pi, f"{name} != pi")
            with open(self.work / name, "rb") as fp:
                loaded = files.load_move(fp)
            for col in ("n", "mode", "kind", "cap", "cap_len", "alpha", "lengths",
                        "dest_rank", "dest_offset", "starts", "extras"):
                require(getattr(loaded, col) == getattr(t, col), f"{name}: {col} after load")
        require(len(capped) <= r + n // capped.cap_len, "cap: r' > r + n/L")
        require(capped.max_len <= capped.cap_len, "cap: interval longer than L")
        require(len(balanced) <= r + -(-r // (self.ALPHA - 1)), "balance: r' > r + r/(a-1)")
        check_points(op, self.pi, 2 * self.ALPHA - 1)
        self.shape = (r, len(capped), capped.cap_len, len(balanced))
        self.saved = sum((self.work / f).stat().st_size for f in ("capped.mv", "balanced.mv"))

    def file_bytes(self) -> int:
        return self.saved

    def describe(self) -> str:
        if self.shape is None:
            return f"n={self.n} (no op passed its checks)"
        r, capped, L, balanced = self.shape
        return (f"n={self.n} r={r} r'={capped} (cap c={self.CAP}) L={L} "
                f"alpha={self.ALPHA} r'={balanced} (balanced)")


WORKLOADS = {w.name: w for w in (RepetitiveBuild, RepetitiveStream, AdversarialSplit)}

"""Span tracing for the benchmark's traced run.

Wrappers go onto the module attributes and class methods of the package from
the benchmark's own code, so that the calls the CLI and the library make to
each other are caught without changing the package. Per-step calls
(`PackedMatrix.get`/`set`) are left out. A span is recorded only while an
operation window is open; the originals are restored when it closes.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter_ns


def _rlbwt_counts(args, result):
    rl = result[0] if isinstance(result, tuple) else result
    return {"n": rl.n, "r": rl.r}


def _split_counts(args, result):
    return {"r_in": len(args[0]), "r_out": len(result), "L": result.cap_len}


def _move_counts(args, result):
    return {"ff": result.fast_forwards, "probes": result.probes}


def _matrix_counts(args, result):
    return {"stride": args[0].row_stride_bits}


def _saved_counts(args, result):
    table, fp = args[0], args[1]
    return {"bytes": fp.tell(), "n": table.n, "file": f"{table.kind}_{table.mode}"}


def _loaded_counts(args, result):
    fp = args[0]
    return {"bytes": fp.tell(), "n": result.n, "file": f"{result.kind}_{result.mode}"}


def _walk_counts(args, result):
    stats = result[1] if isinstance(result, tuple) else result
    out = {
        "steps": stats.steps,
        "ff": stats.total_fast_forwards,
        "max_ff": stats.max_fast_forwards,
        "probes": stats.total_probes,
    }
    if isinstance(result, tuple):  # traverse_counted(table, start, steps, config)
        config = args[3] if len(args) > 3 else None
        exp = config is not None and config.search == "exp"
        out["kind"] = "exp" if exp else args[0].mode
    return out


# (layer = module of the package, class or None, attribute, count hook)
TARGETS = (
    ("rlbwt", None, "build_bwt", _rlbwt_counts),
    ("rlbwt", None, "save_rlbwt", None),
    ("rlbwt", None, "load_rlbwt", _rlbwt_counts),
    ("rlbwt", None, "build_lf", None),
    ("rlbwt", None, "build_phi_via_lf", None),
    ("rlbwt", None, "attach_docs", None),
    ("splitting", None, "length_cap", _split_counts),
    ("splitting", None, "balance", _split_counts),
    ("core", None, "from_permutation", None),
    ("core", "IntervalTable", "to_relative", None),
    ("core", "IntervalTable", "to_absolute", None),
    ("core", "IntervalTable", "cursor_of", None),
    ("core", "IntervalTable", "move", _move_counts),
    ("bitpack", "PackedMatrix", "set_column", _matrix_counts),
    ("bitpack", "PackedMatrix", "get_column", _matrix_counts),
    ("files", None, "save_move", _saved_counts),
    ("files", None, "pack_table", None),
    ("files", None, "load_move", _loaded_counts),
    ("files", None, "fnv1a64", None),
    ("traversal", None, "invert_bwt", _walk_counts),
    ("traversal", None, "enumerate_sa", _walk_counts),
    ("traversal", None, "enumerate_da", _walk_counts),
    ("traversal", None, "traverse_counted", _walk_counts),
    ("cli", None, "cmd_build_rlbwt", None),
    ("cli", None, "cmd_build", None),
    ("cli", None, "cmd_invert", None),
    ("cli", None, "cmd_sa", None),
    ("cli", None, "cmd_da", None),
)

# Kinds and modes of the .mv files the workloads save or load.
FILE_KINDS = ("lf_abs", "lf_rel", "phi_inv_abs", "phi_inv_rel", "generic_abs")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    *((f"rlbwt.{f}.ms", "ms", "lower") for f in (
        "build_bwt", "save_rlbwt", "load_rlbwt", "build_lf", "build_phi_via_lf",
        "attach_docs")),
    ("rlbwt.n", "pos", "higher"),
    ("rlbwt.r", "count", "lower"),
    ("rlbwt.n_per_r", "pos/run", "higher"),
    ("splitting.length_cap.ms", "ms", "lower"),
    ("splitting.balance.ms", "ms", "lower"),
    ("splitting.length_cap.ns_per_interval_out", "ns/interval", "lower"),
    ("splitting.balance.us_per_split", "us/split", "lower"),
    ("splitting.L", "pos", "higher"),
    ("splitting.r_prime", "count", "lower"),
    ("splitting.splits", "count", "lower"),
    ("core.from_permutation.ms", "ms", "lower"),
    ("core.to_relative.ms", "ms", "lower"),
    ("core.to_absolute.ms", "ms", "lower"),
    ("core.cursor_of.ns", "ns", "lower"),
    ("core.move.ns", "ns", "lower"),
    ("core.move.ff_per_query", "ff/query", "lower"),
    ("core.move.max_ff", "ff", "lower"),
    ("core.move.probes_per_query", "probes/query", "lower"),
    ("bitpack.set_column.ms", "ms", "lower"),
    ("bitpack.get_column.ms", "ms", "lower"),
    ("bitpack.row_stride_bits", "bits", "lower"),
    ("files.save_move.ms", "ms", "lower"),
    ("files.pack_table.ms", "ms", "lower"),
    ("files.load_move.ms", "ms", "lower"),
    ("files.fnv1a64.ms", "ms", "lower"),
    *((f"files.bytes.{k}", "B", "lower") for k in FILE_KINDS),
    ("files.bytes_per_pos", "B/pos", "lower"),
    ("traversal.invert_bwt.ns_per_pos", "ns/pos", "lower"),
    ("traversal.enumerate_sa.ns_per_pos", "ns/pos", "lower"),
    ("traversal.enumerate_da.ns_per_pos", "ns/pos", "lower"),
    *((f"traversal.traverse_counted.ns_per_step.{k}", "ns/step", "lower")
      for k in ("abs", "rel", "exp")),
    ("traversal.ff_per_step", "ff/step", "lower"),
    ("traversal.max_ff", "ff", "lower"),
    ("traversal.probes_per_step", "probes/step", "lower"),
    ("traversal.scan_efficiency", "ratio", "higher"),
    *((f"cli.{c}.self_ms", "ms", "lower") for c in (
        "cmd_build_rlbwt", "cmd_build", "cmd_invert", "cmd_sa", "cmd_da")),
)


def _owner(layer: str, cls):
    mod = importlib.import_module(f"movestruct.{layer}")
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Records spans (id, name, start, end, parent id, op id, counts) in
    memory. A span is stored as a tuple when its call returns, so that the
    records add no work for the garbage collector while the program runs."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ops: set[int] = set()
        # Per op, the factor that scales its times to the reference host
        # speed (see harness.Calibration).
        self.scales: dict[int, float] = {}
        self._stack: list[int] = []
        self._next = 0
        self._op = -1

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            counts = count(args, result) if count is not None else None
            spans.append((idx, name, t0, t1, parent, self._op, counts))
            return result

        return wrapper

    @contextmanager
    def window(self, op_id: int):
        """Install the wrappers for one operation window, then restore."""
        saved = []
        try:
            for layer, cls, attr, count in TARGETS:
                owner = _owner(layer, cls)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(f"{layer}.{attr}", original, count))
            self._op = op_id
            self.ops.add(op_id)
            yield
        finally:
            self._op = -1
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for idx, name, start, end, parent, op, counts in sorted(self.spans):
                fp.write(json.dumps({
                    "id": idx, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "counts": counts,
                }) + "\n")

    def _self_ns(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover, scaled
        to the reference host speed."""
        own: dict[int, float] = {s[0]: s[3] - s[2] for s in self.spans}
        for _i, _n, start, end, parent, _o, _c in self.spans:
            if parent in own:
                own[parent] -= end - start
        for idx, _n, _s, _e, _p, op, _c in self.spans:
            own[idx] *= self.scales.get(op, 1.0)
        return own

    def self_times(self) -> dict[int, dict[str, list]]:
        """Per op, per span name: [self ns total, calls, [counts...]]."""
        out: dict[int, dict[str, list]] = {op: {} for op in self.ops}
        own = self._self_ns()
        for idx, name, _s, _e, _p, op, counts in self.spans:
            acc = out[op].setdefault(name, [0, 0, []])
            acc[0] += own[idx]
            acc[1] += 1
            if counts is not None:
                acc[2].append(counts)
        return out

    def largest_self_time(self) -> tuple[str, float]:
        """Span name with the largest total self time, and its share of all."""
        totals: dict[str, float] = defaultdict(float)
        own = self._self_ns()
        for idx, name, *_rest in self.spans:
            totals[name] += own[idx]
        if not totals:
            return "", 0.0
        name = max(totals, key=totals.get)
        return name, totals[name] / sum(totals.values())

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric; a layer a workload never calls reads 0."""
        per_op = self.self_times()
        ops = sorted(per_op)

        def per_op_ms(name: str) -> float:
            """Median over traced ops of the name's self time in one op."""
            return median(per_op[op].get(name, [0])[0] for op in ops) / 1e6

        def merged(name: str) -> tuple[int, int, list[dict]]:
            """Self ns, calls and counts of a span name over all traced ops."""
            ns = calls = 0
            counts: list[dict] = []
            for op in ops:
                acc = per_op[op].get(name)
                if acc:
                    ns += acc[0]
                    calls += acc[1]
                    counts += acc[2]
            return ns, calls, counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        own = self._self_ns()

        def per_call_ns(name: str) -> float:
            """Median self time of one call, so that a rare garbage
            collection inside a short call does not set the figure."""
            calls = [own[s[0]] for s in self.spans if s[1] == name]
            return median(calls) if calls else 0.0

        m: dict[str, float] = {}
        for f in ("build_bwt", "save_rlbwt", "load_rlbwt", "build_lf",
                  "build_phi_via_lf", "attach_docs"):
            m[f"rlbwt.{f}.ms"] = per_op_ms(f"rlbwt.{f}")
        sizes = merged("rlbwt.build_bwt")[2] + merged("rlbwt.load_rlbwt")[2]
        n = sizes[-1]["n"] if sizes else 0
        r = sizes[-1]["r"] if sizes else 0
        m.update({"rlbwt.n": n, "rlbwt.r": r, "rlbwt.n_per_r": ratio(n, r)})

        cap_ns, _, caps = merged("splitting.length_cap")
        bal_ns, _, bals = merged("splitting.balance")
        splits = caps + bals
        m["splitting.length_cap.ms"] = per_op_ms("splitting.length_cap")
        m["splitting.balance.ms"] = per_op_ms("splitting.balance")
        m["splitting.length_cap.ns_per_interval_out"] = ratio(
            cap_ns, sum(c["r_out"] for c in caps))
        m["splitting.balance.us_per_split"] = ratio(
            bal_ns / 1e3, sum(c["r_out"] - c["r_in"] for c in bals))
        m["splitting.L"] = max((c["L"] for c in splits), default=0)
        m["splitting.r_prime"] = ratio(sum(c["r_out"] for c in splits), len(splits))
        m["splitting.splits"] = ratio(
            sum(c["r_out"] - c["r_in"] for c in splits), len(ops))

        for f in ("from_permutation", "to_relative", "to_absolute"):
            m[f"core.{f}.ms"] = per_op_ms(f"core.{f}")
        m["core.cursor_of.ns"] = per_call_ns("core.cursor_of")
        m["core.move.ns"] = per_call_ns("core.move")
        _, calls, moves = merged("core.move")
        m["core.move.ff_per_query"] = ratio(sum(c["ff"] for c in moves), calls)
        m["core.move.max_ff"] = max((c["ff"] for c in moves), default=0)
        m["core.move.probes_per_query"] = ratio(sum(c["probes"] for c in moves), calls)

        m["bitpack.set_column.ms"] = per_op_ms("bitpack.set_column")
        m["bitpack.get_column.ms"] = per_op_ms("bitpack.get_column")
        strides = merged("bitpack.set_column")[2] + merged("bitpack.get_column")[2]
        m["bitpack.row_stride_bits"] = ratio(
            sum(c["stride"] for c in strides), len(strides))

        for f in ("save_move", "pack_table", "load_move", "fnv1a64"):
            m[f"files.{f}.ms"] = per_op_ms(f"files.{f}")
        moved = merged("files.save_move")[2] + merged("files.load_move")[2]
        for kind in FILE_KINDS:
            m[f"files.bytes.{kind}"] = ratio(
                sum(c["bytes"] for c in moved if c["file"] == kind), len(ops))
        m["files.bytes_per_pos"] = ratio(
            sum(c["bytes"] for c in moved) / len(ops), moved[-1]["n"] if moved else 0)

        walks: list[dict] = []
        for f in ("invert_bwt", "enumerate_sa", "enumerate_da"):
            ns, _, counts = merged(f"traversal.{f}")
            m[f"traversal.{f}.ns_per_pos"] = ratio(ns, sum(c["steps"] for c in counts))
            walks += counts
        chain_ns: dict[str, float] = defaultdict(float)
        chain_steps: dict[str, int] = defaultdict(int)
        for idx, name, _s, _e, _p, _o, counts in self.spans:
            if name == "traversal.traverse_counted":
                chain_ns[counts["kind"]] += own[idx]
                chain_steps[counts["kind"]] += counts["steps"]
        for kind in ("abs", "rel", "exp"):
            m[f"traversal.traverse_counted.ns_per_step.{kind}"] = ratio(
                chain_ns[kind], chain_steps[kind])
        chains = merged("traversal.traverse_counted")[2]
        walks += chains
        steps = sum(c["steps"] for c in walks)
        ff = sum(c["ff"] for c in walks)
        m["traversal.ff_per_step"] = ratio(ff, steps)
        m["traversal.max_ff"] = max((c["max_ff"] for c in walks), default=0)
        m["traversal.probes_per_step"] = ratio(
            sum(c["probes"] for c in chains), sum(c["steps"] for c in chains))
        m["traversal.scan_efficiency"] = ratio(steps, steps + ff)

        for c in ("cmd_build_rlbwt", "cmd_build", "cmd_invert", "cmd_sa", "cmd_da"):
            m[f"cli.{c}.self_ms"] = per_op_ms(f"cli.{c}")
        return m

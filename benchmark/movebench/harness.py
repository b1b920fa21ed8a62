"""Closed-loop measurement of one workload: one process, one thread; the
next operation starts when the previous one has returned and been checked."""

from __future__ import annotations

import gc
import random
import resource
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

from .tracing import PER_LAYER, Tracer
from .workloads import QUERY_KINDS, CheckFailed, Op, Workload, tail

# Each run repeats the set-up at least SETUP_REPEATS times, and more while
# the repeats take under SETUP_BUDGET_S, up to SETUP_MAX; setup_s is the
# median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX = 25

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("op_pos_per_s", "pos/s"),
    ("query_ns_p50", "ns/query"),
    ("query_ns_tail", "ns/query"),
    ("query_rel_ns_p50", "ns/query"),
    ("query_exp_ns_p50", "ns/query"),
    ("file_bytes_per_pos", "B/pos"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Every per-layer metric: the layers' own, then the tracing overhead on each
# timed end-to-end metric, as the share by which spans make it worse.
TIMED = ("op_pos_per_s", "query_ns_p50", "query_ns_tail", "query_rel_ns_p50",
         "query_exp_ns_p50")
PER_LAYER_ALL = PER_LAYER + tuple(
    (f"trace.overhead.{name}", "%", "lower") for name in TIMED)


# Host speed on a shared machine drifts by tens of percent within seconds,
# and the drift moves every timing alike. So each time is scaled to a host
# that runs the fixed calibration loop below in CALIBRATION_REF_NS, using the
# loop's time measured right before and right after the timed part.
CALIBRATION_REF_NS = 5_000_000


def log(line: str) -> None:
    print(line, flush=True)


class Calibration:
    """Times a fixed pure-Python loop: indexing, arithmetic, sorting tuples
    and a dict in cache, then a pointer chase over a table larger than the
    caches, like the random steps of a move query."""

    CHASE = 1 << 17

    def __init__(self) -> None:
        order = list(range(self.CHASE))
        random.Random(0).shuffle(order)
        self.next = [0] * self.CHASE
        for a, b in zip(order, order[1:] + order[:1]):
            self.next[a] = b

    def _loop(self) -> int:
        a = list(range(2000))
        s = 0
        for rep in range(4):
            for i in range(2000):
                s += a[(i * 7 + rep) % 2000] & 0xFF
            b = sorted(((x * 2654435761) & 0xFFFF, x) for x in a)
            d = {}
            for x, y in b[:500]:
                d[x] = y
            s += len(d)
        nxt, p = self.next, 0
        for _ in range(10_000):
            p = nxt[p]
        return s + p

    def ns(self) -> int:
        """Best of three timings of the loop, with GC off."""
        gc.disable()
        try:
            best = 0
            for _ in range(3):
                t0 = perf_counter_ns()
                self._loop()
                dt = perf_counter_ns() - t0
                best = min(best, dt) if best else dt
            return best
        finally:
            gc.enable()


def speed_scale(before: int, after: int) -> float:
    """Factor that turns a time measured between two calibrations into one
    at the reference host speed."""
    return 2 * CALIBRATION_REF_NS / (before + after)


def timing_metrics(wl: Workload, ops: list[Op]) -> dict[str, float]:
    """The end-to-end metrics that the timed parts of `ops` give.

    The tail is taken per op, so that its percentile depends on the op's
    fixed sample count and not on how many ops fit in the run, and the run
    reports its median over the ops.
    """
    samples = {k: [v for op in ops for v in op.samples[k]] for k in QUERY_KINDS}
    return {
        "op_pos_per_s": wl.n / median(op.pipeline_s for op in ops),
        "query_ns_p50": median(samples["abs"]),
        "query_ns_tail": median(tail(op.samples["abs"]) for op in ops),
        "query_rel_ns_p50": median(samples["rel"]),
        "query_exp_ns_p50": median(samples["exp"]),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path,
        trace_file: Path | None = None) -> dict:
    """Set up under `work`, measure for `seconds`, and return the result object.

    With `trace`, every second op runs with span wrappers installed; the
    others give the untraced figures that the tracing overhead is taken from.
    """
    calibration_ns = Calibration().ns
    setups: list[float] = []
    scales: list[float] = []
    spent = 0.0
    while len(setups) < SETUP_REPEATS or (spent < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
        d = work / f"setup{len(setups)}"
        d.mkdir(parents=True)
        c0 = calibration_ns()
        t0 = perf_counter()
        wl.setup(d, seed)
        dt = perf_counter() - t0
        scales.append(speed_scale(c0, calibration_ns()))
        setups.append(dt * scales[-1])
        spent += dt
    wl.prepare()

    tracer = Tracer() if trace else None
    done: list[Op] = []
    traced: list[Op] = []
    failed = 0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < (2 if trace else 1):
        op = Op(i)
        in_trace = tracer is not None and i % 2 == 1
        try:
            gc.collect()
            c0 = calibration_ns()
            with tracer.window(i) if in_trace else nullcontext():
                t0 = perf_counter()
                wl.pipeline(op)
                op.pipeline_s = perf_counter() - t0
            c1 = calibration_ns()
            with tracer.window(i) if in_trace else nullcontext():
                wl.queries(op)
            c2 = calibration_ns()
            op.rescale(speed_scale(c0, c1), speed_scale(c1, c2))
            scales.append(speed_scale(c0, c2))
            if in_trace:
                tracer.scales[i] = scales[-1]
            wl.check(op)
            op.outputs.clear()
            (traced if in_trace else done).append(op)
        except CheckFailed as e:
            failed += 1
            log(f"op {i} FAILED: {e}")
        except Exception:  # any exception in an op counts as a failed op
            failed += 1
            log(f"op {i} FAILED:\n{traceback.format_exc()}")
        i += 1

    log(f"workload {wl.name} seed {seed}: {wl.describe()}")
    log(f"host speed: times scaled by {median(scales):.4f} (median; range "
        f"{min(scales):.4f}-{max(scales):.4f}) to the reference speed")
    metrics: dict[str, float] = {}
    if done:
        metrics = timing_metrics(wl, done)
        metrics["file_bytes_per_pos"] = wl.file_bytes() / wl.n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = median(setups)
    for stage in sorted({s for op in done for s in op.stages}):
        ms = median(op.stages.get(stage, 0.0) for op in done) * 1e3
        log(f"stage {stage}: {ms:.1f} ms median over {len(done)} ops")
    if done:
        per_op = len(done[0].samples["abs"])
        log(f"query samples: {per_op} per kind per op, {len(done)} ops; tail = "
            f"p{100 * max(0, per_op - 10) / per_op:.1f} per op, median over ops")
    for name, unit in END_TO_END:
        if name in metrics:
            log(f"{name} = {metrics[name]:.6g} {unit}")

    result_metrics = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END if n in metrics}
    if tracer is not None:
        result_metrics = layer_report(wl, tracer, done, traced, metrics)
        if trace_file is not None:
            tracer.write(trace_file)
    return {
        "correct": failed == 0 and len(result_metrics) > 0,
        "attempted": i,
        "failed": failed,
        "metrics": result_metrics,
    }


def layer_report(wl: Workload, tracer: Tracer, done: list[Op], traced: list[Op],
                 plain: dict[str, float]) -> dict[str, dict]:
    layers = tracer.layer_metrics()
    units = {name: unit for name, unit, _better in PER_LAYER_ALL}
    if traced and done:
        with_spans = timing_metrics(wl, traced)
        for name in TIMED:
            a, b = plain[name], with_spans[name]
            slow = a / b if name.endswith("_per_s") else b / a
            layers[f"trace.overhead.{name}"] = 100.0 * (slow - 1.0)
    name, share = tracer.largest_self_time()
    log(f"largest self-time span: {name} ({100 * share:.1f}% of traced self time)")
    for key, value in layers.items():
        log(f"{key} = {value:.6g} {units[key]}")
    return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}


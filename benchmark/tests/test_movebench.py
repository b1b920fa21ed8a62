"""Tests of the benchmark itself: metric names, tracing clean-up, failure
counting, and a tiny run of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from movebench import harness, tracing, workloads  # noqa: E402

SHAPE = workloads.TextShape(copies=4, seed_len=100, mutations=3)
TINY = {
    "repetitive-build": lambda: workloads.RepetitiveBuild(SHAPE, chunks=3, chunk_size=5),
    "repetitive-stream": lambda: workloads.RepetitiveStream(SHAPE, rounds=3, chunk_steps=20),
    "adversarial-split": lambda: workloads.AdversarialSplit(
        n=400, blocks=20, chunks=3, chunk_size=5),
}
# An output file of each workload's pipeline that its checks read.
OUTPUT = {
    "repetitive-build": "lf_abs.mv",
    "repetitive-stream": "sa.u64",
    "adversarial-split": "balanced.mv",
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def originals() -> dict:
    return {(m, c, a): vars(tracing._owner(m, c))[a] for m, c, a, _h in tracing.TARGETS}


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_has():
    s = spec()
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == list(
        harness.PER_LAYER_ALL)
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert s["paths"] == [BENCH.name]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_and_reports_every_end_to_end_metric(name, tmp_path):
    result = harness.run(TINY[name](), seed=3, seconds=0.2, trace=False, work=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric_and_removes_its_wrappers(name, tmp_path):
    before = originals()
    spans = tmp_path / "spans.jsonl"
    result = harness.run(TINY[name](), seed=3, seconds=0.2, trace=True,
                         work=tmp_path / "work", trace_file=spans)
    assert originals() == before
    assert result["correct"] and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent", "op", "counts"}


def test_wrappers_are_removed_when_an_op_raises():
    before = originals()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.window(0):
            assert originals() != before
            1 / 0
    assert originals() == before


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_counts_as_a_failed_op(name, tmp_path):
    wl = TINY[name]()
    pipeline = wl.pipeline

    def corrupting(op):
        pipeline(op)
        if op.id == 1:
            path = wl.work / OUTPUT[name]
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0x10
            path.write_bytes(raw)

    wl.pipeline = corrupting
    result = harness.run(wl, seed=3, seconds=0.3, trace=False, work=tmp_path)
    assert result["attempted"] >= 3
    assert result["failed"] == 1 and not result["correct"]


def test_exits_nonzero_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = spec()["command"] + ["--workload", "adversarial-split", "--seed", "1",
                               "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *cmd[1:]], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

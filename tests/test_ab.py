"""scripts/ab.py, the in-process A/B timer of two trees."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_times_a_tree_against_itself():
    """One step and three repeats of the working tree against itself print
    a row per benchmark file, with positive times on both sides."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT),
         "--steps", "load_move", "--repeats", "3"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0] == f"a={ROOT} b={ROOT} seed=7 n=100001 repeats=3"
    assert out[1] == "step,a_best_ms,a_median_ms,b_best_ms,b_median_ms,b_over_a"
    rows = [line.split(",") for line in out[2:]]
    assert [row[0] for row in rows] == [
        f"load_move[{name}]" for name in ("lf_abs", "lf_rel", "pi_docs", "pi_rel")]
    assert all(float(x) > 0 for row in rows for x in row[1:])

"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Spans of a traced run go to benchmark/_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "movestruct" / "__init__.py").is_file():
        print(f"error: no movestruct package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import movestruct
    from movebench import harness
    from movebench.workloads import WORKLOADS

    if not Path(movestruct.__file__).resolve().is_relative_to(SRC):
        print(f"error: movestruct was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    runs = HERE / "_runs"
    work = runs / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    spans = runs / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        result = harness.run(WORKLOADS[args.workload](), args.seed, args.seconds,
                             bool(args.trace), work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

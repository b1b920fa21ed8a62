"""A/B timing of two movestruct trees in one process.

Loads the package of this tree's src/ and that of a second tree, for
example a `git archive` of another commit unpacked into a directory, under
two module names ("a" is this tree, "b" the other). From the inputs of
benchmark/movebench/inputs.py at a fixed seed, each side builds with its
own code what its steps need: the repetitive text and its documents, their
RLBWT, the four move tables of the benchmark's `build` commands (LF and
phi-inverse capped at c = 8, LF in both modes, phi-inverse relative and
absolute with the document columns), and adversarial-split's permutation
(n = 400,000, 8,000 blocks). Each named step then runs on both sides in
turn, with the side that goes first alternating from repeat to repeat, and
the best and the median of each side are printed in ms, with the ratio of
the bests (b / a). A step timed on each file prints one line per file.

    python scripts/ab.py OTHER_TREE [--steps save_move load_move]
                         [--repeats 15] [--seed 7]

It imports nothing outside the standard library and the two trees, and
writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent

# As benchmark/movebench/workloads.py: TextShape() and CLI_CAP.
COPIES, SEED_LEN, MUTATIONS, CAP = 100, 1000, 10, 8
WALK_STEPS = 20_000
POINT_QUERIES = 2_000
# As adversarial-split: n, blocks, and balance's alpha.
ADV_N, ADV_BLOCKS, ADV_ALPHA = 400_000, 8_000, 2


def load_package(tree: Path, name: str):
    """The movestruct package of tree/src under the module name given."""
    init = tree / "src" / "movestruct" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Inputs:
    """The benchmark's generated inputs, the same for both sides."""

    def __init__(self, seed: int):
        spec = importlib.util.spec_from_file_location(
            "_ab_inputs", HERE / "benchmark" / "movebench" / "inputs.py")
        self.gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.gen)
        self.seed = seed
        self.text = self.gen.repetitive_text(random.Random(seed), COPIES, SEED_LEN, MUTATIONS)
        self.docs = self.gen.document_starts(COPIES, SEED_LEN)

    @functools.cached_property
    def pi(self):
        return self.gen.adversarial_permutation(random.Random(self.seed), ADV_N, ADV_BLOCKS)


class Side:
    """One package and the fixtures its own code builds from the inputs,
    each on first use."""

    def __init__(self, m, inputs: Inputs):
        self.m, self.inputs = m, inputs

    @functools.cached_property
    def rl(self):
        return self.m.build_bwt(self.inputs.text)[0]

    @functools.cached_property
    def lf(self):
        return self.m.build_lf(self.rl)

    @functools.cached_property
    def bounds(self):
        return self.m.DocBounds(self.inputs.docs)

    @functools.cached_property
    def pi(self):
        return self.m.length_cap(self.m.build_phi_via_lf(self.rl, inverse=True), CAP)

    @functools.cached_property
    def tables(self):
        lf = self.m.length_cap(self.lf, CAP)
        return {"lf_abs": lf, "lf_rel": lf.to_relative(),
                "pi_docs": self.m.attach_docs(self.pi, self.bounds),
                "pi_rel": self.pi.to_relative()}

    @functools.cached_property
    def files(self):
        out = {}
        for name, t in self.tables.items():
            buf = io.BytesIO()
            self.m.save_move(t, buf)
            out[name] = buf.getvalue()
        return out

    @functools.cached_property
    def cursors(self):
        lf = self.tables["lf_abs"]
        rng = random.Random(f"{self.inputs.seed}:ab")
        return [lf.cursor_of(rng.randrange(lf.n)) for _ in range(POINT_QUERIES)]

    @functools.cached_property
    def adversarial(self):
        return self.m.from_permutation(self.inputs.pi)


def _per_file(run):
    def thunks(s):
        s.files  # build every file before the first timed run
        return {name: (lambda name=name: run(s, name)) for name in s.tables}
    return thunks


def _one(run, *fixtures):
    """One thunk of run(side), after the side has built its fixtures."""
    def thunks(s):
        for name in fixtures:
            getattr(s, name)
        return {"": lambda: run(s)}
    return thunks


def _walk(search: str):
    def run(s):
        t = s.tables["lf_abs"]
        s.m.traverse_counted(t, t.cursor_of(0), WALK_STEPS, s.m.QueryConfig(search))
    return _one(run, "tables")


def _points(s):
    t, cursors = s.tables["lf_abs"], s.cursors
    move = t.move
    return {"": lambda: [move(cur) for cur in cursors]}


# name -> a function of a side that gives its thunks, one per label
STEPS = {
    "build_bwt": _one(lambda s: s.m.build_bwt(s.inputs.text)),
    "build_lf": _one(lambda s: s.m.build_lf(s.rl), "rl"),
    "build_phi_via_lf": _one(lambda s: s.m.build_phi_via_lf(s.rl, inverse=True), "rl"),
    "length_cap": _one(lambda s: s.m.length_cap(s.lf, CAP), "lf"),
    "balance": _one(lambda s: s.m.balance(s.adversarial, ADV_ALPHA), "adversarial"),
    "refine": _one(lambda s: s.m.core.refine(s.pi, s.inputs.docs), "pi"),
    "save_move": _per_file(lambda s, f: s.m.save_move(s.tables[f], io.BytesIO())),
    "load_move": _per_file(lambda s, f: s.m.load_move(io.BytesIO(s.files[f]))),
    "invert_bwt": _one(
        lambda s: s.m.invert_bwt(s.tables["lf_abs"], io.BytesIO()), "tables"),
    "enumerate_sa": _one(
        lambda s: s.m.enumerate_sa(s.tables["pi_rel"], io.BytesIO()), "tables"),
    "enumerate_da": _one(lambda s: s.m.enumerate_da(
        s.tables["pi_docs"], io.BytesIO(), bounds=s.bounds), "tables"),
    "cycle_profile": _one(lambda s: s.m.cycle_profile(s.tables["lf_abs"]), "tables"),
    "traverse_counted_linear": _walk("linear"),
    "traverse_counted_exp": _walk("exp"),
    "move": _points,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the other tree (holds src/movestruct)")
    parser.add_argument("--steps", nargs="+", choices=sorted(STEPS), default=list(STEPS))
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    inputs = Inputs(args.seed)
    sides = [Side(load_package(tree, name), inputs)
             for tree, name in ((HERE, "movestruct_a"), (args.other.resolve(), "movestruct_b"))]
    print(f"a={HERE} b={args.other.resolve()} seed={args.seed} "
          f"n={len(inputs.text) + 1} repeats={args.repeats}")
    print("step,a_best_ms,a_median_ms,b_best_ms,b_median_ms,b_over_a")
    for step in args.steps:
        thunks = [STEPS[step](s) for s in sides]
        for label in thunks[0]:
            times: list[list[float]] = [[], []]
            for rep in range(args.repeats):
                for k in ((0, 1) if rep % 2 == 0 else (1, 0)):
                    run = thunks[k][label]
                    t0 = perf_counter()
                    run()
                    times[k].append((perf_counter() - t0) * 1e3)
            best = [min(t) for t in times]
            med = [statistics.median(t) for t in times]
            name = f"{step}[{label}]" if label else step
            print(f"{name},{best[0]:.3f},{med[0]:.3f},{best[1]:.3f},{med[1]:.3f},"
                  f"{best[1] / best[0]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

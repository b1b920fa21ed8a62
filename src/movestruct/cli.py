"""Command-line front end.

Subcommands: build-rlbwt, build, invert, sa, da, bench, inspect, verify.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import files, oracle, rlbwt, splitting, traversal
from .core import (
    ABSOLUTE,
    EXPONENTIAL,
    LINEAR,
    RELATIVE,
    IntervalTable,
    QueryConfig,
    inverse,
    table_to_permutation,
)
from .errors import InvalidInputError, MoveStructError
from .rlbwt import DocBounds

_PERM_BUILDERS = {
    "lf": lambda rl: rlbwt.build_lf(rl),
    "fl": lambda rl: inverse(rlbwt.build_lf(rl)),
    "phi": lambda rl: rlbwt.build_phi_via_lf(rl)[0],
    "phi-inv": lambda rl: rlbwt.build_phi_via_lf(rl, inverse=True)[0],
}

DEFAULT_CAP = "8"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad cap factor {text!r}") from e


def _load_bounds(path: str) -> DocBounds:
    try:
        with open(path) as fp:
            starts = [int(line) for line in fp if line.strip()]
    except ValueError as e:  # a line that is not an integer, or not text
        raise InvalidInputError(f"bad document bounds file {path}: {e}") from None
    return DocBounds(starts)


def _read_table(path: str) -> IntervalTable:
    with open(path, "rb") as fp:
        return files.load_move(fp)


def cmd_build_rlbwt(args) -> int:
    with open(args.text, "rb") as fp:
        text = fp.read()
    # Inverted outputs carry their trailing sentinel; accept them back as-is.
    if text.endswith(b"\x00") and rlbwt.SENTINEL not in text[:-1]:
        text = text[:-1]
    rl, _sa = rlbwt.build_bwt(text)
    with open(args.output, "wb") as fp:
        rlbwt.save_rlbwt(rl, fp)
    print(f"n={rl.n} r={rl.r} sigma={rl.sigma} -> {args.output}")
    return 0


def cmd_build(args) -> int:
    with open(args.rlbwt, "rb") as fp:
        rl = rlbwt.load_rlbwt(fp)
    table = _PERM_BUILDERS[args.perm](rl)
    cfg = splitting.SplitConfig(c=args.cap, alpha=args.balance)
    table = splitting.apply_splits(table, cfg)
    if args.mode == RELATIVE:
        table = table.to_relative()
    if args.docs:
        if args.perm not in ("phi", "phi-inv"):
            raise InvalidInputError("--docs only applies to phi/phi-inv tables")
        table = rlbwt.attach_docs(table, _load_bounds(args.docs))
    with open(args.output, "wb") as fp:
        files.save_move(table, fp)
    print(
        f"kind={table.kind} n={table.n} r'={len(table)} mode={table.mode} "
        f"L={table.cap_len or 'off'} -> {args.output}"
    )
    return 0


def cmd_invert(args) -> int:
    with open(args.input, "rb") as fp:
        is_rlbwt = fp.read(4) == rlbwt.RLBWT_MAGIC
        fp.seek(0)
        if is_rlbwt:
            rl = rlbwt.load_rlbwt(fp)
            table = splitting.length_cap(rlbwt.build_lf(rl), Fraction(DEFAULT_CAP))
        else:
            table = files.load_move(fp)
    if "sym" not in table.extras:
        raise InvalidInputError("move file lacks the symbol column")
    with open(args.output, "wb") as fp:
        stats = traversal.invert_bwt(table, fp)
    _print_stats(stats)
    return 0


def _read_phi_inv(path: str) -> IntervalTable:
    """A phi-inverse table: the SA and DA walks start at SA[0] = n - 1."""
    table = _read_table(path)
    if table.kind != "phi_inv":
        raise InvalidInputError(
            f"{path} holds a {table.kind!r} table; sa and da need phi_inv"
        )
    return table


def cmd_sa(args) -> int:
    table = _read_phi_inv(args.input)
    with open(args.output, "wb") as fp:
        stats = traversal.enumerate_sa(table, table.n - 1, fp)
    _print_stats(stats)
    return 0


def cmd_da(args) -> int:
    table = _read_phi_inv(args.input)
    bounds = _load_bounds(args.docs) if args.docs else None
    if "doc" not in table.extras:
        if bounds is None:
            raise InvalidInputError("move file lacks doc columns; pass --docs")
        table = rlbwt.attach_docs(table, bounds)
    with open(args.output, "wb") as fp:
        stats = traversal.enumerate_da(table, table.n - 1, fp, bounds=bounds)
    _print_stats(stats)
    return 0


def cmd_bench(args) -> int:
    if args.steps < 1:
        raise InvalidInputError(f"--steps must be >= 1, got {args.steps}")
    if args.pin and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {0})
    table = _read_table(args.input)
    cfg = QueryConfig(search=EXPONENTIAL if args.search == "exp" else LINEAR)
    start = table.cursor_of(args.start)
    t0 = time.perf_counter_ns()
    _end, stats = traversal.traverse_counted(table, start, args.steps, cfg)
    elapsed = time.perf_counter_ns() - t0
    print("steps,ns_per_query,total_ff,max_ff")
    print(
        f"{stats.steps},{elapsed / max(1, stats.steps):.2f},"
        f"{stats.total_fast_forwards},{stats.max_fast_forwards}"
    )
    return 0


def cmd_inspect(args) -> int:
    with open(args.input, "rb") as fp:
        info = files.inspect_move(fp)
    for key in ("n", "r_prime", "mode", "kind", "cap", "alpha", "cap_len"):
        print(f"{key}={info[key]}")
    for name, width in info["columns"]:
        print(f"column {name} width={width}")
    print(f"row_stride_bits={info['row_stride_bits']}")
    print(f"payload_bits={info['payload_bits']}")
    print(f"payload_bytes={info['payload_bytes']}")
    print(f"space_bytes={info['r_prime'] * info['row_stride_bits'] / 8:.1f}")
    return 0


def cmd_verify(args) -> int:
    table = _read_table(args.input)
    with open(args.rlbwt, "rb") as fp:
        rl = rlbwt.load_rlbwt(fp)
    failures = []

    def check(name: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    if table.n != rl.n:
        check("domain size matches RLBWT", False)
        return 1
    if table.n > oracle.MAX_ORACLE_N:
        raise InvalidInputError(
            f"verify is limited to n <= {oracle.MAX_ORACLE_N}"
        )
    bwt = rl.expand()
    lf = oracle.naive_lf(bwt)
    if table.kind in ("lf", "fl"):
        reference = lf if table.kind == "lf" else oracle.naive_fl(bwt)
    elif table.kind in ("phi", "phi_inv"):
        # SA recovered definitionally: the LF chain from row 0 visits SA
        # values n-1, n-2, ..., 0 in order.
        sa = [0] * rl.n
        row = 0
        for t in range(rl.n):
            sa[row] = rl.n - 1 - t
            row = lf[row]
        reference = oracle.naive_phi(sa, inverse=(table.kind == "phi_inv"))
    else:
        raise InvalidInputError(f"cannot verify tables of kind {table.kind!r}")

    check("evaluation equals oracle", table_to_permutation(table) == reference)
    try:
        table.validate()
        check("structural validator", True)
    except MoveStructError as e:
        print(f"  validator: {e}")
        check("structural validator", False)
    if table.cap_len:
        check("max interval length <= L", table.max_len <= table.cap_len)
        check(
            "per-query fast forwards <= L",
            oracle.max_fast_forwards(table) <= table.cap_len,
        )
    if table.alpha >= 2:
        check(
            "per-query fast forwards < 2*alpha",
            oracle.max_fast_forwards(table) < 2 * table.alpha,
        )
    return 1 if failures else 0


def _print_stats(stats: traversal.TraversalStats) -> None:
    print(
        f"steps={stats.steps} total_ff={stats.total_fast_forwards} "
        f"max_ff={stats.max_fast_forwards}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movestruct",
        description="Move structures over RLBWT permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-rlbwt", help="suffix-sort a text file into an RLBWT")
    p.add_argument("text")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build_rlbwt)

    p = sub.add_parser("build", help="build a move structure from an RLBWT")
    p.add_argument("rlbwt")
    p.add_argument("--perm", choices=sorted(_PERM_BUILDERS), default="lf")
    p.add_argument("--cap", type=_fraction, default=_fraction(DEFAULT_CAP),
                   help="length-cap factor c as decimal or p/q; 0 disables")
    p.add_argument("--balance", type=int, default=0,
                   help="balancing parameter alpha (>= 2); 0 disables")
    p.add_argument("--mode", choices=[ABSOLUTE, RELATIVE], default=ABSOLUTE)
    p.add_argument("--docs", help="document start positions, one per line")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "invert", help="recover the text from an LF or FL move file or an RLBWT"
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sa", help="enumerate the suffix array as raw u64 values")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sa)

    p = sub.add_parser("da", help="enumerate the document array as raw u64 values")
    p.add_argument("input")
    p.add_argument("--docs", help="document start positions, one per line")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_da)

    p = sub.add_parser("bench", help="time chained move queries")
    p.add_argument("input")
    p.add_argument("--steps", type=int, default=1_000_000)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--search", choices=["linear", "exp"], default="linear")
    p.add_argument("--pin", action="store_true", help="pin to one CPU")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="print header and space accounting")
    p.add_argument("input")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="check a move file against its RLBWT")
    p.add_argument("input")
    p.add_argument("rlbwt")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MoveStructError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: build-rlbwt, build, invert, sa, da, bench, inspect, verify.
A failed command prints "error:" and exits with 2, leaving no output file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import BinaryIO, Iterator

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
    "phi": lambda rl: rlbwt.build_phi_via_lf(rl),
    "phi-inv": lambda rl: rlbwt.build_phi_via_lf(rl, inverse=True),
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


@contextmanager
def _output(path: str) -> Iterator[BinaryIO]:
    """Open path for writing. If the command fails while it is open, the file
    is removed, so that a failed command leaves no partial output; devices
    and links are left alone. A path that is the file of stdout raises
    InvalidInputError before it is opened: the command prints its stats
    there after it writes, over the start of its output."""
    try:
        same = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no such path, or no stdout descriptor
        same = False
    if same:
        raise InvalidInputError(
            f"output {path} is the file of stdout, where the command prints its stats")
    fp = open(path, "wb")
    try:
        with fp:
            yield fp
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


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
    with _output(args.output) as fp:
        rlbwt.save_rlbwt(rl, fp)
    print(f"n={rl.n} r={rl.r} sigma={rl.sigma} -> {args.output}")
    return 0


def cmd_build(args) -> int:
    # Refuse --docs and parse its bounds before any load or build.
    if args.docs and args.perm not in ("phi", "phi-inv"):
        raise InvalidInputError("--docs only applies to phi/phi-inv tables")
    bounds = _load_bounds(args.docs) if args.docs else None
    with open(args.rlbwt, "rb") as fp:
        rl = rlbwt.load_rlbwt(fp)
    table = _PERM_BUILDERS[args.perm](rl)
    # Cap, then balance: balancing only shortens intervals, so the cap still
    # holds, while capping adds starts that can break a balance.
    if args.cap:
        table = splitting.length_cap(table, args.cap)
    if args.balance:
        table = splitting.balance(table, args.balance)
    if args.mode == RELATIVE:
        table = table.to_relative()
    if bounds is not None:
        table = rlbwt.attach_docs(table, bounds)
    with _output(args.output) as fp:
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
    with _output(args.output) as fp:
        stats = traversal.invert_bwt(table, fp)
    _print_stats(stats)
    return 0


def cmd_sa(args) -> int:
    table = _read_table(args.input)
    with _output(args.output) as fp:
        stats = traversal.enumerate_sa(table, fp)
    _print_stats(stats)
    return 0


def cmd_da(args) -> int:
    table = _read_table(args.input)
    bounds = _load_bounds(args.docs) if args.docs else None
    with _output(args.output) as fp:
        stats = traversal.enumerate_da(table, fp, bounds=bounds)
    _print_stats(stats)
    return 0


def cmd_bench(args) -> int:
    if args.steps < 1:
        raise InvalidInputError(f"--steps must be >= 1, got {args.steps}")
    table = _read_table(args.input)
    cfg = QueryConfig(search=EXPONENTIAL if args.search == "exp" else LINEAR)
    start = table.cursor_of(args.start)
    t0 = time.perf_counter_ns()
    _end, stats = traversal.traverse_counted(table, start, args.steps, cfg)
    elapsed = time.perf_counter_ns() - t0
    print("steps,ns_per_query,total_ff,max_ff,total_probes,max_probes")
    print(
        f"{stats.steps},{elapsed / max(1, stats.steps):.2f},"
        f"{stats.total_fast_forwards},{stats.max_fast_forwards},"
        f"{stats.total_probes},{stats.max_probes}"
    )
    return 0


def cmd_inspect(args) -> int:
    with open(args.input, "rb") as fp:
        info = files.inspect_move(fp)
    for key in ("version", "n", "r", "r_prime", "mode", "kind", "cap", "alpha", "cap_len"):
        print(f"{key}={info[key]}")
    for name, width in info["columns"]:
        print(f"column {name} width={width}")
    print(f"row_stride_bits={info['row_stride_bits']}")
    print(f"payload_bits={info['payload_bits']}")
    print(f"payload_bytes={info['payload_bytes']}")
    for key in ("doc_records", "doc_record_bytes"):
        if key in info:
            print(f"{key}={info[key]}")
    print(f"space_bytes={info['r_prime'] * info['row_stride_bits'] / 8:.1f}")
    return 0


def cmd_verify(args) -> int:
    table = _read_table(args.input)
    with open(args.rlbwt, "rb") as fp:
        rl = rlbwt.load_rlbwt(fp)
    if table.kind not in ("lf", "fl", "phi", "phi_inv"):
        raise InvalidInputError(f"cannot verify tables of kind {table.kind!r}")
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
    # SA recovered definitionally: the LF chain from row 0 visits SA values
    # n-1, n-2, ..., 0 in order. The runs are the BWT of a text only if it
    # first returns to row 0 at step n, that is, at SA value 0.
    sa = [0] * rl.n
    row = 0
    for v in range(rl.n - 1, -1, -1):
        sa[row] = v
        row = lf[row]
        if not row:
            break
    check("LF is one cycle", v == 0)
    if failures:
        return 1
    if table.kind == "lf":
        reference = lf
    elif table.kind == "fl":
        reference = oracle.naive_fl(bwt)
    else:
        reference = oracle.naive_phi(sa, inverse=(table.kind == "phi_inv"))

    check("evaluation equals oracle", table_to_permutation(table) == reference)
    for line, _value, _limit, holds in splitting.bounds(table):
        check(line, holds)
    max_ff = oracle.max_fast_forwards(table)  # O(r' log r'), beside the O(n) oracle
    profile_ff = traversal.cycle_profile(table).max_fast_forwards
    if profile_ff != max_ff:  # the worst case that the bounds read
        check(f"profile max fast forwards {profile_ff} == oracle {max_ff}", False)
    return 1 if failures else 0


def _print_stats(stats: traversal.TraversalStats) -> None:
    print(
        f"steps={stats.steps} total_ff={stats.total_fast_forwards} "
        f"max_ff={stats.max_fast_forwards}"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It holds no command function:
    main looks up cmd_<command> when it runs, so that a replaced module
    attribute is the one called."""
    parser = argparse.ArgumentParser(
        prog="movestruct",
        description="Move structures over RLBWT permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-rlbwt", help="suffix-sort a text file into an RLBWT")
    p.add_argument("text")
    p.add_argument("-o", "--output", required=True)

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

    p = sub.add_parser(
        "invert", help="recover the text from an LF or FL move file or an RLBWT"
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("sa", help="enumerate the suffix array as raw u64 values")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("da", help="enumerate the document array as raw u64 values")
    p.add_argument("input")
    p.add_argument("--docs", help="document start positions, one per line; "
                   "replaces any doc columns in the file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("bench", help="time chained move queries")
    p.add_argument("input")
    p.add_argument("--steps", type=int, default=1_000_000)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--search", choices=["linear", "exp"], default="linear")

    p = sub.add_parser("inspect", help="print header and space accounting")
    p.add_argument("input")

    p = sub.add_parser("verify", help="check a move file against its RLBWT")
    p.add_argument("input")
    p.add_argument("rlbwt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (MoveStructError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

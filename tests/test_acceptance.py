"""Acceptance suite.

One test per shipping criterion; each prints a single PASS/FAIL line to the
terminal (bypassing capture) in addition to the normal pytest verdict.
"""

import io
import math
import random
import struct
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import movestruct as ms
from movestruct import (
    FormatError,
    IntervalTable,
    QueryConfig,
    balance,
    bounds,
    build_bwt,
    build_lf,
    build_phi_via_lf,
    cycle_profile,
    enumerate_sa,
    from_permutation,
    inspect_move,
    inverse,
    length_cap,
    load_move,
    save_move,
    table_to_permutation,
    traverse_counted,
)
from movestruct.oracle import (
    max_fast_forwards,
    naive_fl,
    naive_lf,
    naive_phi,
    naive_sa,
)
from support import (
    ALPHAS,
    CAPS,
    REF_DEST_RANK,
    REF_IMAGES,
    REF_PERM,
    REF_STARTS,
    adversarial_permutation,
    ceil_div,
    mv_file_bytes,
    random_text,
    recover_text,
    repetitive_text,
    run_blocks_text,
    sweep_fast_forwards,
)

GRID_SEED = 20260824
EXP = QueryConfig(search=ms.EXPONENTIAL)


def _instance(text: bytes) -> SimpleNamespace:
    rl, sa = build_bwt(text)
    reference_sa = naive_sa(text + b"\x00")
    assert sa == reference_sa
    bwt = rl.expand()
    phi = build_phi_via_lf(rl)
    return SimpleNamespace(
        text=text,
        rl=rl,
        sa=reference_sa,
        base={
            "lf": build_lf(rl),
            "fl": inverse(build_lf(rl)),
            "phi": phi,
            "phi_inv": inverse(phi),
        },
        oracles={
            "lf": naive_lf(bwt),
            "fl": naive_fl(bwt),
            "phi": naive_phi(sa, inverse=False),
            "phi_inv": naive_phi(sa, inverse=True),
        },
    )


@pytest.fixture(scope="module")
def grid():
    t0 = time.perf_counter()
    rng = random.Random(GRID_SEED)
    instances = [_instance(random_text(rng, 2, 2000)) for _ in range(100)]
    instances += [_instance(repetitive_text(rng)) for _ in range(20)]
    return SimpleNamespace(instances=instances, t0=t0)


def _variants(base: IntervalTable):
    """Yield (c, alpha, capped-stage table, final table) over the grid."""
    for c in CAPS:
        capped = length_cap(base, c) if c > 0 else base
        for alpha in ALPHAS:
            final = balance(capped, alpha) if alpha else capped
            yield c, alpha, capped, final


def _report(capsys, num: int, name: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {verdict}{suffix}")


def test_criterion_01_oracle_equivalence_grid(grid, capsys):
    bad = []
    for idx, inst in enumerate(grid.instances):
        for kind, base in inst.base.items():
            oracle = inst.oracles[kind]
            for c, alpha, _capped, final in _variants(base):
                if table_to_permutation(final) != oracle:
                    bad.append(f"abs {idx} {kind} c={c} alpha={alpha}")
                if table_to_permutation(final.to_relative()) != oracle:
                    bad.append(f"rel {idx} {kind} c={c} alpha={alpha}")
    elapsed = time.perf_counter() - grid.t0
    ok = not bad and elapsed < 120
    _report(capsys, 1, "oracle equivalence across build/split/mode grid", ok,
            f"{elapsed:.1f}s")
    assert not bad, bad[:10]
    assert elapsed < 120, f"grid evaluation took {elapsed:.1f}s"


def test_criterion_02_amortized_fast_forward_bound(grid, capsys):
    bad = []
    for idx, inst in enumerate(grid.instances):
        n = inst.rl.n
        for kind, base in inst.base.items():
            r = len(base)
            for c, alpha, capped, final in _variants(base):
                end, stats = traverse_counted(final, (0, 0), n)
                if end != (0, 0):
                    bad.append(f"cycle {idx} {kind} c={c} alpha={alpha}")
                # One cycle, so the walk makes the query of every position
                # once: its stats are the closed-form profile's.
                if cycle_profile(final) != stats:
                    bad.append(f"profile {idx} {kind} c={c} alpha={alpha}")
                if not all(holds for *_, holds in bounds(final)):
                    bad.append(f"bounds {idx} {kind} c={c} alpha={alpha}")
                if c == 0:
                    continue
                L = capped.cap_len
                if len(capped) > r + n // L:
                    bad.append(f"interval count {idx} {kind} c={c}")
                if bounds(capped)[-1][2] != r + n // L:
                    bad.append(f"bounds interval limit {idx} {kind} c={c}")
                if stats.total_fast_forwards > n * (c + 1):
                    bad.append(
                        f"total ff {idx} {kind} c={c} alpha={alpha}: "
                        f"{stats.total_fast_forwards} > {n * (c + 1)}"
                    )
    _report(capsys, 2, "n-step traversal total fast forwards <= n*(c+1), "
            "equal to the cycle profile", not bad)
    assert not bad, bad[:10]


def test_criterion_03_balanced_worst_case(grid, capsys):
    bad = []
    for idx, inst in enumerate(grid.instances):
        for kind, base in inst.base.items():
            for c, alpha, capped, final in _variants(base):
                if alpha == 0:
                    continue
                r_in = len(capped)
                if len(final) > r_in + ceil_div(r_in, alpha - 1):
                    bad.append(f"interval count {idx} {kind} c={c} alpha={alpha}")
                worst = max_fast_forwards(final)
                if worst >= 2 * alpha:
                    bad.append(f"worst ff {idx} {kind} c={c} alpha={alpha}: {worst}")
                # bounds() states the interval bound from the bound R of
                # the capped stage, not from its count.
                R = len(base) + (inst.rl.n // capped.cap_len if c else 0)
                rows = bounds(final)
                if (not all(holds for *_, holds in rows)
                        or rows[-1][2] != R + ceil_div(R, alpha - 1)
                        or (f"per-query fast forwards {worst} < 2*alpha {2 * alpha}",
                            worst, 2 * alpha, True) not in rows):
                    bad.append(f"bounds {idx} {kind} c={c} alpha={alpha}")
                if inst.rl.n <= 300:
                    swept_total, swept_worst = sweep_fast_forwards(final)
                    if swept_worst != worst:
                        bad.append(f"sweep mismatch {idx} {kind} c={c} alpha={alpha}")
    _report(capsys, 3, "balanced tables: every query under 2*alpha fast forwards",
            not bad)
    assert not bad, bad[:10]


def test_criterion_04_adversarial_capping_ratio(capsys):
    pi = adversarial_permutation(4096, 128)
    t = from_permutation(pi)
    assert len(t) == 129
    uncapped_total, _ = sweep_fast_forwards(t)
    capped = length_cap(t, 1)
    capped_total, _ = sweep_fast_forwards(capped)
    ratio = uncapped_total / max(1, capped_total)
    ok = uncapped_total >= 10 * capped_total
    _report(capsys, 4, "adversarial family: capping cuts total fast forwards 10x",
            ok, f"ratio {ratio:.1f}x")
    assert ok, (uncapped_total, capped_total)


def test_criterion_05_cap_limits(grid, capsys):
    bad = []
    for idx, inst in enumerate(grid.instances):
        for kind, base in inst.base.items():
            for c in CAPS:
                if c == 0:
                    continue
                capped = length_cap(base, c)
                L = capped.cap_len
                if capped.max_len > L:
                    bad.append(f"length {idx} {kind} c={c}")
                worst = max_fast_forwards(capped)
                if worst > L:
                    bad.append(f"ff {idx} {kind} c={c}: {worst} > {L}")
                rows = bounds(capped)
                if (not all(holds for *_, holds in rows)
                        or rows[-1][2] != len(base) + inst.rl.n // L
                        or (f"per-query fast forwards {worst} <= L {L}",
                            worst, L, True) not in rows):
                    bad.append(f"bounds {idx} {kind} c={c}")
                if inst.rl.n <= 300:
                    _total, swept_worst = sweep_fast_forwards(capped)
                    if swept_worst != worst:
                        bad.append(f"sweep mismatch {idx} {kind} c={c}")
    _report(capsys, 5, "capped tables: interval length and per-query ff <= L",
            not bad)
    assert not bad, bad[:10]


def test_criterion_06_streaming_round_trips(grid, capsys):
    bad = []
    for idx, inst in enumerate(grid.instances):
        if recover_text(inst.base["lf"]) != inst.text + b"\x00":
            bad.append(f"inversion {idx}")
        sink = io.BytesIO()
        enumerate_sa(inst.base["phi_inv"], sink)
        if sink.getvalue() != struct.pack(f"<{inst.rl.n}Q", *inst.sa):
            bad.append(f"sa stream {idx}")
    _report(capsys, 6, "text inversion and SA enumeration round trips", not bad)
    assert not bad, bad[:10]


def test_criterion_07_reference_permutation_regression(capsys):
    t = from_permutation(REF_PERM)
    ok = (
        t.starts == REF_STARTS
        and t.images() == REF_IMAGES
        and t.dest_rank == REF_DEST_RANK
    )
    _report(capsys, 7, "16-element reference table layout reproduced exactly", ok)
    assert ok


def _core_only(t: IntervalTable) -> IntervalTable:
    """The same permutation table without any extra payload columns."""
    return t.replace(extras={})


def test_criterion_08_space_accounting(grid, capsys):
    bad = []
    # Reported payload bits must equal rows times row stride, on grid samples.
    for inst in grid.instances[:10]:
        for table in (inst.base["lf"], length_cap(inst.base["lf"], 8).to_relative()):
            buf = io.BytesIO()
            save_move(table, buf)
            buf.seek(0)
            info = inspect_move(buf)
            stride = sum(w for _name, w in info["columns"])
            if info["row_stride_bits"] != stride:
                bad.append("stride mismatch")
            if info["payload_bits"] != info["r_prime"] * stride:
                bad.append("payload bits mismatch")

    # On a strongly runny corpus the relative capped file beats the absolute
    # uncapped file of the original move structure by at least a quarter.
    # That baseline stores a start, an offset and a rank a row: the version
    # 4 layout of the reference writer, pinned to the bytes that save_move
    # wrote for this table before version 5 dropped the offset and the rank.
    rng = random.Random(5)
    region = []
    prev = None
    for _ in range(2000):
        sym = rng.choice([s for s in (b"b", b"c", b"d") if s != prev])
        prev = sym
        region.append(sym * rng.randrange(30, 101))
    corpus = b"a" * 160000 + b"".join(region)
    rl, _ = build_bwt(corpus)
    if rl.n < 64 * rl.r:
        bad.append(f"corpus not runny enough: n/r={rl.n / rl.r:.1f}")
    lf = _core_only(build_lf(rl))
    abs_size = len(mv_file_bytes(lf, version=4))
    if abs_size != 23_420:
        bad.append(f"baseline of {abs_size} B, not 23,420 B")
    rel_buf = io.BytesIO()
    save_move(length_cap(lf, 8).to_relative(), rel_buf)
    rel_size = len(rel_buf.getvalue())
    reduction = 1 - rel_size / abs_size
    if rel_size > 0.75 * abs_size:
        bad.append(f"saving only {reduction:.1%}")
    # Capping itself still pays on this corpus: the relative uncapped file
    # is larger than the relative capped one.
    uncapped_buf = io.BytesIO()
    save_move(lf.to_relative(), uncapped_buf)
    if len(uncapped_buf.getvalue()) <= rel_size:
        bad.append(f"capped {rel_size} B, uncapped {len(uncapped_buf.getvalue())} B")
    _report(capsys, 8, "space accounting and relative-mode capped saving >= 25%",
            not bad, f"reduction {reduction:.1%}, n/r {rl.n / rl.r:.0f}")
    assert not bad, bad


def test_criterion_09_exponential_search_equivalence(grid, capsys):
    bad = []
    for idx, inst in enumerate(grid.instances):
        for kind, base in inst.base.items():
            for c, alpha, _capped, final in _variants(base):
                probe_cap = (
                    2 * math.log2(final.cap_len) + 4 if c > 0 else None
                )
                starts = final.starts
                r = len(starts)
                lengths = final.lengths
                for j in range(r):
                    q = final.dest_rank[j]
                    p = starts[q] + final.dest_offset[j]
                    for k in range(lengths[j]):
                        while q + 1 < r and starts[q + 1] <= p:
                            q += 1
                        res = final.move((j, k), EXP)
                        if res.cursor != (q, p - starts[q]):
                            bad.append(f"output {idx} {kind} c={c} a={alpha} {j},{k}")
                        if probe_cap is not None and res.probes > probe_cap:
                            bad.append(
                                f"probes {idx} {kind} c={c} a={alpha}: "
                                f"{res.probes} > {probe_cap:.1f}"
                            )
                        p += 1
                    if len(bad) > 10:
                        break
                if len(bad) > 10:
                    break
    _report(capsys, 9, "exponential search matches linear with bounded probes",
            not bad)
    assert not bad, bad[:10]


def test_criterion_09_chained_walk_probe_bound(grid, capsys):
    # Each base permutation is one cycle, so a walk of n exponential steps
    # makes the query of every position once, chained through the kernel.
    bad = []
    for idx, inst in enumerate(grid.instances):
        n = inst.rl.n
        for kind, base in inst.base.items():
            for c, alpha, _capped, final in _variants(base):
                if c == 0:
                    continue
                start = final.cursor_of(idx % n)
                end, stats = traverse_counted(final, start, n, EXP)
                _, lin = traverse_counted(final, start, n)
                if end != start or stats.histogram != lin.histogram:
                    bad.append(f"walk {idx} {kind} c={c} a={alpha}")
                if stats.max_probes > 2 * math.log2(final.cap_len) + 4:
                    bad.append(
                        f"probes {idx} {kind} c={c} a={alpha}: "
                        f"{stats.max_probes} > L={final.cap_len}"
                    )
    _report(capsys, 9, "exponential walks keep the probe bound", not bad)
    assert not bad, bad[:10]


def test_criterion_10_serialization_integrity(grid, capsys):
    bad = []
    for idx, inst in enumerate(grid.instances[:20]):
        base = inst.base["lf"]
        final = balance(length_cap(base, 8), 2)
        for table in (base, final, final.to_relative()):
            buf = io.BytesIO()
            save_move(table, buf)
            buf.seek(0)
            loaded = load_move(buf)
            buf2 = io.BytesIO()
            save_move(loaded, buf2)
            if buf2.getvalue() != buf.getvalue():
                bad.append(f"round trip {idx} {table.mode}")
    buf = io.BytesIO()
    save_move(grid.instances[0].base["lf"], buf)
    corrupted = bytearray(buf.getvalue())
    corrupted[-16] ^= 0x20
    try:
        load_move(io.BytesIO(bytes(corrupted)))
        bad.append("corruption not detected")
    except FormatError:
        pass
    _report(capsys, 10, "byte-identical serialization, corruption detected",
            not bad)
    assert not bad, bad[:10]


def test_criterion_11_throughput_bench(capsys):
    rng = random.Random(9)
    text = run_blocks_text(rng, 600, 3, 24)
    rl, _ = build_bwt(text)
    uncapped = build_lf(rl)
    capped = length_cap(uncapped, 8)
    steps_total = 10_000_000
    chunk = 500_000
    timings = {"uncapped": 0.0, "capped": 0.0}
    cursors = {"uncapped": (0, 0), "capped": (0, 0)}
    tables = {"uncapped": uncapped, "capped": capped}
    done = 0
    # Alternate chunks so machine-load drift hits both tables equally.
    while done < steps_total:
        for name in ("uncapped", "capped"):
            t0 = time.perf_counter()
            cursors[name], _stats = traverse_counted(
                tables[name], cursors[name], chunk
            )
            timings[name] += time.perf_counter() - t0
        done += chunk
    ns_uncapped = timings["uncapped"] / steps_total * 1e9
    ns_capped = timings["capped"] / steps_total * 1e9
    ok = ns_capped <= ns_uncapped
    _report(capsys, 11, "10^7-step bench: capped at least as fast as uncapped",
            ok, f"capped {ns_capped:.0f} ns/q vs uncapped {ns_uncapped:.0f} ns/q")
    assert ok, (ns_capped, ns_uncapped)

"""Bit-packed matrix: round trips, bounds, and lossless-storage properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestruct import (
    BoundsError,
    ColumnSpec,
    InvalidSpecError,
    PackedMatrix,
    ValueOverflowError,
    min_width,
)
from movestruct.bitpack import pack_columns, unpack_columns
from support import check_min_widths, reference_pack, rows_of


def test_min_width():
    assert min_width(0) == 1
    assert min_width(1) == 1
    assert min_width(2) == 2
    assert min_width(255) == 8
    assert min_width(256) == 9
    assert min_width(2**64 - 1) == 64
    with pytest.raises(ValueOverflowError):
        min_width(-1)


def test_stride_and_payload_size():
    m = PackedMatrix([("len", 2), ("off", 2), ("rank", 4)], 9)
    assert m.row_stride_bits == 8
    assert m.row_count * m.row_stride_bits == 72
    assert len(m.payload) == 9


def test_max_width_round_trip():
    m = PackedMatrix([("x", 64)], 1)
    m.set_column("x", [2**64 - 1])
    assert m.get_column("x") == [2**64 - 1]
    assert unpack_columns([64], 1, m.payload) == [[2**64 - 1]]


def test_row_major_write_read():
    m = PackedMatrix([("a", 3), ("b", 5)], 4)
    m.set_column("a", [0, 2, 4, 6])
    m.set_column("b", [1, 3, 5, 7])
    # Rows are contiguous, fields in column order: one 8-bit row per byte.
    assert m.payload == bytes(a | b << 3 for a, b in [(0, 1), (2, 3), (4, 5), (6, 7)])
    m2 = PackedMatrix(m.columns, 4, unpack_columns([3, 5], 4, m.payload))
    assert rows_of(m2) == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_set_get_round_trip_and_zero_init():
    m = PackedMatrix([("a", 4), ("b", 4), ("c", 4)], 16)
    assert rows_of(m) == [[0, 0, 0]] * 16
    assert m.payload == bytes(24)
    m.set_column("a", [5 if r == 3 else 0 for r in range(16)])
    assert m.get_column("a")[3] == 5
    assert sum(m.get_column("a")) == 5


def test_set_does_not_perturb_neighbors():
    m = PackedMatrix([("a", 7), ("b", 7), ("c", 7)], 16)
    expect = [[(r * 3 + c) * 2 + 1 for c in range(3)] for r in range(16)]
    m.set_column("a", [127] * 16)
    m.set_column("c", [127] * 16)
    for c, name in enumerate("abc"):
        m.set_column(name, [row[c] for row in expect])
    assert rows_of(m) == expect
    m2 = PackedMatrix(m.columns, 16, unpack_columns([7, 7, 7], 16, m.payload))
    assert rows_of(m2) == expect


def test_width_validation():
    with pytest.raises(InvalidSpecError):
        ColumnSpec("x", 0)
    with pytest.raises(InvalidSpecError):
        ColumnSpec("x", 65)
    with pytest.raises(InvalidSpecError):
        PackedMatrix([("x", 1)], -1)


def test_bounds_and_overflow():
    m = PackedMatrix([("a", 3)], 4)
    with pytest.raises(ValueOverflowError):
        m.set_column("a", [0, 0, 8, 0])
    with pytest.raises(BoundsError):
        m.column_of("nope")
    with pytest.raises(BoundsError):
        m.set_column("nope", [0] * 4)
    with pytest.raises(BoundsError):
        m.get_column("nope")


@pytest.mark.parametrize(
    "values, error",
    [
        ([1, 2, 3, 4, 5], BoundsError),
        ([1, 2, 3], BoundsError),
        ([], BoundsError),
        ([1, 8, 2, 3], ValueOverflowError),
        ([1, 2, -1, 3], ValueOverflowError),
    ],
)
def test_set_column_rejects_before_writing(values, error):
    m = PackedMatrix([("a", 3), ("b", 3)], 4)
    m.set_column("a", [7, 6, 5, 4])
    m.set_column("b", [1, 2, 3, 4])
    before = m.payload
    with pytest.raises(error):
        m.set_column("a", values)
    assert m.get_column("a") == [7, 6, 5, 4]
    assert m.payload == before


def test_unpack_round_trip():
    m = PackedMatrix([("a", 5), ("b", 11)], 7)
    rng = random.Random(0)
    m.set_column("a", [rng.randrange(32) for _ in range(7)])
    m.set_column("b", [rng.randrange(2048) for _ in range(7)])
    m2 = PackedMatrix(m.columns, 7, unpack_columns([5, 11], 7, m.payload))
    assert m2.payload == m.payload
    assert m2.get_column("b") == m.get_column("b")
    with pytest.raises(InvalidSpecError):
        unpack_columns([5, 11], 7, m.payload[:-1])


def test_check_min_widths():
    m = PackedMatrix([("a", 4)], 3)
    m.set_column("a", [1, 9, 3])
    check_min_widths(m)
    m2 = PackedMatrix([("a", 5)], 3)
    m2.set_column("a", [1, 9, 3])
    with pytest.raises(InvalidSpecError):
        check_min_widths(m2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_matrix_lossless(data):
    ncols = data.draw(st.integers(1, 5))
    widths = [data.draw(st.integers(1, 17)) for _ in range(ncols)]
    rows = data.draw(st.integers(0, 1024))
    cols = [ColumnSpec(f"c{i}", w) for i, w in enumerate(widths)]
    m = PackedMatrix(cols, rows)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    expect = [
        [rng.randrange(1 << w) for w in widths] for _ in range(rows)
    ]
    for c, spec in enumerate(cols):
        m.set_column(spec.name, [row[c] for row in expect])
    assert rows_of(m) == expect
    # Serialization-stable: rebuilding from the payload preserves every cell.
    m2 = PackedMatrix(cols, rows, unpack_columns(widths, rows, m.payload))
    assert rows_of(m2) == expect


def check_against_reference(widths: list[int], rows: list[list[int]]) -> None:
    specs = [ColumnSpec(f"c{i}", w) for i, w in enumerate(widths)]
    m = PackedMatrix(specs, len(rows))
    for i, spec in enumerate(specs):
        m.set_column(spec.name, [row[i] for row in rows])
    payload = m.payload
    assert payload == reference_pack(widths, rows)
    columns = [[row[i] for row in rows] for i in range(len(widths))]
    assert pack_columns(columns, widths) == payload
    assert len(payload) == (len(rows) * m.row_stride_bits + 7) // 8
    for tail in (b"", b"\xa5" * 9):
        unpacked = unpack_columns(widths, len(rows), payload + tail)
        m2 = PackedMatrix(specs, len(rows), unpacked)
        assert rows_of(m2) == rows
        assert unpacked == columns
        assert m2.payload == payload
    if payload:
        with pytest.raises(InvalidSpecError):
            unpack_columns(widths, len(rows), payload[:-1])


@pytest.mark.parametrize(
    "widths", [[1], [3], [7], [1, 8], [13, 2], [64], [64, 1], [63, 64, 5], [8, 8]]
)
def test_payload_matches_reference_fixed_shapes(widths):
    rng = random.Random(sum(widths))
    for row_count in (0, 1, 7, 8, 9, 15, 16, 17, 40):
        rows = [
            [rng.choice([0, (1 << w) - 1, rng.randrange(1 << w)]) for w in widths]
            for _ in range(row_count)
        ]
        check_against_reference(widths, rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_payload_matches_reference(data):
    widths = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=5))
    row_count = data.draw(st.integers(0, 40))
    rows = [
        [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
        for _ in range(row_count)
    ]
    check_against_reference(widths, rows)

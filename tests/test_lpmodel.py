import dataclasses
import math

import numpy as np
import pytest

from helpers import add_column, add_row, parse_lp, parse_mps, row_coeffs
from lambdabound.instance import gen_cycle
from lambdabound.formulations import build_lp_r3
from lambdabound.lpmodel import (
    BINARY,
    INF,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    LinearModel,
    ModelError,
    Row,
    export_lp,
    export_mps,
)


def test_add_variable_ids_and_bounds():
    m = LinearModel()
    v0 = add_column(m, 0.0, 80.0, 1.0)
    assert v0 == 0
    assert m.upper[0] == 80.0
    v1 = add_column(m, 0.0, 0.0, 0.0)  # pinned at zero
    assert v1 == 1 and m.num_variables == 2


def test_add_variable_inverted_bounds():
    m = LinearModel()
    with pytest.raises(ModelError, match="inverted"):
        add_column(m, 3.0, 1.0, 0.0)


def test_binary_bound_rule():
    m = LinearModel()
    add_column(m, 0.0, 1.0, 0.0, integrality=BINARY)
    with pytest.raises(ModelError):
        add_column(m, 0.0, 2.0, 0.0, integrality=BINARY)


def test_add_row_shapes():
    m = LinearModel()
    x0 = add_column(m, 0, 1, 0)
    x1 = add_column(m, 0, 1, 0)
    r = add_row(m, SENSE_EQ, 1.0, [(x0, 1.0), (x1, 1.0)])
    assert row_coeffs(m, r) == ((x0, 1.0), (x1, 1.0))
    r = add_row(m, SENSE_LE, 0.0, [(x1, 1.0), (x0, -1.0)])
    assert row_coeffs(m, r) == ((x0, -1.0), (x1, 1.0))  # canonical order


def test_add_row_merges_duplicates():
    m = LinearModel()
    x0 = add_column(m, 0, 1, 0)
    r = add_row(m, SENSE_EQ, 0.0, [(x0, 1.0), (x0, 1.0)])
    assert row_coeffs(m, r) == ((x0, 2.0),)


def test_add_row_unknown_variable():
    m = LinearModel()
    add_column(m, 0, 1, 0)
    with pytest.raises(ModelError, match="unknown variable"):
        add_row(m, SENSE_GE, 0.0, [(5, 1.0)])


def test_export_empty_model():
    m = LinearModel("empty")
    lp = export_lp(m)
    assert "Minimize" in lp and "Subject To" in lp and lp.rstrip().endswith("End")
    mps = export_mps(m)
    assert mps.startswith("NAME")
    assert "ROWS" in mps and "COLUMNS" in mps and mps.rstrip().endswith("ENDATA")


def test_export_single_entry_documents():
    m = LinearModel("one")
    x = add_column(m, 0.0, 4.0, 2.0, name="x")
    add_row(m, SENSE_LE, 3.0, [(x, 1.0)], name="cap")
    lp = export_lp(m)
    assert lp.count("cap:") == 1
    assert "2 x" in lp
    mps = export_mps(m)
    assert mps.count(" L  cap") == 1
    assert mps.count("    x  ") == 2  # one COST entry, one row entry


def test_export_deterministic():
    def build():
        m = LinearModel("det")
        a = add_column(m, 0, 5, 1.5, name="a")
        b = add_column(m, 0, INF, -2, name="b")
        add_row(m, SENSE_GE, 1, [(b, 1), (a, 3)])
        add_row(m, SENSE_EQ, 0, [(a, 1), (b, -1)])
        return m

    assert export_lp(build()) == export_lp(build())
    assert export_mps(build()) == export_mps(build())


def test_binary_sections():
    m = LinearModel()
    add_column(m, 0, 1, 1.0, integrality=BINARY, name="b0")
    add_column(m, 0, 3, 1.0, name="c0")
    lp = export_lp(m)
    assert "Binaries" in lp and "b0" in lp.split("Binaries")[1]
    mps = export_mps(m)
    assert "'INTORG'" in mps and "'INTEND'" in mps


def test_exports_reimport_to_same_polyhedron():
    # tiny ring model solved three ways: embedded text -> scipy must agree
    model, _ = build_lp_r3(gen_cycle(3, 1, 1))
    ref = 3.0
    lp_res = parse_lp(export_lp(model)).solve()
    assert lp_res.status == 0 and abs(lp_res.fun - ref) < 1e-6
    mps_res = parse_mps(export_mps(model)).solve()
    assert mps_res.status == 0 and abs(mps_res.fun - ref) < 1e-6


def test_export_mixed_senses_roundtrip():
    m = LinearModel("mix")
    x = add_column(m, 0, 10, 1.0, name="x")
    y = add_column(m, 0, 10, 2.0, name="y")
    add_row(m, SENSE_GE, 3, [(x, 1.0), (y, 1.0)])
    add_row(m, SENSE_LE, 8, [(x, 1.0)])
    add_row(m, SENSE_EQ, 1, [(y, 1.0)])
    for parse, export in ((parse_lp, export_lp), (parse_mps, export_mps)):
        res = parse(export(m)).solve()
        assert res.status == 0
        assert abs(res.fun - 4.0) < 1e-9  # y = 1, x = 2


def _message(call) -> str:
    with pytest.raises(ModelError) as exc:
        call()
    return str(exc.value)


def _two_columns():
    m = LinearModel()
    m.add_variables(0.0, [1.0, 1.0], 0.0)
    return m


@pytest.mark.parametrize(
    "single, block",
    [
        # a non-finite coefficient
        (lambda m: m.add_rows(SENSE_LE, [0.0], ([0], [0], [math.nan])),
         lambda m: m.add_rows(SENSE_LE, [0.0, 1.0], ([0, 1], [0, 1], [1.0, math.nan]))),
        # a non-finite rhs
        (lambda m: m.add_rows(SENSE_LE, [INF], ([0], [0], [1.0])),
         lambda m: m.add_rows(SENSE_LE, [0.0, INF], ([0, 1], [0, 1], 1.0))),
        # an unknown column id
        (lambda m: m.add_rows(SENSE_GE, [0.0], ([0], [5], [1.0])),
         lambda m: m.add_rows(SENSE_GE, [0.0, 0.0], ([0, 1], [1, 5], 1.0))),
        # an unknown sense
        (lambda m: m.add_rows("<", [0.0], ([0], [0], [1.0])),
         lambda m: m.add_rows([SENSE_LE, "<"], [0.0, 0.0], ([0, 1], [0, 1], 1.0))),
        # inverted bounds
        (lambda m: m.add_variables(3.0, 1.0, 0.0),
         lambda m: m.add_variables([0.0, 3.0], 1.0, 0.0)),
        # a binary outside [0, 1]
        (lambda m: m.add_variables(0.0, 2.0, 0.0, BINARY),
         lambda m: m.add_variables(0.0, [1.0, 2.0], 0.0, BINARY)),
        # a lower bound of +inf
        (lambda m: m.add_variables(INF, INF, 0.0),
         lambda m: m.add_variables([0.0, INF], INF, 0.0)),
        # an upper bound of -inf
        (lambda m: m.add_variables(-INF, -INF, 0.0),
         lambda m: m.add_variables(-INF, [1.0, -INF], 0.0)),
    ],
)
def test_block_append_refuses_like_the_scalar_calls(single, block):
    m = _two_columns()
    expected = _message(lambda: single(m))
    assert _message(lambda: block(m)) == expected
    # a refused block appends nothing
    assert (m.num_variables, m.num_rows) == (2, 0)
    columns = (m.lower, m.upper, m.cost, m.binary, m.variable_names)
    assert [len(a) for a in columns] == [2] * len(columns)
    assert [len(a) for a in (m.senses, m.rhs, m.indptr, m.indices, m.data)] == [0, 0, 1, 0, 0]


def test_block_rows_merge_duplicates_in_order():
    m = _two_columns()
    # row 0: 1 + 2 on column 1 and 0.5 on column 0; row 1: 1 - 1 on column 0
    block = m.add_rows(SENSE_EQ, [0.0, 0.0], ([0, 0, 1, 1, 0], [1, 1, 0, 0, 0],
                                              [1.0, 2.0, 1.0, -1.0, 0.5]))
    assert row_coeffs(m, block[0]) == ((0, 0.5), (1, 3.0))
    assert row_coeffs(m, block[1]) == ((0, 0.0),)  # a merged zero stays
    single = add_row(m, SENSE_EQ, 0.0, [(0, 1.0), (0, -1.0)])
    assert row_coeffs(m, single) == ((0, 0.0),)
    # three duplicates add left to right, as a sum from zero does, and -0.0 becomes 0.0
    row = m.add_rows(SENSE_LE, [1.0], ([0, 0, 0, 0], [1, 1, 1, 0], [0.1, 0.2, 0.3, -0.0]))[0]
    (j0, zero), (j1, total) = row_coeffs(m, row)
    assert (j0, j1) == (0, 1) and total == ((0.0 + 0.1) + 0.2) + 0.3
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    row = add_row(m, SENSE_LE, 1.0, [(1, 0.1), (1, 0.2), (1, 0.3)])
    assert row_coeffs(m, row) == ((1, total),)


def test_views_show_later_appends():
    m = _two_columns()
    add_row(m, SENSE_LE, 1.0, [(0, 1.0)])
    assert len(m.rows) == 1
    names = m.variable_names
    x = m.add_variables(0.0, [4.0, 5.0], 2.0, names=[("y{}_{}", [[0, 1], [2, 3]])])
    r = m.add_rows(SENSE_GE, [3.0], ([0, 0], x, [1.0, -1.0]), names=[("cap{}", [7])])
    assert names == ["x0", "x1"]  # a list read before stays as it was
    assert m.variable_names == ["x0", "x1", "y0_1", "y2_3"]
    assert m.upper.tolist() == [1.0, 1.0, 4.0, 5.0] and m.cost.tolist() == [0.0] * 2 + [2.0] * 2
    assert not m.binary.any()
    assert m.rows[-1] == Row(int(r[0]), SENSE_GE, 3.0, ((2, 1.0), (3, -1.0)), "cap7")
    assert all(type(j) is int for row in m.rows for j, _ in row.coeffs)
    assert m.matrix.shape == (2, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.rows[0].rhs = 9.0
    for array in (m.lower, m.upper, m.cost, m.binary, m.senses, m.rhs, m.indptr, m.indices,
                  m.data):
        with pytest.raises(ValueError):
            array[0] = array[0]


def _number_model():
    """Signed zeros in both orders in the rhs and the bounds, tiny, huge and
    repeating numbers, infinite bounds, an empty row and two runs of binaries."""
    m = LinearModel("numbers")
    m.add_variables(
        [0.0, -0.0, -0.0, 0.0, -INF, -INF, 1e-13, 2.5, 0.0],
        [-0.0, 0.0, 5.0, 1e16, INF, 1e-13, INF, 2.5, 1 / 3],
        [1e16, 0.0, -1 / 3, 0.0, -1.0, 1e-13, 0.0, 0.0, 2.0],
        names=[("x{}", np.arange(9))],
    )
    m.add_variables(0.0, [1.0, 0.0], [0.0, 1.0], BINARY, names=[("b{}", [[0], [1]])])
    m.add_variables(0.0, 3.0, 0.0, names=[("c", [()])])
    m.add_variables(0.0, 1.0, -2.0, BINARY, names=[("b2", [()])])
    m.add_rows(
        [SENSE_LE, SENSE_EQ, SENSE_GE, SENSE_EQ, SENSE_LE, SENSE_GE],
        [0.0, -0.0, -0.0, 0.0, 1e16, -1 / 3],
        (
            [0, 0, 0, 1, 1, 2, 3, 3, 3, 5],
            [0, 4, 9, 1, 12, 2, 3, 10, 6, 11],
            [1e-13, -1 / 3, 1e16, -1.0, 1.0, 1 / 3, -1e-13, 2.0, 0.0, -1e16],
        ),
        names=[("r{}", np.arange(4)), ("empty", [()]), ("last", [()])],
    )
    return m


# the writers' text of _number_model, byte for byte
NUMBER_MODEL_LP = "\\" + """ numbers
Minimize
 obj: 1e+16 x0 - 0.333333333333 x2 - 1 x4 + 1e-13 x5 + 2 x8 + 1 b1 - 2 b2
Subject To
 r0: 1e-13 x0 - 0.333333333333 x4 + 1e+16 b0 <= 0
 r1: -1 x1 + 1 b2 = -0
 r2: 0.333333333333 x2 >= -0
 r3: -1e-13 x3 + 0 x6 + 2 b1 = 0
 empty: 0 x0 <= 1e+16
 last: -1e+16 c >= -0.333333333333
Bounds
 x0 = 0
 x1 = -0
 -0 <= x2 <= 5
 0 <= x3 <= 1e+16
 x4 free
 -infinity <= x5 <= 1e-13
 x6 >= 1e-13
 x7 = 2.5
 0 <= x8 <= 0.333333333333
 0 <= b0 <= 1
 b1 = 0
 0 <= c <= 3
 0 <= b2 <= 1
Binaries
 b0 b1 b2
End
"""

NUMBER_MODEL_MPS = """NAME          numbers
ROWS
 N  COST
 L  r0
 E  r1
 G  r2
 E  r3
 L  empty
 G  last
COLUMNS
    x0  COST  1e+16
    x0  r0  1e-13
    x1  r1  -1
    x2  COST  -0.333333333333
    x2  r2  0.333333333333
    x3  r3  -1e-13
    x4  COST  -1
    x4  r0  -0.333333333333
    x5  COST  1e-13
    x6  r3  0
    x8  COST  2
    MARKER0  'MARKER'  'INTORG'
    b0  r0  1e+16
    b1  COST  1
    b1  r3  2
    MARKER1  'MARKER'  'INTEND'
    c  last  -1e+16
    MARKER2  'MARKER'  'INTORG'
    b2  COST  -2
    b2  r1  1
    MARKER3  'MARKER'  'INTEND'
RHS
    RHS  empty  1e+16
    RHS  last  -0.333333333333
BOUNDS
 FX BND  x0  0
 FX BND  x1  -0
 LO BND  x2  -0
 UP BND  x2  5
 LO BND  x3  0
 UP BND  x3  1e+16
 MI BND  x4
 PL BND  x4
 MI BND  x5
 UP BND  x5  1e-13
 LO BND  x6  1e-13
 PL BND  x6
 FX BND  x7  2.5
 LO BND  x8  0
 UP BND  x8  0.333333333333
 LO BND  b0  0
 UP BND  b0  1
 FX BND  b1  0
 LO BND  c  0
 UP BND  c  3
 LO BND  b2  0
 UP BND  b2  1
ENDATA
"""


def test_writer_number_text_is_pinned():
    model = _number_model()
    assert export_lp(model) == NUMBER_MODEL_LP
    assert export_mps(model) == NUMBER_MODEL_MPS

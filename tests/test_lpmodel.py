import dataclasses
import math

import pytest

from helpers import parse_lp, parse_mps
from lambdabound.instance import gen_cycle
from lambdabound.formulations import build_lp_r3
from lambdabound.lpmodel import (
    BINARY,
    CONTINUOUS,
    INF,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    LinearModel,
    ModelError,
    Row,
    Variable,
    export_lp,
    export_mps,
)


def test_add_variable_ids_and_bounds():
    m = LinearModel()
    v0 = m.add_variable(0.0, 80.0, 1.0)
    assert v0 == 0
    assert m.variables[0].upper == 80.0
    v1 = m.add_variable(0.0, 0.0, 0.0)  # pinned at zero
    assert v1 == 1 and m.num_variables == 2


def test_add_variable_inverted_bounds():
    m = LinearModel()
    with pytest.raises(ModelError, match="inverted"):
        m.add_variable(3.0, 1.0, 0.0)


def test_binary_bound_rule():
    m = LinearModel()
    m.add_variable(0.0, 1.0, 0.0, integrality=BINARY)
    with pytest.raises(ModelError):
        m.add_variable(0.0, 2.0, 0.0, integrality=BINARY)


def test_add_row_shapes():
    m = LinearModel()
    x0 = m.add_variable(0, 1, 0)
    x1 = m.add_variable(0, 1, 0)
    r = m.add_row(SENSE_EQ, 1.0, [(x0, 1.0), (x1, 1.0)])
    assert m.rows[r].coeffs == ((x0, 1.0), (x1, 1.0))
    r = m.add_row(SENSE_LE, 0.0, [(x1, 1.0), (x0, -1.0)])
    assert m.rows[r].coeffs == ((x0, -1.0), (x1, 1.0))  # canonical order


def test_add_row_merges_duplicates():
    m = LinearModel()
    x0 = m.add_variable(0, 1, 0)
    r = m.add_row(SENSE_EQ, 0.0, [(x0, 1.0), (x0, 1.0)])
    assert m.rows[r].coeffs == ((x0, 2.0),)


def test_add_row_unknown_variable():
    m = LinearModel()
    m.add_variable(0, 1, 0)
    with pytest.raises(ModelError, match="unknown variable"):
        m.add_row(SENSE_GE, 0.0, [(5, 1.0)])


def test_export_empty_model():
    m = LinearModel("empty")
    lp = export_lp(m)
    assert "Minimize" in lp and "Subject To" in lp and lp.rstrip().endswith("End")
    mps = export_mps(m)
    assert mps.startswith("NAME")
    assert "ROWS" in mps and "COLUMNS" in mps and mps.rstrip().endswith("ENDATA")


def test_export_single_entry_documents():
    m = LinearModel("one")
    x = m.add_variable(0.0, 4.0, 2.0, name="x")
    m.add_row(SENSE_LE, 3.0, [(x, 1.0)], name="cap")
    lp = export_lp(m)
    assert lp.count("cap:") == 1
    assert "2 x" in lp
    mps = export_mps(m)
    assert mps.count(" L  cap") == 1
    assert mps.count("    x  ") == 2  # one COST entry, one row entry


def test_export_deterministic():
    def build():
        m = LinearModel("det")
        a = m.add_variable(0, 5, 1.5, name="a")
        b = m.add_variable(0, INF, -2, name="b")
        m.add_row(SENSE_GE, 1, [(b, 1), (a, 3)])
        m.add_row(SENSE_EQ, 0, [(a, 1), (b, -1)])
        return m

    assert export_lp(build()) == export_lp(build())
    assert export_mps(build()) == export_mps(build())


def test_binary_sections():
    m = LinearModel()
    m.add_variable(0, 1, 1.0, integrality=BINARY, name="b0")
    m.add_variable(0, 3, 1.0, name="c0")
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
    x = m.add_variable(0, 10, 1.0, name="x")
    y = m.add_variable(0, 10, 2.0, name="y")
    m.add_row(SENSE_GE, 3, [(x, 1.0), (y, 1.0)])
    m.add_row(SENSE_LE, 8, [(x, 1.0)])
    m.add_row(SENSE_EQ, 1, [(y, 1.0)])
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
    "scalar, block",
    [
        # a non-finite coefficient
        (lambda m: m.add_row(SENSE_LE, 0.0, [(0, math.nan)]),
         lambda m: m.add_rows(SENSE_LE, [0.0, 1.0], ([0, 1], [0, 1], [1.0, math.nan]))),
        # a non-finite rhs
        (lambda m: m.add_row(SENSE_LE, INF, [(0, 1.0)]),
         lambda m: m.add_rows(SENSE_LE, [0.0, INF], ([0, 1], [0, 1], 1.0))),
        # an unknown column id
        (lambda m: m.add_row(SENSE_GE, 0.0, [(5, 1.0)]),
         lambda m: m.add_rows(SENSE_GE, [0.0, 0.0], ([0, 1], [1, 5], 1.0))),
        # an unknown sense
        (lambda m: m.add_row("<", 0.0, [(0, 1.0)]),
         lambda m: m.add_rows([SENSE_LE, "<"], [0.0, 0.0], ([0, 1], [0, 1], 1.0))),
        # inverted bounds
        (lambda m: m.add_variable(3.0, 1.0, 0.0),
         lambda m: m.add_variables([0.0, 3.0], 1.0, 0.0)),
        # a binary outside [0, 1]
        (lambda m: m.add_variable(0.0, 2.0, 0.0, integrality=BINARY),
         lambda m: m.add_variables(0.0, [1.0, 2.0], 0.0, BINARY)),
    ],
)
def test_block_append_refuses_like_the_scalar_calls(scalar, block):
    m = _two_columns()
    expected = _message(lambda: scalar(m))
    assert _message(lambda: block(m)) == expected
    # a refused block appends nothing
    assert (m.num_variables, m.num_rows) == (2, 0)
    assert len(m.variables) == 2 and m.rows == ()


def test_block_rows_merge_duplicates_in_order():
    m = _two_columns()
    # row 0: 1 + 2 on column 1 and 0.5 on column 0; row 1: 1 - 1 on column 0
    block = m.add_rows(SENSE_EQ, [0.0, 0.0], ([0, 0, 1, 1, 0], [1, 1, 0, 0, 0],
                                              [1.0, 2.0, 1.0, -1.0, 0.5]))
    assert m.rows[block[0]].coeffs == ((0, 0.5), (1, 3.0))
    assert m.rows[block[1]].coeffs == ((0, 0.0),)  # a merged zero stays
    scalar = m.add_row(SENSE_EQ, 0.0, [(0, 1.0), (0, -1.0)])
    assert m.rows[scalar].coeffs == ((0, 0.0),)
    # three duplicates add left to right, as a sum from zero does, and -0.0 becomes 0.0
    row = m.add_rows(SENSE_LE, [1.0], ([0, 0, 0, 0], [1, 1, 1, 0], [0.1, 0.2, 0.3, -0.0]))[0]
    (j0, zero), (j1, total) = m.rows[row].coeffs
    assert (j0, j1) == (0, 1) and total == ((0.0 + 0.1) + 0.2) + 0.3
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    row = m.add_row(SENSE_LE, 1.0, [(1, 0.1), (1, 0.2), (1, 0.3)])
    assert m.rows[row].coeffs == ((1, total),)


def test_views_show_later_appends():
    m = _two_columns()
    m.add_row(SENSE_LE, 1.0, [(0, 1.0)])
    assert len(m.variables) == 2 and len(m.rows) == 1
    names = m.variable_names
    x = m.add_variables(0.0, [4.0, 5.0], 2.0, names=[("y{}_{}", [[0, 1], [2, 3]])])
    r = m.add_rows(SENSE_GE, [3.0], ([0, 0], x, [1.0, -1.0]), names=[("cap{}", [7])])
    assert names == ["x0", "x1"]  # a list read before stays as it was
    assert [v.name for v in m.variables] == ["x0", "x1", "y0_1", "y2_3"]
    assert m.variables[-1] == Variable(3, 0.0, 5.0, 2.0, CONTINUOUS, "y2_3")
    assert m.rows[-1] == Row(int(r[0]), SENSE_GE, 3.0, ((2, 1.0), (3, -1.0)), "cap7")
    assert m.matrix.shape == (2, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.variables[0].upper = 9.0
    with pytest.raises(ValueError):
        m.upper[0] = 9.0

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import linprog_solve, solve_checked
from lambdabound import simplex
from lambdabound.benders import solve_lp_r3_benders
from lambdabound.formulations import build_ip_rwap_ppp, build_lp_r3
from lambdabound.instance import gen_cycle, gen_random
from lambdabound.lpmodel import (
    INF,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    LinearModel,
    ModelError,
)
from lambdabound.simplex import check_certificates, presolve, solve


def test_single_ge_row_dual():
    m = LinearModel()
    x = m.add_variable(0, 10, 1.0)
    r = m.add_row(SENSE_GE, 3.0, [(x, 1.0)])
    sol = solve_checked(m)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.duals[r] == pytest.approx(1.0, abs=1e-9)


def test_model_without_rows():
    m = LinearModel()
    m.add_variable(0, 4, -1.0)
    m.add_variable(-1, 3, 2.0)
    sol = solve_checked(m)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == -6.0


def test_binding_equality():
    m = LinearModel()
    x = m.add_variable(0, 10, 1.0)
    y = m.add_variable(0, 10, 1.0)
    m.add_row(SENSE_EQ, 5.0, [(x, 1.0), (y, 1.0)])
    sol = solve_checked(m)
    assert sol.objective == pytest.approx(5.0, abs=1e-9)


def test_ring_relaxation_value():
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    sol = solve_checked(model)
    assert sol.objective == pytest.approx(10.0, abs=1e-6)


def test_infeasible_detected():
    m = LinearModel()
    x = m.add_variable(0, 10, 1.0)
    m.add_row(SENSE_LE, 1.0, [(x, 1.0)])
    m.add_row(SENSE_GE, 2.0, [(x, 1.0)])
    assert solve(m).status == simplex.INFEASIBLE


def test_unbounded_detected():
    m = LinearModel()
    x = m.add_variable(0, INF, -1.0)
    m.add_row(SENSE_GE, 0.0, [(x, 1.0)])
    assert solve(m).status == simplex.UNBOUNDED


def test_iteration_limit_status(monkeypatch):
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 3)
    sol = solve(model)
    assert sol.status == simplex.ITERATION_LIMIT
    assert sol.iterations == 3


def test_iteration_limit_caps_a_warm_attempt_and_its_cold_fallback(monkeypatch):
    model, _ = build_lp_r3(gen_random(8, 2, 4, 10, seed=1))
    lp = presolve(model)
    lp.basis = solve(lp).basis
    capacities = [i for i, row in enumerate(model.rows) if row.name.startswith("acap_")]
    lp.set_rhs(capacities, np.full(len(capacities), 1.5))
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 3)
    sol = solve(lp)
    assert sol.status == simplex.ITERATION_LIMIT
    assert sol.iterations == 3


def test_certificates_flag_a_corrupted_solution():
    m = LinearModel()
    x = m.add_variable(0, 10, 1.0)
    y = m.add_variable(0, 10, 2.0)
    r = m.add_row(SENSE_EQ, 5.0, [(x, 1.0), (y, 1.0)])
    sol = solve(m)
    assert sol.status == simplex.OPTIMAL and sol.duals[r] == pytest.approx(1.0)
    clean = check_certificates(m, sol)
    assert max(clean[k] for k in ("bound_violation", "row_violation", "duality_gap")) <= 1e-9

    primal, duals = sol.primal.copy(), sol.duals.copy()
    primal[x] = 11.0  # one past its upper bound, which also breaks the row
    duals[r] = -duals[r]
    bad = check_certificates(m, dataclasses.replace(sol, primal=primal, duals=duals))
    assert bad["bound_violation"] == pytest.approx(1.0)
    assert bad["row_violation"] == pytest.approx(6.0)
    assert bad["duality_gap"] == pytest.approx(10.0)


def test_requires_a_variable():
    with pytest.raises(ModelError):
        solve(LinearModel())


def test_fixed_variables_and_empty_rows_presolve():
    m = LinearModel()
    x = m.add_variable(2.0, 2.0, 1.0)  # pinned
    y = m.add_variable(0.0, 5.0, 1.0)
    m.add_row(SENSE_LE, 3.0, [(x, 1.0)])          # 2 <= 3, row drops out
    m.add_row(SENSE_GE, 4.0, [(x, 1.0), (y, 1.0)])
    sol = solve_checked(m)
    assert sol.objective == pytest.approx(4.0)
    assert sol.primal[x] == 2.0 and sol.primal[y] == pytest.approx(2.0)

    m.add_row(SENSE_EQ, 5.0, [(x, 1.0)])  # 2 == 5 is impossible
    assert solve(m).status == simplex.INFEASIBLE

    lp = presolve(m)
    lp.set_rhs([1], [5.0])  # a kept row
    with pytest.raises(ModelError):
        lp.set_rhs([0], [1.0])  # dropped: its support is all pinned
    with pytest.raises(ModelError):
        presolve(m).set_rhs([7], [1.0])  # no such row


def test_all_variables_fixed():
    m = LinearModel()
    x = m.add_variable(1.0, 1.0, 3.0)
    m.add_row(SENSE_LE, 2.0, [(x, 1.0)])
    sol = solve_checked(m)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(3.0)


def _random_model(rng):
    n = int(rng.integers(1, 10))
    mm = int(rng.integers(1, 8))
    model = LinearModel()
    hi = rng.integers(1, 9, size=n).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    for j in range(n):
        model.add_variable(0.0, hi[j], c[j])
    senses = rng.choice([SENSE_LE, SENSE_EQ, SENSE_GE], size=mm)
    for i in range(mm):
        coeffs = [(j, float(rng.integers(-3, 4))) for j in range(n)]
        model.add_row(senses[i], float(rng.integers(-5, 10)), coeffs)
    return model


def _certificates_by_loop(model, sol):
    """check_certificates written as loops over the model, as a reference."""
    tol = simplex.FEASIBILITY_TOL
    x, y, d = sol.primal, sol.duals, sol.reduced_costs
    bound_viol = cs_var = dual_obj = 0.0
    for v in model.variables:
        bound_viol = max(bound_viol, v.lower - x[v.id], x[v.id] - v.upper)
        if v.lower + tol < x[v.id] < v.upper - tol:
            cs_var = max(cs_var, abs(d[v.id]))
        if abs(d[v.id]) > 1e-12:
            dual_obj += d[v.id] * (v.lower if d[v.id] > 0 else v.upper)
    row_viol = cs_row = 0.0
    for row in model.rows:
        slack = row.rhs - sum(c * x[j] for j, c in row.coeffs)
        excess = {SENSE_LE: -slack, SENSE_GE: slack}.get(row.sense, abs(slack))
        row_viol = max(row_viol, excess)
        if abs(y[row.id]) > simplex.OPTIMALITY_TOL:
            cs_row = max(cs_row, abs(slack))
        dual_obj += y[row.id] * row.rhs
    return {
        "bound_violation": bound_viol,
        "row_violation": row_viol,
        "duality_gap": abs(sol.objective - dual_obj),
        "cs_variable": cs_var,
        "cs_row": cs_row,
        "dual_objective": dual_obj,
    }


def test_random_sweep_matches_reference():
    rng = np.random.default_rng(2024)
    optima = 0
    for _ in range(150):
        model = _random_model(rng)
        ref = linprog_solve(model)
        got = solve(model)
        if ref.status == 0:
            optima += 1
            assert got.status == simplex.OPTIMAL
            assert got.objective == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
            cert = check_certificates(model, got)
            # array sums may round differently from the loop's running sums
            assert cert == pytest.approx(_certificates_by_loop(model, got), rel=1e-12, abs=1e-12)
            assert cert["duality_gap"] <= 1e-6 * (1 + abs(got.objective))
            assert cert["cs_variable"] <= 1e-6
            assert cert["cs_row"] <= 1e-6 * (1 + abs(got.objective))
        elif ref.status == 2:
            assert got.status == simplex.INFEASIBLE
    assert optima >= 40  # the sweep must actually exercise optimal solves


def test_dual_sign_conventions():
    rng = np.random.default_rng(7)
    for _ in range(60):
        model = _random_model(rng)
        sol = solve(model)
        if sol.status != simplex.OPTIMAL:
            continue
        for row in model.rows:
            if row.sense == SENSE_LE:
                assert sol.duals[row.id] <= 1e-9
            elif row.sense == SENSE_GE:
                assert sol.duals[row.id] >= -1e-9


def test_bitwise_determinism():
    def run():
        model, _ = build_lp_r3(gen_cycle(6, 2, 10))
        return solve(model)

    a, b = run(), run()
    assert a.status == b.status
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.duals, b.duals)
    assert np.array_equal(a.reduced_costs, b.reduced_costs)


def test_singular_refactor_is_a_status(monkeypatch):
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    original = simplex.splu
    calls = []

    def singular_after_start(B, **kw):
        # the slack basis factors; every later factorization is singular
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("Factor is exactly singular")
        return original(B, **kw)

    monkeypatch.setattr(simplex, "splu", singular_after_start)
    sol = solve(model)
    assert sol.status == simplex.NUMERICAL_ERROR
    assert sol.iterations > 0


def test_singular_start_basis_falls_back_cold(monkeypatch):
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    cold = solve(model)
    lp = presolve(model)
    lp.basis = cold.basis
    original = simplex.splu
    calls = []

    def singular_once(B, **kw):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return original(B, **kw)

    monkeypatch.setattr(simplex, "splu", singular_once)
    again = solve(lp)
    assert again.status == simplex.OPTIMAL
    assert again.objective == cold.objective
    assert again.iterations == cold.iterations


def test_dependent_start_basis_falls_back_cold():
    m = LinearModel()
    x = m.add_variable(0, 4, -1.0)
    y = m.add_variable(0, 4, -2.0)
    m.add_row(SENSE_LE, 5.0, [(x, 1.0), (y, 1.0)])
    m.add_row(SENSE_GE, 1.0, [(x, 2.0), (y, 2.0)])
    cold = solve(m)
    lp = presolve(m)
    # x and y have the same column, so a basis of both is singular
    lp.basis = simplex.Basis(
        np.array([0, 1], dtype=np.int32),
        np.array([simplex._BASIC, simplex._BASIC, simplex._NB_LOWER, simplex._NB_UPPER],
                 dtype=np.int8),
    )
    with pytest.raises(np.linalg.LinAlgError):
        simplex._Core(lp).start_warm(lp.basis, lp.c)
    again = solve(lp)
    assert cold.status == again.status == simplex.OPTIMAL
    assert again.objective == cold.objective == pytest.approx(-9.0)
    assert again.iterations == cold.iterations


def _open_columns_model():
    """min x - y + 2z - 3w with x free, y >= 0 and z <= 3 open, w boxed."""
    m = LinearModel()
    x = m.add_variable(-INF, INF, 1.0)
    y = m.add_variable(0.0, INF, -1.0)
    z = m.add_variable(-INF, 3.0, 2.0)
    w = m.add_variable(0.0, 4.0, -3.0)
    m.add_row(SENSE_GE, 2.0, [(x, 1.0), (y, -1.0)])
    m.add_row(SENSE_LE, 6.0, [(y, 1.0), (w, 1.0)])
    m.add_row(SENSE_EQ, 1.0, [(x, 1.0), (z, 1.0), (w, -1.0)])
    m.add_row(SENSE_GE, -5.0, [(z, 1.0), (y, -1.0)])
    return m


def test_pivot_paths_are_pinned(net4):
    """Pivot counts of solves without a start basis and of a decomposition's warm re-solves.

    The first three start from the slack basis, the last goes through the
    two-phase fallback. A change to the simplex that keeps every pivot path
    leaves these exact.
    """
    cases = [
        (build_lp_r3(gen_cycle(5, 2, 80))[0], 38, 10.0),
        (build_ip_rwap_ppp(net4, relax=True)[0], 96, 3.0),
        (build_ip_rwap_ppp(gen_random(5, 1, 2, 2, 7), relax=True)[0], 277, 8.0),
        (_open_columns_model(), 5, -12.0),
    ]
    for model, pivots, objective in cases:
        sol = solve_checked(model)
        assert sol.status == simplex.OPTIMAL, model.name
        assert sol.iterations == pivots, model.name
        assert sol.objective == pytest.approx(objective, abs=1e-9), model.name

    res = solve_lp_r3_benders(gen_random(10, 2, 3, 3, seed=7))
    assert (res.iterations, res.cuts_added) == (6, 31)
    assert [(rec.master_pivots, rec.sub_pivots) for rec in res.log] == [
        (27, 33), (8, 20), (6, 30), (10, 10), (7, 21), (4, 4)
    ]


# -- warm starts -------------------------------------------------------------

TOLERANCES = {  # acceptance criterion 8
    "bound_violation": 1e-7,
    "row_violation": 1e-7,
    "cs_variable": 1e-6,
}


def _bounded_feasible(seed):
    """A random LP with boxed variables, feasible at the integer point x0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 8))
    hi = rng.integers(1, 9, size=n).astype(float)
    cost = rng.integers(-5, 6, size=n).astype(float)
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    senses = list(rng.choice([SENSE_LE, SENSE_EQ, SENSE_GE], size=m))
    x0 = rng.integers(0, hi.astype(int) + 1).astype(float)
    return rng, hi, cost, A, senses, x0


def _rhs_at(rng, A, senses, x):
    """Right-hand sides that x satisfies, with random integer slack."""
    lhs = A @ x
    pad = rng.integers(0, 4, size=len(lhs)).astype(float)
    return [
        lhs[i] + pad[i] if s == SENSE_LE else lhs[i] - pad[i] if s == SENSE_GE else lhs[i]
        for i, s in enumerate(senses)
    ]


def _model(hi, cost, rows):
    model = LinearModel()
    for j in range(len(hi)):
        model.add_variable(0.0, hi[j], cost[j])
    for sense, rhs, coeffs in rows:
        model.add_row(sense, float(rhs), coeffs)
    return model


def _rows(A, senses, rhs):
    return [
        (senses[i], rhs[i], [(j, float(A[i, j])) for j in range(A.shape[1])])
        for i in range(A.shape[0])
    ]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_bound_is_a_lower_bound(seed):
    rng, _, _, _, senses, _, _, lp, first = _solved(seed)
    tol = 1e-9 * (1 + abs(first.objective))
    bound, signed = simplex.dual_bound(lp, first.duals)
    assert abs(bound - first.objective) <= tol
    y = rng.normal(scale=3.0, size=lp.num_rows)
    bound, signed = simplex.dual_bound(lp, y)
    assert bound <= first.objective + tol
    senses = np.array(senses)
    assert (signed[senses == SENSE_LE] <= 0).all() and (signed[senses == SENSE_GE] >= 0).all()


def test_dual_bound_with_open_and_fixed_columns():
    # min x + 3z, x + z >= 3, x >= 0, z pinned at 2: optimum 7
    m = LinearModel()
    x = m.add_variable(0.0, INF, 1.0)
    z = m.add_variable(2.0, 2.0, 3.0)
    m.add_row(SENSE_GE, 3.0, [(x, 1.0), (z, 1.0)])
    lp = presolve(m)
    assert simplex.dual_bound(lp, [1.0])[0] == 7.0  # r = 0 meets the open bound
    assert simplex.dual_bound(lp, [2.0])[0] == -INF  # r < 0 points at it
    bound, signed = simplex.dual_bound(lp, [-1.0])  # wrong sign on a '>=' row
    assert bound == 6.0 and signed[0] == 0.0


def _warm(lp):
    """Solve lp from its start basis; also say whether the cold path ran."""
    calls = []
    original = simplex._solve_cold

    def counting(*args):
        calls.append(1)
        return original(*args)

    simplex._solve_cold = counting
    try:
        return solve(lp), bool(calls)
    finally:
        simplex._solve_cold = original


def _assert_certified(model, sol):
    cert = check_certificates(model, sol)
    scale = 1.0 + abs(sol.objective)
    for key, tol in TOLERANCES.items():
        assert cert[key] <= tol, (key, cert)
    assert cert["duality_gap"] <= 1e-6 * scale, cert
    assert cert["cs_row"] <= 1e-6 * scale, cert


def _assert_matches_cold(model, warm):
    """warm agrees with the two-phase path, and both pass the certificate checks."""
    cold = simplex._solve_cold(presolve(model))
    assert warm.status == cold.status == simplex.OPTIMAL
    assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
    _assert_certified(model, warm)
    _assert_certified(model, cold)


def _assert_bitwise_equal(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert a.objective == b.objective
    for name in ("primal", "duals", "reduced_costs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _solved(seed):
    rng, hi, cost, A, senses, x0 = _bounded_feasible(seed)
    rhs = _rhs_at(rng, A, senses, x0)
    lp = presolve(_model(hi, cost, _rows(A, senses, rhs)))
    first = solve(lp)
    assert first.status == simplex.OPTIMAL
    lp.basis = first.basis
    return rng, hi, cost, A, senses, x0, rhs, lp, first


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_warm_resolve_unchanged_rhs_takes_no_pivots(seed):
    *_, lp, first = _solved(seed)
    again, went_cold = _warm(lp)
    assert not went_cold
    assert again.iterations == 0
    assert again.objective == first.objective


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_warm_resolve_after_rhs_change(seed):
    rng, hi, cost, A, senses, _, _, lp, _ = _solved(seed)
    x1 = rng.integers(0, hi.astype(int) + 1).astype(float)
    rhs = _rhs_at(rng, A, senses, x1)
    lp.set_rhs(np.arange(len(rhs)), rhs)
    warm, went_cold = _warm(lp)
    assert not went_cold
    _assert_matches_cold(_model(hi, cost, _rows(A, senses, rhs)), warm)
    _assert_bitwise_equal(warm, solve(lp))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_warm_resolve_after_cutting_row(seed):
    rng, hi, cost, A, senses, x0, rhs, lp, first = _solved(seed)
    g = rng.integers(-3, 4, size=len(hi)).astype(float)
    at_x0, at_opt = float(g @ x0), float(g @ first.primal)
    if abs(at_x0 - at_opt) < 1e-6:
        g, at_x0, at_opt = -cost, float(-cost @ x0), float(-cost @ first.primal)
    if abs(at_x0 - at_opt) < 1e-6:
        return  # x0 is optimal too: no row separates it from the optimum
    # a row that x0 satisfies and the optimum violates
    sense = SENSE_LE if at_x0 < at_opt else SENSE_GE
    cut = (sense, (at_x0 + at_opt) / 2, [(j, float(g[j])) for j in range(len(g))])
    lp.add_rows([cut])
    warm, went_cold = _warm(lp)
    assert not went_cold
    model = _model(hi, cost, _rows(A, senses, rhs) + [cut])
    _assert_matches_cold(model, warm)
    _assert_bitwise_equal(warm, solve(lp))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_warm_resolve_reports_infeasible(seed, which):
    _, hi, cost, A, senses, _, _, lp, _ = _solved(seed)
    i = which % A.shape[0]
    reach_hi = float(np.maximum(A[i] * hi, 0.0).sum())
    reach_lo = float(np.minimum(A[i] * hi, 0.0).sum())
    if senses[i] == SENSE_LE:
        rhs = reach_lo - 1.0
    else:
        rhs = reach_hi + 1.0
    lp.set_rhs([i], [rhs])
    assert solve(lp).status == simplex.INFEASIBLE


# -- the slack-basis dual and its pricing weights ------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_slack_basis_dual_matches_two_phase(seed):
    rng, hi, cost, A, senses, x0 = _bounded_feasible(seed)
    model = _model(hi, cost, _rows(A, senses, _rhs_at(rng, A, senses, x0)))
    # every column is boxed, so the slack basis is dual feasible
    dual, went_cold = _warm(presolve(model))
    assert not went_cold
    _assert_matches_cold(model, dual)
    _assert_bitwise_equal(dual, solve(model))


def test_weights_stay_finite_and_floored(net4, monkeypatch):
    seen = []
    original = simplex._Core._update_weights

    def recording(core, p, u, rho):
        original(core, p, u, rho)
        seen.append((p, core.w.copy()))

    monkeypatch.setattr(simplex._Core, "_update_weights", recording)
    for model in (
        build_ip_rwap_ppp(net4, relax=True)[0],
        build_ip_rwap_ppp(gen_random(5, 1, 2, 2, 7), relax=True)[0],
        build_lp_r3(gen_random(8, 2, 4, 10, seed=1))[0],
    ):
        assert solve_checked(model).status == simplex.OPTIMAL
    assert len(seen) > 500
    for p, w in seen:
        assert np.isfinite(w).all() and (w > 0).all()
        # the pivot row's new weight w_p / u_p^2 is exact and left unfloored
        assert (np.delete(w, p) >= simplex.DSE_FLOOR).all()


def test_overflowing_weight_update_resets_to_one():
    lp = presolve(build_lp_r3(gen_cycle(5, 2, 80))[0])
    core = simplex._Core(lp)
    assert core.start_warm(simplex._slack_basis(lp), lp.c)
    core.w[:] = 1e300
    u = np.full(core.m, 1e200)
    u[0] = 1.0
    core._update_weights(0, u, np.ones(core.m))  # (u_i / u_p)^2 w_p overflows
    assert np.array_equal(core.w, np.ones(core.m))


def test_weights_travel_with_the_basis():
    model = build_lp_r3(gen_cycle(5, 2, 80))[0]
    lp = presolve(model)
    first = solve(lp)
    m = len(lp.b)
    assert len(first.basis.weights) == m and (first.basis.weights != 1.0).any()
    lp.basis = first.basis
    lp.add_rows([(SENSE_LE, 100.0, [(0, 1.0)]), (SENSE_GE, -100.0, [(1, 1.0)])])
    assert np.array_equal(lp.basis.weights[:m], first.basis.weights)
    assert np.array_equal(lp.basis.weights[m:], [1.0, 1.0])

    # a re-solve starts from the stored weights, not from 1s
    core = simplex._Core(lp)
    assert core.start_warm(lp.basis, lp.c)
    assert np.array_equal(core.w, lp.basis.weights)
    stale = dataclasses.replace(lp.basis, weights=np.ones(3))
    assert core.start_warm(stale, lp.c) and np.array_equal(core.w, np.ones(m + 2))


def test_open_columns_solve_through_the_two_phase_fallback():
    model = _open_columns_model()
    lp = presolve(model)
    # y >= 0 has cost -1 and no upper bound to flip to
    assert simplex._solve_warm(lp, simplex._slack_basis(lp), 0) == (None, 0)
    sol, went_cold = _warm(lp)
    assert went_cold
    assert sol.status == simplex.OPTIMAL and sol.objective == pytest.approx(-12.0)
    _assert_certified(model, sol)


def test_slack_basis_dual_restarts_perturbed_after_m_pivots():
    # its unperturbed dual from the slack basis takes 5007 pivots on 1380 rows
    model = build_ip_rwap_ppp(gen_random(6, 2, 2, 2, 402), relax=True)[0]
    lp = presolve(model)
    m = len(lp.b)
    assert simplex._solve_warm(lp, simplex._slack_basis(lp), 0) == (None, m)
    perturbed, spent = simplex._solve_warm(lp, simplex._slack_basis(lp), m, perturb=True)
    assert perturbed is not None and spent > m

    sol, went_cold = _warm(lp)
    assert not went_cold
    _assert_bitwise_equal(sol, perturbed)
    # the clean-up pass prices under the true costs, so the certificates hold
    assert sol.objective == pytest.approx(8.0, abs=1e-9)
    _assert_certified(model, sol)

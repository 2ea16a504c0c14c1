import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add_column,
    add_row,
    linprog_solve,
    patch_factor,
    row_block,
    row_coeffs,
    solve_checked,
)
from lambdabound import simplex
from lambdabound.benders import solve_lp_r3_benders
from lambdabound.formulations import (
    build_ip_rwap,
    build_ip_rwap_ppp,
    build_lp_r3,
    build_master,
)
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
    x = add_column(m, 0, 10, 1.0)
    r = add_row(m, SENSE_GE, 3.0, [(x, 1.0)])
    sol = solve_checked(m)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.duals[r] == pytest.approx(1.0, abs=1e-9)


def test_model_without_rows():
    m = LinearModel()
    add_column(m, 0, 4, -1.0)
    add_column(m, -1, 3, 2.0)
    sol = solve_checked(m)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == -6.0


def test_binding_equality():
    m = LinearModel()
    x = add_column(m, 0, 10, 1.0)
    y = add_column(m, 0, 10, 1.0)
    add_row(m, SENSE_EQ, 5.0, [(x, 1.0), (y, 1.0)])
    sol = solve_checked(m)
    assert sol.objective == pytest.approx(5.0, abs=1e-9)


def test_ring_relaxation_value():
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    sol = solve_checked(model)
    assert sol.objective == pytest.approx(10.0, abs=1e-6)


def test_infeasible_detected():
    m = LinearModel()
    x = add_column(m, 0, 10, 1.0)
    add_row(m, SENSE_LE, 1.0, [(x, 1.0)])
    add_row(m, SENSE_GE, 2.0, [(x, 1.0)])
    assert solve(m).status == simplex.INFEASIBLE


def test_unbounded_detected():
    m = LinearModel()
    x = add_column(m, 0, INF, -1.0)
    add_row(m, SENSE_GE, 0.0, [(x, 1.0)])
    assert solve(m).status == simplex.UNBOUNDED


def test_iteration_limit_status(monkeypatch):
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 3)
    sol = solve(model)
    assert sol.status == simplex.ITERATION_LIMIT
    assert sol.iterations == 3


def test_iteration_limit_ends_a_warm_start(monkeypatch):
    model, _ = build_lp_r3(gen_random(8, 2, 4, 10, seed=1))
    lp = presolve(model)
    lp.basis = solve(lp).basis
    capacities = [i for i, name in enumerate(model.row_names) if name.startswith("acap_")]
    lp.set_rhs(capacities, np.full(len(capacities), 1.5))
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 3)
    sol, starts = _starts(lp)
    assert sol.status == simplex.ITERATION_LIMIT
    assert sol.iterations == 3
    assert starts == ["stored"]  # the cap covers every start: none follows


def test_certificates_flag_a_corrupted_solution():
    m = LinearModel()
    x = add_column(m, 0, 10, 1.0)
    y = add_column(m, 0, 10, 2.0)
    r = add_row(m, SENSE_EQ, 5.0, [(x, 1.0), (y, 1.0)])
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
    x = add_column(m, 2.0, 2.0, 1.0)  # fixed
    y = add_column(m, 0.0, 5.0, 1.0)
    add_row(m, SENSE_LE, 3.0, [(x, 1.0)])          # 2 <= 3 on the fixed column alone
    add_row(m, SENSE_GE, 4.0, [(x, 1.0), (y, 1.0)])
    sol = solve_checked(m)
    assert sol.objective == pytest.approx(4.0)
    assert sol.primal[x] == 2.0 and sol.primal[y] == pytest.approx(2.0)

    add_row(m, SENSE_EQ, 5.0, [(x, 1.0)])  # 2 == 5 is impossible
    assert solve(m).status == simplex.INFEASIBLE

    lp = presolve(m)
    lp.set_rhs([0, 1], [1.0, 5.0])  # every row stays, also one whose support is fixed
    with pytest.raises(ModelError):
        presolve(m).set_rhs([7], [1.0])  # no such row


def test_all_variables_fixed():
    m = LinearModel()
    x = add_column(m, 1.0, 1.0, 3.0)
    add_row(m, SENSE_LE, 2.0, [(x, 1.0)])
    sol = solve_checked(m)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(3.0)


@pytest.mark.parametrize("sense, rhs", [(SENSE_LE, -1.0), (SENSE_EQ, 2.0), (SENSE_GE, 1.0)])
def test_violated_empty_row_is_infeasible(sense, rhs):
    m = LinearModel()
    x = add_column(m, 0, 1, 1.0)
    add_row(m, SENSE_LE, 1.0, [(x, 1.0)])
    add_row(m, sense, rhs, [])
    assert solve(m).status == simplex.INFEASIBLE


def test_set_rhs_and_upper_check_their_ids():
    m = LinearModel()
    x = add_column(m, 0, 4, -1.0)
    add_row(m, SENSE_LE, 3.0, [(x, 1.0)])
    lp = presolve(m)
    for ids in ([1], [-1]):
        with pytest.raises(ModelError):
            lp.set_rhs(ids, [1.0])
        with pytest.raises(ModelError):
            lp.set_upper(ids, [1.0])  # id 1 would be the row's slack
    lp.set_rhs([0], [2.0])
    lp.set_upper([0], [1.0])
    assert solve(lp).objective == -1.0


def _random_model(rng, open_columns=False):
    """A random LP with small integer data.

    Its columns are boxed, or with open_columns each is boxed, [0, inf),
    (-inf, u] or free.
    """
    n = int(rng.integers(1, 10))
    mm = int(rng.integers(1, 8))
    model = LinearModel()
    hi = rng.integers(1, 9, size=n).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    lower, upper = np.zeros(n), hi
    if open_columns:
        kind = rng.integers(0, 4, size=n)
        lower = np.where(kind <= 1, 0.0, -INF)
        upper = np.where(kind % 2 == 0, hi, INF)
    for j in range(n):
        add_column(model, lower[j], upper[j], c[j])
    senses = rng.choice([SENSE_LE, SENSE_EQ, SENSE_GE], size=mm)
    for i in range(mm):
        coeffs = [(j, float(rng.integers(-3, 4))) for j in range(n)]
        add_row(model, senses[i], float(rng.integers(-5, 10)), coeffs)
    return model


def _certificates_by_loop(model, sol):
    """check_certificates written as loops over the model, as a reference."""
    tol = simplex.FEASIBILITY_TOL
    x, y, d = sol.primal, sol.duals, sol.reduced_costs
    bound_viol = cs_var = dual_obj = 0.0
    for j, (lower, upper) in enumerate(zip(model.lower.tolist(), model.upper.tolist())):
        bound_viol = max(bound_viol, lower - x[j], x[j] - upper)
        if lower + tol < x[j] < upper - tol:
            cs_var = max(cs_var, abs(d[j]))
        if abs(d[j]) > 1e-12:
            dual_obj += d[j] * (lower if d[j] > 0 else upper)
    row_viol = cs_row = 0.0
    for i, (sense, rhs) in enumerate(zip(model.senses.tolist(), model.rhs.tolist())):
        slack = rhs - sum(c * x[j] for j, c in row_coeffs(model, i))
        excess = {SENSE_LE: -slack, SENSE_GE: slack}.get(sense, abs(slack))
        row_viol = max(row_viol, excess)
        if abs(y[i]) > simplex.OPTIMALITY_TOL:
            cs_row = max(cs_row, abs(slack))
        dual_obj += y[i] * rhs
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
        assert (sol.duals[model.senses == SENSE_LE] <= 1e-9).all()
        assert (sol.duals[model.senses == SENSE_GE] >= -1e-9).all()


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


# Each factorization test runs on both basis kernels: the name without a
# suffix pins SuperLU (DENSE_ROWS = 0), the _dense twin the dense inverse.


def _singular_refactor_is_a_status(monkeypatch, dense):
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    # the slack basis factors; every later factorization is singular
    patch_factor(monkeypatch, dense, singular=lambda call: call > 1)
    sol = solve(model)
    assert sol.status == simplex.NUMERICAL_ERROR
    assert sol.iterations > 0


def test_singular_refactor_is_a_status(monkeypatch):
    _singular_refactor_is_a_status(monkeypatch, dense=False)


def test_singular_refactor_is_a_status_dense(monkeypatch):
    _singular_refactor_is_a_status(monkeypatch, dense=True)


def _singular_start_basis_falls_back_cold(monkeypatch, dense):
    model, _ = build_lp_r3(gen_cycle(5, 2, 80))
    monkeypatch.setattr(simplex, "DENSE_ROWS", 10**6 if dense else 0)
    fresh = solve(model)
    lp = presolve(model)
    lp.basis = fresh.basis
    patch_factor(monkeypatch, dense, singular=lambda call: call == 1)
    # fresh.basis holds the factor of solve's own presolve, not of lp.cols, so
    # the stored basis is factored again and fails; the slack basis repeats
    # the fresh solve
    again = solve(lp)
    assert again.status == simplex.OPTIMAL
    assert again.objective == fresh.objective
    assert again.iterations == fresh.iterations


def test_singular_start_basis_falls_back_cold(monkeypatch):
    _singular_start_basis_falls_back_cold(monkeypatch, dense=False)


def test_singular_start_basis_falls_back_cold_dense(monkeypatch):
    _singular_start_basis_falls_back_cold(monkeypatch, dense=True)


def _stored_factor_is_reused_on_the_same_columns(monkeypatch, dense):
    monkeypatch.setattr(simplex, "DENSE_ROWS", 10**6 if dense else 0)
    model = build_lp_r3(gen_cycle(5, 2, 80))[0]
    lp = presolve(model)
    first = solve(lp)
    assert first.status == simplex.OPTIMAL and first.basis.factor[0] is lp.cols
    assert isinstance(first.basis.factor[1], np.ndarray) == dense
    lp.basis = first.basis
    # loosen a '<=' row whose slack is basic and raise the upper bound of an
    # open column at its lower one: the basis stays optimal. A closed arc's
    # upper bound of 0 is not raised, since that opens the arc to flow
    n = len(lp.cost)
    status = first.basis.status
    row = next(
        i for i, sense in enumerate(model.senses)
        if sense == SENSE_LE and status[n + i] == simplex._BASIC
    )
    lp.set_rhs([row], [model.rhs[row] + 1.0])
    open_ = (lp.lb[:n] < lp.ub[:n]) & (lp.ub[:n] < INF)
    j = int(np.flatnonzero((status[:n] == simplex._NB_LOWER) & open_)[0])
    lp.set_upper([j], [lp.ub[j] + 1.0])

    calls = patch_factor(monkeypatch, dense)
    warm = solve(lp)
    assert warm.status == simplex.OPTIMAL and warm.iterations == 0
    assert calls == []
    lp.basis = dataclasses.replace(first.basis, factor=None)
    _assert_bitwise_equal(warm, solve(lp))
    assert len(calls) == 1

    # a factor is reused only for the very matrix it was computed on, which
    # test_singular_start_basis_falls_back_cold relies on too: a basis handed
    # to a second presolve, or extended by add_rows, is factored afresh
    calls.clear()
    other = presolve(model)
    other.basis = first.basis
    assert solve(other).iterations == 0 and len(calls) == 1
    calls.clear()
    lp.basis = first.basis
    lp.add_rows(*row_block([(SENSE_LE, 100.0, [(0, 1.0)])], len(lp.cost)))
    assert solve(lp).iterations == 0 and len(calls) == 1


def test_stored_factor_is_reused_on_the_same_columns(monkeypatch):
    _stored_factor_is_reused_on_the_same_columns(monkeypatch, dense=False)


def test_stored_factor_is_reused_on_the_same_columns_dense(monkeypatch):
    _stored_factor_is_reused_on_the_same_columns(monkeypatch, dense=True)


@pytest.mark.parametrize("kernel", [simplex._SparseLU, simplex._DenseInverse])
def test_kernels_track_the_basis_inverse(kernel):
    lp = presolve(build_lp_r3(gen_cycle(5, 2, 80))[0])
    A, head = lp.cols, solve(lp).basis.head.astype(int)
    factor = kernel(A, head.copy())
    rng = np.random.default_rng(3)
    entering = rng.choice(np.setdiff1d(np.arange(A.shape[1]), head), 6, replace=False)
    for q in entering.tolist():
        u = factor.column(q)
        p = int(np.argmax(np.abs(u)))
        factor.update(p, u)
        head[p] = q
        inverse = np.linalg.inv(A[:, head].toarray())
        v = rng.standard_normal(len(head))
        assert np.allclose(factor.ftran(v), inverse @ v)
        assert np.allclose(factor.btran(v), inverse.T @ v)
        assert np.allclose(factor.row(p), inverse[p])
        assert np.allclose(factor.column(q), np.eye(len(head))[p])


def test_factor_of_the_other_kernel_is_not_reused(monkeypatch):
    lp = presolve(build_lp_r3(gen_cycle(5, 2, 80))[0])
    for dense in (False, True):
        monkeypatch.setattr(simplex, "DENSE_ROWS", 10**6 if dense else 0)
        lp.basis = solve(lp).basis
        calls = patch_factor(monkeypatch, not dense)
        assert solve(lp).iterations == 0 and len(calls) == 1
        monkeypatch.undo()


@pytest.mark.parametrize("dense_rows", [0, 10**6])
def test_model_without_rows_on_both_kernels(monkeypatch, dense_rows):
    monkeypatch.setattr(simplex, "DENSE_ROWS", dense_rows)
    m = LinearModel()
    add_column(m, 0, 4, -1.0)
    add_column(m, -1, 3, 2.0)
    sol = solve_checked(m)
    assert sol.status == simplex.OPTIMAL and sol.objective == -6.0
    assert sol.iterations == 0 and len(sol.duals) == 0
    lp = presolve(m)
    lp.basis = sol.basis
    warm = solve(lp)
    assert warm.objective == -6.0 and warm.iterations == 0


def test_rows_appended_in_steps_match_one_presolve():
    instance = gen_random(10, 2, 3, 3, seed=7)
    tau0 = instance.failures[0]
    model, varmap = build_master(instance, tau0)
    wbar = [int(e) for e in varmap.wbar]
    cuts = [
        (SENSE_LE, -1.0 - i, [(e, 0.5 + i) for e in wbar[i : i + 3]]) for i in range(4)
    ]
    # a row without coefficients is kept like any other
    empty = (SENSE_LE, 1.0, [])
    batches = [cuts[:2], [cuts[2], empty, cuts[3]]]

    lp = presolve(model)
    for batch in batches:
        lp.add_rows(*row_block(batch, len(lp.cost)))
    for batch in batches:
        for row in batch:
            add_row(model, *row)
    whole = presolve(model)

    assert lp.cols.shape == (model.num_rows, model.num_variables + model.num_rows)
    for name in ("indptr", "indices", "data"):
        x, y = getattr(lp.cols, name), getattr(whole.cols, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("b", "lb", "ub"):
        assert np.array_equal(getattr(lp, name), getattr(whole, name)), name


def _stacked(cols, R, n):
    """[A | I] with R's rows below A, by scipy's stacking: the reference for add_rows."""
    m, k = cols.shape[0], R.shape[0]
    A = sp.vstack([cols[:, :n].tocsr(), R], format="csr").tocsc()
    return sp.hstack([A, sp.identity(m + k, format="csc")], format="csc")


def test_add_rows_matches_stacking():
    rng = np.random.default_rng(11)
    n = 9
    lp = simplex.ArrayLP("blocks", np.zeros(n), np.zeros(n), np.ones(n))
    # batches with empty rows, a block of empty rows only and columns that
    # never get an entry
    for k, empty in ((3, [0]), (1, []), (4, [1, 3]), (2, [0, 1]), (5, [])):
        block = rng.integers(-3, 4, size=(k, n)) * (rng.random((k, n)) < 0.4)
        block[empty] = 0
        block[:, [2, 7]] = 0
        R = sp.csr_matrix(block.astype(float))
        want = _stacked(lp.cols, R, n)
        lp.add_rows(np.full(k, SENSE_LE), np.zeros(k), R)
        assert lp.cols.shape == want.shape
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(lp.cols, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert np.array_equal(lp.colsT.toarray(), want.T.toarray())
    with pytest.raises(ModelError):
        lp.add_rows(np.full(1, SENSE_LE), np.zeros(1), sp.csr_matrix((1, n + 1)))


def test_dependent_start_basis_falls_back_cold():
    m = LinearModel()
    x = add_column(m, 0, 4, -1.0)
    y = add_column(m, 0, 4, -2.0)
    add_row(m, SENSE_LE, 5.0, [(x, 1.0), (y, 1.0)])
    add_row(m, SENSE_GE, 1.0, [(x, 2.0), (y, 2.0)])
    fresh = solve(m)
    lp = presolve(m)
    # x and y have the same column, so a basis of both is singular
    lp.basis = simplex.Basis(
        np.array([0, 1], dtype=np.int32),
        np.array([simplex._BASIC, simplex._BASIC, simplex._NB_LOWER, simplex._NB_UPPER],
                 dtype=np.int8),
        np.ones(2),
    )
    with pytest.raises(np.linalg.LinAlgError):
        simplex._Core(lp).start(lp.basis, lp.c, False)
    again = solve(lp)
    assert fresh.status == again.status == simplex.OPTIMAL
    assert again.objective == fresh.objective == pytest.approx(-9.0)
    assert again.iterations == fresh.iterations


def _open_columns_model():
    """min x - y + 2z - 3w with x free, y >= 0 and z <= 3 open, w boxed."""
    m = LinearModel()
    x = add_column(m, -INF, INF, 1.0)
    y = add_column(m, 0.0, INF, -1.0)
    z = add_column(m, -INF, 3.0, 2.0)
    w = add_column(m, 0.0, 4.0, -3.0)
    add_row(m, SENSE_GE, 2.0, [(x, 1.0), (y, -1.0)])
    add_row(m, SENSE_LE, 6.0, [(y, 1.0), (w, 1.0)])
    add_row(m, SENSE_EQ, 1.0, [(x, 1.0), (z, 1.0), (w, -1.0)])
    add_row(m, SENSE_GE, -5.0, [(z, 1.0), (y, -1.0)])
    return m


def test_pivot_paths_are_pinned(net4):
    """Pivot counts of solves without a start basis and of a decomposition's warm re-solves.

    The first three are solved from the slack basis. The last is not dual
    feasible there and is solved by the last start, which shifts the costs
    of its open columns. A change to the simplex that keeps every pivot path
    leaves these exact.
    """
    cases = [
        (build_lp_r3(gen_cycle(5, 2, 80))[0], 19, 10.0),
        (build_ip_rwap_ppp(net4, relax=True)[0], 68, 3.0),
        (build_ip_rwap_ppp(gen_random(5, 1, 2, 2, 7), relax=True)[0], 163, 8.0),
        (_open_columns_model(), 5, -12.0),
    ]
    for model, pivots, objective in cases:
        sol = solve_checked(model)
        assert sol.status == simplex.OPTIMAL, model.name
        assert sol.iterations == pivots, model.name
        assert sol.objective == pytest.approx(objective, abs=1e-9), model.name

    res = solve_lp_r3_benders(gen_random(10, 2, 3, 3, seed=7))
    assert (res.iterations, res.cuts_added) == (7, 33)
    assert res.lower_bound == pytest.approx(20.0, abs=1e-9)
    assert [(rec.master_pivots, rec.sub_pivots) for rec in res.log] == [
        (27, 29), (6, 16), (3, 27), (6, 14), (4, 27), (1, 8), (1, 3)
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
        add_column(model, 0.0, hi[j], cost[j])
    for sense, rhs, coeffs in rows:
        add_row(model, sense, float(rhs), coeffs)
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
    x = add_column(m, 0.0, INF, 1.0)
    z = add_column(m, 2.0, 2.0, 3.0)
    add_row(m, SENSE_GE, 3.0, [(x, 1.0), (z, 1.0)])
    lp = presolve(m)
    assert simplex.dual_bound(lp, [1.0])[0] == 7.0  # r = 0 meets the open bound
    assert simplex.dual_bound(lp, [2.0])[0] == -INF  # r < 0 points at it
    bound, signed = simplex.dual_bound(lp, [-1.0])  # wrong sign on a '>=' row
    assert bound == 6.0 and signed[0] == 0.0


def _starts(lp):
    """Solve lp; also list its starts in order.

    Each is 'stored', 'slack' or 'last', or 'shifted' for a last start that
    moved a cost to reach dual feasibility. Patches through
    pytest.MonkeyPatch.context(), the monkeypatch fixture's own class,
    because hypothesis refuses function-scoped fixtures.
    """
    starts = []
    solve_from, perturb = simplex._solve_from, simplex._Core._perturb_costs

    def recording(arrays, start, spent, last):
        starts.append("last" if last else "stored" if start is arrays.basis else "slack")
        return solve_from(arrays, start, spent, last)

    def perturbing(core):
        # the last start perturbs after its shifts, so any cost that is not
        # the true one here was shifted
        if not np.array_equal(core.c, lp.c):
            starts[-1] = "shifted"
        perturb(core)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_solve_from", recording)
        mp.setattr(simplex._Core, "_perturb_costs", perturbing)
        return solve(lp), starts


def _warm(lp):
    """Solve lp from its start basis; also say whether a cost was shifted."""
    sol, starts = _starts(lp)
    return sol, "shifted" in starts


def _assert_certified(model, sol):
    cert = check_certificates(model, sol)
    scale = 1.0 + abs(sol.objective)
    for key, tol in TOLERANCES.items():
        assert cert[key] <= tol, (key, cert)
    assert cert["duality_gap"] <= 1e-6 * scale, cert
    assert cert["cs_row"] <= 1e-6 * scale, cert


def _assert_matches_highs(model, sol):
    """sol is HiGHS's optimum within 1e-7(1+|obj|) and passes the certificate checks."""
    ref = linprog_solve(model)
    assert ref.status == 0 and sol.status == simplex.OPTIMAL, (ref.status, sol.status)
    assert abs(sol.objective - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
    _assert_certified(model, sol)


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
    again, shifted = _warm(lp)
    assert not shifted
    assert again.iterations == 0
    assert again.objective == first.objective


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_warm_resolve_after_rhs_change(seed):
    rng, hi, cost, A, senses, _, _, lp, _ = _solved(seed)
    x1 = rng.integers(0, hi.astype(int) + 1).astype(float)
    rhs = _rhs_at(rng, A, senses, x1)
    lp.set_rhs(np.arange(len(rhs)), rhs)
    warm, shifted = _warm(lp)
    assert not shifted
    _assert_matches_highs(_model(hi, cost, _rows(A, senses, rhs)), warm)
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
    lp.add_rows(*row_block([cut], len(lp.cost)))
    warm, shifted = _warm(lp)
    assert not shifted
    model = _model(hi, cost, _rows(A, senses, rhs) + [cut])
    _assert_matches_highs(model, warm)
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


def test_infeasible_resolve_ends_at_its_first_start():
    m = LinearModel()
    x = add_column(m, 0.0, 10.0, -1.0)
    y = add_column(m, 0.0, 10.0, -1.0)
    r = add_row(m, SENSE_LE, 4.0, [(x, 1.0), (y, 1.0)])
    lp = presolve(m)
    first = solve(lp)
    assert first.status == simplex.OPTIMAL and first.objective == -4.0
    lp.basis = first.basis
    lp.set_rhs([r], [-1.0])
    # the basic column's row has no entering column: a Farkas ray
    sol, starts = _starts(lp)
    assert starts == ["stored"]
    assert sol.status == simplex.INFEASIBLE and sol.iterations == 0


def _on_kernel(dense_rows, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "DENSE_ROWS", dense_rows)
        return fn(*args)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dense_and_sparse_kernels_agree(seed):
    """Cold solves and warm re-solves after new rhs end alike on both kernels."""
    rng, hi, cost, A, senses, x0 = _bounded_feasible(seed)
    rhs = _rhs_at(rng, A, senses, x0)
    x1 = rng.integers(0, hi.astype(int) + 1).astype(float)
    rhs1 = _rhs_at(rng, A, senses, x1)
    runs = []
    for dense_rows in (0, 10**6):
        lp = presolve(_model(hi, cost, _rows(A, senses, rhs)))
        cold = _on_kernel(dense_rows, solve, lp)
        lp.basis = cold.basis
        lp.set_rhs(np.arange(len(rhs1)), rhs1)
        runs.append((cold, _on_kernel(dense_rows, solve, lp)))
    for i, model in enumerate(
        (_model(hi, cost, _rows(A, senses, rhs)), _model(hi, cost, _rows(A, senses, rhs1)))
    ):
        sparse, dense = runs[0][i], runs[1][i]
        assert sparse.status == dense.status == simplex.OPTIMAL
        scale = 1.0 + abs(sparse.objective)
        assert abs(sparse.objective - dense.objective) <= 1e-9 * scale
        _assert_certified(model, sparse)
        _assert_certified(model, dense)


# -- the slack-basis dual and its pricing weights ------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_slack_basis_dual_matches_highs(seed):
    rng, hi, cost, A, senses, x0 = _bounded_feasible(seed)
    model = _model(hi, cost, _rows(A, senses, _rhs_at(rng, A, senses, x0)))
    # every column is boxed, so the slack basis is dual feasible
    dual, shifted = _warm(presolve(model))
    assert not shifted
    _assert_matches_highs(model, dual)
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
        build_lp_r3(gen_random(8, 2, 4, 10, seed=2))[0],
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
    assert core.start(simplex._slack_basis(lp), lp.c, False)
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
    rows = [(SENSE_LE, 100.0, [(0, 1.0)]), (SENSE_GE, -100.0, [(1, 1.0)])]
    lp.add_rows(*row_block(rows, len(lp.cost)))
    assert np.array_equal(lp.basis.weights[:m], first.basis.weights)
    assert np.array_equal(lp.basis.weights[m:], [1.0, 1.0])

    # a re-solve starts from the stored weights, not from 1s
    core = simplex._Core(lp)
    assert core.start(lp.basis, lp.c, False)
    assert np.array_equal(core.w, lp.basis.weights)
    # weights of another basis size do not belong to this LP
    stale = dataclasses.replace(lp.basis, weights=np.ones(3))
    assert not core.start(stale, lp.c, False)


def test_open_columns_shift_their_costs_on_the_last_start():
    model = _open_columns_model()
    lp = presolve(model)
    # y >= 0 has cost -1 and no upper bound to flip to
    assert simplex._solve_from(lp, simplex._slack_basis(lp), 0, False) == (None, 0)
    core = simplex._Core(lp)
    assert core.start(simplex._slack_basis(lp), lp.c, last=True)
    # free x has d = 1 and y >= 0 has d = -1: both costs move to d = 0, and
    # the perturbation then leaves y a small positive d at its lower bound
    assert core.c[0] == 0.0 and core.d[0] == 0.0
    assert 0.0 < core.d[1] < 1e-5 and core.c[1] == core.d[1]

    sol, starts = _starts(lp)
    assert starts == ["slack", "shifted"]
    assert sol.status == simplex.OPTIMAL and sol.objective == pytest.approx(-12.0)
    _assert_certified(model, sol)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_open_columns_match_highs(seed):
    model = _random_model(np.random.default_rng(seed), open_columns=True)
    sol = solve(model)
    ref = linprog_solve(model)
    if ref.status == 0:
        _assert_matches_highs(model, sol)
        return
    # HiGHS may call a feasible, unbounded LP infeasible; its zero-cost
    # solve settles feasibility
    zero_cost = LinearModel()
    zero_cost.add_variables(model.lower, model.upper, 0.0)
    R = model.matrix.tocoo()
    zero_cost.add_rows(model.senses, model.rhs, (R.row, R.col, R.data))
    feasible = linprog_solve(zero_cost)
    assert feasible.status in (0, 2)
    assert sol.status == (simplex.UNBOUNDED if feasible.status == 0 else simplex.INFEASIBLE)


def test_slack_basis_dual_restarts_perturbed_after_m_pivots(net4):
    # its unperturbed dual from the slack basis is still going after m = 22 pivots
    model = build_ip_rwap(net4, relax=True)[0]
    lp = presolve(model)
    m = len(lp.b)
    assert simplex._solve_from(lp, simplex._slack_basis(lp), 0, False) == (None, m)
    perturbed, spent = simplex._solve_from(lp, simplex._slack_basis(lp), m, True)
    assert perturbed is not None and spent > m

    sol, starts = _starts(lp)
    assert starts == ["slack", "last"]
    _assert_bitwise_equal(sol, perturbed)
    # the clean-up pass prices under the true costs, so the certificates hold
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    _assert_certified(model, sol)


# -- forcing rows ----------------------------------------------------------------


def _forcing_case(seed):
    """A random boxed LP, feasible at x0, with planted forcing rows.

    Each forcing row has rhs 0, sense '<=' or '=', and positive integer
    coefficients on columns with lower bound 0, which x0 leaves at 0. The
    first is a '<=' row that also holds the column `lone`, which no other
    row has and whose cost is -5: once that row's rhs exceeds its reach, an
    optimum holds `lone` nonbasic at its upper bound. Returns the bounds,
    costs, forcing rows, the other rows and `lone`.
    """
    rng, hi, cost, A, senses, x0 = _bounded_feasible(seed)
    n = len(hi)
    lone = n
    hi = np.append(hi, float(rng.integers(1, 9)))
    cost = np.append(cost, -5.0)
    A = np.hstack([A, np.zeros((A.shape[0], 1))])
    x0 = np.append(x0, 0.0)
    forcing = []
    for i in range(int(rng.integers(1, 4))):
        held = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        held = np.append(held, lone) if i == 0 else held
        x0[held] = 0.0
        coeffs = [(int(j), float(rng.integers(1, 4))) for j in held]
        sense = SENSE_LE if i == 0 or rng.random() < 0.5 else SENSE_EQ
        forcing.append((sense, 0.0, coeffs))
    others = _rows(A, senses, _rhs_at(rng, A, senses, x0))
    return rng, hi, cost, forcing, others, lone


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forcing_rows_match_highs(seed):
    rng, hi, cost, forcing, others, lone = _forcing_case(seed)
    lp = presolve(_model(hi, cost, forcing + others))
    first = solve(lp)
    _assert_matches_highs(_model(hi, cost, forcing + others), first)
    # the row holds lone at 0 to the feasibility tolerance, as any row holds
    assert abs(first.primal[lone]) <= simplex.FEASIBILITY_TOL

    # a rhs above the row's reach frees its columns; back at 0 it holds them again
    coeffs = forcing[0][2]
    reach = sum(c * hi[j] for j, c in coeffs)
    opened = [(SENSE_LE, reach + 1.0, coeffs)] + forcing[1:]
    lp.basis = first.basis
    lp.set_rhs([0], [reach + 1.0])
    free = solve(lp)
    _assert_matches_highs(_model(hi, cost, opened + others), free)
    # the stored basis holds lone at its upper bound, which the row then forces to 0
    assert free.basis.status[lone] == simplex._NB_UPPER and free.primal[lone] == hi[lone]
    lp.basis = free.basis
    lp.set_rhs([0], [0.0])
    again = solve(lp)
    _assert_matches_highs(_model(hi, cost, forcing + others), again)
    assert again.objective == pytest.approx(first.objective, abs=1e-9 * (1 + abs(first.objective)))

    ref = linprog_solve(_model(hi, cost, forcing + others)).fun
    for _ in range(5):
        bound, _ = simplex.dual_bound(lp, rng.normal(scale=3.0, size=lp.num_rows))
        assert bound <= ref + 1e-9 * (1 + abs(ref))

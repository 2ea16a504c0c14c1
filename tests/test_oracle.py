import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import milp_solve, solve_checked
from lambdabound.formulations import (
    build_ip_r1,
    build_ip_rwap,
    build_ip_rwap_ppp,
    build_lp_r3,
    path_model_rows,
)
from lambdabound.instance import gen_cycle, gen_random
from lambdabound import oracle, simplex
from lambdabound.oracle import (
    OracleBudgetError,
    OracleInfeasibleError,
    exact_rwap,
    exact_rwap_ppp,
    simple_paths,
    verify_chain,
)
from lambdabound.simplex import check_certificates


def test_ring_exact_values():
    assert exact_rwap(gen_cycle(3, 1, 1)) == 1
    assert exact_rwap(gen_cycle(5, 3, 80)) == 3
    assert exact_rwap(gen_cycle(4, 2, 2)) == 2
    assert exact_rwap_ppp(gen_cycle(3, 1, 1)) == 3
    assert exact_rwap_ppp(gen_cycle(3, 2, 80)) == 6


def test_empty_demand():
    inst = gen_random(4, 1, 0, 1, seed=0)
    assert exact_rwap(inst) == 0
    assert exact_rwap_ppp(inst) == 0


def test_worked_example_optima(net4):
    # certified sandwich: the relaxation bounds below, explicit solutions above
    lower = solve_checked(build_lp_r3(net4)[0]).objective
    assert lower == pytest.approx(3.0, abs=1e-6)
    assert exact_rwap(net4) == 3
    assert exact_rwap_ppp(net4) == 3
    assert exact_rwap_ppp(net4) >= exact_rwap(net4)
    assert exact_rwap_ppp(net4) >= lower - 1e-6


def test_protection_never_cheaper():
    for seed in (2, 4, 6):
        inst = gen_random(5, 1, 2, 2, seed=seed)
        assert exact_rwap_ppp(inst) >= exact_rwap(inst)


def test_ppp_infeasible_when_wavelengths_short():
    # one shared detour cannot carry two requests on a single wavelength;
    # built directly since the generator refuses k < n
    import dataclasses

    inst = dataclasses.replace(gen_cycle(3, 2, 2), num_wavelengths=1)
    with pytest.raises(OracleInfeasibleError):
        exact_rwap_ppp(inst)


def test_working_only_infeasible_when_wavelengths_short():
    import dataclasses

    inst = dataclasses.replace(gen_cycle(3, 3, 3), num_wavelengths=1)
    with pytest.raises(OracleInfeasibleError):
        exact_rwap(inst)


def test_budget_exhaustion(monkeypatch):
    inst = gen_cycle(6, 3, 80)
    monkeypatch.setattr(oracle, "MAX_ASSIGNMENTS", 10)
    with pytest.raises(OracleBudgetError):
        exact_rwap_ppp(inst)


def test_path_cap_rejects_instead_of_truncating(monkeypatch):
    inst = gen_random(6, 5, 2, 2, seed=3)
    monkeypatch.setattr(oracle, "MAX_PATHS_PER_PAIR", 1)
    with pytest.raises(OracleBudgetError):
        exact_rwap(inst)


def test_simple_paths_order_and_count():
    inst = gen_cycle(5, 1, 1)
    paths = simple_paths(inst, 0, 4, cap=8)
    assert paths[0] == (4,)  # shortest first
    assert paths[1] == (0, 1, 2, 3)
    assert len(paths) == 2


def test_chain_on_minimal_ring():
    rep = verify_chain(gen_cycle(3, 1, 1))
    assert rep.passed
    assert rep.exact_full == 3
    assert rep.lp_full == pytest.approx(3.0, abs=1e-6)
    assert rep.lp_r1 == pytest.approx(3.0, abs=1e-6)
    assert rep.lp_r2 == pytest.approx(3.0, abs=1e-6)
    assert rep.lp_r3 == pytest.approx(3.0, abs=1e-6)
    assert rep.lp_working == pytest.approx(1.0, abs=1e-6)
    assert len(rep.lines()) == 6 + len(rep.checks)


def test_chain_on_worked_example(net4):
    rep = verify_chain(net4)
    assert rep.passed


def test_chain_no_demand():
    rep = verify_chain(gen_random(4, 1, 0, 1, seed=1))
    assert rep.passed
    assert rep.exact_full == 0 and rep.lp_r3 == pytest.approx(0.0)


def _seeded_miniatures():
    # fifty seeded miniatures; k = requests keeps every one protectable
    for seed in range(50):
        requests = 2 if seed % 5 == 0 else 1
        yield seed, gen_random(4 + seed % 2, 1, requests, requests, seed=seed)


def test_chain_on_seeded_tiny_instances():
    for seed, inst in _seeded_miniatures():
        rep = verify_chain(inst)
        assert rep.passed, (seed, rep.lines())


def _spied_chain(monkeypatch, instance):
    """verify_chain's report and its solves: (name, rows at the call, Solution)."""
    solves = []
    original = simplex.solve

    def spy(model):
        rows = model.num_rows
        sol = original(model)
        solves.append((model.name, rows, sol))
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(oracle.simplex, "solve", spy)
        return verify_chain(instance), solves


def _full_model_solves(instance, solves):
    """The R1 and the full-model solve of verify_chain's spied solves."""
    full = f"rwap-ppp:{instance.name}"
    rows = {rows: sol for name, rows, sol in solves if name == full}
    r1 = path_model_rows(instance, "r1")
    assert len(rows) == 1 + (path_model_rows(instance, "rwap-ppp") > r1)
    return rows[r1], rows[path_model_rows(instance, "rwap-ppp")]


def test_chain_solves_r1_then_the_full_model_warm(monkeypatch, net4):
    """R1 is the full model's row prefix, so LP R1 is the cold R1 solve bit for
    bit; the full model, re-solved from R1's basis, matches a cold solve and
    its duals certify it against the model itself (criterion 8's tolerances)."""
    instances = [net4, gen_cycle(3, 1, 1)] + [inst for _, inst in _seeded_miniatures()]
    for inst in instances:
        rep, solves = _spied_chain(monkeypatch, inst)
        assert rep.passed, (inst.name, rep.lines())
        r1_sol, full_sol = _full_model_solves(inst, solves)
        cold_r1 = simplex.solve(build_ip_r1(inst, relax=True)[0])
        assert rep.lp_r1 == r1_sol.objective == cold_r1.objective, inst.name
        assert np.array_equal(r1_sol.primal, cold_r1.primal), inst.name
        assert np.array_equal(r1_sol.duals, cold_r1.duals), inst.name
        full = build_ip_rwap_ppp(inst, relax=True)[0]
        cold = simplex.solve(full)
        assert cold.status == simplex.OPTIMAL and rep.lp_full == full_sol.objective
        scale = 1.0 + abs(cold.objective)
        assert abs(rep.lp_full - cold.objective) <= 1e-9 * scale, inst.name
        cert = check_certificates(full, full_sol)
        assert cert["duality_gap"] <= 1e-6 * scale, (inst.name, cert)
        assert cert["cs_variable"] <= 1e-6, (inst.name, cert)
        assert cert["cs_row"] <= 1e-6 * scale, (inst.name, cert)
        assert cert["bound_violation"] <= 1e-7, (inst.name, cert)
        assert cert["row_violation"] <= 1e-7, (inst.name, cert)


def test_chain_on_the_slow_eight_node_full_model(monkeypatch):
    """This relaxed full model (4,680 rows, on SuperLU) took 36,870 pivots
    from the slack basis; from R1's optimal basis it takes a few hundred."""
    inst = gen_random(8, 2, 3, 3, seed=3)
    rep, solves = _spied_chain(monkeypatch, inst)
    assert rep.passed, rep.lines()
    assert rep.exact_full == 15
    assert f"{rep.lp_full:.6f}" == "14.250000"
    _, full_sol = _full_model_solves(inst, solves)
    assert full_sol.iterations <= 1000


def test_working_only_lp_matches_exact_on_rings():
    for m, n in ((3, 2), (4, 2)):
        inst = gen_cycle(m, n, n)
        lp = solve_checked(build_ip_rwap(inst, relax=True)[0]).objective
        assert exact_rwap(inst) >= lp - 1e-6


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 5),
    st.integers(0, 2),
    st.integers(1, 2),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_exact_optima_match_milp(nodes, extra, requests, spare, seed):
    """The exhaustive oracle against HiGHS on the integer models it solves."""
    inst = gen_random(nodes, extra, requests, requests + spare, seed)
    pairs = ((exact_rwap_ppp, build_ip_rwap_ppp), (exact_rwap, build_ip_rwap))
    for exact, build in pairs:
        ref = milp_solve(build(inst, relax=False)[0])
        assert ref.success, (inst.name, ref.message)
        assert exact(inst) == pytest.approx(ref.fun, abs=1e-6), inst.name

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import milp_solve, solve_checked
from lambdabound.formulations import (
    build_ip_r1,
    build_ip_r2,
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


def test_backup_option_filter_spends_the_budget(monkeypatch):
    assert exact_rwap_ppp(gen_random(4, 1, 2, 20, 1)) == 7
    # at 80 wavelengths the scenarios have thousands of backup options; the
    # superset filter's steps count against the budget, so a small one ends
    # the search in about a second, where an uncounted filter took 40 times as long
    monkeypatch.setattr(oracle, "MAX_ASSIGNMENTS", 1_000_000)
    start = time.process_time()
    with pytest.raises(OracleBudgetError, match="assignment budget exhausted"):
        exact_rwap_ppp(gen_random(4, 1, 2, 80, 1))
    assert time.process_time() - start < 10.0


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


def _ladder_solves(instance, solves):
    """The R2, R1 and full-model rungs of verify_chain's spied solves."""
    full = f"rwap-ppp:{instance.name}"
    rungs = [(rows, sol) for name, rows, sol in solves if name == full]
    working, r1, rows = (path_model_rows(instance, tag) for tag in ("rwap", "r1", "rwap-ppp"))
    assert [rows for rows, _ in rungs] == [r1 - working, r1, rows]
    return [sol for _, sol in rungs]


def _in_model_order(instance, sol):
    """sol with its duals moved from the ladder's row order to the model's.

    The ladder's rows run backup, working, linking; the model's working,
    backup, linking.
    """
    working, r1 = path_model_rows(instance, "rwap"), path_model_rows(instance, "r1")
    rows = np.concatenate([np.arange(working, r1), np.arange(working), np.arange(r1, len(sol.duals))])
    duals = np.empty(len(rows))
    duals[rows] = sol.duals
    return dataclasses.replace(sol, duals=duals)


def test_chain_solves_r1_then_the_full_model_warm(monkeypatch, net4):
    """verify_chain solves R2 as the full model's backup rows, then R1 and the
    full model warm as the working and the linking rows are appended. Each
    rung matches a cold solve of its builder, and the R1 and full duals,
    moved back to model row order, certify them against the models
    themselves (criterion 8's tolerances)."""
    instances = [net4, gen_cycle(3, 1, 1)] + [inst for _, inst in _seeded_miniatures()]
    builders = (build_ip_r2, build_ip_r1, build_ip_rwap_ppp)
    for inst in instances:
        rep, solves = _spied_chain(monkeypatch, inst)
        assert rep.passed, (inst.name, rep.lines())
        rungs = _ladder_solves(inst, solves)
        assert [sol.objective for sol in rungs] == [rep.lp_r2, rep.lp_r1, rep.lp_full]
        for build, sol in zip(builders, rungs):
            model = build(inst, relax=True)[0]
            cold = simplex.solve(model)
            assert cold.status == sol.status == simplex.OPTIMAL, (inst.name, model.name)
            scale = 1.0 + abs(cold.objective)
            assert abs(sol.objective - cold.objective) <= 1e-9 * scale, (inst.name, model.name)
            if build is build_ip_r2:  # its rung also holds the x columns, at 0
                continue
            cert = check_certificates(model, _in_model_order(inst, sol))
            assert cert["duality_gap"] <= 1e-6 * scale, (model.name, cert)
            assert cert["cs_variable"] <= 1e-6, (model.name, cert)
            assert cert["cs_row"] <= 1e-6 * scale, (model.name, cert)
            assert cert["bound_violation"] <= 1e-7, (model.name, cert)
            assert cert["row_violation"] <= 1e-7, (model.name, cert)


def test_chain_on_the_slow_eight_node_full_model(monkeypatch):
    """This relaxed full model (4,680 rows, on SuperLU) took 36,870 pivots
    from the slack basis; warm from R1's optimal basis it takes a few hundred."""
    inst = gen_random(8, 2, 3, 3, seed=3)
    rep, solves = _spied_chain(monkeypatch, inst)
    assert rep.passed, rep.lines()
    assert rep.exact_full == 15
    assert f"{rep.lp_full:.6f}" == "14.250000"
    *_, full_sol = _ladder_solves(inst, solves)
    assert full_sol.iterations <= 1000


def test_a_stalled_warm_start_hands_its_basis_to_the_last_start(monkeypatch):
    """The full rung of this chain (2,970 rows) runs out of its warm start's
    m-pivot budget; the last start then goes on from the basis it stalled
    at, not from the slack basis."""
    inst = gen_random(6, 2, 3, 3, seed=4)
    rows = path_model_rows(inst, "rwap-ppp")
    starts = []
    solve_from = simplex._solve_from

    def spy(lp, start, spent, last):
        result = solve_from(lp, start, spent, last)
        if lp.num_rows == rows:
            starts.append((start is lp.basis, start, spent, last, result))
        return result

    monkeypatch.setattr(simplex, "_solve_from", spy)
    rep = verify_chain(inst)
    assert rep.passed, rep.lines()
    first, second = starts
    stored, _, spent, last, (stalled, pivots) = first
    assert stored and not last and spent == 0 and pivots == rows
    assert isinstance(stalled, simplex.Basis)
    _, start, spent, last, (sol, _) = second
    assert start is stalled and spent == rows and last
    assert sol.status == simplex.OPTIMAL and sol.objective == rep.lp_full


def test_chain_refuses_an_empty_failure_set(monkeypatch):
    def no_oracle(_):
        raise AssertionError("the exhaustive oracle ran")

    monkeypatch.setattr(oracle, "exact_rwap_ppp", no_oracle)
    inst = dataclasses.replace(gen_cycle(4, 1, 1), failures=())
    with pytest.raises(ValueError) as refusal:
        verify_chain(inst)
    assert "non-empty failure set" in str(refusal.value)
    assert "\n" not in str(refusal.value) and "rwap_agg" not in str(refusal.value)


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

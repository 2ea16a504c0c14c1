import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_python, solve_checked, spy_filtered_violations
from lambdabound import benders, simplex
from lambdabound.benders import (
    BendersError,
    BendersState,
    MasterSolution,
    log_to_csv,
    pi_prime_filter,
    solve_lp_r3_benders,
)
from lambdabound.formulations import (
    Cut,
    FormulationError,
    build_lp_r3,
    build_subproblem,
    cut_from_duals,
)
from lambdabound.instance import (
    Edge,
    Instance,
    Network,
    Request,
    arcs,
    gen_cycle,
    gen_random,
)
from lambdabound.lpmodel import Solution


def test_ring_closed_forms():
    for m, n in ((3, 1), (5, 3)):
        res = solve_lp_r3_benders(gen_cycle(m, n, 80))
        assert res.status == "Converged"
        assert res.lower_bound == pytest.approx(m * n, abs=1e-6)
        assert res.tau0 == 0


def test_minimal_wavelength_ring():
    res = solve_lp_r3_benders(gen_cycle(3, 1, 1))
    assert res.status == "Converged"
    assert res.lower_bound == pytest.approx(3.0, abs=1e-6)


def test_matches_direct_solve():
    for seed in (1, 5, 9):
        inst = gen_random(8, 2, 4, 10, seed=seed)
        res = solve_lp_r3_benders(inst)
        direct = solve_checked(build_lp_r3(inst)[0]).objective
        assert res.status == "Converged"
        assert abs(res.lower_bound - direct) <= 1e-6 * (1 + direct)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(6, 10),
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(0, 4),
    st.integers(0, 2**16),
)
def test_matches_direct_solve_on_random_shapes(nodes, extra, requests, spare_k, seed):
    inst = gen_random(nodes, extra, requests, requests + spare_k, seed=seed)
    res = solve_lp_r3_benders(inst)
    direct = solve_checked(build_lp_r3(inst)[0]).objective
    assert res.status == "Converged"
    assert abs(res.lower_bound - direct) <= 1e-6 * (1 + abs(direct))


def test_master_monotone_and_final_bound():
    inst = gen_random(9, 3, 5, 10, seed=3)
    res = solve_lp_r3_benders(inst)
    objs = [r.master_objective for r in res.log]
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    assert res.lower_bound == objs[-1]


def test_cut_pool_soundness_at_convergence():
    inst = gen_random(7, 2, 4, 10, seed=8)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Converged"
    assert len(res.cuts) == res.cuts_added
    for cut in res.cuts:
        assert cut.evaluate(res.wbar) <= 1e-6
        assert cut.failure != res.tau0
    for tau in inst.failures:  # including the filtered ones
        sub, _ = build_subproblem(inst, tau, res.wbar)
        assert solve_checked(sub).objective <= 1e-6


def test_filter_definition():
    inst = gen_cycle(4, 2, 8)
    table = arcs(inst.network)
    flows = np.zeros((inst.num_nodes, table.num_arcs))
    # route everything over edges 0 and 1 only
    flows[0, 2 * 0] = 2.0
    flows[0, 2 * 1] = 2.0
    master = MasterSolution(objective=0.0, wbar=np.zeros(4), flows=flows)
    assert pi_prime_filter(inst, master) == {2, 3}
    # no demand: every failure is skippable
    idle = MasterSolution(objective=0.0, wbar=np.zeros(4), flows=np.zeros_like(flows))
    assert pi_prime_filter(inst, idle) == {0, 1, 2, 3}


def test_filtered_scenarios_verify_to_zero(monkeypatch):
    inst = gen_cycle(5, 1, 80)
    filtered = spy_filtered_violations(monkeypatch)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Converged"
    assert res.log, "expected at least one iteration"
    assert len(filtered) == len(res.log)
    for rec in res.log:
        assert rec.n_pi_prime >= 1
    assert max(filtered) <= 1e-7


def test_filter_check_catches_a_filter_that_skips_everything(monkeypatch):
    # negative control for the check above: a filter that skips violated
    # failures ends the run early at a wrong bound, and the check sees it
    inst = gen_cycle(5, 1, 80)
    monkeypatch.setattr(benders, "pi_prime_filter", lambda instance, _: set(instance.failures))
    filtered = spy_filtered_violations(monkeypatch)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Converged"
    assert res.lower_bound == pytest.approx(1.0, abs=1e-6)  # 5 with the real filter
    assert len(filtered) == len(res.log)
    assert max(filtered) == pytest.approx(1.0, abs=1e-6)


def test_iteration_limit(monkeypatch):
    inst = gen_random(10, 2, 3, 3, seed=7)
    monkeypatch.setattr(benders, "MAX_ITERATIONS", 1)
    res = solve_lp_r3_benders(inst)
    assert res.status == "IterationLimit"
    assert len(res.log) == 1 and res.log[0].n_violated > 0
    assert res.lower_bound == res.log[-1].master_objective


def test_iterate_once_contract():
    inst = gen_cycle(3, 2, 80)
    state = BendersState(inst)
    statuses = [state.iterate_once()]
    rec = state.log[0]
    assert rec.master_objective > 0  # tau0 rows already force flow
    assert rec.n_pi_prime >= 1  # tau0 itself never yields a subproblem
    assert len(inst.failures) - rec.n_pi_prime <= len(inst.failures) - 1
    while statuses[-1] is None:
        statuses.append(state.iterate_once())
    # None while the run goes on, then the status it stops with; one record a round
    assert statuses[-1] == "Converged"
    assert len(state.log) == len(statuses)
    assert state.offending_failure is None and state.detail is None


def test_options_slot_takes_only_none():
    inst = gen_cycle(3, 1, 80)
    assert solve_lp_r3_benders(inst, None).status == "Converged"
    with pytest.raises(TypeError):
        solve_lp_r3_benders(inst, object())


def test_infeasible_instance_reports_failure():
    edges = (
        Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 0, 2),
        Edge(3, 3, 4), Edge(4, 4, 5), Edge(5, 3, 5),
        Edge(6, 2, 3),
    )
    inst = Instance(
        name="bridge",
        network=Network(node_labels=tuple(range(6)), edges=edges),
        num_wavelengths=2,
        requests=(Request(0, 5),),
        failures=(0, 6),
    )
    res = solve_lp_r3_benders(inst)
    assert res.status == "Infeasible"
    assert res.offending_failure == 6


def test_empty_failure_set_rejected():
    inst = dataclasses.replace(gen_cycle(3, 1, 1), failures=())
    with pytest.raises(BendersError):
        BendersState(inst)


def test_cut_pool_dedup():
    # the pool is keyed by the cut: the same failure, constant and coefficients
    pool = dict.fromkeys([
        Cut(failure=1, constant=1.0, wbar_coeffs=((0, -1.0),)),
        Cut(failure=1, constant=1.0, wbar_coeffs=((0, -1.0),)),
        Cut(failure=1, constant=2.0, wbar_coeffs=((0, -1.0),)),
        Cut(failure=2, constant=1.0, wbar_coeffs=((0, -1.0),)),
        Cut(failure=1, constant=1.0, wbar_coeffs=((1, -1.0),)),
    ])
    assert len(pool) == 4


def test_log_csv_format():
    inst = gen_cycle(4, 1, 4)
    res = solve_lp_r3_benders(inst)
    text = log_to_csv(res.log)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "iter,master_obj,n_pi_prime,n_violated,max_violation,cuts_total,elapsed_ms,"
        "master_pivots,sub_pivots"
    )
    assert len(lines) == len(res.log) + 1
    assert lines[1].startswith("1,")
    for line, rec in zip(lines[1:], res.log):
        assert line.endswith(f",{rec.master_pivots},{rec.sub_pivots}")


def _log_without_time(res):
    return [dataclasses.replace(rec, elapsed_ms=0) for rec in res.log]


def test_deterministic_reruns():
    inst = gen_random(8, 3, 5, 10, seed=42)
    a, b = solve_lp_r3_benders(inst), solve_lp_r3_benders(inst)
    assert a.status == b.status == "Converged"
    assert a.lower_bound == b.lower_bound
    assert np.array_equal(a.wbar, b.wbar)
    assert _log_without_time(a) == _log_without_time(b)


_LOG_CHILD = """
import dataclasses
from lambdabound.benders import solve_lp_r3_benders
from lambdabound.instance import gen_random
res = solve_lp_r3_benders(gen_random(12, 4, 6, 6, seed=7))
print(res.status, res.lower_bound.hex(), [float(w).hex() for w in res.wbar])
for rec in res.log:
    print(dataclasses.replace(rec, elapsed_ms=0))
"""


def test_log_does_not_depend_on_blas_threads():
    # chosen because a dense basis inverse, updated through BLAS, took another
    # pivot path here at two OpenBLAS threads than at one
    one, two = (run_python(["-c", _LOG_CHILD], t) for t in (1, 2))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout.startswith("Converged ")
    assert one.stdout == two.stdout


def test_warm_starts_cut_master_and_subproblem_pivots():
    inst = gen_random(10, 2, 3, 3, seed=7)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Converged" and len(res.log) >= 3
    # later masters start from the previous basis: far fewer pivots than the first
    first, later = res.log[0].master_pivots, [r.master_pivots for r in res.log[1:]]
    assert first > 0 and max(later) < first


def test_decomposition_never_solves_cold(monkeypatch):
    inst = gen_random(10, 2, 3, 3, seed=7)
    cold, slack = [], []
    original_cold, original_slack = simplex._solve_cold, simplex._slack_basis

    def counting_cold(lp, spent=0):
        cold.append(lp.name.split(":")[0])
        return original_cold(lp, spent)

    def counting_slack(lp):
        slack.append(lp.name.split(":")[0])
        return original_slack(lp)

    monkeypatch.setattr(simplex, "_solve_cold", counting_cold)
    monkeypatch.setattr(simplex, "_slack_basis", counting_slack)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Converged" and len(res.log) >= 3
    assert cold == []
    # only the first master and the first subproblem solve start from the
    # slack basis; every later one starts from a stored basis and keeps it
    assert sorted(slack) == ["master", "sub"]


def test_each_failure_is_built_once(monkeypatch):
    inst = gen_random(10, 2, 3, 3, seed=7)
    built = []
    original = benders.build_subproblem

    def counting(instance, tau, wbar):
        built.append(tau)
        return original(instance, tau, wbar)

    monkeypatch.setattr(benders, "build_subproblem", counting)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Converged"
    # one template per run, shared by every failure through its column bounds
    assert built == [None]
    assert sum(len(inst.failures) - r.n_pi_prime for r in res.log) > len(inst.failures)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(6, 10),
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(0, 4),
    st.integers(0, 2**16),
)
def test_template_matches_each_failures_subproblem(nodes, extra, requests, spare_k, seed):
    inst = gen_random(nodes, extra, requests, requests + spare_k, seed=seed)
    rng = np.random.default_rng(seed)
    K, E = inst.num_wavelengths, inst.num_edges
    state = BendersState(inst)
    wbar = rng.uniform(0, K, size=E)
    for tau in inst.failures:
        sol = state._solve_subproblem(tau, wbar)
        ref = solve_checked(build_subproblem(inst, tau, wbar)[0]).objective
        assert sol.status == "Optimal"
        assert abs(sol.objective - ref) <= 1e-9 * (1 + abs(ref))
        cut = cut_from_duals(tau, wbar, sol, state.subproblem, state._capacity_rows)
        other = rng.uniform(0, K, size=E)
        opt = solve_checked(build_subproblem(inst, tau, other)[0]).objective
        assert cut.evaluate(other) <= opt + 1e-9 * (1 + abs(opt))


def test_failed_subproblem_is_a_status(monkeypatch):
    inst = gen_random(8, 2, 4, 10, seed=1)
    original = benders.solve

    def failing(model):
        sol = original(model)
        if model.name.startswith("sub:"):
            return Solution(status="NumericalError", objective=float("nan"), iterations=3)
        return sol

    monkeypatch.setattr(benders, "solve", failing)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Failed"
    assert res.offending_failure is not None and res.offending_failure != res.tau0
    assert "NumericalError" in res.detail
    assert f"failure {res.offending_failure}" in res.detail
    assert np.isnan(res.lower_bound) and res.wbar is None


def test_rejected_cut_is_a_status(monkeypatch):
    inst = gen_random(8, 2, 4, 10, seed=1)

    def reject(failed_edge, wbar, solution, lp, capacity_rows):
        raise FormulationError("weak-duality bound is -inf")

    monkeypatch.setattr(benders, "cut_from_duals", reject)
    res = solve_lp_r3_benders(inst)
    assert res.status == "Failed"
    assert res.offending_failure is not None
    assert "cut rejected" in res.detail


def _weak_cut(failed_edge, wbar, solution, lp, capacity_rows):
    """A valid cut that cuts off nothing: -1 <= 0."""
    return Cut(failed_edge, -1.0, ())


def test_stalled_run_reports_iteration_limit(monkeypatch):
    inst = gen_random(10, 2, 3, 3, seed=7)
    monkeypatch.setattr(benders, "cut_from_duals", _weak_cut)
    res = solve_lp_r3_benders(inst)
    # the second round finds only pooled cuts and stops
    assert res.status == "IterationLimit"
    assert len(res.log) == 2 and res.log[-1].n_violated > 0
    assert res.log[-1].cuts_total == res.log[0].cuts_total
    assert res.lower_bound == res.log[-1].master_objective

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import milp_solve, solve_checked
from lambdabound.formulations import build_ip_rwap, build_ip_rwap_ppp, build_lp_r3
from lambdabound.instance import gen_cycle, gen_random
from lambdabound import oracle
from lambdabound.oracle import (
    OracleBudgetError,
    OracleInfeasibleError,
    exact_rwap,
    exact_rwap_ppp,
    simple_paths,
    verify_chain,
)


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


def test_chain_on_seeded_tiny_instances():
    # fifty seeded miniatures; k = requests keeps every one protectable
    for seed in range(50):
        requests = 2 if seed % 5 == 0 else 1
        inst = gen_random(4 + seed % 2, 1, requests, requests, seed=seed)
        rep = verify_chain(inst)
        assert rep.passed, (seed, rep.lines())


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

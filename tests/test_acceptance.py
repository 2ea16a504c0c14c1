"""Acceptance gate: one test per numbered criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here and never loosened. Criterion 5 proves the bundled
worked example's optimum inside the test, by a certified sandwich (an explicit
validated assignment above, a certificate-checked LP bound below, HiGHS MIP
alongside), before it compares the exhaustive oracle against it.
"""

import dataclasses

import numpy as np
import pytest

from helpers import milp_solve, solve_checked, spy_filtered_violations
from lambdabound import simplex
from lambdabound.benders import solve_lp_r3_benders
from lambdabound.formulations import (
    build_ip_r1,
    build_ip_r2,
    build_ip_rwap,
    build_ip_rwap_ppp,
    build_lp_r3,
    build_lp_rwap_agg,
    build_subproblem,
)
from lambdabound.instance import bundled_text, gen_cycle, gen_random, load_instance
from lambdabound.oracle import exact_rwap, exact_rwap_ppp
from lambdabound.simplex import check_certificates
from lambdabound.validator import (
    Assignment,
    RwappSolution,
    gap_report,
    improvement,
    load_solution,
    validate,
)

CYCLE_GRID = [(m, n) for m in range(3, 9) for n in range(1, 6)]

# 25 seeded instances inside the stated envelope: 6..12 nodes, <= 20 edges,
# <= 10 requests, every edge failable
RANDOM_25 = [
    (6, 0, 2), (6, 2, 3), (6, 3, 4), (7, 0, 3), (7, 2, 4),
    (7, 3, 2), (8, 1, 3), (8, 2, 5), (8, 4, 2), (9, 0, 4),
    (9, 2, 3), (9, 3, 5), (10, 1, 4), (10, 2, 2), (10, 3, 3),
    (11, 0, 5), (11, 2, 4), (11, 1, 2), (12, 0, 3), (12, 2, 4),
    (12, 3, 2), (6, 14, 4), (6, 3, 10), (10, 4, 6), (12, 4, 5),
]

TINY_15 = [
    (4, 1, 1), (4, 2, 2), (4, 1, 3), (5, 0, 2), (5, 1, 1),
    (5, 2, 3), (5, 3, 2), (6, 0, 1), (6, 1, 2), (6, 2, 3),
    (6, 3, 1), (4, 0, 2), (5, 2, 2), (6, 1, 3), (6, 2, 2),
]

TINY_10 = [
    (4, 1, 1), (4, 1, 2), (4, 2, 2), (4, 0, 2), (5, 0, 2),
    (5, 1, 1), (5, 1, 2), (5, 2, 2), (6, 0, 2), (6, 1, 2),
]


def _random(nodes, extra, requests, seed, k=None):
    return gen_random(nodes, extra, requests, k or max(10, requests), seed=seed)


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def benders_suite():
    """Converged decomposition runs, reused by 6/7/10.

    Each run comes with the largest cold-solved violation among the failures
    the filter skipped, one per round (helpers.spy_filtered_violations).
    """
    instances = [
        gen_cycle(3, 1, 80),
        gen_cycle(5, 3, 80),
        gen_cycle(6, 2, 10),
        gen_cycle(4, 4, 8),
    ]
    for idx in (0, 4, 8, 13, 19, 22):
        nodes, extra, requests = RANDOM_25[idx]
        instances.append(_random(nodes, extra, requests, seed=100 + idx))
    runs = []
    for inst in instances:
        with pytest.MonkeyPatch.context() as monkeypatch:
            filtered = spy_filtered_violations(monkeypatch)
            res = solve_lp_r3_benders(inst)
        assert res.status == "Converged", inst.name
        runs.append((inst, res, filtered))
    return runs


def test_criterion_01_cycle_closed_forms():
    worst = 0.0
    for m, n in CYCLE_GRID:
        inst = gen_cycle(m, n, 80)
        base = solve_checked(build_lp_rwap_agg(inst)[0]).objective
        direct = solve_checked(build_lp_r3(inst)[0]).objective
        benders = solve_lp_r3_benders(inst)
        assert benders.status == "Converged"
        worst = max(
            worst,
            abs(base - n),
            abs(direct - m * n),
            abs(benders.lower_bound - m * n),
        )
    ok = _verdict(1, worst <= 1e-6, f"30 ring instances, max deviation {worst:.2e}")
    assert ok


def test_criterion_02_benders_equals_direct():
    worst = 0.0
    for i, (nodes, extra, requests) in enumerate(RANDOM_25):
        inst = _random(nodes, extra, requests, seed=100 + i)
        direct = solve_checked(build_lp_r3(inst)[0]).objective
        res = solve_lp_r3_benders(inst)
        assert res.status == "Converged", inst.name
        rel = abs(res.lower_bound - direct) / (1.0 + direct)
        worst = max(worst, rel)
    ok = _verdict(2, worst <= 1e-6, f"25 seeded instances, max relative gap {worst:.2e}")
    assert ok


def test_criterion_03_aggregation_equivalence():
    worst = 0.0
    for i, (nodes, extra, requests) in enumerate(TINY_15):
        inst = gen_random(nodes, extra, requests, max(1, requests), seed=300 + i)
        o3 = solve_checked(build_lp_r3(inst)[0]).objective
        o2 = solve_checked(build_ip_r2(inst, relax=True)[0]).objective
        o1 = solve_checked(build_ip_r1(inst, relax=True)[0]).objective
        worst = max(worst, abs(o3 - o2), abs(o1 - o2))
    ok = _verdict(3, worst <= 1e-6, f"15 tiny instances, max deviation {worst:.2e}")
    assert ok


def test_criterion_04_relaxation_chain():
    slack = 1e-6
    ok = True
    for i, (nodes, extra, requests) in enumerate(TINY_10):
        inst = gen_random(nodes, extra, requests, max(1, requests), seed=400 + i)
        exact_full = exact_rwap_ppp(inst)
        exact_working = exact_rwap(inst)
        lp_full = solve_checked(build_ip_rwap_ppp(inst, relax=True)[0]).objective
        lp_r3 = solve_checked(build_lp_r3(inst)[0]).objective
        lp_working = solve_checked(build_ip_rwap(inst, relax=True)[0]).objective
        ok = ok and exact_full >= lp_full - slack
        ok = ok and lp_full >= lp_r3 - slack
        ok = ok and lp_r3 >= lp_working - slack
        ok = ok and exact_full >= exact_working
    assert _verdict(4, ok, "10 oracle-feasible tiny instances, slack 1e-6")


def test_criterion_05_worked_example_golden():
    inst = load_instance(bundled_text("net4.json"))
    solution = load_solution(bundled_text("net4.solution.json"), inst)
    report = validate(inst, solution)
    part1 = report.feasible and report.objective == 7

    working_only = validate(
        dataclasses.replace(inst, failures=()),
        RwappSolution(working=solution.working, backups=()),
    )
    part2 = working_only.feasible and working_only.objective == 4

    # The illustrated solution is feasible but not minimal: the failure set
    # {0, 1, 2} misses edges 3 (1-4) and 4 (4-3), so routing 1-4-3 and 4-3
    # needs no rerouting at all. Prove that plan's value is the optimum
    # before holding the oracle to it.
    cheap = (Assignment(path=(3, 4), wavelength=0), Assignment(path=(4,), wavelength=1))
    witness = validate(
        inst,
        RwappSolution(working=cheap, backups=tuple((f, cheap) for f in inst.failures)),
    )
    upper_ok = witness.feasible and witness.objective == 3

    lp = solve_checked(build_ip_rwap_ppp(inst, relax=True)[0])
    lower_ok = lp.status == simplex.OPTIMAL and lp.objective >= 3 - 1e-6

    mip = milp_solve(build_ip_rwap_ppp(inst, relax=False)[0])
    mip_ok = mip.status == 0 and abs(mip.fun - 3) <= 1e-6

    exact = exact_rwap_ppp(inst)
    part3 = upper_ok and lower_ok and mip_ok and exact == 3 and report.objective > exact

    ok = _verdict(
        5,
        part1 and part2 and part3,
        f"validator {report.objective}/7 and {working_only.objective}/4, "
        f"witness {witness.objective} (feasible={witness.feasible}), "
        f"certified LP bound {lp.objective:.6f}, HiGHS MIP {mip.fun}, "
        f"exhaustive optimum {exact} (proved 3)",
    )
    assert ok


def test_criterion_06_convergence_certifies_every_failure(benders_suite):
    worst_sub = 0.0
    worst_cut = -np.inf
    for inst, res, _ in benders_suite:
        for tau in inst.failures:
            sub, _ = build_subproblem(inst, tau, res.wbar)
            worst_sub = max(worst_sub, solve_checked(sub).objective)
        for cut in res.cuts:
            worst_cut = max(worst_cut, cut.evaluate(res.wbar))
    ok = worst_sub <= 1e-6 and worst_cut <= 1e-6
    assert _verdict(
        6, ok, f"max residual violation {worst_sub:.2e}, max cut value {worst_cut:.2e}"
    )


def test_criterion_07_filter_is_sound(benders_suite):
    worst = 0.0
    iterations = 0
    covered = True
    for _, res, filtered in benders_suite:
        iterations += len(res.log)
        covered = covered and len(filtered) == len(res.log)
        worst = max([worst, *filtered])
    ok = covered and worst <= 1e-7
    assert _verdict(
        7, ok, f"{iterations} logged iterations, max filtered violation {worst:.2e}"
    )


def test_criterion_08_solver_certificates_and_determinism():
    instances = [
        load_instance(bundled_text("net4.json")),
        gen_cycle(4, 2, 3),
        gen_random(6, 1, 2, 2, seed=801),
    ]
    builders = [
        lambda i: build_lp_rwap_agg(i)[0],
        lambda i: build_lp_r3(i)[0],
        lambda i: build_ip_rwap(i, relax=True)[0],
        lambda i: build_ip_r1(i, relax=True)[0],
        lambda i: build_ip_r2(i, relax=True)[0],
        lambda i: build_ip_rwap_ppp(i, relax=True)[0],
        lambda i: build_subproblem(i, i.failures[0], np.zeros(i.num_edges))[0],
    ]
    checked = 0
    ok = True
    for inst in instances:
        for build in builders:
            model = build(inst)
            first = simplex.solve(model)
            again = simplex.solve(model)
            if first.status != simplex.OPTIMAL:
                continue
            checked += 1
            cert = check_certificates(model, first)
            scale = 1.0 + abs(first.objective)
            ok = ok and cert["duality_gap"] <= 1e-6 * scale
            ok = ok and cert["cs_variable"] <= 1e-6
            ok = ok and cert["cs_row"] <= 1e-6 * scale
            ok = ok and cert["bound_violation"] <= 1e-7
            ok = ok and cert["row_violation"] <= 1e-7
            ok = ok and first.objective == again.objective
            ok = ok and first.iterations == again.iterations
            ok = ok and np.array_equal(first.primal, again.primal)
            ok = ok and np.array_equal(first.duals, again.duals)
            ok = ok and np.array_equal(first.reduced_costs, again.reduced_costs)
    assert _verdict(
        8, ok and checked >= 20, f"{checked} optimal solves certified, reruns bitwise equal"
    )


def test_criterion_09_metric_formulas():
    gap = gap_report(2019, 1887)
    imp = improvement(2142, 1404)
    ok = round(gap, 1) == 7.0 and round(imp, 1) == 52.6
    assert _verdict(9, ok, f"gap {gap:.1f}% (want 7.0), improvement {imp:.1f}% (want 52.6)")


def test_criterion_10_master_objectives_monotone(benders_suite):
    ok = True
    for _, res, _ in benders_suite:
        objs = [rec.master_objective for rec in res.log]
        ok = ok and all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        ok = ok and res.lower_bound == objs[-1]
    assert _verdict(10, ok, f"{len(benders_suite)} runs, every log nondecreasing")

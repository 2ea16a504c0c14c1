import dataclasses
import json

import pytest

from helpers import solve_checked
from lambdabound.formulations import build_lp_r3
from lambdabound.instance import gen_cycle
from lambdabound.validator import (
    Assignment,
    RwappSolution,
    SolutionFormatError,
    VIOLATION_BACKUP_CLASH,
    VIOLATION_BACKUP_EQUALITY,
    VIOLATION_ENDPOINT,
    VIOLATION_FAILED_LINK,
    VIOLATION_WORKING_CLASH,
    gap_report,
    improvement,
    load_solution,
    validate,
)


def test_golden_solution(net4, net4_solution):
    report = validate(net4, net4_solution)
    assert report.feasible
    assert report.objective == 7
    assert report.violations == []


def test_working_judged_alone(net4, net4_solution):
    no_failures = dataclasses.replace(net4, failures=())
    report = validate(
        no_failures, RwappSolution(working=net4_solution.working, backups=())
    )
    assert report.feasible
    assert report.objective == 4


def test_same_wavelength_shared_edge_is_a_clash():
    inst = dataclasses.replace(gen_cycle(3, 2, 2), failures=())
    working = (
        Assignment(path=(2,), wavelength=0),
        Assignment(path=(2,), wavelength=0),
    )
    report = validate(inst, RwappSolution(working=working, backups=()))
    assert not report.feasible
    clash = [v for v in report.violations if v.kind == VIOLATION_WORKING_CLASH]
    assert clash and "wavelength 0" in clash[0].detail
    assert report.objective == 1  # the union still counts one pair


def test_backup_clash_detected(net4, net4_solution):
    blocks = list(net4_solution.backups)
    failure, block = blocks[1]  # failure 1 hits both requests
    tampered = (
        Assignment(path=(3, 4), wavelength=0),
        Assignment(path=(4,), wavelength=0),  # same wavelength on shared edge 4
    )
    blocks[1] = (failure, tampered)
    report = validate(net4, RwappSolution(net4_solution.working, tuple(blocks)))
    assert any(
        v.kind == VIOLATION_BACKUP_CLASH and v.failure == 1
        for v in report.violations
    )


def test_backup_equality_enforced(net4, net4_solution):
    blocks = list(net4_solution.backups)
    failure, block = blocks[0]  # failure 0 misses request 1's working path
    tampered = (block[0], Assignment(path=(4,), wavelength=1))
    blocks[0] = (failure, tampered)
    report = validate(net4, RwappSolution(net4_solution.working, tuple(blocks)))
    assert not report.feasible
    assert any(
        v.kind == VIOLATION_BACKUP_EQUALITY and v.failure == 0 and v.request == 1
        for v in report.violations
    )


def test_failed_link_must_be_avoided(net4, net4_solution):
    blocks = list(net4_solution.backups)
    failure, block = blocks[2]  # failure 2 hits request 1; reuse its working path
    tampered = (block[0], Assignment(path=(2, 1), wavelength=1))
    blocks[2] = (failure, tampered)
    report = validate(net4, RwappSolution(net4_solution.working, tuple(blocks)))
    assert any(
        v.kind == VIOLATION_FAILED_LINK and v.failure == 2 for v in report.violations
    )


def test_endpoint_mismatch_is_a_finding(net4, net4_solution):
    working = (Assignment(path=(3,), wavelength=0), net4_solution.working[1])
    report = validate(net4, RwappSolution(working, net4_solution.backups))
    assert any(v.kind == VIOLATION_ENDPOINT for v in report.violations)


def test_malformed_paths_raise(net4, net4_solution):
    broken = (Assignment(path=(0, 4), wavelength=0), net4_solution.working[1])
    with pytest.raises(SolutionFormatError, match="chain"):
        validate(net4, RwappSolution(broken, net4_solution.backups))
    loop = (Assignment(path=(0, 1, 4, 2), wavelength=0), net4_solution.working[1])
    with pytest.raises(SolutionFormatError, match="repeats"):
        validate(net4, RwappSolution(loop, net4_solution.backups))
    wl = (Assignment(path=(0, 1), wavelength=9), net4_solution.working[1])
    with pytest.raises(SolutionFormatError, match="wavelength"):
        validate(net4, RwappSolution(wl, net4_solution.backups))


def test_wavelength_permutation_preserves_objective(net4, net4_solution):
    def renamed(a):
        return Assignment(path=a.path, wavelength=1 - a.wavelength)

    flipped = RwappSolution(
        working=tuple(renamed(a) for a in net4_solution.working),
        backups=tuple(
            (f, tuple(renamed(a) for a in block)) for f, block in net4_solution.backups
        ),
    )
    original = validate(net4, net4_solution)
    swapped = validate(net4, flipped)
    assert swapped.feasible
    assert swapped.objective == original.objective


def test_objective_dominates_relaxation_bound(net4, net4_solution):
    bound = solve_checked(build_lp_r3(net4)[0]).objective
    assert validate(net4, net4_solution).objective >= bound - 1e-6


def test_feasible_ring_solution_meets_bound():
    inst = gen_cycle(3, 1, 1)
    working = (Assignment(path=(2,), wavelength=0),)
    backups = (
        (0, working),  # failures off the working path keep it
        (1, working),
        (2, (Assignment(path=(0, 1), wavelength=0),)),
    )
    report = validate(inst, RwappSolution(working, backups))
    assert report.feasible and report.objective == 3
    bound = solve_checked(build_lp_r3(inst)[0]).objective
    assert report.objective >= bound - 1e-6


def test_load_solution_errors(net4):
    ok = {
        "working": [
            {"path": [0, 1], "wavelength": 0},
            {"path": [2, 1], "wavelength": 1},
        ],
        "backups": [
            {"failure": f, "assignments": [
                {"path": [0, 1], "wavelength": 0},
                {"path": [2, 1], "wavelength": 1},
            ]}
            for f in (0, 1, 2)
        ],
    }
    bad = dict(ok, working=ok["working"][:1])
    with pytest.raises(SolutionFormatError, match="working"):
        load_solution(json.dumps(bad), net4)
    bad = dict(ok, backups=ok["backups"][:2])  # one failure block missing
    with pytest.raises(SolutionFormatError, match="failure set"):
        load_solution(json.dumps(bad), net4)
    with pytest.raises(SolutionFormatError, match="line"):
        load_solution("{", net4)


def test_gap_report_formulas():
    assert round(gap_report(2019, 1887), 1) == 7.0

    assert round(improvement(2142, 1404), 1) == 52.6
    assert round(improvement(1887, 1626), 1) == 16.1  # benchmark row 1

    assert gap_report(7, 7) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        gap_report(5, 0)
    with pytest.raises(ValueError):
        improvement(5, 0)

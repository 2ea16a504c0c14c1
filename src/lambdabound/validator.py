"""Feasibility checking and bound metrics for complete assignment solutions.

A solution lists a working path and wavelength per request plus, for every
failure in the instance's failure set, a backup path and wavelength per
request. Backups must be explicit even when the rule forces them to equal the
working assignment; the validator enforces the rule instead of filling gaps,
so omissions in solution files are format errors rather than silent defaults.
Paths are edge-id sequences, which keeps parallel edges unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .instance import Instance

VIOLATION_ENDPOINT = "path-endpoints"
VIOLATION_WORKING_CLASH = "working-no-clash"
VIOLATION_BACKUP_CLASH = "backup-no-clash"
VIOLATION_BACKUP_EQUALITY = "backup-equality"
VIOLATION_FAILED_LINK = "failed-link-used"


class SolutionFormatError(ValueError):
    """Solution text or object that is structurally unusable."""


@dataclass(frozen=True)
class Assignment:
    path: tuple[int, ...]
    wavelength: int


@dataclass(frozen=True)
class RwappSolution:
    """Working assignments in request order plus per-failure backup blocks."""

    working: tuple[Assignment, ...]
    backups: tuple[tuple[int, tuple[Assignment, ...]], ...]  # (failure, per-request)


@dataclass(frozen=True)
class Violation:
    kind: str
    failure: int | None
    request: int | None
    detail: str


@dataclass
class ValidationReport:
    feasible: bool
    objective: int
    violations: list


def load_solution(text: str, instance: Instance) -> RwappSolution:
    """Parse a solution file against the instance (request order must match)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SolutionFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "working" not in doc or "backups" not in doc:
        raise SolutionFormatError("expected object with 'working' and 'backups'")

    def array(value, locus):
        if not isinstance(value, list):
            raise SolutionFormatError(f"{locus} must be an array")
        return value

    def parse_assignment(rec, locus):
        if not isinstance(rec, dict) or "path" not in rec or "wavelength" not in rec:
            raise SolutionFormatError(f"{locus}: expected path and wavelength")
        path = rec["path"]
        wl = rec["wavelength"]
        if not isinstance(path, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) for e in path
        ):
            raise SolutionFormatError(f"{locus}: path must be a list of edge ids")
        if isinstance(wl, bool) or not isinstance(wl, int):
            raise SolutionFormatError(f"{locus}: wavelength must be an integer")
        return Assignment(path=tuple(path), wavelength=wl)

    working = tuple(
        parse_assignment(rec, f"working[{i}]")
        for i, rec in enumerate(array(doc["working"], "working"))
    )
    if len(working) != instance.num_requests:
        raise SolutionFormatError(
            f"expected {instance.num_requests} working assignments, got {len(working)}"
        )
    blocks = []
    for i, rec in enumerate(array(doc["backups"], "backups")):
        if not isinstance(rec, dict) or "failure" not in rec or "assignments" not in rec:
            raise SolutionFormatError(f"backups[{i}]: expected failure and assignments")
        if isinstance(rec["failure"], bool) or not isinstance(rec["failure"], int):
            raise SolutionFormatError(f"backups[{i}]: failure must be an edge id")
        block = tuple(
            parse_assignment(a, f"backups[{i}].assignments[{j}]")
            for j, a in enumerate(array(rec["assignments"], f"backups[{i}].assignments"))
        )
        if len(block) != instance.num_requests:
            raise SolutionFormatError(
                f"backups[{i}]: expected {instance.num_requests} assignments"
            )
        blocks.append((rec["failure"], block))
    failures_seen = [f for f, _ in blocks]
    if sorted(failures_seen) != sorted(instance.failures):
        raise SolutionFormatError(
            "backup blocks must cover exactly the instance failure set"
        )
    blocks.sort(key=lambda fb: fb[0])
    return RwappSolution(working=working, backups=tuple(blocks))


def _walk_path(instance: Instance, path: tuple[int, ...], locus: str):
    """Return the endpoint pair of a simple edge-id path; raise if not a path."""
    edges = instance.network.edges
    if not path:
        raise SolutionFormatError(f"{locus}: empty path")
    for e in path:
        if not (0 <= e < instance.num_edges):
            raise SolutionFormatError(f"{locus}: unknown edge id {e}")
    if len(path) == 1:
        e = edges[path[0]]
        return e.u, e.v
    first, second = edges[path[0]], edges[path[1]]
    shared = {first.u, first.v} & {second.u, second.v}
    if not shared:
        raise SolutionFormatError(f"{locus}: edges {path[0]},{path[1]} do not chain")
    start = first.other(min(shared))
    cur = start
    seen = {start}
    for e_id in path:
        e = edges[e_id]
        if not e.incident(cur):
            raise SolutionFormatError(f"{locus}: edge {e_id} breaks the chain")
        cur = e.other(cur)
        if cur in seen:
            raise SolutionFormatError(f"{locus}: node {cur} repeats (not simple)")
        seen.add(cur)
    return start, cur


def _check_assignment(instance, assign: Assignment, req, locus, failure, d, out):
    if not (0 <= assign.wavelength < instance.num_wavelengths):
        raise SolutionFormatError(
            f"{locus}: wavelength {assign.wavelength} out of range"
        )
    a, b = _walk_path(instance, assign.path, locus)
    if {a, b} != {req.s, req.t}:
        out.append(
            Violation(
                kind=VIOLATION_ENDPOINT,
                failure=failure,
                request=d,
                detail=f"path connects {a}-{b}, request is {req.s}-{req.t}",
            )
        )


def _clashes(block, failure, out):
    n = len(block)
    for d in range(n):
        for d2 in range(d + 1, n):
            if block[d].wavelength != block[d2].wavelength:
                continue
            shared = set(block[d].path) & set(block[d2].path)
            if shared:
                kind = (
                    VIOLATION_WORKING_CLASH if failure is None else VIOLATION_BACKUP_CLASH
                )
                out.append(
                    Violation(
                        kind=kind,
                        failure=failure,
                        request=d,
                        detail=(
                            f"requests {d} and {d2} share edges "
                            f"{sorted(shared)} on wavelength {block[d].wavelength}"
                        ),
                    )
                )


def validate(instance: Instance, solution: RwappSolution) -> ValidationReport:
    """Check every feasibility rule; objective counts distinct (wavelength, edge) uses."""
    violations: list[Violation] = []
    for d, (assign, req) in enumerate(zip(solution.working, instance.requests)):
        _check_assignment(
            instance, assign, req, f"working[{d}]", None, d, violations
        )
    _clashes(solution.working, None, violations)

    used = {(a.wavelength, e) for a in solution.working for e in a.path}
    for failure, block in solution.backups:
        for d, (assign, req) in enumerate(zip(block, instance.requests)):
            locus = f"backups[failure {failure}][{d}]"
            _check_assignment(instance, assign, req, locus, failure, d, violations)
            work = solution.working[d]
            if failure not in work.path:
                if assign != work:
                    violations.append(
                        Violation(
                            kind=VIOLATION_BACKUP_EQUALITY,
                            failure=failure,
                            request=d,
                            detail="failure misses the working path; backup must equal it",
                        )
                    )
            if failure in assign.path:
                violations.append(
                    Violation(
                        kind=VIOLATION_FAILED_LINK,
                        failure=failure,
                        request=d,
                        detail=f"backup path contains failed edge {failure}",
                    )
                )
        _clashes(block, failure, violations)
        used.update((a.wavelength, e) for a in block for e in a.path)

    return ValidationReport(
        feasible=not violations, objective=len(used), violations=violations
    )


def improvement(bound: float, baseline: float) -> float:
    """Relative gain of one lower bound over another, in percent."""
    if baseline <= 0:
        raise ValueError("baseline bound must be positive")
    return (bound - baseline) / baseline * 100.0


def gap_report(upper_bound: float, lower_bound: float) -> float:
    """Optimality gap (UB - LB)/LB in percent."""
    if lower_bound <= 0:
        raise ValueError("lower bound must be positive for a percentage gap")
    return (upper_bound - lower_bound) / lower_bound * 100.0

"""Ground truth for tiny instances: exhaustive optima and relaxation chains.

The exact optimizers enumerate complete assignments (path + wavelength per
request, and per failure a backup pair for every request the failure hits)
under all feasibility rules, with branch-and-bound pruning. Wavelengths are
interchangeable, so working assignments are enumerated up to renaming (first
use in request order); backup wavelengths are enumerated in full, which keeps
the reduction exact. Instances with more than MAX_PATHS_PER_PAIR simple paths
between a request's end nodes, or whose search takes more than
MAX_ASSIGNMENTS steps (an assignment tried, or a backup option compared or
looked up) or nests deeper than the recursion limit, are rejected outright,
never silently truncated.

`verify_chain` solves the relaxation ladder directly. The relaxed full model
grows by row blocks, each re-solved warm from the last: its backup rows are
LP R2, the working rows added give LP R1, and the linking rows the full model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .instance import Instance, adjacency
from . import formulations
from . import simplex

CHAIN_TOL = 1e-6  # slack allowed in each relation verify_chain checks
# read at call time, so that a test can lower them with monkeypatch
MAX_PATHS_PER_PAIR = 64
MAX_ASSIGNMENTS = 10_000_000


class OracleBudgetError(RuntimeError):
    """Search beyond MAX_ASSIGNMENTS, MAX_PATHS_PER_PAIR or the recursion limit."""


class OracleInfeasibleError(RuntimeError):
    """No complete feasible assignment exists."""


class OracleSolveError(RuntimeError):
    """A relaxation LP of the ladder ended without an Optimal status."""


class _Budget:
    __slots__ = ("left",)

    def __init__(self, total: int):
        self.left = total

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise OracleBudgetError("assignment budget exhausted")


def simple_paths(instance: Instance, s: int, t: int, cap: int):
    """All simple s->t paths as edge-id tuples, shortest first; errors past cap."""
    adj = adjacency(instance.network)
    paths: list[tuple[int, ...]] = []
    visited = [False] * instance.num_nodes
    visited[s] = True
    trail: list[int] = []

    def dfs(node):
        if node == t:
            paths.append(tuple(trail))
            if len(paths) > cap:
                raise OracleBudgetError(
                    f"more than {cap} simple paths between {s} and {t}"
                )
            return
        for eid, nxt in adj[node]:
            if not visited[nxt]:
                visited[nxt] = True
                trail.append(eid)
                dfs(nxt)
                trail.pop()
                visited[nxt] = False

    dfs(s)
    paths.sort(key=lambda p: (len(p), p))
    return paths


def _request_paths(instance: Instance):
    cache: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    out = []
    for req in instance.requests:
        key = (req.s, req.t)
        if key not in cache:
            cache[key] = simple_paths(instance, req.s, req.t, MAX_PATHS_PER_PAIR)
        out.append(cache[key])
    return out


def exact_rwap(instance: Instance) -> int:
    """Exhaustive optimum of the working-only assignment problem."""
    return exact_rwap_ppp(replace(instance, failures=()))


def _scenario_options(
    instance, tau, working, paths_by_request, working_pairs, budget, K
):
    """Distinct minimal extra-pair sets that can cover one failure scenario.

    Requests not hit by the failure keep their working assignment, which the
    union objective already pays for; enumeration therefore only spans the hit
    requests, and an option records the (wavelength, edge) pairs outside the
    working set. Options that are supersets of another are dropped: choosing
    the smaller set never costs more in any completion.
    """
    hit = [d for d, (path, _) in enumerate(working) if tau in path]
    if not hit:
        return [frozenset()]
    base_occupied = set()
    for d, (path, k) in enumerate(working):
        if d not in hit:
            for e in path:
                base_occupied.add((k, e))
    options: set[frozenset] = set()
    occupied = set(base_occupied)
    extras: list[tuple[int, int]] = []

    def go(i: int):
        if i == len(hit):
            options.add(frozenset(extras))
            return
        d = hit[i]
        for path in paths_by_request[d]:
            if tau in path:
                continue
            for k in range(K):
                budget.spend()
                pairs = [(k, e) for e in path]
                if any(p in occupied for p in pairs):
                    continue
                occupied.update(pairs)
                added = [p for p in pairs if p not in working_pairs]
                extras.extend(added)
                go(i + 1)
                del extras[len(extras) - len(added) :]
                occupied.difference_update(pairs)

    go(0)
    if not options:
        return None

    def dominated(opt) -> bool:
        """Whether another option is a proper subset of opt, found by the
        cheaper of a lookup of each proper subset and a scan of the options."""
        if 2 ** len(opt) < len(options):
            budget.spend(2 ** len(opt))
            subsets = (frozenset(sub) for r in range(len(opt)) for sub in combinations(opt, r))
            return any(sub in options for sub in subsets)
        budget.spend(len(options))
        return any(other < opt for other in options)

    minimal = [opt for opt in options if not dominated(opt)]
    minimal.sort(key=lambda fs: (len(fs), sorted(fs)))
    return minimal


def exact_rwap_ppp(instance: Instance) -> int:
    """Exhaustive optimum of the full working+backup assignment problem.

    With no failures this is the working-only problem.
    """
    try:
        return _exact_rwap_ppp(instance)
    except RecursionError:  # one frame per path node, request or failure scenario
        raise OracleBudgetError("search nests deeper than the recursion limit") from None


def _exact_rwap_ppp(instance: Instance) -> int:
    D = instance.num_requests
    if D == 0:
        return 0
    K = instance.num_wavelengths
    paths = _request_paths(instance)
    if not all(paths):
        raise OracleInfeasibleError("some request has no path at all")
    budget = _Budget(MAX_ASSIGNMENTS)
    min_len = [len(p[0]) for p in paths]
    tail_min = [0] * (D + 1)
    for d in range(D - 1, -1, -1):
        tail_min[d] = tail_min[d + 1] + min_len[d]

    best = [float("inf")]
    occupied: set[tuple[int, int]] = set()
    working: list[tuple[tuple[int, ...], int]] = []
    found = [False]

    def complete_scenarios(working_pairs: frozenset):
        per_tau = []
        for tau in instance.failures:
            opts = _scenario_options(
                instance, tau, working, paths, working_pairs, budget, K
            )
            if opts is None:
                return  # this working assignment cannot be protected
            if opts[0] == frozenset():
                continue  # scenario already covered for free
            per_tau.append(opts)
        found[0] = True
        per_tau.sort(key=len)
        used = set(working_pairs)

        def cover(i: int, count: int):
            if count >= best[0]:
                return
            if i == len(per_tau):
                best[0] = count
                return
            for opt in per_tau[i]:
                budget.spend()
                added = [p for p in opt if p not in used]
                used.update(added)
                cover(i + 1, count + len(added))
                used.difference_update(added)

        cover(0, len(working_pairs))

    def go(d: int, count: int, used_wl: int):
        if count + tail_min[d] >= best[0]:
            return
        if d == D:
            complete_scenarios(frozenset(occupied))
            return
        for path in paths[d]:
            for k in range(min(K, used_wl + 1)):
                budget.spend()
                pairs = [(k, e) for e in path]
                if any(p in occupied for p in pairs):
                    continue
                occupied.update(pairs)
                working.append((path, k))
                go(d + 1, count + len(path), max(used_wl, k + 1))
                working.pop()
                occupied.difference_update(pairs)

    go(0, 0, 0)
    if not found[0]:
        raise OracleInfeasibleError("no feasible assignment exists")
    return int(best[0])


@dataclass
class ChainReport:
    """Direct solves and the exhaustive optimum, with the ordering checks."""

    exact_full: int
    lp_full: float
    lp_r1: float
    lp_r2: float
    lp_r3: float
    lp_working: float
    checks: list

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def lines(self):
        out = [
            f"exact optimum          {self.exact_full}",
            f"LP full model          {self.lp_full:.6f}",
            f"LP relaxation R1       {self.lp_r1:.6f}",
            f"LP relaxation R2       {self.lp_r2:.6f}",
            f"LP aggregated R3       {self.lp_r3:.6f}",
            f"LP working-only        {self.lp_working:.6f}",
        ]
        for name, ok in self.checks:
            out.append(f"{'PASS' if ok else 'FAIL'}  {name}")
        return out


def verify_chain(instance: Instance) -> ChainReport:
    """Solve the whole relaxation ladder and check every proved relation.

    The relaxed full model is built once, and its path rungs are solved on
    one ArrayLP of all its columns that grows by row blocks, each rung warm
    from the last one's optimal basis: first the backup rows, which hold no
    working column, so this is LP R2; then the working rows, which gives
    LP R1; then the linking rows, which gives the full model. LP R3 and the
    working-only LP are solved cold. The ladder includes LP R3, so an empty
    failure set is refused with a ValueError before any work.
    """
    if not instance.failures:
        raise ValueError(f"{instance.name}: the relaxation ladder needs a non-empty failure set")

    def checked(name, sol):
        if sol.status != simplex.OPTIMAL:
            raise OracleSolveError(f"{name}: unexpected status {sol.status}")
        return sol.objective

    def lp(build, *args):
        model = build(instance, *args)[0]
        return checked(model.name, simplex.solve(model))

    exact_full = exact_rwap_ppp(instance)
    full = formulations.build_ip_rwap_ppp(instance, True)[0]
    working, r1 = (formulations.path_model_rows(instance, tag) for tag in ("rwap", "r1"))
    rungs = simplex.solve_in_blocks(full, [(working, r1), (0, working), (r1, full.num_rows)])
    lp_r2, lp_r1, lp_full = (
        checked(f"{tag}:{instance.name}", sol) for tag, sol in zip(("r2", "r1", "rwap-ppp"), rungs)
    )
    lp_r3 = lp(formulations.build_lp_r3)
    lp_working = lp(formulations.build_ip_rwap, True)

    tol = CHAIN_TOL
    checks = [
        ("exact >= LP full model", exact_full >= lp_full - tol),
        ("LP full model >= LP R1", lp_full >= lp_r1 - tol),
        ("LP R1 == LP R2", abs(lp_r1 - lp_r2) <= tol),
        ("LP R2 == LP R3", abs(lp_r2 - lp_r3) <= tol),
        ("LP R3 >= LP working-only", lp_r3 >= lp_working - tol),
    ]
    return ChainReport(
        exact_full=exact_full,
        lp_full=lp_full,
        lp_r1=lp_r1,
        lp_r2=lp_r2,
        lp_r3=lp_r3,
        lp_working=lp_working,
        checks=checks,
    )

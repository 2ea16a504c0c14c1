"""Decomposition solver for the aggregated per-failure relaxation.

The restricted master (formulations.build_master) is the aggregated
relaxation over one designated failure alone (tau0, lowest edge id): the edge
capacity variables plus tau0's full flow block as valid inequalities. Every
other failure enters through dual feasibility cuts generated on the fly from
its violation subproblem (formulations.build_subproblem), which is the same
flow block with a violation column in place of the capacities. Each iteration
solves the master, skips the failures whose capacity the master flow provably
already covers (the tau0-flow filter), solves the remaining subproblems in
ascending edge order, and adds one cut per violated failure. Master
objectives are nondecreasing because rows only accumulate, and every master
optimum is a valid lower bound for the full relaxation.

Solves after the first are warm re-solves. The master is presolved once into a
simplex.ArrayLP that keeps its last basis; each cut row enters with its slack
basic, so that basis stays dual feasible and the dual simplex re-optimizes
from it. The subproblems of all failures share one presolved template, the
subproblem built with no failure: each round overwrites its capacity
right-hand sides with the candidate wbar, and failure tau is applied in two
steps: every flow column goes back to its template bound, which keeps the
arcs into each origin closed, then the flow columns of arcs 2tau and 2tau+1
of every origin close at zero. The presolved template keeps the model's row
and column ids, so both are set by the ids the builder hands out. The run
keeps one basis per failure. A failure re-solves from its own last basis,
and its first solve starts from the last optimal basis of any failure:
costs are shared and every reopened column is boxed, so that basis is dual
feasible once its nonbasics flip to the right bounds. Only the first
subproblem solve of a run starts from the slack basis. Each cut is the template's weak-duality bound
under its duals while tau's bounds are applied, which is valid by
construction and affine in wbar (formulations.cut_from_duals).
Each round returns the run's status once it stops. A master or subproblem
solve that ends Infeasible stops it with status Infeasible; one that ends
otherwise short of Optimal, or a subproblem solution that yields no finite
cut, stops it with status Failed. Either way the result names the failure and
carries no bound. A round with no violated failure converges the run, and a
round whose every cut is already pooled stalls it, which then reports
IterationLimit with the last master bound, as does a run that reaches
MAX_ITERATIONS rounds. There are no run settings: tau0 is the lowest edge id
and the tolerances are module constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .formulations import (
    Cut,
    FormulationError,
    build_master,
    build_subproblem,
    cut_from_duals,
)
from .instance import Instance
from .lpmodel import SENSE_LE
from .simplex import INFEASIBLE, OPTIMAL, Basis, presolve, solve

CONVERGED = "Converged"
ITERATION_LIMIT = "IterationLimit"
INFEASIBLE_STATUS = "Infeasible"
FAILED_STATUS = "Failed"

# read at call time, so that a test can lower them with monkeypatch
VIOLATION_TOL = 1e-7  # a failure whose subproblem optimum exceeds this gets a cut
MAX_ITERATIONS = 500
FILTER_TOL = 1e-9  # tau0 arc flow at or below this counts as none


class BendersError(RuntimeError):
    """The instance has no failure to decompose over."""


@dataclass
class MasterSolution:
    objective: float
    wbar: np.ndarray  # per edge
    flows: np.ndarray  # per (origin, arc), scenario tau0


@dataclass
class LogRecord:
    iteration: int
    master_objective: float
    n_pi_prime: int
    n_violated: int
    max_violation: float
    cuts_total: int
    elapsed_ms: int
    master_pivots: int = 0
    sub_pivots: int = 0


@dataclass
class BendersResult:
    status: str
    lower_bound: float
    wbar: np.ndarray | None
    tau0: int
    iterations: int
    cuts_added: int
    log: list
    cuts: tuple[Cut, ...]  # the pooled cuts, in the order they entered the master
    offending_failure: int | None = None
    detail: str | None = None  # why the run stopped at offending_failure


def log_to_csv(log) -> str:
    lines = [
        "iter,master_obj,n_pi_prime,n_violated,max_violation,cuts_total,elapsed_ms,"
        "master_pivots,sub_pivots"
    ]
    for rec in log:
        lines.append(
            f"{rec.iteration},{rec.master_objective:.6f},{rec.n_pi_prime},"
            f"{rec.n_violated},{rec.max_violation:.9f},{rec.cuts_total},{rec.elapsed_ms},"
            f"{rec.master_pivots},{rec.sub_pivots}"
        )
    return "\n".join(lines) + "\n"


def pi_prime_filter(instance: Instance, master: MasterSolution) -> set[int]:
    """Failures whose arcs carry no tau0 flow; their subproblems are skipped.

    The master flow itself certifies these scenarios (it avoids the failed
    edge entirely and fits the same capacities), so their violation is zero.
    """
    # idle[e]: neither arc of edge e carries flow of any origin
    fwd, bwd = master.flows[:, 0::2], master.flows[:, 1::2]
    idle = ((fwd <= FILTER_TOL) & (bwd <= FILTER_TOL)).all(axis=0)
    return set(np.flatnonzero(idle).tolist()).intersection(instance.failures)


class BendersState:
    """Mutable algorithm state, advanced one round at a time by iterate_once."""

    def __init__(self, instance: Instance):
        if not instance.failures:
            raise BendersError("instance has an empty failure set")
        self.instance = instance
        self.tau0 = min(instance.failures)
        model, varmap = build_master(instance, self.tau0)
        self.master = presolve(model)
        self._wbar_ids = varmap.wbar
        self._flow_ids = varmap.y_agg[self.tau0]
        model, varmap = build_subproblem(instance, None, np.zeros(instance.num_edges))
        self.subproblem = presolve(model)
        self._capacity_rows = varmap.rows_capacity
        # the template's flow columns by (origin, arc), and their bounds
        self._flows = varmap.y_agg[None]
        self._flow_upper = model.upper[self._flows]
        self.bases: dict[int, Basis] = {}
        self._last_basis: Basis | None = None
        self.cuts: dict[Cut, None] = {}  # the pool; equal cuts enter it once
        self.log: list[LogRecord] = []
        self.master_solution: MasterSolution | None = None
        self.offending_failure: int | None = None
        self.detail: str | None = None  # why the run stopped at offending_failure
        self._t0 = time.perf_counter()

    def _solve_subproblem(self, tau: int, wbar):
        """Solve failure tau at capacities wbar on the template, warm when it can."""
        lp = self.subproblem
        lp.set_rhs(self._capacity_rows, wbar)
        lp.set_upper(self._flows, self._flow_upper)
        lp.set_upper(self._flows[:, 2 * tau : 2 * tau + 2], 0.0)
        lp.basis = self.bases.get(tau, self._last_basis)
        sol = solve(lp)
        if sol.status == OPTIMAL:
            self.bases[tau] = self._last_basis = sol.basis
        return sol

    def _stop(self, tau: int, why: str, ended: str | None = None) -> str:
        """Stop the run at failure tau, which then reports no bound.

        The status is Infeasible when the solve that stops it `ended` so, else Failed.
        """
        self.offending_failure = tau
        self.detail = f"failure {tau}: {why}"
        return INFEASIBLE_STATUS if ended == INFEASIBLE else FAILED_STATUS

    def iterate_once(self) -> str | None:
        """Run one master/subproblem round; None while the run goes on, else its status."""
        sol = solve(self.master)
        if sol.status != OPTIMAL:
            return self._stop(self.tau0, f"master solve ended {sol.status}", sol.status)
        self.master.basis = sol.basis
        master_pivots = sol.iterations
        master = self.master_solution = MasterSolution(
            objective=sol.objective,
            # the solve meets the bounds [0, |K|] only to its feasibility tolerance
            wbar=np.clip(sol.primal[self._wbar_ids], 0.0, self.instance.num_wavelengths),
            flows=sol.primal[self._flow_ids],
        )

        skipped = pi_prime_filter(self.instance, master)
        cuts = []
        max_violation = 0.0
        sub_pivots = 0
        for tau in sorted(self.instance.failures):
            if tau in skipped:
                continue
            sol = self._solve_subproblem(tau, master.wbar)
            sub_pivots += sol.iterations
            if sol.status != OPTIMAL:
                return self._stop(tau, f"subproblem ended {sol.status}", sol.status)
            max_violation = max(max_violation, sol.objective)
            if sol.objective <= VIOLATION_TOL:
                continue
            # the cut reads the template's bounds, so tau's must still be applied
            try:
                cuts.append(
                    cut_from_duals(
                        tau, master.wbar, sol, self.subproblem, self._capacity_rows
                    )
                )
            except FormulationError as exc:
                return self._stop(tau, f"cut rejected: {exc}")

        new = [cut for cut in cuts if cut not in self.cuts]
        self.cuts.update(dict.fromkeys(new))
        # one CSR block of cut rows over the master's wbar columns
        edges = [e for cut in new for e, _ in cut.wbar_coeffs]
        coeffs = [c for cut in new for _, c in cut.wbar_coeffs]
        indptr = np.cumsum([0] + [len(cut.wbar_coeffs) for cut in new])
        R = sp.csr_matrix(
            (np.array(coeffs, dtype=float), self._wbar_ids[edges], indptr),
            shape=(len(new), len(self.master.cost)),
        )
        self.master.add_rows(
            np.full(len(new), SENSE_LE), np.array([-cut.constant for cut in new]), R
        )

        self.log.append(
            LogRecord(
                iteration=len(self.log) + 1,
                master_objective=master.objective,
                n_pi_prime=len(skipped),
                n_violated=len(cuts),
                max_violation=max_violation,
                cuts_total=len(self.cuts),
                elapsed_ms=int(1000 * (time.perf_counter() - self._t0)),
                master_pivots=master_pivots,
                sub_pivots=sub_pivots,
            )
        )
        if not cuts:
            return CONVERGED
        if not new:
            return ITERATION_LIMIT  # every violated cut was pooled: numerically stuck
        return None


def solve_lp_r3_benders(instance: Instance, _none=None, /) -> BendersResult:
    """Run the decomposition to optimality of the aggregated relaxation.

    Callers written for the removed options argument may still pass None
    second (benchmark/tracing.py does); anything else is an error.
    """
    if _none is not None:
        raise TypeError("solve_lp_r3_benders() takes no options")
    state = BendersState(instance)
    status = None
    while status is None and len(state.log) < MAX_ITERATIONS:
        status = state.iterate_once()
    # a run stopped at a failure reports no bound
    last = state.master_solution if state.offending_failure is None else None
    return BendersResult(
        status=status or ITERATION_LIMIT,
        lower_bound=last.objective if last is not None else float("nan"),
        wbar=last.wbar if last is not None else None,
        tau0=state.tau0,
        iterations=len(state.log),
        cuts_added=len(state.cuts),
        log=state.log,
        cuts=tuple(state.cuts),
        offending_failure=state.offending_failure,
        detail=state.detail,
    )

"""Embedded LP solver: two-phase primal simplex and bounded dual simplex.

Rows are turned into equalities with one slack column per row (slack bounds
encode the sense), so the all-slack basis is always available; rows whose
initial slack value violates its bounds get a phase-1 artificial column.
A cold start is that slack/artificial basis, entered through the same set-up
as a stored start basis: nonbasics go to their bounds, then one refactor.
Variables sit nonbasic at a bound, which keeps box bounds out of the row
count. The basis is held as a sparse LU factorization (SuperLU, COLAMD
ordering) with a product-form eta file on top, one eta per pivot, and is
refactored every REFACTOR_INTERVAL pivots. FTRAN solves with the LU and then
applies the etas in order; BTRAN applies them in reverse, then solves with
the transposed LU. SuperLU is single-threaded and no dense BLAS update
remains, so pivot paths do not depend on the BLAS thread count. Iterations
use Dantzig pricing and switch to Bland's rule after BLAND_STALL consecutive
degenerate steps, which rules out cycling. Integrality annotations are
ignored: solves are LP relaxations. The tolerances (FEASIBILITY_TOL,
OPTIMALITY_TOL) and the iteration cap (MAX_ITERATIONS) are module constants.

`presolve` turns a LinearModel into an ArrayLP: fixed variables are pinned,
rows whose support is entirely fixed are dropped and the rest is held as
sparse arrays. An ArrayLP takes new right-hand sides (`set_rhs`), new upper
bounds (`set_upper`) and appended rows (`add_rows`) without a rebuild, and
carries the start basis of its next solve. When that basis is dual feasible,
where a boxed variable may first flip to the bound its reduced cost asks for,
a bounded dual simplex restores primal feasibility with the same pricing,
Bland fallback and eta updates; that covers a change of right-hand sides, a
change of bounds on boxed columns and an appended row whose slack enters the
basis. Primal and dual pivots share one basis change. A start basis that is
not dual feasible, a singular refactorization or a warm end other than
Optimal falls back to the cold two-phase path. An Optimal solve returns its
final basis, recording an artificial left basic at zero as its row's slack,
which is the same column up to sign. A singular refactorization on the cold
path ends the solve with status NumericalError.

Row duals follow the minimization convention: '<=' rows have dual <= 0,
'>=' rows dual >= 0, '=' rows free. Reduced costs are c - A'y for every
variable, so dual objectives (rhs'y plus bound terms) certify optima.
`dual_bound` evaluates that dual objective for any row duals, after moving
each to its sign, so it bounds the optimum from below whatever produced them.

`solve` refuses a model with more than MAX_ROWS rows after presolve with a
ModelError, which bounds the time a single solve can take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .lpmodel import (
    INF,
    SENSE_GE,
    SENSE_LE,
    LinearModel,
    ModelError,
    Solution,
)

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"
NUMERICAL_ERROR = "NumericalError"

REFACTOR_INTERVAL = 20
BLAND_STALL = 1000
FIX_TOL = 1e-12
PIVOT_TOL = 1e-9
DEGEN_TOL = 1e-11
RATIO_TIE = 1e-9
TIE_PIVOT_SHARE = 0.1
# read at call time, so that a test can lower them with monkeypatch
FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7
MAX_ITERATIONS = 10_000_000
# rows after presolve that solve accepts. It bounds solve time (the relaxed
# ip-rwap-ppp of gen_cycle(5, 2, 80), 22,104 rows, ran over 600 s) and keeps
# the eta file's dot products at most 10,000 long, which OpenBLAS runs on one
# thread whatever its thread count, so pivot paths stay independent of it
MAX_ROWS = 10_000

_NB_LOWER, _NB_UPPER, _BASIC, _NB_FREE = 0, 1, 2, 3


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the structural and slack columns of an ArrayLP."""

    head: np.ndarray  # column in each basis position
    status: np.ndarray  # per column: nonbasic at lower/upper, basic, free


def _row_matrix(rows, num_columns: int):
    """Rows `(sense, rhs, coeffs)` as arrays of senses and rhs and a CSR matrix.

    Each row's coefficients come merged and in ascending column order, as
    LinearModel.add_row stores them.
    """
    senses, rhs, indptr, indices, data = [], [], [0], [], []
    for sense, b, coeffs in rows:
        senses.append(sense)
        rhs.append(b)
        indices.extend(j for j, _ in coeffs)
        data.extend(c for _, c in coeffs)
        indptr.append(len(indices))
    R = sp.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int32), np.array(indptr)),
        shape=(len(rhs), num_columns),
    )
    return np.array(senses, dtype=object), np.array(rhs, dtype=float), R


def _row_excess(senses: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """How far each row `lhs <sense> rhs` is violated, given slack = rhs - lhs."""
    return np.where(
        senses == SENSE_LE, -slack, np.where(senses == SENSE_GE, slack, np.abs(slack))
    )


def _slack_bounds(senses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.where(senses == SENSE_GE, -INF, 0.0).astype(float)
    upper = np.where(senses == SENSE_LE, INF, 0.0).astype(float)
    return lower, upper


def _positions(kept: np.ndarray, ids, error: str) -> np.ndarray:
    """Positions of model ids in the ascending id array kept; ModelError if absent."""
    ids = np.asarray(ids, dtype=int)
    pos = np.searchsorted(kept, ids)
    if (pos >= len(kept)).any() or (kept[pos] != ids).any():
        raise ModelError(error)
    return pos


class ArrayLP:
    """A LinearModel after presolve, in the array form the simplex works on.

    Columns are the model's unfixed variables (`active`), then one slack per
    kept row (`rows`, model row ids in ascending order): `cols` is [A | I]
    and `lb`/`ub`/`c` are their bounds and costs. `K` holds the kept rows
    over every model variable, for the reduced costs, and `b` is the kept
    rows' rhs less the pinned variables' share `shift`. `basis` is the start
    basis of the next solve; None starts cold.
    """

    def __init__(self, name: str, cost, lb, ub):
        """Variables only; rows come through add_rows."""
        fixed = (ub - lb) <= FIX_TOL
        self.name = name
        self.cost = cost
        self.x_fixed = np.where(fixed, lb, 0.0)
        self.active = np.flatnonzero(~fixed)
        self.rows = np.zeros(0, dtype=int)
        self.num_rows = 0
        self.cols = sp.csc_matrix((0, len(self.active)))
        self.K = sp.csr_matrix((0, len(cost)))
        self.b = np.zeros(0)
        self.shift = np.zeros(0)
        self.lb = lb[self.active]
        self.ub = ub[self.active]
        self.c = cost[self.active]
        self.infeasible = False
        self.basis: Basis | None = None

    def set_rhs(self, row_ids, values):
        """Overwrite the right-hand sides of kept rows, given by model row id."""
        pos = _positions(self.rows, row_ids, "set_rhs on a row that presolve dropped")
        self.b[pos] = np.asarray(values, dtype=float) - self.shift[pos]

    def set_upper(self, var_ids, values):
        """Overwrite the upper bounds of unpinned variables, given by model variable id.

        An upper bound equal to the lower one fixes the column for the next
        solve; a later call can open it again.
        """
        pos = _positions(self.active, var_ids, "set_upper on a variable that presolve pinned")
        self.ub[pos] = values

    def add_rows(self, rows):
        """Append rows `(sense, rhs, coeffs)` as the model's next row ids.

        A row whose support is entirely fixed is dropped, after checking that
        the pinned values satisfy it. Each kept row's slack joins the start
        basis as basic, so a basis that was dual feasible stays dual feasible.
        """
        na, m = len(self.active), len(self.b)
        senses, rhs, R = _row_matrix(rows, len(self.cost))
        rid = self.num_rows + np.arange(len(rhs))
        self.num_rows += len(rhs)
        shift = R @ self.x_fixed
        live = R[:, self.active]
        kept = np.diff(live.indptr) > 0
        dropped = ~kept
        self.infeasible = self.infeasible or bool(
            (_row_excess(senses[dropped], rhs[dropped] - shift[dropped]) > FEASIBILITY_TOL).any()
        )
        k = int(kept.sum())
        if not k:
            return
        A = sp.vstack([self.cols[:, :na], live[kept]], format="csc")
        self.cols = sp.hstack([A, sp.identity(m + k, format="csc")], format="csc")
        self.K = sp.vstack([self.K, R[kept]], format="csr")
        self.rows = np.concatenate([self.rows, rid[kept]])
        self.b = np.concatenate([self.b, rhs[kept] - shift[kept]])
        self.shift = np.concatenate([self.shift, shift[kept]])
        slack_lb, slack_ub = _slack_bounds(senses[kept])
        self.lb = np.concatenate([self.lb, slack_lb])
        self.ub = np.concatenate([self.ub, slack_ub])
        self.c = np.concatenate([self.c, np.zeros(k)])
        if self.basis is not None:
            self.basis = Basis(
                np.concatenate([self.basis.head, na + m + np.arange(k)]).astype(np.int32),
                np.concatenate([self.basis.status, np.full(k, _BASIC)]).astype(np.int8),
            )


def presolve(model: LinearModel) -> ArrayLP:
    """Pin fixed variables, drop rows whose support is entirely fixed."""
    if model.num_variables == 0:
        raise ModelError("model must have at least one variable")
    lp = ArrayLP(
        model.name,
        np.array([v.obj for v in model.variables]),
        np.array([v.lower for v in model.variables]),
        np.array([v.upper for v in model.variables]),
    )
    lp.add_rows((row.sense, row.rhs, row.coeffs) for row in model.rows)
    return lp


class _Core:
    """Simplex over the slack-extended equality system A x = b, l <= x <= u."""

    def __init__(self, lp: ArrayLP):
        self.m = len(lp.b)
        self.n_struct = len(lp.active)
        self.b = lp.b
        self.A, self.lb, self.ub = lp.cols, lp.lb, lp.ub
        self.iterations = 0

    def _load(self, head, status, costs) -> bool:
        """Enter a basis: nonbasics at their bounds, then costs and a refactor.

        Returns False when a nonbasic sits at an infinite bound. Raises
        numpy.linalg.LinAlgError when the basis is singular.
        """
        self.basis, self.vstatus = head, status
        self.x = self._at_bounds(status)
        self.x[head] = 0.0
        if not np.isfinite(self.x).all():
            return False
        self.AT = self.A.T  # a CSR view of the CSC columns, not a copy
        self.c = costs
        self.fixed = (self.ub - self.lb) <= FIX_TOL
        self.refactor()
        return True

    def _at_bounds(self, st):
        """Column values with each nonbasic at the bound its status names, free at 0."""
        return np.where(st == _NB_UPPER, self.ub, np.where(st == _NB_LOWER, self.lb, 0.0))

    def start_cold(self, lp: ArrayLP):
        """Slack basis, plus a phase-1 artificial on each row the slack cannot absorb.

        Loads the phase-1 costs: one on each artificial.
        """
        m, n_struct = self.m, self.n_struct
        lb, ub = lp.lb, lp.ub
        # nonbasic start: nearest finite bound, free variables at zero; every
        # slack bound is 0 or infinite, so the slacks start at zero
        status = np.where(lb > -INF, _NB_LOWER, np.where(ub < INF, _NB_UPPER, _NB_FREE))
        r = self.b - lp.cols @ self._at_bounds(status)
        resid = r - np.clip(r, lb[n_struct:], ub[n_struct:])
        art_rows = np.flatnonzero(np.abs(resid) > FIX_TOL)
        n_art = len(art_rows)
        # a slack that cannot absorb its row sits on the bound r passes
        status[n_struct:] = np.where(resid > 0, _NB_UPPER, _NB_LOWER)

        if n_art:
            art = sp.csc_matrix(
                (np.sign(resid[art_rows]), (art_rows, np.arange(n_art))),
                shape=(m, n_art),
            )
            self.A = sp.hstack([lp.cols, art], format="csc")
            self.lb = np.concatenate([lp.lb, np.zeros(n_art)])
            self.ub = np.concatenate([lp.ub, np.full(n_art, INF)])
            status = np.concatenate([status, np.full(n_art, _NB_LOWER)])
        self.art_rows = art_rows
        self.art_cols = n_struct + m + np.arange(n_art)
        head = n_struct + np.arange(m)
        head[art_rows] = self.art_cols
        status[head] = _BASIC
        self._load(head, status, np.concatenate([np.zeros(n_struct + m), np.ones(n_art)]))

    def start_warm(self, start: Basis, costs) -> bool:
        """Load a stored basis under the given costs; False unless dual feasible.

        Raises numpy.linalg.LinAlgError when the basis is singular.
        """
        if len(start.head) != self.m or len(start.status) != len(self.lb):
            return False
        head, status = start.head.astype(int), start.status.astype(int)
        return self._load(head, status, costs) and self._make_dual_feasible()

    def _make_dual_feasible(self) -> bool:
        """Flip boxed nonbasics to the bound their reduced cost asks for."""
        tol = OPTIMALITY_TOL
        st, d = self.vstatus, self.d
        if ((st == _NB_FREE) & (np.abs(d) > tol)).any():
            return False
        open_nb = ~self.fixed
        to_upper = (st == _NB_LOWER) & open_nb & (d < -tol)
        to_lower = (st == _NB_UPPER) & open_nb & (d > tol)
        if not (to_upper.any() or to_lower.any()):
            return True
        if (to_upper & (self.ub == INF)).any() or (to_lower & (self.lb == -INF)).any():
            return False
        st[to_upper] = _NB_UPPER
        self.x[to_upper] = self.ub[to_upper]
        st[to_lower] = _NB_LOWER
        self.x[to_lower] = self.lb[to_lower]
        self._solve_basics()
        return True

    def final_basis(self) -> Basis:
        """The basis over structural and slack columns; basic artificials become slacks."""
        k = self.n_struct + self.m
        head = self.basis.copy()
        status = self.vstatus[:k].copy()
        art = head >= k
        if art.any():
            slacks = self.n_struct + self.art_rows[head[art] - k]
            head[art] = slacks
            status[slacks] = _BASIC
        return Basis(head.astype(np.int32), status.astype(np.int8))

    # -- factorization ----------------------------------------------------

    def refactor(self):
        """LU-factor the basis matrix, clear the eta file, recompute x_B and duals.

        Raises numpy.linalg.LinAlgError when the basis is singular.
        """
        self.etas = []
        try:
            self.lu = splu(self.A[:, self.basis], permc_spec="COLAMD")
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            if "singular" not in str(err):
                raise
            raise np.linalg.LinAlgError(str(err)) from err
        self._solve_basics()
        self._recompute_duals()
        self._since_refactor = 0

    def _ftran_dense(self, a):
        """B^-1 a: the LU solve, then each eta in pivot order."""
        w = self.lu.solve(a)
        for p, eta in self.etas:
            if w[p]:
                w += w[p] * eta
        return w

    def _btran(self, v):
        """B^-T v: each eta in reverse pivot order, then the transposed LU solve."""
        v = v.copy()
        for p, eta in reversed(self.etas):
            v[p] += eta @ v
        return self.lu.solve(v, trans="T")

    def _solve_basics(self):
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self._ftran_dense(self.b - self.A @ xn)

    def _recompute_duals(self):
        self.y = self._btran(self.c[self.basis])
        self.d = self.c - self.AT @ self.y
        self.d[self.basis] = 0.0

    # -- pivoting ----------------------------------------------------------

    def _price(self):
        tol = OPTIMALITY_TOL
        score = np.full(len(self.d), -np.inf)
        open_nb = ~self.fixed
        mask_l = (self.vstatus == _NB_LOWER) & open_nb
        mask_u = (self.vstatus == _NB_UPPER) & open_nb
        mask_f = self.vstatus == _NB_FREE
        score[mask_l] = -self.d[mask_l]
        score[mask_u] = self.d[mask_u]
        score[mask_f] = np.abs(self.d[mask_f])
        if self.bland:
            elig = score > tol
            if not elig.any():
                return None
            return int(np.argmax(elig))
        q = int(np.argmax(score))
        if score[q] <= tol:
            return None
        return q

    def _ftran(self, q):
        s, e = self.A.indptr[q], self.A.indptr[q + 1]
        a = np.zeros(self.m)
        a[self.A.indices[s:e]] = self.A.data[s:e]
        return self._ftran_dense(a)

    def _pivot_row(self, p):
        """rho = e_p' B^-1."""
        e = np.zeros(self.m)
        e[p] = 1.0
        return self._btran(e)

    def _pivot(self, p, q, u, step, to_lower):
        """Column q takes basis position p, given u = B^-1 a_q.

        x_q moves by `step` and the basics by -step * u; the leaving variable
        goes to its lower bound if `to_lower`, else to its upper. The new
        inverse is E^-1 B^-1 with E^-1 = I + eta e_p', where
        eta = -u / u_p except eta_p = 1 / u_p - 1.
        """
        self.x[self.basis] -= step * u
        self.x[q] += step
        leaving = self.basis[p]
        self.x[leaving] = self.lb[leaving] if to_lower else self.ub[leaving]
        self.vstatus[leaving] = _NB_LOWER if to_lower else _NB_UPPER

        eta = -u / u[p]
        eta[p] = 1.0 / u[p] - 1.0
        self.etas.append((p, eta))

        self.basis[p] = q
        self.vstatus[q] = _BASIC
        self.d[q] = 0.0
        self.iterations += 1
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_INTERVAL:
            self.refactor()

    def _step(self):
        """One primal pivot or bound flip. Returns 'optimal'/'unbounded'/None."""
        q = self._price()
        if q is None:
            return "optimal"
        st = self.vstatus[q]
        sigma = 1.0 if (st == _NB_LOWER or (st == _NB_FREE and self.d[q] < 0)) else -1.0
        u = self._ftran(q)
        delta = sigma * u

        xB = self.x[self.basis]
        ratios = np.full(self.m, np.inf)
        pos = delta > PIVOT_TOL
        neg = delta < -PIVOT_TOL
        if pos.any():
            ratios[pos] = (xB[pos] - self.lb[self.basis[pos]]) / delta[pos]
        if neg.any():
            ratios[neg] = (xB[neg] - self.ub[self.basis[neg]]) / delta[neg]
        ratios = np.maximum(
            np.nan_to_num(ratios, nan=np.inf, posinf=np.inf, neginf=np.inf), 0.0
        )
        t_block = ratios.min() if self.m else np.inf

        flip = self.ub[q] - self.lb[q] if st != _NB_FREE else np.inf

        if flip <= t_block:
            if flip == np.inf:
                return "unbounded"
            self.x[self.basis] = xB - flip * delta
            self.x[q] = self.ub[q] if st == _NB_LOWER else self.lb[q]
            self.vstatus[q] = _NB_UPPER if st == _NB_LOWER else _NB_LOWER
            self.iterations += 1
            self._last_step = flip
            return None
        if not np.isfinite(t_block):
            return "unbounded"

        cand = np.flatnonzero(ratios <= t_block + RATIO_TIE)
        if self.bland:
            p = int(cand[np.argmin(self.basis[cand])])
        else:
            p = int(cand[np.argmax(np.abs(delta[cand]))])

        t = max(t_block, 0.0)
        dq = self.d[q]
        if dq != 0.0:
            self.d -= (dq / u[p]) * (self.AT @ self._pivot_row(p))
        self._last_step = t
        self._pivot(p, q, u, sigma * t, delta[p] > 0)
        return None

    def _iterate(self, step):
        """Call `step` until it returns an outcome or the iteration cap is hit.

        Pricing switches to Bland's rule after BLAND_STALL consecutive
        degenerate steps.
        """
        self.bland = False
        degen = 0
        while True:
            if self.iterations >= MAX_ITERATIONS:
                return "iterlimit"
            outcome = step()
            if outcome is not None:
                return outcome
            if abs(self._last_step) > DEGEN_TOL:
                degen = 0
            else:
                degen += 1
                if degen >= BLAND_STALL:
                    self.bland = True

    def run_phase(self, costs):
        """Iterate to optimality/unboundedness under the given cost vector."""
        self.c = costs
        self._recompute_duals()
        return self._iterate(self._step)

    def _dual_step(self):
        """One dual pivot. Returns 'optimal'/'infeasible'/None."""
        xB = self.x[self.basis]
        below = self.lb[self.basis] - xB
        infeas = np.maximum(below, xB - self.ub[self.basis])
        tol = FEASIBILITY_TOL
        if self.bland:
            rows = np.flatnonzero(infeas > tol)
            if not len(rows):
                return "optimal"
            p = int(rows[np.argmin(self.basis[rows])])
        else:
            p = int(np.argmax(infeas)) if self.m else 0
            if not self.m or infeas[p] <= tol:
                return "optimal"
        to_lower = below[p] > 0
        delta = -below[p] if to_lower else infeas[p]  # x_p minus its violated bound

        alpha = self.AT @ self._pivot_row(p)  # pivot row over every column
        # a candidate's reduced cost moves toward zero as the dual step grows
        slope = -alpha if to_lower else alpha
        st = self.vstatus
        open_nb = ~self.fixed
        elig = open_nb & (
            ((st == _NB_LOWER) & (slope > PIVOT_TOL))
            | ((st == _NB_UPPER) & (slope < -PIVOT_TOL))
            | ((st == _NB_FREE) & (np.abs(slope) > PIVOT_TOL))
        )
        cand = np.flatnonzero(elig)
        if not len(cand):
            return "infeasible"
        ratios = self.d[cand] / slope[cand]
        ratios = np.where(st[cand] == _NB_FREE, np.abs(ratios), np.maximum(ratios, 0.0))
        ties = cand[ratios <= ratios.min() + RATIO_TIE]
        if self.bland:
            q = int(ties[0])
        else:
            # among ties with a pivot of comparable size prefer a slack, which
            # leaves the structural variables where they are
            size = np.abs(alpha[ties])
            ties = ties[size >= TIE_PIVOT_SHARE * size.max()]
            slacks = ties[ties >= self.n_struct]
            if len(slacks):
                ties = slacks
            q = int(ties[np.argmax(np.abs(alpha[ties]))])

        u = self._ftran(q)
        theta_d = self.d[q] / u[p]
        self.d -= theta_d * alpha
        self._last_step = theta_d
        self._pivot(p, q, u, delta / u[p], to_lower)
        return None

    def run_dual(self):
        """Dual simplex from a dual feasible basis to a primal feasible one.

        Optimality is only declared on a fresh factorization.
        """

        def step():
            outcome = self._dual_step()
            if outcome == "optimal" and self._since_refactor:
                self.refactor()
                outcome = self._dual_step()
            return outcome

        return self._iterate(step)


def _no_solution(lp: ArrayLP, status: str, iterations: int) -> Solution:
    n = len(lp.cost)
    return Solution(
        status=status,
        objective=float("nan"),
        primal=np.zeros(n),
        duals=np.zeros(lp.num_rows),
        reduced_costs=np.zeros(n),
        iterations=iterations,
    )


def _solution(lp: ArrayLP, status: str, x, y, iterations=0, basis=None) -> Solution:
    """The model-space solution with active columns at x and kept-row duals y."""
    primal = lp.x_fixed.copy()
    primal[lp.active] = x
    duals = np.zeros(lp.num_rows)
    duals[lp.rows] = y
    return Solution(
        status=status,
        objective=float(lp.cost @ primal),
        primal=primal,
        duals=duals,
        reduced_costs=lp.cost - lp.K.T @ y,
        iterations=iterations,
        basis=basis,
    )


def _finish(lp: ArrayLP, core: _Core, status: str) -> Solution:
    if core._since_refactor:
        core.refactor()
    basis = core.final_basis() if status == OPTIMAL else None
    return _solution(lp, status, core.x[: core.n_struct], core.y, core.iterations, basis)


def _solve_cold(lp: ArrayLP, spent: int = 0) -> Solution:
    """Two-phase primal simplex; the pivot count and its cap start from spent."""
    core = _Core(lp)
    core.iterations = spent
    try:
        core.start_cold(lp)
        status = OPTIMAL
        if len(core.art_cols):
            outcome = core._iterate(core._step)  # phase 1, under the loaded costs
            if outcome == "iterlimit":
                status = ITERATION_LIMIT
            elif outcome == "unbounded":
                raise RuntimeError("phase-1 subproblem reported unbounded")
            else:
                infeas = float(core.x[core.art_cols].sum())
                scale = max(1.0, float(np.abs(core.b).max()) if core.m else 1.0)
                if infeas > FEASIBILITY_TOL * scale:
                    return _no_solution(lp, INFEASIBLE, core.iterations)
                core.ub[core.art_cols] = 0.0
                core.x[core.art_cols] = 0.0
                core.fixed[core.art_cols] = True

        if status == OPTIMAL:
            outcome = core.run_phase(np.concatenate([lp.c, np.zeros(len(core.art_cols))]))
            if outcome == "iterlimit":
                status = ITERATION_LIMIT
            elif outcome == "unbounded":
                return _no_solution(lp, UNBOUNDED, core.iterations)
        return _finish(lp, core, status)
    except np.linalg.LinAlgError:
        return _no_solution(lp, NUMERICAL_ERROR, core.iterations)


def _solve_warm(lp: ArrayLP) -> tuple[Solution | None, int]:
    """Dual simplex from lp.basis; (None, pivots spent) when it must fall back."""
    core = _Core(lp)
    try:
        if (
            core.start_warm(lp.basis, lp.c)
            and core.run_dual() == "optimal"
            and core.run_phase(lp.c) == "optimal"
        ):
            return _finish(lp, core, OPTIMAL), 0
    except np.linalg.LinAlgError:
        pass
    return None, core.iterations


def solve(model: LinearModel | ArrayLP, _none=None, /) -> Solution:
    """Solve the LP relaxation of a model; statuses per module docstring.

    An ArrayLP with a start basis is re-solved warm when it can be. A warm
    attempt that falls back hands its pivot count to the cold solve, so the
    reported iterations and MAX_ITERATIONS cover both.
    Callers written for the removed options argument may still pass None
    second (benchmark/tracing.py does); anything else is an error.
    """
    if _none is not None:
        raise TypeError("solve() takes no options")
    lp = model if isinstance(model, ArrayLP) else presolve(model)
    if len(lp.b) > MAX_ROWS:
        raise ModelError(
            f"{lp.name}: {len(lp.b)} rows after presolve exceed the row "
            f"limit of {MAX_ROWS}"
        )
    if lp.infeasible:
        return _no_solution(lp, INFEASIBLE, 0)
    if len(lp.active) == 0:
        return _solution(lp, OPTIMAL, np.zeros(0), np.zeros(0))
    if lp.basis is None:
        return _solve_cold(lp)
    sol, spent = _solve_warm(lp)
    return sol if sol is not None else _solve_cold(lp, spent)


def dual_bound(lp: ArrayLP, duals) -> tuple[float, np.ndarray]:
    """Weak-duality lower bound on the optimum of lp, valid for any row duals.

    duals has one entry per model row. Each inequality row's dual is first
    moved to its sign (<= 0 on '<=' rows, >= 0 on '>=' rows); with r = c - A'y
    the bound is cost.x_fixed + b'y + sum_j min(r_j l_j, r_j u_j), which is
    -inf when a reduced cost points at an infinite bound. Returns the bound
    and the signed duals, zero on rows that presolve dropped.
    """
    n = len(lp.active)
    slack_lb, slack_ub = lp.lb[n:], lp.ub[n:]
    y = np.asarray(duals, dtype=float)[lp.rows]
    y = np.where(slack_ub == INF, np.minimum(y, 0.0), y)
    y = np.where(slack_lb == -INF, np.maximum(y, 0.0), y)
    r = (lp.cost - lp.K.T @ y)[lp.active]
    at = np.where(r > 0, lp.lb[:n], np.where(r < 0, lp.ub[:n], 0.0))
    signed = np.zeros(lp.num_rows)
    signed[lp.rows] = y
    return float(lp.cost @ lp.x_fixed + lp.b @ y + r @ at), signed


def check_certificates(model: LinearModel, sol: Solution) -> dict:
    """Primal feasibility, strong duality and complementary slackness gauges.

    Returns a dict of violation magnitudes for an Optimal solution; tests
    assert them against the solve tolerances. Reads the model itself, not its
    presolved form, so that a presolve fault cannot hide.
    """
    x, y, d = sol.primal, sol.duals, sol.reduced_costs
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    senses, rhs, R = _row_matrix(
        ((row.sense, row.rhs, row.coeffs) for row in model.rows), model.num_variables
    )

    bound_viol = max(np.max(lower - x, initial=0.0), np.max(x - upper, initial=0.0))
    inside = (x > lower + FEASIBILITY_TOL) & (x < upper - FEASIBILITY_TOL)
    cs_var = np.max(np.abs(d[inside]), initial=0.0)
    priced = np.abs(d) > 1e-12
    anchor = np.where(d > 0, lower, upper)[priced]
    if np.isfinite(anchor).all():
        dual_obj = float(d[priced] @ anchor + y @ rhs)
    else:
        dual_obj = -np.inf

    slack = rhs - R @ x
    row_viol = np.max(_row_excess(senses, slack), initial=0.0)
    cs_row = np.max(np.abs(slack[np.abs(y) > OPTIMALITY_TOL]), initial=0.0)

    gap = abs(sol.objective - dual_obj)
    return {
        "bound_violation": float(bound_viol),
        "row_violation": float(row_viol),
        "duality_gap": float(gap),
        "cs_variable": float(cs_var),
        "cs_row": float(cs_row),
        "dual_objective": float(dual_obj),
    }

"""Embedded LP solver: bounded dual simplex with dual steepest-edge pricing.

Rows are turned into equalities with one slack column per row (slack bounds
encode the sense), so the all-slack basis is always available. Variables sit
nonbasic at a bound, which keeps box bounds out of the row count. The basis
of m rows is refactored every REFACTOR_INTERVAL pivots and held in one of two
ways, behind one interface (factor, ftran, column, btran, row, update):

- m <= DENSE_ROWS: an explicit dense inverse, factored by LAPACK getrf and
  getri; each pivot makes a rank-1 update into a new array. Most solves of
  the decomposition are re-solves of a few pivots on bases of 20-70 rows,
  where SuperLU's fixed costs per factorization and per solve and the
  Python loop over the eta file outweigh the O(m^2) dense products.
- m > DENSE_ROWS: a sparse LU factorization (SuperLU, COLAMD ordering,
  relaxed supernodes and panels of one column: wider ones pad these
  near-triangular bases with explicit zeros) with a product-form eta file
  on top, one eta per pivot. FTRAN solves with the LU and then applies the
  etas in order; BTRAN applies them in reverse, then solves with the
  transposed LU. SuperLU is single-threaded and the eta file's dot products
  stay below OpenBLAS's threading size, so these pivot paths do not depend
  on the BLAS thread count.

The crossover is flat between 50 and 150 rows on the benchmark workloads.
At 200 the 158-row subproblems of a 16-node decomposition go dense, and
take about twice the time per pivot and more rounds, so DENSE_ROWS is 100.
Integrality annotations are ignored: solves are LP relaxations. The
tolerances (FEASIBILITY_TOL, OPTIMALITY_TOL), the iteration cap
(MAX_ITERATIONS) and DENSE_ROWS are module constants.

Every solve runs the dual simplex from a start basis: the ArrayLP's stored
basis if it has one, else the slack basis, where every slack is basic and
each structural sits at a finite bound, a free one at zero. A start is used
once boxed nonbasics flip to the bound their reduced cost asks for; that
makes any basis of a model whose columns are all boxed dual feasible. The
dual pivot leaves the row with the largest infeas_i^2 / w_i, where
w_i = ||e_i' B^-1||^2 is the row's dual steepest-edge weight (Forrest and
Goldfarb, 1992), kept up to date through every basis change by one extra
FTRAN per pivot. The weights depend on the basis matrix alone: they travel
with a stored basis, so a re-solve after new right-hand sides or bounds
starts from them. So does the basis's factor, together with the column
matrix it factors: a start reuses it, without factoring, only on that very
matrix and only when it is of the kind that the row count picks, so after
add_rows or on another ArrayLP the basis is factored afresh. x_B and
the duals are recomputed at every start. A primal clean-up pass under the
true costs ends every dual run.

A start falls back when it is not dual feasible, meets a singular
factorization or is still going after m pivots (m rows): the stored basis
to the slack basis, and that to the last start, the slack basis again with
no pivot limit. A stored start that stalls after m pivots instead hands the
basis it reached to the last start, so its pivots are not thrown away; a
slack start that stalls does not (going on from its basis took the 16-node
direct lp-r3 from 6,706 to 11,886 pivots). The last start is always dual
feasible: a nonbasic whose reduced cost points at an infinite bound, or a
free one with a reduced cost, has its cost moved by -d_j, so d_j = 0 (cost
modification, a dual phase 1 method in Koberstein's thesis, 2005). Then
every open nonbasic's cost moves away from its bound by a small random
amount: at the slack basis d = c, so every cost-free column ties in the
ratio test until the perturbation breaks the ties. The clean-up pass then reports Unbounded when
the LP is. Every other outcome ends the solve at once. A dual ratio test
with no entering column is a Farkas ray, whatever the costs, so Infeasible
is declared, like optimality, only on a factorization of the basis with no
pivot since, fresh or stored with it. The pivots of
a start that falls back count toward the next, so MAX_ITERATIONS caps them
all together. A singular factorization on the last start gives
NumericalError. Both passes switch to Bland's rule after BLAND_STALL
consecutive degenerate steps, which rules out cycling. An Optimal solve
returns its final basis, weights and factor.

`presolve` turns a LinearModel into an ArrayLP from the model's arrays,
every variable and row kept under its model id. A fixed variable
(lower = upper) stays nonbasic at its bound: no pivot, flip or perturbation
moves it. An ArrayLP takes new right-hand sides (`set_rhs`), new upper
bounds (`set_upper`) and appended rows (`add_rows`, whose slacks join the
stored basis as basic) without a rebuild, and carries the start basis of
its next solve. `solve_in_blocks` solves a model on one ArrayLP that takes
its rows block by block, each solve warm from the last one's optimum.
Primal and dual pivots share one basis change.

Row duals follow the minimization convention: '<=' rows have dual <= 0,
'>=' rows dual >= 0, '=' rows free. Reduced costs are c - A'y for every
variable, so dual objectives (rhs'y plus bound terms) certify optima under
the model's own bounds. `dual_bound` evaluates that dual objective for any
row duals, after moving each to its sign, so it bounds the optimum from
below whatever produced them.

`solve` refuses a model with more than MAX_ROWS rows with a ModelError,
which bounds the time a single solve can take.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse.linalg import SuperLU, splu

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
PERTURBATION = 1e-6  # least relative change of a perturbed cost
DSE_FLOOR = 1e-4  # least dual steepest-edge weight an update may leave
# read at call time, so that a test can lower them with monkeypatch
FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7
MAX_ITERATIONS = 10_000_000
# model rows that solve accepts. It bounds solve time (the relaxed
# ip-rwap-ppp of gen_cycle(5, 2, 80), 22,104 rows, ran over 600 s) and keeps
# the eta file's dot products at most 10,000 long, which OpenBLAS runs on one
# thread whatever its thread count, so pivot paths stay independent of it
MAX_ROWS = 10_000
# bases of at most this many rows are held as a dense inverse, larger ones
# as sparse LU factors with an eta file
DENSE_ROWS = 100

_NB_LOWER, _NB_UPPER, _BASIC, _NB_FREE = 0, 1, 2, 3
# by status: the way a nonbasic moves off its bound, up from its lower one
# and down from its upper one; basic and free columns have none
_DIRECTION = np.array([1.0, -1.0, 0.0, 0.0])


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the structural and slack columns of an ArrayLP."""

    head: np.ndarray  # column in each basis position
    status: np.ndarray  # per column: nonbasic at lower/upper, basic, free
    weights: np.ndarray  # per position: DSE weight
    # (cols, factor): a fresh factor of cols[:, head], no pivot since, a SuperLU
    # object or a dense inverse; reused only for that very cols
    factor: tuple | None = field(default=None, compare=False, repr=False)


def _row_excess(senses: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """How far each row `lhs <sense> rhs` is violated, given slack = rhs - lhs."""
    return np.where(
        senses == SENSE_LE, -slack, np.where(senses == SENSE_GE, slack, np.abs(slack))
    )


def _slack_bounds(senses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.where(senses == SENSE_GE, -INF, 0.0).astype(float)
    upper = np.where(senses == SENSE_LE, INF, 0.0).astype(float)
    return lower, upper


def _checked(ids, size: int, what: str) -> np.ndarray:
    """ids as an int array; ModelError unless each lies in [0, size)."""
    ids = np.asarray(ids, dtype=int)
    if ((ids < 0) | (ids >= size)).any():
        raise ModelError(f"{what}: id outside 0..{size - 1}")
    return ids


class ArrayLP:
    """A LinearModel after presolve, in the array form the simplex works on.

    Columns are the model's variables, then one slack per model row: `cols`
    is [A | I] and `lb`/`ub`/`c` are their bounds and costs, with
    `cost == c[:n]` the model's costs and `b` its rhs. `colsT` is the
    transposed view of `cols`. `basis` is the start basis of the next solve;
    None starts from the slack basis.
    """

    def __init__(self, name: str, cost, lb, ub):
        """Variables only; rows come through add_rows."""
        self.name = name
        self.cost = cost
        self.cols = sp.csc_matrix((0, len(cost)))
        self.colsT = self.cols.T  # a CSR view, not a copy
        self.b = np.zeros(0)
        self.lb = np.array(lb, dtype=float)
        self.ub = np.array(ub, dtype=float)
        self.c = np.array(cost, dtype=float)
        self.basis: Basis | None = None

    num_rows = property(lambda self: len(self.b))

    def set_rhs(self, row_ids, values):
        """Overwrite the right-hand sides of rows, given by model row id."""
        self.b[_checked(row_ids, len(self.b), "set_rhs")] = values

    def set_upper(self, var_ids, values):
        """Overwrite the upper bounds of variables, given by model variable id.

        An upper bound equal to the lower one fixes the column for the next
        solve; a later call can open it again.
        """
        self.ub[_checked(var_ids, len(self.cost), "set_upper")] = values

    def add_rows(self, senses, rhs, R):
        """Append rows as the model's next row ids: senses, rhs and a CSR block R.

        R has one row per new row over every model column, its coefficients
        merged and in ascending column order, as LinearModel.matrix holds them.

        Each row's slack joins the start basis as basic, so a basis that was
        dual feasible stays dual feasible, and its pricing weight starts at 1.
        The basis loses its stored factor, which belongs to the old columns.
        """
        n, m, k = len(self.cost), len(self.b), len(rhs)
        if not k:
            return
        if R.shape != (k, n):
            raise ModelError(f"add_rows: a {R.shape} block for {k} rows over {n} columns")
        self.cols = _append_rows(self.cols, R, n)
        self.colsT = self.cols.T
        self.b = np.concatenate([self.b, rhs])
        slack_lb, slack_ub = _slack_bounds(senses)
        self.lb = np.concatenate([self.lb, slack_lb])
        self.ub = np.concatenate([self.ub, slack_ub])
        self.c = np.concatenate([self.c, np.zeros(k)])
        if self.basis is not None:
            self.basis = Basis(
                np.concatenate([self.basis.head, n + m + np.arange(k)]).astype(np.int32),
                np.concatenate([self.basis.status, np.full(k, _BASIC)]).astype(np.int8),
                np.concatenate([self.basis.weights, np.ones(k)]),
            )


def _append_rows(cols, R, n: int):
    """[A | I] in CSC with the CSR rows R below A, given cols = [A | I] with n columns in A.

    Each column of A keeps its entries and takes R's below them, in row
    order: a stable sort of all entries by column. One slack column per row
    follows.
    """
    m, k = cols.shape[0], R.shape[0]
    end = cols.indptr[n]
    col = np.concatenate([np.repeat(np.arange(n), np.diff(cols.indptr[: n + 1])), R.indices])
    row = np.concatenate([cols.indices[:end], m + np.repeat(np.arange(k), np.diff(R.indptr))])
    order = np.argsort(col, kind="stable")
    counts = np.concatenate([np.bincount(col, minlength=n), np.ones(m + k, dtype=int)])
    size = len(col) + m + k
    index = np.int32 if max(size, n + m + k) < 2**31 else np.int64
    indptr = np.zeros(n + m + k + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate([row[order], np.arange(m + k)]).astype(index)
    data = np.concatenate([cols.data[:end], R.data])[order]
    data = np.concatenate([data, np.ones(m + k)])
    return sp.csc_matrix((data, indices, indptr), shape=(m + k, n + m + k))


def _slack_basis(lp: ArrayLP) -> Basis:
    """Every slack basic, each structural at a finite bound; B = I, so every weight is 1."""
    n, m = len(lp.cost), len(lp.b)
    status = np.where(lp.lb > -INF, _NB_LOWER, np.where(lp.ub < INF, _NB_UPPER, _NB_FREE))
    status[n:] = _BASIC
    return Basis((n + np.arange(m)).astype(np.int32), status.astype(np.int8), np.ones(m))


def _columns(model: LinearModel) -> ArrayLP:
    """An ArrayLP of the model's columns and no rows."""
    if model.num_variables == 0:
        raise ModelError("model must have at least one variable")
    return ArrayLP(model.name, model.cost, model.lower, model.upper)


def presolve(model: LinearModel) -> ArrayLP:
    """The model's arrays as an ArrayLP."""
    lp = _columns(model)
    lp.add_rows(model.senses, model.rhs, model.matrix)
    return lp


def _gather(A, head):
    """Positions in A's CSC arrays of the entries of columns head, and their column pointer."""
    starts, ends = A.indptr[head], A.indptr[head + 1]
    indptr = np.zeros(len(head) + 1, dtype=A.indptr.dtype)
    np.cumsum(ends - starts, out=indptr[1:])
    take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], ends - starts)
    return take, indptr


class _SparseLU:
    """B^-1 as the SuperLU factors of B with a product-form eta file on top.

    Each kernel factors the basis columns `head` of A, or adopts `stored`,
    its own fresh factor of that matrix, and offers ftran (B^-1 a),
    column (B^-1 A[:, q]), btran (B^-T v), row (e_p' B^-1) and update (the
    pivot on u_p, given u = B^-1 a_q). `data` is what a Basis stores.
    """

    kind = SuperLU

    def __init__(self, A, head, stored=None):
        self.A = A
        if stored is None:
            take, indptr = _gather(A, head)
            B = sp.csc_matrix((A.data[take], A.indices[take], indptr), shape=(len(head),) * 2)
            try:
                stored = splu(B, permc_spec="COLAMD", relax=1, panel_size=1)
            except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
                if "singular" not in str(err):
                    raise
                raise np.linalg.LinAlgError(str(err)) from err
        self.data = stored
        self.etas = []

    def ftran(self, a):
        """The LU solve, then each eta in pivot order."""
        w = self.data.solve(a)
        for p, eta in self.etas:
            if w[p]:
                w += w[p] * eta
        return w

    def column(self, q):
        s, e = self.A.indptr[q], self.A.indptr[q + 1]
        a = np.zeros(self.A.shape[0])
        a[self.A.indices[s:e]] = self.A.data[s:e]
        return self.ftran(a)

    def btran(self, v):
        """Each eta in reverse pivot order, then the transposed LU solve."""
        v = v.copy()
        for p, eta in reversed(self.etas):
            v[p] += eta @ v
        return self.data.solve(v, trans="T")

    def row(self, p):
        e = np.zeros(self.A.shape[0])
        e[p] = 1.0
        return self.btran(e)

    def update(self, p, u):
        """E^-1 B^-1 with E^-1 = I + eta e_p': eta = -u / u_p except eta_p = 1 / u_p - 1."""
        eta = -u / u[p]
        eta[p] = 1.0 / u[p] - 1.0
        self.etas.append((p, eta))


class _DenseInverse:
    """B^-1 as an explicit m x m array (LAPACK getrf and getri), see _SparseLU.

    Each pivot writes the updated inverse into a new array, so a stored
    inverse and a row handed out earlier stay as they were.
    """

    kind = np.ndarray

    def __init__(self, A, head, stored=None):
        self.A = A
        if stored is None:
            m = len(head)
            take, indptr = _gather(A, head)
            stored = np.zeros((m, m))
            stored[A.indices[take], np.repeat(np.arange(m), np.diff(indptr))] = A.data[take]
            if m:  # LAPACK refuses an empty matrix
                # B.T is B' in Fortran order: its inverse, transposed back, is
                # B^-1 in C order, whose rows are contiguous
                lu, piv, info = dgetrf(stored.T, overwrite_a=True)
                if info == 0:
                    inv, info = dgetri(lu, piv, overwrite_lu=True)
                if info:
                    raise np.linalg.LinAlgError(f"singular basis (LAPACK info {info})")
                stored = inv.T
        self.data = stored

    def ftran(self, a):
        return self.data @ a

    def column(self, q):
        s, e = self.A.indptr[q], self.A.indptr[q + 1]
        return self.data[:, self.A.indices[s:e]] @ self.A.data[s:e]

    def btran(self, v):
        return v @ self.data

    def row(self, p):
        return self.data[p]

    def update(self, p, u):
        """Row p becomes rho / u_p and row i, rho's multiple u_i less."""
        rho = self.data[p] / u[p]
        inv = np.multiply.outer(-u, rho)
        inv += self.data
        inv[p] = rho
        self.data = inv


class _Core:
    """Simplex over the slack-extended equality system A x = b, l <= x <= u."""

    def __init__(self, lp: ArrayLP):
        self.m = len(lp.b)
        self.n_struct = len(lp.cost)
        self.b = lp.b
        self.A, self.AT, self.lb, self.ub = lp.cols, lp.colsT, lp.lb, lp.ub
        self.iterations = 0

    def start(self, basis: Basis, costs, last: bool) -> bool:
        """Load a start basis and its weights under the given costs; False unless dual feasible.

        Nonbasics sit at the bound their status names, free ones at 0. A basis
        of another size, or with a nonbasic at an infinite bound, is refused.
        Its stored factor is used only if it was computed on this very column
        matrix; after add_rows, or on another ArrayLP, the basis is factored
        afresh. See _make_dual_feasible for `last`. Raises
        numpy.linalg.LinAlgError when the basis is singular.
        """
        if {len(basis.head), len(basis.weights)} != {self.m} or len(basis.status) != len(self.lb):
            return False
        self.w = np.array(basis.weights, dtype=float)
        self.basis, self.vstatus = basis.head.astype(int), basis.status.astype(int)
        st = self.vstatus
        self.x = np.where(st == _NB_UPPER, self.ub, np.where(st == _NB_LOWER, self.lb, 0.0))
        self.x[self.basis] = 0.0
        if not np.isfinite(self.x).all():
            return False
        self.c = costs
        self.open = np.where((self.ub - self.lb) <= FIX_TOL, 0.0, 1.0)
        self.any_free = bool(((self.lb == -INF) & (self.ub == INF)).any())
        factor = basis.factor
        self.refactor(factor[1] if factor is not None and factor[0] is self.A else None)
        return self._make_dual_feasible(last)

    def _make_dual_feasible(self, last: bool) -> bool:
        """Flip boxed nonbasics to the bound their reduced cost asks for.

        A nonbasic whose reduced cost points at an infinite bound cannot flip,
        nor can a free one with a reduced cost; the start then fails, unless
        it is the `last`, where such a column's cost moves by -d_j instead.
        The last start then perturbs its costs.
        """
        tol = OPTIMALITY_TOL
        st, d = self.vstatus, self.d
        flip = self._signed(d) < -tol
        to_upper = flip & (st == _NB_LOWER)
        to_lower = flip & (st == _NB_UPPER)
        stuck = (to_upper & (self.ub == INF)) | (to_lower & (self.lb == -INF))
        if self.any_free:
            stuck |= (st == _NB_FREE) & (np.abs(d) > tol)
        if stuck.any():
            if not last:
                return False
            self.c = np.where(stuck, self.c - d, self.c)
            d[stuck] = 0.0
            to_upper &= ~stuck
            to_lower &= ~stuck
        if to_upper.any() or to_lower.any():
            st[to_upper] = _NB_UPPER
            self.x[to_upper] = self.ub[to_upper]
            st[to_lower] = _NB_LOWER
            self.x[to_lower] = self.lb[to_lower]
            self._solve_basics()
        if last:
            self._perturb_costs()
        return True

    def final_basis(self) -> Basis:
        """The basis over structural and slack columns, with its weights.

        Its factor goes with it when no pivot was made since the last
        factorization, so that a re-solve on the same columns need not
        factor it again.
        """
        factor = None if self._since_refactor else (self.A, self.factor.data)
        return Basis(
            self.basis.astype(np.int32), self.vstatus.astype(np.int8), self.w.copy(), factor
        )

    # -- factorization ----------------------------------------------------

    def refactor(self, stored=None):
        """Factor the basis matrix afresh, then recompute x_B and the duals.

        Takes `stored` instead of factoring when it is the kernel's fresh
        factor of this very basis matrix. Raises numpy.linalg.LinAlgError
        when the basis is singular.
        """
        kernel = _DenseInverse if self.m <= DENSE_ROWS else _SparseLU
        self.factor = kernel(self.A, self.basis, stored if isinstance(stored, kernel.kind) else None)
        self._solve_basics()
        self._recompute_duals()
        self._since_refactor = 0

    def _solve_basics(self):
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.factor.ftran(self.b - self.A @ xn)

    def _recompute_duals(self):
        self.y = self.factor.btran(self.c[self.basis])
        self.d = self.c - self.AT @ self.y
        self.d[self.basis] = 0.0

    # -- pivoting ----------------------------------------------------------

    def _signed(self, v):
        """v_j times the way column j moves off its bound: +1 at its lower one, -1 at its upper.

        Basic, free and fixed columns get 0.
        """
        return _DIRECTION[self.vstatus] * self.open * v

    def _price(self):
        """The entering column of a primal step, or None when no reduced cost asks for one.

        The largest reduced cost against the way its column can move, the
        first such column under Bland's rule.
        """
        tol = OPTIMALITY_TOL
        score = -self._signed(self.d)
        if self.any_free:
            score = np.where(self.vstatus == _NB_FREE, np.abs(self.d), score)
        if self.bland:
            elig = score > tol
            if not elig.any():
                return None
            return int(np.argmax(elig))
        q = int(np.argmax(score))
        if score[q] <= tol:
            return None
        return q

    def _update_weights(self, p, u, rho):
        """Forrest-Goldfarb update of the weights w_i = ||e_i' B^-1||^2 for a pivot on u_p.

        Takes u = B^-1 a_q and rho = B^-T e_p under the old basis. An update
        that overflows resets every weight to 1.
        """
        tau = self.factor.ftran(rho)
        with np.errstate(over="ignore", invalid="ignore"):
            r = u / u[p]
            w = np.maximum(self.w - 2.0 * r * tau + r * r * self.w[p], DSE_FLOOR)
            w[p] = self.w[p] / (u[p] * u[p])
        self.w = w if np.isfinite(w).all() else np.ones(self.m)

    def _pivot(self, p, q, u, rho, step, to_lower):
        """Column q takes basis position p, given u = B^-1 a_q and rho = B^-T e_p.

        x_q moves by `step` and the basics by -step * u; the leaving variable
        goes to its lower bound if `to_lower`, else to its upper.
        """
        self._update_weights(p, u, rho)
        self.x[self.basis] -= step * u
        self.x[q] += step
        leaving = self.basis[p]
        self.x[leaving] = self.lb[leaving] if to_lower else self.ub[leaving]
        self.vstatus[leaving] = _NB_LOWER if to_lower else _NB_UPPER
        self.factor.update(p, u)
        self.basis[p] = q
        self.vstatus[q] = _BASIC
        self.d[q] = 0.0
        self.iterations += 1
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_INTERVAL:
            self.refactor()

    def _step(self):
        """One primal pivot or bound flip. Returns OPTIMAL/UNBOUNDED/None."""
        q = self._price()
        if q is None:
            return OPTIMAL
        st = self.vstatus[q]
        sigma = 1.0 if (st == _NB_LOWER or (st == _NB_FREE and self.d[q] < 0)) else -1.0
        u = self.factor.column(q)
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
                return UNBOUNDED
            self.x[self.basis] = xB - flip * delta
            self.x[q] = self.ub[q] if st == _NB_LOWER else self.lb[q]
            self.vstatus[q] = _NB_UPPER if st == _NB_LOWER else _NB_LOWER
            self.iterations += 1
            self._last_step = flip
            return None
        if not np.isfinite(t_block):
            return UNBOUNDED

        cand = np.flatnonzero(ratios <= t_block + RATIO_TIE)
        if self.bland:
            p = int(cand[np.argmin(self.basis[cand])])
        else:
            p = int(cand[np.argmax(np.abs(delta[cand]))])

        t = max(t_block, 0.0)
        rho = self.factor.row(p)
        self.d -= (self.d[q] / u[p]) * (self.AT @ rho)  # pricing left |d_q| > tol
        self._last_step = t
        self._pivot(p, q, u, rho, sigma * t, delta[p] > 0)
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
                return ITERATION_LIMIT
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
        """Iterate to optimality/unboundedness under the given cost vector.

        The duals are recomputed unless they already belong to these very
        costs on a fresh factorization.
        """
        if costs is not self.c or self._since_refactor:
            self.c = costs
            self._recompute_duals()
        return self._iterate(self._step)

    def _dual_step(self):
        """One dual pivot. Returns OPTIMAL/INFEASIBLE/None.

        The leaving row has the largest infeas_i^2 / w_i: dual steepest edge.
        """
        xB = self.x[self.basis]
        below = self.lb[self.basis] - xB
        infeas = np.maximum(below, xB - self.ub[self.basis])
        violated = infeas > FEASIBILITY_TOL
        if not violated.any():
            return OPTIMAL
        if self.bland:
            rows = np.flatnonzero(violated)
            p = int(rows[np.argmin(self.basis[rows])])
        else:
            p = int(np.argmax(np.where(violated, infeas * infeas / self.w, -1.0)))
        to_lower = below[p] > 0
        delta = -below[p] if to_lower else infeas[p]  # x_p minus its violated bound

        rho = self.factor.row(p)
        alpha = self.AT @ rho  # pivot row over every column
        # a candidate's reduced cost moves toward zero as the dual step grows:
        # its signed pivot entry is negative when x_p goes to its lower bound
        # and positive when x_p goes to its upper one
        slope = self._signed(alpha)
        elig = slope < -PIVOT_TOL if to_lower else slope > PIVOT_TOL
        if self.any_free:
            elig |= (self.vstatus == _NB_FREE) & (np.abs(alpha) > PIVOT_TOL)
        cand = np.flatnonzero(elig)
        if not len(cand):
            return INFEASIBLE
        ratios = self.d[cand] / alpha[cand]
        if to_lower:
            ratios = -ratios
        if self.any_free:
            free = self.vstatus[cand] == _NB_FREE
            ratios = np.where(free, np.abs(ratios), np.maximum(ratios, 0.0))
        else:
            ratios = np.maximum(ratios, 0.0)
        ties = cand[ratios <= ratios.min() + RATIO_TIE]
        if self.bland or len(ties) == 1:
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

        u = self.factor.column(q)
        theta_d = self.d[q] / u[p]
        self.d -= theta_d * alpha
        self._last_step = theta_d
        self._pivot(p, q, u, rho, delta / u[p], to_lower)
        return None

    def _perturb_costs(self):
        """Move each open nonbasic's cost away from its bound's side by a small random amount.

        The reduced costs move by the same amounts, so the basis stays dual
        feasible and ties in the dual ratio test break. The generator's seed
        is fixed, so pivot paths stay deterministic.
        """
        rng = np.random.default_rng(0)
        size = PERTURBATION * (1.0 + np.abs(self.c)) * (1.0 + rng.random(len(self.c)))
        delta = self._signed(size)
        self.c = self.c + delta
        self.d += delta

    def run_dual(self, cap):
        """Dual simplex from a dual feasible basis to a primal feasible one.

        Returns 'stalled' once the pivot count reaches cap. Optimality and
        infeasibility are only declared on a fresh factorization.
        """

        def step():
            if self.iterations >= cap:
                return "stalled"
            outcome = self._dual_step()
            if outcome is not None and self._since_refactor:
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


def _finish(lp: ArrayLP, core: _Core) -> Solution:
    """The solution at the core's optimum: columns at x, row duals y, on a fresh factor."""
    if core._since_refactor:
        core.refactor()
    primal = core.x[: core.n_struct].copy()
    return Solution(
        status=OPTIMAL,
        objective=float(lp.cost @ primal),
        primal=primal,
        duals=core.y,
        reduced_costs=lp.cost - (lp.colsT @ core.y)[: core.n_struct],
        iterations=core.iterations,
        basis=core.final_basis(),
    )


def _solve_from(
    lp: ArrayLP, start: Basis, spent: int, last: bool
) -> tuple[Solution | Basis | None, int]:
    """Dual simplex from start, and the pivots spent; a Solution when it ends.

    The pivot count and its cap start from spent. Only a start that is not
    `last` falls back: with None when it is not dual feasible or meets a
    singular factorization, with the basis it reached when it has not
    ended after m pivots.
    """
    core = _Core(lp)
    core.iterations = spent
    try:
        if not core.start(start, lp.c, last):
            return None, core.iterations
        outcome = core.run_dual(np.inf if last else spent + core.m)
        if outcome == "stalled":
            return core.final_basis(), core.iterations
        if outcome == OPTIMAL:
            outcome = core.run_phase(lp.c)
        if outcome == OPTIMAL:
            return _finish(lp, core), core.iterations
    except np.linalg.LinAlgError:
        if not last:
            return None, core.iterations
        outcome = NUMERICAL_ERROR
    return _no_solution(lp, outcome, core.iterations), core.iterations


def check_rows(name: str, rows: int):
    """ModelError when a model of this many rows exceeds MAX_ROWS, as solve refuses it."""
    if rows > MAX_ROWS:
        raise ModelError(f"{name}: {rows} rows exceed the row limit of {MAX_ROWS}")


def solve(model: LinearModel | ArrayLP, _none=None, /) -> Solution:
    """Solve the LP relaxation of a model; statuses per module docstring.

    The dual simplex starts from the ArrayLP's stored basis, if it has one,
    then from the slack basis, then from the last start, which always ends
    the solve. A stored start that stalls goes straight to the last start,
    from the basis it stalled at. Each start that falls back hands its
    pivot count to the next, so the reported iterations and MAX_ITERATIONS
    cover them all. Callers written for the removed options argument may
    still pass None second (benchmark/tracing.py does); anything else is an
    error.
    """
    if _none is not None:
        raise TypeError("solve() takes no options")
    lp = model if isinstance(model, ArrayLP) else presolve(model)
    check_rows(lp.name, len(lp.b))
    sol, spent = (None, 0) if lp.basis is None else _solve_from(lp, lp.basis, 0, False)
    if sol is None:
        sol, spent = _solve_from(lp, _slack_basis(lp), spent, False)
        if isinstance(sol, Basis):  # a stalled slack start starts over
            sol = None
    if not isinstance(sol, Solution):
        sol, spent = _solve_from(lp, sol or _slack_basis(lp), spent, True)
    return sol


def solve_in_blocks(model: LinearModel, blocks) -> list[Solution]:
    """Solve model's LP as it grows by row blocks; one Solution per block.

    blocks are (start, stop) ranges of model rows. The ArrayLP holds all of
    the model's columns and takes the blocks' rows in the order given; after
    each block it is solved, warm from the last block's optimal basis, whose
    new slacks are basic, so it stays dual feasible (cold after a block that
    did not end Optimal). A Solution's duals run
    over the rows taken so far, in block order. The rows of all the blocks
    are checked against MAX_ROWS before the first solve.
    """
    check_rows(model.name, sum(stop - start for start, stop in blocks))
    lp = _columns(model)
    sols = []
    for start, stop in blocks:
        lp.add_rows(model.senses[start:stop], model.rhs[start:stop], model.matrix[start:stop])
        sols.append(solve(lp))
        lp.basis = sols[-1].basis
    return sols


def dual_bound(lp: ArrayLP, duals) -> tuple[float, np.ndarray]:
    """Weak-duality lower bound on the optimum of lp, valid for any row duals.

    duals has one entry per model row. Each inequality row's dual is first
    moved to its sign (<= 0 on '<=' rows, >= 0 on '>=' rows); with r = c - A'y
    the bound is b'y + sum_j min(r_j l_j, r_j u_j), which is -inf when a
    reduced cost points at an infinite bound. Returns the bound and the
    signed duals.
    """
    n = len(lp.cost)
    slack_lb, slack_ub = lp.lb[n:], lp.ub[n:]
    y = np.asarray(duals, dtype=float)
    y = np.where(slack_ub == INF, np.minimum(y, 0.0), y)
    y = np.where(slack_lb == -INF, np.maximum(y, 0.0), y)
    r = lp.cost - (lp.colsT @ y)[:n]
    at = np.where(r > 0, lp.lb[:n], np.where(r < 0, lp.ub[:n], 0.0))
    return float(lp.b @ y + r @ at), y


def check_certificates(model: LinearModel, sol: Solution) -> dict:
    """Primal feasibility, strong duality and complementary slackness gauges.

    Returns a dict of violation magnitudes for an Optimal solution; tests
    assert them against the solve tolerances. Reads the model itself, not its
    presolved form, so that a presolve fault cannot hide.
    """
    x, y, d = sol.primal, sol.duals, sol.reduced_costs
    lower, upper = model.lower, model.upper
    senses, rhs, R = model.senses, model.rhs, model.matrix

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

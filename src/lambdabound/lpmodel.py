"""Solver-independent sparse linear models and text export.

All models minimize. Variables carry box bounds plus a continuous/binary
annotation; the embedded solver treats binaries as their [0, 1] relaxation,
while the LP and MPS writers emit them in the integrality sections so that
external MIP solvers see the annotated model.

A model is a set of read-only arrays: its columns (lower, upper, cost,
binary flag) and its rows (senses, rhs, and one CSR matrix over column ids
held as indptr, indices and data). add_variables and add_rows append a
block of entries and join each array with it once. Duplicate coefficients
of a row are merged additively in the order given, a merged zero stays an
explicit coefficient, and each row keeps its coefficients in ascending
variable-id order, which makes exports byte-deterministic. Names are kept
per block as a format and its arguments. The views matrix, variable_names,
row_names and rows (Row records, kept for the benchmark tracer) are built
afresh on each read.

The writers build each section from the arrays in bulk: every line is a row
of string pieces in one table (_lines), joined once, and each distinct
number is formatted once per call (_nums), told apart by its bits because
0.0 and -0.0 compare equal but print as "0" and "-0".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

INF = float("inf")

CONTINUOUS = "continuous"
BINARY = "binary"

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="


class ModelError(ValueError):
    """Malformed model construction (bad bounds, unknown ids, non-finite data)."""


@dataclass(frozen=True)
class Row:  # kept for benchmark/tracing.py, which counts nnz over model.rows
    id: int
    sense: str
    rhs: float
    coeffs: tuple[tuple[int, float], ...]
    name: str = ""


@dataclass
class Solution:
    """Result of one LP solve; arrays are indexed by variable/row id."""

    status: str
    objective: float
    primal: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0
    basis: object | None = None  # solver's final basis, for a warm re-solve


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


def _joined(*parts) -> np.ndarray:
    joined = np.concatenate(parts)
    joined.flags.writeable = False
    return joined


class LinearModel:
    """Minimization model that only grows, by appended column and row blocks."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.lower = self.upper = self.cost = self.rhs = self.data = _joined(np.zeros(0))
        self.binary = _joined(np.zeros(0, dtype=bool))
        self.senses = _joined(np.zeros(0, dtype="<U2"))
        self.indptr = _joined(np.zeros(1, dtype=np.int64))
        self.indices = _joined(np.zeros(0, dtype=np.int32))
        # (format, arguments per entry) of each block's names
        self._names: dict[str, list] = {"variables": [], "rows": []}

    num_variables = property(lambda self: len(self.lower))
    num_rows = property(lambda self: len(self.rhs))

    @property
    def matrix(self) -> sp.csr_matrix:
        """The row coefficients, one CSR row per model row over every column."""
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.num_rows, self.num_variables)
        )

    def _formatted(self, kind: str) -> list[str]:
        return [fmt.format(*args) for fmt, block in self._names[kind] for args in block.tolist()]

    variable_names = property(lambda self: self._formatted("variables"))
    row_names = property(lambda self: self._formatted("rows"))

    @property
    def rows(self) -> tuple[Row, ...]:  # kept for benchmark/tracing.py's nnz count
        ptr, cols, vals = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        return tuple(
            Row(i, sense, rhs, tuple(zip(cols[p:q], vals[p:q])), name)
            for i, (sense, rhs, p, q, name) in enumerate(
                zip(self.senses.tolist(), self.rhs.tolist(), ptr, ptr[1:], self.row_names)
            )
        )

    def _name_blocks(self, kind: str, ids: np.ndarray, names) -> list:
        """The (format, arguments per entry) blocks that name ids."""
        if names is None:
            return [("x{}" if kind == "variables" else "r{}", ids[:, None])]
        blocks = [(fmt, np.asarray(index)) for fmt, index in names if len(index)]
        # one row of format arguments per entry
        blocks = [(fmt, index.reshape(len(index), -1)) for fmt, index in blocks]
        if sum(len(index) for _, index in blocks) != len(ids):
            raise ModelError(f"names do not match the {len(ids)} new {kind}")
        return blocks

    def add_variables(
        self, lower, upper, obj, integrality: str = CONTINUOUS, names=None
    ) -> np.ndarray:
        """Append one column per entry of lower, upper and obj, broadcast together.

        names is a list of (format, index) pairs that name the columns in
        order: a pair names len(index) of them, the i-th format.format(*index[i]).
        None names column j x<j>. Returns the new ids.
        """
        lower, upper, obj = (
            np.array(a, dtype=float).ravel() for a in np.broadcast_arrays(lower, upper, obj)
        )
        inverted = lower > upper
        if inverted.any():
            i = _first(inverted)
            raise ModelError(f"inverted bounds: {lower[i]} > {upper[i]}")
        if np.isnan(lower).any() or np.isnan(upper).any() or not np.isfinite(obj).all():
            raise ModelError("non-finite variable data")
        if (lower == INF).any() or (upper == -INF).any():
            raise ModelError("lower bound +inf or upper bound -inf")
        if integrality not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown integrality {integrality!r}")
        if integrality == BINARY and ((lower < 0.0) | (upper > 1.0)).any():
            raise ModelError("binary variable bounds must lie within [0, 1]")
        n = len(lower)
        ids = self.num_variables + np.arange(n)
        if not n:
            return ids
        self._names["variables"] += self._name_blocks("variables", ids, names)
        self.lower = _joined(self.lower, lower)
        self.upper = _joined(self.upper, upper)
        self.cost = _joined(self.cost, obj)
        self.binary = _joined(self.binary, np.full(n, integrality == BINARY))
        return ids

    def add_rows(self, sense, rhs, coeffs, names=None) -> np.ndarray:
        """Append one row per entry of rhs; sense is one sense or one per row.

        coeffs is a triple (row, column, value) of entries, with row counted
        from 0 within the block and value broadcast against column. names is
        as in add_variables, with default r<id>. Returns the new ids.
        """
        rhs = np.array(rhs, dtype=float).ravel()
        k = len(rhs)
        senses = np.broadcast_to(np.asarray(sense), (k,))
        unknown = ~((senses == SENSE_LE) | (senses == SENSE_EQ) | (senses == SENSE_GE))
        if unknown.any():
            raise ModelError(f"unknown row sense {senses.tolist()[_first(unknown)]!r}")
        if not np.isfinite(rhs).all():
            raise ModelError("row rhs must be finite")
        row, col, val = coeffs
        row = np.asarray(row, dtype=np.int64).ravel()
        col = np.asarray(col, dtype=np.int64).ravel()
        # adding to 0.0 first, as a sum from zero does, turns -0.0 into 0.0
        val = np.broadcast_to(np.asarray(val, dtype=float), col.shape) + 0.0
        unknown = (col < 0) | (col >= self.num_variables)
        bad = unknown | ~np.isfinite(val)
        if bad.any():
            i = _first(bad)
            if unknown[i]:
                raise ModelError(f"unknown variable id {col[i]}")
            raise ModelError("row coefficient must be finite")
        if ((row < 0) | (row >= k)).any():
            raise ModelError("row entry outside the block")
        # by row, then column (both checked in range above); the sort is
        # stable, so duplicates keep their order
        order = np.argsort(row * self.num_variables + col, kind="stable")
        row, col, val = row[order], col[order], val[order]
        first = np.ones(len(row), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        if not first.all():
            merged = val[first]
            # ufunc.at adds one entry at a time, in order
            np.add.at(merged, np.cumsum(first)[~first] - 1, val[~first])
            row, col, val = row[first], col[first], merged
        ids = self.num_rows + np.arange(k)
        if not k:
            return ids
        self._names["rows"] += self._name_blocks("rows", ids, names)
        self.senses = _joined(self.senses, senses.astype("<U2"))
        self.rhs = _joined(self.rhs, rhs)
        ends = len(self.data) + np.cumsum(np.bincount(row, minlength=k))
        self.indptr = _joined(self.indptr, ends)
        self.indices = _joined(self.indices, col.astype(np.int32))
        self.data = _joined(self.data, val)
        return ids


def _num(x: float) -> str:
    # 12 significant digits, no exponent surprises for the integers we emit
    return f"{x:.12g}"


def _nums(values, end: str = "") -> np.ndarray:
    """_num of each value, then end, as an object array; each distinct value
    is formatted once.

    Values are told apart by their bits, so 0.0 ("0") and -0.0 ("-0"), which
    compare and hash equal, keep their own text.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = [_num(x) + end for x in keys.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse]


def _lines(indptr, heads, items, tails) -> str:
    """For each group i: heads[i], items[indptr[i]:indptr[i + 1]], then tails[i], joined.

    heads, items and tails are each a list of columns of pieces, a column
    being one string or one string per line; missing pieces are empty.
    """
    m, n, size = len(indptr) - 1, int(indptr[-1]), np.diff(indptr)
    head = indptr[:-1] + 2 * np.arange(m)  # after the head and tail lines of the groups before
    places = (head, np.arange(n) + np.repeat(head - indptr[:-1] + 1, size), head + size + 1)
    table = np.empty((n + 2 * m, max(map(len, (heads, items, tails)))), dtype=object)
    for rows, columns in zip(places, (heads, items, tails)):
        for j, column in enumerate(columns):
            table[rows, j] = column
        table[rows, len(columns) :] = ""
    return "".join(table.ravel().tolist())


def _text(*columns) -> str:
    """One line per entry, joined; a column is one string or one string per line."""
    n = max(len(column) for column in columns if not isinstance(column, str))
    return _lines(np.array([0, n]), [], columns, [])


def _terms(coef, names, first) -> list:
    """Signed terms of LP polynomials as columns of pieces; first marks a polynomial's first."""
    signs = np.array([" + ", " - ", " ", " -"], dtype=object)[(coef < 0) + 2 * first]
    return [signs, _nums(np.abs(coef)), names]


def export_lp(model: LinearModel) -> str:
    """CPLEX-style LP text; deterministic bytes for a given model."""
    names = np.array(model.variable_names, dtype=object)
    obj, ptr = np.flatnonzero(model.cost), model.indptr
    first = np.isin(np.arange(len(model.data)), ptr[:-1])
    # an empty row anchors on the first variable with coefficient zero
    anchor = np.where(ptr[:-1] == ptr[1:], " 0" + (f" {names[0]}" if len(names) else ""), "")
    rows = _lines(ptr, [" ", model.row_names, ":", anchor],
                  _terms(model.data, (" " + names)[model.indices], first),
                  [" ", model.senses, " ", _nums(model.rhs, "\n")])
    lower, upper, lo, up = model.lower, model.upper, _nums(model.lower), _nums(model.upper)
    bounds = np.where(
        lower == upper,
        " " + names + " = " + lo,
        np.where(
            upper == INF,
            np.where(lower == -INF, " " + names + " free", " " + names + " >= " + lo),
            np.where(lower == -INF, " -infinity", " " + lo) + " <= " + names + " <= " + up,
        ),
    )
    binaries = names[model.binary].tolist()
    return "".join([
        f"\\ {model.name}\nMinimize\n obj:",
        _text(*_terms(model.cost[obj], " " + names[obj], np.arange(len(obj)) == 0)),
        "\nSubject To\n",
        rows,
        "Bounds\n",
        _text(bounds, "\n"),
        "Binaries\n " + " ".join(binaries) + "\n" if binaries else "",
        "End\n",
    ])


def export_mps(model: LinearModel) -> str:
    """Free-format MPS text with INTORG markers for binary variables."""
    names = np.array(model.variable_names, dtype=object)
    rnames = np.array(model.row_names, dtype=object)
    senses = model.senses
    tags = np.where(senses == SENSE_LE, " L  ", np.where(senses == SENSE_EQ, " E  ", " G  "))
    # ahead of column j its marker line, if it opens or closes a run of binary
    # columns, and its cost line; a last, empty column closes a run still open
    binary = np.append(model.binary, False)
    switch = np.flatnonzero(binary != np.append(False, binary[:-1]))
    marker, cost = np.full((2, len(binary)), "", dtype=object)
    marker[switch] = [f"    MARKER{i}  'MARKER'  '{'INTORG' if binary[j] else 'INTEND'}'\n"
                      for i, j in enumerate(switch.tolist())]
    obj = np.flatnonzero(model.cost)
    cost[obj] = "    " + names[obj] + "  COST  " + _nums(model.cost[obj], "\n")
    # column-major entries, each column's in row order
    C = model.matrix.tocsc()
    col = np.repeat(np.arange(len(names)), np.diff(C.indptr))
    entries = [("    " + names)[col], ("  " + rnames + "  ")[C.indices], _nums(C.data, "\n")]
    rhs = np.flatnonzero(model.rhs)
    lower, upper, lo, up = model.lower, model.upper, _nums(model.lower), _nums(model.upper)
    bounds = np.where(
        lower == upper,
        " FX BND  " + names + "  " + lo,
        np.where(lower == -INF, " MI BND  " + names, " LO BND  " + names + "  " + lo)
        + np.where(upper != INF, "\n UP BND  " + names + "  " + up, "\n PL BND  " + names),
    )
    return "".join([
        f"NAME          {model.name}\nROWS\n N  COST\n",
        _text(tags, rnames, "\n"),
        "COLUMNS\n",
        _lines(np.append(C.indptr, C.indptr[-1]), [marker, cost], entries, []),
        "RHS\n",
        _text("    RHS  ", rnames[rhs], "  ", _nums(model.rhs[rhs], "\n")),
        "BOUNDS\n",
        _text(bounds, "\n"),
        "ENDATA\n",
    ])

"""Solver-independent sparse linear models and text export.

All models minimize. Variables carry box bounds plus a continuous/binary
annotation; the embedded solver treats binaries as their [0, 1] relaxation,
while the LP and MPS writers emit them in the integrality sections so that
external MIP solvers see the annotated model.

A model keeps its columns (lower, upper, cost, binary flag) and its rows
(senses, rhs, one CSR matrix over column ids) as arrays, appended in blocks:
add_variables and add_rows append a block, add_variable and add_row a block
of one. Duplicate coefficients of a row are merged additively in the order
given, a merged zero stays an explicit coefficient, and each row keeps its
coefficients in ascending variable-id order, which makes exports
byte-deterministic. Names are kept per block as a format and its arguments
and are formatted only when read. `variables` and `rows` are read-only views
of Variable and Row records, built on first read from Python ints and floats.
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
_SENSES = (SENSE_LE, SENSE_EQ, SENSE_GE)


class ModelError(ValueError):
    """Malformed model construction (bad bounds, unknown ids, non-finite data)."""


@dataclass(frozen=True)
class Variable:
    id: int
    lower: float
    upper: float
    obj: float
    integrality: str = CONTINUOUS
    name: str = ""


@dataclass(frozen=True)
class Row:
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


def _named(name: str) -> list | None:
    """The names argument that gives one entry the name name, or its default."""
    if not name:
        return None
    return [(name.replace("{", "{{").replace("}", "}}"), [()])]


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


class LinearModel:
    """Minimization model that only grows, by appended column and row blocks."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.num_variables = 0
        self.num_rows = 0
        # per array, the blocks appended since it was last read
        self._parts = {
            "lower": [np.zeros(0)],
            "upper": [np.zeros(0)],
            "cost": [np.zeros(0)],
            "binary": [np.zeros(0, dtype=bool)],
            "senses": [np.zeros(0, dtype="<U2")],
            "rhs": [np.zeros(0)],
            "indptr": [np.zeros(1, dtype=np.int64)],
            "indices": [np.zeros(0, dtype=np.int32)],
            "data": [np.zeros(0)],
        }
        self._nnz = 0
        # (format, arguments per entry) of each block's names
        self._names: dict[str, list] = {"variables": [], "rows": []}
        self._views: dict = {}  # what reads built; every append clears it

    def _append(self, **parts):
        for key, part in parts.items():
            self._parts[key].append(part)
        self._views.clear()

    def _array(self, key: str) -> np.ndarray:
        parts = self._parts[key]
        if len(parts) > 1:
            joined = np.concatenate(parts)
            joined.flags.writeable = False
            parts[:] = [joined]
        return parts[0]

    # the column and row arrays, read-only
    lower = property(lambda self: self._array("lower"))
    upper = property(lambda self: self._array("upper"))
    cost = property(lambda self: self._array("cost"))
    binary = property(lambda self: self._array("binary"))
    senses = property(lambda self: self._array("senses"))
    rhs = property(lambda self: self._array("rhs"))

    @property
    def matrix(self) -> sp.csr_matrix:
        """The row coefficients, one CSR row per model row over every column."""
        if "matrix" not in self._views:
            self._views["matrix"] = sp.csr_matrix(
                (self._array("data"), self._array("indices"), self._array("indptr")),
                shape=(self.num_rows, self.num_variables),
            )
        return self._views["matrix"]

    def _formatted(self, kind: str) -> list[str]:
        key = kind + ".names"
        if key not in self._views:
            self._views[key] = [
                fmt.format(*args) for fmt, block in self._names[kind] for args in block.tolist()
            ]
        return self._views[key]

    variable_names = property(lambda self: self._formatted("variables"))
    row_names = property(lambda self: self._formatted("rows"))

    @property
    def variables(self) -> tuple[Variable, ...]:
        if "variables" not in self._views:
            kinds = np.where(self.binary, BINARY, CONTINUOUS).tolist()
            self._views["variables"] = tuple(
                map(
                    Variable,
                    range(self.num_variables),
                    self.lower.tolist(),
                    self.upper.tolist(),
                    self.cost.tolist(),
                    kinds,
                    self.variable_names,
                )
            )
        return self._views["variables"]

    @property
    def rows(self) -> tuple[Row, ...]:
        if "rows" not in self._views:
            R = self.matrix
            ptr, cols, vals = R.indptr.tolist(), R.indices.tolist(), R.data.tolist()
            self._views["rows"] = tuple(
                Row(i, sense, rhs, tuple(zip(cols[p:q], vals[p:q])), name)
                for i, (sense, rhs, p, q, name) in enumerate(
                    zip(self.senses.tolist(), self.rhs.tolist(), ptr, ptr[1:], self.row_names)
                )
            )
        return self._views["rows"]

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
        if integrality not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown integrality {integrality!r}")
        if integrality == BINARY and ((lower < 0.0) | (upper > 1.0)).any():
            raise ModelError("binary variable bounds must lie within [0, 1]")
        n = len(lower)
        ids = self.num_variables + np.arange(n)
        if not n:
            return ids
        blocks = self._name_blocks("variables", ids, names)
        self._append(
            lower=lower, upper=upper, cost=obj, binary=np.full(n, integrality == BINARY)
        )
        self._names["variables"] += blocks
        self.num_variables += n
        return ids

    def add_variable(
        self,
        lower: float = 0.0,
        upper: float = INF,
        obj: float = 0.0,
        integrality: str = CONTINUOUS,
        name: str = "",
    ) -> int:
        return int(self.add_variables(lower, upper, obj, integrality, _named(name))[0])

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
        # by row, then column; the sort is stable, so duplicates keep their order
        order = np.lexsort((col, row))
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
        blocks = self._name_blocks("rows", ids, names)
        self._append(
            senses=senses.astype("<U2"),
            rhs=rhs,
            indptr=self._nnz + np.cumsum(np.bincount(row, minlength=k)),
            indices=col.astype(np.int32),
            data=val,
        )
        self._names["rows"] += blocks
        self._nnz += len(col)
        self.num_rows += k
        return ids

    def add_row(self, sense: str, rhs: float, coeffs, name: str = "") -> int:
        coeffs = list(coeffs)
        cols = [vid for vid, _ in coeffs]
        vals = [coef for _, coef in coeffs]
        entries = (np.zeros(len(cols), dtype=int), cols, vals)
        return int(self.add_rows(sense, [rhs], entries, _named(name))[0])


def _num(x: float) -> str:
    # 12 significant digits, no exponent surprises for the integers we emit
    return f"{x:.12g}"


def export_lp(model: LinearModel) -> str:
    """CPLEX-style LP text; deterministic bytes for a given model."""
    names = model.variable_names
    out = [f"\\ {model.name}", "Minimize"]
    terms = [(c, name) for c, name in zip(model.cost.tolist(), names) if c != 0.0]
    out.append(" obj:" + _poly(terms))
    out.append("Subject To")
    R = model.matrix
    ptr, cols, vals = R.indptr.tolist(), R.indices.tolist(), R.data.tolist()
    for p, q, sense, rhs, rname in zip(
        ptr, ptr[1:], model.senses.tolist(), model.rhs.tolist(), model.row_names
    ):
        body = _poly([(c, names[j]) for j, c in zip(cols[p:q], vals[p:q])])
        if not body:
            # empty row: anchor on the first variable with coefficient zero
            body = f" 0 {names[0]}" if names else " 0"
        out.append(f" {rname}:{body} {sense} {_num(rhs)}")
    out.append("Bounds")
    for name, lower, upper in zip(names, model.lower.tolist(), model.upper.tolist()):
        if lower == upper:
            out.append(f" {name} = {_num(lower)}")
        elif lower == -INF and upper == INF:
            out.append(f" {name} free")
        elif upper == INF:
            out.append(f" {name} >= {_num(lower)}")
        elif lower == -INF:
            out.append(f" -infinity <= {name} <= {_num(upper)}")
        else:
            out.append(f" {_num(lower)} <= {name} <= {_num(upper)}")
    binaries = [name for name, b in zip(names, model.binary.tolist()) if b]
    if binaries:
        out.append("Binaries")
        out.append(" " + " ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"


def _poly(terms) -> str:
    parts = []
    for coef, name in terms:
        if not parts:
            sign = "-" if coef < 0 else ""
        else:
            sign = "- " if coef < 0 else "+ "
        parts.append(f"{sign}{_num(abs(coef))} {name}")
    return (" " + " ".join(parts)) if parts else ""


def export_mps(model: LinearModel) -> str:
    """Free-format MPS text with INTORG markers for binary variables."""
    names, rnames = model.variable_names, model.row_names
    out = [f"NAME          {model.name}", "ROWS", " N  COST"]
    sense_tag = {SENSE_LE: "L", SENSE_EQ: "E", SENSE_GE: "G"}
    for sense, rname in zip(model.senses.tolist(), rnames):
        out.append(f" {sense_tag[sense]}  {rname}")
    # column-major entries, each column's in row order
    C = model.matrix.tocsc()
    ptr, rows, vals = C.indptr.tolist(), C.indices.tolist(), C.data.tolist()
    out.append("COLUMNS")
    marker = 0
    in_int = False
    for name, obj, want_int, p, q in zip(
        names, model.cost.tolist(), model.binary.tolist(), ptr, ptr[1:]
    ):
        if want_int and not in_int:
            out.append(f"    MARKER{marker}  'MARKER'  'INTORG'")
            marker += 1
            in_int = True
        elif not want_int and in_int:
            out.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
            marker += 1
            in_int = False
        if obj != 0.0:
            out.append(f"    {name}  COST  {_num(obj)}")
        for i, coef in zip(rows[p:q], vals[p:q]):
            out.append(f"    {name}  {rnames[i]}  {_num(coef)}")
    if in_int:
        out.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
    out.append("RHS")
    for rhs, rname in zip(model.rhs.tolist(), rnames):
        if rhs != 0.0:
            out.append(f"    RHS  {rname}  {_num(rhs)}")
    out.append("BOUNDS")
    for name, lower, upper in zip(names, model.lower.tolist(), model.upper.tolist()):
        if lower == upper:
            out.append(f" FX BND  {name}  {_num(lower)}")
            continue
        if lower == -INF:
            out.append(f" MI BND  {name}")
        else:
            out.append(f" LO BND  {name}  {_num(lower)}")
        if upper != INF:
            out.append(f" UP BND  {name}  {_num(upper)}")
        else:
            out.append(f" PL BND  {name}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"

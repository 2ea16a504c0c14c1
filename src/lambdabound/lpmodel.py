"""Solver-independent sparse linear models and text export.

All models minimize. Variables carry box bounds plus a continuous/binary
annotation; the embedded solver treats binaries as their [0, 1] relaxation,
while the LP and MPS writers emit them in the integrality sections so that
external MIP solvers see the annotated model. Duplicate coefficients passed
to add_row are merged additively, and rows store coefficients in ascending
variable-id order, which makes exports byte-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = float("inf")

CONTINUOUS = "continuous"
BINARY = "binary"

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="
_SENSES = (SENSE_LE, SENSE_EQ, SENSE_GE)


class ModelError(ValueError):
    """Malformed model construction (bad bounds, unknown ids, non-finite data)."""


@dataclass
class Variable:
    id: int
    lower: float
    upper: float
    obj: float
    integrality: str = CONTINUOUS
    name: str = ""


@dataclass
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


class LinearModel:
    """Mutable minimization model; freeze by simply not mutating further."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def add_variable(
        self,
        lower: float = 0.0,
        upper: float = INF,
        obj: float = 0.0,
        integrality: str = CONTINUOUS,
        name: str = "",
    ) -> int:
        if lower > upper:
            raise ModelError(f"inverted bounds: {lower} > {upper}")
        if math.isnan(lower) or math.isnan(upper) or not math.isfinite(obj):
            raise ModelError("non-finite variable data")
        if integrality not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown integrality {integrality!r}")
        if integrality == BINARY and not (0.0 <= lower and upper <= 1.0):
            raise ModelError("binary variable bounds must lie within [0, 1]")
        vid = len(self.variables)
        self.variables.append(
            Variable(
                id=vid,
                lower=float(lower),
                upper=float(upper),
                obj=float(obj),
                integrality=integrality,
                name=name or f"x{vid}",
            )
        )
        return vid

    def add_row(self, sense: str, rhs: float, coeffs, name: str = "") -> int:
        if sense not in _SENSES:
            raise ModelError(f"unknown row sense {sense!r}")
        if not math.isfinite(rhs):
            raise ModelError("row rhs must be finite")
        merged: dict[int, float] = {}
        for vid, coef in coeffs:
            if not (0 <= vid < len(self.variables)):
                raise ModelError(f"unknown variable id {vid}")
            if not math.isfinite(coef):
                raise ModelError("row coefficient must be finite")
            merged[vid] = merged.get(vid, 0.0) + float(coef)
        rid = len(self.rows)
        self.rows.append(
            Row(
                id=rid,
                sense=sense,
                rhs=float(rhs),
                coeffs=tuple(sorted(merged.items())),
                name=name or f"r{rid}",
            )
        )
        return rid


def _num(x: float) -> str:
    # 12 significant digits, no exponent surprises for the integers we emit
    return f"{x:.12g}"


def export_lp(model: LinearModel) -> str:
    """CPLEX-style LP text; deterministic bytes for a given model."""
    out = [f"\\ {model.name}", "Minimize"]
    terms = [(v.obj, v.name) for v in model.variables if v.obj != 0.0]
    out.append(" obj:" + _poly(terms))
    out.append("Subject To")
    for row in model.rows:
        body = _poly([(c, model.variables[vid].name) for vid, c in row.coeffs])
        if not body:
            # empty row: anchor on the first variable with coefficient zero
            body = f" 0 {model.variables[0].name}" if model.variables else " 0"
        out.append(f" {row.name}:{body} {row.sense} {_num(row.rhs)}")
    out.append("Bounds")
    for v in model.variables:
        if v.lower == v.upper:
            out.append(f" {v.name} = {_num(v.lower)}")
        elif v.lower == -INF and v.upper == INF:
            out.append(f" {v.name} free")
        elif v.upper == INF:
            out.append(f" {v.name} >= {_num(v.lower)}")
        elif v.lower == -INF:
            out.append(f" -infinity <= {v.name} <= {_num(v.upper)}")
        else:
            out.append(f" {_num(v.lower)} <= {v.name} <= {_num(v.upper)}")
    binaries = [v.name for v in model.variables if v.integrality == BINARY]
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
    out = [f"NAME          {model.name}", "ROWS", " N  COST"]
    sense_tag = {SENSE_LE: "L", SENSE_EQ: "E", SENSE_GE: "G"}
    for row in model.rows:
        out.append(f" {sense_tag[row.sense]}  {row.name}")
    # column-major entries
    by_col: list[list[tuple[str, float]]] = [[] for _ in model.variables]
    for v in model.variables:
        if v.obj != 0.0:
            by_col[v.id].append(("COST", v.obj))
    for row in model.rows:
        for vid, coef in row.coeffs:
            by_col[vid].append((row.name, coef))
    out.append("COLUMNS")
    marker = 0
    in_int = False
    for v in model.variables:
        want_int = v.integrality == BINARY
        if want_int and not in_int:
            out.append(f"    MARKER{marker}  'MARKER'  'INTORG'")
            marker += 1
            in_int = True
        elif not want_int and in_int:
            out.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
            marker += 1
            in_int = False
        for rname, coef in by_col[v.id]:
            out.append(f"    {v.name}  {rname}  {_num(coef)}")
    if in_int:
        out.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
    out.append("RHS")
    for row in model.rows:
        if row.rhs != 0.0:
            out.append(f"    RHS  {row.name}  {_num(row.rhs)}")
    out.append("BOUNDS")
    for v in model.variables:
        if v.lower == v.upper:
            out.append(f" FX BND  {v.name}  {_num(v.lower)}")
            continue
        if v.lower == -INF:
            out.append(f" MI BND  {v.name}")
        else:
            out.append(f" LO BND  {v.name}  {_num(v.lower)}")
        if v.upper != INF:
            out.append(f" UP BND  {v.name}  {_num(v.upper)}")
        else:
            out.append(f" PL BND  {v.name}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"

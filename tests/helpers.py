"""Shared test utilities: scipy-based reference solves and format parsers.

The parsers here re-read our LP/MPS text independently of the writer and feed
scipy's HiGHS solver, giving an external cross-check of both the exports and
the embedded simplex.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import lambdabound
from lambdabound import benders, simplex
from lambdabound.formulations import build_subproblem
from lambdabound.lpmodel import BINARY, SENSE_GE, SENSE_LE, LinearModel
from lambdabound.simplex import check_certificates

INF = float("inf")


def run_python(args, blas_threads: int) -> subprocess.CompletedProcess:
    """Run `python *args` on this package with OPENBLAS_NUM_THREADS set.

    The thread count only takes effect in a fresh interpreter, before numpy
    loads OpenBLAS.
    """
    src = os.path.dirname(os.path.dirname(lambdabound.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def row_block(rows, num_columns: int):
    """Rows `(sense, rhs, coeffs)` over num_columns columns, in the form that
    ArrayLP.add_rows takes: senses, rhs and a CSR block, merged by add_row."""
    model = LinearModel()
    model.add_variables(0.0, np.zeros(num_columns), 0.0)
    for row in rows:
        model.add_row(*row)
    return model.senses, model.rhs, model.matrix


def solve_checked(model):
    """Solve with the embedded simplex and assert its optimality certificates."""
    sol = simplex.solve(model)
    if sol.status == simplex.OPTIMAL:
        cert = check_certificates(model, sol)
        scale = 1.0 + abs(sol.objective)
        assert cert["bound_violation"] <= 1e-6, cert
        assert cert["row_violation"] <= 1e-6, cert
        assert cert["duality_gap"] <= 1e-6 * scale, cert
        assert cert["cs_variable"] <= 1e-6, cert
        assert cert["cs_row"] <= 1e-6 * scale, cert
    return sol


def spy_filtered_violations(monkeypatch) -> list:
    """Cold-solve every failure that benders.pi_prime_filter skips.

    Wraps whatever filter is in place, a test's replacement included. Each
    call (one per decomposition round) appends to the returned list the
    largest optimum of `build_subproblem(instance, tau, wbar)` over the
    skipped failures tau at the master's wbar, 0.0 when it skips none.
    """
    original = benders.pi_prime_filter
    worst = []

    def spy(instance, master):
        skipped = original(instance, master)
        optima = [0.0]
        for tau in sorted(skipped):
            sol = solve_checked(build_subproblem(instance, tau, master.wbar)[0])
            assert sol.status == simplex.OPTIMAL, (instance.name, tau, sol.status)
            optima.append(sol.objective)
        worst.append(max(optima))
        return skipped

    monkeypatch.setattr(benders, "pi_prime_filter", spy)
    return worst


class LinprogData:
    def __init__(self):
        self.var_index: dict[str, int] = {}
        self.obj: dict[int, float] = {}
        self.lower: dict[int, float] = {}
        self.upper: dict[int, float] = {}
        self.rows: list[tuple[str, float, dict[int, float]]] = []

    def var(self, name: str) -> int:
        if name not in self.var_index:
            self.var_index[name] = len(self.var_index)
        return self.var_index[name]

    def solve(self):
        n = len(self.var_index)
        c = np.zeros(n)
        for j, v in self.obj.items():
            c[j] = v
        bounds = [
            (
                self.lower.get(j, 0.0),
                None if self.upper.get(j, INF) == INF else self.upper.get(j, INF),
            )
            for j in range(n)
        ]
        ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
        for sense, rhs, coeffs in self.rows:
            if sense == "<=":
                ub_rows.append(coeffs)
                ub_rhs.append(rhs)
            elif sense == ">=":
                ub_rows.append({j: -co for j, co in coeffs.items()})
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(coeffs)
                eq_rhs.append(rhs)

        def mat(rows):
            if not rows:
                return None
            data, ri, ci = [], [], []
            for i, coeffs in enumerate(rows):
                for j, co in coeffs.items():
                    ri.append(i)
                    ci.append(j)
                    data.append(co)
            return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), n))

        res = linprog(
            c,
            A_ub=mat(ub_rows),
            b_ub=ub_rhs or None,
            A_eq=mat(eq_rows),
            b_eq=eq_rhs or None,
            bounds=bounds,
            method="highs",
        )
        return res


def linprog_solve(model):
    """Solve a LinearModel directly with scipy (reference path, no export)."""
    data = LinprogData()
    for v in model.variables:
        j = data.var(v.name)
        data.obj[j] = v.obj
        data.lower[j] = v.lower
        data.upper[j] = v.upper
    for r in model.rows:
        data.rows.append(
            (r.sense, r.rhs, {jj: co for jj, co in r.coeffs})
        )
    # coeffs above are keyed by model variable id == insertion order
    return data.solve()


def milp_solve(model):
    """Solve a LinearModel as a MIP with scipy's HiGHS, honouring BINARY marks.

    The embedded simplex only ever sees the [0, 1] relaxation of binaries, so
    this is the independent reference for the integer optimum of a model.
    """
    c = np.array([v.obj for v in model.variables])
    integrality = np.array([v.integrality == BINARY for v in model.variables], dtype=int)
    bounds = Bounds(
        [v.lower for v in model.variables], [v.upper for v in model.variables]
    )
    data, ri, ci = [], [], []
    lo, hi = [], []
    for i, r in enumerate(model.rows):
        for j, co in r.coeffs:
            ri.append(i)
            ci.append(j)
            data.append(co)
        lo.append(-INF if r.sense == SENSE_LE else r.rhs)
        hi.append(INF if r.sense == SENSE_GE else r.rhs)
    constraints = []
    if model.rows:
        A = sp.csr_matrix((data, (ri, ci)), shape=(model.num_rows, model.num_variables))
        constraints.append(LinearConstraint(A, lo, hi))
    return milp(c, integrality=integrality, bounds=bounds, constraints=constraints)


_TERM = re.compile(r"([+-])?\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s+(\S+)")


def _parse_terms(text: str, data: LinprogData) -> dict[int, float]:
    out: dict[int, float] = {}
    for sign, num, name in _TERM.findall(text):
        val = float(num) * (-1.0 if sign == "-" else 1.0)
        j = data.var(name)
        out[j] = out.get(j, 0.0) + val
    return out


def parse_lp(text: str) -> LinprogData:
    data = LinprogData()
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = low
            continue
        if section == "minimize":
            body = line.split(":", 1)[1]
            data.obj.update(_parse_terms(body, data))
        elif section == "subject to":
            body = line.split(":", 1)[1]
            m = re.search(r"(<=|>=|=)\s*([-\d.eE+]+)\s*$", body)
            sense, rhs = m.group(1), float(m.group(2))
            coeffs = _parse_terms(body[: m.start()], data)
            data.rows.append((sense, rhs, coeffs))
        elif section == "bounds":
            if line.endswith(" free"):
                j = data.var(line.rsplit(" ", 1)[0].strip())
                data.lower[j], data.upper[j] = -INF, INF
            elif "<=" in line:
                lo, name, hi = [p.strip() for p in line.split("<=")]
                j = data.var(name)
                data.lower[j] = -INF if lo == "-infinity" else float(lo)
                data.upper[j] = float(hi)
            elif ">=" in line:
                name, lo = [p.strip() for p in line.split(">=")]
                data.lower[data.var(name)] = float(lo)
            elif "=" in line:
                name, val = [p.strip() for p in line.split("=")]
                j = data.var(name)
                data.lower[j] = data.upper[j] = float(val)
        elif section == "binaries":
            for name in line.split():
                data.var(name)
    return data


def parse_mps(text: str) -> LinprogData:
    data = LinprogData()
    section = None
    senses: dict[str, str] = {}
    row_data: dict[str, dict[int, float]] = {}
    rhs: dict[str, float] = {}
    row_order: list[str] = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        head = raw.split()
        if raw[0] not in " \t":
            section = head[0]
            continue
        if section == "ROWS":
            tag, name = head
            if tag == "N":
                continue
            senses[name] = {"L": "<=", "E": "=", "G": ">="}[tag]
            row_data[name] = {}
            row_order.append(name)
        elif section == "COLUMNS":
            if "'MARKER'" in raw:
                continue
            name = head[0]
            j = data.var(name)
            for rname, val in zip(head[1::2], head[2::2]):
                if rname == "COST":
                    data.obj[j] = data.obj.get(j, 0.0) + float(val)
                else:
                    row_data[rname][j] = row_data[rname].get(j, 0.0) + float(val)
        elif section == "RHS":
            for rname, val in zip(head[1::2], head[2::2]):
                rhs[rname] = float(val)
        elif section == "BOUNDS":
            kind, _, name = head[0], head[1], head[2]
            j = data.var(name)
            if kind == "UP":
                data.upper[j] = float(head[3])
            elif kind == "LO":
                data.lower[j] = float(head[3])
            elif kind == "FX":
                data.lower[j] = data.upper[j] = float(head[3])
            elif kind == "MI":
                data.lower[j] = -INF
            elif kind == "PL":
                data.upper[j] = INF
    for rname in row_order:
        data.rows.append((senses[rname], rhs.get(rname, 0.0), row_data[rname]))
    return data

"""Reference results computed apart from the program under test.

Nothing here imports lambdabound. Instances are read from their JSON files
with the standard library, the flow relaxations are assembled from the
node-arc incidence matrix with scipy.sparse, and exported LP/MPS text is
parsed by readers written for this benchmark. Every model is solved by
scipy's HiGHS (linprog for LPs, milp for integer models).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

INF = float("inf")
_HIGHS_LP = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}


@dataclass(frozen=True)
class Net:
    """An instance file as plain data: dense node indices, edge list, demands."""

    name: str
    num_nodes: int
    edges: tuple  # (u, v) per edge id
    requests: tuple  # (s, t) per request
    failures: tuple
    num_wavelengths: int


def read_net(path: str) -> Net:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    index = {label: i for i, label in enumerate(doc["nodes"])}
    edges = [None] * len(doc["edges"])
    for rec in doc["edges"]:
        edges[rec["id"]] = (index[rec["u"]], index[rec["v"]])
    failures = doc.get("failures", list(range(len(edges))))
    return Net(
        name=doc["name"],
        num_nodes=len(index),
        edges=tuple(edges),
        requests=tuple((index[r["s"]], index[r["t"]]) for r in doc["requests"]),
        failures=tuple(sorted(failures)),
        num_wavelengths=doc["num_wavelengths"],
    )


def flow_bound(net: Net, scenarios) -> float:
    """Optimum of the origin-aggregated flow relaxation over edge capacities.

    One flow block per (scenario, origin with demand); a scenario is a failed
    edge id, or None for the no-failure model. Arc 2e runs u->v and arc 2e+1
    runs v->u. With scenarios=[None] this is the working-only bound lp-rwap;
    with the failure set it is the aggregated per-failure bound lp-r3.
    """
    V, E = net.num_nodes, len(net.edges)
    A = 2 * E
    tails = np.array([t for u, v in net.edges for t in (u, v)], dtype=int)
    heads = np.array([h for u, v in net.edges for h in (v, u)], dtype=int)
    cols = np.arange(A)
    # node-arc incidence: +1 where an arc enters a node, -1 where it leaves
    N = sp.csr_matrix(
        (np.r_[np.ones(A), -np.ones(A)], (np.r_[heads, tails], np.r_[cols, cols])),
        shape=(V, A),
    )
    arc_edge = sp.csr_matrix((np.ones(A), (cols // 2, cols)), shape=(E, A))

    origins = sorted({s for s, _ in net.requests})
    S, P = len(origins), len(scenarios)
    supply = np.zeros((S, V))
    for s, t in net.requests:
        i = origins.index(s)
        supply[i, t] += 1.0
        supply[i, s] -= 1.0

    flow_eq = sp.kron(sp.identity(P * S), N)
    a_eq = sp.hstack([sp.csr_matrix((P * S * V, E)), flow_eq])
    b_eq = np.tile(supply.ravel(), P)
    capacity = sp.kron(sp.identity(P), sp.kron(np.ones((1, S)), arc_edge))
    a_ub = sp.hstack([-sp.kron(np.ones((P, 1)), sp.identity(E)), capacity])
    b_ub = np.zeros(P * E)

    upper = np.full(E + P * S * A, INF)
    upper[:E] = net.num_wavelengths
    for p, failed in enumerate(scenarios):
        if failed is None:
            continue
        for i in range(S):
            base = E + (p * S + i) * A
            upper[base + 2 * failed] = upper[base + 2 * failed + 1] = 0.0
    cost = np.r_[np.ones(E), np.zeros(P * S * A)]
    res = linprog(
        cost,
        A_ub=a_ub.tocsr(),
        b_ub=b_ub,
        A_eq=a_eq.tocsr(),
        b_eq=b_eq,
        bounds=np.c_[np.zeros_like(upper), upper],
        method="highs",
        options=_HIGHS_LP,
    )
    if res.status != 0:
        raise RuntimeError(f"{net.name}: reference LP ended with status {res.status}")
    return float(res.fun)


def lp_rwap(net: Net) -> float:
    return flow_bound(net, [None])


def lp_r3(net: Net) -> float:
    return flow_bound(net, list(net.failures))


@dataclass
class TextModel:
    """A model read back from LP or MPS text; variables in order of first use."""

    index: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)
    lower: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)
    integer: set = field(default_factory=set)
    rows: list = field(default_factory=list)  # (sense, rhs, {var: coef})

    def var(self, name: str) -> int:
        return self.index.setdefault(name, len(self.index))

    def optimum(self, integral: bool) -> float:
        """HiGHS optimum, as a MIP when integral, else of the LP relaxation."""
        n = len(self.index)
        c = np.zeros(n)
        for j, v in self.cost.items():
            c[j] = v
        lo = np.array([self.lower.get(j, 0.0) for j in range(n)])
        hi = np.array([self.upper.get(j, INF) for j in range(n)])
        data, ri, ci, row_lo, row_hi = [], [], [], [], []
        for i, (sense, rhs, coeffs) in enumerate(self.rows):
            for j, v in coeffs.items():
                ri.append(i)
                ci.append(j)
                data.append(v)
            row_lo.append(-INF if sense == "<=" else rhs)
            row_hi.append(INF if sense == ">=" else rhs)
        A = sp.csr_matrix((data, (ri, ci)), shape=(len(self.rows), n))
        integrality = np.zeros(n)
        if integral:
            integrality[sorted(self.integer)] = 1
        res = milp(
            c,
            integrality=integrality,
            bounds=Bounds(lo, hi),
            constraints=[LinearConstraint(A, row_lo, row_hi)],
            options={"mip_rel_gap": 0.0},
        )
        if res.status != 0:
            raise RuntimeError(f"reference solve ended with status {res.status}")
        return float(res.fun)


def _terms(tokens, model: TextModel) -> dict:
    """Coefficient/name pairs as the LP writer spells them: '-1 x + 2 y - 3 z'."""
    out: dict = {}
    sign, i = 1.0, 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
            i += 1
            continue
        j = model.var(tokens[i + 1])
        out[j] = out.get(j, 0.0) + sign * float(tok)
        sign, i = 1.0, i + 2
    return out


def read_lp(text: str) -> TextModel:
    model = TextModel()
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line.lower() in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = line.lower()
            continue
        if section == "minimize":
            model.cost = _terms(line.split(":", 1)[1].split(), model)
        elif section == "subject to":
            tokens = line.split(":", 1)[1].split()
            sense, rhs = tokens[-2], float(tokens[-1])
            model.rows.append((sense, rhs, _terms(tokens[:-2], model)))
        elif section == "bounds":
            tokens = line.split()
            if tokens[-1] == "free":
                j = model.var(tokens[0])
                model.lower[j], model.upper[j] = -INF, INF
            elif len(tokens) == 5:  # lo <= name <= hi
                j = model.var(tokens[2])
                model.lower[j] = -INF if tokens[0] == "-infinity" else float(tokens[0])
                model.upper[j] = float(tokens[4])
            else:  # name >= lo  |  name = value
                j = model.var(tokens[0])
                model.lower[j] = float(tokens[2])
                if tokens[1] == "=":
                    model.upper[j] = float(tokens[2])
        elif section == "binaries":
            for name in line.split():
                j = model.var(name)
                model.integer.add(j)
                model.lower[j] = max(model.lower.get(j, 0.0), 0.0)
                model.upper[j] = min(model.upper.get(j, INF), 1.0)
    return model


def read_mps(text: str) -> TextModel:
    model = TextModel()
    senses = {"L": "<=", "E": "=", "G": ">="}
    row_sense: dict = {}
    row_coeffs: dict = {}
    rhs: dict = {}
    objective = None
    section = None
    in_int = False
    for raw in text.splitlines():
        if not raw.strip():
            continue
        tokens = raw.split()
        if not raw[0].isspace():
            section = tokens[0]
            continue
        if section == "ROWS":
            if tokens[0] == "N":
                objective = tokens[1]
            else:
                row_sense[tokens[1]] = senses[tokens[0]]
                row_coeffs[tokens[1]] = {}
        elif section == "COLUMNS":
            if len(tokens) == 3 and tokens[1] == "'MARKER'":
                in_int = tokens[2] == "'INTORG'"
                continue
            j = model.var(tokens[0])
            if in_int:
                model.integer.add(j)
            for rname, val in zip(tokens[1::2], tokens[2::2]):
                if rname == objective:
                    model.cost[j] = model.cost.get(j, 0.0) + float(val)
                else:
                    row_coeffs[rname][j] = row_coeffs[rname].get(j, 0.0) + float(val)
        elif section == "RHS":
            for rname, val in zip(tokens[1::2], tokens[2::2]):
                rhs[rname] = float(val)
        elif section == "BOUNDS":
            kind, j = tokens[0], model.var(tokens[2])
            if kind in ("LO", "FX"):
                model.lower[j] = float(tokens[3])
            if kind in ("UP", "FX"):
                model.upper[j] = float(tokens[3])
            if kind == "MI":
                model.lower[j] = -INF
            if kind == "PL":
                model.upper[j] = INF
    for rname, sense in row_sense.items():
        model.rows.append((sense, rhs.get(rname, 0.0), row_coeffs[rname]))
    return model


def solution_pairs(path: str) -> int:
    """Distinct (wavelength, edge) pairs used anywhere in a solution file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assignments = list(doc["working"])
    for block in doc["backups"]:
        assignments.extend(block["assignments"])
    return len({(a["wavelength"], e) for a in assignments for e in a["path"]})

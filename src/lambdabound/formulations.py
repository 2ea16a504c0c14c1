"""Model builders for working/backup wavelength assignment and its relaxations.

Each builder is a pure function from an instance to a LinearModel plus a
VarMap that hands out every block of the built model as an array of ids,
indexed like its symbol. Variable and row orderings are fixed (lexicographic
in the index tuples) so that repeated builds are identical and exports are
byte-stable.

_columns creates one variable block and returns its ids. Every model is made
of flow blocks, one per scenario (a failed edge, or None for no failure), and
_flow_rows writes each over ids y[c, l, a] (commodity, layer, arc). A path
block (the working block, one backup block per failure) has the requests as
commodities and the wavelengths as layers. An aggregated block (one per
failure in lp-r3, one in lp-rwap-agg, the master and each subproblem) has the
origins as commodities and one layer: lp-r3 is the backup-only path model
with requests grouped by origin and wavelengths merged. _path_model
assembles the four path models from their working, backup and linking blocks.

Builders:
  build_ip_rwap_ppp  full working+backup model (relax flag gives its LP)
  build_ip_rwap      working-only model
  build_ip_r1        full model minus the working/backup linking rows
  build_ip_r2        backup-only model
  build_lp_r3        aggregated per-failure flow relaxation (continuous)
  build_lp_rwap_agg  single-scenario aggregation of the working-only LP
  build_master       decomposition master: build_lp_r3 over one failure tau0
  build_subproblem   per-failure capacity-violation LP for a candidate w-bar,
                     or with no failure the template shared by all failures
  cut_from_duals     weak-duality feasibility cut for the decomposition master
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import ArcTable, Instance, arcs, demand_matrix
from .lpmodel import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_LE,
    LinearModel,
    Solution,
)
from .simplex import ArrayLP, dual_bound


class FormulationError(ValueError):
    """Builder misuse, or a subproblem solution that yields no finite cut."""


@dataclass
class VarMap:
    """Model ids of each block, as arrays indexed like the block's symbol."""

    x: np.ndarray | None = None  # [d, k, a] -> var
    w: np.ndarray | None = None  # [k, e] -> var
    y: dict = field(default_factory=dict)  # tau -> [d, k, a] -> var
    wbar: np.ndarray | None = None  # [e] -> var
    y_agg: dict = field(default_factory=dict)  # tau -> [s, a] -> var; tau None = no failure
    rows_capacity: np.ndarray | None = None  # [e] -> row


@dataclass(frozen=True)
class Cut:
    """Feasibility cut over the edge capacity variables: constant + theta.wbar <= 0."""

    failure: int
    constant: float
    wbar_coeffs: tuple[tuple[int, float], ...]

    def evaluate(self, wbar) -> float:
        return self.constant + sum(c * wbar[e] for e, c in self.wbar_coeffs)


def _columns(model, shape, upper, cost, name, integrality=CONTINUOUS):
    """One variable per index of shape, in lexicographic order; returns their ids.

    Each lies in [0, upper], where upper broadcasts against shape, and is
    named by name.format(*index).
    """
    first = model.num_variables
    uppers = np.broadcast_to(upper, shape).ravel().tolist()
    for index, ub in zip(itertools.product(*map(range, shape)), uppers):
        model.add_variable(0.0, ub, cost, integrality, name=name.format(*index))
    return np.arange(first, model.num_variables).reshape(shape)


def _flow_rows(
    model, table: ArcTable, y, sources, supply, balance, cap_cols, cap_rhs, tau, names
):
    """Source, null, balance, capacity and exclusion rows of one flow block.

    y holds the block's ids by (commodity c, layer l, arc a). Commodity c
    sends supply[c] out of node sources[c] over all its layers and takes none
    back there; in each layer node v keeps balance[c, v] of it, with no row
    where that is nan. The flow of layer l over edge e less column
    cap_cols[l, e] is at most cap_rhs[l, e], and under failure tau (None = no
    failure) no flow uses edge tau. names holds the five row name formats,
    given (c), (c), (c, l, v), (l, e) and (c, l). Returns the capacity row
    ids by (l, e).
    """
    src, null, bal, cap, excl = names
    # lists of Python numbers, so that every Row holds ints and floats
    y, supply, balance, cap_cols, cap_rhs = (
        a.tolist() for a in (y, supply, balance, cap_cols, cap_rhs)
    )
    for c, s in enumerate(sources):
        coeffs = [(yl[a], 1.0) for yl in y[c] for a in table.out_arcs[s]]
        model.add_row(SENSE_EQ, supply[c], coeffs, name=src.format(c))
    for c, s in enumerate(sources):
        coeffs = [(yl[a], 1.0) for yl in y[c] for a in table.in_arcs[s]]
        model.add_row(SENSE_EQ, 0.0, coeffs, name=null.format(c))
    for c, yc in enumerate(y):
        kept = [(v, rhs) for v, rhs in enumerate(balance[c]) if not math.isnan(rhs)]
        for l, yl in enumerate(yc):
            for v, rhs in kept:
                coeffs = [(yl[a], 1.0) for a in table.in_arcs[v]]
                coeffs += [(yl[a], -1.0) for a in table.out_arcs[v]]
                model.add_row(SENSE_EQ, rhs, coeffs, name=bal.format(c, l, v))
    rows = []
    for l, (cols, rhss) in enumerate(zip(cap_cols, cap_rhs)):
        for e, (col, rhs) in enumerate(zip(cols, rhss)):
            coeffs = [(yc[l][a], 1.0) for yc in y for a in (2 * e, 2 * e + 1)]
            coeffs.append((col, -1.0))
            rows.append(model.add_row(SENSE_LE, rhs, coeffs, name=cap.format(l, e)))
    if tau is not None:
        for c, yc in enumerate(y):
            for l, yl in enumerate(yc):
                coeffs = [(yl[2 * tau], 1.0), (yl[2 * tau + 1], 1.0)]
                model.add_row(SENSE_EQ, 0.0, coeffs, name=excl.format(c, l))
    return np.array(rows, dtype=int).reshape(len(cap_cols), -1)


def _path_model(tag, instance: Instance, relax: bool, working, backup, linking):
    """Usage w plus the chosen path blocks: working, one backup per failure, links.

    The linking rows tie each backup to the working assignment when the
    failure misses the working path.
    """
    table = arcs(instance.network)
    model = LinearModel(f"{tag}:{instance.name}")
    kind = CONTINUOUS if relax else BINARY
    D, K, A = instance.num_requests, instance.num_wavelengths, table.num_arcs
    vm = VarMap()
    if working:
        vm.x = _columns(model, (D, K, A), 1.0, 0.0, "x_d{}k{}a{}", kind)
    vm.w = _columns(model, (K, instance.num_edges), 1.0, 1.0, "w_k{}e{}", kind)
    if backup:
        for tau in instance.failures:
            vm.y[tau] = _columns(model, (D, K, A), 1.0, 0.0, f"yb_t{tau}d{{}}k{{}}a{{}}", kind)
    # request d sends one unit from its source to its sink over all wavelengths
    balance = np.zeros((D, instance.num_nodes))
    for d, req in enumerate(instance.requests):
        balance[d, [req.s, req.t]] = np.nan
    sources = [req.s for req in instance.requests]
    for tau, y in ([(None, vm.x)] if working else []) + list(vm.y.items()):
        p, t = ("w", "") if tau is None else ("b", f"t{tau}")
        names = (f"{p}src_{t}d{{}}", f"{p}null_{t}d{{}}", f"{p}bal_{t}d{{}}k{{}}v{{}}",
                 f"{p}cap_{t}k{{}}e{{}}", f"bexcl_{t}d{{}}k{{}}")
        _flow_rows(
            model, table, y, sources, np.ones(D), balance, vm.w, np.zeros(vm.w.shape),
            tau, names,
        )
    if not linking:
        return model, vm
    x = vm.x.tolist()
    for tau, y in vm.y.items():
        y = y.tolist()
        fwd, bwd = 2 * tau, 2 * tau + 1
        for d in range(D):
            onpath = [(x[d][kk][fwd], 1.0) for kk in range(K)]
            onpath += [(x[d][kk][bwd], 1.0) for kk in range(K)]
            for k in range(K):
                for a in range(A):
                    low = [(x[d][k][a], 1.0)]
                    low += [(vid, -c) for vid, c in onpath]
                    low.append((y[d][k][a], -1.0))
                    model.add_row(SENSE_LE, 0.0, low, name=f"lnklo_t{tau}d{d}k{k}a{a}")
            for k in range(K):
                for a in range(A):
                    high = [(y[d][k][a], 1.0), (x[d][k][a], -1.0)]
                    high += [(vid, -c) for vid, c in onpath]
                    model.add_row(SENSE_LE, 0.0, high, name=f"lnkhi_t{tau}d{d}k{k}a{a}")
    return model, vm


def build_ip_rwap_ppp(instance: Instance, relax: bool = False):
    """Full model: working + per-failure backup assignment, linked."""
    return _path_model("rwap-ppp", instance, relax, working=True, backup=True, linking=True)


def build_ip_rwap(instance: Instance, relax: bool = False):
    """Working-only model (no failures considered)."""
    return _path_model("rwap", instance, relax, working=True, backup=False, linking=False)


def build_ip_r1(instance: Instance, relax: bool = False):
    """Full model with the working/backup linking rows dropped."""
    return _path_model("r1", instance, relax, working=True, backup=True, linking=False)


def build_ip_r2(instance: Instance, relax: bool = False):
    """Backup-only model: working variables and their rows removed."""
    return _path_model("r2", instance, relax, working=False, backup=True, linking=False)


def _aggregated_vars(model, table: ArcTable, q, tau):
    """Origin-aggregated flows of one scenario by (s, a), each at most s's total."""
    tag = "" if tau is None else f"t{tau}"
    totals = q.sum(axis=1)[:, None]
    return _columns(model, (len(q), table.num_arcs), totals, 0.0, f"ya_{tag}s{{}}a{{}}")


def _aggregated_rows(model, table: ArcTable, q, y, tau, cap_cols, cap_rhs):
    """Rows of one origin-aggregated flow block (tau None = no failure).

    The flow block with origins as commodities and one layer: origin s sends
    out all of its demand and every other node v keeps q[s, v] of it, the
    flow over edge e less column cap_cols[e] is at most cap_rhs[e], and under
    failure tau no flow uses edge tau. Returns the capacity row ids, by edge.
    """
    t = "" if tau is None else f"t{tau}"
    balance = q.astype(float)
    np.fill_diagonal(balance, np.nan)
    names = (f"asrc_{t}s{{0}}", f"anull_{t}s{{0}}", f"abal_{t}s{{0}}v{{2}}",
             f"acap_{t}e{{1}}", f"aexcl_{t}s{{0}}")
    cap_cols, cap_rhs = np.reshape(cap_cols, (1, -1)), np.reshape(cap_rhs, (1, -1))
    return _flow_rows(
        model, table, y[:, None, :], range(len(q)), q.sum(axis=1), balance, cap_cols,
        cap_rhs, tau, names,
    )[0]


def _aggregated_model(name: str, instance: Instance, scenarios):
    """Edge capacities wbar, each costing one, and one flow block per scenario."""
    table = arcs(instance.network)
    q = demand_matrix(instance)
    E = instance.num_edges
    model = LinearModel(name)
    vm = VarMap(wbar=_columns(model, (E,), instance.num_wavelengths, 1.0, "wb_e{}"))
    for tau in scenarios:
        vm.y_agg[tau] = _aggregated_vars(model, table, q, tau)
    for tau in scenarios:
        _aggregated_rows(model, table, q, vm.y_agg[tau], tau, vm.wbar, np.zeros(E))
    return model, vm


def build_lp_r3(instance: Instance):
    """Aggregated per-failure relaxation over edge counts and origin flows."""
    if not instance.failures:
        raise FormulationError(
            "failure set is empty; use build_lp_rwap_agg for the no-failure model"
        )
    return _aggregated_model(f"lp-r3:{instance.name}", instance, instance.failures)


def build_lp_rwap_agg(instance: Instance):
    """Single-scenario aggregation: working-only LP over origin flows."""
    return _aggregated_model(f"lp-rwap-agg:{instance.name}", instance, (None,))


def build_master(instance: Instance, tau0: int):
    """Decomposition master: the relaxation restricted to failure tau0 alone.

    It is build_lp_r3 over the failure set {tau0}; every other failure enters
    later through cut rows. The zero-inflow-at-origin rows are redundant for
    the bound but valid for the full relaxation, and they give the master
    block the subproblem's structure.
    """
    return _aggregated_model(f"master:{instance.name}:t{tau0}", instance, (tau0,))


def build_subproblem(instance: Instance, failed_edge: int | None, wbar):
    """Minimum capacity-violation LP for one failure, given candidate capacities.

    With failed_edge None no edge is cut and no exclusion rows are written:
    that is the template a decomposition run shares between its failures,
    cutting edge tau by fixing the flow columns of arcs 2tau and 2tau+1 at
    zero, which is what the exclusion rows of failure tau say.
    """
    if failed_edge is not None and failed_edge not in instance.failures:
        raise FormulationError(f"edge {failed_edge} is not in the failure set")
    K = instance.num_wavelengths
    wbar = np.asarray(wbar, dtype=float)
    if wbar.shape != (instance.num_edges,):
        raise FormulationError("wbar must have one entry per edge")
    if (wbar < -1e-9).any() or (wbar > K + 1e-9).any():
        raise FormulationError("wbar entries must lie within [0, |K|]")
    table = arcs(instance.network)
    q = demand_matrix(instance)
    tag = "" if failed_edge is None else f":t{failed_edge}"
    model = LinearModel(f"sub:{instance.name}{tag}")
    y = _aggregated_vars(model, table, q, failed_edge)
    # each origin's arc flow is at most its total, so an edge carries at most
    # 2|D|; the box keeps every column bounded and so every dual bound finite
    eps = model.add_variable(0.0, 2.0 * instance.num_requests, 1.0, name="eps")
    rows = _aggregated_rows(
        model, table, q, y, failed_edge, np.full(instance.num_edges, eps), wbar
    )
    return model, VarMap(y_agg={failed_edge: y}, rows_capacity=rows)


def cut_from_duals(
    failed_edge: int, wbar, solution: Solution, lp: ArrayLP, capacity_rows
) -> Cut:
    """Feasibility cut from any dual point of the presolved violation subproblem.

    The weak-duality bound of lp under the solution's duals is a lower bound
    on the subproblem optimum, and it is affine in the capacity rows'
    right-hand sides wbar with slope theta, their signed duals. So the cut
    bound + theta.(wbar' - wbar) <= 0 holds at every feasible wbar'. The
    columns the bound takes at 0 as forced are the same at every wbar',
    because a capacity row holds eps at coefficient -1 and so never forces.
    """
    if solution.status != "Optimal":
        raise FormulationError("cut requires an Optimal subproblem solution")
    bound, signed = dual_bound(lp, solution.duals)
    if not np.isfinite(bound):
        raise FormulationError(f"weak-duality bound is {bound}")
    theta = signed[capacity_rows]
    constant = bound - float(theta @ np.asarray(wbar, dtype=float))
    coeffs = tuple((e, float(th)) for e, th in enumerate(theta) if th != 0.0)
    return Cut(failure=failed_edge, constant=constant, wbar_coeffs=coeffs)

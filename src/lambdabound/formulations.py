"""Model builders for working/backup wavelength assignment and its relaxations.

Each builder is a pure function from an instance to a LinearModel plus a
VarMap that hands out every block of the built model as an array of ids,
indexed like its symbol. Variable and row orderings are fixed (lexicographic
in the index tuples) so that repeated builds are identical and exports are
byte-stable.

_columns appends one variable block and returns its ids. Every model is made
of flow blocks, one per scenario (a failed edge, or None for no failure), and
_flow_rows lays out all of a model's blocks in one pass over ids
y[s, c, l, a] (scenario, commodity, layer, arc): one block's kinds of rows,
coordinate arrays built from the node-arc incidence, repeated block-major
over the scenarios, each failure's exclusion rows closing its block.
A path block (the working block, one backup block per failure) has the
requests as commodities and the wavelengths as layers. An aggregated block
(one per failure in lp-r3, one in lp-rwap-agg, the master and each
subproblem) has as commodities the origins that send demand, in ascending
node order, and one layer: lp-r3 is the backup-only path model with requests
grouped by origin and wavelengths merged. A node that sends nothing gets no
flow columns and no rows, so no built model has an empty row. Names keep the
node id of an origin.

A flow never uses its closed arcs: the arcs into its commodity's source and,
in a failure's block, both arcs of the failed edge. Their columns are created
with upper bound 0 (_open_arcs), and they are a built model's only fixed
columns. The null and exclusion rows that say the same stay, so exports keep
the paper's formulation and row ids do not move.

_path_model assembles the four path models from their working, backup and
linking blocks. The backup or aggregated flow columns of all scenarios are
one column block, and each builder appends all of its rows as one block
(_append_rows), so no row or coefficient is ever a Python object.

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

from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, arc_ends, demand_matrix
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
    # tau -> [i, a] -> var over the demand origins; tau None = no failure
    y_agg: dict = field(default_factory=dict)
    rows_capacity: np.ndarray | None = None  # [e] -> row


@dataclass(frozen=True)
class Cut:
    """Feasibility cut over the edge capacity variables: constant + theta.wbar <= 0."""

    failure: int
    constant: float
    wbar_coeffs: tuple[tuple[int, float], ...]

    def evaluate(self, wbar) -> float:
        return self.constant + sum(c * wbar[e] for e, c in self.wbar_coeffs)


def _grid(shape) -> np.ndarray:
    """Every index of shape in lexicographic order, one per row."""
    return np.indices(shape).reshape(len(shape), -1).T


def _relabel(index, labels) -> np.ndarray:
    """index, one per row, with its first coordinate i written as labels[i]."""
    index[:, 0] = np.asarray(labels)[index[:, 0]]
    return index


def _columns(model, shape, upper, cost, name, integrality=CONTINUOUS):
    """One variable per index of shape, in lexicographic order; returns their ids.

    Each lies in [0, upper], where upper broadcasts against shape, and is
    named by name.format(*index).
    """
    upper = np.broadcast_to(upper, shape).ravel()
    ids = model.add_variables(0.0, upper, cost, integrality, [(name, _grid(shape))])
    return ids.reshape(shape)


def _append_rows(model, kinds) -> list[np.ndarray]:
    """Append kinds of rows as one block; returns each kind's row ids.

    A kind is (sense, rhs, (row, column, value), names), with one sense or
    one per row, its rows counted from 0 and names as LinearModel.add_rows
    takes them.
    """
    if not kinds:
        return []
    counts = [len(rhs) for _, rhs, _, _ in kinds]
    starts = np.cumsum([0] + counts)
    rows, cols, vals = zip(*(entries for _, _, entries, _ in kinds))
    ids = model.add_rows(
        np.concatenate([np.full(n, kind[0]) for kind, n in zip(kinds, counts)]),
        np.concatenate([rhs for _, rhs, _, _ in kinds]),
        (
            np.concatenate([row + start for row, start in zip(rows, starts)]),
            np.concatenate(cols),
            np.concatenate(vals),
        ),
        [pair for _, _, _, names in kinds for pair in names],
    )
    return [ids[a:b] for a, b in zip(starts, starts[1:])]


def _open_arcs(ends, sources, scenarios) -> np.ndarray:
    """1.0 on each (scenario, commodity, arc) a flow may use, 0.0 on the closed arcs.

    Commodity c takes no flow into its source sources[c], and under failure
    tau (None = no failure) none over either arc of edge tau: what the null
    and exclusion rows of _flow_rows say, written as upper bounds.
    """
    failed = np.array([-1 if tau is None else tau for tau in scenarios], dtype=int)
    into_source = ends[1] == np.asarray(sources)[:, None]
    on_failed = np.arange(len(ends[1])) // 2 == failed[:, None, None]
    return np.where(into_source | on_failed, 0.0, 1.0)


def _flow_rows(ends, y, sources, supply, balance, cap_cols, cap_rhs, scenarios, names, labels):
    """Source, null, balance, capacity and exclusion rows of one flow block per scenario.

    y holds block s's ids by (s, commodity c, layer l, arc a), and ends the
    tail and head node of each arc. In every block commodity c sends
    supply[c] out of node sources[c] over all its layers and takes none back
    there; in each layer node v keeps balance[c, v] of it, with no row where
    that is nan. The flow of layer l over edge e less column cap_cols[l, e]
    is at most cap_rhs[l, e], and under failure scenarios[s] (None = no
    failure) no flow uses that edge. names[s] holds block s's five row name
    formats, given (c), (c), (c, l, v), (l, e) and (c, l), with commodity c
    written as labels[c]. One block's rows are written from the node-arc
    incidence, repeated over commodities and layers, then over the blocks.
    Returns one row kind for _append_rows, block-major with the kinds of
    rows in that order, and each block's capacity rows by (l, e), counted
    in the kind.
    """
    S, C, L, A = y.shape
    E = cap_cols.shape[1]
    layers = np.arange(L)
    tail, head = ends
    sources = np.asarray(sources)
    # block s's columns: y[s, c, l, a] is columns[s, flat[c, l, a]], cap_cols after y[s]
    flat = np.arange(C * L * A).reshape(C, L, A)
    columns = np.concatenate([y.reshape(S, flat.size), cap_cols.reshape(1, -1).repeat(S, 0)], 1)
    # one block's entries: (rows, their columns' index in columns[s], values) of each kind
    flows = []
    for k, end in enumerate((tail, head)):
        # source (null) row c: commodity c's arcs out of (into) its source, in every layer
        c, a = np.nonzero(end == sources[:, None])
        cols = flat[c[:, None], layers, a[:, None]].ravel()
        flows.append((k * C + np.repeat(c, L), cols, np.ones(len(cols))))
    # balance row (c, l, v): in-arcs of v at +1, out-arcs at -1
    kept = (~np.isnan(balance))[:, None, :].repeat(L, 1)
    nbal = int(kept.sum())
    row_of = np.full(kept.shape, -1)
    row_of[kept] = 2 * C + np.arange(nbal)
    bal = np.concatenate([row_of[:, :, head], row_of[:, :, tail]]).ravel()
    live = bal >= 0
    flows.append((bal[live], np.concatenate([flat, flat]).ravel()[live],
                  np.repeat([1.0, -1.0], flat.size)[live]))
    # capacity row (l, e): both arcs of e in layer l, every commodity, less cap_cols[l, e]
    cap = 2 * C + nbal + np.arange(L * E)
    arc_cap = cap[layers[:, None] * E + np.arange(A) // 2]  # by (l, a)
    flows.append((arc_cap[None].repeat(C, 0).ravel(), flat.ravel(), np.ones(flat.size)))
    flows.append((cap, flat.size + np.arange(L * E), np.full(L * E, -1.0)))
    rows, cols, vals = map(np.concatenate, zip(*flows))
    bal_rhs = balance[:, None, :].repeat(L, 1)[kept]
    block_rhs = np.concatenate([supply, np.zeros(C), bal_rhs, cap_rhs.ravel()])
    # a failure's block ends in its exclusion rows (c, l): both arcs of the failed edge
    base = len(block_rhs)
    failed = np.array([s for s, tau in enumerate(scenarios) if tau is not None], dtype=int)
    arcs = 2 * np.array([tau for tau in scenarios if tau is not None], dtype=int)[:, None] + [0, 1]
    pair = y[failed[:, None, None, None], np.arange(C)[:, None, None], layers[:, None],
             arcs[:, None, None, :]]
    sizes = np.full(S, base)
    sizes[failed] += C * L
    starts = np.cumsum(sizes) - sizes
    excl = (starts[failed] + base)[:, None] + np.repeat(np.arange(C * L), 2)
    entries = (
        np.concatenate([(starts[:, None] + rows).ravel(), excl.ravel()]),
        np.concatenate([columns[:, cols].ravel(), pair.ravel()]),
        np.concatenate([vals[None].repeat(S, 0).ravel(), np.ones(pair.size)]),
    )
    rhs = np.zeros(sizes.sum())
    rhs[(starts[:, None] + np.arange(base)).ravel()] = block_rhs[None].repeat(S, 0).ravel()
    senses = np.full(len(rhs), SENSE_EQ, dtype="<U2")
    senses[(starts[:, None] + cap).ravel()] = SENSE_LE
    index = (labels, labels, _relabel(np.argwhere(kept), labels), _grid((L, E)),
             _relabel(_grid((C, L)), labels))
    row_names = [block for tau, formats in zip(scenarios, names)
                 for block in list(zip(formats, index))[: 4 if tau is None else 5]]
    return (senses, rhs, entries, row_names), starts[:, None] + cap


# the blocks of each path model: (working, backup per failure, linking rows)
PATH_MODELS = {
    "rwap-ppp": (True, True, True),
    "rwap": (True, False, False),
    "r1": (True, True, False),
    "r2": (False, True, False),
}


def path_model_rows(instance: Instance, tag: str) -> int:
    """The rows of path model `tag` of instance, from its sizes alone, without a build.

    A flow block has a source and a null row per request, a balance row per
    (request, wavelength, node) other than the request's two ends and a
    capacity row per (wavelength, edge); a backup block adds an exclusion row
    per (request, wavelength). The linking rows are two per (failure,
    request, wavelength, arc).
    """
    working, backup, linking = PATH_MODELS[tag]
    D, K = instance.num_requests, instance.num_wavelengths
    V, E, P = instance.num_nodes, instance.num_edges, len(instance.failures)
    block = 2 * D + D * K * (V - 2) + K * E
    rows = block if working else 0
    if backup:
        rows += P * (block + D * K)
    if linking:
        rows += 2 * P * D * K * 2 * E
    return rows


def _path_model(tag, instance: Instance, relax: bool):
    """Usage w plus the blocks PATH_MODELS[tag] names: working, one backup per failure, links.

    The linking rows tie each backup to the working assignment when the
    failure misses the working path.
    """
    working, backup, linking = PATH_MODELS[tag]
    ends = arc_ends(instance.network)
    model = LinearModel(f"{tag}:{instance.name}")
    kind = CONTINUOUS if relax else BINARY
    D, K, A = instance.num_requests, instance.num_wavelengths, 2 * instance.num_edges
    failures = np.array(instance.failures, dtype=int)
    sources = [req.s for req in instance.requests]
    vm = VarMap()
    if working:
        upper = _open_arcs(ends, sources, [None])[0][:, None, :]
        vm.x = _columns(model, (D, K, A), upper, 0.0, "x_d{}k{}a{}", kind)
    vm.w = _columns(model, (K, instance.num_edges), 1.0, 1.0, "w_k{}e{}", kind)
    if backup:
        # y[tau][d, k, a], every failure's block in one, named by tau
        shape = (len(failures), D, K, A)
        upper = np.broadcast_to(_open_arcs(ends, sources, failures)[:, :, None, :], shape)
        index = _relabel(_grid(shape), failures)
        y = model.add_variables(0.0, upper, 0.0, kind, [("yb_t{}d{}k{}a{}", index)])
        vm.y = dict(zip(instance.failures, y.reshape(shape)))
    # request d sends one unit from its source to its sink over all wavelengths
    balance = np.zeros((D, instance.num_nodes))
    for d, req in enumerate(instance.requests):
        balance[d, [req.s, req.t]] = np.nan
    scenarios = ([None] if working else []) + list(vm.y)
    names = [(f"{p}src_{t}d{{}}", f"{p}null_{t}d{{}}", f"{p}bal_{t}d{{}}k{{}}v{{}}",
              f"{p}cap_{t}k{{}}e{{}}", f"bexcl_{t}d{{}}k{{}}")
             for p, t in (("w", "") if tau is None else ("b", f"t{tau}") for tau in scenarios)]
    y = np.concatenate(([vm.x[None]] if working else []) + ([y.reshape(shape)] if backup else []))
    kinds = [_flow_rows(ends, y, sources, np.ones(D), balance, vm.w, np.zeros(vm.w.shape),
                        scenarios, names, np.arange(D))[0]]
    if linking and len(failures):
        kinds.append(_linking_rows(vm, failures))
    _append_rows(model, kinds)
    return model, vm


def _linking_rows(vm: VarMap, failures):
    """The row kind that ties each backup to the working assignment.

    Rows lo then hi of (failure tau, request d), each by (k, a): with on the
    sum of x[d, :, a'] over both arcs a' of tau, lo says
    x[d, k, a] - on - y[tau][d, k, a] <= 0 and hi
    y[tau][d, k, a] - x[d, k, a] - on <= 0.
    """
    x = vm.x
    D, K, A = x.shape
    y = np.stack([vm.y[tau] for tau in failures.tolist()])
    P = len(failures)
    row = np.arange(P * D * 2 * K * A).reshape(P, D, 2, K, A)
    lo, hi = row[:, :, 0], row[:, :, 1]
    xb = np.broadcast_to(x, y.shape)
    # on[tau, d]: x[d, :, 2 tau], then x[d, :, 2 tau + 1]
    on = np.concatenate([x[:, :, 2 * failures], x[:, :, 2 * failures + 1]], axis=1)
    on = on.transpose(2, 0, 1)[:, :, None, None, None, :]
    on_cols = np.broadcast_to(on, row.shape + (2 * K,))
    on_rows = np.broadcast_to(row[..., None], on_cols.shape)
    n = y.size
    entries = (
        np.concatenate([lo.ravel(), lo.ravel(), hi.ravel(), hi.ravel(), on_rows.ravel()]),
        np.concatenate([xb.ravel(), y.ravel(), y.ravel(), xb.ravel(), on_cols.ravel()]),
        np.repeat([1.0, -1.0, 1.0, -1.0, -1.0], [n, n, n, n, on_cols.size]),
    )
    index = _grid((K, A))
    names = [
        (f"lnk{side}_t{tau}d{d}k{{}}a{{}}", index)
        for tau in failures.tolist() for d in range(D) for side in ("lo", "hi")
    ]
    return SENSE_LE, np.zeros(row.size), entries, names


def build_ip_rwap_ppp(instance: Instance, relax: bool = False):
    """Full model: working + per-failure backup assignment, linked."""
    return _path_model("rwap-ppp", instance, relax)


def build_ip_rwap(instance: Instance, relax: bool = False):
    """Working-only model (no failures considered)."""
    return _path_model("rwap", instance, relax)


def build_ip_r1(instance: Instance, relax: bool = False):
    """Full model with the working/backup linking rows dropped."""
    return _path_model("r1", instance, relax)


def build_ip_r2(instance: Instance, relax: bool = False):
    """Backup-only model: working variables and their rows removed."""
    return _path_model("r2", instance, relax)


def _origins(instance: Instance):
    """The origins that send demand, ascending, and each one's row of request counts."""
    q = demand_matrix(instance)
    origins = np.flatnonzero(q.sum(axis=1))
    return origins, q[origins]


def _aggregated_vars(model, ends, origins, q, scenarios) -> np.ndarray:
    """Each scenario's origin-aggregated flows by (scenario, origin, a), each at
    most its total on an open arc and at 0 on a closed one."""
    shape = (len(origins), len(ends[0]))
    tags = ["" if tau is None else f"t{tau}" for tau in scenarios]
    names = [(f"ya_{tag}s{{}}a{{}}", _relabel(_grid(shape), origins)) for tag in tags]
    upper = q.sum(axis=1)[:, None] * _open_arcs(ends, origins, scenarios)
    ids = model.add_variables(0.0, upper, 0.0, names=names)  # all scenarios in one block
    return ids.reshape(len(scenarios), *shape)


def _aggregated_rows(ends, origins, q, y, scenarios, cap_cols, cap_rhs):
    """_flow_rows of the origin-aggregated flow blocks y[s] of scenarios.

    Each is the flow block with the origins as commodities and one layer:
    origin origins[i] sends out all of its demand and every other node v
    keeps q[i, v] of it, the flow over edge e less column cap_cols[e] is at
    most cap_rhs[e], and under failure tau no flow uses edge tau.
    """
    balance = q.astype(float)
    balance[np.arange(len(origins)), origins] = np.nan
    names = [(f"asrc_{t}s{{0}}", f"anull_{t}s{{0}}", f"abal_{t}s{{0}}v{{2}}", f"acap_{t}e{{1}}",
              f"aexcl_{t}s{{0}}") for t in ("" if tau is None else f"t{tau}" for tau in scenarios)]
    cap_cols, cap_rhs = np.reshape(cap_cols, (1, -1)), np.reshape(cap_rhs, (1, -1))
    return _flow_rows(
        ends, y[:, :, None, :], origins, q.sum(axis=1), balance, cap_cols, cap_rhs,
        scenarios, names, origins,
    )


def _aggregated_model(name: str, instance: Instance, scenarios):
    """Edge capacities wbar, each costing one, and one flow block per scenario."""
    ends = arc_ends(instance.network)
    origins, q = _origins(instance)
    E = instance.num_edges
    model = LinearModel(name)
    vm = VarMap(wbar=_columns(model, (E,), instance.num_wavelengths, 1.0, "wb_e{}"))
    y = _aggregated_vars(model, ends, origins, q, scenarios)
    vm.y_agg = dict(zip(scenarios, y))
    flows, _ = _aggregated_rows(ends, origins, q, y, scenarios, vm.wbar, np.zeros(E))
    _append_rows(model, [flows])
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
    K, E = instance.num_wavelengths, instance.num_edges
    wbar = np.asarray(wbar, dtype=float)
    if wbar.shape != (E,):
        raise FormulationError("wbar must have one entry per edge")
    if (wbar < -1e-9).any() or (wbar > K + 1e-9).any():
        raise FormulationError("wbar entries must lie within [0, |K|]")
    origins, q = _origins(instance)
    tag = "" if failed_edge is None else f":t{failed_edge}"
    model = LinearModel(f"sub:{instance.name}{tag}")
    ends = arc_ends(instance.network)
    y = _aggregated_vars(model, ends, origins, q, (failed_edge,))
    # each origin's arc flow is at most its total, so an edge carries at most
    # 2|D|; the box keeps every column bounded and so every dual bound finite
    eps = model.add_variables(0.0, 2.0 * instance.num_requests, 1.0, names=[("eps", [()])])[0]
    flows, cap = _aggregated_rows(ends, origins, q, y, (failed_edge,), np.full(E, eps), wbar)
    rows = _append_rows(model, [flows])[0][cap[0]]
    return model, VarMap(y_agg={failed_edge: y[0]}, rows_capacity=rows)


def cut_from_duals(
    failed_edge: int, wbar, solution: Solution, lp: ArrayLP, capacity_rows
) -> Cut:
    """Feasibility cut from any dual point of the presolved violation subproblem.

    The weak-duality bound of lp under the solution's duals is a lower bound
    on the subproblem optimum, and it is affine in the capacity rows'
    right-hand sides wbar with slope theta, their signed duals. So the cut
    bound + theta.(wbar' - wbar) <= 0 holds at every feasible wbar'. The
    bound reads lp's column bounds, in which failed_edge's arcs and the arcs
    into each origin are closed at 0, and these do not depend on wbar.
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

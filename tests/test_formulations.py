import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import add_column, add_row, linprog_solve, row_coeffs, solve_checked
from lambdabound import benders, simplex
from lambdabound.cli import _BUILDERS, EXPORT_MODELS, main
from lambdabound.formulations import (
    PATH_MODELS,
    Cut,
    FormulationError,
    build_ip_r1,
    build_ip_r2,
    build_ip_rwap,
    build_ip_rwap_ppp,
    build_lp_r3,
    build_lp_rwap_agg,
    build_master,
    build_subproblem,
    cut_from_duals,
    path_model_rows,
)
from lambdabound.instance import (
    Edge,
    Instance,
    Network,
    Request,
    arc_ends,
    demand_matrix,
    gen_cycle,
    gen_random,
    save_instance,
)
from lambdabound.lpmodel import (
    BINARY,
    CONTINUOUS,
    SENSE_GE,
    LinearModel,
    Solution,
    export_lp,
    export_mps,
)


def _sizes(instance):
    V = instance.num_nodes
    E = instance.num_edges
    return V, E, 2 * E, instance.num_requests, instance.num_wavelengths, len(
        instance.failures
    )


def test_full_model_counts(net4):
    V, E, A, D, K, P = _sizes(net4)
    model, vm = build_ip_rwap_ppp(net4)
    assert vm.x.shape == (D, K, A) == (2, K, 10)
    assert list(vm.y) == list(net4.failures)
    assert all(y.shape == (D, K, A) for y in vm.y.values())
    assert vm.w.shape == (K, E)
    assert model.num_variables == D * K * A + K * E + P * D * K * A
    expected_rows = (
        2 * D
        + D * K * (V - 2)
        + K * E
        + 2 * P * D
        + P * D * K * (V - 2)
        + P * K * E
        + 2 * P * D * K * A
        + P * D * K
    )
    assert model.num_rows == expected_rows


def test_relaxation_counts(net4):
    V, E, A, D, K, P = _sizes(net4)
    rwap, _ = build_ip_rwap(net4)
    assert rwap.num_variables == D * K * A + K * E
    assert rwap.num_rows == 2 * D + D * K * (V - 2) + K * E

    r1, _ = build_ip_r1(net4)
    full, _ = build_ip_rwap_ppp(net4)
    assert r1.num_variables == full.num_variables
    assert r1.num_rows == full.num_rows - 2 * P * D * K * A

    r2, _ = build_ip_r2(net4)
    assert r2.num_variables == K * E + P * D * K * A
    assert r2.num_rows == 2 * P * D + P * D * K * (V - 2) + P * K * E + P * D * K
    assert r2.num_variables < r1.num_variables

    # the aggregated models write a flow block for each of the S origins that send demand
    S = len({req.s for req in net4.requests})
    r3, _ = build_lp_r3(net4)
    assert r3.num_variables == E + P * S * A
    assert r3.num_rows == 2 * P * S + P * S * (V - 1) + P * E + P * S

    agg, _ = build_lp_rwap_agg(net4)
    assert agg.num_variables == E + S * A
    assert agg.num_rows == 2 * S + S * (V - 1) + E

    sub, _ = build_subproblem(net4, net4.failures[0], np.zeros(E))
    assert sub.num_variables == S * A + 1
    assert sub.num_rows == 2 * S + S * (V - 1) + E + S


def test_empty_failure_set_degenerates():
    inst = dataclasses.replace(gen_cycle(4, 2, 3), failures=())
    model, vm = build_ip_rwap_ppp(inst)
    assert not vm.y
    rwap, _ = build_ip_rwap(inst)
    assert model.num_variables == rwap.num_variables
    assert model.num_rows == rwap.num_rows
    with pytest.raises(FormulationError, match="lp_rwap_agg"):
        build_lp_r3(inst)


def test_relax_flag_controls_annotations():
    inst = gen_cycle(3, 1, 2)
    strict, _ = build_ip_rwap_ppp(inst, relax=False)
    relaxed, _ = build_ip_rwap_ppp(inst, relax=True)
    assert strict.binary.all() and not relaxed.binary.any()
    assert strict.num_rows == relaxed.num_rows
    assert np.array_equal(strict.lower, relaxed.lower)
    assert np.array_equal(strict.upper, relaxed.upper)


def test_ring_closed_forms():
    # one failing edge forces the long way around; the ring pins every edge.
    # k=8 keeps the wavelength-indexed models small; the value is m*n for any
    # k >= n since the capacity boxes never bind
    inst = gen_cycle(4, 2, 8)
    o2 = solve_checked(build_ip_r2(inst, relax=True)[0]).objective
    assert o2 == pytest.approx(8.0, abs=1e-6)
    o1 = solve_checked(build_ip_r1(inst, relax=True)[0]).objective
    assert o1 == pytest.approx(o2, abs=1e-6)

    for m, n in ((3, 1), (5, 3), (6, 2)):
        inst = gen_cycle(m, n, 80)
        assert solve_checked(build_lp_r3(inst)[0]).objective == pytest.approx(
            m * n, abs=1e-6
        )
        assert solve_checked(build_lp_rwap_agg(inst)[0]).objective == pytest.approx(
            n, abs=1e-6
        )


def test_single_failure_shrinks_r2():
    inst = dataclasses.replace(gen_cycle(4, 2, 2), failures=(1,))
    r1, _ = build_ip_r1(inst)
    r2, _ = build_ip_r2(inst)
    assert r2.num_variables < r1.num_variables


def test_aggregation_equalities_on_random_instance():
    inst = gen_random(6, 2, 3, 3, seed=21)
    o3 = solve_checked(build_lp_r3(inst)[0]).objective
    o2 = solve_checked(build_ip_r2(inst, relax=True)[0]).objective
    assert o3 == pytest.approx(o2, abs=1e-6)

    agg = solve_checked(build_lp_rwap_agg(inst)[0]).objective
    direct = solve_checked(build_ip_rwap(inst, relax=True)[0]).objective
    assert agg == pytest.approx(direct, abs=1e-6)


def test_no_demand_gives_zero():
    inst = gen_random(4, 1, 0, 1, seed=0)
    assert solve_checked(build_lp_rwap_agg(inst)[0]).objective == pytest.approx(0.0)
    assert solve_checked(build_lp_r3(inst)[0]).objective == pytest.approx(0.0)


def test_full_relaxation_bounded_by_oracle():
    from lambdabound.oracle import exact_rwap_ppp

    inst = gen_cycle(3, 1, 1)
    lp = solve_checked(build_ip_rwap_ppp(inst, relax=True)[0]).objective
    exact = exact_rwap_ppp(inst)
    assert exact == 3
    assert lp <= exact + 1e-6


def test_subproblem_zero_at_feasible_capacities():
    inst = gen_cycle(5, 3, 80)
    model, vm = build_lp_r3(inst)
    sol = solve_checked(model)
    wbar = sol.primal[vm.wbar]
    for tau in inst.failures:
        sub, _ = build_subproblem(inst, tau, wbar)
        assert solve_checked(sub).objective <= 1e-7


def test_subproblem_forced_violation():
    # empty capacities push both units onto the two-hop detour
    inst = gen_cycle(3, 2, 80)
    sub, _ = build_subproblem(inst, 2, np.zeros(3))
    sol = solve_checked(sub)
    assert sol.objective == pytest.approx(2.0, abs=1e-7)
    ref = linprog_solve(sub)  # independent mini-oracle on the same LP
    assert ref.status == 0 and ref.fun == pytest.approx(2.0, abs=1e-7)


def _bridge_instance():
    # two triangles joined by one bridge; its failure splits the graph
    edges = (
        Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 0, 2),
        Edge(3, 3, 4), Edge(4, 4, 5), Edge(5, 3, 5),
        Edge(6, 2, 3),
    )
    return Instance(
        name="bridge",
        network=Network(node_labels=tuple(range(6)), edges=edges),
        num_wavelengths=2,
        requests=(Request(0, 5),),
        failures=(6,),
    )


def test_subproblem_infeasible_when_failure_disconnects():
    inst = _bridge_instance()
    sub, _ = build_subproblem(inst, 6, np.full(7, 2.0))
    assert simplex.solve(sub).status == simplex.INFEASIBLE


def test_subproblem_argument_checks():
    inst = gen_cycle(3, 1, 1)
    with pytest.raises(FormulationError, match="failure set"):
        build_subproblem(dataclasses.replace(inst, failures=(0,)), 2, np.zeros(3))
    with pytest.raises(FormulationError, match="one entry per edge"):
        build_subproblem(inst, 0, np.zeros(2))
    with pytest.raises(FormulationError, match="within"):
        build_subproblem(inst, 0, np.full(3, 99.0))


def _cut_at(instance, tau, wbar):
    """The subproblem's optimum at wbar and the cut from its duals."""
    sub, vm = build_subproblem(instance, tau, wbar)
    lp = simplex.presolve(sub)
    sol = simplex.solve(lp)
    assert sol.status == simplex.OPTIMAL
    return sol.objective, cut_from_duals(tau, wbar, sol, lp, vm.rows_capacity)


def test_cut_matches_subproblem_value():
    inst = gen_cycle(3, 2, 80)
    wbar = np.zeros(3)
    sub, vm = build_subproblem(inst, 2, wbar)
    sol = solve_checked(sub)
    cut = cut_from_duals(2, wbar, sol, simplex.presolve(sub), vm.rows_capacity)
    assert cut.failure == 2
    assert cut.evaluate(wbar) == pytest.approx(2.0, abs=1e-9)
    assert all(c <= 0.0 for _, c in cut.wbar_coeffs)

    # at feasible capacities every valid cut must be satisfied
    model, vm3 = build_lp_r3(inst)
    opt = solve_checked(model)
    feas = opt.primal[vm3.wbar]
    assert cut.evaluate(feas) <= 1e-9


def test_cut_requires_optimal_solution():
    inst = gen_cycle(3, 2, 80)
    wbar = np.full(3, 80.0)
    # no violation: the cut is still valid, and tight at zero
    value, cut = _cut_at(inst, 2, wbar)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert cut.evaluate(wbar) == pytest.approx(0.0, abs=1e-9)

    sub, vm = build_subproblem(inst, 2, wbar)
    failed = Solution(status="NumericalError", objective=float("nan"))
    with pytest.raises(FormulationError, match="Optimal"):
        cut_from_duals(2, wbar, failed, simplex.presolve(sub), vm.rows_capacity)


def test_cuts_are_valid_at_every_capacity():
    """Each cut is at most the subproblem optimum at any capacities in [0, |K|]^E
    and equals it at the capacities it was made at."""
    rng = np.random.default_rng(6)
    for inst in (
        gen_cycle(4, 2, 3),
        gen_random(6, 2, 3, 3, seed=1),
        gen_random(7, 2, 4, 4, seed=8),
    ):
        K, E = inst.num_wavelengths, inst.num_edges
        for tau in inst.failures[:4]:
            for _ in range(3):
                wbar = rng.uniform(0, K, size=E)
                value, cut = _cut_at(inst, tau, wbar)
                assert abs(cut.evaluate(wbar) - value) <= 1e-9
                for _ in range(4):
                    other = rng.uniform(0, K, size=E)
                    assert cut.evaluate(other) <= _cut_at(inst, tau, other)[0] + 1e-9


def test_cut_evaluate_is_affine():
    cut = Cut(failure=1, constant=4.0, wbar_coeffs=((0, -1.0), (2, -0.5)))
    assert cut.evaluate([1.0, 9.0, 2.0]) == pytest.approx(2.0)


def _named_blocks(vm, instance):
    """(ids, name of the column at an index) for every column block of vm."""
    if vm.x is not None:
        yield vm.x, "x_d{}k{}a{}".format
    if vm.w is not None:
        yield vm.w, "w_k{}e{}".format
    for tau, y in vm.y.items():
        yield y, f"yb_t{tau}d{{}}k{{}}a{{}}".format
    if vm.wbar is not None:
        yield vm.wbar, "wb_e{}".format
    # the first axis of y_agg runs over the origins that send demand, named by node id
    origins = np.flatnonzero(demand_matrix(instance).sum(axis=1))
    for tau, y in vm.y_agg.items():
        name = ("ya_" + ("" if tau is None else f"t{tau}") + "s{}a{}").format
        yield y, lambda i, a, name=name: name(origins[i], a)


def test_varmap_ids_are_unique(net4):
    E = net4.num_edges
    built = [(name, *build(net4)) for name, build in (
        ("rwap-ppp", build_ip_rwap_ppp), ("rwap", build_ip_rwap), ("r1", build_ip_r1),
        ("r2", build_ip_r2), ("lp-r3", build_lp_r3), ("lp-rwap-agg", build_lp_rwap_agg),
    )]
    built.append(("master", *build_master(net4, min(net4.failures))))
    built.append(("template", *build_subproblem(net4, None, np.zeros(E))))
    built.append(("sub", *build_subproblem(net4, net4.failures[0], np.zeros(E))))
    for label, model, vm in built:
        ids, variable_names = [], model.variable_names
        for block, name in _named_blocks(vm, net4):
            for index in np.ndindex(block.shape):
                assert variable_names[block[index]] == name(*index), label
            ids += block.ravel().tolist()
        assert ids and len(ids) == len(set(ids)), label
        # the subproblems' one other column is eps
        assert len(ids) == model.num_variables - label.startswith(("template", "sub")), label
        if vm.rows_capacity is not None:
            assert vm.rows_capacity.shape == (E,), label
            row_names = model.row_names
            for e, row in enumerate(vm.rows_capacity):
                assert row_names[row].endswith(f"e{e}"), label
        assert all(type(vid) is int for row in model.rows for vid, _ in row.coeffs), label


# a flow column's name: failure tau if any, then request d or origin node s,
# then wavelength k if any, then arc a
_FLOW_NAME = re.compile(r"(?:x|yb|ya)_(?:t(\d+))?(?:d(\d+)|s(\d+))(?:k\d+)?a(\d+)")


def _closed_by_name(inst, model):
    """Columns whose name says a flow never uses the arc: one into the
    commodity's source, or either arc of the block's failed edge."""
    head = arc_ends(inst.network)[1]
    closed = set()
    for j, name in enumerate(model.variable_names):
        match = _FLOW_NAME.fullmatch(name)
        if match is None:
            continue
        tau, d, s, a = match.groups()
        source = int(s) if s is not None else inst.requests[int(d)].s
        if head[int(a)] == source or (tau is not None and int(a) // 2 == int(tau)):
            closed.add(j)
    return closed


def _forced_by_rows(model):
    """Columns of the rows with rhs 0, sense '=' or '<=' and coefficients, each
    positive on a column with lower bound 0: each such row holds them at 0."""
    forced = set()
    for i, (sense, rhs) in enumerate(zip(model.senses.tolist(), model.rhs.tolist())):
        cols = model.indices[model.indptr[i] : model.indptr[i + 1]]
        vals = model.data[model.indptr[i] : model.indptr[i + 1]]
        if rhs == 0.0 and sense != SENSE_GE and len(cols):
            if (vals > 0).all() and (model.lower[cols] == 0.0).all():
                forced.update(cols.tolist())
    return forced


@settings(max_examples=15, deadline=None)
@given(
    st.integers(3, 7), st.integers(0, 2), st.integers(1, 3), st.integers(0, 1),
    st.integers(0, 2**16),
)
def test_models_leave_presolve_nothing_to_pin_or_drop(nodes, extra, requests, spare, seed):
    """A column is fixed (lower == upper) exactly when it is a closed arc, and
    those are the columns that the null and exclusion rows hold at 0. No row
    lacks coefficients, and presolve keeps every column and row: cols is
    [A | I] over the model."""
    inst = gen_random(nodes, extra, requests, requests + spare, seed)
    models = {name: build(inst) for name, build in _BUILDERS.items()}
    models["master"] = build_master(inst, min(inst.failures))[0]
    models["template"] = build_subproblem(inst, None, np.zeros(inst.num_edges))[0]
    for label, model in models.items():
        fixed = set(np.flatnonzero(model.lower == model.upper).tolist())
        assert fixed and fixed == _closed_by_name(inst, model), label
        assert fixed == _forced_by_rows(model), label
        assert (model.upper[list(fixed)] == 0.0).all(), label
        assert (np.diff(model.indptr) > 0).all(), label
        shape = (model.num_rows, model.num_variables + model.num_rows)
        assert simplex.presolve(model).cols.shape == shape, label


# sha256 of the LP then MPS text of every CLI export model: exports must stay
# byte-identical, so any change to a builder's variables, rows or names shows here
EXPORT_DIGESTS = {
    ('net4', 'lp-rwap'): '0d2c16d895d97475d056ec0a82a76a37f5a26fb8c22784c0a9d4b6a459ad1474',
    ('net4', 'lp-rwap-ppp'): 'babe882f6ab5f6f99dd518fec4afccd7a1071b8c0ddc84b8d02ce4e177b475d5',
    ('net4', 'lp-r1'): '0bd87618efbcfd546ab4126424f230ddd2e6f6c0305dbd5ed76e480c6373a22c',
    ('net4', 'lp-r2'): 'e58bb4a655328923eeb80d388b7cb9742ec1b786141a926d06035f9a2700f9c7',
    ('net4', 'lp-r3'): '29799542d608c70fd4e59e2e0f41c15afecd6350ee9ae1157388dbb72f5d56ba',
    ('net4', 'ip-rwap'): '5a8c00dec13e00f9f04babac6d2f3a14a8715bbcb1b7b14ed1763e9ca23ffc30',
    ('net4', 'ip-rwap-ppp'): '18ae5c96c5d7e494d7f15ebe2c8d7bd1d752476c68e7b0c41242205d45a0865e',
    ('net4', 'ip-r1'): '477a4182dba036ff82764da0c96845ff444776ab23fd15053e8b941c30d68d42',
    ('net4', 'ip-r2'): 'cf81c2fcd0f841333623cd3fe1aec4b17066acf91b651d72fbf3b5656b027be3',
    ('random6', 'lp-rwap'): '32348e79d8bf14b27b414491870aca7750455a89d2650715599433f68d1b7420',
    ('random6', 'lp-rwap-ppp'): '348d8db23b0bdfc4704e676d41ff443478f007e62fce8068075ef2622dffb157',
    ('random6', 'lp-r1'): '0ede043f89107a7ccf5e99f201aecb2ddf913ac141724107f31021171d60c80e',
    ('random6', 'lp-r2'): '882887427189ae4990242c53d3f58ccfbaf9f06795c5c8089c835e3c7d32daab',
    ('random6', 'lp-r3'): '2f8773dec2ec18f958c93d16dce011c796deeffc5e99cacd9e1e6edbf9fab43a',
    ('random6', 'ip-rwap'): 'f65bcde28e757993ad6b4969c8ee8ae02dfb194a67038513d96bf9d1ab98599d',
    ('random6', 'ip-rwap-ppp'): '91f1eac2989d344ff289d764e41339a7e97b1344dded33582bfb9a89ce80e767',
    ('random6', 'ip-r1'): '32c0f71cfdcb8d29469df83293b30e4c7cd513cfadd0f2d5da102b4decfed9e0',
    ('random6', 'ip-r2'): '9f95e010d35e55f3fc4177605cb96d51f409c004ad2bb803bef37627990dc99e',
}


def _pinned_instances(net4):
    return {"net4": net4, "random6": gen_random(6, 2, 3, 3, seed=1)}


def test_export_bytes_are_pinned(tmp_path, capsys, net4):
    digests = {}
    for label, inst in _pinned_instances(net4).items():
        path = tmp_path / f"{label}.json"
        path.write_text(save_instance(inst))
        for name in EXPORT_MODELS:
            h = hashlib.sha256()
            for fmt in ("lp", "mps"):
                out = tmp_path / f"{label}.{name}.{fmt}"
                assert main(["export", str(path), "--model", name, "--format", fmt,
                             "--out", str(out)]) == 0
                h.update(out.read_bytes())
            digests[(label, name)] = h.hexdigest()
    capsys.readouterr()
    assert len(digests) == 18
    assert digests == EXPORT_DIGESTS


def _structure_digest(model):
    """Bounds, costs, senses, right-hand sides and coefficients; not names."""
    h = hashlib.sha256()
    for column in zip(model.lower.tolist(), model.upper.tolist(), model.cost.tolist()):
        h.update(repr(column).encode())
    for i, (sense, rhs) in enumerate(zip(model.senses.tolist(), model.rhs.tolist())):
        h.update(repr((sense, rhs, row_coeffs(model, i))).encode())
    return h.hexdigest()


# the subproblem template of a decomposition run: no failure, capacities 0
TEMPLATE_DIGEST = 'd9a0ab8910fb50b283968d2c30e83cc107dd658ed6019ab33b7c248afc1c485a'

# master, then the subproblem of each failure at capacities 0.5
DECOMPOSITION_DIGESTS = [
    '944d40ab86ad1ac4b92f1922e600cf6c82589d3bb90861dbffb0ee301fa839c4',
    '9327581c18b58126651caf1260623f7da5d11c69c3ae7b2b2d1f0c5d612dae8e',
    'fbc17510a3f13a47af0b33139370db2bf3859316c5c6228f6c14096c737db020',
    '4d07887575ab85b568153eafa60da1d94ac680377e225fd27f714fa09dd01fd6',
    'c082669b4f76e1e033832f40c22a75fb74c58380d551241d068d4944899455d0',
    '11a0cffab3618fafb7a9e8996ed5e1903986e0bb725ff5d99b66b4d51fcb6517',
    '5772a12ff3234dfafff0fb79ab914d260bf7ff425b2e3b932a972220391a7de3',
    '11cd853795374278101054ed707669481d6c2fdb873b11f20723e0ff51f582aa',
    '6a55cf3bb577f6067be28bd245fba1605a4defbba7509358cceab6c8b33400d1',
]


def test_decomposition_models_are_pinned(monkeypatch):
    inst = gen_random(6, 2, 3, 3, seed=1)
    presolved = []
    original = benders.presolve

    def capture(model):
        presolved.append(model)
        return original(model)

    monkeypatch.setattr(benders, "presolve", capture)
    state = benders.BendersState(inst)
    master, template = presolved
    assert master.name == f"master:{inst.name}:t{state.tau0}"
    assert template.name == f"sub:{inst.name}"
    assert _structure_digest(template) == TEMPLATE_DIGEST
    models = [master]
    for tau in inst.failures:
        sub, _ = build_subproblem(inst, tau, np.full(inst.num_edges, 0.5))
        assert sub.name == f"sub:{inst.name}:t{tau}"
        models.append(sub)
    assert [_structure_digest(m) for m in models] == DECOMPOSITION_DIGESTS


def _rebuilt(model):
    """The model rebuilt from its arrays one column and one row per append."""
    copy = LinearModel(model.name)
    kinds = np.where(model.binary, BINARY, CONTINUOUS).tolist()
    columns = zip(model.lower.tolist(), model.upper.tolist(), model.cost.tolist(), kinds,
                  model.variable_names)
    for column in columns:
        add_column(copy, *column)
    rows = zip(model.senses.tolist(), model.rhs.tolist(), model.row_names)
    for i, (sense, rhs, name) in enumerate(rows):
        add_row(copy, sense, rhs, row_coeffs(model, i), name)
    return copy


def _assert_same_presolve(a, b, label):
    assert a.cols.shape == b.cols.shape, label
    for part in ("indptr", "indices", "data"):
        u, v = getattr(a.cols, part), getattr(b.cols, part)
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), (label, part)
    for name in ("b", "lb", "ub", "c"):
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), (label, name)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(3, 7), st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
    st.integers(0, 2**16),
)
def test_block_built_models_match_scalar_rebuilds(nodes, extra, requests, spare, seed):
    inst = gen_random(nodes, extra, requests, max(1, requests) + spare, seed)
    wbar = np.random.default_rng(seed).uniform(0.0, inst.num_wavelengths, inst.num_edges)
    models = {name: build(inst) for name, build in _BUILDERS.items()}
    models["master"] = build_master(inst, min(inst.failures))[0]
    models["template"] = build_subproblem(inst, None, wbar)[0]
    models["sub"] = build_subproblem(inst, inst.failures[-1], wbar)[0]
    for label, model in models.items():
        copy = _rebuilt(model)
        _assert_same_presolve(simplex.presolve(model), simplex.presolve(copy), label)
        assert export_lp(model) == export_lp(copy), label
        assert export_mps(model) == export_mps(copy), label


_PATH_BUILDERS = {
    "rwap-ppp": build_ip_rwap_ppp, "rwap": build_ip_rwap, "r1": build_ip_r1, "r2": build_ip_r2
}


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 7), st.integers(0, 4), st.integers(1, 4), st.integers(0, 2),
    st.integers(0, 10**6),
)
def test_path_model_rows_are_counted_before_the_build(nodes, extra, requests, spare, seed):
    """cli refuses an over-limit path LP from this count, so it must not exceed the build's rows.

    It is exact: the refusal then names the rows that solve would refuse.
    """
    instance = gen_random(nodes, extra, requests, requests + spare, seed)
    assert set(_PATH_BUILDERS) == set(PATH_MODELS)
    for tag, build in _PATH_BUILDERS.items():
        rows = path_model_rows(instance, tag)
        assert rows == build(instance, relax=True)[0].num_rows, tag


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 6), st.integers(0, 2), st.integers(0, 3), st.integers(0, 1),
    st.integers(0, 10**6), st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_r1_is_the_relaxed_full_models_row_prefix(nodes, extra, requests, spare, seed, fails):
    """oracle.verify_chain solves R1 as the full model's first rows, then appends the rest.

    So the full model must hold R1's columns exactly and R1's rows first: the
    linking rows come last. The failure set is any subset of the edges, the
    empty one included.
    """
    instance = gen_random(nodes, extra, requests, max(1, requests) + spare, seed)
    failures = tuple(e for e in range(instance.num_edges) if fails[e % len(fails)])
    instance = dataclasses.replace(instance, failures=failures)
    full = build_ip_rwap_ppp(instance, relax=True)[0]
    r1 = build_ip_r1(instance, relax=True)[0]
    rows = path_model_rows(instance, "r1")
    assert rows == r1.num_rows and full.num_rows >= rows
    assert full.num_rows > rows or not failures or not requests
    for name in ("cost", "lower", "upper"):
        assert np.array_equal(getattr(full, name), getattr(r1, name)), name
    assert np.array_equal(full.senses[:rows], r1.senses)
    assert np.array_equal(full.rhs[:rows], r1.rhs)
    end = full.indptr[rows]
    assert np.array_equal(full.indptr[: rows + 1], r1.indptr)
    assert np.array_equal(full.indices[:end], r1.indices)
    assert np.array_equal(full.data[:end], r1.data)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 6), st.integers(0, 2), st.integers(0, 3), st.integers(0, 1),
    st.integers(0, 10**6), st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_r2_is_the_relaxed_full_models_backup_rows(nodes, extra, requests, spare, seed, fails):
    """oracle.verify_chain solves R2 as the full model's backup rows alone.

    Those rows, path_model_rows "rwap" to "r1", must hold no working (x)
    column and equal R2's rows over the w and y columns, which R2 holds
    with the same costs and bounds, after the x columns. The failure set is
    any subset of the edges, the empty one included.
    """
    instance = gen_random(nodes, extra, requests, max(1, requests) + spare, seed)
    failures = tuple(e for e in range(instance.num_edges) if fails[e % len(fails)])
    instance = dataclasses.replace(instance, failures=failures)
    full = build_ip_rwap_ppp(instance, relax=True)[0]
    r2 = build_ip_r2(instance, relax=True)[0]
    working, r1 = path_model_rows(instance, "rwap"), path_model_rows(instance, "r1")
    assert r1 - working == r2.num_rows
    x = full.num_variables - r2.num_variables
    assert x == instance.num_requests * instance.num_wavelengths * 2 * instance.num_edges
    for name in ("cost", "lower", "upper"):
        assert np.array_equal(getattr(full, name)[x:], getattr(r2, name)), name
    assert np.array_equal(full.senses[working:r1], r2.senses)
    assert np.array_equal(full.rhs[working:r1], r2.rhs)
    backup = full.matrix[working:r1]
    assert backup[:, :x].nnz == 0
    rows = backup[:, x:]
    assert np.array_equal(rows.indptr, r2.indptr)
    assert np.array_equal(rows.indices, r2.indices)
    assert np.array_equal(rows.data, r2.data)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(3, 7), st.integers(0, 2), st.integers(0, 3), st.integers(0, 1),
    st.integers(0, 10**6),
)
def test_lp_r3_blocks_are_the_masters_flow_blocks(nodes, extra, requests, spare, seed):
    """lp-r3 writes all its failure blocks in one pass, the master one block.

    Each failure tau's block of lp-r3, its columns mapped through
    VarMap.y_agg, must be the only flow block of build_master(instance, tau):
    the same senses, right-hand sides, coefficients and row names, whose
    t<tau> tag the two models share.
    """
    inst = gen_random(nodes, extra, requests, max(1, requests) + spare, seed)
    r3, vm = build_lp_r3(inst)
    size = r3.num_rows // len(inst.failures)
    assert size * len(inst.failures) == r3.num_rows
    for s, tau in enumerate(inst.failures):
        master, mvm = build_master(inst, tau)
        assert master.num_rows == size
        to_master = np.full(r3.num_variables, -1)
        to_master[vm.wbar] = mvm.wbar
        to_master[vm.y_agg[tau]] = mvm.y_agg[tau]
        block = slice(s * size, (s + 1) * size)
        assert np.array_equal(r3.senses[block], master.senses)
        assert np.array_equal(r3.rhs[block], master.rhs)
        assert r3.row_names[block] == master.row_names
        rows = r3.matrix[block]
        assert np.array_equal(rows.indptr, master.indptr)
        assert np.array_equal(to_master[rows.indices], master.indices)
        assert np.array_equal(rows.data, master.data)

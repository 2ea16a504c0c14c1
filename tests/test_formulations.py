import dataclasses
import hashlib

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
    demand_matrix,
    gen_cycle,
    gen_random,
    save_instance,
)
from lambdabound.lpmodel import (
    BINARY,
    CONTINUOUS,
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
        ids = []
        for block, name in _named_blocks(vm, net4):
            for index in np.ndindex(block.shape):
                assert model.variable_names[block[index]] == name(*index), label
            ids += block.ravel().tolist()
        assert ids and len(ids) == len(set(ids)), label
        # the subproblems' one other column is eps
        assert len(ids) == model.num_variables - label.startswith(("template", "sub")), label
        if vm.rows_capacity is not None:
            assert vm.rows_capacity.shape == (E,), label
            for e, row in enumerate(vm.rows_capacity):
                assert model.row_names[row].endswith(f"e{e}"), label
        assert all(type(vid) is int for row in model.rows for vid, _ in row.coeffs), label


@settings(max_examples=15, deadline=None)
@given(
    st.integers(3, 7), st.integers(0, 2), st.integers(1, 3), st.integers(0, 1),
    st.integers(0, 2**16),
)
def test_models_leave_presolve_nothing_to_pin_or_drop(nodes, extra, requests, spare, seed):
    """No built model has a fixed column or a row without coefficients, and
    presolve keeps every column and row: cols is [A | I] over the model."""
    inst = gen_random(nodes, extra, requests, requests + spare, seed)
    models = {name: build(inst) for name, build in _BUILDERS.items()}
    models["master"] = build_master(inst, min(inst.failures))[0]
    models["template"] = build_subproblem(inst, None, np.zeros(inst.num_edges))[0]
    for label, model in models.items():
        assert (model.lower < model.upper).all(), label
        assert (np.diff(model.indptr) > 0).all(), label
        shape = (model.num_rows, model.num_variables + model.num_rows)
        assert simplex.presolve(model).cols.shape == shape, label


# sha256 of the LP then MPS text of every CLI export model: exports must stay
# byte-identical, so any change to a builder's variables, rows or names shows here
EXPORT_DIGESTS = {
    ('net4', 'lp-rwap'): 'dd79c2f4f9fc382da3ddb3882f2799b24477cc13732df193a05dbfa0597aa5dc',
    ('net4', 'lp-rwap-ppp'): 'd303da265c7064ce65a11f905ed879802d07b18fd037ecbbdfddecde5d5941af',
    ('net4', 'lp-r1'): 'eddf4d55146df97bbad8aa3e92cf874aeddc1ba7965f66ad03f8e19ed23870ec',
    ('net4', 'lp-r2'): '3f8bfc5d76fa213caa82cc00f8d21d23cc04a2770eb0d15077eb9675a00beef6',
    ('net4', 'lp-r3'): '00e11d7032554df1a66bbe7cef13310baae39e1f15333535042070740ed256c0',
    ('net4', 'ip-rwap'): '5d90ffe9fd74fdb283e770e0f1daba76e221e566dfd327933eb202d20672d5dd',
    ('net4', 'ip-rwap-ppp'): '006cf1ba129d0650aface057beb3c42ea322c93899f7bbe1673fa2ab025aae38',
    ('net4', 'ip-r1'): '08c8d36f9ae3eb90cf7794d536f83a36e6adc04760a4532c1fcd552a0d16d9a0',
    ('net4', 'ip-r2'): 'f9605386c02ed596e2d791d92fa763075db992c8017470bba9f7f86da5f3bc13',
    ('random6', 'lp-rwap'): 'c658227b1e2b0fe95bc9dad1297cfd5ec222c51a589de9bc6380e1d3a2d13e4e',
    ('random6', 'lp-rwap-ppp'): '1eb3e5d2419c3c866eacfec2caaef6e03608c9af8d189df302647acfaffe05ff',
    ('random6', 'lp-r1'): '1bde3881e1bf3ce13e97334b8edaef8558930cdf0886311286b7989f7e5ae688',
    ('random6', 'lp-r2'): 'b86a4affd927031467fa37b22dabefb8360861d132ccee098fc1f049386a0927',
    ('random6', 'lp-r3'): 'f557183954444349fee60a25f90ca20437ca43a9451b0fa3cd13e0813f289d7c',
    ('random6', 'ip-rwap'): '24bc0afe25f8c0add63f4ba392e3d31a8652ff55a12afd194d28bbce203ce159',
    ('random6', 'ip-rwap-ppp'): 'e9a5da158a31ab733077ab1e4263c0a8ab0a51c6882fbc2b33ec6f253f4187c7',
    ('random6', 'ip-r1'): 'd9ca3d4e7207ee961b46f3337589bc302f873ed6d872e54177440a49cb437d0f',
    ('random6', 'ip-r2'): '48fdf2d931451170e9999f61495fc4106ad11016bc3a4f40955c8300375333b2',
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
TEMPLATE_DIGEST = 'd9e873472a9e880cda9de4ff43816c5dc11a36097c6e6698783f43f4bb415df8'

# master, then the subproblem of each failure at capacities 0.5
DECOMPOSITION_DIGESTS = [
    '82cea1c922ff5dbc33fd08a180acbf3ec8e4071160ff0663093d4440afdefb6b',
    '1b988647fcaffd844ce482e88b9e94156feccd5fbf99825e5ff094d9faf71b05',
    '343bc1966337967ee71587fbf9a3553bbabfa29e62aa65f359962c651ce596ed',
    '34d9251d6d9aebd9eb55ce633372976f038e8b324c80bfb8a5266d8441e2d3ce',
    '6ec2505eee36837b1faaeec5d4bb1a4689b4c3b0eb0742c6f591af187370e44a',
    '1838808d618dc94942136e1e2153388a816ce3f9b2d08d4927fb04307261c205',
    '6630104610c14f96f60391d2822f376dc24e5a1e0b6a41ab2fdd897c97579d19',
    'c2eec980359faed59a2404bb997f6dded8e83525cfc4a9260663385a49cdf2fd',
    'e51a3a4af288ae991816f8bc7abcc49a3f160abfc9176e372b260b442b3f948b',
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
    for name in ("b", "lb", "ub", "c", "forced"):
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

import json

import pytest

from lambdabound.instance import (
    Edge,
    Instance,
    InstanceParseError,
    InstanceValidationError,
    Network,
    Request,
    arc_ends,
    demand_matrix,
    gen_cycle,
    gen_random,
    is_connected,
    load_instance,
    save_instance,
)


def test_bundled_example_counts(net4):
    assert net4.num_nodes == 4
    assert net4.num_edges == 5
    assert net4.num_requests == 2
    assert len(net4.failures) == 3


def test_bundled_example_demand(net4):
    q = demand_matrix(net4)
    # labels 1..4 map to ids 0..3
    assert q[0, 2] == 1
    assert q[3, 2] == 1
    assert q.sum() == 2


def test_empty_requests():
    inst = load_instance(
        json.dumps(
            {
                "name": "empty",
                "num_wavelengths": 1,
                "nodes": [0, 1],
                "edges": [{"id": 0, "u": 0, "v": 1}],
                "requests": [],
            }
        )
    )
    assert inst.num_requests == 0
    assert inst.failures == (0,)  # defaults to every edge
    assert not demand_matrix(inst).any()


def test_self_request_rejected():
    doc = {
        "name": "bad",
        "num_wavelengths": 1,
        "nodes": [1, 2],
        "edges": [{"id": 0, "u": 1, "v": 2}],
        "requests": [{"s": 2, "t": 2}],
    }
    with pytest.raises(InstanceValidationError):
        load_instance(json.dumps(doc))


def test_parse_error_has_locus():
    with pytest.raises(InstanceParseError, match="line"):
        load_instance("{ not json")
    with pytest.raises(InstanceParseError, match="num_wavelengths"):
        load_instance(json.dumps({"name": "x", "nodes": [], "edges": [], "requests": []}))
    with pytest.raises(InstanceParseError, match=r"edges\[0\].u"):
        load_instance(
            json.dumps(
                {
                    "name": "x",
                    "num_wavelengths": 1,
                    "nodes": [1],
                    "edges": [{"id": 0, "v": 1}],
                    "requests": [],
                }
            )
        )


def test_validation_errors():
    base = {
        "name": "x",
        "num_wavelengths": 1,
        "nodes": [0, 1, 2],
        "edges": [
            {"id": 0, "u": 0, "v": 1},
            {"id": 1, "u": 1, "v": 2},
            {"id": 2, "u": 2, "v": 0},
        ],
        "requests": [],
    }
    bad = dict(base, num_wavelengths=0)
    with pytest.raises(InstanceValidationError, match="num_wavelengths"):
        load_instance(json.dumps(bad))
    bad = dict(base, failures=[7])
    with pytest.raises(InstanceValidationError, match="unknown edge id"):
        load_instance(json.dumps(bad))
    bad = dict(base, edges=base["edges"][:2])  # node 2 only reachable via edge 1
    bad["edges"] = [{"id": 0, "u": 0, "v": 1}]
    bad["nodes"] = [0, 1, 2]
    with pytest.raises(InstanceValidationError, match="not connected"):
        load_instance(json.dumps(bad))
    bad = dict(base, requests=[{"s": 0, "t": 9}])
    with pytest.raises(InstanceValidationError, match="unknown node label"):
        load_instance(json.dumps(bad))


def test_roundtrip_identity(net4):
    for inst in (net4, gen_cycle(5, 3, 80), gen_random(7, 3, 5, 9, seed=4)):
        again = load_instance(save_instance(inst))
        assert again == inst
        # canonical text is a fixed point
        assert save_instance(again) == save_instance(inst)


def test_label_mapping_is_sorted():
    doc = {
        "name": "labels",
        "num_wavelengths": 1,
        "nodes": ["c", "a", "b"],
        "edges": [
            {"id": 0, "u": "a", "v": "b"},
            {"id": 1, "u": "b", "v": "c"},
            {"id": 2, "u": "c", "v": "a"},
        ],
        "requests": [{"s": "c", "t": "a"}],
    }
    inst = load_instance(json.dumps(doc))
    assert inst.network.node_labels == ("a", "b", "c")
    assert inst.requests[0] == Request(s=2, t=0)


def test_gen_cycle_shape():
    inst = gen_cycle(3, 2, 80)
    assert inst.num_nodes == 3
    assert inst.num_edges == 3
    assert inst.requests == (Request(0, 2), Request(0, 2))
    assert inst.failures == (0, 1, 2)

    assert gen_cycle(5, 1, 1).num_edges == 5
    for bad in ((2, 1, 1), (3, 0, 1), (3, 2, 1)):
        with pytest.raises(ValueError):
            gen_cycle(*bad)


def test_gen_cycle_has_exactly_two_end_to_end_paths():
    from lambdabound.oracle import simple_paths

    for m in (3, 5, 8):
        inst = gen_cycle(m, 1, 1)
        paths = simple_paths(inst, 0, m - 1, cap=16)
        assert len(paths) == 2
        assert sorted(len(p) for p in paths) == [1, m - 1]


def test_gen_random_deterministic():
    a = gen_random(6, 3, 4, 10, seed=1)
    b = gen_random(6, 3, 4, 10, seed=1)
    assert a == b
    assert save_instance(a) == save_instance(b)
    assert gen_random(6, 3, 4, 10, seed=2) != a


def test_gen_random_cycle_only():
    inst = gen_random(6, 0, 4, 10, seed=1)
    assert inst.num_edges == 6
    for e in range(inst.num_edges):
        assert is_connected(inst.network, skip_edge=e)


def test_gen_random_survives_any_single_edge_removal():
    for seed in range(8):
        inst = gen_random(5 + seed % 4, seed % 5, 3, 5, seed=seed)
        for e in inst.failures:
            assert is_connected(inst.network, skip_edge=e)
        assert demand_matrix(inst).sum() == inst.num_requests


def test_gen_random_argument_errors():
    for bad in ((2, 0, 1, 1, 0), (5, -1, 1, 1, 0), (5, 0, 4, 3, 0)):
        with pytest.raises(ValueError):
            gen_random(*bad)


def test_demand_aggregation_of_identical_requests():
    inst = gen_cycle(3, 3, 3)
    q = demand_matrix(inst)
    assert q[0, 2] == q.sum() == 3


def test_arc_table_single_edge():
    net = Network(node_labels=(0, 1), edges=(Edge(0, 0, 1),))
    tail, head = arc_ends(net)
    # arc 0 runs 0 -> 1, arc 1 runs 1 -> 0
    assert tail.tolist() == [0, 1]
    assert head.tolist() == [1, 0]


def test_arc_table_cycle():
    tail, head = arc_ends(gen_cycle(3, 1, 1).network)
    assert len(tail) == len(head) == 6
    for v in range(3):
        assert (tail == v).sum() == 2
        assert (head == v).sum() == 2


def test_arc_table_parallel_edges():
    net = Network(node_labels=(0, 1), edges=(Edge(0, 0, 1), Edge(1, 0, 1)))
    tail, head = arc_ends(net)
    # arcs 2e and 2e+1 belong to edge e
    assert tail.tolist() == [0, 1, 0, 1]
    assert head.tolist() == [1, 0, 1, 0]


def test_parallel_edges_roundtrip():
    net = Network(node_labels=(0, 1, 2), edges=(Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 1, 2), Edge(3, 2, 0)))
    inst = Instance(name="multi", network=net, num_wavelengths=2,
                    requests=(Request(0, 2),), failures=(0, 1, 2, 3))
    assert load_instance(save_instance(inst)) == inst

"""Network instances for survivable routing and wavelength assignment.

An instance is an undirected multigraph with dense 0-based node and edge ids
(parallel edges are first-class, distinguished by edge id), a wavelength
budget, a list of unit-demand requests, and the set of edges whose single
failure the assignment must survive. Instances are immutable after
construction and safe to share across threads; generators are pure functions
of their arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np


class InstanceParseError(ValueError):
    """Instance file text that is not syntactically well-formed."""


class InstanceValidationError(ValueError):
    """Well-formed file whose content breaks an instance invariant."""


@dataclass(frozen=True)
class Edge:
    """Undirected link {u, v} keyed by a dense id."""

    id: int
    u: int
    v: int

    def other(self, node: int) -> int:
        return self.v if node == self.u else self.u

    def incident(self, node: int) -> bool:
        return node == self.u or node == self.v


@dataclass(frozen=True)
class Request:
    """Unit communication demand from node s to node t (s != t)."""

    s: int
    t: int


@dataclass(frozen=True)
class Network:
    """Multigraph over dense node ids; node_labels maps id -> external label."""

    node_labels: tuple
    edges: tuple[Edge, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.node_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def arc_ends(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head node of each of the 2|E| directed arcs.

    Arc 2e runs u -> v along edge e and arc 2e+1 runs v -> u.
    """
    edges = sorted(network.edges, key=lambda e: e.id)
    uv = np.array([(e.u, e.v) for e in edges], dtype=int).reshape(-1, 2)
    return uv.ravel(), uv[:, ::-1].ravel()


@dataclass(frozen=True)
class Instance:
    """A complete problem instance (network, wavelengths, requests, failures)."""

    name: str
    network: Network
    num_wavelengths: int
    requests: tuple[Request, ...]
    failures: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return self.network.num_nodes

    @property
    def num_edges(self) -> int:
        return self.network.num_edges

    @property
    def num_requests(self) -> int:
        return len(self.requests)


def demand_matrix(instance: Instance) -> np.ndarray:
    """Request counts q[s, t] as a (V, V) integer array."""
    q = np.zeros((instance.num_nodes, instance.num_nodes), dtype=int)
    for r in instance.requests:
        q[r.s, r.t] += 1
    return q


def adjacency(network: Network) -> list[list[tuple[int, int]]]:
    """Per node, the (edge id, other end) pair of each incident edge, ascending."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(network.num_nodes)]
    for e in network.edges:
        adj[e.u].append((e.id, e.v))
        adj[e.v].append((e.id, e.u))
    for pairs in adj:
        pairs.sort()
    return adj


def is_connected(network: Network, skip_edge: int | None = None) -> bool:
    """DFS connectivity over all nodes, optionally ignoring one edge."""
    n = network.num_nodes
    if n == 0:
        return True
    adj = adjacency(network)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for eid, w in adj[v]:
            if eid != skip_edge and not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def validate_instance(instance: Instance) -> None:
    """Raise InstanceValidationError on any broken invariant."""
    net = instance.network
    n = net.num_nodes
    if len(set(net.node_labels)) != n:
        raise InstanceValidationError("duplicate node labels")
    if instance.num_wavelengths < 1:
        raise InstanceValidationError("num_wavelengths must be >= 1")
    seen_ids = set()
    for e in net.edges:
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise InstanceValidationError(f"edge {e.id}: dangling node id")
        if e.u == e.v:
            raise InstanceValidationError(f"edge {e.id}: self-loop {e.u}")
        seen_ids.add(e.id)
    if seen_ids != set(range(net.num_edges)):
        raise InstanceValidationError("edge ids must be exactly 0..|E|-1")
    for i, r in enumerate(instance.requests):
        if not (0 <= r.s < n and 0 <= r.t < n):
            raise InstanceValidationError(f"request {i}: dangling node id")
        if r.s == r.t:
            raise InstanceValidationError(f"request {i}: origin equals destination")
    for f in instance.failures:
        if not (0 <= f < net.num_edges):
            raise InstanceValidationError(f"failure set contains unknown edge id {f}")
    if len(set(instance.failures)) != len(instance.failures):
        raise InstanceValidationError("failure set contains duplicates")
    if n > 0 and not is_connected(net):
        raise InstanceValidationError("network is not connected")


def _label_key(label):
    # ints sort before strings; each group sorts naturally
    if isinstance(label, int):
        return (0, label, "")
    return (1, 0, str(label))


def load_instance(text: str) -> Instance:
    """Parse and validate an instance file (see save_instance for the format)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InstanceParseError("nests deeper than the recursion limit") from exc
    if not isinstance(doc, dict):
        raise InstanceParseError("top level: expected an object")

    def need(key, kind, kindname):
        if key not in doc:
            raise InstanceParseError(f"field '{key}': missing")
        val = doc[key]
        if not isinstance(val, kind) or isinstance(val, bool):
            raise InstanceParseError(f"field '{key}': expected {kindname}")
        return val

    name = need("name", str, "string")
    k = need("num_wavelengths", int, "integer")
    raw_nodes = need("nodes", list, "array")
    raw_edges = need("edges", list, "array")
    raw_requests = need("requests", list, "array")

    for i, label in enumerate(raw_nodes):
        if isinstance(label, bool) or not isinstance(label, (int, str)):
            raise InstanceParseError(f"field 'nodes[{i}]': labels must be int or string")
    labels = tuple(sorted(raw_nodes, key=_label_key))
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(raw_nodes):
        raise InstanceValidationError("duplicate node labels")

    def node_of(label, locus):
        if isinstance(label, bool) or not isinstance(label, (int, str)):
            raise InstanceParseError(f"field '{locus}': labels must be int or string")
        if label not in index:
            raise InstanceValidationError(f"{locus}: unknown node label {label!r}")
        return index[label]

    edges = []
    for i, rec in enumerate(raw_edges):
        if not isinstance(rec, dict):
            raise InstanceParseError(f"field 'edges[{i}]': expected an object")
        for key in ("id", "u", "v"):
            if key not in rec:
                raise InstanceParseError(f"field 'edges[{i}].{key}': missing")
        if isinstance(rec["id"], bool) or not isinstance(rec["id"], int):
            raise InstanceParseError(f"field 'edges[{i}].id': expected integer")
        edges.append(
            Edge(
                id=rec["id"],
                u=node_of(rec["u"], f"edges[{i}].u"),
                v=node_of(rec["v"], f"edges[{i}].v"),
            )
        )
    edges.sort(key=lambda e: e.id)

    requests = []
    for i, rec in enumerate(raw_requests):
        if not isinstance(rec, dict):
            raise InstanceParseError(f"field 'requests[{i}]': expected an object")
        for key in ("s", "t"):
            if key not in rec:
                raise InstanceParseError(f"field 'requests[{i}].{key}': missing")
        requests.append(
            Request(
                s=node_of(rec["s"], f"requests[{i}].s"),
                t=node_of(rec["t"], f"requests[{i}].t"),
            )
        )

    if "failures" in doc:
        raw_failures = doc["failures"]
        if not isinstance(raw_failures, list):
            raise InstanceParseError("field 'failures': expected array")
        for i, f in enumerate(raw_failures):
            if isinstance(f, bool) or not isinstance(f, int):
                raise InstanceParseError(f"field 'failures[{i}]': expected integer")
        failures = tuple(sorted(raw_failures))
    else:
        failures = tuple(range(len(edges)))

    instance = Instance(
        name=name,
        network=Network(node_labels=labels, edges=tuple(edges)),
        num_wavelengths=k,
        requests=tuple(requests),
        failures=failures,
    )
    validate_instance(instance)
    return instance


def save_instance(instance: Instance) -> str:
    """Serialize to canonical UTF-8 JSON (stable key order, sorted failures)."""
    labels = instance.network.node_labels
    doc = {
        "name": instance.name,
        "num_wavelengths": instance.num_wavelengths,
        "nodes": list(labels),
        "edges": [
            {"id": e.id, "u": labels[e.u], "v": labels[e.v]}
            for e in instance.network.edges
        ],
        "requests": [{"s": labels[r.s], "t": labels[r.t]} for r in instance.requests],
        "failures": sorted(instance.failures),
    }
    return json.dumps(doc, indent=2) + "\n"


def gen_cycle(m: int, n: int, k: int) -> Instance:
    """Ring of m nodes with n identical 0 -> m-1 requests; every edge can fail."""
    if m < 3:
        raise ValueError("gen_cycle: m must be >= 3")
    if n < 1:
        raise ValueError("gen_cycle: n must be >= 1")
    if k < n:
        raise ValueError("gen_cycle: k must be >= n")
    edges = [Edge(id=i, u=i, v=i + 1) for i in range(m - 1)]
    edges.append(Edge(id=m - 1, u=0, v=m - 1))
    return Instance(
        name=f"cycle-m{m}-n{n}-k{k}",
        network=Network(node_labels=tuple(range(m)), edges=tuple(edges)),
        num_wavelengths=k,
        requests=tuple(Request(0, m - 1) for _ in range(n)),
        failures=tuple(range(m)),
    )


def gen_random(
    num_nodes: int, extra_edges: int, num_requests: int, k: int, seed: int
) -> Instance:
    """Random 2-edge-connected instance: a Hamiltonian ring plus random chords.

    Deterministic for a fixed seed. Every single-edge failure leaves the graph
    connected, and k >= num_requests keeps the instance protectable.
    """
    if num_nodes < 3:
        raise ValueError("gen_random: num_nodes must be >= 3")
    if extra_edges < 0:
        raise ValueError("gen_random: extra_edges must be >= 0")
    if num_requests < 0:
        raise ValueError("gen_random: num_requests must be >= 0")
    if k < max(1, num_requests):
        raise ValueError("gen_random: k must be >= num_requests (and >= 1)")
    rng = random.Random(seed)
    order = list(range(num_nodes))
    rng.shuffle(order)
    edges = []
    for i in range(num_nodes):
        u, v = order[i], order[(i + 1) % num_nodes]
        edges.append(Edge(id=i, u=u, v=v))
    for j in range(extra_edges):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes - 1)
        if v >= u:
            v += 1
        edges.append(Edge(id=num_nodes + j, u=u, v=v))
    requests = []
    for _ in range(num_requests):
        s = rng.randrange(num_nodes)
        t = rng.randrange(num_nodes - 1)
        if t >= s:
            t += 1
        requests.append(Request(s, t))
    return Instance(
        name=f"random-n{num_nodes}-x{extra_edges}-d{num_requests}-k{k}-s{seed}",
        network=Network(node_labels=tuple(range(num_nodes)), edges=tuple(edges)),
        num_wavelengths=k,
        requests=tuple(requests),
        failures=tuple(range(len(edges))),
    )


def bundled_text(filename: str) -> str:
    """Text of a data file shipped with the package (e.g. 'net4.json')."""
    return (resources.files("lambdabound") / "data" / filename).read_text("utf-8")

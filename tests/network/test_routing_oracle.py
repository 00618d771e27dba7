"""The layered-BFS routing tree against a networkx Dijkstra reference.

``dijkstra_reference`` is the weighted shortest-path construction the
simulator used before the layered search: every edge weighs
``1 + length / (total length + 1)``, so hop count dominates and length
breaks ties.  The two agree wherever the graph has no exact length tie;
on a tie the layered search takes the smallest parent id, which the
lattice tests pin.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import build_routing_tree
from repro.network.topology import BASE_STATION_ID, communication_graph
from repro.utils.geometry import Point


def dijkstra_reference(graph: nx.Graph, alive: set[int] | None = None):
    """``(parent, uplink_distance, disconnected)`` from networkx Dijkstra."""
    nodes = set(graph.nodes) if alive is None else set(alive) | {BASE_STATION_ID}
    subgraph = graph.subgraph(nodes)
    max_total = sum(d for _, _, d in subgraph.edges(data="distance")) + 1.0
    weight = {(u, v): 1.0 + d / max_total for u, v, d in subgraph.edges(data="distance")}

    def edge_weight(u: int, v: int, _attrs: dict) -> float:
        return weight.get((u, v), weight.get((v, u), 1.0))

    _, paths = nx.single_source_dijkstra(subgraph, BASE_STATION_ID, weight=edge_weight)
    parent: dict[int, int | None] = {BASE_STATION_ID: None}
    uplink: dict[int, float] = {}
    for node, path in paths.items():
        if node != BASE_STATION_ID:
            parent[node] = path[-2]
            uplink[node] = float(subgraph.edges[node, path[-2]]["distance"])
    disconnected = frozenset(
        n for n in nodes if n != BASE_STATION_ID and n not in parent
    )
    return parent, uplink, disconnected


def random_world(seed: int, node_count: int, comm_range: float, alive_frac: float):
    """A uniform random deployment (not forced connected) and an alive set."""
    rng = np.random.default_rng(seed)
    side = 100.0 * np.sqrt(node_count / 200.0)
    xy = rng.uniform(0.0, side, size=(node_count, 2))
    positions = [Point(float(x), float(y)) for x, y in xy]
    graph = communication_graph(positions, Point(side / 2, side / 2), comm_range)
    alive_count = int(round(alive_frac * node_count))
    alive = set(rng.choice(node_count, size=alive_count, replace=False).tolist())
    return graph, alive


class TestAgainstDijkstra:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        node_count=st.integers(min_value=1, max_value=250),
        comm_range=st.floats(min_value=12.0, max_value=35.0),
        alive_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_worlds(
        self, seed, node_count, comm_range, alive_frac
    ):
        graph, alive = random_world(seed, node_count, comm_range, alive_frac)
        tree = build_routing_tree(graph, alive)
        parent, uplink, disconnected = dijkstra_reference(graph, alive)
        assert tree.parent == parent
        assert tree.uplink_distance == uplink
        assert tree.disconnected == disconnected

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        alive_frac=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_on_sparse_alive_sets(self, seed, alive_frac):
        graph, alive = random_world(seed, 400, 20.0, alive_frac)
        tree = build_routing_tree(graph, alive)
        parent, uplink, disconnected = dijkstra_reference(graph, alive)
        assert tree.parent == parent
        assert tree.uplink_distance == uplink
        assert tree.disconnected == disconnected

    def test_matches_reference_with_everything_alive(self):
        graph, _ = random_world(11, 300, 20.0, 1.0)
        tree = build_routing_tree(graph)
        parent, uplink, disconnected = dijkstra_reference(graph)
        assert (tree.parent, tree.uplink_distance, tree.disconnected) == (
            parent,
            uplink,
            disconnected,
        )


def lattice_graph(side: int, spacing: float = 10.0, comm_range: float = 20.0):
    """BS at the origin, one node on every other point of a square lattice."""
    positions = [
        Point(spacing * i, spacing * j)
        for i in range(side)
        for j in range(side)
        if (i, j) != (0, 0)
    ]
    return communication_graph(positions, Point(0.0, 0.0), comm_range)


def check_tie_rule(graph: nx.Graph, tree) -> int:
    """Assert every parent is the ``(length, id)`` minimum of its layer.

    Returns how many nodes had an exact length tie between candidates.
    """
    members = set(tree.parent)
    hops = nx.single_source_shortest_path_length(graph.subgraph(members), BASE_STATION_ID)
    length = {BASE_STATION_ID: 0.0}
    for v in sorted(members - {BASE_STATION_ID}, key=hops.__getitem__):
        length[v] = length[tree.parent[v]] + graph.edges[v, tree.parent[v]]["distance"]
    ties = 0
    for v in members - {BASE_STATION_ID}:
        candidates = sorted(
            (length[u] + graph.edges[u, v]["distance"], u)
            for u in graph.adj[v]
            if u in members and hops[u] == hops[v] - 1
        )
        assert (length[v], tree.parent[v]) == candidates[0]
        if len(candidates) > 1 and candidates[1][0] == candidates[0][0]:
            ties += 1
    return ties


class TestTieRule:
    def test_equal_length_routes_take_smallest_parent_id(self):
        # BS at the origin; nodes 0 and 1 one hop away; node 2 two hops
        # away through either, both routes exactly 20 m long.
        positions = [Point(10, 0), Point(0, 10), Point(10, 10)]
        tree = build_routing_tree(communication_graph(positions, Point(0, 0), 12.0))
        assert tree.parent[2] == 0

    def test_full_lattice(self):
        graph = lattice_graph(8)
        assert check_tie_rule(graph, build_routing_tree(graph)) > 0

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        alive_frac=st.floats(min_value=0.3, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_lattice_with_dead_nodes(self, seed, alive_frac):
        graph = lattice_graph(7)
        sensors = sorted(n for n in graph if n != BASE_STATION_ID)
        rng = np.random.default_rng(seed)
        alive = set(
            rng.choice(sensors, size=int(alive_frac * len(sensors)), replace=False).tolist()
        )
        tree = build_routing_tree(graph, alive)
        check_tie_rule(graph, tree)
        assert tree.disconnected == frozenset(alive - set(tree.parent))

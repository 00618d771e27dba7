"""Data-gathering routing tree.

All sensor data flows to the base station over a shortest-path tree of the
communication graph (hop count first, total Euclidean length as the
tie-breaker — the standard minimum-hop/minimum-energy compromise).  The
tree is recomputed whenever a node dies; nodes cut off from the base
station stop generating billable traffic but keep paying their baseline
draw (their radios idle without a route).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.topology import BASE_STATION_ID

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "RoutingTree",
    "build_routing_tree",
    "descendants_by_node",
    "subtree_sizes",
]


class RoutingTree:
    """A rooted data-gathering tree.

    Attributes
    ----------
    parent:
        Maps each connected node id to its next hop toward the base
        station (the base station maps to ``None``).
    uplink_distance:
        Maps each connected node id to the Euclidean length of its uplink.
    disconnected:
        Node ids present in the graph but unable to reach the base station.
    """

    def __init__(
        self,
        parent: dict[int, int | None],
        uplink_distance: dict[int, float],
        disconnected: frozenset[int],
    ) -> None:
        self.parent = parent
        self.uplink_distance = uplink_distance
        self.disconnected = disconnected
        self._children: dict[int, list[int]] = {}
        for child, par in parent.items():
            if par is not None:
                self._children.setdefault(par, []).append(child)
        for kids in self._children.values():
            kids.sort()

    def children(self, node_id: int) -> list[int]:
        """Direct children of ``node_id`` in the tree (sorted for determinism)."""
        return list(self._children.get(node_id, ()))

    def connected_nodes(self) -> list[int]:
        """Sensor node ids with a route to the base station (sorted)."""
        return sorted(n for n in self.parent if n != BASE_STATION_ID)

    def is_connected(self, node_id: int) -> bool:
        """Whether the node can reach the base station."""
        return node_id in self.parent

    def path_to_base(self, node_id: int) -> list[int]:
        """The node's route to the base station, inclusive of both ends."""
        if node_id not in self.parent:
            raise KeyError(f"node {node_id} has no route to the base station")
        path = [node_id]
        while path[-1] != BASE_STATION_ID:
            path.append(self.parent[path[-1]])
        return path

    def depth(self, node_id: int) -> int:
        """Hop count from the node to the base station."""
        return len(self.path_to_base(node_id)) - 1


def build_routing_tree(graph: nx.Graph, alive: set[int] | None = None) -> RoutingTree:
    """Shortest-path tree to the base station over the alive subgraph.

    Parameters
    ----------
    graph:
        Communication graph including :data:`BASE_STATION_ID`.
    alive:
        Sensor node ids currently alive; ``None`` means all.  The base
        station never dies.

    Paths minimise hop count, then total Euclidean length.  The search
    runs by hop layers from the base station: every node of layer ``k``
    takes as parent the layer ``k - 1`` neighbour with the smallest
    ``(parent length + edge distance, parent id)``, so an exact length
    tie goes to the smallest parent id and the tree is deterministic for
    a given graph.
    """
    if BASE_STATION_ID not in graph:
        raise ValueError("graph must contain the base station vertex")
    nodes = set(graph) if alive is None else set(alive) | {BASE_STATION_ID}
    adj = graph._adj
    parent: dict[int, int | None] = {BASE_STATION_ID: None}
    uplink: dict[int, float] = {}
    length = {BASE_STATION_ID: 0.0}
    layer = [BASE_STATION_ID]
    while layer:
        best: dict[int, tuple[float, int, float]] = {}
        for u in layer:
            for v, attrs in adj[u].items():
                if v in parent or v not in nodes:
                    continue
                d = attrs["distance"]
                candidate = (length[u] + d, u, d)
                if v not in best or candidate < best[v]:
                    best[v] = candidate
        for v, (length_v, u, d) in best.items():
            parent[v] = u
            uplink[v] = float(d)
            length[v] = length_v
        layer = list(best)

    disconnected = frozenset(
        n for n in nodes if n != BASE_STATION_ID and n not in parent
    )
    return RoutingTree(parent, uplink, disconnected)


def _post_order(tree: RoutingTree) -> list[int]:
    """Tree vertices, every child before its parent (children visited in
    the same sorted order the recursive implementations used).

    Iterative so chain topologies thousands of hops deep — well past
    Python's ~1000-frame recursion limit — stay in bounds.
    """
    order: list[int] = []
    stack: list[int] = [BASE_STATION_ID]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(tree.children(node_id))
    order.reverse()
    return order


def subtree_sizes(tree: RoutingTree) -> dict[int, int]:
    """Number of sensor nodes in each node's subtree, itself included."""
    sizes: dict[int, int] = {}
    for node_id in _post_order(tree):
        total = 0 if node_id == BASE_STATION_ID else 1
        for child in tree.children(node_id):
            total += sizes[child]
        sizes[node_id] = total
    return sizes


def descendants_by_node(tree: RoutingTree) -> dict[int, frozenset[int]]:
    """Sensor-node descendants of every tree vertex (excluding itself)."""
    result: dict[int, frozenset[int]] = {}
    for node_id in _post_order(tree):
        acc: set[int] = set()
        for child in tree.children(node_id):
            acc.add(child)
            acc |= result[child]
        result[node_id] = frozenset(acc)
    return result

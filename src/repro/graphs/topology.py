"""Lightweight undirected graph container used throughout the reproduction.

The simulator, the generators and the analysis code all operate on
:class:`Graph`, a minimal adjacency-set representation of a simple undirected
graph whose vertices are the integers ``0 .. n - 1``.  The class intentionally
exposes only what the paper's model needs (degrees, neighbours, cuts, volumes)
plus conversions to ``networkx`` and ``numpy`` for the analysis helpers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Set, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Graph"]


class Graph:
    """A simple undirected graph on vertices ``0 .. num_nodes - 1``.

    Parallel edges and self-loops are rejected: the paper's model (and every
    construction in it) uses simple graphs, and a self-loop would distort the
    degree-based volume and conductance computations.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("a graph needs at least one node, got %d" % num_nodes)
        self._adjacency: List[Set[int]] = [set() for _ in range(num_nodes)]
        self._num_edges = 0
        # Bumped on every mutation; lets derived values (e.g. the executor's
        # edge digest) be memoised safely against later edits.
        self._mutations = 0

    # ------------------------------------------------------------------ basic
    @property
    def num_nodes(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    def nodes(self) -> range:
        """All vertices as a range object."""
        return range(self.num_nodes)

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.num_nodes:
            raise ValueError("node %r is outside [0, %d)" % (v, self.num_nodes))

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``{u, v}``.

        Raises ``ValueError`` for self-loops or out-of-range endpoints and for
        duplicate edges (duplicates usually indicate a generator bug, so we
        fail loudly instead of silently ignoring them).
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError("self-loops are not allowed (node %d)" % u)
        if v in self._adjacency[u]:
            raise ValueError("edge (%d, %d) already present" % (u, v))
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1
        self._mutations += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}``; raises if it is absent."""
        self._check_node(u)
        self._check_node(v)
        if v not in self._adjacency[u]:
            raise ValueError("edge (%d, %d) is not present" % (u, v))
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._num_edges -= 1
        self._mutations += 1

    def has_edge(self, u: int, v: int) -> bool:
        """Return True when ``{u, v}`` is an edge."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adjacency[u]

    def neighbors(self, v: int) -> List[int]:
        """Sorted list of neighbours of ``v`` (sorted for determinism)."""
        self._check_node(v)
        return sorted(self._adjacency[v])

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_node(v)
        return len(self._adjacency[v])

    def degrees(self) -> List[int]:
        """Degree sequence indexed by vertex."""
        return [len(adj) for adj in self._adjacency]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` pairs with ``u < v``."""
        for u, adj in enumerate(self._adjacency):
            for v in sorted(adj):
                if u < v:
                    yield (u, v)

    def copy(self) -> "Graph":
        """Deep copy of the graph."""
        clone = Graph(self.num_nodes)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self._adjacency == other._adjacency
        )

    def __repr__(self) -> str:
        return "Graph(n=%d, m=%d)" % (self.num_nodes, self.num_edges)

    # ------------------------------------------------------------- structure
    def is_connected(self) -> bool:
        """Breadth-first connectivity check."""
        if self.num_nodes == 1:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == self.num_nodes

    def connected_components(self) -> List[Set[int]]:
        """All connected components as sets of vertices."""
        unseen = set(self.nodes())
        components: List[Set[int]] = []
        while unseen:
            root = next(iter(unseen))
            component = {root}
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self._adjacency[u]:
                        if v not in component:
                            component.add(v)
                            nxt.append(v)
                frontier = nxt
            components.append(component)
            unseen -= component
        return components

    def bfs_distances(self, source: int) -> List[int]:
        """Hop distances from ``source``; unreachable vertices get ``-1``."""
        self._check_node(source)
        dist = [-1] * self.num_nodes
        dist[source] = 0
        frontier = [source]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if dist[v] < 0:
                        dist[v] = level
                        nxt.append(v)
            frontier = nxt
        return dist

    def diameter(self) -> int:
        """Exact diameter via all-sources BFS; raises if disconnected."""
        worst = 0
        for source in self.nodes():
            dist = self.bfs_distances(source)
            if min(dist) < 0:
                raise ValueError("diameter is undefined for a disconnected graph")
            worst = max(worst, max(dist))
        return worst

    # ------------------------------------------------------- cuts and volume
    def volume(self, nodes: Iterable[int]) -> int:
        """Sum of degrees over ``nodes`` (the paper's ``Vol``)."""
        return sum(self.degree(v) for v in set(nodes))

    def total_volume(self) -> int:
        """Volume of the whole vertex set, i.e. ``2 m``."""
        return 2 * self._num_edges

    def cut_edges(self, nodes: Iterable[int]) -> int:
        """Number of edges crossing the cut ``(S, V \\ S)``."""
        side = set(nodes)
        crossing = 0
        for u in side:
            self._check_node(u)
            for v in self._adjacency[u]:
                if v not in side:
                    crossing += 1
        return crossing

    # ---------------------------------------------------------- conversions
    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``n x n`` 0/1 adjacency matrix (numpy is imported here, on
        first use, not with the graph)."""
        import numpy as np

        matrix = np.zeros((self.num_nodes, self.num_nodes), dtype=float)
        for u, v in self.edges():
            matrix[u, v] = 1.0
            matrix[v, u] = 1.0
        return matrix

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (import deferred to call time)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build a :class:`Graph` from any ``networkx`` graph.

        Node labels are remapped to ``0 .. n - 1`` in sorted-label order so the
        result is deterministic for a given input graph.
        """
        labels = sorted(nx_graph.nodes())
        index = {label: i for i, label in enumerate(labels)}
        graph = cls(len(labels))
        for a, b in nx_graph.edges():
            u, v = index[a], index[b]
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
        return graph

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Sequence[Tuple[int, int]]) -> "Graph":
        """Build a graph from an explicit edge list."""
        graph = cls(num_nodes)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

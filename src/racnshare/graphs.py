"""Path-derived graph families used throughout the package.

All graphs here are small, simple, undirected graphs over vertices
``0..n-1``. ``build_graph(family, p)`` builds each family from the path
P_p on x_1..x_p; the three derived ones add a vertex y_t for each x_t:

* shadow: y_1..y_p form a second copy of P_p, and every x_t is also joined
  to the neighbours of its twin, giving edges x_t y_{t+1} and y_t x_{t+1}.
* splitting: y_t is joined to the neighbours of x_t only (x-path edges
  kept, no y-y edges).
* mycielskian: y_t joined to the neighbours of x_t, plus an apex vertex
  adjacent to every y_t.

Vertex layout is fixed so labelings and serialization are reproducible:
x_1..x_p occupy indices 0..p-1, y_1..y_p occupy p..2p-1, and the apex
(when present) is the last index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidParameterError

FAMILIES = ("path", "shadow", "splitting", "mycielski")

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph; names[v] is vertex v's display name."""

    n: int
    edges: tuple[Edge, ...]
    names: tuple[str, ...]
    family: str | None = None
    p: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("graph needs at least one vertex")
        if len(self.names) != self.n:
            raise InvalidParameterError("names must cover every vertex")
        if not all(type(name) is str for name in self.names) or len(set(self.names)) != self.n:
            raise InvalidParameterError(f"vertex names must be distinct strings, got {list(self.names)!r}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise InvalidParameterError(f"bad edge ({u},{v}) for n={self.n}")
            if (u, v) in seen:
                raise InvalidParameterError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edge_set

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidParameterError(f"no vertex named {name!r}") from None

    def is_connected(self) -> bool:
        return len(bfs_parents(self, (0,))) == self.n


def bfs_parents(g: Graph, sources) -> dict[int, int | None]:
    """Each vertex reachable from ``sources``, in discovery order, mapped to
    the vertex it was first reached from (None for a source). O(n + m)."""
    parent: dict[int, int | None] = dict.fromkeys(sources)
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    return parent


def _require_p(p: int) -> None:
    if not isinstance(p, int) or p < 2:
        raise InvalidParameterError(f"p must be an integer >= 2, got {p!r}")


def build_graph(family: str, p: int) -> Graph:
    """The graph of ``family`` (one of FAMILIES) on P_p: the path itself (p
    vertices, p-1 edges), its shadow (2p vertices, 4(p-1) edges), its
    splitting graph (2p vertices, 3(p-1) edges, no y-y edges) or its
    Mycielskian (2p+1 vertices with the apex last, 4p-3 edges)."""
    if family not in FAMILIES:
        raise InvalidParameterError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}"
        )
    _require_p(p)
    names = [f"x{t}" for t in range(1, p + 1)]
    edges: list[Edge] = [(t - 1, t) for t in range(1, p)]
    if family != "path":
        names += [f"y{t}" for t in range(1, p + 1)]
        for t in range(1, p):
            edges += [(t - 1, p + t), (t, p + t - 1)]
            if family == "shadow":
                edges.append((p + t - 1, p + t))
    if family == "mycielski":
        edges += [(p + t, 2 * p) for t in range(p)]
        names.append("a")
    return Graph(len(names), tuple(sorted(edges)), tuple(names), family=family, p=p)


def custom_graph(n: int, edges, names=None, family: str | None = None) -> Graph:
    """An arbitrary graph (for fixtures); vertex v is named str(v + 1) by default."""
    names = tuple(names) if names is not None else tuple(str(v + 1) for v in range(n))
    norm = tuple(sorted(_norm_edge(u, v) for u, v in edges))
    return Graph(n, norm, names, family=family)


def degree_stats(g: Graph) -> tuple[int, int]:
    """(minimum degree, maximum degree)."""
    degs = [len(a) for a in g.adjacency]
    return min(degs), max(degs)


def diameter(g: Graph) -> int:
    """Longest shortest-path distance; graph must be connected."""
    if not g.is_connected():
        raise InvalidParameterError("diameter is undefined for disconnected graphs")
    best = 0
    for s in range(g.n):
        parent = bfs_parents(g, (s,))
        v, depth = next(reversed(parent)), 0  # the last vertex found is a farthest one
        while parent[v] is not None:
            v, depth = parent[v], depth + 1
        best = max(best, depth)
    return best


def bridge_count(g: Graph) -> int:
    """Edges whose removal disconnects the connected graph ``g``: one
    iterative DFS from vertex 0 with Tarjan's low points, O(n + m)."""
    depth = [-1] * g.n
    low = [0] * g.n
    depth[0] = 0
    # frame: a vertex, its DFS parent (-1 for the root) and its unread neighbours
    stack = [(0, -1, iter(g.adjacency[0]))]
    count = 0
    while stack:
        v, parent, nbrs = stack[-1]
        for u in nbrs:
            if depth[u] < 0:
                depth[u] = low[u] = depth[v] + 1
                stack.append((u, v, iter(g.adjacency[u])))
                break
            if u != parent:
                low[v] = min(low[v], depth[u])
        else:
            stack.pop()
            if parent >= 0:
                low[parent] = min(low[parent], low[v])
                count += low[v] > depth[parent]
    return count

"""Rainbow-path search and the exact minimum-color-count solver.

A path is *rainbow* when its edge weights are pairwise distinct; a coloring
is *rainbow connected* when every vertex pair is joined by some rainbow
path. The minimum, over all bijective labelings whose induced coloring is
rainbow connected, of the number of distinct edge weights (the racn) is
computed exactly by ``racn_exact`` for small graphs.

``racn_exact`` deepens a bound on the weight count and runs one
backtracking search, ``_first_labeling``, in two vertex orders: a
maximum-cardinality order proves the infeasible levels, and index order
finds the lexicographically first witness at the first feasible one. Both
passes forward-check the frontier (the unlabeled vertices next to labeled
ones) against the bound, which removes only subtrees with no complete
labeling, so the witness is the one a plain index-order search returns.

One iterative enumerator, ``_rainbow_paths``, serves all four callers: a
lexicographic DFS over an adjacency built once per coloring, with used
vertices and classes kept as int bitmasks, yielding every rainbow path as
it is pushed. ``exists_rainbow_path``, ``is_rainbow_connected`` and the
leaf test of ``racn_exact`` stop once every target is reached: the path on
the stack at the first arrival at v is the path a DFS aimed at v would
return, so n single-source searches replace n(n-1)/2 pair searches.
``max_new_color_path`` and the cover search in ``protocol`` read every
path.

All searches are deterministic: neighbors are visited in ascending index
order and ties are broken lexicographically on the vertex sequence, so
repeated runs yield identical witnesses.

Every budgeted search, here and in ``protocol``, keeps one rule: it counts
the nodes it pushes, never its root, and node ``budget + 1`` raises
``BudgetExceededError(_EXHAUSTED)``. ``DEFAULT_NODE_BUDGET`` is each
search's default budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    InstanceTooLargeError,
    InvalidParameterError,
    NotConnectedError,
)
from .graphs import Graph, degree_stats, diameter
from .labelings import Labeling, WeightedColoring, distinct_weight_count, edge_weights

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_MAX_N = 8  # racn_exact's size cap
_EXHAUSTED = "path-search node budget exhausted"


@dataclass(frozen=True)
class RainbowPath:
    """A simple path whose edge weights are pairwise distinct."""

    vertices: tuple[int, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != max(len(self.vertices) - 1, 0):
            raise InvalidParameterError("weights must have one entry per edge")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidParameterError("path repeats a vertex")
        if len(set(self.weights)) != len(self.weights):
            raise InvalidParameterError("path repeats a weight; not rainbow")

    @property
    def edge_count(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class RainbowConnectivity:
    """Outcome of a pairwise rainbow-connectivity check."""

    connected: bool
    witnesses: dict[tuple[int, int], RainbowPath]
    failing_pair: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.connected


@dataclass(frozen=True)
class RacnCertificate:
    """Result of the exact search: minimum color count plus a witness.

    ``examined``: complete labelings tested, over all deepening levels and
    both passes (feasibility, then witness).
    """

    value: int
    witness: Labeling
    exhaustive: bool
    examined: int


def _adjacency(g: Graph, w: WeightedColoring) -> list[list[tuple[int, int, int]]]:
    """``(neighbour, weight, class_bit)`` entries in ascending neighbour order.

    Bit i stands for the i-th smallest weight.
    """
    bit_of = {wt: 1 << i for i, wt in enumerate(sorted(w.classes))}
    return [[(b, wt, bit_of[wt]) for b in nbrs for wt in (w.weight(a, b),)]
            for a, nbrs in enumerate(g.adjacency)]


def _rainbow_paths(adj, sources, budget: float = float("inf")):
    """Every rainbow path from each source, in lexicographic DFS order.

    Yields ``(taken, seen, used)`` at each push: ``taken`` is the live stack
    (the root ``(source, 0, 0)``, then the adjacency entry of each edge on
    the path), and ``seen``/``used`` are the vertex and class bitmasks.
    Pushes are counted over all sources; push ``budget + 1`` raises
    ``BudgetExceededError``.
    """
    pushes = 0
    for s in sources:
        stack = [iter(adj[s])]
        taken = [(s, 0, 0)]
        seen, used = 1 << s, 0
        while stack:
            for e in stack[-1]:
                if not (seen >> e[0] & 1 or used & e[2]):
                    break
            else:
                stack.pop()
                b, _, bit = taken.pop()
                seen ^= 1 << b
                used ^= bit
                continue
            pushes += 1
            if pushes > budget:
                raise BudgetExceededError(_EXHAUSTED)
            seen |= 1 << e[0]
            used |= e[2]
            taken.append(e)
            yield taken, seen, used
            stack.append(iter(adj[e[0]]))


def _as_path(taken) -> RainbowPath:
    # tuple(list) allocates once; tuple(genexp) reallocs
    return RainbowPath(tuple([t[0] for t in taken]), tuple([t[1] for t in taken[1:]]))


def _first_arrivals(adj, u: int, targets: int, budget: float = float("inf"), paths=None) -> int:
    """Search from ``u`` until every target (a bitmask) is reached.

    ``paths[v]`` gets the path at the first arrival at each target v; a DFS
    aimed at v alone pushes exactly the same nodes up to there. Returns the
    unreached targets.
    """
    for taken, _, _ in _rainbow_paths(adj, (u,), budget):
        b = taken[-1][0]
        if targets >> b & 1:
            targets ^= 1 << b
            if paths is not None:
                paths[b] = _as_path(taken)
            if not targets:
                break
    return targets


def exists_rainbow_path(
    g: Graph,
    w: WeightedColoring,
    u: int,
    v: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RainbowPath | None:
    """First rainbow u-v path in lexicographic DFS order, or None.

    Raises ``BudgetExceededError`` when the search pushes more than
    ``node_budget`` nodes before it finds the path or proves there is none.
    """
    if u == v:
        raise InvalidParameterError("endpoints must differ")
    for x in (u, v):
        if not 0 <= x < g.n:
            raise InvalidParameterError(f"vertex {x} out of range")
    paths: dict[int, RainbowPath] = {}
    _first_arrivals(_adjacency(g, w), u, 1 << v, node_budget, paths)
    return paths.get(v)


def is_rainbow_connected(
    g: Graph,
    w: WeightedColoring,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RainbowConnectivity:
    """Check every unordered pair; witness map holds one path per pair.

    One search from each u reaches every v > u. Each witness, the failing
    pair (the first in ``itertools.combinations`` order) and each budget
    raise are those of ``exists_rainbow_path(g, w, u, v, node_budget)``
    called on the pairs in that order.
    """
    if not g.is_connected():
        raise NotConnectedError("graph is not connected")
    adj = _adjacency(g, w)
    witnesses: dict[tuple[int, int], RainbowPath] = {}
    for u in range(g.n - 1):
        paths: dict[int, RainbowPath] = {}
        _first_arrivals(adj, u, (1 << g.n) - (2 << u), node_budget, paths)
        for v in range(u + 1, g.n):
            if v not in paths:
                return RainbowConnectivity(False, witnesses, failing_pair=(u, v))
            witnesses[(u, v)] = paths[v]
    return RainbowConnectivity(True, witnesses)


def max_new_color_path(
    g: Graph,
    w: WeightedColoring,
    collected: frozenset[int] = frozenset(),
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_gain: int | None = None,
) -> RainbowPath:
    """Rainbow path maximizing the number of weights outside ``collected``.

    Ties go to fewer edges, then to the lexicographically smallest vertex
    sequence, making the winner unique and reproducible. ``max_gain`` caps
    the number of newly covered classes a candidate may claim (paths above
    the cap are traversed but not selected).

    The search keeps the first path whose ``(gain, -edges)`` strictly
    improves. A rainbow path with class mask c has exactly popcount(c)
    edges, and the DFS meets paths of equal length in lexicographic order
    of their vertex sequences, so the first path to reach the best key is
    the lexicographically smallest among the tied ones.
    """
    classes = sorted(w.classes)
    if not set(classes) - set(collected):
        raise InvalidParameterError("every weight class is already collected")
    new = sum(1 << i for i, c in enumerate(classes) if c not in collected)
    cap = len(classes) if max_gain is None else max_gain
    best, best_key = None, (0, 0)
    for taken, _, used in _rainbow_paths(_adjacency(g, w), range(g.n), node_budget):
        gain = (used & new).bit_count()
        if gain <= cap and (gain, -len(taken)) > best_key:
            best, best_key = _as_path(taken), (gain, -len(taken))
    if best is None:
        # only reachable with max_gain <= 0; without a cap a single
        # uncollected edge always yields gain >= 1
        raise InvalidParameterError("no path adds an uncollected weight class")
    return best


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, in lexicographic order.

    Vertex v may map to a free vertex of its degree that is adjacent to the
    images of v's lower neighbours and to no other image placed so far.
    """
    nbrs = [sum(1 << u for u in a) for a in g.adjacency]
    same_degree = [[t for t in range(g.n) if len(g.adjacency[t]) == len(a)] for a in g.adjacency]
    lower = [[u for u in a if u < v] for v, a in enumerate(g.adjacency)]
    out: list[tuple[int, ...]] = []
    # frame: the untried images of vertex v, the images of 0..v-1, and their bitmask
    stack = [(iter(same_degree[0]), (), 0)]
    while stack:
        cands, image, placed = stack[-1]
        v = len(image)
        want = sum(1 << image[u] for u in lower[v])
        for t in cands:
            if not placed >> t & 1 and nbrs[t] & placed == want:
                break
        else:
            stack.pop()
            continue
        if v + 1 == g.n:
            out.append((*image, t))
        else:
            stack.append((iter(same_degree[v + 1]), (*image, t), placed | 1 << t))
    return out


def vertex_orbits(g: Graph) -> list[int]:
    """Orbit representative (smallest member) for each vertex.

    The automorphisms form a group, so the orbit of v is its set of images.
    """
    return [min(images) for images in zip(*automorphisms(g))]


def _max_cardinality_order(g: Graph) -> list[int]:
    """Vertex 0, then repeatedly the unplaced vertex with the most placed
    neighbours, ties going to the lowest index; O((n + m) log n).

    Heap entries ``(-count, v)`` go stale when v gains another placed
    neighbour; a popped entry counts only if it still matches.
    """
    count = [0] * g.n
    placed = [False] * g.n
    heap = [(0, 0)]
    order = []
    while heap:
        c, v = heapq.heappop(heap)
        if placed[v] or -c != count[v]:
            continue
        placed[v] = True
        order.append(v)
        for x in g.adjacency[v]:
            if not placed[x]:
                count[x] += 1
                heapq.heappush(heap, (-count[x], x))
    return order


def _first_labeling(
    g: Graph, order: list[int], cands: list[int], bound: int, accept
) -> tuple[tuple[int, ...] | None, int]:
    """First accepted labeling with at most ``bound`` weights, in ``order``.

    Backtracks over the vertices in ``order``, trying each vertex's labels
    in ascending order from ``cands[v]`` (a bitmask, bit l for label l)
    less the labels already taken. Returns ``(labels, leaves)``: the first
    complete labeling, within the bound, that ``accept`` takes (None if
    there is none) and the number of complete labelings tested.

    A candidate label is dropped when the weights exceed the bound or when
    some frontier vertex x (unplaced, with a placed neighbour) has no free
    label l with ``popcount(weights | near[x] << l) <= bound``, ``near[x]``
    being the labels of x's placed neighbours as a bitmask. Such a subtree
    holds no complete labeling within the bound, so the leaves reached, and
    their order, are those of the search without this check.
    """
    n = g.n
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    later = [[x for x in g.adjacency[v] if pos[x] > pos[v]] for v in range(n)]
    # frontier[k]: (x, 1 if x neighbours order[k] else 0) for each x on the
    # frontier once positions 0..k are placed
    frontier: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        first = min((pos[u] for u in g.adjacency[x]), default=n)
        for k in range(first, pos[x]):
            frontier[k].append((x, int(x in later[order[k]])))
    labels = [0] * n
    near = [0] * n
    # position k: the untried labels of order[k], and the weights and the
    # labels taken by positions 0..k-1
    untried, weights, taken = [0] * n, [0] * n, [0] * n
    untried[0] = cands[order[0]]
    leaves = 0
    k = 0
    while k >= 0:
        v = order[k]
        if labels[v]:
            for x in later[v]:
                near[x] ^= 1 << labels[v]
            labels[v] = 0
        c, wk, near_v = untried[k], weights[k], near[v]
        while c:
            low = c & -c
            c ^= low
            lab = low.bit_length() - 1
            w = wk | near_v << lab
            if w.bit_count() > bound:
                continue
            t = taken[k] | low
            for x, adj in frontier[k]:
                near_x = near[x] | adj << lab
                free = cands[x] & ~t
                while free:
                    if (w | near_x << ((free & -free).bit_length() - 1)).bit_count() <= bound:
                        break
                    free &= free - 1
                if not free:
                    break
            else:
                break
        else:
            k -= 1
            continue
        untried[k] = c
        labels[v] = lab
        for x in later[v]:
            near[x] |= low
        if k + 1 < n:
            k += 1
            untried[k], weights[k], taken[k] = cands[order[k]] & ~t, w, t
            continue
        leaves += 1
        if accept(labels):
            return tuple(labels), leaves
    return None, leaves


def racn_exact(g: Graph, max_n: int = DEFAULT_MAX_N) -> RacnCertificate:
    """Exact minimum color count over rainbow-connected bijective labelings.

    Iterative deepening from t = max(diameter, max degree): a rainbow path
    between a diametral pair needs ``diameter`` classes, and the edges at a
    vertex carry distinct sums. At each level a feasibility pass in
    maximum-cardinality order decides whether some rainbow-connected
    labeling has at most t weights; that order places each vertex next to
    many placed ones, so the bound and the forward check bite early. At the
    first feasible level a witness pass in index order returns the
    lexicographically first such labeling (the feasibility pass's own find
    when the two orders agree, as on a path). Label 1 goes only on one
    representative per automorphism orbit: some solution survives that in
    any order, so the feasibility pass stays exact, and the index-order
    witness is the lexicographically first of minimum value.
    """
    if g.n > max_n:
        raise InstanceTooLargeError(
            f"n={g.n} exceeds max_n={max_n}; use racn_upper with a known labeling"
        )
    if not g.is_connected():
        raise NotConnectedError("graph is not connected")

    n = g.n
    labels_mask = (2 << n) - 2
    cands = [labels_mask if rep == v else labels_mask & ~2
             for v, rep in enumerate(vertex_orbits(g))]
    by_index = list(range(n))
    by_cardinality = _max_cardinality_order(g)

    def rainbow_connected(labels) -> bool:
        adj = [[(b, s, 1 << s) for b in nbrs for s in (labels[a] + labels[b],)]
               for a, nbrs in enumerate(g.adjacency)]
        return not any(_first_arrivals(adj, u, (1 << n) - (2 << u)) for u in range(n - 1))

    examined = 0
    for bound in range(max(diameter(g), degree_stats(g)[1]), len(g.edges) + 1):
        labels, leaves = _first_labeling(g, by_cardinality, cands, bound, rainbow_connected)
        examined += leaves
        if labels is None:
            continue
        if by_cardinality != by_index:
            labels, leaves = _first_labeling(g, by_index, cands, bound, rainbow_connected)
            examined += leaves
        return RacnCertificate(bound, Labeling(labels), True, examined)
    # every connected graph admits a rainbow-connected labeling (e.g. one
    # making all weights distinct), so this is unreachable for valid input
    raise InvalidParameterError("no rainbow-connected labeling found")


def racn_upper(g: Graph, labeling: Labeling) -> int | None:
    """Distinct weight count if the labeling's coloring is rainbow connected."""
    coloring = edge_weights(g, labeling)
    if not is_rainbow_connected(g, coloring):
        return None
    return distinct_weight_count(coloring)

"""Rainbow-path search and the exact minimum-color-count solver.

A path is *rainbow* when its edge weights are pairwise distinct; a coloring
is *rainbow connected* when every vertex pair is joined by some rainbow
path. The minimum, over all bijective labelings whose induced coloring is
rainbow connected, of the number of distinct edge weights (the racn) is
computed exactly by ``racn_exact`` for small graphs.

``racn_exact`` deepens a bound on the weight count and runs one
backtracking search, ``_first_labeling``, in maximum-cardinality vertex
order: it proves the infeasible levels, and at the first feasible one it
builds the lexicographically first witness in index order by probing, one
vertex at a time, for the smallest label that still completes. Each probe
is exact, so the witness is the one a plain index-order search returns.

One iterative enumerator, ``_rainbow_paths``, serves every path search: a
lexicographic DFS over an adjacency built once per coloring, yielding every
rainbow path as it is pushed. Its state is one int bitmask: on n vertices,
bit v marks vertex v as used and bit n+i weight class i, so each adjacency
entry carries the one mask that tests, pushes and pops its edge. Every reader
of that state lives here, and ``_adjacency`` is its one layout.
``_first_arrivals``, behind ``exists_rainbow_path``, ``is_rainbow_connected``
and ``racn_upper`` (also the leaf test of ``racn_exact``), stops once every
target is reached: the path on the stack at the first arrival at v is the
path a DFS aimed at v would return, so n single-source searches replace
n(n-1)/2 pair searches. Greedy reconstruction's first phase, where every
edge adds a new class, takes ``max_new_color_path``, which stops at the
first path with as many edges as its cap allows; ``_fewest_edge_paths``
ranks all its later phases. The cover search in ``protocol`` reads the class
and vertex masks of ``_rainbow_path_signatures`` and the paths of
``_rebuilt_path``.

All searches are deterministic: neighbors are visited in ascending index
order and ties are broken lexicographically on the vertex sequence, so
repeated runs yield identical witnesses.

Every search, here and in ``protocol``, counts its nodes, never its root;
node ``NODE_BUDGET + 1`` raises ``BudgetExceededError(_EXHAUSTED)`` unless
the search has stopped first. A node is a push, except in ``protocol``'s
``rp`` BFS (a union) and cover search (an (item, mask) pair of a vertex set
tested or scanned, or a combination). ``NODE_BUDGET``, read here, is the one budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InvalidParameterError
from .graphs import Graph, bridge_count, degree_stats, diameter
from .labelings import Labeling, WeightedColoring, edge_weights

NODE_BUDGET = 20_000_000
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

    ``examined``: complete labelings tested, over the feasibility search at
    every deepening level and every witness probe.
    """

    value: int
    witness: Labeling
    exhaustive: bool
    examined: int


def _adjacency(g: Graph, w: WeightedColoring) -> list[list[tuple[int, int, int]]]:
    """``(neighbour, weight, bits)`` entries in ascending neighbour order.

    ``bits`` is ``1 << neighbour | 1 << n + i``, the neighbour's vertex bit
    and the class bit of its weight, the i-th smallest, in the packed state
    of ``_rainbow_paths``.
    """
    n = g.n
    bit_of = {wt: 1 << n + i for i, wt in enumerate(sorted(w.classes))}
    return [[(b, wt, 1 << b | bit_of[wt]) for b in nbrs for wt in (w.weight(a, b),)]
            for a, nbrs in enumerate(g.adjacency)]


def _rainbow_paths(adj, sources):
    """Every rainbow path from each source, in lexicographic DFS order.

    Yields ``(taken, state)`` at each push: ``taken`` is the live stack
    (the root ``(source, 0, 0)``, then the adjacency entry of each edge on
    the path), and ``state`` the packed mask of ``_adjacency`` on
    ``n = len(adj)`` vertices, the used vertices in bits 0..n-1 and the used
    classes from bit n up. An edge is free when ``state & bits`` is 0.
    Pushes are counted over all sources; push ``NODE_BUDGET + 1`` raises
    ``BudgetExceededError``.
    """
    budget = NODE_BUDGET
    pushes = 0
    for s in sources:
        it = iter(adj[s])
        parked = []  # the iterators below ``it``, one per edge on the path
        taken = [(s, 0, 0)]
        state = 1 << s
        while True:
            for e in it:
                if not state & e[2]:
                    break
            else:
                if not parked:
                    break
                state ^= taken.pop()[2]
                it = parked.pop()
                continue
            pushes += 1
            if pushes > budget:
                raise BudgetExceededError(_EXHAUSTED)
            state |= e[2]
            taken.append(e)
            yield taken, state
            parked.append(it)
            it = iter(adj[e[0]])


def _as_path(taken) -> RainbowPath:
    # tuple(list) allocates once; tuple(genexp) reallocs
    return RainbowPath(tuple([t[0] for t in taken]), tuple([t[1] for t in taken[1:]]))


def _first_arrivals(adj, u: int, targets: int, paths=None) -> int:
    """Search from ``u`` until every target (a bitmask) is reached.

    ``paths[v]`` gets the path at the first arrival at each target v; a DFS
    aimed at v alone pushes exactly the same nodes up to there. Returns the
    unreached targets.
    """
    for taken, _ in _rainbow_paths(adj, (u,)):
        hit = targets & taken[-1][2]  # the new vertex's bit, if a target
        if hit:
            targets ^= hit
            if paths is not None:
                paths[taken[-1][0]] = _as_path(taken)
            if not targets:
                break
    return targets


def exists_rainbow_path(
    g: Graph,
    w: WeightedColoring,
    u: int,
    v: int,
) -> RainbowPath | None:
    """First rainbow u-v path in lexicographic DFS order, or None.

    Raises ``BudgetExceededError`` when the search pushes more than
    ``NODE_BUDGET`` nodes before it finds the path or proves there is none.
    """
    if u == v:
        raise InvalidParameterError("endpoints must differ")
    for x in (u, v):
        if not 0 <= x < g.n:
            raise InvalidParameterError(f"vertex {x} out of range")
    paths: dict[int, RainbowPath] = {}
    _first_arrivals(_adjacency(g, w), u, 1 << v, paths)
    return paths.get(v)


def is_rainbow_connected(g: Graph, w: WeightedColoring) -> RainbowConnectivity:
    """Check every unordered pair; witness map holds one path per pair.

    One search from each u reaches every v > u. Each witness, the failing
    pair (the first in ``itertools.combinations`` order) and each budget
    raise are those of ``exists_rainbow_path(g, w, u, v)`` called on the
    pairs in that order.
    """
    if not g.is_connected():
        raise InvalidParameterError("graph is not connected")
    adj = _adjacency(g, w)
    witnesses: dict[tuple[int, int], RainbowPath] = {}
    for u in range(g.n - 1):
        paths: dict[int, RainbowPath] = {}
        _first_arrivals(adj, u, (1 << g.n) - (2 << u), paths)
        for v in range(u + 1, g.n):
            if v not in paths:
                return RainbowConnectivity(False, witnesses, failing_pair=(u, v))
            witnesses[(u, v)] = paths[v]
    return RainbowConnectivity(True, witnesses)


def max_new_color_path(g: Graph, w: WeightedColoring, max_gain: int | None = None) -> RainbowPath:
    """First rainbow path in DFS order with the most edges, at most ``max_gain``.

    This is greedy reconstruction's first phase: with nothing collected yet,
    every edge adds a new weight class. The DFS meets paths of equal length
    in lexicographic order, so the winner is the lexicographically smallest
    of the longest. No path within the cap has more than
    ``top = min(#classes, max_gain)`` edges, so the search stops at the
    first path with ``top`` edges; it raises ``BudgetExceededError`` only
    when it pushes more than ``NODE_BUDGET`` nodes before it stops.
    """
    cap = len(w.classes) if max_gain is None else max_gain
    top = min(len(w.classes), cap)
    best, most = None, 0
    for taken, _ in _rainbow_paths(_adjacency(g, w), range(g.n)):
        edges = len(taken) - 1
        if most < edges <= cap:
            best, most = _as_path(taken), edges
            if edges == top:
                break
    if best is None:
        # only reachable with max_gain <= 0 or a graph with no edge
        raise InvalidParameterError("no rainbow path has an edge within the gain cap")
    return best


def _fewest_edge_paths(g: Graph, w: WeightedColoring, rest: int) -> list[tuple[int, RainbowPath]]:
    """``(S, path)`` for each nonzero class set ``S = used & rest`` of a rainbow
    path: the first path in DFS order with the fewest edges, listed in the
    DFS order of these paths.

    ``rest``, ``used`` and each returned ``S`` are plain class masks, bit i
    for the i-th smallest weight; the scan shifts ``rest`` by n to meet the
    packed state of ``_rainbow_paths`` and shifts each ``S`` back. A greedy
    phase that lacks the classes ``new``, a mask inside ``rest``, picks the
    entry with the most ``S & new`` classes (at most the cap), then the
    fewest edges, then the first listed. Under a cap of at least
    ``popcount(rest)`` the first path with ``used == rest`` wins for
    ``new == rest`` and leaves no class to pick, so the scan stops there.
    Pushes follow the budget rule of ``_rainbow_paths``.
    """
    n = g.n
    packed_rest = rest << n
    table: dict[int, tuple] = {}  # S << n -> taken, in the DFS order of the kept paths
    for taken, state in _rainbow_paths(_adjacency(g, w), range(n)):
        s = state & packed_rest
        if s:
            kept = table.get(s)
            if kept is None or len(taken) < len(kept):
                table.pop(s, None)
                table[s] = tuple(taken)
                if state >> n == rest:
                    break
    return [(s >> n, _as_path(taken)) for s, taken in table.items()]


def _rainbow_path_signatures(g: Graph, w: WeightedColoring) -> dict[int, list[int]]:
    """Enumerate every rainbow path's signature (class bitmask, vertex bitmask).

    Returns ``{class mask: [vertex masks]}``. Each path's packed
    ``_rainbow_paths`` state is kept once, in an insertion-ordered dict, and
    then grouped by class mask, so the class masks and each one's vertex
    masks come in the order the lexicographic DFS first meets them. No path
    is kept: ``_rebuilt_path`` finds a signature's first path again. Raises
    ``BudgetExceededError`` when the budget runs out.
    """
    n = g.n
    vmask = (1 << n) - 1
    states = dict.fromkeys(state for _, state in _rainbow_paths(_adjacency(g, w), range(n)))
    found: dict[int, list[int]] = {}
    for state in states:
        found.setdefault(state >> n, []).append(state & vmask)
    return found


def _rebuilt_path(g: Graph, w: WeightedColoring, cmask: int, vmask: int) -> RainbowPath:
    """The first rainbow path, in lexicographic DFS order, whose class mask is
    ``cmask`` and vertex mask ``vmask``.

    The DFS starts only at the vertices of ``vmask`` and takes only the edges
    whose vertex and class bits lie inside both masks. Every prefix of such a
    path lies inside them too, so this DFS meets those paths in the full
    DFS's order and returns its first one. It is a search of its own: push
    ``NODE_BUDGET + 1`` raises ``BudgetExceededError``.
    """
    target = vmask | cmask << g.n
    inside = [[e for e in row if not e[2] & ~target] for row in _adjacency(g, w)]
    sources = [a for a in range(g.n) if vmask >> a & 1]
    return next(_as_path(taken) for taken, state in _rainbow_paths(inside, sources)
                if state == target)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, in lexicographic order.

    Vertex v may map to a free vertex of its degree that is adjacent to the
    images of v's lower neighbours and to no other image placed so far. Each
    image placed is a push: push ``NODE_BUDGET + 1`` raises.
    """
    nbrs = [sum(1 << u for u in a) for a in g.adjacency]
    same_degree = [[t for t in range(g.n) if len(g.adjacency[t]) == len(a)] for a in g.adjacency]
    lower = [[u for u in a if u < v] for v, a in enumerate(g.adjacency)]
    out: list[tuple[int, ...]] = []
    pushes = 0
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
        pushes += 1
        if pushes > NODE_BUDGET:
            raise BudgetExceededError(_EXHAUSTED)
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
    neighbours, ties going to the lowest index."""
    count = [0] * g.n  # placed neighbours
    unplaced = list(range(g.n))
    order = []
    while unplaced:
        # max keeps the first best, the lowest index among ties
        v = max(unplaced, key=count.__getitem__)
        unplaced.remove(v)
        order.append(v)
        for x in g.adjacency[v]:
            count[x] += 1
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

    Labels are kept as bits, ``bits[v] = 1 << label``, and decoded only at
    a leaf. A candidate label is dropped when the weights, with those it
    adds toward the placed neighbours, exceed the bound; ``near[v]`` holds
    the labels of v's placed neighbours as a bitmask, so ``near[v] * bit``
    holds their sums with the candidate's label.

    Each label placed is a pushed node under the module's budget rule:
    placement ``NODE_BUDGET + 1`` in one call raises ``BudgetExceededError``.
    """
    n = g.n
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    later = [[x for x in g.adjacency[v] if pos[x] > pos[v]] for v in range(n)]
    bits = [0] * n
    near = [0] * n
    # position k: the untried labels of order[k], and the weights and the
    # labels taken by positions 0..k-1
    untried, weights, taken = [0] * n, [0] * n, [0] * n
    untried[0] = cands[order[0]]
    budget = NODE_BUDGET
    placed = leaves = 0
    k = 0
    while k >= 0:
        v = order[k]
        b = bits[v]
        if b:
            for x in later[v]:
                near[x] ^= b
            bits[v] = 0
        c, wk, near_v = untried[k], weights[k], near[v]
        while c:
            low = c & -c
            c ^= low
            w = wk | near_v * low
            if w.bit_count() <= bound:
                break
        else:
            k -= 1
            continue
        placed += 1
        if placed > budget:
            raise BudgetExceededError(_EXHAUSTED)
        untried[k] = c
        bits[v] = low
        for x in later[v]:
            near[x] |= low
        if k + 1 < n:
            t = taken[k] | low
            k += 1
            untried[k], weights[k], taken[k] = cands[order[k]] & ~t, w, t
            continue
        leaves += 1
        labels = tuple([bit.bit_length() - 1 for bit in bits])
        if accept(labels):
            return labels, leaves
    return None, leaves


def racn_exact(g: Graph, max_n: int = DEFAULT_MAX_N) -> RacnCertificate:
    """Exact minimum color count over rainbow-connected bijective labelings.

    Iterative deepening from t = max(diameter, max degree, bridges): a
    rainbow path between a diametral pair needs ``diameter`` classes, the
    edges at a vertex carry distinct sums, and any two bridges lie on every
    path between a vertex beyond one and a vertex beyond the other. At each
    level a feasibility pass in maximum-cardinality order decides whether
    some rainbow-connected labeling has at most t weights; that order places
    each vertex next to many placed ones, so the bound bites early. At the
    first feasible level the witness is the lexicographically first such
    labeling in index order, built by probing: each vertex v in turn, with
    0..v-1 fixed, takes its smallest label that the same search still
    completes. The last labeling found completes the fixed prefix, so only
    labels below its label at v are probed, and a failed probe leaves v at
    that label. When the two orders agree, as on a path, the feasibility
    find is the witness. Label 1 goes only on one representative per
    automorphism orbit: some solution survives that in any order, so the
    search stays exact, and the witness is the lexicographically first of
    minimum value. ``racn_upper`` tests each complete labeling. A
    ``max_n`` below 0 raises ``InvalidParameterError``.
    """
    if max_n < 0:
        raise InvalidParameterError(f"max_n must be at least 0, got {max_n}")
    if g.n > max_n:
        raise BudgetExceededError(
            f"n={g.n} exceeds max_n={max_n}; use racn_upper with a known labeling"
        )
    if not g.is_connected():
        raise InvalidParameterError("graph is not connected")

    n = g.n
    labels_mask = (2 << n) - 2
    cands = [labels_mask if rep == v else labels_mask & ~2
             for v, rep in enumerate(vertex_orbits(g))]
    by_cardinality = _max_cardinality_order(g)

    def rainbow_connected(labels):
        return racn_upper(g, Labeling(labels)) is not None

    examined = 0
    start = max(diameter(g), degree_stats(g)[1], bridge_count(g))
    for bound in range(start, len(g.edges) + 1):
        labels, leaves = _first_labeling(g, by_cardinality, cands, bound, rainbow_connected)
        examined += leaves
        if labels is None:
            continue
        if by_cardinality != list(range(n)):
            fixed: list[int] = []  # one label bit for each of 0..v-1
            for v in range(n):
                taken = sum(fixed)
                # labels[v] completes the prefix, so only smaller ones need a probe
                below = cands[v] & ~taken & ((1 << labels[v]) - 1)
                while below:
                    low = below & -below
                    below ^= low
                    rest = ~(taken | low)
                    trial = [*fixed, low, *(c & rest for c in cands[v + 1:])]
                    found, leaves = _first_labeling(
                        g, by_cardinality, trial, bound, rainbow_connected)
                    examined += leaves
                    if found is not None:
                        labels = found
                        break
                fixed.append(1 << labels[v])
        return RacnCertificate(bound, Labeling(labels), True, examined)
    # every connected graph admits a rainbow-connected labeling (e.g. one
    # making all weights distinct), so this is unreachable for valid input
    raise InvalidParameterError("no rainbow-connected labeling found")


def racn_upper(g: Graph, labeling: Labeling) -> int | None:
    """Distinct weight count if the labeling's coloring is rainbow connected,
    else None.

    It runs the searches of ``is_rainbow_connected`` but keeps no witness
    paths, whose map would hold one path for each of the n(n-1)/2 pairs.
    ``racn_exact`` tests each complete labeling with it.
    """
    coloring = edge_weights(g, labeling)
    if not g.is_connected():
        raise InvalidParameterError("graph is not connected")
    adj = _adjacency(g, coloring)
    if any(_first_arrivals(adj, u, (1 << g.n) - (2 << u)) for u in range(g.n - 1)):
        return None
    return len(coloring.classes)

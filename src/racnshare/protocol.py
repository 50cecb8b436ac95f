"""End-to-end scheme simulation on a labeled graph.

``distribute`` splits a secret into one share per edge-weight class and
hands every participant the shares of its incident edges. Reconstruction
then walks rainbow paths, collecting the classes seen along each path in
phases, until all shares are gathered and the secret is rebuilt.
``simulate_dissemination`` models the final broadcast: informed
participants forward the payload around closed circuits, round by round,
falling back to plain shortest paths when no circuit reaches anyone new.

Everything here is deterministic; repeated runs produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice

from . import rainbow
from .errors import BudgetExceededError, InvalidParameterError, RacnShareError
from .graphs import Graph, bfs_parents
from .labelings import Labeling, WeightedColoring, edge_weights
from .rainbow import (_EXHAUSTED, RainbowPath, _fewest_edge_paths, _rainbow_path_signatures,
                      _rebuilt_path, max_new_color_path)
from .sharing import SecretConfig, Share, reconstruct, split


@dataclass(frozen=True)
class SchemeInstance:
    """A dealt secret: one share per weight class, threshold = class count."""

    graph: Graph
    coloring: WeightedColoring
    class_to_share: dict[int, Share]
    secret: bytes

    @property
    def threshold(self) -> int:
        return len(self.class_to_share)

    def shares_of_vertex(self, v: int) -> dict[int, Share]:
        """Shares a participant holds: one per incident edge's class."""
        out = {}
        for u in self.graph.adjacency[v]:
            w = self.coloring.weight(v, u)
            out[w] = self.class_to_share[w]
        return out


def distribute(graph: Graph, labeling: Labeling, secret: bytes,
               seed: int | None = None) -> SchemeInstance:
    """Split ``secret`` into k = #classes shares; class i-th smallest -> index i."""
    if not graph.is_connected():
        raise InvalidParameterError("graph is not connected")
    coloring = edge_weights(graph, labeling)
    classes = sorted(coloring.classes)
    k = len(classes)
    shares = split(secret, SecretConfig(threshold=k, share_count=k, seed=seed))
    class_to_share = dict(zip(classes, shares))
    return SchemeInstance(
        graph=graph,
        coloring=coloring,
        class_to_share=class_to_share,
        secret=secret,
    )


@dataclass(frozen=True)
class ReconstructionTrace:
    phases: tuple[tuple[RainbowPath, frozenset[int]], ...]
    collected_after: tuple[frozenset[int], ...]
    participants_used: frozenset[int]
    recovered: bytes

    @property
    def phase_count(self) -> int:
        return len(self.phases)


def simulate_reconstruction(
    instance: SchemeInstance,
    clamp: bool = False,
    optimal: bool = False,
) -> ReconstructionTrace:
    """Collect all weight classes along rainbow paths, then rebuild the secret.

    Default policy is greedy: each phase takes the path covering the most
    not-yet-collected classes (ties: fewer edges, then lexicographically
    smallest vertex sequence). ``clamp=True`` caps a phase's haul at k-1
    classes. Greedy reads the rainbow paths at most twice, each read with
    its own ``rainbow.NODE_BUDGET``: the first phase, where every edge adds
    a new class, takes ``max_new_color_path(g, coloring, cap)``, and
    ``_fewest_edge_paths`` lists the candidates of every later phase.
    ``optimal=True`` replaces greedy with the exhaustive
    minimum-phase cover used by ``empirical_rp``/``empirical_m``; it cannot
    honour the cap, so setting both raises ``InvalidParameterError``.
    """
    if clamp and optimal:
        raise InvalidParameterError("clamp and optimal are mutually exclusive")
    g = instance.graph
    coloring = instance.coloring
    bit_of = {c: 1 << i for i, c in enumerate(sorted(coloring.classes))}
    k = len(bit_of)
    full = (1 << k) - 1
    cap = max(1, k - 1) if clamp else k

    def mask(weights) -> int:
        return sum(bit_of[c] for c in weights)

    paths = _min_vertex_cover_choice(g, coloring) if optimal else [max_new_color_path(g, coloring, cap)]
    # each phase takes the candidate (class mask, path) with the most new
    # classes, at most cap, then the fewest edges, then the first listed
    candidates = [(mask(p.weights), p) for p in paths]
    phases: list[tuple[RainbowPath, frozenset[int]]] = []
    cumulative: list[frozenset[int]] = []
    collected: frozenset[int] = frozenset()
    used: set[int] = set()
    while len(collected) < k:
        new = full & ~mask(collected)
        if len(phases) == 1 and not optimal:
            # one more read of the paths ranks every later greedy phase; phase 1
            # took a class, so cap >= k - 1 >= popcount(new) as the read needs
            candidates = _fewest_edge_paths(g, coloring, new)
        _, path = max((c for c in candidates if (c[0] & new).bit_count() <= cap),
                      key=lambda c: ((c[0] & new).bit_count(), -c[1].edge_count))
        newly = frozenset(path.weights) - collected
        collected |= newly
        phases.append((path, newly))
        cumulative.append(collected)
        used.update(path.vertices)
    recovered = reconstruct([instance.class_to_share[w] for w in sorted(collected)],
                            instance.threshold)
    if recovered != instance.secret:
        raise RacnShareError("reconstructed secret does not match the original")
    return ReconstructionTrace(
        phases=tuple(phases),
        collected_after=tuple(cumulative),
        participants_used=frozenset(used),
        recovered=recovered,
    )


def _minimal(masks) -> list[int]:
    """The inclusion-minimal ``masks``, ordered by (popcount, value)."""
    keep: list[int] = []
    for m in sorted(sorted(masks), key=int.bit_count):
        if not any(kept & m == kept for kept in keep):
            keep.append(m)
    return keep


def _min_phases(k: int, class_masks) -> int | None:
    """Fewest ``class_masks`` that jointly cover all k classes; None if they miss one.

    A BFS over unions of the maximal class masks: a cover stays a cover when
    each of its masks grows to a maximal superset, so the others cannot
    lower the count. Each level is charged its unions, frontier size times
    mask count, before it is formed; past ``rainbow.NODE_BUDGET`` unions in
    all it raises ``BudgetExceededError``.
    """
    full = (1 << k) - 1
    if reduce(int.__or__, class_masks, 0) != full:
        return None
    maximal = [full ^ c for c in _minimal(full ^ cm for cm in class_masks)]
    reached, frontier = {0}, {0}
    depth = unions = 0
    while full not in reached:
        unions += len(frontier) * len(maximal)
        if unions > rainbow.NODE_BUDGET:
            raise BudgetExceededError(_EXHAUSTED)
        frontier = {m | cm for m in frontier for cm in maximal} - reached
        reached |= frontier
        depth += 1
    return depth


def empirical_rp(g: Graph, coloring: WeightedColoring) -> int:
    """Minimum number of rainbow paths jointly covering every weight class."""
    return _min_phases(len(coloring.classes), _rainbow_path_signatures(g, coloring))


def empirical_m(g: Graph, coloring: WeightedColoring) -> int:
    """Fewest distinct vertices over all minimum-phase rainbow-path covers."""
    return len(set().union(*(p.vertices for p in _min_vertex_cover_choice(g, coloring))))


def _min_vertex_cover_choice(g: Graph, coloring: WeightedColoring) -> list[RainbowPath]:
    """One cover search, for both ``rp`` and ``m``: a minimum-phase rainbow-path
    cover with the fewest distinct vertices, as ``RainbowPath``s sorted by
    their vertex sequences, each the ``_rebuilt_path`` of its signature.

    Items are the distinct class masks by (-popcount, class mask), each with
    its ``_minimal`` vertex masks. The cover is the lexicographically first
    sorted (item, mask) index pick list among the ``rp``-pick covers with the
    fewest vertices: the least full-class path's when there is one (all have
    k + 1 vertices). Otherwise the search grows the vertex sets X a cover can
    avoid, one vertex above max(X) at a time, while the items with a minimal
    mask avoiding X still cover in ``rp`` picks; a subset of a kept X is kept,
    so the last level holds every largest X, and a best cover spans the
    complement U of one. There each item takes its first mask inside U (a
    later one gives larger picks), U's cover is the first covering
    ``rp``-combination, and the least over all U wins. Each X tested or
    scanned costs the (item, mask) pair count, and each combination one
    node, of this search's own ``rainbow.NODE_BUDGET``.
    """
    found = _rainbow_path_signatures(g, coloring)
    k = len(coloring.classes)
    full = (1 << k) - 1
    if full in found:
        return [_rebuilt_path(g, coloring, full, min(found[full]))]
    rp = _min_phases(k, found)
    items = sorted(found, key=lambda c: (-c.bit_count(), c))
    minimal = [_minimal(found[c]) for c in items]
    pairs = [(i, j, vs[j]) for i, vs in enumerate(minimal) for j in reversed(range(len(vs)))]
    nodes = 0

    def avoiding(x: int) -> dict[int, int]:  # {item: its first mask avoiding x}, in item order
        nonlocal nodes
        nodes += len(pairs)
        if nodes > rainbow.NODE_BUDGET:
            raise BudgetExceededError(_EXHAUSTED)
        return {i: j for i, j, v in pairs if not v & x}

    level = [0]  # the kept X of the largest size so far
    while grown := [x | 1 << v for x in level for v in range(x.bit_length(), g.n)
                    if _min_phases(k, [items[i] for i in avoiding(x | 1 << v)]) == rp]:
        level = grown
    covers = []
    for x in level:
        inside = list(avoiding(x).items())
        scan = zip(combinations([items[i] for i, _ in inside], rp), combinations(inside, rp))
        # one node per combination: the loop counts on from nodes, up to the budget
        for nodes, (cms, picks) in enumerate(islice(scan, rainbow.NODE_BUDGET - nodes), nodes + 1):
            if reduce(int.__or__, cms, 0) == full:
                covers.append(picks)
                break
        else:
            raise BudgetExceededError(_EXHAUSTED)
    return sorted((_rebuilt_path(g, coloring, items[i], minimal[i][j]) for i, j in min(covers)),
                  key=lambda p: p.vertices)


def _cycles(g: Graph, max_len: int | None, chordless: bool) -> list[tuple[tuple[int, ...], int]]:
    """Every canonical simple cycle with its vertex bitmask, by (length, sequence).

    One DFS grows each cycle from its smallest vertex s through higher ones
    and closes it at a neighbour of s above the second vertex. ``chordless``
    skips a vertex adjacent to the path's interior and stops, after closing,
    at a neighbour of s. A vertex is pushed only if a path that keeps these
    rules can still lead from it to a closing vertex. Pushes are counted
    from every start, the second vertex included; push
    ``rainbow.NODE_BUDGET + 1`` raises ``BudgetExceededError``.
    """
    limit = g.n if max_len is None else max_len
    nbrs = [sum(1 << u for u in a) for a in g.adjacency]
    found: list[tuple[tuple[int, ...], int]] = []
    budget = rainbow.NODE_BUDGET
    pushes = 0
    for s in range(g.n):
        up = [[u for u in a if u > s] for a in g.adjacency]
        stop = nbrs[s] if chordless else 0  # chordless: a neighbour of s ends the path
        for v1 in up[s]:
            pushes += 1
            if pushes > budget:
                raise BudgetExceededError(_EXHAUSTED)
            closers = nbrs[s] & (-2 << v1)
            path = [s, v1]
            on = 1 << s | 1 << v1
            # a frame holds the children and, if chordless, the interior's neighbours
            stack = [(iter(up[v1]), 0)]
            while stack:
                children, near = stack[-1]
                wall = near | nbrs[path[-1]] if chordless else 0  # once u is pushed
                for u in children:
                    bit = 1 << u
                    if (on | near) & bit:
                        continue
                    if closers & bit:
                        found.append(((*path, u), on | bit))
                    if stop & bit or len(path) + 1 >= limit:
                        continue
                    if _reaches(nbrs, u, -2 << s & ~(on | wall | stop), closers & ~(on | wall)):
                        break
                else:
                    stack.pop()
                    on ^= 1 << path.pop()
                    continue
                pushes += 1
                if pushes > budget:
                    raise BudgetExceededError(_EXHAUSTED)
                path.append(u)
                on |= bit
                stack.append((iter(up[u]), wall))
    found.sort(key=lambda cm: (len(cm[0]), cm[0]))
    return found


def _reaches(nbrs: list[int], u: int, free: int, targets: int) -> bool:
    """True when a path from ``u`` through ``free`` vertices meets a target besides ``u``."""
    seen = front = 1 << u
    while front:
        nxt = 0
        while front:
            low = front & -front
            nxt |= nbrs[low.bit_length() - 1]
            front ^= low
        if nxt & targets & ~seen:
            return True
        front = nxt & free & ~seen
        seen |= front
    return False


def _require_cycle_args(g: Graph, vertices: frozenset[int] | set[int], max_len: int | None) -> None:
    if max_len is not None and max_len < 3:
        raise InvalidParameterError(f"max_len must be at least 3, got {max_len}")
    for v in vertices:
        if not 0 <= v < g.n:
            raise InvalidParameterError(f"vertex {v} out of range")


def enumerate_cycles(
    g: Graph,
    anchor: frozenset[int] | set[int],
    max_len: int | None = None,
) -> list[tuple[int, ...]]:
    """All simple cycles through at least one anchor vertex, canonicalized.

    Canonical form starts at the cycle's smallest vertex and takes the
    orientation whose second vertex is smaller than its last; results are
    sorted by (length, vertex sequence). An empty anchor yields [].
    ``max_len``, if given, caps the cycle length in vertices and must be at
    least 3; a smaller one, or an anchor vertex outside ``0..g.n-1``, raises
    ``InvalidParameterError``. The ``rainbow.NODE_BUDGET`` budget counts
    every push of the cycle search over the whole graph, anchored or not.
    """
    _require_cycle_args(g, anchor, max_len)
    if not anchor:
        return []
    anchor = frozenset(anchor)
    return [c for c, _ in _cycles(g, max_len, False) if not anchor.isdisjoint(c)]


@dataclass(frozen=True)
class DisseminationRound:
    kind: str  # "cycles" or "fallback"
    circuits: tuple[tuple[int, ...], ...]
    newly_informed: frozenset[int]
    informed_after: frozenset[int]


@dataclass(frozen=True)
class DisseminationTrace:
    informed_start: frozenset[int]
    rounds: tuple[DisseminationRound, ...]

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def informed_final(self) -> frozenset[int]:
        return self.rounds[-1].informed_after if self.rounds else self.informed_start


def simulate_dissemination(
    g: Graph,
    informed0: set[int] | frozenset[int],
    cycle_policy: str = "chordless",
    max_len: int | None = None,
) -> DisseminationTrace:
    """Broadcast from ``informed0`` until everyone is informed.

    Cycles are enumerated once per run, by a search of at most
    ``rainbow.NODE_BUDGET`` pushes. Each round fires circuits anchored at a
    vertex informed before the round started; within the round, circuits
    are chosen greedily by most newly informed vertices (ties: shorter, then
    lexicographic) until no circuit adds anyone. A round with no useful
    circuit becomes a fallback round that pushes the payload along BFS
    shortest paths instead.

    ``cycle_policy`` is "chordless" (default: only induced cycles carry,
    and the search pushes no vertex that would give the path a chord) or
    "all" (any simple cycle may fire). ``max_len`` caps the cycle length
    as in ``enumerate_cycles``.
    """
    if not informed0:
        raise InvalidParameterError("the informed start set must be nonempty")
    _require_cycle_args(g, informed0, max_len)
    if cycle_policy not in ("chordless", "all"):
        raise InvalidParameterError(
            f"cycle_policy must be 'chordless' or 'all', got {cycle_policy!r}"
        )
    unreachable = set(range(g.n)) - bfs_parents(g, informed0).keys()
    if unreachable:
        names = ", ".join(g.names[v] for v in sorted(unreachable))
        raise InvalidParameterError(f"unreachable participants: {names}")

    informed = set(informed0)
    rounds: list[DisseminationRound] = []
    cycles = _cycles(g, max_len, cycle_policy == "chordless") if len(informed) < g.n else []
    while len(informed) < g.n:
        mask = sum(1 << v for v in informed)
        candidates = [cm for cm in cycles if cm[1] & mask]
        fired: list[tuple[int, ...]] = []
        newly = 0
        while True:
            rest = ~(mask | newly)
            # max keeps the first best: ties go to shorter, then lexicographically first
            best = max(candidates, key=lambda cm: (cm[1] & rest).bit_count(), default=None)
            if best is None or not best[1] & rest:
                break
            fired.append(best[0])
            newly |= best[1] & rest
        if fired:
            reached = {v for v in range(g.n) if newly >> v & 1}
            kind = "cycles"
        else:
            fired, reached = _fallback_paths(g, informed)
            kind = "fallback"
        informed |= reached
        rounds.append(
            DisseminationRound(
                kind=kind,
                circuits=tuple(fired),
                newly_informed=frozenset(reached),
                informed_after=frozenset(informed),
            )
        )
    return DisseminationTrace(informed_start=frozenset(informed0), rounds=tuple(rounds))


def _fallback_paths(
    g: Graph, informed: set[int] | frozenset[int]
) -> tuple[list[tuple[int, ...]], set[int]]:
    """BFS shortest paths from the informed set to everyone it reaches.

    A path to a reached vertex's BFS parent is dropped: it is a prefix of a
    longer delivered path, which hands the payload to every vertex on it.
    """
    parent = bfs_parents(g, sorted(informed))
    relays = set(parent.values())
    paths = []
    for t, v in parent.items():
        if v is not None and t not in relays:
            route = [t]
            while parent[route[-1]] is not None:
                route.append(parent[route[-1]])
            paths.append(tuple(reversed(route)))
    return paths, parent.keys() - informed

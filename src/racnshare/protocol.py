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

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    NotConnectedError,
    RacnShareError,
    UnreachableParticipantsError,
)
from .graphs import Graph, bfs_parents
from .labelings import Labeling, WeightedColoring, edge_weights
from .rainbow import (_EXHAUSTED, DEFAULT_NODE_BUDGET, RainbowPath, _adjacency, _rainbow_paths,
                      max_new_color_path)
from .sharing import SecretConfig, Share, reconstruct, split


@dataclass(frozen=True)
class SchemeInstance:
    """A dealt secret: one share per weight class, threshold = class count."""

    graph: Graph
    labeling: Labeling
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
        raise NotConnectedError("graph is not connected")
    coloring = edge_weights(graph, labeling)
    classes = sorted(coloring.classes)
    k = len(classes)
    shares = split(secret, SecretConfig(threshold=k, share_count=k, seed=seed))
    class_to_share = dict(zip(classes, shares))
    return SchemeInstance(
        graph=graph,
        labeling=labeling,
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
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ReconstructionTrace:
    """Collect all weight classes along rainbow paths, then rebuild the secret.

    Default policy is greedy: each phase takes the path covering the most
    not-yet-collected classes (ties: fewer edges, then lexicographically
    smallest vertex sequence). ``clamp=True`` caps a phase's haul at k-1
    classes. ``optimal=True`` replaces greedy with the exhaustive
    minimum-phase cover used by ``empirical_rp``/``empirical_m``; it cannot
    honour the cap, so setting both raises ``InvalidParameterError``.
    """
    if clamp and optimal:
        raise InvalidParameterError("clamp and optimal are mutually exclusive")
    g = instance.graph
    coloring = instance.coloring
    all_classes = frozenset(coloring.classes)
    k = len(all_classes)

    # the optimal cover is replayed under the greedy rule: most new classes,
    # then fewer edges, then the lexicographically first vertex sequence
    pool = None
    if optimal:
        pool = [RainbowPath(vs, tuple(coloring.weight(a, b) for a, b in zip(vs, vs[1:])))
                for vs in _min_vertex_cover_choice(g, coloring, node_budget)]
    max_gain = max(1, k - 1) if clamp else None
    phases: list[tuple[RainbowPath, frozenset[int]]] = []
    cumulative: list[frozenset[int]] = []
    collected: frozenset[int] = frozenset()
    used: set[int] = set()
    while collected != all_classes:
        if pool is not None:
            path = max(pool, key=lambda p: (len(set(p.weights) - collected), -p.edge_count))
            pool.remove(path)
        else:
            path = max_new_color_path(g, coloring, collected, node_budget, max_gain)
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


def _rainbow_path_signatures(
    g: Graph, coloring: WeightedColoring, node_budget: int
) -> tuple[list[int], dict[tuple[int, int], tuple[int, ...]]]:
    """Enumerate every rainbow path as (class bitmask, vertex bitmask).

    Returns the sorted class values and, per signature pair, the first path
    found in lexicographic DFS order (which is the lex-least with that
    signature). Raises ``BudgetExceededError`` when the budget runs out.
    """
    found: dict[tuple[int, int], tuple[int, ...]] = {}
    for taken, seen, used in _rainbow_paths(_adjacency(g, coloring), range(g.n), node_budget):
        if (used, seen) not in found:
            found[used, seen] = tuple([t[0] for t in taken])
    return sorted(coloring.classes), found


def _min_phases(
    classes: list[int], found: dict[tuple[int, int], tuple[int, ...]], node_budget: int
) -> int:
    """Fewest signatures whose class masks jointly cover every class.

    A BFS over unions of the maximal class masks: a cover stays a cover when
    each of its masks grows to a maximal superset, so the others cannot
    lower the count. Union ``node_budget + 1`` it forms raises
    ``BudgetExceededError``.
    """
    full = (1 << len(classes)) - 1
    maximal: list[int] = []
    for cm in sorted({c for c, _ in found}, key=lambda m: (-m.bit_count(), m)):
        if not any(big & cm == cm for big in maximal):
            maximal.append(cm)
    reached = {0}
    frontier = [0]
    unions = 0
    for depth in range(len(classes) + 1):
        if full in reached:
            return depth
        nxt = []
        for m in frontier:
            for cm in maximal:
                unions += 1
                if unions > node_budget:
                    raise BudgetExceededError(_EXHAUSTED)
                u = m | cm
                if u not in reached:
                    reached.add(u)
                    nxt.append(u)
        frontier = nxt
    raise InvalidParameterError("no rainbow-path cover exists")


def empirical_rp(
    g: Graph, coloring: WeightedColoring, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Minimum number of rainbow paths jointly covering every weight class."""
    return _min_phases(*_rainbow_path_signatures(g, coloring, node_budget), node_budget)


def empirical_m(
    g: Graph, coloring: WeightedColoring, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Fewest distinct vertices over all minimum-phase rainbow-path covers."""
    return len(set().union(*_min_vertex_cover_choice(g, coloring, node_budget)))


def _min_vertex_cover_choice(
    g: Graph, coloring: WeightedColoring, node_budget: int
) -> list[tuple[int, ...]]:
    """One cover search, for both ``rp`` and ``m``: a minimum-phase rainbow-path
    cover with the fewest distinct vertices, as its paths' vertex tuples, sorted.

    ``_min_phases`` gives the depth ``rp``. An iterative search then branches
    on the lowest uncovered class, over each distinct class mask holding it
    (an item) and that item's Pareto-minimal vertex masks. It drops a branch
    whose vertex union is larger than the best cover's, and a last pick that
    leaves a class uncovered. Among covers with the fewest vertices it keeps
    the lexicographically first sorted list of (item index, vertex-mask index)
    picks, items ordered by (-popcount, class mask). The signature
    enumeration, the ``rp`` search and this search each get ``node_budget``
    nodes; this one counts the states it pushes, not the root.
    """
    classes, found = _rainbow_path_signatures(g, coloring, node_budget)
    rp = _min_phases(classes, found, node_budget)
    full = (1 << len(classes)) - 1

    by_class_mask: dict[int, list[int]] = {}
    for cmask, vmask in found:
        by_class_mask.setdefault(cmask, []).append(vmask)

    def pareto_min(vmasks: list[int]) -> list[int]:
        vmasks = sorted(vmasks, key=lambda v: (v.bit_count(), v))
        keep: list[int] = []
        for v in vmasks:
            if not any(kv & v == kv for kv in keep):
                keep.append(v)
        return keep

    items = sorted(
        ((c, pareto_min(vs)) for c, vs in by_class_mask.items()),
        key=lambda cv: (-cv[0].bit_count(), cv[0]),
    )
    # per class bit, the items holding it, in reverse so that the stack pops the first
    holders = [[i for i in reversed(range(len(items))) if items[i][0] >> b & 1]
               for b in range(len(classes))]
    best: tuple[int, list[tuple[int, int]]] = (g.n + 1, [])  # (vertex count, sorted picks)
    stack: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, 0, ())]
    nodes = 0
    while stack:
        cmask, vunion, picks = stack.pop()
        if cmask == full:
            best = min(best, (vunion.bit_count(), sorted(picks)))
            continue
        if vunion.bit_count() > best[0]:
            continue
        for i in holders[(~cmask & cmask + 1).bit_length() - 1]:
            c, vmasks = items[i]
            if len(picks) + 1 == rp and cmask | c != full:
                continue  # the last pick must complete the cover
            for j in reversed(range(len(vmasks))):
                trial = vunion | vmasks[j]
                if trial.bit_count() <= best[0]:
                    nodes += 1
                    if nodes > node_budget:
                        raise BudgetExceededError(_EXHAUSTED)
                    stack.append((cmask | c, trial, (*picks, (i, j))))
    return sorted(found[items[i][0], items[i][1][j]] for i, j in best[1])


def _cycles(
    g: Graph, max_len: int | None, chordless: bool, budget: int = DEFAULT_NODE_BUDGET
) -> list[tuple[tuple[int, ...], int]]:
    """Every canonical simple cycle with its vertex bitmask, by (length, sequence).

    One DFS grows each cycle from its smallest vertex s through higher ones
    and closes it at a neighbour of s above the second vertex. ``chordless``
    skips a vertex adjacent to the path's interior and stops, after closing,
    at a neighbour of s. A vertex is pushed only if a path that keeps these
    rules can still lead from it to a closing vertex. Pushes are counted
    from every start, the second vertex included; push ``budget + 1``
    raises ``BudgetExceededError``.
    """
    limit = g.n if max_len is None else max_len
    nbrs = [sum(1 << u for u in a) for a in g.adjacency]
    found: list[tuple[tuple[int, ...], int]] = []
    pushes = 0
    for s in range(g.n if limit >= 3 else 0):
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


def enumerate_cycles(
    g: Graph,
    anchor: frozenset[int] | set[int],
    max_len: int | None = None,
    cycle_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[int, ...]]:
    """All simple cycles through at least one anchor vertex, canonicalized.

    Canonical form starts at the cycle's smallest vertex and takes the
    orientation whose second vertex is smaller than its last; results are
    sorted by (length, vertex sequence). An empty anchor yields []. The
    budget counts every push of the cycle search over the whole graph,
    anchored or not.
    """
    if not anchor:
        return []
    anchor = frozenset(anchor)
    return [c for c, _ in _cycles(g, max_len, False, cycle_budget) if not anchor.isdisjoint(c)]


def is_chordless(g: Graph, cycle: tuple[int, ...]) -> bool:
    """True when no two non-consecutive cycle vertices are adjacent."""
    k = len(cycle)
    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % k in (1, k - 1):
                continue
            if g.has_edge(cycle[i], cycle[j]):
                return False
    return True


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
    ``DEFAULT_NODE_BUDGET`` pushes. Each round fires circuits anchored at a
    vertex informed before the round started; within the round, circuits
    are chosen greedily by most newly informed vertices (ties: shorter, then
    lexicographic) until no circuit adds anyone. A round with no useful
    circuit becomes a fallback round that pushes the payload along BFS
    shortest paths instead.

    ``cycle_policy`` is "chordless" (default: only induced cycles carry,
    and the search pushes no vertex that would give the path a chord) or
    "all" (any simple cycle may fire).
    """
    if not informed0:
        raise InvalidParameterError("informed0 must be nonempty")
    for v in informed0:
        if not 0 <= v < g.n:
            raise InvalidParameterError(f"vertex {v} out of range")
    if cycle_policy not in ("chordless", "all"):
        raise InvalidParameterError(
            f"cycle_policy must be 'chordless' or 'all', got {cycle_policy!r}"
        )
    unreachable = set(range(g.n)) - bfs_parents(g, informed0).keys()
    if unreachable:
        raise UnreachableParticipantsError(tuple(sorted(unreachable)))

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

"""Exact minimum-color-count solver, cross-checked against a brute scan.

The in-test oracle below enumerates all n! labelings with no pruning
beyond skipping candidates that cannot improve, so any agreement with
``racn_exact`` (which prunes by automorphism orbits and partial counts)
is a genuine dual-route confirmation. A second scan, with the same label-1
orbit rule but found by testing every vertex permutation, gives the
lexicographically first minimum labeling, so the witness is checked too.
That scan stops at n = 6; beyond it, a plain index-order backtracking
search at the certified value checks the witness that ``racn_exact``
builds by probing.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racnshare import (
    BudgetExceededError,
    Labeling,
    build_graph,
    custom_graph,
    degree_stats,
    diameter,
    edge_weights,
    family_coloring,
    is_rainbow_connected,
    racn_exact,
    racn_upper,
)
from racnshare.rainbow import _first_labeling, _max_cardinality_order, vertex_orbits


def _rc(n, edges, weight_of):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def hunt(a, t, seen, used):
        if a == t:
            return True
        for b in adj[a]:
            if b in seen:
                continue
            wt = weight_of[(a, b) if a < b else (b, a)]
            if wt in used:
                continue
            if hunt(b, t, seen | {b}, used | {wt}):
                return True
        return False

    return all(
        hunt(u, v, {u}, set()) for u, v in itertools.combinations(range(n), 2)
    )


def brute_racn(g):
    """Scan every bijection; only rainbow-check candidates that improve."""
    best = None
    for perm in itertools.permutations(range(1, g.n + 1)):
        weight_of = {(a, b): perm[a] + perm[b] for a, b in g.edges}
        distinct = len(set(weight_of.values()))
        if best is not None and distinct >= best:
            continue
        if _rc(g.n, g.edges, weight_of):
            best = distinct
    return best


def first_min_labeling(g):
    """The lexicographically first rainbow-connected labeling of minimum count.

    Scans the label permutations in lexicographic order, giving label 1
    only to the smallest vertex of its orbit, with the orbits taken from a
    scan of every vertex permutation for automorphisms.
    """
    edges = {frozenset(e) for e in g.edges}
    autos = [
        pi for pi in itertools.permutations(range(g.n))
        if all(frozenset((pi[a], pi[b])) in edges for a, b in g.edges)
    ]
    reps = [min(pi[v] for pi in autos) for v in range(g.n)]
    best = None
    for perm in itertools.permutations(range(1, g.n + 1)):
        if reps[perm.index(1)] != perm.index(1):
            continue
        weight_of = {(a, b): perm[a] + perm[b] for a, b in g.edges}
        distinct = len(set(weight_of.values()))
        if (best is None or distinct < best[0]) and _rc(g.n, g.edges, weight_of):
            best = (distinct, perm)
    return best


def index_order_witness(g, value):
    """The lexicographically first rainbow-connected labeling with at most
    ``value`` weights: one backtracking search in vertex index order over
    the same label-1 orbit rule that ``racn_exact`` uses."""
    labels_mask = (2 << g.n) - 2
    cands = [labels_mask if rep == v else labels_mask & ~2
             for v, rep in enumerate(vertex_orbits(g))]

    def accept(labels):
        return is_rainbow_connected(g, edge_weights(g, Labeling(tuple(labels)))).connected

    return _first_labeling(g, list(range(g.n)), cands, value, accept)[0]


def heap_max_cardinality_order(g):
    """The heap-driven maximum-cardinality order that the plain scan replaced.

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


@pytest.mark.parametrize(
    "family,p",
    [(f, p) for f in ("shadow", "splitting", "mycielski", "path") for p in range(2, 11)]
    + [("path", 1100)],
)
def test_vertex_order_matches_heap(family, p):
    g = build_graph(family, p)
    assert _max_cardinality_order(g) == heap_max_cardinality_order(g)


FROZEN = {
    ("path", 2): 1,
    ("path", 3): 2,
    ("path", 4): 3,
    ("path", 5): 4,
    ("shadow", 2): 3,
    ("shadow", 3): 5,
    ("shadow", 4): 5,
    ("splitting", 2): 3,
    ("splitting", 3): 4,
    ("splitting", 4): 4,
    ("mycielski", 2): 3,
    ("mycielski", 3): 4,
}


# (value, witness) recorded from a best-so-far branch and bound over the same
# vertex and label order: the lexicographically first rainbow-connected
# labeling of minimum value, which iterative deepening must return unchanged
FROZEN_WITNESSES = {
    ("shadow", 2): (3, (1, 2, 3, 4)),
    ("shadow", 3): (5, (1, 5, 2, 3, 6, 4)),
    ("shadow", 4): (5, (1, 4, 3, 2, 7, 6, 5, 8)),
    ("shadow", 5): (6, (1, 4, 3, 2, 5, 6, 9, 8, 7, 10)),
    ("splitting", 2): (3, (1, 2, 4, 3)),
    ("splitting", 3): (4, (1, 2, 3, 4, 5, 6)),
    ("splitting", 4): (4, (1, 4, 3, 2, 5, 6, 7, 8)),
    ("splitting", 5): (5, (1, 5, 2, 4, 7, 10, 9, 6, 8, 3)),
    ("mycielski", 2): (3, (1, 3, 4, 5, 2)),
    ("mycielski", 3): (4, (1, 6, 2, 3, 7, 5, 4)),
    ("mycielski", 4): (5, (1, 6, 3, 4, 9, 8, 5, 7, 2)),
    ("mycielski", 5): (5, (2, 11, 6, 7, 10, 1, 8, 3, 4, 5, 9)),
    ("shadow", 6): (6, (1, 6, 2, 5, 3, 4, 7, 12, 8, 11, 9, 10)),
    ("splitting", 6): (5, (1, 10, 7, 8, 11, 6, 9, 12, 3, 4, 5, 2)),
    ("mycielski", 6): (6, (1, 5, 6, 9, 3, 13, 11, 10, 7, 8, 2, 12, 4)),
    ("path", 2): (1, (1, 2)),
    ("path", 3): (2, (1, 2, 3)),
    ("path", 4): (3, (1, 2, 3, 4)),
    ("path", 5): (4, (1, 2, 3, 4, 5)),
    ("path", 6): (5, (1, 2, 3, 4, 5, 6)),
    ("path", 7): (6, (1, 2, 3, 4, 5, 6, 7)),
    ("path", 8): (7, (1, 2, 3, 4, 5, 6, 7, 8)),
}


@pytest.mark.parametrize("family,p", sorted(FROZEN_WITNESSES))
def test_frozen_witnesses(family, p):
    cert = racn_exact(build_graph(family, p), max_n=13)
    assert (cert.value, cert.witness.values) == FROZEN_WITNESSES[(family, p)]
    assert cert.exhaustive


@pytest.mark.parametrize(
    "family,p",
    [(f, p) for f in ("shadow", "splitting", "mycielski") for p in range(2, 6)]
    + [("path", p) for p in range(2, 9)],
)
def test_witness_matches_index_order_search(family, p):
    g = build_graph(family, p)
    cert = racn_exact(g, max_n=11)
    assert cert.witness.values == index_order_witness(g, cert.value)


@pytest.mark.parametrize("family,p", sorted(FROZEN))
def test_frozen_values(family, p):
    g = build_graph(family, p)
    assert racn_exact(g).value == FROZEN[(family, p)]


@pytest.mark.parametrize(
    "family,p",
    [
        ("path", 4),
        ("path", 5),
        ("shadow", 2),
        ("shadow", 3),
        ("splitting", 2),
        ("splitting", 3),
        ("mycielski", 2),
        ("mycielski", 3),
    ],
)
def test_matches_unpruned_scan(family, p):
    g = build_graph(family, p)
    assert racn_exact(g).value == brute_racn(g)


@pytest.mark.parametrize("family", ["shadow", "splitting"])
def test_matches_unpruned_scan_n8(family):
    g = build_graph(family, 4)
    assert racn_exact(g).value == brute_racn(g)


@pytest.mark.parametrize("family,p", sorted(FROZEN))
def test_degree_and_diameter_floor(family, p):
    g = build_graph(family, p)
    _, maxdeg = degree_stats(g)
    assert FROZEN[(family, p)] >= max(diameter(g), maxdeg)


@pytest.mark.parametrize("family,p", sorted(FROZEN))
def test_certificate_is_a_witness(family, p):
    g = build_graph(family, p)
    cert = racn_exact(g)
    assert cert.exhaustive
    assert cert.examined >= 1
    coloring = edge_weights(g, cert.witness)
    assert len(coloring.classes) == cert.value
    assert is_rainbow_connected(g, coloring).connected


def test_too_large_raises():
    with pytest.raises(BudgetExceededError):
        racn_exact(build_graph("shadow", 5))
    with pytest.raises(BudgetExceededError):
        racn_exact(build_graph("shadow", 2), max_n=3)


def test_leaf_search_is_budgeted(set_node_budget):
    # splitting p=3's first pass places its 6 labels without backtracking,
    # then the leaf test from x2 pushes 7 nodes: the 7th is past a budget of 6
    set_node_budget(6)
    with pytest.raises(BudgetExceededError, match="path-search node budget exhausted") as info:
        racn_exact(build_graph("splitting", 3))
    assert info.traceback[-1].name == "_rainbow_paths"


def test_labeling_search_is_budgeted(set_node_budget):
    # shadow p=4's leaf tests push at most 13 nodes each, and its largest
    # labeling pass places 607 labels: the 607th is past a budget of 606
    set_node_budget(606)
    with pytest.raises(BudgetExceededError, match="path-search node budget exhausted") as info:
        racn_exact(build_graph("shadow", 4))
    assert info.traceback[-1].name == "_first_labeling"
    set_node_budget(607)
    assert racn_exact(build_graph("shadow", 4)).value == 5


class TestRacnUpper:
    def test_closed_form_shadow_p4(self):
        g, lab, _ = family_coloring("shadow", 4)
        assert racn_upper(g, lab) == 5

    def test_closed_form_mycielski_p2(self):
        g, lab, _ = family_coloring("mycielski", 2)
        assert racn_upper(g, lab) == 4

    def test_none_when_not_rainbow_connected(self):
        g = build_graph("path", 4)
        # weights 5, 6, 5: the ends see a repeated weight
        assert racn_upper(g, Labeling((1, 4, 2, 3))) is None

    @pytest.mark.parametrize(
        "family,p,gap",
        [
            ("shadow", 2, 0),
            ("splitting", 3, 0),
            ("shadow", 3, 1),      # formula coloring is not optimal here
            ("splitting", 4, 1),
            ("mycielski", 2, 1),
        ],
    )
    def test_upper_vs_exact(self, family, p, gap):
        g, lab, _ = family_coloring(family, p)
        upper = racn_upper(g, lab)
        assert upper is not None
        assert upper - racn_exact(g).value == gap


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_random_graphs_match_scan(data):
    n = data.draw(st.integers(min_value=3, max_value=5))
    pool = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    # spanning path keeps it connected; extras densify
    edges = sorted(set(zip(range(n - 1), range(1, n))) | extra)
    g = custom_graph(n, edges)
    assert _max_cardinality_order(g) == heap_max_cardinality_order(g)
    assert racn_exact(g).value == brute_racn(g)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_graphs_match_first_min_labeling(data):
    n = data.draw(st.integers(min_value=3, max_value=6))
    # a random tree on a shuffled vertex order keeps the graph connected
    shuffled = data.draw(st.permutations(range(n)))
    tree = {
        tuple(sorted((shuffled[i], shuffled[data.draw(st.integers(0, i - 1))])))
        for i in range(1, n)
    }
    pool = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    g = custom_graph(n, sorted(tree | extra))
    assert _max_cardinality_order(g) == heap_max_cardinality_order(g)
    cert = racn_exact(g)
    assert (cert.value, cert.witness.values) == first_min_labeling(g)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_random_graphs_match_index_order_search(data):
    n = data.draw(st.integers(min_value=7, max_value=9))
    shuffled = data.draw(st.permutations(range(n)))
    tree = {
        tuple(sorted((shuffled[i], shuffled[data.draw(st.integers(0, i - 1))])))
        for i in range(1, n)
    }
    # at least three edges off the tree: on a 9-vertex tree racn_exact alone
    # can take 10 s to prove the levels below the edge count infeasible
    pool = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    extra = data.draw(st.sets(st.sampled_from(pool), min_size=3, max_size=n))
    g = custom_graph(n, sorted(tree | extra))
    assert _max_cardinality_order(g) == heap_max_cardinality_order(g)
    cert = racn_exact(g, max_n=9)
    assert cert.witness.values == index_order_witness(g, cert.value)

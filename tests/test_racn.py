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
from functools import partial

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
    rainbow,
)
from racnshare.graphs import bridge_count
from racnshare.rainbow import (
    _first_labeling,
    _max_cardinality_order,
    _rainbow_connected,
    vertex_orbits,
)


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


def orbit_cands(g):
    """Each vertex's candidate labels as a bitmask, with label 1 only on the
    smallest vertex of each automorphism orbit, as in ``racn_exact``."""
    labels_mask = (2 << g.n) - 2
    return [labels_mask if rep == v else labels_mask & ~2
            for v, rep in enumerate(vertex_orbits(g))]


def index_order_witness(g, value):
    """The lexicographically first rainbow-connected labeling with at most
    ``value`` weights: one backtracking search in vertex index order over
    the same label-1 orbit rule that ``racn_exact`` uses."""
    cands = orbit_cands(g)

    def accept(labels):
        return is_rainbow_connected(g, edge_weights(g, Labeling(tuple(labels)))).connected

    return _first_labeling(g, list(range(g.n)), cands, value, accept)[0]


def forward_checking_first_labeling(g, order, cands, bound, accept):
    """``_first_labeling`` with the forward check it once had, and no budget.

    It also drops a label when some frontier vertex x (unplaced, with a
    placed neighbour) has no free label that keeps the weights within the
    bound. Such a subtree holds no complete labeling, so ``(labels, leaves)``
    must be those of the plain search.
    """
    n = g.n
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    later = [[x for x in g.adjacency[v] if pos[x] > pos[v]] for v in range(n)]
    # frontier[k]: (x, 1 if x neighbours order[k] else 0) for each x on the
    # frontier once positions 0..k are placed
    frontier = [[] for _ in range(n)]
    for x in range(n):
        first = min((pos[u] for u in g.adjacency[x]), default=n)
        for k in range(first, pos[x]):
            frontier[k].append((x, int(x in later[order[k]])))
    labels = [0] * n
    near = [0] * n
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


def assert_same_as_forward_checking(g):
    """Both searches give the same ``(labels, leaves)`` on every call that
    ``racn_exact`` makes, witness probes included, and in both vertex
    orders at every level that ``racn_exact`` deepens through."""
    def both(*args):
        got = _first_labeling(*args)
        assert got == forward_checking_first_labeling(*args)
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rainbow, "_first_labeling", both)
        value = racn_exact(g, max_n=g.n).value
    cands = orbit_cands(g)
    accept = partial(_rainbow_connected, g)
    for order in (_max_cardinality_order(g), list(range(g.n))):
        for bound in range(max(diameter(g), degree_stats(g)[1], bridge_count(g)), value + 1):
            both(g, order, cands, bound, accept)


@pytest.mark.parametrize(
    "family,p",
    [(f, p) for f in ("shadow", "splitting", "mycielski") for p in range(2, 6)]
    + [("path", p) for p in range(2, 9)],
)
def test_labeling_search_matches_forward_checking(family, p):
    assert_same_as_forward_checking(build_graph(family, p))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_forward_checking(data):
    n = data.draw(st.integers(min_value=5, max_value=8))
    shuffled = data.draw(st.permutations(range(n)))
    tree = {
        tuple(sorted((shuffled[i], shuffled[data.draw(st.integers(0, i - 1))])))
        for i in range(1, n)
    }
    pool = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    assert_same_as_forward_checking(custom_graph(n, sorted(tree | extra)))


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
    # this 6-vertex graph has only the identity automorphism, which its search
    # finds in 7 pushes. Its leaf tests push up to 11 nodes from one vertex, and
    # a labeling pass places more than 11 labels, but only after a leaf test
    # has pushed 11: budgets 8 to 10 stop in a leaf test
    g = custom_graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (1, 5), (3, 4)])
    for budget, stage in [(7, "automorphisms"), (8, "_rainbow_paths"), (10, "_rainbow_paths"),
                          (11, "_first_labeling")]:
        set_node_budget(budget)
        with pytest.raises(BudgetExceededError, match="path-search node budget exhausted") as info:
            racn_exact(g)
        assert info.traceback[-1].name == stage, budget


def test_labeling_search_is_budgeted(set_node_budget):
    # shadow p=4's leaf tests push at most 13 nodes each, and its largest
    # labeling pass places 1,952 labels: the 1,952nd is past a budget of 1,951
    set_node_budget(1951)
    with pytest.raises(BudgetExceededError, match="path-search node budget exhausted") as info:
        racn_exact(build_graph("shadow", 4))
    assert info.traceback[-1].name == "_first_labeling"
    set_node_budget(1952)
    assert racn_exact(build_graph("shadow", 4)).value == 5


def test_tree_starts_at_its_bridge_count():
    # every edge of a tree is a bridge, so the search starts at the feasible
    # level 8, not at max(diameter, max degree) = 5: the feasibility pass
    # tests 2 labelings and the witness probes 44 more (394,396 from level 5)
    g = custom_graph(9, [(0, 2), (1, 3), (1, 4), (1, 6), (2, 4), (2, 5), (2, 8), (5, 7)])
    cert = racn_exact(g, max_n=9)
    assert (cert.value, cert.witness.values, cert.examined) == (
        8, (1, 2, 3, 4, 5, 6, 8, 7, 9), 46)


def racn_from_degree_and_diameter(g):
    """``racn_exact``'s value and witness found by deepening from
    max(diameter, max degree), the start before bridges were counted."""
    cands = orbit_cands(g)
    accept = partial(_rainbow_connected, g)
    for bound in range(max(diameter(g), degree_stats(g)[1]), len(g.edges) + 1):
        if _first_labeling(g, _max_cardinality_order(g), cands, bound, accept)[0]:
            return bound, index_order_witness(g, bound)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_bridge_start_keeps_value_and_witness(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    shuffled = data.draw(st.permutations(range(n)))
    tree = {
        tuple(sorted((shuffled[i], shuffled[data.draw(st.integers(0, i - 1))])))
        for i in range(1, n)
    }
    # a tree, or a tree plus a few edges, so that some bridges remain
    pool = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=2)) if pool else set()
    g = custom_graph(n, sorted(tree | extra))
    cert = racn_exact(g)
    assert (cert.value, cert.witness.values) == racn_from_degree_and_diameter(g)


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

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racnshare import rainbow
from racnshare import (
    BudgetExceededError,
    InvalidParameterError,
    Labeling,
    RainbowPath,
    WeightedColoring,
    automorphisms,
    build_graph,
    custom_graph,
    distribute,
    edge_weights,
    exists_rainbow_path,
    family_coloring,
    family_labeling,
    is_rainbow_connected,
    max_new_color_path,
    racn_upper,
    simulate_reconstruction,
    vertex_orbits,
)


def repeated_weight_path():
    """P_4 with weights 3,5,3: the only end-to-end path repeats a weight."""
    g = build_graph("path", 4)
    weights = {(0, 1): 3, (1, 2): 5, (2, 3): 3}
    classes = {3: ((0, 1), (2, 3)), 5: ((1, 2),)}
    return g, WeightedColoring(weights=weights, classes=classes)


class TestRainbowPathType:
    def test_rejects_repeated_vertex(self):
        with pytest.raises(InvalidParameterError):
            RainbowPath((0, 1, 0), (3, 4))

    def test_rejects_repeated_weight(self):
        with pytest.raises(InvalidParameterError):
            RainbowPath((0, 1, 2), (3, 3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            RainbowPath((0, 1), (3, 4))


class TestExistsRainbowPath:
    def test_shadow_p4_x_chain(self):
        g, _, w = family_coloring("shadow", 4)
        p = exists_rainbow_path(g, w, g.index_of("x1"), g.index_of("x4"))
        assert p is not None
        assert p.vertices == (0, 1, 2, 3)
        assert p.weights == (5, 9, 13)

    def test_single_edge_always_rainbow(self):
        for family in ("shadow", "splitting", "mycielski"):
            g, _, w = family_coloring(family, 3)
            u, v = g.edges[0]
            p = exists_rainbow_path(g, w, u, v)
            assert p is not None and p.edge_count >= 1

    def test_absent_when_only_path_repeats(self):
        g, w = repeated_weight_path()
        assert exists_rainbow_path(g, w, 0, 3) is None
        # shorter hops are still fine
        assert exists_rainbow_path(g, w, 0, 2) is not None

    def test_same_endpoint_rejected(self):
        g, _, w = family_coloring("shadow", 2)
        with pytest.raises(InvalidParameterError):
            exists_rainbow_path(g, w, 1, 1)

    def test_out_of_range_rejected(self):
        g, _, w = family_coloring("shadow", 2)
        with pytest.raises(InvalidParameterError):
            exists_rainbow_path(g, w, 0, 99)

    def test_path_invariants_hold(self):
        g, _, w = family_coloring("mycielski", 4)
        for u, v in itertools.combinations(range(g.n), 2):
            p = exists_rainbow_path(g, w, u, v)
            assert p is not None
            assert p.vertices[0] == u and p.vertices[-1] == v
            for a, b, wt in zip(p.vertices, p.vertices[1:], p.weights):
                assert g.has_edge(a, b)
                assert w.weight(a, b) == wt

    def test_budget_exhaustion_raises(self, set_node_budget):
        g, _, w = family_coloring("shadow", 6)
        set_node_budget(2)
        with pytest.raises(BudgetExceededError):
            # y1 (index 6) is far from x6; 2 nodes cannot cover the distance
            exists_rainbow_path(g, w, 6, 5)


class TestIsRainbowConnected:
    def test_mycielski_p3_true(self):
        g, _, w = family_coloring("mycielski", 3)
        res = is_rainbow_connected(g, w)
        assert res.connected and bool(res)
        assert len(res.witnesses) == 21
        x2_a = res.witnesses[(g.index_of("x2"), g.index_of("a"))]
        assert x2_a.vertices[0] == g.index_of("x2")
        assert x2_a.vertices[-1] == g.index_of("a")

    def test_identity_path_p5(self):
        g = build_graph("path", 5)
        w = edge_weights(g, Labeling((1, 2, 3, 4, 5)))
        assert sorted(w.weights.values()) == [3, 5, 7, 9]
        assert is_rainbow_connected(g, w).connected

    def test_monochrome_distance2_false(self):
        g = build_graph("path", 3)
        w = WeightedColoring(
            weights={(0, 1): 4, (1, 2): 4}, classes={4: ((0, 1), (1, 2))}
        )
        res = is_rainbow_connected(g, w)
        assert not res.connected
        assert res.failing_pair == (0, 2)

    def test_failing_pair_reported(self):
        g, w = repeated_weight_path()
        res = is_rainbow_connected(g, w)
        assert not res.connected
        assert res.failing_pair == (0, 3)

    def test_disconnected_raises(self):
        g = custom_graph(4, [(0, 1), (2, 3)])
        w = WeightedColoring(
            weights={(0, 1): 3, (2, 3): 7}, classes={3: ((0, 1),), 7: ((2, 3),)}
        )
        with pytest.raises(InvalidParameterError):
            is_rainbow_connected(g, w)

    def test_refining_a_class_preserves_connectivity(self):
        # splitting one weight class into two can only make more paths
        # rainbow, never fewer
        for family, p in (("shadow", 4), ("splitting", 5), ("mycielski", 3)):
            g, _, w = family_coloring(family, p)
            assert is_rainbow_connected(g, w).connected
            fresh = max(w.classes) + 1
            for value, edges in w.classes.items():
                if len(edges) < 2:
                    continue
                moved = edges[0]
                weights = dict(w.weights)
                weights[moved] = fresh
                classes = dict(w.classes)
                classes[value] = tuple(e for e in edges if e != moved)
                classes[fresh] = (moved,)
                refined = WeightedColoring(weights=weights, classes=classes)
                assert is_rainbow_connected(g, refined).connected, (family, p, value)

    def test_racn_upper_builds_no_witness_paths(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("racn_upper called is_rainbow_connected")

        monkeypatch.setattr(rainbow, "is_rainbow_connected", refuse)
        assert racn_upper(build_graph("path", 600), family_labeling("path", 600)) == 599

    def test_racn_upper_agrees_with_witness_search(self):
        def expected(g, lab):
            w = edge_weights(g, lab)
            return len(w.classes) if is_rainbow_connected(g, w).connected else None

        for family in ("path", "shadow", "splitting", "mycielski"):
            for p in range(2, 9):
                g, lab, _ = family_coloring(family, p)
                assert racn_upper(g, lab) == expected(g, lab), (family, p)
        rng = random.Random(13)
        outcomes = set()
        for _ in range(150):
            g, lab = random_labeled_graph(rng)
            got = racn_upper(g, lab)
            assert got == expected(g, lab), (g.edges, lab.values)
            outcomes.add(got is None)
        assert outcomes == {False, True}


class TestMaxNewColorPath:
    def test_shadow_p4_full_cover(self):
        g, _, w = family_coloring("shadow", 4)
        p = max_new_color_path(g, w)
        assert p.vertices == (0, 1, 6, 5, 2, 3)
        assert p.weights == (5, 7, 9, 11, 13)

    def test_splitting_p4_full_cover(self):
        g, _, w = family_coloring("splitting", 4)
        p = max_new_color_path(g, w)
        # covers all five classes; lexicographic tie-break picks the
        # y2-first orientation of the cover path
        assert p.vertices == (5, 0, 1, 2, 3, 6)
        assert p.weights == (8, 3, 5, 7, 10)
        assert set(p.weights) == set(w.classes)

    def test_mycielski_p2_full_cover(self):
        g, _, w = family_coloring("mycielski", 2)
        p = max_new_color_path(g, w)
        assert p.vertices == (1, 0, 3, 4, 2)
        assert p.weights == (9, 7, 5, 4)

    def test_graph_without_edges_rejected(self):
        # max_gain=0 is test_gain_cap_of_zero_raises_in_both below
        single = custom_graph(1, [])
        with pytest.raises(InvalidParameterError):
            max_new_color_path(single, edge_weights(single, Labeling((1,))))

    def test_deterministic(self):
        g, _, w = family_coloring("mycielski", 4)
        first = max_new_color_path(g, w)
        for _ in range(3):
            assert max_new_color_path(g, w) == first

    def test_max_gain_cap_enforced(self):
        g, _, w = family_coloring("shadow", 4)
        p = max_new_color_path(g, w, max_gain=3)
        assert len(set(p.weights)) == 3


BRUTE_CELLS = [("path", 4), ("path", 5), ("shadow", 2), ("splitting", 2), ("splitting", 3),
               ("mycielski", 2)]


def brute_automorphisms(g):
    """Every vertex permutation that preserves adjacency, by trying all n! of them."""
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    return {perm for perm in itertools.permutations(range(g.n))
            if all((perm[u] in adj[perm[v]]) == (u in adj[v])
                   for u in range(g.n) for v in range(g.n) if u != v)}


class TestAutomorphisms:
    @pytest.mark.parametrize("family,p", BRUTE_CELLS)
    def test_against_brute_force(self, family, p):
        g = build_graph(family, p)
        assert set(automorphisms(g)) == brute_automorphisms(g)

    def test_path_group_order(self):
        assert len(automorphisms(build_graph("path", 6))) == 2  # identity + reversal

    def test_budget_counts_placed_images(self, set_node_budget):
        # the star K_1,4: the centre has 1 image, then its leaves have 4, 4*3,
        # 4*3*2 and 4! partial images, 65 pushes for the 24 automorphisms
        star = custom_graph(5, [(0, leaf) for leaf in range(1, 5)])
        set_node_budget(64)
        with pytest.raises(BudgetExceededError, match="path-search node budget exhausted"):
            vertex_orbits(star)
        set_node_budget(65)
        assert len(automorphisms(star)) == 24
        assert vertex_orbits(star) == [0, 1, 1, 1, 1]

    def test_orbit_reps_are_minima(self):
        for family in ("shadow", "splitting", "mycielski"):
            g = build_graph(family, 3)
            reps = vertex_orbits(g)
            for v, r in enumerate(reps):
                assert r <= v
                assert reps[r] == r
        for family, p in BRUTE_CELLS:
            g = build_graph(family, p)
            brute = brute_automorphisms(g)
            assert vertex_orbits(g) == [min(s[v] for s in brute) for v in range(g.n)]


def pair_dfs_path(g, w, u, v, node_budget):
    """The per-pair recursive DFS the single-source search replaced.

    Visits neighbours in ascending order and charges one node per push;
    raises ``BudgetExceededError`` on push number ``node_budget + 1``.
    """
    left = [node_budget]
    path, seen, used = [u], {u}, set()

    def dfs(a):
        if a == v:
            return True
        for b in g.adjacency[a]:
            wt = w.weight(a, b)
            if b in seen or wt in used:
                continue
            left[0] -= 1
            if left[0] < 0:
                raise BudgetExceededError("oracle budget exhausted")
            path.append(b)
            seen.add(b)
            used.add(wt)
            if dfs(b):
                return True
            path.pop()
            seen.remove(b)
            used.remove(wt)
        return False

    if not dfs(u):
        return None
    return RainbowPath(tuple(path), tuple(w.weight(a, b) for a, b in zip(path, path[1:])))


def pair_dfs_connectivity(g, w, node_budget=1_000_000):
    """(witness items in insertion order, failing pair), one DFS per pair."""
    witnesses = []
    for u, v in itertools.combinations(range(g.n), 2):
        p = pair_dfs_path(g, w, u, v, node_budget)
        if p is None:
            return witnesses, (u, v)
        witnesses.append(((u, v), p))
    return witnesses, None


def modular_coloring(family, p, mod):
    """The family coloring with every weight taken mod ``mod``."""
    g, _, w = family_coloring(family, p)
    weights = {e: x % mod for e, x in w.weights.items()}
    classes = {}
    for e, x in weights.items():
        classes.setdefault(x, []).append(e)
    return g, WeightedColoring(weights, {x: tuple(es) for x, es in classes.items()})


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError:
        return "budget"


NOT_CONNECTED = {
    "repeated weight on P_4": (repeated_weight_path, (0, 3)),
    "shadow p=3 mod 3": (lambda: modular_coloring("shadow", 3, 3), (2, 5)),
}


class TestSingleSourceMatchesPairDFS:
    @pytest.mark.parametrize(
        "family,p",
        [(f, p) for f in ("shadow", "splitting") for p in range(2, 13)]
        + [("mycielski", p) for p in range(2, 9)],
    )
    def test_family_witnesses(self, family, p):
        g, _, w = family_coloring(family, p)
        res = is_rainbow_connected(g, w)
        expected, failing = pair_dfs_connectivity(g, w)
        assert list(res.witnesses.items()) == expected
        assert failing is None and res.failing_pair is None and res.connected

    @pytest.mark.parametrize("name", sorted(NOT_CONNECTED))
    def test_not_connected_witnesses(self, name):
        make, pair = NOT_CONNECTED[name]
        g, w = make()
        res = is_rainbow_connected(g, w)
        expected, failing = pair_dfs_connectivity(g, w)
        assert not res.connected
        assert res.failing_pair == failing == pair
        assert list(res.witnesses.items()) == expected

    @pytest.mark.parametrize(
        "name", ["shadow p=3", "splitting p=3", "mycielski p=3", *sorted(NOT_CONNECTED)]
    )
    def test_budget_raises_agree(self, name, set_node_budget):
        if name in NOT_CONNECTED:
            g, w = NOT_CONNECTED[name][0]()
        else:
            family, p = name.split(" p=")
            g, _, w = family_coloring(family, int(p))
        raised = set()
        for budget in range(1, 61):
            set_node_budget(budget)
            got = outcome(is_rainbow_connected, g, w)
            want = outcome(pair_dfs_connectivity, g, w, node_budget=budget)
            if want == "budget":
                raised.add(budget)
                assert got == "budget", budget
            else:
                assert got != "budget", budget
                assert (list(got.witnesses.items()), got.failing_pair) == want
            for u, v in itertools.permutations(range(g.n), 2):
                assert outcome(exists_rainbow_path, g, w, u, v) == \
                    outcome(pair_dfs_path, g, w, u, v, budget), (budget, u, v)
        assert 1 in raised and 60 not in raised


class _Stop(Exception):
    pass


def recursive_max_new_color_path(g, w, collected=frozenset(), node_budget=1_000_000,
                                 max_gain=None, stop=False):
    """The recursive ``max_new_color_path`` the shared enumerator replaced.

    Scans every rainbow path and keeps the least ``(-gain, edges, vertices)``
    key; raises ``BudgetExceededError`` on push number ``node_budget + 1``.
    With ``stop`` it ends the scan at the first path that gains
    ``top = min(#uncollected, max_gain)`` classes on ``top`` edges.
    """
    if not set(w.classes) - set(collected):
        raise InvalidParameterError("every weight class is already collected")
    top = len(set(w.classes) - collected)
    if max_gain is not None:
        top = min(top, max_gain)
    left = [node_budget]
    best = None
    path, weights, seen, used = [], [], set(), set()

    def consider():
        nonlocal best
        gain = len(set(weights) - collected)
        if max_gain is not None and gain > max_gain:
            return
        key = (-gain, len(weights), tuple(path))
        if best is None or key < best[0]:
            best = (key, list(path), list(weights))
            if stop and gain == top == len(weights):
                raise _Stop

    def dfs(a):
        for b in g.adjacency[a]:
            if b in seen:
                continue
            wt = w.weight(a, b)
            if wt in used:
                continue
            left[0] -= 1
            if left[0] < 0:
                raise BudgetExceededError("oracle budget exhausted")
            path.append(b)
            weights.append(wt)
            seen.add(b)
            used.add(wt)
            consider()
            dfs(b)
            path.pop()
            weights.pop()
            seen.remove(b)
            used.remove(wt)

    try:
        for s in range(g.n):
            path, weights, seen, used = [s], [], {s}, set()
            dfs(s)
    except _Stop:
        pass
    if best is None or -best[0][0] <= 0:
        raise InvalidParameterError("no path adds an uncollected weight class")
    return RainbowPath(tuple(best[1]), tuple(best[2]))


FAMILY_CELLS = [(f, p) for f in ("shadow", "splitting", "mycielski") for p in range(2, 11)]


class TestMaxNewColorPathMatchesRecursive:
    @pytest.mark.parametrize("family,p", FAMILY_CELLS)
    def test_same_winner(self, family, p):
        g, _, w = family_coloring(family, p)
        for max_gain in (None, len(w.classes) - 1, 1):
            assert max_new_color_path(g, w, max_gain=max_gain) == \
                recursive_max_new_color_path(g, w, max_gain=max_gain), max_gain

    def test_gain_cap_of_zero_raises_in_both(self):
        g, _, w = family_coloring("shadow", 3)
        for fn in (max_new_color_path, recursive_max_new_color_path):
            with pytest.raises(InvalidParameterError):
                fn(g, w, max_gain=0)

    @pytest.mark.parametrize("family", ["shadow", "splitting", "mycielski"])
    def test_budget_raises_agree(self, family, set_node_budget):
        g, _, w = family_coloring(family, 3)
        raised = set()
        for budget in range(1, 200):
            set_node_budget(budget)
            got = outcome(max_new_color_path, g, w)
            want = outcome(recursive_max_new_color_path, g, w, node_budget=budget, stop=True)
            assert got == want, budget
            if want == "budget":
                raised.add(budget)
        assert 1 in raised and 199 not in raised

    def test_stop_is_the_full_scan_winner(self):
        # the budget test above gives the oracle the same stop; unbudgeted,
        # the stopped scan and the full one pick the same path
        for family, p in FAMILY_CELLS[::3]:
            g, _, w = family_coloring(family, p)
            for max_gain in (None, len(w.classes) - 1, 1):
                assert recursive_max_new_color_path(g, w, max_gain=max_gain, stop=True) == \
                    recursive_max_new_color_path(g, w, max_gain=max_gain)


def per_phase_greedy(g, w, clamp):
    """Greedy reconstruction's phases as one full-scan oracle call per phase."""
    classes = frozenset(w.classes)
    max_gain = max(1, len(classes) - 1) if clamp else None
    collected, phases = frozenset(), []
    while collected != classes:
        path = recursive_max_new_color_path(g, w, collected, max_gain=max_gain)
        phases.append((path, frozenset(path.weights) - collected))
        collected |= frozenset(path.weights)
    return phases


def random_labeled_graph(rng):
    """A connected graph on 4 to 9 vertices with a random bijective labeling."""
    n = rng.randint(4, 9)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a random spanning tree
    for _ in range(rng.randint(0, n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return custom_graph(n, sorted(edges)), Labeling(tuple(rng.sample(range(1, n + 1), n)))


class TestGreedyReconstructionMatchesPerPhaseScan:
    @pytest.mark.parametrize(
        "family,p",
        [(f, p) for f in ("shadow", "splitting") for p in range(2, 9)]
        + [("mycielski", p) for p in range(2, 7)],
    )
    def test_family_traces(self, family, p):
        g, lab, w = family_coloring(family, p)
        inst = distribute(g, lab, b"phase", seed=0)
        for clamp in (False, True):
            trace = simulate_reconstruction(inst, clamp=clamp)
            assert list(trace.phases) == per_phase_greedy(g, w, clamp), clamp

    def test_random_labeled_graphs(self):
        rng = random.Random(13)
        for _ in range(150):
            g, lab = random_labeled_graph(rng)
            inst = distribute(g, lab, b"phase", seed=0)
            for clamp in (False, True):
                trace = simulate_reconstruction(inst, clamp=clamp)
                assert list(trace.phases) == per_phase_greedy(g, inst.coloring, clamp), \
                    (g.edges, lab.values, clamp)

    def test_reads_the_paths_at_most_twice(self, monkeypatch):
        reads = []
        enumerate_paths = rainbow._rainbow_paths

        def counted(*args):
            reads.append(args)
            return enumerate_paths(*args)

        monkeypatch.setattr(rainbow, "_rainbow_paths", counted)
        g, lab, _ = family_coloring("mycielski", 12)
        trace = simulate_reconstruction(distribute(g, lab, b"phase", seed=0))
        assert trace.phase_count == 6
        assert len(reads) <= 2


def two_mask_rainbow_paths(adj, sources, node_budget):
    """The path kernel before its state was packed, kept as an oracle.

    ``seen`` and ``used`` are separate vertex and class bitmasks, and each
    adjacency entry carries its class bit alone.
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
            if pushes > node_budget:
                raise BudgetExceededError("oracle budget exhausted")
            seen |= 1 << e[0]
            used |= e[2]
            taken.append(e)
            yield taken, seen, used
            stack.append(iter(adj[e[0]]))


def two_mask_adjacency(g, w):
    bit_of = {wt: 1 << i for i, wt in enumerate(sorted(w.classes))}
    return [[(b, wt, bit_of[wt]) for b in nbrs for wt in (w.weight(a, b),)]
            for a, nbrs in enumerate(g.adjacency)]


def two_mask_sum_adjacency(g, labels):
    return [[(b, s, 1 << s) for b in nbrs for s in (labels[a] + labels[b],)]
            for a, nbrs in enumerate(g.adjacency)]


def sum_adjacency(g, labels):
    """The sum-indexed adjacency that ``_rainbow_connected`` hands the kernel."""
    handed = []

    def capture(adj, sources):
        handed.append(adj)
        return iter(())

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rainbow, "_rainbow_paths", capture)
        rainbow._rainbow_connected(g, labels)
    return handed[0]


def walk(paths, unpack):
    """Each push as ``(vertices, weights, seen, used)``, and whether the
    walk ended in a budget raise."""
    log = []
    try:
        for taken, *state in paths:
            log.append((tuple([t[0] for t in taken]), tuple([t[1] for t in taken[1:]]),
                        *unpack(*state)))
    except BudgetExceededError:
        return log, True
    return log, False


def assert_packed_walk_matches(packed_adj, oracle_adj):
    n = len(packed_adj)
    vmask = (1 << n) - 1
    sources = range(n)

    def two_masks(seen, used):
        return seen, used

    pushes = len(walk(two_mask_rainbow_paths(oracle_adj, sources, rainbow.NODE_BUDGET),
                      two_masks)[0])
    assert pushes < rainbow.NODE_BUDGET
    for budget in sorted({0, 1, pushes // 2, max(pushes - 1, 0), pushes}):
        want = walk(two_mask_rainbow_paths(oracle_adj, sources, budget), two_masks)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rainbow, "NODE_BUDGET", budget)
            got = walk(rainbow._rainbow_paths(packed_adj, sources),
                       lambda state: (state & vmask, state >> n))
        assert got == want, budget
        assert want[1] == (budget < pushes)


PACKED_CELLS = ([(f, p) for f in ("shadow", "splitting", "mycielski") for p in range(2, 7)]
                + [("path", p) for p in range(2, 9)])


class TestPackedKernelMatchesTwoMasks:
    @pytest.mark.parametrize("family,p", PACKED_CELLS)
    def test_family_walks(self, family, p):
        g, _, w = family_coloring(family, p)
        assert_packed_walk_matches(rainbow._adjacency(g, w), two_mask_adjacency(g, w))

    @pytest.mark.parametrize("family,p", PACKED_CELLS)
    def test_sum_indexed_walks(self, family, p):
        g, lab, _ = family_coloring(family, p)
        assert_packed_walk_matches(sum_adjacency(g, lab.values),
                                   two_mask_sum_adjacency(g, lab.values))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_labeled_graphs(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        shuffled = data.draw(st.permutations(range(n)))
        tree = {
            tuple(sorted((shuffled[i], shuffled[data.draw(st.integers(0, i - 1))])))
            for i in range(1, n)
        }
        pool = list(itertools.combinations(range(n), 2))
        extra = data.draw(st.sets(st.sampled_from(pool), max_size=n))
        g = custom_graph(n, sorted(tree | extra))
        labels = tuple(data.draw(st.permutations(range(1, n + 1))))
        w = edge_weights(g, Labeling(labels))
        assert_packed_walk_matches(rainbow._adjacency(g, w), two_mask_adjacency(g, w))
        assert_packed_walk_matches(sum_adjacency(g, labels), two_mask_sum_adjacency(g, labels))

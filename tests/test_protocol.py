import dataclasses
import random
from collections import deque

import pytest

from racnshare import (
    BudgetExceededError,
    DisseminationRound,
    DisseminationTrace,
    InvalidParameterError,
    Labeling,
    RacnShareError,
    build_graph,
    custom_graph,
    distribute,
    edge_weights,
    empirical_m,
    empirical_rp,
    enumerate_cycles,
    family_coloring,
    fixture_graph,
    simulate_dissemination,
    simulate_reconstruction,
)
from racnshare.protocol import (
    _cycles,
    _min_phases,
    _min_vertex_cover_choice,
    _rainbow_path_signatures,
    _rebuilt_path,
)
from racnshare import rainbow
from racnshare.rainbow import _adjacency


def is_chordless(g, cycle):
    """True when no two non-consecutive cycle vertices are adjacent: the oracle
    that ``_cycles``' chordless mode is checked against."""
    k = len(cycle)
    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % k in (1, k - 1):
                continue
            if g.has_edge(cycle[i], cycle[j]):
                return False
    return True


def deal(family, p, secret=b"vault-key", seed=0):
    g, lab, _ = family_coloring(family, p)
    return distribute(g, lab, secret, seed=seed)


class TestDistribute:
    def test_share_indexes_follow_class_order(self):
        inst = deal("shadow", 4)
        assert sorted(inst.class_to_share) == [5, 7, 9, 11, 13]
        assert [inst.class_to_share[c].index for c in [5, 7, 9, 11, 13]] == [1, 2, 3, 4, 5]
        assert inst.threshold == 5

    def test_mycielski_p2_classes(self):
        inst = deal("mycielski", 2)
        assert sorted(inst.class_to_share) == [4, 5, 7, 9]
        assert inst.threshold == 4

    def test_plain_graph_threshold_is_class_count(self):
        inst = distribute(build_graph("path", 4), Labeling((1, 2, 3, 4)), b"s")
        assert inst.threshold == 3  # weights 3, 5, 7

    def test_vertex_holds_one_share_per_incident_class(self):
        inst = deal("shadow", 4)
        held = inst.shares_of_vertex(0)  # x1: chain edge w5, cross edge w7
        assert sorted(held) == [5, 7]
        assert held[5].index == 1 and held[7].index == 2

    def test_empty_secret_rejected(self):
        g, lab, _ = family_coloring("shadow", 2)
        with pytest.raises(InvalidParameterError):
            distribute(g, lab, b"")


GREEDY_PHASES = {
    "shadow": [1, 2, 1, 1, 1, 1, 1],
    "splitting": [1, 2, 1, 1, 1, 1, 1],
    "mycielski": [1, 2, 2, 2, 3, 3, 4],
}


class TestReconstruction:
    @pytest.mark.parametrize("family", sorted(GREEDY_PHASES))
    def test_greedy_phase_counts(self, family):
        for p, expected in zip(range(2, 9), GREEDY_PHASES[family]):
            inst = deal(family, p)
            trace = simulate_reconstruction(inst)
            assert trace.phase_count == expected, (family, p)
            assert trace.recovered == inst.secret
            assert trace.collected_after[-1] == frozenset(inst.coloring.classes)

    def test_shadow_p4_single_phase_path(self):
        trace = simulate_reconstruction(deal("shadow", 4))
        (path, newly), = trace.phases
        assert path.vertices == (0, 1, 6, 5, 2, 3)
        assert path.weights == (5, 7, 9, 11, 13)
        assert newly == frozenset({5, 7, 9, 11, 13})
        assert trace.participants_used == frozenset({0, 1, 2, 3, 5, 6})

    def test_shadow_p5_single_phase_path(self):
        trace = simulate_reconstruction(deal("shadow", 5))
        (path, _), = trace.phases
        assert path.vertices == (0, 6, 5, 1, 2, 3, 9, 8, 4)
        assert path.weights == (8, 17, 14, 9, 13, 10, 5, 12)

    def test_mycielski_p2_single_phase_path(self):
        trace = simulate_reconstruction(deal("mycielski", 2))
        (path, _), = trace.phases
        assert path.vertices == (1, 0, 3, 4, 2)
        assert path.weights == (9, 7, 5, 4)

    def test_mycielski_p3_two_phases(self):
        trace = simulate_reconstruction(deal("mycielski", 3))
        assert trace.phase_count == 2
        first, second = trace.phases
        assert first[0].vertices == (0, 1, 2, 4, 6, 3)
        assert first[0].weights == (13, 11, 7, 6, 5)
        assert second[0].vertices == (0, 4)
        assert second[0].weights == (9,)
        assert second[1] == frozenset({9})

    def test_clamp_forces_extra_phase(self):
        inst = deal("shadow", 4)
        trace = simulate_reconstruction(inst, clamp=True)
        assert trace.phase_count == 2
        gains = [len(newly) for _, newly in trace.phases]
        assert gains == [4, 1]
        assert trace.recovered == inst.secret

    def test_clamp_and_optimal_exclude_each_other(self):
        # the optimal cover ignores the k-1 cap: on shadow p=8 it takes all 9 classes at once
        with pytest.raises(InvalidParameterError, match="mutually exclusive"):
            simulate_reconstruction(deal("shadow", 8), clamp=True, optimal=True)

    @pytest.mark.parametrize(
        "family,p,rp",
        [("shadow", 4, 1), ("splitting", 3, 2), ("mycielski", 3, 2)],
    )
    def test_optimal_matches_cover_minimum(self, family, p, rp):
        inst = deal(family, p)
        trace = simulate_reconstruction(inst, optimal=True)
        assert trace.phase_count == rp
        assert trace.phase_count == empirical_rp(inst.graph, inst.coloring)
        assert trace.recovered == inst.secret

    def test_budget_exhaustion_raises(self, set_node_budget):
        inst = deal("shadow", 4)
        set_node_budget(1)
        with pytest.raises(BudgetExceededError, match="path-search node budget exhausted"):
            simulate_reconstruction(inst)

    def test_tampered_instance_is_caught(self):
        inst = deal("shadow", 2)
        forged = dataclasses.replace(inst, secret=b"something else")
        with pytest.raises(RacnShareError):
            simulate_reconstruction(forged)

    def test_every_used_participant_lies_on_some_phase_path(self):
        trace = simulate_reconstruction(deal("mycielski", 4))
        on_paths = set()
        for path, _ in trace.phases:
            on_paths |= set(path.vertices)
        assert trace.participants_used == frozenset(on_paths)


EMPIRICAL = {
    # family -> p -> (rp, m), from the exhaustive cover search
    "shadow": {2: (1, 4), 3: (2, 6), 4: (1, 6), 5: (1, 9), 6: (1, 8)},
    "splitting": {2: (1, 4), 3: (2, 4), 4: (1, 6), 5: (1, 7), 6: (1, 8)},
    "mycielski": {2: (1, 5), 3: (2, 6), 4: (2, 8)},
}


@pytest.mark.parametrize("family", sorted(EMPIRICAL))
def test_empirical_cover_numbers(family):
    for p, (rp, m) in EMPIRICAL[family].items():
        g, _, coloring = family_coloring(family, p)
        assert empirical_rp(g, coloring) == rp, (family, p)
        assert empirical_m(g, coloring) == m, (family, p)


def test_empirical_search_budget(set_node_budget):
    g, _, coloring = family_coloring("shadow", 6)
    set_node_budget(50)
    with pytest.raises(BudgetExceededError):
        empirical_rp(g, coloring)


def test_rp_search_is_budgeted(set_node_budget):
    # mycielski p=7: the enumeration pushes 2,742 paths; the rp search forms
    # 4,690 unions of the 35 maximal class masks (out of 997) before it
    # reaches depth 3
    g, _, coloring = family_coloring("mycielski", 7)
    set_node_budget(3000)
    found = _rainbow_path_signatures(g, coloring)
    k = len(coloring.classes)
    with pytest.raises(BudgetExceededError, match="path-search node budget exhausted"):
        empirical_rp(g, coloring)
    set_node_budget(4689)
    with pytest.raises(BudgetExceededError, match="path-search node budget exhausted"):
        _min_phases(k, found)
    set_node_budget(4690)
    assert _min_phases(k, found) == 3


class TestCycles:
    def test_fixture_has_ten_cycles(self):
        g = fixture_graph()
        cycles = enumerate_cycles(g, frozenset(range(g.n)))
        assert len(cycles) == 10
        chordless = [c for c in cycles if is_chordless(g, c)]
        assert chordless == [
            (4, 6, 9),
            (2, 7, 5, 8),
            (3, 5, 4, 6),
            (1, 7, 5, 4, 10),
        ]

    def test_matches_networkx_cycle_enumeration(self):
        nx = pytest.importorskip("networkx")
        g = fixture_graph()
        cycles = enumerate_cycles(g, frozenset(range(g.n)))
        mine = {frozenset(zip(c, c[1:] + c[:1])) for c in cycles}
        mine = {frozenset(tuple(sorted(e)) for e in es) for es in mine}
        h = nx.Graph(g.edges)
        theirs = set()
        for cyc in nx.simple_cycles(h):
            es = zip(cyc, cyc[1:] + cyc[:1])
            theirs.add(frozenset(tuple(sorted(e)) for e in es))
        assert mine == theirs

    def test_canonical_form(self):
        g = fixture_graph()
        for c in enumerate_cycles(g, frozenset(range(g.n))):
            assert c[0] == min(c)
            assert c[1] < c[-1]
            # consecutive entries really are edges, and it closes up
            for a, b in zip(c, c[1:] + c[:1]):
                assert g.has_edge(a, b)

    def test_anchoring_filters(self):
        g = fixture_graph()
        through_zero = enumerate_cycles(g, {0})
        assert through_zero == []  # vertex 0 hangs off the cycle region
        through_nine = enumerate_cycles(g, {9})
        assert all(9 in c for c in through_nine)
        assert len(through_nine) < 10

    def test_anchored_pair_sees_the_three_short_circuits(self):
        g = fixture_graph()
        cycles = enumerate_cycles(g, {4, 6})
        for c in [(4, 6, 9), (3, 5, 4, 9, 6), (1, 7, 5, 4, 10)]:
            assert c in cycles

    def test_max_len_keeps_only_triangles(self):
        g = fixture_graph()
        assert enumerate_cycles(g, frozenset(range(g.n)), max_len=3) == [(4, 6, 9)]

    @pytest.mark.parametrize("max_len", [2, 0, -3])
    def test_max_len_below_3_rejected(self, max_len):
        g = fixture_graph()
        for anchor in (frozenset(range(g.n)), frozenset()):
            with pytest.raises(InvalidParameterError, match=f"max_len must be at least 3, got {max_len}"):
                enumerate_cycles(g, anchor, max_len=max_len)
        for informed in ({4}, set(range(g.n))):
            with pytest.raises(InvalidParameterError, match="max_len must be at least 3"):
                simulate_dissemination(g, informed, max_len=max_len)

    def test_tree_has_no_cycles(self):
        assert enumerate_cycles(build_graph("path", 6), frozenset(range(6))) == []

    def test_empty_anchor_short_circuits(self):
        assert enumerate_cycles(fixture_graph(), frozenset()) == []

    def test_cycle_budget(self, set_node_budget):
        g = fixture_graph()
        set_node_budget(2)
        with pytest.raises(BudgetExceededError):
            enumerate_cycles(g, frozenset(range(g.n)))

    def test_chordless_detection(self):
        g = fixture_graph()
        assert is_chordless(g, (4, 6, 9))
        # 3-5-4-6 walks around the chord-bearing square 4-5,
        # while 3-5-8-2-7 ... take one with a known chord instead:
        assert not is_chordless(g, (3, 5, 7, 2, 8, 6))  # 5-8 and 3-6 are chords


class TestDissemination:
    def test_fixture_trace_chordless(self):
        g = fixture_graph()
        trace = simulate_dissemination(g, {4})
        assert trace.round_count == 3
        r1, r2, r3 = trace.rounds
        assert r1.kind == "cycles"
        assert r1.circuits == ((1, 7, 5, 4, 10), (4, 6, 9), (3, 5, 4, 6))
        assert r1.newly_informed == frozenset({1, 3, 5, 6, 7, 9, 10})
        assert r2.kind == "cycles"
        assert r2.circuits == ((2, 7, 5, 8),)
        assert r2.newly_informed == frozenset({2, 8})
        assert r3.kind == "fallback"
        assert r3.circuits == ((7, 11, 0),)
        assert r3.newly_informed == frozenset({0, 11})
        assert trace.informed_final == frozenset(range(12))

    def test_fixture_all_cycles_policy_is_faster(self):
        g = fixture_graph()
        trace = simulate_dissemination(g, {4}, cycle_policy="all")
        assert trace.round_count == 2
        assert trace.informed_final == frozenset(range(12))

    def test_everyone_informed_means_no_rounds(self):
        g = fixture_graph()
        trace = simulate_dissemination(g, set(range(12)))
        assert trace.round_count == 0
        assert trace.informed_final == frozenset(range(12))

    def test_star_needs_one_fallback_round(self):
        g = custom_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        trace = simulate_dissemination(g, {1})
        assert trace.round_count == 1
        (r,) = trace.rounds
        assert r.kind == "fallback"
        assert r.circuits == ((1, 0, 2), (1, 0, 3), (1, 0, 4))
        assert trace.informed_final == frozenset(range(5))

    def test_disconnected_reports_unreachable(self):
        g = custom_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidParameterError) as exc:
            simulate_dissemination(g, {0})
        assert str(exc.value) == "unreachable participants: 3, 4"

    def test_disconnected_reports_unreachable_by_name(self):
        g = custom_graph(4, [(0, 1), (2, 3)], names=("a", "b", "c", "d"))
        with pytest.raises(InvalidParameterError) as exc:
            simulate_dissemination(g, {0})
        assert str(exc.value) == "unreachable participants: c, d"

    def test_rejects_bad_inputs(self):
        g = fixture_graph()
        with pytest.raises(InvalidParameterError):
            simulate_dissemination(g, set())
        with pytest.raises(InvalidParameterError):
            simulate_dissemination(g, {99})
        with pytest.raises(InvalidParameterError):
            simulate_dissemination(g, {0}, cycle_policy="fastest")

    @pytest.mark.parametrize(
        "family,p,policy",
        [
            ("shadow", 3, "chordless"),
            ("shadow", 4, "all"),
            ("splitting", 4, "chordless"),
            ("mycielski", 3, "all"),
        ],
    )
    def test_round_invariants(self, family, p, policy):
        g = build_graph(family, p)
        trace = simulate_dissemination(g, {0}, cycle_policy=policy)
        informed = set(trace.informed_start)
        for rnd in trace.rounds:
            assert rnd.newly_informed
            assert not rnd.newly_informed & informed
            if rnd.kind == "cycles":
                for circuit in rnd.circuits:
                    # anchored at a vertex informed before the round began
                    assert set(circuit) & informed
            informed |= rnd.newly_informed
            assert rnd.informed_after == frozenset(informed)
        assert informed == set(range(g.n))


def recursive_signatures(g, coloring, node_budget):
    """The recursive ``_rainbow_path_signatures`` the shared enumerator replaced."""
    classes = sorted(coloring.classes)
    class_bit = {c: 1 << i for i, c in enumerate(classes)}
    found = {}
    steps = 0
    path, used = [], set()

    def dfs(a, cmask, vmask):
        nonlocal steps
        for b in g.adjacency[a]:
            if (vmask >> b) & 1:
                continue
            wt = coloring.weight(a, b)
            if wt in used:
                continue
            steps += 1
            if steps > node_budget:
                raise BudgetExceededError("rainbow-path cover search exceeded its step budget")
            path.append(b)
            used.add(wt)
            nm = cmask | class_bit[wt]
            vm = vmask | (1 << b)
            found.setdefault((nm, vm), tuple(path))
            dfs(b, nm, vm)
            path.pop()
            used.remove(wt)

    for s in range(g.n):
        path, used = [s], set()
        dfs(s, 0, 1 << s)
    return found


def grouped_signatures(flat):
    """``recursive_signatures``' flat map by class mask, each in first-found order."""
    grouped = {}
    for (cmask, vmask), path in flat.items():
        grouped.setdefault(cmask, {})[vmask] = path
    return grouped


def random_labeled_graph(rng, low=4, high=8):
    """A random connected graph on low..high vertices with a random bijective labeling."""
    n = rng.randint(low, high)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a random spanning tree
    for _ in range(rng.randint(0, n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    g = custom_graph(n, sorted(edges))
    return g, edge_weights(g, Labeling(tuple(rng.sample(range(1, n + 1), n))))


SIGNATURE_CELLS = [(f, p) for f in ("shadow", "splitting", "mycielski") for p in range(2, 11)]


class TestSignaturesMatchRecursive:
    @pytest.mark.parametrize("family,p", SIGNATURE_CELLS)
    def test_same_map_in_same_order(self, family, p):
        g, _, coloring = family_coloring(family, p)
        found = _rainbow_path_signatures(g, coloring)
        want = grouped_signatures(recursive_signatures(g, coloring, rainbow.NODE_BUDGET))
        assert list(found.items()) == [(c, list(vs)) for c, vs in want.items()]

    @pytest.mark.parametrize("family,p", SIGNATURE_CELLS)
    def test_rebuilt_paths_are_the_first_ones(self, family, p):
        g, _, coloring = family_coloring(family, p)
        adj = _adjacency(g, coloring)
        for (cmask, vmask), path in recursive_signatures(g, coloring, rainbow.NODE_BUDGET).items():
            assert _rebuilt_path(adj, cmask, vmask) == path, (cmask, vmask)

    def test_rebuilt_paths_on_random_labeled_graphs(self):
        rng = random.Random(0)
        for _ in range(100):
            g, coloring = random_labeled_graph(rng)
            adj = _adjacency(g, coloring)
            for (cmask, vmask), path in recursive_signatures(g, coloring, 10**6).items():
                assert _rebuilt_path(adj, cmask, vmask) == path, (g.edges, coloring.weights)

    def test_rebuild_budget(self, set_node_budget):
        # shadow p=5's last-found full-class signature, whose rebuild pushes 150 nodes
        g, _, coloring = family_coloring("shadow", 5)
        adj = _adjacency(g, coloring)
        full = (1 << len(coloring.classes)) - 1
        (cmask, vmask), path = [sig for sig in recursive_signatures(g, coloring, 10**6).items()
                                if sig[0][0] == full][-1]
        pushes = 0
        real = rainbow._rainbow_paths

        def counted(*args):
            nonlocal pushes
            for step in real(*args):
                pushes += 1
                yield step

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("racnshare.protocol._rainbow_paths", counted)
            assert _rebuilt_path(adj, cmask, vmask) == path
        assert pushes == 150
        set_node_budget(pushes - 1)
        with pytest.raises(BudgetExceededError, match="path-search node budget exhausted"):
            _rebuilt_path(adj, cmask, vmask)
        set_node_budget(pushes)
        assert _rebuilt_path(adj, cmask, vmask) == path

    @pytest.mark.parametrize("family", ["shadow", "splitting", "mycielski"])
    def test_budget_raises_agree(self, family, set_node_budget):
        g, _, coloring = family_coloring(family, 3)
        raised = set()
        for budget in range(1, 200, 3):
            set_node_budget(budget)
            try:
                recursive_signatures(g, coloring, budget)
            except BudgetExceededError:
                raised.add(budget)
                with pytest.raises(BudgetExceededError):
                    _rainbow_path_signatures(g, coloring)
            else:
                _rainbow_path_signatures(g, coloring)
        assert 1 in raised and 199 not in raised


def all_masks_min_phases(k, cmasks):
    """The rp BFS as it was: over unions of every class mask, not only the maximal ones."""
    full = (1 << k) - 1
    reached = frontier = {0}
    depth = 0
    while full not in reached:
        depth += 1
        frontier = {m | c for m in frontier for c in cmasks} - reached
        reached = reached | frontier
    return depth


def recursive_cover_choice(g, coloring):
    """The recursive include/exclude search the iterative cover search replaced.

    Items (distinct class masks) are taken in (-popcount, class mask) order,
    each included with one of its Pareto-minimal vertex masks or excluded.
    Returns the chosen paths, sorted, and their vertex set.
    """
    found = grouped_signatures(recursive_signatures(g, coloring, rainbow.NODE_BUDGET))
    k = len(coloring.classes)
    rp = all_masks_min_phases(k, set(found))
    full = (1 << k) - 1

    def pareto_min(vmasks):
        vmasks = sorted(vmasks, key=lambda v: (v.bit_count(), v))
        keep = []
        for v in vmasks:
            if not any(kv & v == kv for kv in keep):
                keep.append(v)
        return keep

    items = sorted(
        ((c, pareto_min(vs)) for c, vs in found.items()),
        key=lambda cv: (-cv[0].bit_count(), cv[0]),
    )
    suffix_union = [0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | items[i][0]

    best_count = None
    best_pick = None

    def search(i, picked, cmask, vunion):
        nonlocal best_count, best_pick
        if len(picked) == rp:
            if cmask == full:
                pc = vunion.bit_count()
                if best_count is None or pc < best_count:
                    best_count = pc
                    best_pick = list(picked)
            return
        if i >= len(items) or cmask | suffix_union[i] != full:
            return
        c, vmasks = items[i]
        for v in vmasks:
            trial = vunion | v
            if (
                best_count is not None
                and trial.bit_count() >= best_count
                and cmask | c != full
            ):
                continue
            picked.append((c, v))
            search(i + 1, picked, cmask | c, trial)
            picked.pop()
        search(i + 1, picked, cmask, vunion)

    search(0, [], 0, 0)
    union = 0
    for _, vmask in best_pick:
        union |= vmask
    paths = sorted(found[cmask][vmask] for cmask, vmask in best_pick)
    return paths, {v for v in range(g.n) if union >> v & 1}


def branch_and_bound_cover_choice(g, coloring):
    """The iterative branch-and-bound that the search over avoided vertex sets replaced.

    It branches on the lowest uncovered class, over each item holding it and
    that item's minimal vertex masks, drops a branch whose vertex union is
    larger than the best cover's and a last pick that leaves a class
    uncovered, and keeps the least (vertex count, sorted picks).
    """
    found = _rainbow_path_signatures(g, coloring)
    k = len(coloring.classes)
    rp = all_masks_min_phases(k, set(found))
    full = (1 << k) - 1
    items = sorted(found, key=lambda c: (-c.bit_count(), c))
    minimal = []
    for c in items:
        keep = []
        for v in sorted(found[c], key=lambda v: (v.bit_count(), v)):
            if not any(kv & v == kv for kv in keep):
                keep.append(v)
        minimal.append(keep)
    best = (g.n + 1, [])
    stack = [(0, 0, ())]
    while stack:
        cmask, vunion, picks = stack.pop()
        if cmask == full:
            best = min(best, (vunion.bit_count(), sorted(picks)))
            continue
        if vunion.bit_count() > best[0]:
            continue
        b = (~cmask & cmask + 1).bit_length() - 1
        for i in reversed(range(len(items))):
            c = items[i]
            if not c >> b & 1 or len(picks) + 1 == rp and cmask | c != full:
                continue
            for j in reversed(range(len(minimal[i]))):
                trial = vunion | minimal[i][j]
                if trial.bit_count() <= best[0]:
                    stack.append((cmask | c, trial, (*picks, (i, j))))
    adj = _adjacency(g, coloring)
    return sorted(_rebuilt_path(adj, items[i], minimal[i][j]) for i, j in best[1])


# every cell where the recursive search finishes quickly; mycielski p=6 takes
# about a minute there
COVER_CELLS = (
    [("shadow", p) for p in (*range(2, 9), 10)]
    + [("splitting", p) for p in range(2, 16)]
    + [("mycielski", p) for p in range(2, 6)]
)


class TestCoverSearch:
    @pytest.mark.parametrize("family,p", COVER_CELLS)
    def test_same_cover_as_recursive(self, family, p):
        g, _, coloring = family_coloring(family, p)
        paths = _min_vertex_cover_choice(g, coloring)
        want_paths, want_vertices = recursive_cover_choice(g, coloring)
        assert empirical_rp(g, coloring) == len(want_paths)
        assert paths == want_paths
        assert set().union(*paths) == want_vertices

    def test_same_cover_on_random_labeled_graphs(self):
        # equal-vertex covers are common here, so the tie-break between them is exercised
        rng = random.Random(0)
        for _ in range(100):
            g, coloring = random_labeled_graph(rng)
            want, _ = recursive_cover_choice(g, coloring)
            paths = _min_vertex_cover_choice(g, coloring)
            assert empirical_rp(g, coloring) == len(want), (g.edges, coloring.weights)
            assert paths == want, (g.edges, coloring.weights)

    def test_same_cover_as_branch_and_bound_on_mycielski_6(self):
        # rp 3 and m 12: the branch-and-bound pushes about a million nodes here
        g, _, coloring = family_coloring("mycielski", 6)
        paths = _min_vertex_cover_choice(g, coloring)
        assert paths == branch_and_bound_cover_choice(g, coloring)
        assert (len(paths), len(set().union(*paths))) == (3, 12)

    def test_same_cover_as_branch_and_bound_on_random_labeled_graphs(self):
        # 232 of these 300 need more than one path, up to 4
        rng = random.Random(1)
        phases = []
        for _ in range(300):
            g, coloring = random_labeled_graph(rng, 3, 9)
            paths = _min_vertex_cover_choice(g, coloring)
            assert paths == branch_and_bound_cover_choice(g, coloring), (g.edges, coloring.weights)
            phases.append(len(paths))
        assert (sum(rp > 1 for rp in phases), max(phases)) == (232, 4)

    def test_phases_of_masks_that_miss_a_class(self):
        assert _min_phases(3, [0b011, 0b001]) is None
        assert _min_phases(3, [0b011, 0b100]) == 2

    # the recursive search ran out of stack on these: one recursion level per class mask
    @pytest.mark.parametrize("family,p", [("shadow", 9), ("shadow", 11), ("splitting", 16)])
    def test_former_frontier_cells_take_one_path(self, family, p):
        g, _, coloring = family_coloring(family, p)
        found = _rainbow_path_signatures(g, coloring)
        fewest = min(vmask.bit_count() for vmask in found[(1 << len(coloring.classes)) - 1])
        assert empirical_rp(g, coloring) == 1
        assert empirical_m(g, coloring) == fewest

    def test_budget_counts_search_nodes(self, set_node_budget):
        # mycielski p=4: the enumeration pushes 358 paths and the rp search
        # forms 56 unions. The cover search has 169 (item, mask) pairs; it
        # tests the 9 one-vertex sets and 1 two-vertex set, keeps one
        # one-vertex set, scans that set once more for its cover, and meets
        # the cover at the first combination: 11 * 169 + 1 = 1,860 nodes
        g, _, coloring = family_coloring("mycielski", 4)
        set_node_budget(1859)
        _rainbow_path_signatures(g, coloring)
        with pytest.raises(BudgetExceededError, match="path-search node budget exhausted") as info:
            empirical_m(g, coloring)
        assert info.traceback[-1].name == "_min_vertex_cover_choice"
        set_node_budget(1860)
        assert empirical_m(g, coloring) == 8


# phase paths recorded before the shared enumerator replaced the recursive
# searches, on the protocol benchmark's reconstruction instances; the optimal
# shadow p=9 cell, past the recursive cover search's stack, was recorded when
# the iterative cover search replaced it
FROZEN_PHASES = {
    ("shadow", 24, "greedy"): [
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 36, 35, 12, 13, 14, 15, 16, 17, 18, 19, 20,
         21, 22, 23)],
    ("splitting", 40, "greedy"): [(41, *range(40), 78)],
    ("mycielski", 12, "greedy"): [
        (12, 24, 13, *range(12), 22), (14, 24, 15), (16, 24, 17), (18, 24, 19),
        (20, 24, 21), (22, 24)],
    ("shadow", 24, "clamp"): [(*range(24), 46), (0, 25)],
    ("mycielski", 14, "clamp"): [
        (14, 28, 15, *range(14), 26), (16, 28, 17), (18, 28, 19), (20, 28, 21),
        (22, 28, 23), (24, 28, 25), (26, 28)],
    ("shadow", 8, "optimal"): [(0, 1, 2, 3, 12, 11, 4, 5, 6, 7)],
    ("shadow", 9, "optimal"): [(0, 1, 2, 12, 11, 3, 4, 5, 15, 14, 6, 7, 8)],
    ("splitting", 14, "optimal"): [(15, *range(14), 26)],
    ("mycielski", 5, "optimal"): [(5, 10, 6, 0, 1, 2, 3, 4, 8), (6, 0, 1, 2, 3, 4, 8, 10, 7)],
}


@pytest.mark.parametrize("family,p,mode", sorted(FROZEN_PHASES))
def test_frozen_phase_paths(family, p, mode):
    inst = deal(family, p)
    trace = simulate_reconstruction(inst, clamp=mode == "clamp", optimal=mode == "optimal")
    assert [path.vertices for path, _ in trace.phases] == FROZEN_PHASES[family, p, mode]
    assert trace.recovered == inst.secret


def test_greedy_stops_inside_a_small_budget(set_node_budget):
    # the winner is push 160 of the 117,940 rainbow paths; a full scan ran out
    inst = deal("shadow", 24)
    set_node_budget(1_000)
    trace = simulate_reconstruction(inst)
    assert [path.vertices for path, _ in trace.phases] == FROZEN_PHASES["shadow", 24, "greedy"]
    set_node_budget(159)
    with pytest.raises(BudgetExceededError):
        simulate_reconstruction(inst)


def recursive_enumerate_cycles(g, anchor, max_len=None):
    """The recursive ``enumerate_cycles`` that the one cycle DFS replaced."""
    if not anchor:
        return []
    limit = g.n if max_len is None else max_len
    out = set()

    def grow(start, path, on_path):
        v = path[-1]
        for u in g.adjacency[v]:
            if u == start and len(path) >= 3:
                if path[1] < path[-1]:
                    out.add(tuple(path))
            elif u > start and u not in on_path and len(path) < limit:
                path.append(u)
                on_path.add(u)
                grow(start, path, on_path)
                path.pop()
                on_path.remove(u)

    for s in range(g.n):
        grow(s, [s], {s})
    anchored = [c for c in out if set(c) & set(anchor)]
    return sorted(anchored, key=lambda c: (len(c), c))


def prefix_filtered_fallback_paths(g, informed):
    """The fallback paths with the quadratic prefix filter they had before."""
    parent = {v: None for v in informed}
    dq = deque(sorted(informed))
    order = []
    while dq:
        v = dq.popleft()
        for u in g.adjacency[v]:
            if u not in parent:
                parent[u] = v
                dq.append(u)
                order.append(u)
    paths = []
    for t in order:
        seq = [t]
        while parent[seq[-1]] is not None:
            seq.append(parent[seq[-1]])
        paths.append(tuple(reversed(seq)))
    keep = [p for p in paths if not any(q != p and q[: len(p)] == p for q in paths)]
    return keep, set(order)


def per_round_dissemination(g, informed0, cycle_policy="chordless", max_len=None):
    """``simulate_dissemination`` as it was: enumerate and filter in every round."""
    informed = set(informed0)
    rounds = []
    while informed != set(range(g.n)):
        candidates = recursive_enumerate_cycles(g, frozenset(informed), max_len=max_len)
        if cycle_policy == "chordless":
            candidates = [c for c in candidates if is_chordless(g, c)]
        fired, newly = [], set()
        while True:
            best = None
            for c in candidates:
                gain = len(set(c) - informed - newly)
                if gain and (best is None or (-gain, len(c), c) < best[0]):
                    best = ((-gain, len(c), c), c)
            if best is None:
                break
            fired.append(best[1])
            newly |= set(best[1]) - informed
        if fired:
            informed |= newly
            rounds.append(DisseminationRound("cycles", tuple(fired), frozenset(newly),
                                             frozenset(informed)))
            continue
        paths, reached = prefix_filtered_fallback_paths(g, informed)
        informed |= reached
        rounds.append(DisseminationRound("fallback", tuple(paths), frozenset(reached),
                                         frozenset(informed)))
    return DisseminationTrace(frozenset(informed0), tuple(rounds))


CYCLE_CELLS = [(f, p) for f in ("shadow", "splitting", "mycielski") for p in range(2, 10)]


class TestCyclesMatchPerRound:
    @pytest.mark.parametrize("family,p", CYCLE_CELLS)
    def test_same_traces(self, family, p):
        g = build_graph(family, p)
        for start in ({0}, {g.n // 2}, {1, g.n - 1}):
            for policy in ("chordless", "all"):
                for max_len in (None, 3, 4, 6):
                    got = simulate_dissemination(g, start, policy, max_len)
                    assert got == per_round_dissemination(g, start, policy, max_len), (
                        start, policy, max_len)

    def test_fixture_traces(self):
        g = fixture_graph()
        for v in range(g.n):
            for policy in ("chordless", "all"):
                for max_len in (None, 3, 5):
                    got = simulate_dissemination(g, {v}, policy, max_len)
                    assert got == per_round_dissemination(g, {v}, policy, max_len)

    @pytest.mark.parametrize("family,p", [("shadow", 6), ("splitting", 7), ("mycielski", 5)])
    def test_same_anchored_cycles(self, family, p):
        g = build_graph(family, p)
        for anchor in ({0}, {g.n - 1}, {1, g.n // 2}, set(range(g.n)), frozenset()):
            for max_len in (None, 3, 5):
                assert enumerate_cycles(g, anchor, max_len) == recursive_enumerate_cycles(
                    g, anchor, max_len)

    # the pushes of one cycle search under each policy: (all, chordless)
    @pytest.mark.parametrize("g,pushes", [(fixture_graph(), (34, 19)),
                                          (build_graph("shadow", 4), (36, 21)),
                                          (build_graph("mycielski", 3), (17, 17))],
                             ids=["fig1", "shadow4", "myc3"])
    def test_budget_raises_agree(self, g, pushes, set_node_budget):
        everyone = frozenset(range(g.n))
        want = recursive_enumerate_cycles(g, everyone)
        chordless = [c for c in want if is_chordless(g, c)]
        for budget in range(1, 51):
            set_node_budget(budget)
            if budget < pushes[0]:
                with pytest.raises(BudgetExceededError, match="path-search node budget exhausted"):
                    enumerate_cycles(g, everyone)
            else:
                assert enumerate_cycles(g, everyone) == want
            # a chordless run pushes no vertex that would give its path a chord
            if budget < pushes[1]:
                with pytest.raises(BudgetExceededError, match="path-search node budget exhausted"):
                    _cycles(g, None, True)
            else:
                assert [c for c, _ in _cycles(g, None, True)] == chordless

    def test_masks_match_cycles(self):
        g = build_graph("mycielski", 4)
        for chordless in (False, True):
            for c, mask in _cycles(g, None, chordless):
                assert mask == sum(1 << v for v in c)

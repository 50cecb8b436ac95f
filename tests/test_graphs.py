import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racnshare import (
    FAMILIES,
    InvalidParameterError,
    build_graph,
    custom_graph,
    degree_stats,
    diameter,
    graphs,
)
from racnshare.graphs import bfs_parents, bridge_count


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def test_path_graph_smallest():
    g = build_graph("path", 2)
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_path_graph_degrees():
    g = build_graph("path", 5)
    assert g.n == 5 and len(g.edges) == 4
    assert sorted(len(a) for a in g.adjacency) == [1, 1, 2, 2, 2]


# the ids are the names of the per-family constructors that build_graph
# replaced, kept so that each case has the same id in every test report
@pytest.mark.parametrize("p", [0, 1, -3])
@pytest.mark.parametrize("family", FAMILIES, ids=[
    "path_graph", "shadow_of_path", "splitting_of_path", "mycielski_of_path"])
def test_p_below_two_rejected(family, p):
    with pytest.raises(InvalidParameterError):
        build_graph(family, p)


def test_p_must_be_int():
    with pytest.raises(InvalidParameterError):
        build_graph("shadow", 2.5)


def test_shadow_p2_is_4_cycle():
    g = build_graph("shadow", 2)
    assert g.n == 4 and len(g.edges) == 4
    assert nx.is_isomorphic(to_nx(g), nx.cycle_graph(4))


def test_shadow_p4_degrees():
    lo, hi = degree_stats(build_graph("shadow", 4))
    assert (lo, hi) == (2, 4)


def test_splitting_p3_pendant_copies():
    g = build_graph("splitting", 3)
    assert g.n == 6 and len(g.edges) == 6
    y1 = g.index_of("y1")
    assert g.adjacency[y1] == (g.index_of("x2"),)


def test_splitting_p2_edge_list():
    g = build_graph("splitting", 2)
    assert len(g.edges) == 3
    named = {(g.names[u], g.names[v]) for u, v in g.edges}
    assert named == {("x1", "x2"), ("x1", "y2"), ("x2", "y1")}


def test_splitting_min_degree_is_one():
    for p in range(2, 9):
        lo, _ = degree_stats(build_graph("splitting", p))
        assert lo == 1


def test_mycielski_p2_is_5_cycle():
    g = build_graph("mycielski", 2)
    assert g.n == 5 and len(g.edges) == 5
    assert nx.is_isomorphic(to_nx(g), nx.cycle_graph(5))
    assert degree_stats(g) == (2, 2)


def test_mycielski_p3_max_degree():
    g = build_graph("mycielski", 3)
    assert g.n == 7 and len(g.edges) == 9
    assert len(g.adjacency[g.index_of("x2")]) == 4
    assert set(g.adjacency[g.index_of("x2")]) == {
        g.index_of(n) for n in ("x1", "x3", "y1", "y3")
    }


def test_mycielski_apex_degree():
    for p in range(2, 8):
        g = build_graph("mycielski", p)
        assert len(g.adjacency[g.index_of("a")]) == p


def test_mycielski_matches_networkx_construction():
    # networkx builds the same operation from the path; layouts differ,
    # so compare up to isomorphism
    for p in range(2, 7):
        ours = to_nx(build_graph("mycielski", p))
        theirs = nx.mycielskian(nx.path_graph(p))
        assert nx.is_isomorphic(ours, theirs)


@pytest.mark.parametrize("p", range(2, 11))
def test_edge_counts(p):
    assert len(build_graph("path", p).edges) == p - 1
    assert len(build_graph("shadow", p).edges) == 4 * (p - 1)
    assert len(build_graph("splitting", p).edges) == 3 * (p - 1)
    assert len(build_graph("mycielski", p).edges) == 4 * p - 3


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", range(2, 11))
def test_families_connected(family, p):
    assert build_graph(family, p).is_connected()


@pytest.mark.parametrize("family", ["shadow", "splitting", "mycielski"])
def test_role_partition(family):
    # x_1..x_5 first, then y_1..y_5, then the apex (Mycielskian only)
    g = build_graph(family, 5)
    apex = ("a",) if family == "mycielski" else ()
    assert g.names == tuple(f"x{t}" for t in range(1, 6)) + tuple(f"y{t}" for t in range(1, 6)) + apex


def test_build_graph_unknown_family():
    with pytest.raises(InvalidParameterError):
        build_graph("torus", 3)


def test_index_of_unknown_name():
    with pytest.raises(InvalidParameterError):
        build_graph("path", 3).index_of("z9")


def test_display_names_1_based():
    g = build_graph("shadow", 3)
    assert g.names[0] == "x1"
    assert g.names[3] == "y1"
    assert g.names[5] == "y3"


def test_custom_graph_defaults():
    g = custom_graph(3, [(0, 1), (2, 1)])
    assert g.names == ("1", "2", "3")
    assert g.edges == ((0, 1), (1, 2))
    assert g.family is None


def test_custom_graph_rejects_self_loop():
    with pytest.raises(InvalidParameterError):
        custom_graph(3, [(1, 1)])


def test_custom_graph_rejects_duplicate_edge():
    with pytest.raises(InvalidParameterError):
        custom_graph(3, [(0, 1), (1, 0)])


def test_diameter_examples():
    assert diameter(build_graph("path", 6)) == 5
    assert diameter(build_graph("shadow", 2)) == 2
    assert diameter(build_graph("mycielski", 2)) == 2


def test_diameter_matches_networkx():
    for family in FAMILIES:
        for p in range(2, 8):
            g = build_graph(family, p)
            assert diameter(g) == nx.diameter(to_nx(g))


def test_connectivity_is_one_bfs_per_graph(monkeypatch):
    calls = []

    def counted(g, sources):
        calls.append(g)
        return bfs_parents(g, sources)

    monkeypatch.setattr(graphs, "bfs_parents", counted)
    g, h = build_graph("shadow", 4), custom_graph(4, [(0, 1), (2, 3)])
    assert [g.is_connected(), h.is_connected(), g.is_connected(), h.is_connected()] == [
        True, False, True, False]
    assert calls == [g, h]


def test_diameter_requires_connected():
    g = custom_graph(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    with pytest.raises(InvalidParameterError):
        diameter(g)


def test_bridge_count_on_families():
    # racn_exact starts at max(diameter, max degree, bridges); on the
    # families the bridge count never raises that start
    for family in FAMILIES:
        for p in range(2, 9):
            g = build_graph(family, p)
            assert bridge_count(g) == len(list(nx.bridges(to_nx(g))))
            assert bridge_count(g) <= max(diameter(g), degree_stats(g)[1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bridge_count_matches_networkx(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    # a random tree on a shuffled vertex order keeps the graph connected
    shuffled = data.draw(st.permutations(range(n)))
    tree = {
        tuple(sorted((shuffled[i], shuffled[data.draw(st.integers(0, i - 1))])))
        for i in range(1, n)
    }
    pool = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=n)) if pool else set()
    g = custom_graph(n, sorted(tree | extra))
    assert bridge_count(g) == len(list(nx.bridges(to_nx(g))))


@settings(max_examples=40)
@given(
    family=st.sampled_from(FAMILIES),
    p=st.integers(min_value=2, max_value=12),
)
def test_adjacency_is_symmetric_and_sorted(family, p):
    g = build_graph(family, p)
    for v in range(g.n):
        ns = g.adjacency[v]
        assert list(ns) == sorted(ns)
        for u in ns:
            assert v in g.adjacency[u]

"""The closed-form labelings, frozen against hand-evaluated values, and the
edgewise weight patterns each family is supposed to produce."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racnshare import (
    InvalidParameterError,
    Labeling,
    build_graph,
    edge_weights,
    family_coloring,
    family_labeling,
    verify_bijection,
)

PS = list(range(2, 11))


def labels_by_role(g, lab):
    x = [lab.values[g.index_of(f"x{t}")] for t in range(1, g.p + 1)]
    y = [lab.values[g.index_of(f"y{t}")] for t in range(1, g.p + 1)]
    return x, y


# -- frozen label values -------------------------------------------------------

def test_shadow_labeling_p4():
    g = build_graph("shadow", 4)
    x, y = labels_by_role(g, family_labeling("shadow", 4))
    assert x == [1, 4, 5, 8]
    assert y == [7, 6, 3, 2]


def test_shadow_labeling_p3():
    g = build_graph("shadow", 3)
    x, y = labels_by_role(g, family_labeling("shadow", 3))
    assert x == [1, 4, 5]
    assert y == [6, 3, 2]


def test_shadow_labeling_p2():
    g = build_graph("shadow", 2)
    x, y = labels_by_role(g, family_labeling("shadow", 2))
    assert x == [1, 4]
    assert y == [3, 2]


def test_splitting_labeling_values():
    g = build_graph("splitting", 3)
    x, y = labels_by_role(g, family_labeling("splitting", 3))
    assert x == [1, 2, 3] and y == [6, 5, 4]
    g = build_graph("splitting", 4)
    x, y = labels_by_role(g, family_labeling("splitting", 4))
    assert x == [1, 2, 3, 4] and y == [8, 7, 6, 5]


def test_mycielski_labeling_values():
    g = build_graph("mycielski", 3)
    lab = family_labeling("mycielski", 3)
    x, y = labels_by_role(g, lab)
    assert lab.values[g.index_of("a")] == 4
    assert x == [7, 6, 5] and y == [1, 2, 3]
    lab2 = family_labeling("mycielski", 2)
    assert lab2.values == (5, 4, 1, 2, 3)


def test_mycielski_apex_is_median():
    for p in PS:
        lab = family_labeling("mycielski", p)
        assert lab.values[-1] == p + 1  # median of 1..2p+1


# the ids name the per-family labeling functions that family_labeling
# replaced, kept so that each case has the same id in every test report
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("family", ["path", "shadow", "splitting", "mycielski"],
                         ids=lambda f: f"{f}-{f}_labeling")
def test_all_labelings_bijective(family, p):
    g = build_graph(family, p)
    assert verify_bijection(family_labeling(family, p), g.n)


def test_verify_bijection_rejects_constant():
    assert not verify_bijection(Labeling((1, 1, 1)), 3)
    assert not verify_bijection(Labeling((0, 1, 2)), 3)
    assert not verify_bijection(Labeling((1, 2)), 3)


@pytest.mark.parametrize("family", ["shadow", "splitting", "mycielski"],
                         ids=lambda f: f"{f}_labeling")
def test_labeling_p_validation(family):
    with pytest.raises(InvalidParameterError):
        family_labeling(family, 1)


def test_family_labeling_dispatch():
    with pytest.raises(InvalidParameterError):
        family_labeling("grid", 4)


# -- edgewise weight patterns --------------------------------------------------

@pytest.mark.parametrize("p", PS)
def test_shadow_weights_edgewise(p):
    g, _, w = family_coloring("shadow", p)
    x = [g.index_of(f"x{t}") for t in range(1, p + 1)]
    y = [g.index_of(f"y{t}") for t in range(1, p + 1)]
    for t in range(1, p):
        assert w.weight(x[t - 1], x[t]) == 4 * t + 1
        assert w.weight(y[t - 1], y[t]) == 4 * p - 4 * t + 1
        if p % 2 == 0:
            assert w.weight(x[t - 1], y[t]) == 2 * p - 1
            assert w.weight(y[t - 1], x[t]) == 2 * p + 3
        else:
            expected_xy = 2 * (p - 1) if t % 2 == 1 else 2 * p
            expected_yx = 2 * (p + 2) if t % 2 == 1 else 2 * (p + 1)
            assert w.weight(x[t - 1], y[t]) == expected_xy
            assert w.weight(y[t - 1], x[t]) == expected_yx


@pytest.mark.parametrize("p", PS)
def test_splitting_weights_edgewise(p):
    g, _, w = family_coloring("splitting", p)
    x = [g.index_of(f"x{t}") for t in range(1, p + 1)]
    y = [g.index_of(f"y{t}") for t in range(1, p + 1)]
    for t in range(1, p):
        assert w.weight(x[t - 1], x[t]) == 2 * t + 1
        assert w.weight(x[t - 1], y[t]) == 2 * p
        assert w.weight(y[t - 1], x[t]) == 2 * p + 2


@pytest.mark.parametrize("p", PS)
def test_mycielski_weights_edgewise(p):
    g, _, w = family_coloring("mycielski", p)
    a = g.index_of("a")
    x = [g.index_of(f"x{t}") for t in range(1, p + 1)]
    y = [g.index_of(f"y{t}") for t in range(1, p + 1)]
    for t in range(1, p):
        assert w.weight(x[t - 1], x[t]) == 4 * p - 2 * t + 3
        assert w.weight(x[t - 1], y[t]) == 2 * p + 3
        assert w.weight(y[t - 1], x[t]) == 2 * p + 1
    for t in range(1, p + 1):
        assert w.weight(a, y[t - 1]) == p + t + 1


def test_mycielski_p3_weight_overlap():
    # the y_t x_{t+1} value 2p+1 coincides with one apex weight at p=3,
    # so classes merge and only 2p values remain
    _, _, w = family_coloring("mycielski", 3)
    assert w.weight(0, 1) == 13  # x1 x2
    assert sorted(w.classes) == [5, 6, 7, 9, 11, 13]
    assert len(w.classes[7]) == 3  # y1-x2, y2-x3, a-y3


# -- distinct counts -----------------------------------------------------------

@pytest.mark.parametrize("p", PS)
def test_distinct_counts(p):
    _, _, w = family_coloring("shadow", p)
    assert len(w.classes) == (p + 1 if p % 2 == 0 else p + 3)
    _, _, w = family_coloring("splitting", p)
    assert len(w.classes) == p + 1
    _, _, w = family_coloring("mycielski", p)
    assert len(w.classes) == 2 * p


def test_shadow_p4_class_values():
    _, _, w = family_coloring("shadow", 4)
    assert sorted(w.classes) == [5, 7, 9, 11, 13]


# -- edge_weights mechanics ------------------------------------------------------

def test_edge_weights_rejects_non_bijection():
    g = build_graph("shadow", 2)
    with pytest.raises(InvalidParameterError):
        edge_weights(g, Labeling((1, 2, 3, 5)))
    with pytest.raises(InvalidParameterError):
        edge_weights(g, Labeling((1, 2, 3)))


def test_classes_partition_edges():
    for family in ("shadow", "splitting", "mycielski"):
        g, _, w = family_coloring(family, 5)
        from_classes = sorted(e for es in w.classes.values() for e in es)
        assert from_classes == sorted(g.edges)
        for value, es in w.classes.items():
            assert all(w.weights[e] == value for e in es)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["path", "shadow", "splitting", "mycielski"]),
    p=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_adjacent_edges_never_share_weight(family, p, seed):
    """w(uv) = w(vz) would force label(u) = label(z); impossible for any
    bijection, not just the closed-form ones."""
    import random

    g = build_graph(family, p)
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)
    w = edge_weights(g, Labeling(tuple(perm)))
    for v in range(g.n):
        incident = [w.weight(v, u) for u in g.adjacency[v]]
        assert len(set(incident)) == len(incident)

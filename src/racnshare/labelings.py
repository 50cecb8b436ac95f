"""Closed-form vertex labelings and the edge colorings they induce.

A labeling assigns each vertex a distinct label from 1..n; every edge then
receives the sum of its endpoint labels as its weight, and equal weights
form one color class. The constructions below realize, for each family,
a known number of distinct classes:

* shadow:     p+1 classes for even p, p+3 for odd p
* splitting:  p+1 classes
* mycielskian: 2p classes

The x-chain and y-chain weights follow fixed arithmetic patterns which
the test-suite checks edge by edge; see ``formulas`` for the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidLabelingError, InvalidParameterError
from .graphs import Edge, Graph, _require_p, build_graph


@dataclass(frozen=True)
class Labeling:
    """Vertex labels; values[v] is the label of vertex v."""

    values: tuple[int, ...]


@dataclass(frozen=True)
class WeightedColoring:
    """Edge weights plus the grouping of edges into weight classes."""

    weights: dict[Edge, int]
    classes: dict[int, tuple[Edge, ...]]

    def weight(self, u: int, v: int) -> int:
        return self.weights[(u, v) if u < v else (v, u)]


def verify_bijection(labeling: Labeling, n: int) -> bool:
    """True when the labeling is a bijection onto 1..n."""
    return sorted(labeling.values) == list(range(1, n + 1)) and len(labeling.values) == n


def edge_weights(g: Graph, labeling: Labeling) -> WeightedColoring:
    """Color every edge with the sum of its endpoint labels."""
    if not verify_bijection(labeling, g.n):
        raise InvalidLabelingError(f"labeling is not a bijection onto 1..{g.n}")
    weights = {e: labeling.values[e[0]] + labeling.values[e[1]] for e in g.edges}
    grouped: dict[int, list[Edge]] = {}
    for e, w in weights.items():
        grouped.setdefault(w, []).append(e)
    classes = {w: tuple(sorted(es)) for w, es in grouped.items()}
    return WeightedColoring(weights=weights, classes=classes)


def distinct_weight_count(coloring: WeightedColoring) -> int:
    return len(coloring.classes)


def shadow_labeling(p: int) -> Labeling:
    """Labeling of the shadow of P_p.

    x_t alternates 2t-1 / 2t by parity of t; y_t counts down from 2p so
    that both cross families collapse to constant weights when p is even
    and to two constants each when p is odd.
    """
    _require_p(p)
    values = [0] * (2 * p)
    for t in range(1, p + 1):
        values[t - 1] = 2 * t - 1 if t % 2 == 1 else 2 * t
        if p % 2 == 0:
            values[p + t - 1] = 2 * p - 2 * t + 1 if t % 2 == 1 else 2 * p - 2 * t + 2
        else:
            values[p + t - 1] = 2 * p - 2 * t + 2 if t % 2 == 1 else 2 * p - 2 * t + 1
    return Labeling(tuple(values))


def splitting_labeling(p: int) -> Labeling:
    """Labeling of the splitting graph of P_p: x_t = t, y_t = 2p - t + 1."""
    _require_p(p)
    values = [0] * (2 * p)
    for t in range(1, p + 1):
        values[t - 1] = t
        values[p + t - 1] = 2 * p - t + 1
    return Labeling(tuple(values))


def mycielski_labeling(p: int) -> Labeling:
    """Labeling of the mycielskian of P_p: apex p+1, x_t = 2p-t+2, y_t = t."""
    _require_p(p)
    values = [0] * (2 * p + 1)
    values[2 * p] = p + 1
    for t in range(1, p + 1):
        values[t - 1] = 2 * p - t + 2
        values[p + t - 1] = t
    return Labeling(tuple(values))


def path_labeling(p: int) -> Labeling:
    """Identity labeling of P_p; consecutive sums 2t+1 are already distinct."""
    _require_p(p)
    return Labeling(tuple(range(1, p + 1)))


_LABELINGS = {
    "path": path_labeling,
    "shadow": shadow_labeling,
    "splitting": splitting_labeling,
    "mycielski": mycielski_labeling,
}


def family_labeling(family: str, p: int) -> Labeling:
    try:
        fn = _LABELINGS[family]
    except KeyError:
        raise InvalidParameterError(f"no closed-form labeling for family {family!r}") from None
    return fn(p)


def family_coloring(family: str, p: int) -> tuple[Graph, Labeling, WeightedColoring]:
    """Convenience: build graph, labeling, and induced coloring together."""
    g = build_graph(family, p)
    lab = family_labeling(family, p)
    return g, lab, edge_weights(g, lab)

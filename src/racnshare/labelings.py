"""Closed-form vertex labelings and the edge colorings they induce.

A labeling assigns each vertex a distinct label from 1..n; every edge then
receives the sum of its endpoint labels as its weight, and equal weights
form one color class. ``family_labeling(family, p)`` gives each family's
closed-form labeling, which realizes a known number of distinct classes:

* path:       p-1 classes
* shadow:     p+1 classes for even p, p+3 for odd p
* splitting:  p+1 classes
* mycielskian: 2p classes

The x-chain and y-chain weights follow fixed arithmetic patterns which
the test-suite checks edge by edge; see ``formulas`` for the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .graphs import FAMILIES, Edge, Graph, _require_p, build_graph


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
        raise InvalidParameterError(f"labeling is not a bijection onto 1..{g.n}")
    weights = {e: labeling.values[e[0]] + labeling.values[e[1]] for e in g.edges}
    grouped: dict[int, list[Edge]] = {}
    for e, w in weights.items():
        grouped.setdefault(w, []).append(e)
    classes = {w: tuple(sorted(es)) for w, es in grouped.items()}
    return WeightedColoring(weights=weights, classes=classes)


def family_labeling(family: str, p: int) -> Labeling:
    """The closed-form labeling of ``family`` on P_p, in the vertex layout of
    ``build_graph``:

    * path: the identity x_t = t; consecutive sums 2t+1 are already distinct.
    * shadow: x_t = 2t-1 for odd t and 2t for even t; y_t counts down from
      2p, as 2p-2t+2 when t and p have the same parity and 2p-2t+1 when not,
      so that both cross families collapse to constant weights when p is
      even and to two constants each when p is odd.
    * splitting: x_t = t, y_t = 2p-t+1.
    * mycielski: x_t = 2p-t+2, y_t = t, apex p+1.
    """
    if family not in FAMILIES:
        raise InvalidParameterError(f"no closed-form labeling for family {family!r}")
    _require_p(p)
    ts = range(1, p + 1)
    if family == "path":
        return Labeling(tuple(ts))
    if family == "shadow":
        x = [2 * t - t % 2 for t in ts]
        y = [2 * p - 2 * t + 2 - (t + p) % 2 for t in ts]
    elif family == "splitting":
        x, y = list(ts), [2 * p - t + 1 for t in ts]
    else:
        x, y = [2 * p - t + 2 for t in ts], list(ts)
    return Labeling(tuple(x + y + [p + 1] * (family == "mycielski")))


def family_coloring(family: str, p: int) -> tuple[Graph, Labeling, WeightedColoring]:
    """Convenience: build graph, labeling, and induced coloring together."""
    g = build_graph(family, p)
    lab = family_labeling(family, p)
    return g, lab, edge_weights(g, lab)

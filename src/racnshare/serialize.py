"""JSON output, DOT export, and fixture loading.

JSON layouts:

* graph:       {"family", "p", "n", "edges": [[i, j], ...], "roles": {"0": "x1", ...}}
               ("roles" maps a vertex index to its display name; graphs round-trip;
               a family file's edges and roles must be its construction's)
* labeling:    {"labels": {"x1": 1, ...}}  (keyed by display name)
* coloring:    {"weights": [[i, j, w], ...], "classes": {"5": [[i, j], ...]}}
* certificate: {"value", "witness", "exhaustive", "examined"}
* share:       {"index", "payload_hex"}  (shares round-trip)

`to_json` always sorts keys and uses a fixed indent, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import InvalidParameterError
from .graphs import FAMILIES, Graph, build_graph, custom_graph
from .labelings import Labeling, WeightedColoring
from .protocol import DisseminationTrace, ReconstructionTrace
from .rainbow import RacnCertificate
from .sharing import Share

FIXTURE_NAME = "fig1_inferred.json"


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _field(d, key: str, kind: type):
    """``d[key]``; InvalidParameterError unless ``d`` is a JSON object holding a ``kind`` there."""
    try:
        value = d[key]
    except (KeyError, TypeError):
        raise InvalidParameterError(f"expected a JSON object with {key!r}, got {d!r}") from None
    if type(value) is not kind:  # JSON true is not an int here
        raise InvalidParameterError(f"expected {key!r} to be {kind.__name__}, got {value!r}")
    return value


def _edges(d) -> list[tuple[int, int]]:
    edges = _field(d, "edges", list)
    if not all(type(e) is list and len(e) == 2 and all(type(v) is int for v in e)
               for e in edges):
        raise InvalidParameterError(f"expected 'edges' to hold [i, j] integer pairs, got {edges!r}")
    return [tuple(e) for e in edges]


# -- graphs -----------------------------------------------------------------

def graph_to_dict(g: Graph) -> dict:
    return {
        "family": g.family,
        "p": g.p,
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "roles": {str(v): g.names[v] for v in range(g.n)},
    }


def _roles(d: dict, n: int) -> dict:
    """``d["roles"]`` of an n-vertex graph, each key ``str(v)`` for a vertex v;
    absent or null means no names."""
    roles = d.get("roles")
    if roles is None:
        return {}
    if not isinstance(roles, dict):
        raise InvalidParameterError(f"expected 'roles' to be an object, got {roles!r}")
    indexes = {str(v) for v in range(n)}
    for key in roles:
        if key not in indexes:
            raise InvalidParameterError(
                f"expected 'roles' keys to be vertex indexes 0..{n - 1}, got {key!r}")
    return roles


def graph_from_dict(d: dict) -> Graph:
    if not isinstance(d, dict):
        raise InvalidParameterError(f"expected a JSON object, got {d!r}")
    family = d.get("family")
    p = d.get("p")
    if family in FAMILIES and p is not None:
        g = build_graph(family, p)
        roles = _roles(d, g.n)
        file_edges = sorted(tuple(sorted(e)) for e in _edges(d))
        if d.get("n", g.n) != g.n or file_edges != sorted(g.edges):
            raise InvalidParameterError(
                f"stored edges do not match the {family} construction at p={p}"
            )
        for v, name in enumerate(g.names):
            if roles.get(str(v), name) != name:
                raise InvalidParameterError(f"vertex {v} is named {roles[str(v)]!r} in the file "
                                            f"but {name!r} in the {family} construction at p={p}")
        return g
    n = _field(d, "n", int)
    roles = _roles(d, n)
    names = [roles.get(str(v), str(v + 1)) for v in range(n)]
    return custom_graph(n, _edges(d), names=names, family=family)


# -- labelings and colorings -------------------------------------------------

def labeling_to_dict(g: Graph, labeling: Labeling) -> dict:
    return {"labels": {g.names[v]: labeling.values[v] for v in range(g.n)}}


def coloring_to_dict(w: WeightedColoring) -> dict:
    return {
        "weights": [[u, v, w.weights[(u, v)]] for u, v in sorted(w.weights)],
        "classes": {
            str(value): [list(e) for e in edges] for value, edges in w.classes.items()
        },
    }


# -- certificates and shares --------------------------------------------------

def certificate_to_dict(g: Graph, cert: RacnCertificate) -> dict:
    return {
        "value": cert.value,
        "witness": labeling_to_dict(g, cert.witness)["labels"],
        "exhaustive": cert.exhaustive,
        "examined": cert.examined,
    }


def share_to_dict(s: Share) -> dict:
    return {"index": s.index, "payload_hex": s.payload.hex()}


def share_from_dict(d: dict) -> Share:
    return Share(index=_field(d, "index", int), payload=bytes.fromhex(_field(d, "payload_hex", str)))


# -- traces -------------------------------------------------------------------

def reconstruction_trace_to_dict(g: Graph, trace: ReconstructionTrace) -> dict:
    return {
        "phases": [
            {
                "path": [g.names[v] for v in path.vertices],
                "weights": list(path.weights),
                "new_classes": sorted(newly),
            }
            for path, newly in trace.phases
        ],
        "collected_after": [sorted(c) for c in trace.collected_after],
        "participants_used": [g.names[v] for v in sorted(trace.participants_used)],
        "recovered_hex": trace.recovered.hex(),
    }


def dissemination_trace_to_dict(g: Graph, trace: DisseminationTrace) -> dict:
    return {
        "informed_start": [g.names[v] for v in sorted(trace.informed_start)],
        "rounds": [
            {
                "round": i,
                "kind": r.kind,
                "circuits" if r.kind == "cycles" else "paths": [
                    [g.names[v] for v in c] for c in r.circuits
                ],
                "newly_informed": [g.names[v] for v in sorted(r.newly_informed)],
                "informed_after": [g.names[v] for v in sorted(r.informed_after)],
            }
            for i, r in enumerate(trace.rounds, 1)
        ],
        "total_rounds": trace.round_count,
    }


# -- files --------------------------------------------------------------------

def load_graph(path: str | Path) -> Graph:
    """Read a graph JSON file; "fig1" resolves to the packaged fixture."""
    if str(path) in ("fig1", FIXTURE_NAME):
        return fixture_graph()
    with open(path, encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


def fixture_graph() -> Graph:
    """The 12-participant dissemination fixture shipped with the package."""
    text = resources.files("racnshare").joinpath("data", FIXTURE_NAME).read_text()
    return graph_from_dict(json.loads(text))


# -- DOT export ----------------------------------------------------------------

# colorblind-leaning palette; cycles after 12 classes
_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#42d4f4",
    "#f032e6", "#bfef45", "#469990", "#9a6324", "#800000", "#000075",
)


def export_dot(g: Graph, w: WeightedColoring | None = None) -> str:
    """Graphviz text; edges get their weight as label and one color per class."""
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.n):
        lines.append(f'  v{v} [label="{g.names[v]}"];')
    if w is None:
        for u, v in g.edges:
            lines.append(f"  v{u} -- v{v};")
    else:
        color_of = {
            value: _PALETTE[i % len(_PALETTE)]
            for i, value in enumerate(sorted(w.classes))
        }
        for u, v in g.edges:
            wt = w.weight(u, v)
            lines.append(
                f'  v{u} -- v{v} [label="{wt}", color="{color_of[wt]}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"

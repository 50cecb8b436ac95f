"""Span tracing around the racnshare functions that one module calls in another.

The tracer patches, from outside the package, every name in every
``racnshare`` module that is bound to one of the ``TRACED`` functions, so a
call made through any module's globals lands in a wrapper. Each wrapped call
records a span ``(name, start_ns, end_ns, parent)``; self time is a span's
duration minus the time its child spans cover. Counters record the work a
call did, computed from its arguments and result, so they repeat exactly
between runs of the same code. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _split_counts(args, kwargs, result):
    secret, cfg = args[0], args[1]
    return {
        "bytes": len(secret),
        "gf_mults": len(secret) * cfg.share_count * (cfg.threshold - 1),
    }


def _reconstruct_counts(args, kwargs, result):
    return {"bytes": len(result), "gf_mults": len(result) * len(args[0])}


def _pairs_counts(args, kwargs, result):
    return {"pairs": len(result.witnesses) + (0 if result.connected else 1)}


def _dissemination_counts(args, kwargs, result):
    return {
        "rounds": result.round_count,
        "fired": sum(len(r.circuits) for r in result.rounds if r.kind == "cycles"),
    }


# defining module -> {function name: counter function or None}
TRACED = {
    "cli": {"main": lambda a, k, r: {f"exit_code.{r}": 1}},
    "serialize": {
        "to_json": lambda a, k, r: {"bytes": len(r)},
        "share_to_dict": None,
    },
    "formulas": {
        "validate_family": lambda a, k, r: {"rows": len(r.rows)},
        "theorem_lower_bound": None,
        "scheme_parameters": None,
    },
    "protocol": {
        "distribute": None,
        "simulate_reconstruction": lambda a, k, r: {"phases": r.phase_count},
        "simulate_dissemination": _dissemination_counts,
        "enumerate_cycles": lambda a, k, r: {"cycles": len(r)},
        "empirical_rp": None,
        "empirical_m": None,
    },
    "rainbow": {
        "is_rainbow_connected": _pairs_counts,
        "exists_rainbow_path": None,
        "max_new_color_path": None,
        "racn_exact": lambda a, k, r: {"examined": r.examined},
        "vertex_orbits": None,
    },
    "sharing": {"split": _split_counts, "reconstruct": _reconstruct_counts},
    "labelings": {"family_coloring": None, "family_labeling": None, "edge_weights": None},
    "graphs": {"build_graph": None},
}


def _package_modules():
    return [
        m for name, m in sys.modules.items()
        if m is not None and (name == "racnshare" or name.startswith("racnshare."))
    ]


class Tracer:
    """Records spans and counters for calls into the ``TRACED`` functions.

    ``op`` tags every span and counter with the operation running, so the
    spans of one CLI invocation share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[int, Counter] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0, 0, parent, tracer.op))
            stack.append(idx)
            counts = tracer.counts.setdefault(tracer.op, Counter())
            counts[f"{name}.calls"] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                counts[f"{name}.errors.{type(err).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of each traced function across the package."""
        modules = _package_modules()
        for mod_name, funcs in TRACED.items():
            defining = sys.modules[f"racnshare.{mod_name}"]
            for fn_name, counter in funcs.items():
                orig = getattr(defining, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()


def self_times_ms(spans) -> dict[str, float]:
    """Per span name, total duration minus the duration of direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child_ns[i]) / 1e6
    return out


def parents(spans) -> dict[str, set[str]]:
    """Per span name, the names of the spans it ran under ('-' for none)."""
    out: dict[str, set[str]] = {}
    for name, _, _, parent, _ in spans:
        out.setdefault(name, set()).add(spans[parent][0] if parent >= 0 else "-")
    return out


def total_counts(counts) -> Counter:
    """Sum of an iterable of per-op count mappings."""
    total: Counter = Counter()
    for c in counts:
        total.update(c)
    return total

"""The benchmark's tracer (bench/tracing.py) names only functions the package has.

``Tracer.install`` looks up every ``TRACED`` name with ``getattr``, so a
package function renamed or removed would crash ``bench/run.py --trace 1``.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TRACED_NAMES = [(mod, fn) for mod, funcs in tracing.TRACED.items() for fn in funcs]


@pytest.mark.parametrize("mod,fn", TRACED_NAMES, ids=[f"{m}.{f}" for m, f in TRACED_NAMES])
def test_traced_name_is_a_package_function(mod, fn):
    assert callable(getattr(importlib.import_module(f"racnshare.{mod}"), fn, None))


def test_install_wraps_and_uninstall_restores():
    from racnshare import cli, graphs

    build_graph = graphs.build_graph
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify-rainbow", "--family", "shadow", "--p", "3"]) == 0
    finally:
        tracer.uninstall()
    assert graphs.build_graph is build_graph
    counts = tracing.total_counts(tracer.counts.values())
    assert counts["cli.main.exit_code.0"] == 1
    assert counts["graphs.build_graph.calls"] == 1
    assert counts["rainbow.is_rainbow_connected.pairs"] == 15  # C(6, 2) pairs

"""racnshare benchmark: one workload, timed end to end, or traced per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep|share|protocol --seed N --seconds S --trace 0|1

The benchmark runs in one process and one thread. Every operation goes
through ``racnshare.cli.main`` in process, the way a user runs the tool,
with stdout and stderr captured. Before every pass over the workload's
fixed operation list the run sets the workload up ``SETUPS_PER_PASS``
times (import of ``racnshare`` from ``src/`` afresh, plus input and
reference data); the pass then uses the last set-up. ``setup_s`` is the
median of all set-ups, so its samples spread over the whole run. Passes
repeat while the next is expected to end within ``--seconds`` (at least
one). Outputs are checked after each pass, outside the timed region,
against ``reference.json`` (the semantic results recorded from the seed
commit by ``record_reference.py``) and against independent checks.

Only the ``cli.main`` call of each operation is timed. The timings use
each operation's fastest time over the run's passes: on a shared host the
machine's speed drifts by tens of percent within seconds, and the fastest
of several passes varies less between runs than their median does. ``wall_s`` is the sum of
those times over the operation list, ``op_p50_ms``/``op_p90_ms`` are
percentiles of them over the operations that completed.

``--trace 0`` gives the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and gives the per-layer metrics (self time,
exact work counts, errors by type, parent spans) plus the tracing overhead
and the number of exact counts that differ from the reference.

The last line of stdout is the JSON result; the lines before it list every
metric by name and unit, and the full report, with run metadata, is
written to ``bench/out/BENCH_<workload>_seed<N>_trace<T>.json``.
Exit status is 0 when a result was produced, 2 when the package or the
reference cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_PASS = 5

# metrics the final line carries; names and units match BENCHMARK.json. The
# others are printed and saved only. fail_frac, deal_MiBps and recover_MiBps
# are 0 or absent on some workload. op_p50_ms and op_p90_ms come from the same
# per-op times as wall_s, so a gate on them covers no further code, while on
# a shared host each adds its own chance of a rejection caused by noise.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_MiB": "MiB"}
PER_LAYER = {
    "cli.main.self_ms": "ms",
    "serialize.to_json.self_ms": "ms",
    "trace.overhead_s": "s",
    "trace.count_flags": "count",
    "sharing.split.bytes": "count",
    "sharing.split.gf_mults": "count",
    "sharing.reconstruct.bytes": "count",
    "sharing.reconstruct.gf_mults": "count",
    "serialize.to_json.bytes": "count",
    "rainbow.is_rainbow_connected.pairs": "count",
    "rainbow.exists_rainbow_path.calls": "count",
    "rainbow.racn_exact.examined": "count",
    "rainbow.max_new_color_path.calls": "count",
    "protocol.empirical_m.errors.RecursionError": "count",
    "protocol.simulate_reconstruction.errors.RecursionError": "count",
    "protocol.enumerate_cycles.cycles": "count",
    "protocol.simulate_dissemination.rounds": "count",
    "protocol.simulate_dissemination.fired_per_enumerated": "ratio",
    "protocol.simulate_reconstruction.phases": "count",
    "formulas.validate_family.rows": "count",
    "graphs.build_graph.calls": "count",
    "cli.main.exit_code.0": "count",
    "cli.main.exit_code.3": "count",
    "cli.main.errors.RecursionError": "count",
}


def load_package():
    """Import ``racnshare`` from ``src/`` afresh, dropping any earlier import."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "racnshare" or n.startswith("racnshare.")]:
        del sys.modules[name]
    import racnshare
    import racnshare.cli  # noqa: F401  (the entry point every op goes through)
    if not Path(racnshare.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"racnshare was imported from {racnshare.__file__}, not src/")
    return racnshare


def set_up(name: str, seed: int):
    """The work ``setup_s`` times: import, inputs and reference data. Returns (s, rs, wl)."""
    gc.collect()
    start = time.perf_counter()
    rs = load_package()
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["ops"]
    wl = workloads.build(name, seed, rs, reference)
    return time.perf_counter() - start, rs, wl


def run_op(rs, argv: list[str]) -> tuple[str, str, str, float]:
    """Run one CLI invocation; return (status, stdout, stderr, seconds).

    Status is ``exit N`` for a returned or SystemExit code, or the type name
    of an exception that escaped ``cli.main``.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = f"exit {rs.cli.main(argv)}"
    except SystemExit as exc:
        status = f"exit {exc.code}"
    except Exception as exc:  # a crash escaping the CLI is a counted failure
        status = type(exc).__name__
        err.write(f"{status}: {str(exc)[:200]}\n")
    return status, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(wl, rs, tracer=None) -> list[tuple]:
    """One pass over the op list: (op, status, stdout, stderr, seconds) per op."""
    stdout_of: dict[str, str] = {}
    parsed: dict[str, object] = {}
    ops = []
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        status, out, err, secs = run_op(rs, wl.argv(op, stdout_of, parsed))
        stdout_of[op.id] = out
        ops.append((op, status, out, err, secs))
    return ops


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(passes: list[list[tuple]]) -> dict:
    """Timing metrics from each op's fastest time over ``passes`` of (op, status, s).

    An op counts as completed when it exited 0 in every pass.
    """
    ops = [op for op, _, _ in passes[0]]
    best = [min(p[i][2] for p in passes) for i in range(len(ops))]
    done = [i for i in range(len(ops)) if all(p[i][1] == "exit 0" for p in passes)]
    t = {"wall_s": sum(best), "completed": len(done)}
    if done:
        lat = [best[i] * 1e3 for i in done]
        t["op_p50_ms"] = percentile(lat, 50)
        t["op_p90_ms"] = percentile(lat, 90)
    for cmd, key in (("split", "deal_MiBps"), ("reconstruct", "recover_MiBps")):
        mine = [i for i in done if ops[i].argv[0] == cmd]
        if mine:
            t[key] = sum(len(ops[i].secret) for i in mine) / 2**20 / sum(best[i] for i in mine)
    return t


def check_pass(wl, rs, rec: list[tuple]) -> list[str]:
    return [p for op, status, out, _, _ in rec
            for p in workloads.check(op, status, out, wl, rs)]


def self_check(wl, rs, rec: list[tuple]) -> tuple[int, list[str]]:
    """Corrupt correct outputs; the checks must report every corrupted one.

    Returns how many outputs were corrupted and a problem per one the checks missed.
    """
    tried, missed = 0, []
    for op, status, out, _, _ in rec:
        if status != "exit 0":
            continue
        bad = workloads.corrupt(op, out)
        if bad is None:
            continue
        tried += 1
        if not workloads.check(op, status, bad, wl, rs):
            missed.append(f"self-check: corrupted output of {op.id} passed the checks")
    if not tried:
        missed.append("self-check: no output of this workload could be corrupted")
    return tried, missed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, wl) -> dict:
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups_per_pass": SETUPS_PER_PASS,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "ops": [{"id": op.id, "argv": [a if len(a) < 80 else f"<{len(a)} chars>"
                                       for a in op.argv]} for op in wl.ops],
    }


def measure(args, setup_s: list[float]) -> dict:
    """Set up and run passes while the next is expected to end within ``args.seconds``.

    Every pass runs on the last of the ``SETUPS_PER_PASS`` set-ups made before
    it, whose times are appended to ``setup_s``. With ``args.trace`` set,
    passes alternate untraced and traced, starting untraced, and there is at
    least one of each. Outputs are checked after every pass, outside its timing,
    and the first untraced pass's outputs also go through ``self_check``.
    """
    m = {"untraced": [], "traced": [], "problems": [], "attempted": 0, "failed": 0,
         "failures_by_op": {}, "spans": None, "op_counts": [], "self_ms": []}
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    last = 0.0
    while (not m["untraced"] or (tracer and not m["traced"])
           or time.perf_counter() - start + last <= args.seconds):
        began = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            secs, rs, wl = set_up(args.workload, args.seed)
            setup_s.append(secs)
        use_tracer = tracer is not None and len(m["traced"]) < len(m["untraced"])
        gc.collect()
        if use_tracer:
            tracer.reset()
            tracer.install()
            try:
                rec = run_pass(wl, rs, tracer)
            finally:
                tracer.uninstall()
            m["self_ms"].append(tracing.self_times_ms(tracer.spans))
            m["op_counts"].append({wl.ops[i].id: dict(c) for i, c in tracer.counts.items()})
            if m["spans"] is None:
                m["spans"] = [list(sp) for sp in tracer.spans]
        else:
            rec = run_pass(wl, rs)
            if not m["untraced"]:
                m["self_check"] = self_check(wl, rs, rec)
        m["problems"] += check_pass(wl, rs, rec)
        m["attempted"] += len(rec)
        for op, status, _, _, _ in rec:
            if status != "exit 0":
                m["failed"] += 1
                m["failures_by_op"].setdefault(op.id, Counter())[status] += 1
        # keep no outputs past their checks, so passes do not add to peak_rss_MiB
        m["traced" if use_tracer else "untraced"].append(
            [(op, status, secs) for op, status, _, _, secs in rec])
        del rec
        last = time.perf_counter() - began
    m["wl"], m["rs"] = wl, rs
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s: list[float] = []
    try:
        setup_s.append(set_up(args.workload, args.seed)[0])
    except (ImportError, OSError, KeyError, ValueError) as err:
        print(f"bench: cannot set up {args.workload}: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2

    m = measure(args, setup_s)
    wl, rs, untraced, traced = m["wl"], m["rs"], m["untraced"], m["traced"]
    attempted, failed = m["attempted"], m["failed"]
    corrupted, missed = m["self_check"]
    problems = m["problems"] + missed
    t = timings(untraced)
    report = {
        "metadata": metadata(args, wl),
        "correct": not problems,
        "problems": problems[:50],
        "attempted": attempted,
        "failed": failed,
        "failures_by_op": {k: dict(v) for k, v in m["failures_by_op"].items()},
        "failures_by_type": dict(Counter(kind for per_op in m["failures_by_op"].values()
                                         for kind in per_op.elements())),
        "self_check": {"corrupted_outputs": corrupted, "missed": len(missed)},
        "setup_s_samples": setup_s,
        "untraced_op_s": [{op.id: secs for op, _, secs in rec} for rec in untraced],
    }
    best = f"sum over the ops of each op's fastest time in {len(untraced)} untraced passes"
    lat = (f"over {t['completed']} completed ops, each at its fastest in "
           f"{len(untraced)} untraced passes")
    summary = {
        "setup_s": (statistics.median(setup_s), f"median of {len(setup_s)} set-ups"),
        "wall_s": (t["wall_s"], best),
        "op_p50_ms": (t.get("op_p50_ms"), lat),
        "op_p90_ms": (t.get("op_p90_ms"), lat),
        "fail_frac": (failed / attempted, f"{failed} of {attempted} ops attempted"),
        "peak_rss_MiB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "maxrss of this process"),
        "deal_MiBps": (t.get("deal_MiBps"), f"split ops {lat}"),
        "recover_MiBps": (t.get("recover_MiBps"), f"reconstruct ops {lat}"),
    }
    units = {**END_TO_END, "op_p50_ms": "ms", "op_p90_ms": "ms", "fail_frac": "1",
             "deal_MiBps": "MiB/s", "recover_MiBps": "MiB/s"}
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced passes"
          f"{f', {len(traced)} traced' if traced else ''}, {len(wl.ops)} ops per pass, "
          f"{t['completed']} completed; failures: {report['failures_by_op'] or 'none'}")
    for name, (value, how) in summary.items():
        if value is not None:
            print(f"  {name:<16} {value:12.6g} {units[name]:<6} ({how})")
    report["end_to_end"] = {k: {"value": v, "unit": units[k], "samples": how}
                            for k, (v, how) in summary.items() if v is not None}

    if traced:
        layer = _layer_report(wl, m, t["wall_s"], report)
        under = tracing.parents(m["spans"])
        for name in sorted(layer):
            caller = under.get(name.rsplit(".", 1)[0]) if name.endswith(".self_ms") else None
            print(f"  {name:<56} {layer[name]:14.6g}"
                  + (f"  under {', '.join(sorted(caller))}" if caller else ""))
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary[k][0], "unit": u} for k, u in END_TO_END.items()}

    for p in problems[:20]:
        print(f"  PROBLEM {p}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": report["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_report(wl, m: dict, untraced_wall_s: float, report: dict) -> dict:
    """Per-layer values: median self time over traced passes, exact counts per pass."""
    layer: dict[str, float] = {}
    names = {n for p in m["self_ms"] for n in p}
    for n in names:
        layer[f"{n}.self_ms"] = statistics.median(p.get(n, 0.0) for p in m["self_ms"])
    per_op = m["op_counts"][0]
    counts = dict(tracing.total_counts(per_op.values()))
    layer.update(counts)
    fired = counts.get("protocol.simulate_dissemination.fired", 0)
    cycles = counts.get("protocol.enumerate_cycles.cycles", 0)
    layer["protocol.simulate_dissemination.fired_per_enumerated"] = (
        fired / cycles if cycles else 0.0)
    layer["trace.overhead_s"] = timings(m["traced"])["wall_s"] - untraced_wall_s

    flags = []
    if any(p != per_op for p in m["op_counts"][1:]):
        flags.append("counts differ between traced passes of this run")
    for op_id, got in per_op.items():
        want = wl.reference[op_id]["counts"]
        if got != want:
            diff = {k: [want.get(k), got.get(k)] for k in set(got) | set(want)
                    if got.get(k) != want.get(k)}
            flags.append(f"{op_id}: counts differ from the reference {diff}")
    layer["trace.count_flags"] = len(flags)
    report["count_flags"] = flags
    report["per_layer"] = layer
    report["traced_op_s"] = [{op.id: secs for op, _, secs in rec} for rec in m["traced"]]
    report["traced_self_ms"] = m["self_ms"]
    report["traced_op_counts"] = m["op_counts"]
    report["spans"] = m["spans"]
    for f in flags:
        print(f"  COUNT-FLAG {f}")
    return layer


if __name__ == "__main__":
    sys.exit(main())

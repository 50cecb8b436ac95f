"""Record the benchmark's reference: the semantic result and exact work counts of every op.

Run from the root of a checkout of the commit whose results are the
reference::

    python3 bench/record_reference.py

Each op of each workload, including both orientations of every
dissemination start set, runs once with the tracer installed. The status,
the semantic result (``workloads.summary``) and the per-op counters go to
``bench/reference.json``. Share bytes are not recorded: a change of the
coefficient stream legitimately changes them, and recovered secrets are
checked against the originals instead.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads


def main() -> int:
    rs = run.load_package()
    tracer = tracing.Tracer()
    ops: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0, rs, None)
        todo = list(wl.ops)
        if name == "protocol":  # both orientations of every dissemination start set
            drawn = {op.id for op in todo}
            todo += [op for op in (workloads.dissemination_op(*spec, mirrored)
                                   for spec in workloads.DISSEMINATION
                                   for mirrored in (False, True))
                     if op.id not in drawn]
        tracer.reset()
        tracer.install()
        try:
            rec = run.run_pass(workloads.Workload(todo, {}), rs, tracer)
        finally:
            tracer.uninstall()
        for i, (op, status, out, _, secs) in enumerate(rec):
            ops[op.id] = {"status": status, "counts": dict(tracer.counts.get(i, {})),
                          "result": (workloads.summary(op, json.loads(out))
                                     if status == "exit 0" else None)}
            print(f"{name:9} {secs:8.3f}s {status:15} {op.id}", file=sys.stderr)
    failing = {op_id: e["status"] for op_id, e in ops.items() if e["status"] != "exit 0"}
    print(f"failing ops: {failing}", file=sys.stderr)
    doc = {
        "recorded_from": run.git_commit(),
        "python": sys.version.split()[0],
        "ops": ops,
    }
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

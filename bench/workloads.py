"""Workload definitions, input generation and output checks for the benchmark.

Each workload is a fixed list of ``racnshare`` CLI invocations. The seed
draws only inputs that do not change how much work a pass does: secret
bytes, dealer seeds, recovery subsets, and whether each
dissemination start set is used as written or mirrored along the path
(x_t <-> x_{p+1-t}, y_t <-> y_{p+1-t}), which is a graph automorphism.
Families and p never depend on the seed.

* ``sweep``: the research use. Closed-form validation, rainbow checks and
  exact racn; the rainbow pair search, ``racn_exact`` and the cover search
  do nearly all the work and ``sharing`` does none, so a share-layer change
  should not move it. The two frontier cells crash with ``RecursionError``
  in the cover search today and stay in the list so the crash is counted.
* ``share``: the dealer's use. 16 KiB secrets split at a common threshold
  and at the class counts of shadow p=8, mycielski p=6 and splitting p=16,
  each recovered from four subsets. ``sharing`` and ``serialize`` dominate;
  split beside reconstruct is the write/read pair.
* ``protocol``: the scheme simulation. Greedy, clamped and optimal
  reconstruction plus cycle dissemination; it enumerates every rainbow path
  (``max_new_color_path``) instead of searching pairs, and it is the only
  workload that enumerates cycles. Secrets are 64 bytes so ``sharing`` is
  close to zero. The optimal cell on shadow p=9 crashes today.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

SECRET_BYTES = 16 * 1024
PROTOCOL_SECRET_BYTES = 64
SHARE_SETTINGS = ((3, 5), (9, 9), (12, 12), (17, 17))

SWEEP_VALIDATE = (("shadow", 2, 8), ("splitting", 2, 15), ("mycielski", 2, 5))
SWEEP_FRONTIER = (("shadow", 9, 9), ("splitting", 16, 16))
SWEEP_VERIFY = (("shadow", 30), ("splitting", 40), ("mycielski", 20))
SWEEP_RACN = (("mycielski", 5, 11), ("path", 8, 8))
VALIDATE_MAX_N = 10

RECONSTRUCTION = (
    ("shadow", 24, ()), ("splitting", 40, ()), ("mycielski", 12, ()),
    ("shadow", 24, ("--clamp",)), ("mycielski", 14, ("--clamp",)),
    ("shadow", 8, ("--optimal",)), ("splitting", 14, ("--optimal",)),
    ("mycielski", 5, ("--optimal",)), ("shadow", 9, ("--optimal",)),
)
DISSEMINATION = (
    ("shadow", 10, "x1", "chordless"), ("shadow", 10, "x5,y6", "chordless"),
    ("shadow", 10, "x1", "all"), ("splitting", 16, "y1", "chordless"),
    ("mycielski", 12, "x1", "chordless"),
)

@dataclass
class Op:
    """One CLI invocation. ``id`` names it in the reference, independent of seed."""

    id: str
    argv: list[str]
    instance: tuple[str, int] | None = None
    source: str | None = None  # reconstruct: id of the split op whose shares it takes
    subset: tuple[int, ...] = ()
    secret: bytes = b""
    informed: tuple[str, ...] = ()


@dataclass
class Workload:
    ops: list[Op]
    reference: dict
    instances: dict = field(default_factory=dict)  # (family, p) -> (graph, labeling, coloring)

    def argv(self, op: Op, stdout_of: dict[str, str], parsed: dict) -> list[str]:
        """Argument list for ``op``; a reconstruct op reads the shares its split printed.

        ``parsed`` keeps each split's shares once parsed, for the other ops of the pass.
        """
        if op.source is None:
            return op.argv
        if op.source not in parsed:
            parsed[op.source] = {d["index"]: d["payload_hex"]
                                 for d in json.loads(stdout_of[op.source])}
        shares = parsed[op.source]
        argv = list(op.argv)
        for i in op.subset:
            argv += ["--share", f"{i}:{shares[i]}"]
        return argv


def mirror(name: str, p: int) -> str:
    if name[0] in "xy":
        return f"{name[0]}{p + 1 - int(name[1:])}"
    return name


def dissemination_op(family: str, p: int, informed: str, policy: str, mirrored: bool) -> Op:
    names = informed.split(",")
    if mirrored:
        names = [mirror(v, p) for v in names]
    start = ",".join(names)
    argv = ["simulate-dissemination", "--family", family, "--p", str(p), "--informed", start]
    if policy != "chordless":
        argv += ["--cycle-policy", policy]
    return Op(f"simulate-dissemination {family} p={p} from {start} {policy}", argv,
              instance=(family, p), informed=tuple(names))


def _validate_op(family: str, lo: int, hi: int) -> Op:
    return Op(f"validate {family} {lo}..{hi}",
              ["validate", "--format", "json", "--max-n", str(VALIDATE_MAX_N),
               "--family", family, "--p-range", f"{lo}..{hi}"])


def _sweep_ops(rng: random.Random) -> list[Op]:
    ops = [_validate_op(*cell) for cell in SWEEP_VALIDATE]
    for family, p in SWEEP_VERIFY:
        ops.append(Op(f"verify-rainbow {family} p={p}",
                      ["verify-rainbow", "--family", family, "--p", str(p)],
                      instance=(family, p)))
    for family, p, max_n in SWEEP_RACN:
        ops.append(Op(f"racn --exact {family} p={p}",
                      ["racn", "--exact", "--family", family, "--p", str(p),
                       "--max-n", str(max_n)],
                      instance=(family, p)))
    return ops + [_validate_op(*cell) for cell in SWEEP_FRONTIER]


def _share_ops(rng: random.Random) -> list[Op]:
    ops = []
    for k, n in SHARE_SETTINGS:
        secret = rng.randbytes(SECRET_BYTES)
        split_id = f"split k={k} n={n}"
        ops.append(Op(split_id,
                      ["split", "--secret-hex", secret.hex(), "--k", str(k),
                       "--shares", str(n), "--seed", str(rng.randrange(2**32))],
                      secret=secret))
        subsets = {
            "first": tuple(range(1, k + 1)),
            "last": tuple(range(n - k + 1, n + 1)),
            "drawn": tuple(rng.sample(range(1, n + 1), k)),
            "all": tuple(range(1, n + 1)),
        }
        for label, subset in subsets.items():
            ops.append(Op(f"reconstruct k={k} n={n} {label}",
                          ["reconstruct", "--k", str(k)],
                          source=split_id, subset=subset, secret=secret))
    return ops


def _protocol_ops(rng: random.Random) -> list[Op]:
    ops = []
    for family, p, flags in RECONSTRUCTION:
        secret = rng.randbytes(PROTOCOL_SECRET_BYTES)
        mode = flags[0][2:] if flags else "greedy"
        ops.append(Op(f"simulate-reconstruction {family} p={p} {mode}",
                      ["simulate-reconstruction", "--family", family, "--p", str(p),
                       "--secret-hex", secret.hex(), "--seed", str(rng.randrange(2**32)),
                       *flags],
                      instance=(family, p), secret=secret))
    for family, p, informed, policy in DISSEMINATION:
        ops.append(dissemination_op(family, p, informed, policy, rng.random() < 0.5))
    return ops


_BUILDERS = {"sweep": _sweep_ops, "share": _share_ops, "protocol": _protocol_ops}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, rs, reference: dict | None) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` and the data the checks need.

    ``reference`` maps op ids to recorded outcomes; None while recording them.
    """
    ops = _BUILDERS[name](random.Random(seed))
    pinned = {} if reference is None else {op.id: reference[op.id] for op in ops}
    wl = Workload(ops, pinned)
    for op in ops:
        if op.instance is not None:
            keys = [op.instance]
        elif op.argv[0] == "validate":
            family = op.argv[op.argv.index("--family") + 1]
            lo, hi = map(int, op.argv[op.argv.index("--p-range") + 1].split(".."))
            keys = [(family, p) for p in range(lo, hi + 1)]
        else:
            keys = []
        for key in keys:
            if key not in wl.instances:
                wl.instances[key] = rs.family_coloring(*key)
    return wl


# -- checks ----------------------------------------------------------------

def summary(op: Op, out: dict | list):
    """The semantic result of an op that the reference pins (None: checked otherwise)."""
    cmd = op.argv[0]
    if cmd == "validate":
        return [[r["p"], r["n"], r["k"]["observed"], r["m"]["observed"],
                 r["rp"]["observed"], r["racn_exact"]] for r in out["rows"]]
    if cmd == "verify-rainbow":
        return [out["rainbow_connected"], out["pairs_checked"]]
    if cmd == "racn":
        return out["value"]
    if cmd == "simulate-reconstruction":
        return out["phase_count"]
    if cmd == "simulate-dissemination":
        return [out["total_rounds"], out["rounds"][-1]["informed_after"] if out["rounds"] else []]
    return None


def _independent(op: Op, out, wl: Workload, rs) -> list[str]:
    """Checks that do not lean on the recorded reference."""
    cmd = op.argv[0]
    bad = []
    if cmd == "validate":
        family = op.argv[op.argv.index("--family") + 1]
        for row in out["rows"]:
            coloring = wl.instances[(family, row["p"])][2]
            if row["k"]["observed"] != len(coloring.classes):
                bad.append(f"p={row['p']}: k observed {row['k']['observed']} "
                           f"!= {len(coloring.classes)} classes")
    elif cmd == "racn":
        g = wl.instances[op.instance][0]
        labels = tuple(out["witness"][g.names[v]] for v in range(g.n))
        if sorted(labels) != list(range(1, g.n + 1)):
            bad.append("witness is not a bijection onto 1..n")
        else:
            coloring = rs.edge_weights(g, rs.Labeling(labels))
            if not rs.is_rainbow_connected(g, coloring).connected:
                bad.append("witness coloring is not rainbow connected")
            if len(coloring.classes) != out["value"]:
                bad.append(f"witness has {len(coloring.classes)} classes, value {out['value']}")
    elif cmd == "split":
        n = int(op.argv[op.argv.index("--shares") + 1])
        if sorted(d["index"] for d in out) != list(range(1, n + 1)):
            bad.append("share indexes are not 1..n")
        if any(len(d["payload_hex"]) != 2 * len(op.secret) for d in out):
            bad.append("share payload length differs from the secret's")
    elif cmd == "reconstruct":
        if out["secret_hex"] != op.secret.hex():
            bad.append("recovered secret differs from the original")
    elif cmd == "simulate-reconstruction":
        g, _, coloring = wl.instances[op.instance]
        if not out["secret_recovered"] or out["recovered_hex"] != op.secret.hex():
            bad.append("recovered secret differs from the original")
        seen = set()
        for phase in out["phases"]:
            path = [g.index_of(v) for v in phase["path"]]
            weights = [coloring.weight(a, b) for a, b in zip(path, path[1:])
                       if g.has_edge(a, b)]
            if weights != phase["weights"] or len(set(weights)) != len(weights):
                bad.append(f"phase path {phase['path']} is not a rainbow path")
            seen.update(weights)
        if seen != set(coloring.classes):
            bad.append("phases do not cover every weight class")
    elif cmd == "simulate-dissemination":
        g = wl.instances[op.instance][0]
        start = sorted(op.informed, key=g.index_of)
        final = out["rounds"][-1]["informed_after"] if out["rounds"] else start
        if out["informed_start"] != start:
            bad.append("informed start set differs from the request")
        if sorted(final, key=g.index_of) != list(g.names):
            bad.append("not every participant is informed")
    return bad


def check(op: Op, status: str, stdout: str, wl: Workload, rs) -> list[str]:
    """Problems with one op's outcome; an empty list means it is correct.

    An op the reference records as succeeding must succeed with the same
    semantic result. An op the reference records as failing (the frontier
    cells) may fail again in any way, a crash, a budget refusal or another
    exit code, which the caller counts as a failure; or it may succeed with
    output that passes the independent checks.
    """
    ref = wl.reference[op.id]
    if status != "exit 0":
        if ref["status"] == "exit 0":
            return [f"{op.id}: {status}, reference succeeded"]
        return []
    try:
        out = json.loads(stdout)
        bad = _independent(op, out, wl, rs)
        result = summary(op, out)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return [f"{op.id}: malformed output ({type(err).__name__}: {err})"]
    if ref["status"] == "exit 0" and result != ref["result"]:
        bad.append(f"result {result!r} != reference {ref['result']!r}")
    return [f"{op.id}: {msg}" for msg in bad]


def corrupt(op: Op, stdout: str) -> str | None:
    """A deliberately wrong copy of a correct output, for the harness self-check."""
    cmd = op.argv[0]
    if cmd not in ("racn", "reconstruct", "simulate-reconstruction"):
        return None
    out = json.loads(stdout)
    if cmd == "racn":
        out["value"] += 1
    else:
        key = "secret_hex" if cmd == "reconstruct" else "recovered_hex"
        out[key] = f"{int(out[key][:2], 16) ^ 1:02x}{out[key][2:]}"
    return json.dumps(out)

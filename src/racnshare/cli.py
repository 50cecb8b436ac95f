"""Command-line interface.

Exit codes: 0 success; 1 a verification/validation failure under --strict;
2 invalid input; 3 a search budget or instance-size cap was exceeded;
4 an internal error (any other exception, which is a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formulas, protocol, serialize
from .errors import (
    BudgetExceededError,
    InstanceTooLargeError,
    InvalidParameterError,
    RacnShareError,
)
from .graphs import FAMILIES, build_graph, degree_stats, diameter
from .labelings import (
    distinct_weight_count,
    edge_weights,
    family_coloring,
    family_labeling,
)
from .rainbow import DEFAULT_MAX_N, is_rainbow_connected, racn_exact, racn_upper
from .sharing import SecretConfig, Share, reconstruct, split


def _parse_p_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected a range like 2..6")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a range like 2..6") from None
    if a < 2 or b < a:
        raise argparse.ArgumentTypeError("need 2 <= A <= B in A..B")
    return range(a, b + 1)


def _secret_bytes(args) -> bytes:
    if getattr(args, "secret_hex", None):
        return bytes.fromhex(args.secret_hex)
    return args.secret.encode("utf-8")


def _add_instance_args(sub, families=FAMILIES):
    sub.add_argument("--family", required=True, choices=families)
    sub.add_argument("--p", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racnshare",
        description=(
            "Rainbow antimagic colorings of path-derived graphs and the "
            "secret-sharing protocol built on them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("build", help="construct a family graph")
    _add_instance_args(s)
    s.add_argument("--format", choices=("json", "dot", "table"), default="json")

    s = sub.add_parser("label", help="closed-form labeling of a family graph")
    _add_instance_args(s)

    s = sub.add_parser("weights", help="edge weights induced by the labeling")
    _add_instance_args(s)
    s.add_argument("--format", choices=("json", "dot", "table"), default="json")

    s = sub.add_parser("verify-rainbow", help="check rainbow connectivity")
    _add_instance_args(s)
    s.add_argument("--strict", action="store_true")

    s = sub.add_parser("racn", help="minimum color count (exact or witness bound)")
    _add_instance_args(s)
    s.add_argument("--exact", action="store_true")
    s.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)

    s = sub.add_parser("formulas", help="closed-form scheme parameters")
    _add_instance_args(s, families=formulas.SCHEME_FAMILIES)

    s = sub.add_parser("validate", help="closed forms vs recomputed values")
    s.add_argument("--family", required=True, choices=formulas.SCHEME_FAMILIES)
    s.add_argument("--p-range", required=True, type=_parse_p_range)
    s.add_argument("--strict", action="store_true")
    s.add_argument("--format", choices=("json", "table"), default="table")
    s.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)

    s = sub.add_parser("split", help="split a secret into shares")
    s.add_argument("--secret")
    s.add_argument("--secret-hex")
    s.add_argument("--k", required=True, type=int)
    s.add_argument("--shares", required=True, type=int)
    s.add_argument("--seed", type=int, help="omit for private coefficients")

    s = sub.add_parser("reconstruct", help="recover a secret from shares")
    s.add_argument(
        "--share",
        action="append",
        default=[],
        metavar="INDEX:HEX",
        help="one share; repeat the flag",
    )
    s.add_argument("--shares-file", help="JSON list of {index, payload_hex}")
    s.add_argument("--k", required=True, type=int)

    s = sub.add_parser(
        "simulate-reconstruction", help="multi-phase share gathering"
    )
    _add_instance_args(s)
    s.add_argument("--secret", default="secret")
    s.add_argument("--secret-hex")
    s.add_argument("--seed", type=int, help="omit for private coefficients")
    policy = s.add_mutually_exclusive_group()
    policy.add_argument("--clamp", action="store_true")
    policy.add_argument("--optimal", action="store_true")

    s = sub.add_parser(
        "simulate-dissemination", help="round-by-round broadcast on a graph"
    )
    s.add_argument("--fixture", help="graph JSON file, or 'fig1' for the bundled one")
    s.add_argument("--family", choices=FAMILIES)
    s.add_argument("--p", type=int)
    s.add_argument("--informed", required=True, help="comma-separated vertex names")
    s.add_argument("--cycle-policy", choices=("chordless", "all"), default="chordless")
    s.add_argument("--max-len", type=int)

    s = sub.add_parser("export-dot", help="Graphviz output with class colors")
    _add_instance_args(s)
    s.add_argument("--plain", action="store_true", help="omit weights and colors")

    return parser


def _cmd_build(args) -> int:
    g = build_graph(args.family, args.p)
    if args.format == "dot":
        print(serialize.export_dot(g), end="")
    elif args.format == "table":
        lo, hi = degree_stats(g)
        print(f"{args.family} p={args.p}: n={g.n}, edges={len(g.edges)}, "
              f"degrees {lo}..{hi}, diameter {diameter(g)}")
        for u, v in g.edges:
            print(f"  {g.names[u]} -- {g.names[v]}")
    else:
        print(serialize.to_json(serialize.graph_to_dict(g)))
    return 0


def _cmd_label(args) -> int:
    g = build_graph(args.family, args.p)
    lab = family_labeling(args.family, args.p)
    print(serialize.to_json(serialize.labeling_to_dict(g, lab)))
    return 0


def _cmd_weights(args) -> int:
    g, _, w = family_coloring(args.family, args.p)
    if args.format == "dot":
        print(serialize.export_dot(g, w), end="")
    elif args.format == "table":
        for u, v in sorted(w.weights):
            print(f"{g.names[u]:>4} -- {g.names[v]:<4} {w.weights[(u, v)]}")
        print(f"distinct weights: {distinct_weight_count(w)}")
    else:
        print(serialize.to_json(serialize.coloring_to_dict(w)))
    return 0


def _cmd_verify_rainbow(args) -> int:
    g, _, w = family_coloring(args.family, args.p)
    res = is_rainbow_connected(g, w)
    pair = None
    if res.failing_pair is not None:
        pair = [g.names[v] for v in res.failing_pair]
    print(serialize.to_json({
        "family": args.family,
        "p": args.p,
        "rainbow_connected": res.connected,
        "pairs_checked": len(res.witnesses) + (0 if res.connected else 1),
        "failing_pair": pair,
    }))
    return 1 if args.strict and not res.connected else 0


def _cmd_racn(args) -> int:
    g = build_graph(args.family, args.p)
    if args.exact:
        cert = racn_exact(g, max_n=args.max_n)
        print(serialize.to_json(serialize.certificate_to_dict(g, cert)))
        return 0
    lab = family_labeling(args.family, args.p)
    bound = racn_upper(g, lab)
    print(serialize.to_json({
        "family": args.family,
        "p": args.p,
        "upper_bound": bound,
        "witness": {g.names[v]: lab.values[v] for v in range(g.n)},
    }))
    return 0


def _cmd_formulas(args) -> int:
    params = formulas.scheme_parameters(args.family, args.p)
    print(serialize.to_json({
        "family": params.family,
        "p": params.p,
        "n": params.n,
        "k": params.k,
        "m": params.m,
        "rp": params.rp,
        "lower_bound": formulas.theorem_lower_bound(args.family, args.p),
    }))
    return 0


def _cmd_validate(args) -> int:
    report = formulas.validate_family(args.family, args.p_range, racn_max_n=args.max_n)
    if args.format == "table":
        print(report.to_table())
        for line in report.mismatches:
            print(f"MISMATCH {line}")
    else:
        rows = []
        for r in report.rows:
            rows.append({
                "p": r.p,
                "n": r.n,
                "k": {"formula": r.k_formula, "observed": r.k_observed},
                "m": {"formula": r.m_formula, "observed": r.m_observed},
                "rp": {"formula": r.rp_formula, "observed": r.rp_observed},
                "lower_bound": r.lower_bound,
                "racn_exact": r.racn_value,
                "y_pair_sums": list(r.y_pair_sums),
                "mismatches": list(r.mismatches),
                "gaps": list(r.gaps),
            })
        print(serialize.to_json({
            "family": report.family,
            "rows": rows,
            "ok": report.ok,
        }))
    return 1 if args.strict and not report.ok else 0


def _cmd_split(args) -> int:
    if not args.secret and not args.secret_hex:
        print("split: provide --secret or --secret-hex", file=sys.stderr)
        return 2
    secret = _secret_bytes(args)
    cfg = SecretConfig(threshold=args.k, share_count=args.shares, seed=args.seed)
    shares = split(secret, cfg)
    print(serialize.to_json([serialize.share_to_dict(s) for s in shares]))
    return 0


def _cmd_reconstruct(args) -> int:
    shares: list[Share] = []
    if args.shares_file:
        with open(args.shares_file, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, list):
            raise InvalidParameterError(f"expected a JSON list of shares, got {loaded!r}")
        shares.extend(serialize.share_from_dict(d) for d in loaded)
    for text in args.share:
        idx, sep, hexpart = text.partition(":")
        if not sep:
            print(f"reconstruct: bad --share {text!r}, expected INDEX:HEX",
                  file=sys.stderr)
            return 2
        shares.append(Share(index=int(idx), payload=bytes.fromhex(hexpart)))
    secret = reconstruct(shares, args.k)
    try:
        text = secret.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    print(serialize.to_json({"secret_hex": secret.hex(), "secret_utf8": text}))
    return 0


def _cmd_simulate_reconstruction(args) -> int:
    g = build_graph(args.family, args.p)
    lab = family_labeling(args.family, args.p)
    instance = protocol.distribute(g, lab, _secret_bytes(args), seed=args.seed)
    trace = protocol.simulate_reconstruction(
        instance, clamp=args.clamp, optimal=args.optimal
    )
    out = serialize.reconstruction_trace_to_dict(g, trace)
    out["phase_count"] = trace.phase_count
    out["secret_recovered"] = trace.recovered == instance.secret
    print(serialize.to_json(out))
    return 0


def _cmd_simulate_dissemination(args) -> int:
    if args.fixture:
        g = serialize.load_graph(args.fixture)
    elif args.family and args.p is not None:
        g = build_graph(args.family, args.p)
    else:
        print("simulate-dissemination: provide --fixture or --family/--p",
              file=sys.stderr)
        return 2
    informed = frozenset(
        g.index_of(name.strip()) for name in args.informed.split(",") if name.strip()
    )
    trace = protocol.simulate_dissemination(
        g, informed, cycle_policy=args.cycle_policy, max_len=args.max_len
    )
    print(serialize.to_json(serialize.dissemination_trace_to_dict(g, trace)))
    return 0


def _cmd_export_dot(args) -> int:
    g = build_graph(args.family, args.p)
    w = None if args.plain else edge_weights(g, family_labeling(args.family, args.p))
    print(serialize.export_dot(g, w), end="")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "label": _cmd_label,
    "weights": _cmd_weights,
    "verify-rainbow": _cmd_verify_rainbow,
    "racn": _cmd_racn,
    "formulas": _cmd_formulas,
    "validate": _cmd_validate,
    "split": _cmd_split,
    "reconstruct": _cmd_reconstruct,
    "simulate-reconstruction": _cmd_simulate_reconstruction,
    "simulate-dissemination": _cmd_simulate_dissemination,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InstanceTooLargeError, BudgetExceededError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (RacnShareError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

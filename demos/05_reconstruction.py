"""Deal shares onto a labeled graph, then collect them phase by phase.

Each edge-weight class carries one share of the secret; a participant holds
the shares of its incident edges.  A reconstruction phase walks one rainbow
path, picking up every share along it.  The apex construction on p=3 needs
two phases — no single rainbow path touches all six classes — so it makes a
good walkthrough.  Afterwards: what the per-phase clamp and the exhaustive
planner change.
"""

from racnshare import build_graph, distribute, family_labeling, simulate_reconstruction


def walkthrough(family: str, p: int, **kwargs) -> None:
    g = build_graph(family, p)
    lab = family_labeling(family, p)
    inst = distribute(g, lab, b"\x00\xff", seed=7)
    print(f"{family} p={p}: threshold {inst.threshold} of {inst.threshold}")
    trace = simulate_reconstruction(inst, **kwargs)
    for i, (path, gained) in enumerate(trace.phases, start=1):
        names = " -> ".join(g.names[v] for v in path.vertices)
        print(f"  phase {i}: {names}")
        print(f"           weights {path.weights}, new classes {sorted(gained)}")
    print(f"  participants involved: "
          f"{sorted(g.names[v] for v in trace.participants_used)}")
    assert trace.recovered == inst.secret
    print(f"  recovered {trace.recovered.hex()} in {trace.phase_count} phase(s)\n")


if __name__ == "__main__":
    walkthrough("mycielski", 3)
    walkthrough("shadow", 4)

    # The clamp caps each phase at k-1 new classes, stretching the same
    # collection over more phases.
    print("with the per-phase clamp:")
    walkthrough("shadow", 4, clamp=True)

    # The default planner is greedy; the exhaustive one proves the minimum.
    print("exhaustive planner:")
    walkthrough("mycielski", 3, optimal=True)

"""Broadcast along cycles through a 12-participant relay network.

Starting from two informed participants, each round fires every chordless
cycle that touches an informed vertex; everyone on a fired cycle learns the
message.  Participants on no cycle at all are reached last, by plain relay
paths.  Run once with the chordless policy and once with all cycles enabled
to see the round count drop.
"""

from racnshare import enumerate_cycles, fixture_graph, simulate_dissemination

g = fixture_graph()
start = {g.index_of("5"), g.index_of("7")}


def show(policy: str) -> None:
    trace = simulate_dissemination(g, start, cycle_policy=policy)
    print(f"policy={policy}: informed at start "
          f"{sorted(g.names[v] for v in trace.informed_start)}")
    for i, rnd in enumerate(trace.rounds, start=1):
        routes = ", ".join(
            "(" + "-".join(g.names[v] for v in c) + ")" for c in rnd.circuits
        )
        newly = sorted((g.names[v] for v in rnd.newly_informed), key=int)
        print(f"  round {i} [{rnd.kind}]: {routes}")
        print(f"           newly informed: {newly}")
    print(f"  everyone informed after {trace.round_count} round(s)\n")


if __name__ == "__main__":
    cycles = enumerate_cycles(g, anchor=set(range(g.n)))
    print(f"network: {g.n} participants, {len(g.edges)} links, "
          f"{len(cycles)} simple cycles\n")

    show("chordless")
    show("all")

"""Rainbow connectivity and the exact color-count minimum.

The constructions guarantee rainbow connectivity at a known class count;
the exact solver then answers whether that count is actually minimal.
On several small instances it is not, and this demo prints both numbers
side by side along with a witness labeling for the smaller value.
"""

from racnshare import (
    build_graph,
    edge_weights,
    family_coloring,
    is_rainbow_connected,
    racn_exact,
    scheme_parameters,
)

if __name__ == "__main__":
    print("family       p   construction   exact   witness labels")
    print("-" * 72)
    for family, p in (
        ("shadow", 2), ("shadow", 3), ("shadow", 4),
        ("splitting", 2), ("splitting", 3), ("splitting", 4),
        ("mycielski", 2), ("mycielski", 3),
    ):
        g, lab, w = family_coloring(family, p)
        assert is_rainbow_connected(g, w).connected
        cert = racn_exact(build_graph(family, p))
        k = scheme_parameters(family, p).k
        mark = " " if cert.value == k else "<"
        labels = ",".join(str(x) for x in cert.witness.values)
        print(f"{family:<10} {p:>3}   {k:>12} "
              f"{cert.value:>7}{mark}  [{labels}]")
    print()
    print("'<' marks instances where the exact minimum undercuts the")
    print("construction's class count — the coloring is valid but not optimal.")

    # examine one such witness end to end
    g = build_graph("splitting", 4)
    cert = racn_exact(g)
    w = edge_weights(g, cert.witness)
    print(f"\nsplitting p=4 witness uses weights {sorted(w.classes)}")
    print("rainbow connected:", bool(is_rainbow_connected(g, w)))

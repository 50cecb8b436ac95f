"""racnshare: rainbow antimagic colorings and the sharing protocol on them.

Build a path-derived graph, apply its closed-form labeling, check that the
induced edge coloring is rainbow connected, deal one secret share per
weight class, and replay the reconstruction and dissemination phases::

    from racnshare import build_graph, family_labeling, distribute
    from racnshare import simulate_reconstruction

    g = build_graph("shadow", 4)
    inst = distribute(g, family_labeling("shadow", 4), b"attack at dawn")
    trace = simulate_reconstruction(inst)
    assert trace.recovered == b"attack at dawn"
"""

from .errors import BudgetExceededError, InvalidParameterError, RacnShareError
from .formulas import (
    SCHEME_FAMILIES,
    FormulaCheck,
    SchemeParameters,
    ValidationReport,
    ValidationRow,
    scheme_parameters,
    theorem_lower_bound,
    validate_family,
)
from .graphs import (
    FAMILIES,
    Graph,
    build_graph,
    custom_graph,
    degree_stats,
    diameter,
)
from .labelings import (
    Labeling,
    WeightedColoring,
    edge_weights,
    family_coloring,
    family_labeling,
    verify_bijection,
)
from .protocol import (
    DisseminationRound,
    DisseminationTrace,
    ReconstructionTrace,
    SchemeInstance,
    distribute,
    empirical_m,
    empirical_rp,
    enumerate_cycles,
    simulate_dissemination,
    simulate_reconstruction,
)
from .rainbow import (
    RacnCertificate,
    RainbowConnectivity,
    RainbowPath,
    automorphisms,
    exists_rainbow_path,
    is_rainbow_connected,
    max_new_color_path,
    racn_exact,
    racn_upper,
    vertex_orbits,
)
from .serialize import (
    certificate_to_dict,
    coloring_to_dict,
    dissemination_trace_to_dict,
    export_dot,
    fixture_graph,
    graph_from_dict,
    graph_to_dict,
    labeling_to_dict,
    load_graph,
    reconstruction_trace_to_dict,
    share_from_dict,
    share_to_dict,
    to_json,
)
from .sharing import (
    SecretConfig,
    Share,
    reconstruct,
    split,
)

__version__ = "0.1.0"

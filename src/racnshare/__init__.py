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

from .errors import (
    BudgetExceededError,
    DuplicateIndexError,
    InstanceTooLargeError,
    InsufficientSharesError,
    InvalidConfigError,
    InvalidLabelingError,
    InvalidParameterError,
    LengthMismatchError,
    NotConnectedError,
    RacnShareError,
    UnreachableParticipantsError,
)
from .formulas import (
    SCHEME_FAMILIES,
    SchemeParameters,
    ValidationReport,
    ValidationRow,
    k_closed_form,
    m_closed_form,
    rp_closed_form,
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
    mycielski_of_path,
    path_graph,
    shadow_of_path,
    splitting_of_path,
)
from .labelings import (
    Labeling,
    WeightedColoring,
    distinct_weight_count,
    edge_weights,
    family_coloring,
    family_labeling,
    mycielski_labeling,
    path_labeling,
    shadow_labeling,
    splitting_labeling,
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
    is_chordless,
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
    coloring_from_dict,
    coloring_to_dict,
    dissemination_trace_to_dict,
    export_dot,
    fixture_graph,
    graph_from_dict,
    graph_to_dict,
    labeling_from_dict,
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
    gf_add,
    gf_eval,
    gf_inv,
    gf_mul,
    reconstruct,
    split,
)

__version__ = "0.1.0"

"""polymerlab: simulation and verification lab for 1+1d directed polymers."""

from .env import (
    E1,
    E2,
    EHAT,
    FieldBatch,
    Site,
    WeightField,
    WeightSpec,
    Window,
    generate_field,
    shift_view,
)
from .partition import (
    PartitionTable,
    TiltedLineTable,
    beta_limit_check,
    comparison_check,
    enumerate_oracle,
    p2l_table,
    p2p_table,
)
from .cocycle import (
    BusemannField,
    ShapeEstimate,
    busemann_from_p2l,
    busemann_from_p2p,
    cesaro_busemann,
    check_monotonicity,
    cocycle_shape_check,
    direction_scan,
    dual_tilt,
    estimate_shape,
)
from .gibbs import (
    PolymerPath,
    TransitionField,
    backward_transitions,
    busemann_transitions,
    dlr_consistency_check,
    dlr_window_reports,
    exact_path_probability,
    forward_chain_sample,
    ldp_rate_profile,
    rooted_mass_decay,
    sample_p2p,
)
from .coupling import (
    CoupledStepRule,
    CouplingField,
    coalescence_experiment,
    constant_rule,
    coupled_walk,
    junction_statistics,
    ordering_check,
)
from .cif import (
    InterfaceResult,
    SpanningTree,
    build_tree,
    cif_cdf_check,
    cif_direction_stats,
    competition_interface,
)

__version__ = "0.1.0"

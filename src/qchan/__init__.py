"""Quantum channel toolbox.

States and channels with validated invariants, entropy and divergence
measures, single-letter capacity solvers with an independent geometric
cross-check, zero-error block-code analysis, and entanglement-repeater
rate arithmetic and scheduling simulation.
"""

from .capacity import (
    CapacityReport,
    OptimizerConfig,
    OptimizerStats,
    analytic_capacity,
    entanglement_assisted,
    full_report,
    hsw_geometric,
    hsw_numeric,
    min_output_entropy,
    private_information,
    quantum_capacity_single_use,
)
from .channels import (
    AffineMap,
    ChoiMatrix,
    CptpReport,
    DegradabilityReport,
    QuantumChannel,
    affine_representation,
    apply,
    channel_from_json,
    channel_to_json,
    choi,
    complementary,
    compose,
    from_kraus,
    is_cptp,
    is_degradable,
    is_entanglement_breaking,
    is_unital,
    make_channel,
    random_cptp_channel,
    tensor,
    tetrahedron_check,
)
from .entropy import (
    EntropyScalar,
    binary_entropy,
    coherent_information,
    conditional_entropy,
    environment_state,
    holevo_quantity,
    mutual_information,
    relative_entropy,
    relative_entropy_bloch,
    renyi_entropy,
    von_neumann,
)
from .errors import (
    QchanError,
    SolverError,
    TooLarge,
    Unsupported,
    ValidationError,
)
from .qmath import (
    BlochVector,
    DensityMatrix,
    Ensemble,
    MeasurementSet,
    PureState,
    bell_state,
    entanglement_fidelity,
    fidelity,
    from_bloch,
    measure,
    partial_trace,
    purify,
    purity,
    spectral_decompose,
    tensor_product,
    to_bloch,
)
from .repeater import (
    PairState,
    RateReport,
    RepeaterConfig,
    ScheduleTrace,
    TraceEvent,
    config_from_json,
    config_to_json,
    expected_rounds,
    generation_rate,
    link_success_probability,
    purify_pair,
    simulate_schedule,
    swap_level_stats,
    swap_pair,
    trace_events_jsonl,
    trace_to_json,
)
from .zero_error import (
    ConfusabilityGraph,
    ZeroErrorReport,
    confusability_graph,
    graph_from_json,
    graph_to_json,
    max_independent_set,
    non_adjacent,
    pauli_eigenstates,
    pentagon_graph,
    strong_product,
    zero_error_lower_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Quantum channel toolbox.

States and channels with validated invariants, entropy and divergence
measures, single-letter capacity solvers with an independent geometric
cross-check, zero-error block-code analysis, and entanglement-repeater
rate arithmetic and scheduling simulation.

Every export is imported on first use (PEP 562), so code that needs only
the repeater layer never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names it exports here
_EXPORTS = {
    "capacity": "CapacityReport OptimizerConfig OptimizerStats analytic_capacity "
    "entanglement_assisted full_report hsw_geometric hsw_numeric min_output_entropy "
    "private_information quantum_capacity_single_use",
    "channels": "AffineMap ChoiMatrix CptpReport DegradabilityReport QuantumChannel "
    "affine_representation apply channel_from_json channel_to_json choi complementary compose "
    "from_kraus is_cptp is_degradable is_entanglement_breaking is_unital make_channel "
    "random_cptp_channel tensor tetrahedron_check",
    "entropy": "EntropyScalar binary_entropy coherent_information conditional_entropy "
    "environment_state holevo_quantity mutual_information relative_entropy "
    "relative_entropy_bloch renyi_entropy von_neumann",
    "errors": "QchanError SolverError TooLarge Unsupported ValidationError",
    "qmath": "BlochVector DensityMatrix Ensemble MeasurementSet PureState bell_state "
    "entanglement_fidelity fidelity from_bloch measure partial_trace purify purity "
    "spectral_decompose tensor_product to_bloch",
    "repeater": "PairState RateReport RepeaterConfig ScheduleTrace TraceEvent config_from_json "
    "config_to_json expected_rounds generation_rate link_success_probability purify_pair "
    "simulate_schedule swap_level_stats swap_pair trace_events_jsonl trace_to_json",
    "zero_error": "ConfusabilityGraph ZeroErrorReport confusability_graph graph_from_json "
    "graph_to_json max_independent_set non_adjacent pauli_eigenstates pentagon_graph "
    "strong_product zero_error_lower_bound",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups are plain attribute hits
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""The package's export table: every public name resolves, on first use, to its module's object."""

import importlib
import importlib.util
import types

import pytest

import qchan

# qchan's public names: 91 exports and the 7 submodules they come from
PUBLIC_NAMES = """
AffineMap BlochVector CapacityReport ChoiMatrix ConfusabilityGraph CptpReport DegradabilityReport
DensityMatrix Ensemble EntropyScalar MeasurementSet OptimizerConfig OptimizerStats PairState
PureState QchanError QuantumChannel RateReport RepeaterConfig ScheduleTrace SolverError TooLarge
TraceEvent Unsupported ValidationError ZeroErrorReport affine_representation analytic_capacity
apply bell_state binary_entropy capacity channel_from_json channel_to_json channels choi
coherent_information complementary compose conditional_entropy config_from_json config_to_json
confusability_graph entanglement_assisted entanglement_fidelity entropy environment_state errors
expected_rounds fidelity from_bloch from_kraus full_report generation_rate graph_from_json
graph_to_json holevo_quantity hsw_geometric hsw_numeric is_cptp is_degradable
is_entanglement_breaking is_unital link_success_probability make_channel max_independent_set
measure min_output_entropy mutual_information non_adjacent partial_trace pauli_eigenstates
pentagon_graph private_information purify purify_pair purity qmath quantum_capacity_single_use
random_cptp_channel relative_entropy relative_entropy_bloch renyi_entropy repeater
simulate_schedule spectral_decompose strong_product swap_level_stats swap_pair tensor
tensor_product tetrahedron_check to_bloch trace_events_jsonl trace_to_json von_neumann zero_error
zero_error_lower_bound
""".split()


def test_all_holds_the_public_names():
    assert len(PUBLIC_NAMES) == 98
    assert set(qchan.__all__) == set(PUBLIC_NAMES)


def test_each_name_is_its_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(qchan, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"qchan.{name}")
        else:
            module = importlib.import_module(value.__module__)
            assert module.__name__.startswith("qchan."), name
            assert value is getattr(module, name)
        assert vars(qchan)[name] is value  # stored, so the next lookup is a plain attribute hit


def test_dir_lists_every_public_name_before_any_is_used():
    spec = importlib.util.find_spec("qchan")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)  # a second package module, none of its names resolved yet
    assert set(PUBLIC_NAMES) <= set(dir(fresh))
    assert set(PUBLIC_NAMES) <= set(dir(qchan))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qchan.no_such_name
    assert not hasattr(qchan, "cli_main")

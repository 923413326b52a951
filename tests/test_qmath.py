import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import (
    BlochVector,
    DensityMatrix,
    Ensemble,
    MeasurementSet,
    PureState,
    bell_state,
    entanglement_fidelity,
    fidelity,
    from_bloch,
    make_channel,
    measure,
    partial_trace,
    purify,
    random_cptp_channel,
    purity,
    spectral_decompose,
    tensor_product,
    to_bloch,
)
from qchan.qmath import completeness_residual
from qchan.errors import (
    DimensionMismatch,
    IncompleteMeasurement,
    InvalidBlochVector,
    InvalidChannel,
    InvalidState,
    NotHermitian,
)

from conftest import random_bloch, random_density


unit_ball = st.builds(
    lambda u, r: [r * x / max(np.linalg.norm(u), 1e-9) for x in u],
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda u: np.linalg.norm(u) > 1e-6),
    st.floats(0, 1, allow_nan=False),
)


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert rho.dim == 2
        assert np.isclose(np.trace(rho.matrix).real, 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityMatrix([[0.5, 0.5], [-0.5, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidState):
            DensityMatrix([[0.9, 0.0], [0.0, 0.0]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidState):
            DensityMatrix([[1.2, 0.0], [0.0, -0.2]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("repair", [False, True])
    def test_rejects_non_finite_entry(self, bad, repair):
        with pytest.raises(InvalidState):
            DensityMatrix([[bad, 0.0], [0.0, 1.0]], repair=repair)

    def test_repair_renormalizes(self):
        rho = DensityMatrix([[0.6, 0.0], [0.0, 0.6]], repair=True)
        assert np.isclose(np.trace(rho.matrix).real, 1.0)

    def test_matrix_is_readonly(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_json_round_trip(self):
        rho = from_bloch([0.3, -0.4, 0.5])
        back = DensityMatrix.from_json(rho.to_json())
        assert np.allclose(back.matrix, rho.matrix)


@pytest.mark.parametrize("cls,data", [
    (DensityMatrix, {"dim": 1, "im": [[0.0]]}),
    (DensityMatrix, {"dim": 1, "re": [[1.0]]}),
    (DensityMatrix, {"dim": 1, "re": [[1.0]], "im": "x"}),
    (PureState, {"dim": 1, "im": [0.0]}),
    (PureState, {"dim": 1, "re": [1.0]}),
    (PureState, {"dim": 1, "re": [1.0], "im": "x"}),
])
def test_malformed_state_json_rejected(cls, data):
    with pytest.raises(InvalidState):
        cls.from_json(data)


class TestBloch:
    def test_rejects_norm_above_one(self):
        with pytest.raises(InvalidBlochVector):
            BlochVector([0.8, 0.8, 0.8])

    def test_rejects_nan_component(self):
        with pytest.raises(InvalidBlochVector):
            BlochVector([np.nan, 0.0, 0.0])

    def test_pure_state_on_surface(self):
        rho = from_bloch([0.0, 0.0, 1.0])
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_center_is_maximally_mixed(self):
        assert np.allclose(from_bloch([0, 0, 0]).matrix, np.eye(2) / 2)

    def test_to_bloch_requires_qubit(self):
        with pytest.raises(DimensionMismatch):
            to_bloch(DensityMatrix(np.eye(3) / 3))

    @settings(max_examples=60, deadline=None)
    @given(unit_ball)
    def test_round_trip(self, r):
        back = to_bloch(from_bloch(r))
        assert np.allclose(np.asarray(back.r), r, atol=1e-9)


class TestSpectral:
    def test_eigenvalues_descending_and_reconstruct(self, rng):
        rho = random_density(rng, 4)
        pairs = spectral_decompose(rho)
        vals = [v for v, _ in pairs]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
        rebuilt = sum(v * np.outer(u, u.conj()) for v, u in pairs)
        assert np.allclose(rebuilt, rho.matrix, atol=1e-10)

    def test_deterministic_across_calls(self, rng):
        rho = random_density(rng, 3)
        a = spectral_decompose(rho)
        b = spectral_decompose(rho)
        for (va, ua), (vb, ub) in zip(a, b):
            assert va == vb
            assert np.array_equal(ua, ub)


class TestPurity:
    def test_pure_state_has_purity_one(self):
        assert np.isclose(purity(from_bloch([0, 0, 1])), 1.0)

    def test_maximally_mixed_floor(self):
        assert np.isclose(purity(DensityMatrix(np.eye(4) / 4)), 0.25)

    @settings(max_examples=40, deadline=None)
    @given(unit_ball)
    def test_purity_in_range(self, r):
        p = purity(from_bloch(r))
        assert 0.5 - 1e-9 <= p <= 1.0 + 1e-9


class TestTensorAndTrace:
    def test_tensor_dims_multiply(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        assert tensor_product(a, b).dim == 6

    def test_pure_tensor_stays_pure(self):
        psi = tensor_product(PureState([1, 0]), PureState([0, 1]))
        assert isinstance(psi, PureState)

    def test_partial_trace_recovers_factors(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        ab = tensor_product(a, b)
        assert np.allclose(partial_trace(ab, (2, 3), keep=0).matrix, a.matrix, atol=1e-10)
        assert np.allclose(partial_trace(ab, (2, 3), keep=1).matrix, b.matrix, atol=1e-10)

    def test_bell_reduction_is_maximally_mixed(self):
        for i in range(2):
            for j in range(2):
                rho = bell_state(i, j).to_density()
                red = partial_trace(rho, (2, 2), keep=0)
                assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


class TestPurify:
    def test_reference_trace_recovers_state(self, rng):
        rho = random_density(rng, 3)
        psi = purify(rho)
        full = psi.to_density()
        back = partial_trace(full, (3, 3), keep=1)
        assert np.allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_pure_input_needs_no_reference_entropy(self):
        rho = from_bloch([0, 0, 1])
        psi = purify(rho)
        red = partial_trace(psi.to_density(), (2, 2), keep=0)
        assert np.isclose(purity(red), 1.0, atol=1e-10)


class TestFidelity:
    def test_equal_states_give_one(self, rng):
        rho = random_density(rng, 3)
        assert np.isclose(fidelity(rho, rho), 1.0, atol=1e-9)

    def test_orthogonal_pure_states_give_zero(self):
        up = from_bloch([0, 0, 1])
        down = from_bloch([0, 0, -1])
        assert np.isclose(fidelity(up, down), 0.0, atol=1e-12)

    def test_pure_overlap_formula(self):
        plus = from_bloch([1, 0, 0])
        up = from_bloch([0, 0, 1])
        assert np.isclose(fidelity(plus, up), 0.5, atol=1e-10)

    def test_symmetric(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert np.isclose(fidelity(a, b), fidelity(b, a), atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(unit_ball, unit_ball)
    def test_bounded(self, r1, r2):
        f = fidelity(from_bloch(r1), from_bloch(r2))
        assert -1e-12 <= f <= 1.0 + 1e-12


class TestEntanglementFidelity:
    def test_identity_channel_preserves_everything(self, rng):
        rho = random_density(rng, 2)
        f = entanglement_fidelity(rho, make_channel("identity"))
        assert np.isclose(f, 1.0, atol=1e-10)

    def test_full_depolarizing_on_mixed_input(self):
        # sum_k |Tr K_k|^2 / d^2 with only the identity component traceful
        rho = DensityMatrix(np.eye(2) / 2)
        f = entanglement_fidelity(rho, make_channel("depolarizing", p=1.0))
        assert np.isclose(f, 0.25, atol=1e-10)

    def test_half_bit_flip_on_mixed_input(self):
        rho = DensityMatrix(np.eye(2) / 2)
        f = entanglement_fidelity(rho, make_channel("bit_flip", p=0.5))
        assert np.isclose(f, 0.5, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises((DimensionMismatch, InvalidChannel)):
            entanglement_fidelity(rho, make_channel("erasure", p=0.5))

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (4, 2)])
    def test_matches_the_purification_form(self, rng, d, k):
        # <psi| (I (x) N)(|psi><psi|) |psi> on a purification psi of rho
        for _ in range(3):
            ch = random_cptp_channel(d, d, k, rng)
            rho = random_density(rng, d)
            psi = purify(rho).amplitudes
            direct = sum(abs(np.vdot(psi, np.kron(np.eye(d), op) @ psi)) ** 2 for op in ch.kraus)
            assert abs(entanglement_fidelity(rho, ch) - direct) <= 1e-12


class TestMeasure:
    def test_probabilities_sum_to_one(self, rng):
        rho = random_density(rng, 2)
        ops = MeasurementSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        results = measure(rho, ops)
        assert np.isclose(sum(p for p, _ in results), 1.0, atol=1e-10)

    def test_zero_probability_branch_has_no_state(self):
        rho = from_bloch([0, 0, 1.0])
        ops = MeasurementSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        results = measure(rho, ops)
        assert results[1][1] is None

    def test_incomplete_set_rejected(self):
        with pytest.raises(IncompleteMeasurement):
            MeasurementSet([np.diag([1.0, 0.0])])

    def test_nan_entry_rejected(self):
        with pytest.raises(IncompleteMeasurement):
            MeasurementSet([np.diag([1.0, np.nan]), np.diag([0.0, 1.0])])


class TestBellStates:
    def test_standard_pair_amplitudes(self):
        psi = bell_state(0, 0)
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_four_states_orthonormal(self):
        states = [bell_state(i, j).amplitudes for i in range(2) for j in range(2)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(4), atol=1e-12)


class TestEnsemble:
    def test_average_mixes_states(self):
        ens = Ensemble([0.5, 0.5], [from_bloch([0, 0, 1]), from_bloch([0, 0, -1])])
        assert np.allclose(ens.average().matrix, np.eye(2) / 2, atol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidState):
            Ensemble([0.7, 0.7], [from_bloch([0, 0, 1]), from_bloch([0, 0, -1])])

    @pytest.mark.parametrize("weights", [
        [np.nan, 0.5], [0.5, np.nan], [np.inf, 0.0], [np.inf, -np.inf],
    ])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(InvalidState):
            Ensemble(weights, [from_bloch([0, 0, 1]), from_bloch([0, 0, -1])])


class TestPureState:
    @pytest.mark.parametrize("amplitudes", [[np.nan, 1.0], [np.inf, 0.0], [1.0, 1.0]])
    def test_rejects_non_finite_or_unnormalized(self, amplitudes):
        with pytest.raises(InvalidState):
            PureState(amplitudes)


class TestCompletenessResidual:
    def test_complete_set_has_no_residual(self):
        kraus = make_channel("amplitude_damping", gamma=0.3).kraus
        assert completeness_residual(kraus) <= 1e-15

    def test_residual_is_largest_entry_gap(self):
        ops = [np.diag([1.0, 0.5]), np.array([[0.0, 0.1], [0.0, 0.0]])]
        # sum K^dag K = diag(1, 0.26)
        assert np.isclose(completeness_residual(ops), 0.74, atol=1e-15)

    def test_incomplete_set_rejected_by_measurements_and_fidelity(self):
        short = [np.diag([1.0, 0.5])]
        with pytest.raises(IncompleteMeasurement, match="resolve the identity"):
            MeasurementSet(short)

        class Loose:
            kraus = short
            dim_in = dim_out = 2

        with pytest.raises(InvalidChannel, match="not trace preserving"):
            entanglement_fidelity(np.eye(2) / 2, Loose())

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import (
    DensityMatrix,
    Ensemble,
    EntropyScalar,
    bell_state,
    binary_entropy,
    coherent_information,
    conditional_entropy,
    environment_state,
    from_bloch,
    holevo_quantity,
    make_channel,
    mutual_information,
    relative_entropy,
    relative_entropy_bloch,
    renyi_entropy,
    tensor_product,
    von_neumann,
)
from qchan.entropy import _entropy_and_log2
from qchan.errors import (
    InfiniteDivergence,
    InvalidBlochVector,
    InvalidOrder,
    InvalidProbability,
    InvalidState,
)

from conftest import random_bloch, random_density

probs = st.floats(0.0, 1.0, allow_nan=False)


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_peak_at_half(self):
        assert np.isclose(binary_entropy(0.5), 1.0)

    def test_known_value(self):
        assert np.isclose(binary_entropy(0.25), 0.8112781244591328, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidProbability):
            binary_entropy(1.5)

    @settings(max_examples=60, deadline=None)
    @given(probs)
    def test_symmetric_and_bounded(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0 + 1e-12
        assert np.isclose(h, binary_entropy(1.0 - p), atol=1e-12)


class TestVonNeumann:
    def test_pure_state_is_zero(self):
        assert np.isclose(von_neumann(from_bloch([0, 0, 1])), 0.0, atol=1e-12)

    def test_maximally_mixed_hits_log_dim(self):
        assert np.isclose(von_neumann(DensityMatrix(np.eye(4) / 4)), 2.0, atol=1e-12)

    def test_tagged_kind(self):
        s = von_neumann(DensityMatrix(np.eye(2) / 2))
        assert isinstance(s, EntropyScalar)
        assert s.kind == "von_neumann"

    def test_concavity_on_random_pair(self, rng):
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        mix = DensityMatrix(0.3 * a.matrix + 0.7 * b.matrix, repair=True)
        assert von_neumann(mix) >= 0.3 * von_neumann(a) + 0.7 * von_neumann(b) - 1e-10

    def test_additive_on_product(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        joint = von_neumann(tensor_product(a, b))
        assert np.isclose(joint, von_neumann(a) + von_neumann(b), atol=1e-10)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(InvalidState):
            von_neumann([[math.nan, 0.0], [0.0, 1.0]])


class TestRelativeEntropy:
    def test_zero_between_equal_states(self, rng):
        rho = random_density(rng, 3)
        assert np.isclose(relative_entropy(rho, rho), 0.0, atol=1e-9)

    def test_nonnegative(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert relative_entropy(a, b) >= 0.0

    def test_support_mismatch_is_tagged_infinity(self):
        up = from_bloch([0, 0, 1])
        down = from_bloch([0, 0, -1])
        d = relative_entropy(up, down)
        assert d.is_infinite
        assert d.kind == "relative"

    def test_known_value_against_classical_divergence(self):
        # commuting diagonal states reduce to the classical KL divergence
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        sigma = DensityMatrix(np.diag([0.5, 0.5]))
        expected = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
        assert np.isclose(relative_entropy(rho, sigma), expected, atol=1e-12)


class TestRelativeEntropyBloch:
    def test_matches_matrix_form_on_random_pairs(self, rng):
        for _ in range(50):
            ra = random_bloch(rng)
            rb = random_bloch(rng, max_radius=0.99)
            direct = relative_entropy(from_bloch(ra), from_bloch(rb))
            closed = relative_entropy_bloch(ra, rb)
            assert np.isclose(closed, direct, atol=1e-9)

    def test_pure_sigma_with_other_rho_diverges(self):
        with pytest.raises(InfiniteDivergence):
            relative_entropy_bloch([0.2, 0, 0], [0, 0, 1.0])

    def test_pure_sigma_equal_to_rho_is_zero(self):
        assert relative_entropy_bloch([0, 0, 1.0], [0, 0, 1.0]) == 0.0

    def test_non_finite_vector_rejected(self):
        with pytest.raises(InvalidBlochVector):
            relative_entropy_bloch([math.nan, 0, 0], [0, 0, 0.5])
        with pytest.raises(InvalidBlochVector):
            relative_entropy_bloch([0, 0, 0.5], [0, math.inf, 0])


class TestHolevo:
    def test_orthogonal_pure_pair_gives_one_bit(self):
        ens = Ensemble([0.5, 0.5], [from_bloch([0, 0, 1]), from_bloch([0, 0, -1])])
        assert np.isclose(holevo_quantity(ens), 1.0, atol=1e-12)

    def test_identical_members_give_zero(self, rng):
        rho = random_density(rng, 2)
        ens = Ensemble([0.4, 0.6], [rho, rho])
        assert np.isclose(holevo_quantity(ens), 0.0, atol=1e-10)

    def test_bounded_by_mixture_entropy(self, rng):
        states = [random_density(rng, 2) for _ in range(3)]
        ens = Ensemble([0.2, 0.3, 0.5], states)
        assert holevo_quantity(ens) <= von_neumann(ens.average()) + 1e-12


class TestBipartiteMeasures:
    def test_epr_conditional_entropy_is_minus_one(self):
        rho = bell_state(0, 0).to_density()
        assert np.isclose(conditional_entropy(rho, (2, 2)), -1.0, atol=1e-12)

    def test_epr_mutual_information_is_two(self):
        rho = bell_state(0, 0).to_density()
        assert np.isclose(mutual_information(rho, (2, 2)), 2.0, atol=1e-12)

    def test_product_state_has_no_correlations(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        ab = tensor_product(a, b)
        assert np.isclose(mutual_information(ab, (2, 2)), 0.0, atol=1e-9)
        assert np.isclose(
            conditional_entropy(ab, (2, 2)), von_neumann(a), atol=1e-9
        )


class TestRenyi:
    def test_rejects_negative_order(self):
        with pytest.raises(InvalidOrder):
            renyi_entropy(DensityMatrix(np.eye(2) / 2), -0.5)

    def test_rejects_nan_order(self):
        with pytest.raises(InvalidOrder):
            renyi_entropy(DensityMatrix(np.eye(2) / 2), math.nan)

    def test_order_zero_counts_rank(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert np.isclose(renyi_entropy(rho, 0.0), 1.0, atol=1e-12)

    def test_order_one_matches_von_neumann(self, rng):
        rho = random_density(rng, 3)
        assert np.isclose(renyi_entropy(rho, 1.0), von_neumann(rho), atol=1e-12)

    def test_infinite_order_uses_largest_eigenvalue(self):
        rho = DensityMatrix(np.diag([0.8, 0.2]))
        assert np.isclose(renyi_entropy(rho, math.inf), -math.log2(0.8), atol=1e-12)

    def test_nonincreasing_in_order(self, rng):
        rho = random_density(rng, 3)
        orders = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]
        vals = [renyi_entropy(rho, r) for r in orders]
        assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))

    def test_flat_spectrum_is_order_independent(self):
        rho = DensityMatrix(np.eye(4) / 4)
        for r in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert np.isclose(renyi_entropy(rho, r), 2.0, atol=1e-12)


class TestCoherentInformation:
    def test_identity_channel_returns_input_entropy(self, rng):
        rho = random_density(rng, 2)
        icoh, s_e = coherent_information(rho, make_channel("identity"))
        assert np.isclose(icoh, von_neumann(rho), atol=1e-10)
        assert np.isclose(s_e, 0.0, atol=1e-10)

    def test_full_depolarizing_loses_everything(self):
        rho = DensityMatrix(np.eye(2) / 2)
        icoh, _ = coherent_information(rho, make_channel("depolarizing", p=1.0))
        assert icoh < 0.0

    def test_environment_state_is_a_density_matrix(self, rng):
        rho = random_density(rng, 2)
        env = environment_state(rho, make_channel("amplitude_damping", gamma=0.3))
        assert np.isclose(np.trace(env).real, 1.0, atol=1e-10)
        assert np.allclose(env, env.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(env)[0] >= -1e-10

    def test_environment_state_rejects_non_finite_input(self):
        with pytest.raises(InvalidState):
            environment_state([[math.nan, 0.0], [0.0, 1.0]], make_channel("dephasing", p=0.3))

    def test_entropy_exchange_matches_environment_entropy(self, rng):
        rho = random_density(rng, 2)
        ch = make_channel("phase_flip", p=0.3)
        _, s_e = coherent_information(rho, ch)
        assert np.isclose(s_e, von_neumann(environment_state(rho, ch)), atol=1e-12)


class TestEntropyAndLog2:
    def test_stack_matches_von_neumann_and_spectral_log(self, rng):
        mats = np.stack([random_density(rng, 3).matrix for _ in range(4)])
        ent, logm = _entropy_and_log2(mats)
        for m, s, lg in zip(mats, ent, logm):
            assert np.isclose(s, von_neumann(m), atol=1e-13)
            w, v = np.linalg.eigh(m)
            assert np.allclose(lg, (v * np.log2(w)) @ v.conj().T, atol=1e-10)

    def test_null_space_is_floored_inside_log_only(self):
        ent, logm = _entropy_and_log2(np.diag([1.0, 0.0]))
        assert ent == 0.0
        assert logm[0, 0] == 0.0
        assert np.isclose(logm[1, 1], math.log2(1e-300))


@pytest.mark.parametrize("value", [
    binary_entropy(0.0),
    binary_entropy(1.0),
    von_neumann(np.diag([1.0, 0.0])),
    von_neumann(np.diag([0.0, 0.0, 1.0])),
    renyi_entropy(np.diag([0.0, 1.0]), 1.0),
    # an eigenvalue rounded above 1 would give a negative entropy
    von_neumann(np.diag([1.0 + 4 * np.finfo(float).eps, 0.0])),
    *(renyi_entropy(np.diag([1.0 + 4 * np.finfo(float).eps, 0.0]), r) for r in (0.5, 1.0, 2.0, math.inf)),
    _entropy_and_log2(np.diag([1.0 + 4 * np.finfo(float).eps, 0.0])[None])[0][0],
])
def test_vanishing_entropy_is_positive_zero(value):
    """-sum of all-zero terms is -0.0 in floating point; the entropies return +0.0."""
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0

import numpy as np
import pytest

from qchan import (
    DensityMatrix,
    QuantumChannel,
    affine_representation,
    apply,
    binary_entropy,
    channel_from_json,
    channel_to_json,
    choi,
    complementary,
    compose,
    environment_state,
    from_bloch,
    from_kraus,
    is_cptp,
    is_degradable,
    is_entanglement_breaking,
    is_unital,
    make_channel,
    min_output_entropy,
    random_cptp_channel,
    tensor,
    tensor_product,
    tetrahedron_check,
    to_bloch,
)
from qchan.capacity import _NEG_OUTPUT, _state_gradient, _state_neg_value
from qchan.channels import (
    CHANNEL_KINDS,
    MAX_DIM,
    AffineMap,
    _max_output_radius,
    _superoperator,
)
from qchan.errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidParameter,
    Unsupported,
)

from conftest import one_point, random_density, random_qubit

ZOO = [
    ("identity", {}),
    ("bit_flip", {"p": 0.3}),
    ("phase_flip", {"p": 0.3}),
    ("bit_phase_flip", {"p": 0.3}),
    ("dephasing", {"p": 0.3}),
    ("depolarizing", {"p": 0.3}),
    ("amplitude_damping", {"gamma": 0.3}),
    ("erasure", {"p": 0.3}),
    ("phase_erasure", {"q": 0.3}),
    ("mixed_erasure", {"p": 0.2, "q": 0.3}),
    ("measure_prepare", {}),
]


def _radius_panel():
    """Qubit family channels, then 40 random 2->2 channels with 3 Kraus operators.

    Every fourth random channel mixes three random unitaries, so it is unital
    and its radius is the hard case of the secular equation.
    """
    channels = [make_channel("identity"), make_channel("measure_prepare")]
    for kind in ("bit_flip", "phase_flip", "bit_phase_flip", "dephasing", "depolarizing"):
        channels += [make_channel(kind, p=p) for p in (0.0, 0.2, 0.5, 1.0)]
    channels += [make_channel("amplitude_damping", gamma=g) for g in (0.0, 0.3, 0.4, 0.8, 1.0)]
    rng = np.random.default_rng(11)
    for j in range(40):
        if j % 4 == 3:
            gauss = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
            weights = rng.dirichlet(np.ones(3))
            channels.append(
                from_kraus([np.sqrt(w) * np.linalg.qr(g)[0] for w, g in zip(weights, gauss)])
            )
        else:
            channels.append(random_cptp_channel(2, 2, 3, rng))
    return channels


def _round_trip_panel():
    """Every 2->2 kind of CHANNEL_KINDS, then 10 random 2->2 channels of 1 to 4 Kraus operators."""
    defaults = {"p": 0.3, "q": 0.3}
    channels = [
        make_channel(kind, **{n: defaults[n] for n in row.params if n != "d"})
        for kind, row in CHANNEL_KINDS.items()
    ]
    rng = np.random.default_rng(3)
    randoms = [random_cptp_channel(2, 2, int(rng.integers(1, 5)), rng) for _ in range(10)]
    return [c for c in channels if (c.dim_in, c.dim_out) == (2, 2)] + randoms


ROUND_TRIP = _round_trip_panel()


class TestConstructors:
    @pytest.mark.parametrize("kind,params", ZOO)
    def test_zoo_members_are_cptp(self, kind, params):
        report = is_cptp(make_channel(kind, **params))
        assert report.trace_preserving
        assert report.completely_positive
        assert bool(report)

    def test_rejects_probability_above_one(self):
        with pytest.raises(InvalidParameter):
            make_channel("depolarizing", p=1.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(Unsupported):
            make_channel("teleporter")

    def test_rejects_unexpected_parameter(self):
        with pytest.raises(InvalidParameter):
            make_channel("identity", p=0.5)

    def test_amplitude_damping_takes_one_parametrization(self):
        with pytest.raises(InvalidParameter):
            make_channel("amplitude_damping", p=0.3, gamma=0.7)

    def test_amplitude_damping_gamma_is_complement_of_p(self):
        a = make_channel("amplitude_damping", gamma=0.3)
        b = make_channel("amplitude_damping", p=0.7)
        assert all(np.allclose(x, y) for x, y in zip(a.kraus, b.kraus))

    def test_mixed_erasure_rejects_excess_total(self):
        with pytest.raises(InvalidParameter):
            make_channel("mixed_erasure", p=0.6, q=0.6)

    def test_erasure_enlarges_output(self):
        ch = make_channel("erasure", p=0.5, d=3)
        assert (ch.dim_in, ch.dim_out) == (3, 4)

    def test_qubit_only_kinds_keep_d_out_of_the_label(self):
        ch = make_channel("phase_erasure", q=0.3)
        assert ch.label == "phase_erasure(q=0.3)"
        assert ch.params == {"q": 0.3, "d": 2}
        with pytest.raises(Unsupported):
            make_channel("mixed_erasure", p=0.2, q=0.3, d=3)

    def test_damping_keeps_p_when_given_gamma(self):
        ch = make_channel("amplitude_damping", gamma=0.3)
        assert ch.label == "amplitude_damping(p=0.7)"
        assert ch.params == {"p": 0.7}

    def test_integral_dimension_may_be_a_float(self):
        ch = make_channel("identity", d=3.0)
        assert ch.params == {"d": 3}
        assert ch.label == "identity(d=3)"

    def test_from_kraus_infers_dimensions(self):
        ch = from_kraus([np.eye(3)])
        assert (ch.dim_in, ch.dim_out) == (3, 3)

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(InvalidChannel):
            from_kraus([0.5 * np.eye(2)])

    def test_incomplete_kraus_residual_reported_and_refused(self):
        short = [np.diag([1.0, 0.5])]
        with pytest.raises(InvalidChannel, match="do not sum to the identity"):
            QuantumChannel(short, 2, 2)
        loose = QuantumChannel(short, 2, 2, trace_preserving=False)
        report = is_cptp(loose)
        assert not report.trace_preserving
        assert np.isclose(report.completeness_residual, 0.75, atol=1e-15)
        with pytest.raises(InvalidChannel, match="Kraus completeness fails"):
            environment_state(np.eye(2) / 2, loose)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_rejected(self, bad):
        with pytest.raises(InvalidChannel):
            from_kraus([[[bad, 0.0], [0.0, 1.0]]])


# Malformed parameters every entry point must refuse with InvalidParameter
MALFORMED = [
    ("depolarizing", {}),
    ("erasure", {"d": 3}),
    ("mixed_erasure", {"p": 0.2}),
    ("depolarizing", {"p": "abc"}),
    ("depolarizing", {"p": "0.2"}),
    ("depolarizing", {"p": None}),
    ("depolarizing", {"p": True}),
    ("depolarizing", {"p": float("nan")}),
    ("depolarizing", {"p": float("inf")}),
    ("amplitude_damping", {"gamma": float("-inf")}),
    ("phase_erasure", {"q": [0.3]}),
    ("identity", {"d": 2.7}),
    ("identity", {"d": 0}),
    ("erasure", {"p": 0.2, "d": 10**9}),
    ("erasure", {"p": 0.2, "d": 10**400}),
    ("identity", {"d": MAX_DIM + 1}),
    ("identity", {"d": float("nan")}),
    ("erasure", {"p": 0.2, "d": None}),
]


class TestKindTable:
    @pytest.mark.parametrize("kind,params", MALFORMED)
    def test_make_channel_refuses(self, kind, params):
        with pytest.raises(InvalidParameter):
            make_channel(kind, **params)

    @pytest.mark.parametrize("kind,params", MALFORMED)
    def test_channel_json_refuses(self, kind, params):
        with pytest.raises(InvalidParameter):
            channel_from_json({"kind": kind, **params})

    @pytest.mark.parametrize("data", [{"kind": "teleporter"}, {"kind": ["identity"]}])
    def test_channel_json_refuses_unknown_kind(self, data):
        with pytest.raises(Unsupported):
            channel_from_json(data)

    @pytest.mark.parametrize("data", ["kind", 5, None, ["kind"]])
    def test_channel_json_refuses_a_non_object(self, data):
        with pytest.raises(InvalidChannel):
            channel_from_json(data)

    def test_largest_dimension_is_built(self):
        assert make_channel("identity", d=MAX_DIM).dim_in == MAX_DIM

    def test_sweep_parameters(self):
        sweeps = {kind: row.sweep for kind, row in CHANNEL_KINDS.items()}
        assert sweeps["amplitude_damping"] == "gamma"
        assert sweeps["phase_erasure"] == "q"
        assert sweeps["mixed_erasure"] == "p"
        assert sweeps["depolarizing"] == "p"
        assert [k for k, name in sweeps.items() if name is None] == [
            "identity", "measure_prepare", "pancake"
        ]

    def test_every_row_builds_at_its_defaults(self):
        defaults = {"p": 0.2, "q": 0.3}
        for kind, row in CHANNEL_KINDS.items():
            params = {n: defaults[n] for n in row.params if n != "d"}
            ch = make_channel(kind, **params)
            assert ch.kind == kind
            assert set(ch.params) == set(row.params) | ({"d"} if row.qubit_only else set())


class TestApply:
    def test_full_depolarizing_outputs_maximally_mixed(self, rng):
        rho = random_density(rng, 2)
        out = apply(make_channel("depolarizing", p=1.0), rho)
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_erasure_moves_weight_to_flag(self, rng):
        rho = random_density(rng, 2)
        out = apply(make_channel("erasure", p=0.3), rho)
        assert np.isclose(out.matrix[2, 2].real, 0.3, atol=1e-12)
        assert np.allclose(out.matrix[:2, :2], 0.7 * rho.matrix, atol=1e-12)

    def test_measure_prepare_kills_coherences(self):
        out = apply(make_channel("measure_prepare"), from_bloch([1, 0, 0]))
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_channel_is_callable(self, rng):
        rho = random_density(rng, 2)
        ch = make_channel("bit_flip", p=0.2)
        assert np.allclose(ch(rho).matrix, apply(ch, rho).matrix)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            apply(make_channel("identity", d=3), DensityMatrix(np.eye(2) / 2))


class TestChoi:
    @pytest.mark.parametrize("kind,params", ZOO)
    def test_unit_trace(self, kind, params):
        c = choi(make_channel(kind, **params))
        assert np.isclose(np.trace(c.matrix).real, 1.0, atol=1e-10)

    def test_identity_choi_is_maximally_entangled(self):
        c = choi(make_channel("identity"))
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(c.matrix, np.outer(v, v.conj()), atol=1e-12)

    def test_pancake_spectrum_shows_negative_weight(self):
        c = choi(make_channel("pancake"))
        w = np.linalg.eigvalsh(c.matrix)
        assert np.allclose(w, [-0.25, 0.25, 0.25, 0.75], atol=1e-10)

    def test_pancake_is_trace_preserving_but_not_cp(self):
        report = is_cptp(make_channel("pancake"))
        assert report.trace_preserving
        assert not report.completely_positive
        assert not bool(report)


class TestUnital:
    def test_pauli_channels_are_unital(self):
        for kind in ("bit_flip", "phase_flip", "depolarizing"):
            assert is_unital(make_channel(kind, p=0.3))

    def test_amplitude_damping_is_not_unital(self):
        assert not is_unital(make_channel("amplitude_damping", gamma=0.3))

    def test_measure_prepare_is_unital(self):
        assert is_unital(make_channel("measure_prepare"))


class TestAffine:
    def test_depolarizing_shrinks_uniformly(self):
        aff = affine_representation(make_channel("depolarizing", p=0.4))
        assert np.allclose(aff.A, 0.6 * np.eye(3), atol=1e-10)
        assert np.allclose(aff.b, 0.0, atol=1e-10)

    def test_amplitude_damping_shifts_toward_pole(self):
        aff = affine_representation(make_channel("amplitude_damping", p=0.36))
        assert np.allclose(aff.distortion, [0.6, 0.6, 0.36], atol=1e-10)
        assert np.allclose(aff.b, [0.0, 0.0, -0.64], atol=1e-10)

    def test_pancake_returns_stored_map(self):
        aff = affine_representation(make_channel("pancake"))
        assert np.allclose(aff.distortion, [1.0, 1.0, 0.0])

    def test_action_matches_channel_on_random_states(self, rng):
        ch = make_channel("bit_phase_flip", p=0.25)
        aff = affine_representation(ch)
        for _ in range(20):
            rho = random_qubit(rng)
            direct = to_bloch(apply(ch, rho)).r
            assert np.allclose(aff(to_bloch(rho).r), direct, atol=1e-9)

    def test_non_qubit_rejected(self):
        with pytest.raises(DimensionMismatch):
            affine_representation(make_channel("erasure", p=0.5))

    def test_non_trace_preserving_map_refused(self):
        ch = QuantumChannel([np.sqrt(0.5) * np.eye(2)], 2, 2, trace_preserving=False)
        with pytest.raises(InvalidChannel, match="preserve trace"):
            affine_representation(ch)

    def test_round_trip_panel_has_shifted_maps(self):
        shifts = [np.abs(affine_representation(ch).b).max() for ch in ROUND_TRIP]
        assert sum(s > 0.05 for s in shifts) >= 5

    @pytest.mark.parametrize("ch", ROUND_TRIP, ids=lambda ch: ch.label)
    def test_affine_only_copy_acts_like_the_channel(self, ch, rng):
        copy = QuantumChannel(None, 2, 2, affine=affine_representation(ch))
        assert np.abs(choi(copy).matrix - choi(ch).matrix).max() <= 1e-14
        for _ in range(5):
            rho = random_qubit(rng)
            assert np.abs(apply(copy, rho).matrix - apply(ch, rho).matrix).max() <= 1e-14
        report, copy_report = is_cptp(ch), is_cptp(copy)
        assert bool(copy_report) == bool(report)
        assert abs(copy_report.completeness_residual - report.completeness_residual) <= 1e-14
        assert is_unital(copy) == is_unital(ch)


class TestAffineOnly:
    @pytest.mark.parametrize(
        "a,b",
        [
            (np.diag([np.nan, 1.0, 1.0]), np.zeros(3)),
            (np.diag([1.0, np.inf, 1.0]), np.zeros(3)),
            (np.eye(3), [0.0, np.nan, 0.0]),
            (np.eye(3), [0.0, 0.0, -np.inf]),
        ],
        ids=["nan-in-A", "inf-in-A", "nan-in-b", "inf-in-b"],
    )
    def test_non_finite_entry_refused(self, a, b):
        with pytest.raises(InvalidChannel, match="non-finite"):
            AffineMap(a, b)

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3), (3, 2)])
    def test_channel_must_be_a_qubit_map(self, dims):
        with pytest.raises(Unsupported, match="2 -> 2"):
            QuantumChannel(None, *dims, affine=AffineMap(np.eye(3), np.zeros(3)))


class TestTetrahedron:
    def test_identity_vertex_is_inside(self):
        assert tetrahedron_check((1.0, 1.0, 1.0))

    def test_odd_sign_corner_is_outside(self):
        assert not tetrahedron_check((1.0, 1.0, -1.0))

    def test_origin_is_inside(self):
        assert tetrahedron_check((0.0, 0.0, 0.0))

    def test_pauli_channel_distortions_are_inside(self):
        for p in (0.0, 0.3, 0.7, 1.0):
            aff = affine_representation(make_channel("depolarizing", p=p))
            assert tetrahedron_check(aff.distortion)

    def test_pancake_distortion_is_outside_nothing(self):
        # (1, 1, 0) sits outside the tetrahedron: no CPTP map has it
        assert not tetrahedron_check((1.0, 1.0, 0.0))


class TestComposeTensor:
    def test_damping_composes_multiplicatively(self):
        chained = compose(
            make_channel("amplitude_damping", p=0.8),
            make_channel("amplitude_damping", p=0.9),
        )
        single = make_channel("amplitude_damping", p=0.72)
        a, b = affine_representation(chained), affine_representation(single)
        assert np.allclose(a.A, b.A, atol=1e-10)
        assert np.allclose(a.b, b.b, atol=1e-10)

    def test_compose_validates_dimensions(self):
        with pytest.raises(DimensionMismatch):
            compose(make_channel("erasure", p=0.5), make_channel("identity", d=2))

    def test_tensor_acts_factorwise(self, rng):
        a = make_channel("bit_flip", p=0.2)
        b = make_channel("phase_flip", p=0.4)
        joint = tensor(a, b)
        assert (joint.dim_in, joint.dim_out) == (4, 4)
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        out = apply(joint, tensor_product(ra, rb))
        expected = tensor_product(apply(a, ra), apply(b, rb))
        assert np.allclose(out.matrix, expected.matrix, atol=1e-10)


class TestComplementary:
    def test_output_matches_environment_state(self, rng):
        ch = make_channel("amplitude_damping", gamma=0.3)
        comp = complementary(ch)
        rho = random_density(rng, 2)
        assert np.allclose(
            apply(comp, rho).matrix, environment_state(rho, ch), atol=1e-10
        )

    def test_environment_dimension_counts_kraus_terms(self):
        comp = complementary(make_channel("depolarizing", p=0.3))
        assert comp.dim_out == 4

    def test_affine_only_channel_rejected(self):
        with pytest.raises(InvalidChannel):
            complementary(make_channel("pancake"))


class TestMinOutputEntropy:
    def test_identity_reaches_zero(self):
        assert np.isclose(min_output_entropy(make_channel("identity")), 0.0, atol=1e-9)

    def test_depolarizing_matches_closed_form(self):
        s = min_output_entropy(make_channel("depolarizing", p=0.3))
        assert np.isclose(s, binary_entropy(0.15), atol=1e-8)

    def test_erasure_runs_the_general_search(self):
        s = min_output_entropy(make_channel("erasure", p=0.3))
        assert np.isclose(s, binary_entropy(0.3), atol=1e-6)

    def test_non_cptp_rejected(self):
        with pytest.raises(InvalidChannel):
            min_output_entropy(make_channel("pancake"))

    def test_mixed_erasure_keeps_both_flags(self):
        s = min_output_entropy(make_channel("mixed_erasure", p=0.2, q=0.3))
        expected = -sum(x * np.log2(x) for x in (0.2, 0.3, 0.5))
        assert np.isclose(s, expected, atol=1e-9)

    @pytest.mark.parametrize("channel", [
        make_channel("erasure", p=0.3),
        make_channel("mixed_erasure", p=0.2, q=0.3),
        random_cptp_channel(3, 3, 2, np.random.default_rng(0)),
    ], ids=lambda ch: ch.label)
    def test_gradient_matches_central_differences(self, channel):
        # the state kernel on a d x 1 M: S(N(psi)) of psi = a / |a|, x = (Re a, Im a)
        d, h = channel.dim_in, 1e-6
        entropy = one_point(_state_neg_value(_state_gradient(channel, _NEG_OUTPUT)))
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.standard_normal(2 * d)
            _, grad = entropy(x)
            central = np.array(
                [(entropy(x + h * e)[0] - entropy(x - h * e)[0]) / (2 * h) for e in np.eye(2 * d)]
            )
            assert np.allclose(grad, central, atol=1e-7)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_vanishing_input_stays_finite(self, columns):
        # a d x 1 and a d x d M at x = 0; the gradient keeps the length of x
        channel = make_channel("erasure", p=0.3, d=3)
        entropy = one_point(_state_neg_value(_state_gradient(channel, _NEG_OUTPUT)))
        value, grad = entropy(np.zeros(2 * 3 * columns))
        assert np.isfinite(value) and np.isfinite(grad).all()
        assert grad.shape == (2 * 3 * columns,)

    def test_reruns_are_byte_identical(self):
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        assert repr(min_output_entropy(ch)) == repr(min_output_entropy(ch))

    def test_affine_only_qubit_channel_takes_the_exact_radius(self):
        # |A u + b| <= 0.5 + 0.2, with equality at u = e_x
        aff = AffineMap(np.diag([0.5, 0.4, 0.3]), np.array([0.2, 0.0, 0.0]))
        ch = QuantumChannel(None, 2, 2, affine=aff)
        assert is_cptp(ch)
        assert np.isclose(min_output_entropy(ch), binary_entropy(0.85), atol=1e-12)

    def test_exact_radius_matches_a_dense_grid(self):
        from scipy.optimize import minimize

        channels = _radius_panel()
        assert sum(is_unital(ch) for ch in channels[-40:]) == 10
        dirs = np.random.default_rng(5).standard_normal((3, 200_000))
        dirs /= np.linalg.norm(dirs, axis=0)
        for ch in channels:
            aff = affine_representation(ch)
            radius = _max_output_radius(aff)
            out = aff.A @ dirs + aff.b[:, None]
            grid = np.sqrt(np.einsum("ij,ij->j", out, out))
            assert radius >= min(grid.max(), 1.0) - 1e-12, ch.label
            # the grid falls short by up to ~1e-5 between its points, so its
            # best direction is polished over the sphere's angles before comparing
            x, y, z = dirs[:, grid.argmax()]

            def neg_radius(angles):
                st = np.sin(angles[0])
                u = np.array([st * np.cos(angles[1]), st * np.sin(angles[1]), np.cos(angles[0])])
                return -np.linalg.norm(aff.A @ u + aff.b)

            res = minimize(
                neg_radius,
                [np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)],
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 1000},
            )
            assert abs(radius - min(-res.fun, 1.0)) <= 1e-9, ch.label


class TestDegradability:
    def test_dephasing_is_degradable(self):
        assert is_degradable(make_channel("dephasing", p=0.3)).status == "degradable"

    def test_weak_damping_is_degradable(self):
        report = is_degradable(make_channel("amplitude_damping", gamma=0.2))
        assert report.status == "degradable"
        assert report.degrading_map is not None

    def test_strong_damping_is_not_degradable(self):
        report = is_degradable(make_channel("amplitude_damping", gamma=0.8))
        assert report.status == "not_degradable"

    def test_non_square_test_does_not_refute_weak_erasure(self):
        # erasure(0.2) is degradable (erase its output with probability 0.75), but the
        # 9 x 4 superoperator leaves many degrading maps and pinv picks one that is not CP
        assert is_degradable(make_channel("erasure", p=0.2)).status == "undetermined"

    @pytest.mark.parametrize("ch", [
        make_channel("erasure", p=1.0),
        make_channel("erasure", p=1.0, d=3),
        make_channel("mixed_erasure", p=0.5, q=0.5),
        make_channel("phase_erasure", q=1.0),
        make_channel("dephasing", p=0.3),
        make_channel("amplitude_damping", gamma=0.2),
        make_channel("bit_flip", p=0.5),
        make_channel("measure_prepare"),
    ], ids=lambda ch: ch.label)
    def test_degradable_verdict_carries_a_cptp_degrading_map(self, ch):
        # erasure(1) and mixed_erasure(0.5, 0.5) once read degradable with residual 1.0 and 0.5
        report = is_degradable(ch)
        if report.status != "degradable":
            return
        assert report.residual <= 1e-9
        assert is_cptp(report.degrading_map)
        composed = _superoperator(report.degrading_map) @ _superoperator(ch)
        assert np.max(np.abs(composed - _superoperator(complementary(ch)))) <= 1e-9

    @pytest.mark.parametrize("ch,status", [
        (make_channel("amplitude_damping", gamma=1.0), "not_degradable"),
        (make_channel("depolarizing", p=1.0), "not_degradable"),
        (random_cptp_channel(3, 2, 2, np.random.default_rng(0)), "not_degradable"),
        (make_channel("erasure", p=1.0), "not_degradable"),
        (make_channel("bit_flip", p=0.5), "degradable"),
        (make_channel("measure_prepare"), "degradable"),
    ], ids=lambda v: getattr(v, "label", v))
    def test_verdicts(self, ch, status):
        report = is_degradable(ch)
        assert report.status == status
        assert np.isfinite([report.condition_number, report.residual]).all()

    def test_zero_superoperator_is_undetermined(self):
        zero = QuantumChannel([np.zeros((2, 2))], 2, 2, trace_preserving=False)
        report = is_degradable(zero)
        assert report.status == "undetermined"
        assert report.condition_number == 1.0

    def test_degrading_map_reproduces_environment(self, rng):
        ch = make_channel("amplitude_damping", gamma=0.2)
        report = is_degradable(ch)
        for _ in range(10):
            rho = random_density(rng, 2)
            via_degrading = apply(report.degrading_map, apply(ch, rho))
            assert np.allclose(
                via_degrading.matrix, environment_state(rho, ch), atol=1e-7
            )


class TestEntanglementBreaking:
    def test_identity_is_not_breaking(self):
        assert not is_entanglement_breaking(make_channel("identity"))

    def test_measure_prepare_is_breaking(self):
        assert is_entanglement_breaking(make_channel("measure_prepare"))

    def test_full_depolarizing_is_breaking(self):
        assert is_entanglement_breaking(make_channel("depolarizing", p=1.0))

    def test_weak_depolarizing_is_not_breaking(self):
        assert not is_entanglement_breaking(make_channel("depolarizing", p=0.3))

    def test_non_qubit_rejected(self):
        with pytest.raises(Unsupported):
            is_entanglement_breaking(make_channel("erasure", p=0.5))


class TestJson:
    def test_kraus_round_trip_preserves_action(self, rng):
        ch = make_channel("amplitude_damping", gamma=0.3)
        back = channel_from_json(channel_to_json(ch))
        rho = random_density(rng, 2)
        assert np.allclose(apply(back, rho).matrix, apply(ch, rho).matrix, atol=1e-12)

    def test_kind_form_uses_constructor(self):
        ch = channel_from_json({"kind": "depolarizing", "p": 0.25})
        assert ch.kind == "depolarizing"
        assert ch.params["p"] == 0.25

    def test_strict_mode_rejects_non_cptp(self):
        data = {
            "label": "broken",
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [{"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
        }
        with pytest.raises(InvalidChannel):
            channel_from_json(data)
        assert channel_from_json(data, strict=False).dim_in == 2

    def test_malformed_payload_rejected(self):
        with pytest.raises(InvalidChannel):
            channel_from_json({"kraus": "nope"})


class TestRandomChannels:
    def test_always_cptp(self, rng):
        for dim_in, dim_out, nk in [(2, 2, 1), (2, 2, 3), (2, 3, 2), (3, 2, 4)]:
            ch = random_cptp_channel(dim_in, dim_out, nk, rng)
            assert bool(is_cptp(ch))

    def test_rejects_rank_deficient_request(self, rng):
        with pytest.raises(InvalidParameter):
            random_cptp_channel(4, 3, 1, rng)

    def test_same_seed_same_channel(self):
        a = random_cptp_channel(2, 2, 2, np.random.default_rng(7))
        b = random_cptp_channel(2, 2, 2, np.random.default_rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

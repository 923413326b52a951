import math
from dataclasses import fields, replace

import numpy as np
import pytest

from qchan import (
    DensityMatrix,
    Ensemble,
    OptimizerConfig,
    OptimizerStats,
    affine_representation,
    analytic_capacity,
    apply,
    binary_entropy,
    coherent_information,
    complementary,
    entanglement_assisted,
    from_kraus,
    full_report,
    holevo_quantity,
    hsw_geometric,
    hsw_numeric,
    make_channel,
    private_information,
    quantum_capacity_single_use,
    random_cptp_channel,
)
from qchan import capacity
from qchan.capacity import (
    _COHERENT,
    _MUTUAL,
    _NEG_OUTPUT,
    _lbfgs,
    _line_search,
    _lockstep,
    _min_entropy_report,
    _pure_ensemble_neg_chi,
    _search,
    _state_gradient,
    _state_neg_value,
)
from qchan.errors import InvalidChannel, InvalidParameter, Unsupported

from conftest import one_point

# spot values frozen from plain-float reference computations
DEPOLARIZING_CHI = {
    0.0: 1.0,
    0.2: 0.5310044064107188,
    0.5: 0.18872187554086717,
    0.8: 0.02904940554533142,
    1.0: 0.0,
}
DAMPING_Q = {
    0.10: 0.7094182634736721,
    0.30: 0.327954761913956,
    0.45: 0.08044484812323793,
}

FAST = OptimizerConfig(restarts=16)


class TestOptimizerConfig:
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_fewer_than_one_restart_rejected(self, restarts):
        with pytest.raises(InvalidParameter):
            OptimizerConfig(restarts=restarts)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameter):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 2.5},
        {"restarts": math.inf},
        {"restarts": True},
        {"restarts": "4"},
        {"seed": 1.5},
        {"seed": math.nan},
        {"seed": False},
    ], ids=repr)
    def test_non_integer_counts_rejected(self, kwargs):
        with pytest.raises(InvalidParameter):
            OptimizerConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = OptimizerConfig(restarts=np.int64(3), seed=np.int32(2))
        assert (cfg.restarts, cfg.seed) == (3, 2)

    def test_has_only_restarts_and_seed(self):
        assert [f.name for f in fields(OptimizerConfig)] == ["restarts", "seed"]
        with pytest.raises(TypeError):
            OptimizerConfig(tolerance=1e-6)


def _scripted_lockstep(monkeypatch, value):
    """Replace _lockstep by one that ends each start x0 at (x0, value(x0), 1, 1, True).

    Returns the list of starts it saw, in order.
    """
    seen = []

    def scripted(objective, starts, limits):
        results = []
        for x0 in starts:
            seen.append(np.array(x0))
            results.append((x0, value(x0), 1, 1, True))
        return results

    monkeypatch.setattr(capacity, "_lockstep", scripted)
    return seen


class TestSeededStarts:
    def test_fixed_starts_then_seeded_draws(self, monkeypatch):
        # a strictly falling value keeps the plateau rule from stopping the search
        seen = _scripted_lockstep(monkeypatch, lambda x0: -float(len(seen)))
        cfg = OptimizerConfig(restarts=5, seed=4)
        _search(None, [np.zeros(3)], lambda rng: rng.standard_normal(3), cfg, (1, 0.0, 0.0))
        assert len(seen) == 5
        assert seen[0].tolist() == [0.0, 0.0, 0.0]
        draws = np.random.default_rng(4).standard_normal((4, 3))
        assert np.array_equal(np.array(seen[1:]), draws)

    def test_fixed_starts_are_cut_at_restarts(self, monkeypatch):
        seen = _scripted_lockstep(monkeypatch, lambda x0: -float(x0[0]))
        cfg = OptimizerConfig(restarts=2)
        fixed = [np.full(2, k) for k in range(4)]
        _, _, stats = _search(None, fixed, None, cfg, (1, 0.0, 0.0))
        assert len(seen) == stats.restarts == 2


def _rosenbrock(x):
    a, b = x
    grad = [-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]
    return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2, np.array(grad)


def _quadratic(n=50, seed=0):
    """0.5 x.Ax - b.x with A's eigenvalues spread over [1, 100], and A, b."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = q @ np.diag(np.logspace(0.0, 2.0, n)) @ q.T
    b = rng.standard_normal(n)
    return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)), a, b


def _drive(search, fun):
    """Send a _line_search generator fun(trial) -> (value, gradient) until it returns."""
    trial = next(search)
    while True:
        try:
            trial = search.send(fun(trial))
        except StopIteration as stop:
            return stop.value


class TestLbfgs:
    def test_rosenbrock_reaches_the_minimum(self):
        x, f, nit, nfev, success = _lbfgs(_rosenbrock, [-1.2, 1.0], 500, 1e-15, 1e-10)
        assert success
        assert np.abs(x - 1.0).max() <= 1e-6
        assert f <= 1e-12 and nfev >= nit

    def test_convex_quadratic_meets_gtol(self):
        fun, a, b = _quadratic()
        x, _, _, _, success = _lbfgs(fun, np.zeros(50), 500, 0.0, 1e-6)
        assert success
        assert np.abs(a @ x - b).max() <= 1e-6

    def test_iteration_cap_reports_failure(self):
        fun = _quadratic()[0]
        _, _, nit, _, success = _lbfgs(fun, np.zeros(50), 2, 0.0, 1e-6)
        assert (nit, success) == (2, False)

    def test_non_finite_trial_is_backtracked(self):
        # the first step from 0.8 lands at -0.2, where the objective is NaN
        seen = []

        def walled(x):
            seen.append(float(x[0]))
            if x[0] < -0.1:
                return math.nan, np.full(1, math.nan)
            return float(x[0] ** 2), 2.0 * x

        x, f, _, _, success = _lbfgs(walled, [0.8], 100, 0.0, 1e-10)
        assert any(v < -0.1 for v in seen)
        assert success and math.isfinite(f)
        assert abs(x[0]) <= 1e-10

    def test_line_search_steps_to_the_quadratic_minimizer(self):
        # the trial at 1 fails sufficient decrease; the quadratic through f, g.d
        # and that trial is f itself, so its minimizer 0.3 is the accepted step
        def fun(x):
            return float((x[0] - 0.3) ** 2), 2.0 * (x - 0.3)

        x0, d = np.zeros(1), np.ones(1)
        f, g = fun(x0)
        stp, x, ft, _, nfev = _drive(_line_search(x0, f, g, d, float(g @ d), 1.0), fun)
        assert nfev == 2
        assert stp == pytest.approx(0.3, rel=1e-15)  # 0.3 up to one rounding
        assert x.tolist() == [stp] and ft <= 1e-30

    def test_line_search_without_decrease_fails_after_20_evaluations(self):
        # |x| from 0 along d = 1 with the one-sided slope -1: every trial rises
        def fun(x):
            return abs(float(x[0])), np.sign(x)

        x0, d = np.zeros(1), np.ones(1)
        stp, x, f, _, nfev = _drive(_line_search(x0, 0.0, -d, d, -1.0, 1.0), fun)
        assert (stp, nfev) == (None, 20)
        assert x.tolist() == [0.0] and f == 0.0

    def test_q1_second_start_on_depolarizing_converges(self, monkeypatch):
        # L-BFGS-B takes 10 iterations and 29 evaluations from this start
        runs = []

        def recorded(objective, starts, limits):
            runs.extend(_lockstep(objective, starts, limits))
            return runs[-len(starts):]

        monkeypatch.setattr(capacity, "_lockstep", recorded)
        quantum_capacity_single_use(make_channel("depolarizing", p=0.3))
        _, _, _, nfev, success = runs[1]
        assert success
        assert nfev <= 58


class TestHswNumeric:
    def test_identity_sends_one_bit(self):
        rep = hsw_numeric(make_channel("identity"), FAST)
        assert np.isclose(rep.C_hsw, 1.0, atol=1e-7)

    @pytest.mark.parametrize("p,expected", sorted(DEPOLARIZING_CHI.items()))
    def test_depolarizing_grid(self, p, expected):
        rep = hsw_numeric(make_channel("depolarizing", p=p), FAST)
        assert np.isclose(rep.C_hsw, expected, atol=1e-6)

    def test_dephasing_keeps_full_classical_rate(self):
        rep = hsw_numeric(make_channel("dephasing", p=0.3), FAST)
        assert np.isclose(rep.C_hsw, 1.0, atol=1e-7)

    def test_reported_ensemble_achieves_the_value(self):
        ch = make_channel("amplitude_damping", gamma=0.3)
        rep = hsw_numeric(ch, FAST)
        outs = [apply(ch, s) for s in rep.optimal_ensemble.states]
        achieved = holevo_quantity(Ensemble(rep.optimal_ensemble.weights, outs))
        assert np.isclose(achieved, rep.C_hsw, atol=1e-7)

    def test_non_qubit_input_handled(self):
        rep = hsw_numeric(make_channel("erasure", p=0.5), FAST)
        assert np.isclose(rep.C_hsw, 0.5, atol=1e-5)

    def test_optimizer_stats_recorded(self):
        rep = hsw_numeric(make_channel("depolarizing", p=0.5), FAST)
        assert rep.optimizer.restarts >= 8
        assert rep.optimizer.restart_spread <= 1e-6

    def test_optimizer_stats_count_evaluations(self):
        rep = hsw_numeric(make_channel("amplitude_damping", gamma=0.3), FAST)
        assert rep.optimizer.evaluations >= rep.optimizer.restarts
        assert OptimizerStats(0, 0, 0.0).evaluations == 0

    def test_optimizer_stats_default_to_converged(self):
        assert OptimizerStats(0, 0, 0.0).converged is True
        assert hsw_numeric(make_channel("erasure", p=0.2), FAST).optimizer.converged is True

    def test_iteration_capped_run_reports_not_converged(self):
        ch = make_channel("erasure", p=0.2)
        m, d = 4, ch.dim_in
        start = np.random.default_rng(3).standard_normal(2 * m * d + m)
        neg_chi = _pure_ensemble_neg_chi(ch.kraus, m, d)
        _, _, stats = _search(neg_chi, [start], None, OptimizerConfig(1), (2, 1e-13, 1e-8))
        assert stats.converged is False

    @pytest.mark.parametrize("second,converged", [(0.0, True), (1.0, False)])
    def test_converged_tie_confirms_the_winner(self, monkeypatch, second, converged):
        # the winner stopped unconverged; a later start that ties it and converged
        # confirms the optimum, one that lands higher does not
        runs = iter([(0.0, False), (second, True)])

        def scripted(objective, starts, limits):
            return [(x0, val, 1, 1, ok) for x0, (val, ok) in zip(starts, runs)]

        monkeypatch.setattr(capacity, "_lockstep", scripted)
        fixed = [np.zeros(1), np.ones(1)]
        x, _, stats = _search(None, fixed, None, OptimizerConfig(2), (1, 0.0, 0.0))
        assert x.tolist() == [0.0]
        assert stats.converged is converged

    @pytest.mark.parametrize("step,started", [(2e-15, 8), (1e-9, 16)])
    def test_only_a_gain_past_rounding_restarts_the_plateau(self, monkeypatch, step, started):
        # each start lands step below the one before: a rounding-level gain still
        # takes the lead, but only a larger one keeps the search going
        _scripted_lockstep(monkeypatch, lambda x0: 1.0 - step * x0[0])
        fixed = [np.full(1, float(k)) for k in range(16)]
        x, _, stats = _search(None, fixed, None, FAST, (1, 0.0, 0.0))
        assert stats.restarts == started
        assert x.tolist() == [started - 1.0]

    def test_general_path_evaluation_guard(self):
        # finite differences spent 1,743 evaluations here
        assert hsw_numeric(make_channel("erasure", p=0.2)).optimizer.evaluations <= 300

    def test_reruns_are_byte_identical(self):
        ch = make_channel("amplitude_damping", gamma=0.3)
        assert repr(hsw_numeric(ch, FAST)) == repr(hsw_numeric(ch, FAST))

    def test_general_path_reruns_are_byte_identical(self):
        ch = random_cptp_channel(2, 3, 2, np.random.default_rng(0))
        assert repr(hsw_numeric(ch, FAST)) == repr(hsw_numeric(ch, FAST))

    def test_affine_only_channel_rejected(self):
        with pytest.raises(InvalidChannel):
            hsw_numeric(make_channel("pancake"))

    def test_dimension_limit_enforced(self):
        with pytest.raises(Unsupported):
            hsw_numeric(make_channel("identity", d=9))


def _pure_kernel_channels():
    cases = [
        ("erasure", make_channel("erasure", p=0.3)),
        ("mixed_erasure", make_channel("mixed_erasure", p=0.2, q=0.3)),
        ("random_2_3", random_cptp_channel(2, 3, 2, np.random.default_rng(3))),
        ("random_3_2", random_cptp_channel(3, 2, 2, np.random.default_rng(4))),
        ("depolarizing", make_channel("depolarizing", p=0.3)),
        ("amplitude_damping", make_channel("amplitude_damping", gamma=0.3)),
        ("random_2_2", random_cptp_channel(2, 2, 3, np.random.default_rng(7))),
    ]
    for name, ch in cases:
        yield pytest.param(ch, ch.kraus, id=f"{name}-channel")
        yield pytest.param(ch, complementary(ch).kraus, id=f"{name}-complement")


class TestPureEnsembleChiGradient:
    """The pure-ensemble chi kernel's analytic gradient matches central differences.

    Erasure outputs are rank 2 in dimension 3, so the eigenvalue floor
    inside log2 is exercised.
    """

    @pytest.mark.parametrize("channel,kraus", _pure_kernel_channels())
    def test_matches_central_differences(self, channel, kraus):
        m, d = 4, channel.dim_in
        neg_chi = one_point(_pure_ensemble_neg_chi(kraus, m, d))
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(3):
            t = np.concatenate([rng.standard_normal(2 * m * d), 0.5 * rng.standard_normal(m)])
            _, grad = neg_chi(t)
            central = np.array(
                [(neg_chi(t + h * e)[0] - neg_chi(t - h * e)[0]) / (2 * h) for e in np.eye(t.size)]
            )
            assert np.allclose(grad, central, atol=1e-7)

    def test_zero_member_is_basis_state_with_zero_gradient(self):
        ch = make_channel("erasure", p=0.3)
        neg_chi = one_point(_pure_ensemble_neg_chi(ch.kraus, 2, 2))
        t = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        value, grad = neg_chi(t)
        # members e_0 and e_1 with equal weights: chi = (1 - p) bits
        assert np.isclose(value, -0.7, atol=1e-12)
        assert np.all(grad[:4] == 0.0)

    def test_pure_output_keeps_a_finite_gradient(self):
        # members |0> and |1>; damping toward |1> keeps |1>, so its output is pure
        kraus = make_channel("amplitude_damping", gamma=0.3).kraus
        neg_chi = one_point(_pure_ensemble_neg_chi(kraus, 2, 2))
        value, grad = neg_chi(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.isfinite(value) and np.all(np.isfinite(grad))


def _central_differences(fun, x, h=1e-6):
    return np.array([(fun(x + h * e)[0] - fun(x - h * e)[0]) / (2 * h) for e in np.eye(x.size)])


def _state_kernel_cases():
    channels = [
        make_channel("erasure", p=0.3),
        make_channel("amplitude_damping", gamma=0.3),
        random_cptp_channel(3, 2, 2, np.random.default_rng(0)),
    ]
    return [
        pytest.param(ch, coeffs, id=f"{name}-{ch.label}-{ch.dim_in}to{ch.dim_out}")
        for ch in channels
        for name, coeffs in (("Q1", _COHERENT), ("C_E", _MUTUAL))
    ]


class TestStateFunctionalGradient:
    """The Q1 / C_E state kernel's analytic gradient matches central differences."""

    @pytest.mark.parametrize("channel,coeffs", _state_kernel_cases())
    def test_matches_central_differences_at_interior_states(self, channel, coeffs):
        neg_value = one_point(_state_neg_value(_state_gradient(channel, coeffs)))
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.standard_normal(2 * channel.dim_in**2)
            _, grad = neg_value(x)
            assert np.allclose(grad, _central_differences(neg_value, x), atol=1e-7)

    @pytest.mark.parametrize("coeffs", [_COHERENT, _MUTUAL])
    @pytest.mark.parametrize("gamma", [0.3, 0.8])
    def test_exact_at_the_damping_fixed_point(self, gamma, coeffs):
        # rho = |0><0|: rho, N(rho) and env(rho) are all rank one
        channel = make_channel("amplitude_damping", gamma=gamma)
        neg_value = one_point(_state_neg_value(_state_gradient(channel, coeffs)))
        x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        value, grad = neg_value(x)
        assert value == 0.0
        assert np.allclose(grad, _central_differences(neg_value, x), atol=1e-7)

    @pytest.mark.parametrize("coeffs", [_COHERENT, _MUTUAL])
    def test_exact_at_a_pure_qutrit_input(self, coeffs):
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        neg_value = one_point(_state_neg_value(_state_gradient(ch, coeffs)))
        m = np.zeros((2, 3, 3))
        m[:, :, 0] = np.random.default_rng(5).standard_normal((2, 3))
        x = m.reshape(-1)
        _, grad = neg_value(x)
        assert np.allclose(grad, _central_differences(neg_value, x), atol=1e-7)


class TestHswGeometric:
    def test_identity_radius_is_one_bit(self):
        rep = hsw_geometric(make_channel("identity"), FAST)
        assert np.isclose(rep.r_star, 1.0, atol=1e-6)

    def test_constant_output_channel_has_zero_radius(self):
        rep = hsw_geometric(make_channel("depolarizing", p=1.0), FAST)
        assert np.isclose(rep.r_star, 0.0, atol=1e-9)

    @pytest.mark.parametrize("kind,params", [
        ("depolarizing", {"p": 0.3}),
        ("amplitude_damping", {"gamma": 0.3}),
        ("bit_flip", {"p": 0.25}),
    ])
    def test_agrees_with_ensemble_search(self, kind, params):
        ch = make_channel(kind, **params)
        geo = hsw_geometric(ch, FAST)
        num = hsw_numeric(ch, FAST)
        assert abs(geo.r_star - num.C_hsw) <= 1e-6

    def test_non_qubit_rejected(self):
        with pytest.raises(Unsupported):
            hsw_geometric(make_channel("erasure", p=0.5))

    def test_reports_unconverged_runs(self, monkeypatch):
        ch = make_channel("amplitude_damping", gamma=0.3)
        rep = hsw_geometric(ch, FAST)
        assert rep.optimizer.converged is True
        real = capacity._lbfgs

        def unconverged(*args):
            return real(*args)[:4] + (False,)

        monkeypatch.setattr(capacity, "_lbfgs", unconverged)
        flagged = hsw_geometric(ch, FAST)
        assert flagged.optimizer.converged is False
        assert flagged.r_star == rep.r_star


def _qubit_panel():
    """Six unital families, amplitude damping at 0.2, 0.4, 0.7 and three random
    2->2 channels drawn from default_rng(1): the qubit benchmark panel."""
    channels = [
        make_channel(kind, p=p)
        for kind, p in (
            ("depolarizing", 0.1),
            ("depolarizing", 0.4),
            ("bit_flip", 0.2),
            ("phase_flip", 0.3),
            ("bit_phase_flip", 0.15),
            ("dephasing", 0.4),
        )
    ]
    channels += [make_channel("amplitude_damping", gamma=g) for g in (0.2, 0.4, 0.7)]
    rng = np.random.default_rng(1)
    for _ in range(3):
        channels.append(random_cptp_channel(2, 2, int(rng.integers(2, 5)), rng))
    return channels


def _ensemble_chi(channel, report):
    ens = report.optimal_ensemble
    return float(holevo_quantity(Ensemble(ens.weights, [apply(channel, s) for s in ens.states])))


def test_hsw_numeric_on_the_qubit_panel():
    reports = [(ch, hsw_numeric(ch, FAST)) for ch in _qubit_panel()]
    for ch, rep in reports:
        assert rep.optimizer.converged is True
        assert rep.C_hsw - _ensemble_chi(ch, rep) <= 1e-9
    # the Bloch-coordinate search this replaced spent 3,971 evaluations here
    assert sum(rep.optimizer.evaluations for _, rep in reports) <= 3500


class TestHswGeometricCertificate:
    NOTES = ("single-letter value; lower bound on the regularized capacity",)

    def test_random_channel_meets_its_certificate(self):
        ch = random_cptp_channel(2, 2, 3, np.random.default_rng(7))
        geo = hsw_geometric(ch, FAST)
        assert abs(geo.r_star - hsw_numeric(ch, FAST).C_hsw) <= 1e-6
        assert geo.optimizer.certificate_residual <= 1e-6
        assert geo.notes == self.NOTES

    def test_pure_output_classical_quantum_channel(self):
        # |0> -> |0> and |1> -> |+>: two pure outputs 90 degrees apart on the sphere
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        ch = from_kraus([np.diag([1.0, 0.0]), np.outer(plus, [0.0, 1.0])])
        rep = hsw_geometric(ch, FAST)
        expected = float(binary_entropy((1.0 + 1.0 / math.sqrt(2.0)) / 2.0))
        assert abs(rep.r_star - expected) <= 1e-9
        assert rep.optimizer.certificate_residual <= 1e-9

    @pytest.mark.parametrize("kind,params", [
        ("identity", {}),
        ("depolarizing", {"p": 0.4}),
        ("depolarizing", {"p": 1.0}),
        ("bit_flip", {"p": 0.2}),
        ("dephasing", {"p": 0.3}),
    ])
    def test_unital_radius_is_closed_form(self, kind, params):
        ch = make_channel(kind, **params)
        rep = hsw_geometric(ch, FAST)
        assert rep.optimizer.evaluations == 0
        assert rep.optimizer.certificate_residual == 0.0
        assert abs(_ensemble_chi(ch, rep) - rep.r_star) <= 1e-12

    @pytest.mark.parametrize("ch", [
        make_channel("amplitude_damping", gamma=0.3),
        random_cptp_channel(2, 2, 3, np.random.default_rng(7)),
    ])
    def test_reruns_are_byte_identical(self, ch):
        assert repr(hsw_geometric(ch, FAST)) == repr(hsw_geometric(ch, FAST))

    def test_duality_gap_on_the_qubit_panel(self):
        for ch in _qubit_panel():
            rep = hsw_geometric(ch, FAST)
            assert rep.optimizer.certificate_residual <= 1e-6
            assert rep.optimizer.converged is True
            assert rep.notes == self.NOTES
            # the reported ensemble is the lower end of the bracket
            chi = _ensemble_chi(ch, rep)
            assert rep.r_star - 1e-6 <= chi <= rep.r_star + 1e-12

    def test_never_calls_the_ensemble_solvers(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("hsw_geometric called an ensemble solver")

        for name in ("hsw_numeric", "_pure_ensemble_neg_chi"):
            monkeypatch.setattr(capacity, name, forbidden)
        rep = hsw_geometric(random_cptp_channel(2, 2, 3, np.random.default_rng(7)), FAST)
        assert rep.optimizer.certificate_residual <= 1e-6

    def test_kkt_jacobian_matches_central_differences(self):
        aff = affine_representation(random_cptp_channel(2, 2, 3, np.random.default_rng(7)))
        us = np.random.default_rng(0).standard_normal((3, 3))
        us /= np.linalg.norm(us, axis=1)[:, None]
        w, t, r = np.array([0.2, 0.5, 0.3]), np.array([0.1, -0.2, 0.3]), 0.4
        _, jac, frames, free = capacity._kkt_residual(aff, us, w, t, r)
        assert free.all() and jac.shape == (3 + 4 + 6, 6 + 4 + 3)

        def residual(step):
            moved = capacity._retract(us, frames, step[:6].reshape(3, 2))
            return capacity._kkt_residual(aff, moved, w + step[9:12], t + step[6:9], r + step[12])[0]

        h = 1e-6
        num = np.column_stack([
            (residual(h * e) - residual(-h * e)) / (2.0 * h) for e in np.eye(jac.shape[1])
        ])
        # moving an input also turns its tangent frame, which changes its own
        # gradient rows only where that gradient is nonzero; all else is exact
        exact = np.ones(jac.shape, dtype=bool)
        exact[7:, :6] = False
        assert np.abs(num - jac)[exact].max() <= 1e-6


class TestQuantumCapacity:
    @pytest.mark.parametrize("gamma,expected", sorted(DAMPING_Q.items()))
    def test_damping_grid(self, gamma, expected):
        rep = quantum_capacity_single_use(
            make_channel("amplitude_damping", gamma=gamma), FAST
        )
        assert np.isclose(rep.Q1, expected, atol=1e-6)

    def test_dephasing_hashing_value(self):
        rep = quantum_capacity_single_use(make_channel("dephasing", p=0.1), FAST)
        assert np.isclose(rep.Q1, 0.5310044064107188, atol=1e-6)

    def test_heavy_damping_has_no_rate(self):
        # the raw optimum sits at 0, reached on the pure decay fixed point
        rep = quantum_capacity_single_use(
            make_channel("amplitude_damping", gamma=0.8), FAST
        )
        assert rep.Q1 <= 1e-9
        assert abs(rep.Q1_raw) <= 1e-9

    @pytest.mark.parametrize("gamma", [0.6, 1.0])  # 0.8: test_heavy_damping_has_no_rate
    def test_damping_past_one_half_has_zero_raw_rate(self, gamma):
        rep = quantum_capacity_single_use(make_channel("amplitude_damping", gamma=gamma), FAST)
        assert abs(rep.Q1_raw) <= 1e-9

    def test_evaluation_guard(self):
        # Nelder-Mead on the density parameters spent 25,485 evaluations here
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        assert quantum_capacity_single_use(ch).optimizer.evaluations <= 1000

    def test_reruns_are_byte_identical(self):
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        first = quantum_capacity_single_use(ch, FAST)
        assert repr(first) == repr(quantum_capacity_single_use(ch, FAST))

    def test_useless_erasure_reports_positive_zero(self):
        rep = quantum_capacity_single_use(make_channel("erasure", p=1.0), FAST)
        assert rep.Q1 == 0.0
        assert math.copysign(1.0, rep.Q1) == 1.0

    def test_identity_sends_one_qubit(self):
        rep = quantum_capacity_single_use(make_channel("identity"), FAST)
        assert np.isclose(rep.Q1, 1.0, atol=1e-7)


class TestEntanglementAssisted:
    def test_identity_doubles_the_rate(self):
        rep = entanglement_assisted(make_channel("identity"), FAST)
        assert np.isclose(rep.C_E, 2.0, atol=1e-6)

    def test_useless_channel_assists_nothing(self):
        rep = entanglement_assisted(make_channel("depolarizing", p=1.0), FAST)
        assert rep.C_E <= 1e-6

    def test_dominates_unassisted_rate(self):
        ch = make_channel("depolarizing", p=0.3)
        ea = entanglement_assisted(ch, FAST)
        un = hsw_numeric(ch, FAST)
        assert ea.C_E >= un.C_hsw - 1e-6

    def test_large_input_rejected(self):
        # one input limit for every state-kernel solver: _require_solvable's 8
        for solver in (entanglement_assisted, private_information):
            with pytest.raises(Unsupported, match="solver limit is dimension 8"):
                solver(make_channel("identity", d=9))

    @pytest.mark.parametrize("d", [5, 8])
    def test_identity_up_to_the_input_limit(self, d):
        ch = make_channel("identity", d=d)
        assert abs(entanglement_assisted(ch, FAST).C_E - 2.0 * math.log2(d)) <= 1e-9
        assert abs(private_information(ch, FAST).P1 - math.log2(d)) <= 1e-9

    def test_reruns_are_byte_identical(self):
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        assert repr(entanglement_assisted(ch, FAST)) == repr(entanglement_assisted(ch, FAST))


def _damping_c_e(gamma: float) -> float:
    """C_E of amplitude damping: S(rho) + S(N(rho)) - S_E at the best diagonal input."""
    from scipy.optimize import minimize_scalar

    def neg(p):
        return -float(
            binary_entropy(p) + binary_entropy((1.0 - gamma) * p) - binary_entropy(gamma * p)
        )

    res = minimize_scalar(neg, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
    return -float(res.fun)


def _pauli_c_e(probs) -> float:
    """C_E of a qubit Pauli channel: 2 minus the entropy of its Pauli probabilities."""
    probs = np.asarray([q for q in probs if q > 0.0])
    return 2.0 + float(probs @ np.log2(probs))


def _qudit_capacity_channels():
    """The five channels of perfbench's qudit_capacity workload."""
    panel = np.random.default_rng(0)
    return [
        make_channel("erasure", p=0.2),
        make_channel("erasure", p=0.6),
        make_channel("mixed_erasure", p=0.2, q=0.3),
        random_cptp_channel(2, 3, 2, panel),
        random_cptp_channel(3, 2, 2, panel),
    ]


def _batched_kernels():
    """(kernel, row length) of both kernels on the qudit_capacity channels and a random 4->4 one."""
    channels = _qudit_capacity_channels() + [random_cptp_channel(4, 4, 3, np.random.default_rng(2))]
    for ch in channels:
        d, name = ch.dim_in, f"{ch.label}-{ch.dim_in}to{ch.dim_out}"
        yield pytest.param(_pure_ensemble_neg_chi(ch.kraus, 4, d), 8 * d + 4, id=f"chi-{name}")
        for label, coeffs in (("Q1", _COHERENT), ("C_E", _MUTUAL)):
            kernel = _state_neg_value(_state_gradient(ch, coeffs))
            yield pytest.param(kernel, 2 * d * d, id=f"{label}-{name}")
        kernel = _state_neg_value(_state_gradient(ch, _NEG_OUTPUT))
        yield pytest.param(kernel, 2 * d, id=f"S_min-{name}")


class TestLockstep:
    """Starts run in lockstep give, bit for bit, what they give one at a time."""

    @pytest.mark.parametrize("kernel,n", _batched_kernels())
    def test_a_row_of_a_batch_is_the_single_call(self, kernel, n):
        x = np.random.default_rng(4).standard_normal((8, n))
        values, grads = kernel(x)
        for row, value, grad in zip(x, values, grads):
            one_value, one_grad = kernel(row[None])
            assert one_value[0] == value
            assert np.array_equal(one_grad[0], grad)

    @pytest.mark.parametrize("kernel,n", [
        pytest.param(
            _pure_ensemble_neg_chi(make_channel("erasure", p=0.2).kraus, 4, 2), 20, id="chi"
        ),
        pytest.param(
            _state_neg_value(_state_gradient(_qudit_capacity_channels()[4], _COHERENT)), 18, id="Q1"
        ),
    ])
    def test_runs_match_separate_lbfgs_runs(self, kernel, n):
        starts = list(np.random.default_rng(6).standard_normal((6, n)))
        limits = (200, 1e-13, 1e-8)
        together = _lockstep(kernel, starts, limits)
        for x0, (x, f, nit, nfev, success) in zip(starts, together):
            alone = _lbfgs(one_point(kernel), x0, *limits)
            assert np.array_equal(alone[0], x)
            assert alone[1:] == (f, nit, nfev, success)
        # runs of different lengths: the batch shrank as they finished
        assert len({r[3] for r in together}) > 1

    @pytest.mark.parametrize("gains,stop", [(1, 8), (5, 11), (10, 16)])
    def test_batches_never_run_past_the_stop_point(self, gains, stop):
        # start k lands at -min(k, gains - 1) with a zero gradient: the first gains
        # starts each improve, and the plateau rule stops 6 starts later (8 at least)
        seen = set()

        def objective(x):
            seen.update(x[:, 0].tolist())
            return -np.minimum(x[:, 0], gains - 1.0), np.zeros_like(x)

        fixed = [np.full(1, float(k)) for k in range(20)]
        _, best, stats = _search(objective, fixed, None, OptimizerConfig(20), (10, 0.0, 1e-8))
        assert stats.restarts == len(seen) == stop
        assert best == 1.0 - gains


class TestConcaveCertificate:
    """C_E, and Q1 on degradable channels, stop at one start that a Frank-Wolfe gap certifies."""

    @pytest.mark.parametrize("ch,expected", [
        (make_channel("depolarizing", p=0.3), _pauli_c_e([1 - 0.225, 0.075, 0.075, 0.075])),
        (make_channel("depolarizing", p=1.0), 0.0),
        (make_channel("bit_flip", p=0.2), _pauli_c_e([0.8, 0.2])),
        (make_channel("erasure", p=0.3), 2 * 0.7),
        (make_channel("erasure", p=0.4, d=3), 2 * 0.6 * math.log2(3)),
        (make_channel("amplitude_damping", gamma=0.3), _damping_c_e(0.3)),
        (make_channel("amplitude_damping", gamma=0.8), _damping_c_e(0.8)),
    ], ids=lambda v: getattr(v, "label", ""))
    def test_c_e_bracket_holds_the_closed_form(self, ch, expected):
        rep = entanglement_assisted(ch)
        residual = rep.optimizer.certificate_residual
        assert rep.optimizer.restarts == 1
        assert 0.0 <= residual <= capacity._CERTIFIED_GAP
        assert rep.C_E - 1e-12 <= expected <= rep.C_E + residual + 1e-12

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45])
    def test_degradable_q1_bracket_holds_the_closed_form(self, gamma):
        ch = make_channel("amplitude_damping", gamma=gamma)
        rep = quantum_capacity_single_use(ch)
        expected = analytic_capacity("amplitude_damping", gamma=gamma).Q1_raw
        assert rep.optimizer.restarts == 1
        residual = rep.optimizer.certificate_residual
        assert rep.Q1_raw - 1e-12 <= expected <= rep.Q1_raw + residual + 1e-12

    def test_residual_is_never_negative(self):
        rng = np.random.default_rng(11)
        channels = _qudit_capacity_channels() + [
            random_cptp_channel(int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2, rng)
            for _ in range(6)
        ]
        for ch in channels:
            assert entanglement_assisted(ch, FAST).optimizer.certificate_residual >= 0.0
        for ch in (make_channel("dephasing", p=0.2), make_channel("amplitude_damping", gamma=0.2)):
            assert quantum_capacity_single_use(ch, FAST).optimizer.certificate_residual >= 0.0

    @pytest.mark.parametrize("ch", [
        make_channel("depolarizing", p=0.4),
        make_channel("erasure", p=0.6),
    ], ids=lambda ch: ch.label)
    def test_non_degradable_q1_keeps_the_multi_start(self, ch):
        # a lone M = I start is 0.36 and 0.20 bits low on these two
        rep = quantum_capacity_single_use(ch)
        assert rep.optimizer.restarts >= 8
        assert rep.optimizer.certificate_residual is None

    @pytest.mark.parametrize("ch", [
        make_channel("erasure", p=1.0),
        make_channel("mixed_erasure", p=0.5, q=0.5),
    ], ids=lambda ch: ch.label)
    def test_q1_raw_is_not_the_minimum_on_non_degradable_erasure(self, ch):
        # I_coh is 0 at every pure input; a "certificate" at the maximally mixed
        # input, the minimum (-1.0 and -0.5), once stood in for the maximum
        rep = quantum_capacity_single_use(ch)
        assert rep.Q1_raw >= -1e-9
        assert rep.optimizer.certificate_residual is None

    @pytest.mark.parametrize("ch,coeffs", [
        (make_channel("amplitude_damping", gamma=0.3), _MUTUAL),
        (random_cptp_channel(3, 2, 2, np.random.default_rng(0)), _MUTUAL),
        (make_channel("dephasing", p=0.2), _COHERENT),
    ], ids=lambda v: getattr(v, "label", ""))
    def test_failed_certificate_falls_back_to_the_same_search(self, monkeypatch, ch, coeffs):
        plain = capacity._maximize_state_functional(ch, FAST, coeffs)
        monkeypatch.setattr(capacity, "_CERTIFIED_GAP", -1.0)
        value, stats = capacity._maximize_state_functional(ch, FAST, coeffs, True)
        assert stats.restarts > 1
        assert stats.certificate_residual >= 0.0
        assert (value, replace(stats, certificate_residual=None)) == plain

    def test_cfg_does_not_change_a_certified_value(self):
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        other = OptimizerConfig(restarts=40, seed=9)
        assert repr(entanglement_assisted(ch)) == repr(entanglement_assisted(ch, other))

    def test_qudit_workload_evaluation_budget(self):
        # one certified start each; the multi-start spent 455 here
        reports = [entanglement_assisted(ch) for ch in _qudit_capacity_channels()]
        assert sum(rep.optimizer.evaluations for rep in reports) <= 60


class TestPrivateInformation:
    def test_identity_is_fully_private(self):
        rep = private_information(make_channel("identity"), FAST)
        assert np.isclose(rep.P1, 1.0, atol=1e-5)

    def test_broadcast_channel_leaks_everything(self):
        rep = private_information(make_channel("measure_prepare"), FAST)
        assert rep.P1 <= 1e-6

    def test_dephasing_matches_quantum_value(self):
        rep = private_information(make_channel("dephasing", p=0.1), FAST)
        assert np.isclose(rep.P1, 0.5310044064107188, atol=1e-4)

    def test_reruns_are_byte_identical(self):
        ch = random_cptp_channel(2, 3, 2, np.random.default_rng(0))
        assert repr(private_information(ch, FAST)) == repr(private_information(ch, FAST))

    def test_erasure_value_and_ordering(self):
        ch = make_channel("erasure", p=0.2)
        p1 = private_information(ch, FAST).P1
        assert np.isclose(p1, 0.6, atol=1e-9)
        assert p1 <= hsw_numeric(ch, FAST).C_hsw + 1e-6

    @pytest.mark.parametrize("d_in,d_out", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_pure_ensemble_chi_gap_is_coherent_information(self, d_in, d_out):
        # S(N(psi)) = S(N^c(psi)) for pure psi, so chi_B - chi_E = I_coh(average)
        rng = np.random.default_rng(d_in * 10 + d_out)
        for _ in range(3):
            ch = random_cptp_channel(d_in, d_out, int(rng.integers(2, 5)), rng)
            comp = complementary(ch)
            amps = rng.standard_normal((4, d_in)) + 1j * rng.standard_normal((4, d_in))
            amps /= np.linalg.norm(amps, axis=1)[:, None]
            ens = Ensemble(rng.dirichlet(np.ones(4)), [
                DensityMatrix(np.outer(a, a.conj()), repair=True) for a in amps
            ])

            def chi(channel):
                outputs = [apply(channel, s) for s in ens.states]
                return float(holevo_quantity(Ensemble(ens.weights, outputs)))

            i_coh = float(coherent_information(ens.average(), ch)[0])
            assert abs(chi(ch) - chi(comp) - i_coh) <= 1e-10

    def test_is_the_q1_solver(self):
        assert private_information is quantum_capacity_single_use
        rep = quantum_capacity_single_use(make_channel("amplitude_damping", gamma=0.3), FAST)
        assert rep.P1 == rep.Q1 > 0.0

    def test_equals_the_q1_search(self):
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        p1 = private_information(ch, FAST)
        q1 = quantum_capacity_single_use(ch, FAST)
        assert p1.P1 == q1.Q1
        assert p1.optimizer == q1.optimizer


class TestAnalytic:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_erasure_forms(self, p):
        rep = analytic_capacity("erasure", p=p)
        assert np.isclose(rep.C_hsw, 1.0 - p, atol=1e-12)
        assert np.isclose(rep.Q1, max(1.0 - 2.0 * p, 0.0), atol=1e-12)
        # past p = 1/2 the optimum is 0, at any pure input, not I_coh at I/2
        assert np.isclose(rep.Q1_raw, max(1.0 - 2.0 * p, 0.0), atol=1e-12)

    @pytest.mark.parametrize("kind,params", [
        ("erasure", {"p": 0.7}),
        ("erasure", {"p": 1.0}),
        ("erasure", {"p": 0.6, "d": 3}),
        ("mixed_erasure", {"p": 0.5, "q": 0.5}),
        ("mixed_erasure", {"p": 0.2, "q": 0.3}),
        ("phase_erasure", {"q": 1.0}),
    ], ids=repr)
    def test_erasure_raw_rate_is_the_searched_optimum(self, kind, params):
        rep = analytic_capacity(kind, **params)
        searched = quantum_capacity_single_use(make_channel(kind, **params))
        assert abs(rep.Q1_raw - searched.Q1_raw) <= 1e-9

    def test_erasure_scales_with_dimension(self):
        rep = analytic_capacity("erasure", p=0.25, d=4)
        assert np.isclose(rep.C_hsw, 1.5, atol=1e-12)
        assert np.isclose(rep.Q1, 1.0, atol=1e-12)

    def test_phase_erasure_keeps_classical_rate(self):
        rep = analytic_capacity("phase_erasure", q=0.4)
        assert np.isclose(rep.C_hsw, 1.0, atol=1e-12)
        assert np.isclose(rep.Q1, 0.6, atol=1e-12)

    def test_mixed_erasure_combines_both_losses(self):
        rep = analytic_capacity("mixed_erasure", p=0.2, q=0.3)
        assert np.isclose(rep.C_hsw, 0.8, atol=1e-12)
        assert np.isclose(rep.Q1_raw, 1.0 - 0.3 - 0.4, atol=1e-12)

    def test_mixed_erasure_rejects_excess_total(self):
        with pytest.raises(InvalidParameter):
            analytic_capacity("mixed_erasure", p=0.7, q=0.7)

    @pytest.mark.parametrize("gamma,expected", sorted(DAMPING_Q.items()))
    def test_damping_matches_reference(self, gamma, expected):
        rep = analytic_capacity("amplitude_damping", gamma=gamma)
        assert np.isclose(rep.Q1, expected, atol=1e-9)

    def test_damping_above_half_is_dead(self):
        for gamma in (0.5, 0.7, 1.0):
            rep = analytic_capacity("amplitude_damping", gamma=gamma)
            assert rep.Q1 == 0.0
            assert rep.Q1_raw <= 0.0

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.49, 0.5, 0.7])
    def test_damping_matches_a_bounded_scalar_search(self, gamma):
        from scipy.optimize import minimize_scalar

        def neg_q(tau):
            return float(binary_entropy(gamma * tau)) - float(binary_entropy((1.0 - gamma) * tau))

        res = minimize_scalar(neg_q, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-9})
        rep = analytic_capacity("amplitude_damping", gamma=gamma)
        assert abs(rep.Q1 - max(-float(res.fun), 0.0)) <= 1e-12

    @pytest.mark.parametrize("p,expected", sorted(DEPOLARIZING_CHI.items()))
    def test_depolarizing_matches_reference(self, p, expected):
        rep = analytic_capacity("depolarizing", p=p)
        assert np.isclose(rep.C_hsw, expected, atol=1e-12)

    def test_binary_symmetric_channel(self):
        rep = analytic_capacity("bsc", p=0.25)
        assert np.isclose(rep.C_hsw, 0.18872187554086717, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(Unsupported):
            analytic_capacity("dephasing", p=0.3)

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(InvalidParameter):
            analytic_capacity("erasure", p=1.5)

    @pytest.mark.parametrize("kind,params", [
        ("erasure", {}),
        ("bsc", {}),
        ("depolarizing", {"p": "abc"}),
        ("depolarizing", {"p": None}),
        ("phase_erasure", {"q": float("nan")}),
        ("amplitude_damping", {"gamma": float("inf")}),
        ("erasure", {"p": 0.2, "d": 2.7}),
        ("erasure", {"p": 0.2, "d": 10**9}),
        ("erasure", {"p": 0.2, "d": 1}),
        ("bsc", {"p": 0.2, "d": 2}),
    ])
    def test_malformed_parameter_rejected(self, kind, params):
        with pytest.raises(InvalidParameter):
            analytic_capacity(kind, **params)

    @pytest.mark.parametrize("kind,params", [
        ("phase_erasure", {"q": 0.3, "d": 3}),
        ("mixed_erasure", {"p": 0.2, "q": 0.3, "d": 4}),
    ])
    def test_qubit_only_families_refuse_other_dimensions(self, kind, params):
        """As make_channel does: these families are defined for qubits only."""
        with pytest.raises(Unsupported):
            analytic_capacity(kind, **params)

    def test_damping_takes_p_as_the_complement_of_gamma(self):
        by_p = analytic_capacity("amplitude_damping", p=0.7)
        assert by_p.channel_label == "analytic:amplitude_damping(gamma=0.3)"
        assert np.isclose(by_p.Q1, analytic_capacity("amplitude_damping", gamma=0.3).Q1, atol=1e-12)


def _qudit_smin_panel():
    panel = np.random.default_rng(0)
    return [
        make_channel("erasure", p=0.2),
        make_channel("erasure", p=0.6),
        make_channel("mixed_erasure", p=0.2, q=0.3),
        random_cptp_channel(2, 3, 2, panel),
        random_cptp_channel(3, 2, 2, panel),
    ]


class TestMinEntropyReport:
    def test_qubit_channel_reports_zero_stats(self):
        rep = _min_entropy_report(make_channel("amplitude_damping", gamma=0.3), FAST)
        assert rep.optimizer == OptimizerStats(0, 0, None, certificate_residual=0.0)
        assert rep.S_min == 0.0

    @pytest.mark.parametrize("channel", _qudit_smin_panel(), ids=lambda ch: ch.label)
    def test_search_reports_a_converged_winner(self, channel):
        rep = _min_entropy_report(channel, OptimizerConfig())
        assert rep.optimizer.converged is True
        assert 1 <= rep.optimizer.restarts <= 32
        assert rep.optimizer.evaluations >= rep.optimizer.restarts

    def test_seed_reaches_the_search(self):
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        a = _min_entropy_report(ch, OptimizerConfig(seed=0))
        b = _min_entropy_report(ch, OptimizerConfig(seed=5))
        assert a.optimizer != b.optimizer
        assert np.isclose(a.S_min, b.S_min, atol=1e-9)


class TestFullReport:
    def test_merges_requested_measures(self):
        rep = full_report(
            make_channel("amplitude_damping", gamma=0.3),
            FAST,
            measures=("hsw", "qcap", "minent"),
        )
        assert rep.C_hsw is not None
        assert rep.Q1 is not None
        assert rep.S_min is not None
        assert rep.C_E is None

    def test_all_measures_fill_every_field(self):
        rep = full_report(make_channel("dephasing", p=0.2), FAST, measures="all")
        for name in ("chi", "C_hsw", "Q1", "Q1_raw", "C_E", "P1", "r_star", "S_min"):
            assert getattr(rep, name) is not None, name

    def test_quantum_never_beats_classical(self):
        rep = full_report(
            make_channel("amplitude_damping", gamma=0.2),
            FAST,
            measures=("hsw", "qcap"),
        )
        assert rep.Q1 <= rep.C_hsw + 1e-6

    def test_all_leaves_out_what_a_qudit_channel_does_not_support(self):
        rep = full_report(make_channel("erasure", p=0.3, d=3), FAST, measures="all")
        assert rep.r_star is None
        for name in ("C_hsw", "Q1", "C_E", "P1", "S_min"):
            assert getattr(rep, name) is not None, name
        assert "hsw-geo left out: geometric solver handles qubit channels" in rep.notes

    def test_named_unsupported_measure_still_raises(self):
        ch = make_channel("erasure", p=0.3, d=3)
        with pytest.raises(Unsupported):
            full_report(ch, FAST, measures=("hsw", "hsw-geo"))
        with pytest.raises(Unsupported):
            full_report(ch, FAST, measures=("hsw-geo", "all"))

    def test_unknown_measure_rejected(self):
        with pytest.raises(InvalidParameter):
            full_report(make_channel("identity"), FAST, measures=("hsw", "bogus"))

    def test_convergence_is_and_of_solvers(self, monkeypatch):
        ch = make_channel("bit_flip", p=0.2)
        assert full_report(ch, FAST, measures=("hsw", "qcap")).optimizer.converged is True
        real = capacity.hsw_numeric

        def unconverged(channel, cfg=None):
            rep = real(channel, cfg)
            return replace(rep, optimizer=replace(rep.optimizer, converged=False))

        monkeypatch.setattr(capacity, "hsw_numeric", unconverged)
        assert full_report(ch, FAST, measures=("hsw", "qcap")).optimizer.converged is False

    def test_optimizer_stats_accumulate(self):
        rep = full_report(
            make_channel("bit_flip", p=0.2), FAST, measures=("hsw", "qcap")
        )
        solo = hsw_numeric(make_channel("bit_flip", p=0.2), FAST)
        assert rep.optimizer.restarts > solo.optimizer.restarts
        qcap = quantum_capacity_single_use(make_channel("bit_flip", p=0.2), FAST)
        assert rep.optimizer.evaluations == (
            solo.optimizer.evaluations + qcap.optimizer.evaluations
        )

    def test_min_entropy_stats_join_the_sum(self):
        ch = random_cptp_channel(2, 3, 2, np.random.default_rng(0))
        measures = ("hsw", "qcap", "ea", "private", "minent")
        rep = full_report(ch, FAST, measures=measures)
        # private shares qcap's search, so it adds nothing to the sum
        solos = [
            hsw_numeric(ch, FAST),
            quantum_capacity_single_use(ch, FAST),
            entanglement_assisted(ch, FAST),
            _min_entropy_report(ch, FAST),
        ]
        assert solos[-1].optimizer.evaluations > 0
        assert rep.optimizer.evaluations == sum(s.optimizer.evaluations for s in solos)
        assert rep.optimizer.restarts == sum(s.optimizer.restarts for s in solos)

    def test_all_runs_the_coherent_search_once(self, monkeypatch):
        real = capacity._maximize_state_functional
        calls = []

        def counted(channel, cfg, coeffs, *args, **kwargs):
            calls.append(coeffs)
            return real(channel, cfg, coeffs, *args, **kwargs)

        monkeypatch.setattr(capacity, "_maximize_state_functional", counted)
        ch = random_cptp_channel(3, 2, 2, np.random.default_rng(0))
        rep = full_report(ch, FAST, measures="all")
        assert calls == [_COHERENT, _MUTUAL, _NEG_OUTPUT]
        assert rep.P1 == rep.Q1

    @pytest.mark.parametrize("measures,filled", [
        (("qcap",), ("Q1", "Q1_raw")),
        (("private",), ("P1",)),
    ])
    def test_shared_search_fills_only_the_requested_fields(self, measures, filled):
        rep = full_report(make_channel("amplitude_damping", gamma=0.3), FAST, measures=measures)
        for name in ("Q1", "Q1_raw", "P1"):
            assert (getattr(rep, name) is not None) == (name in filled), name

    def test_tolerance_is_the_worst_one_present(self):
        ch = make_channel("amplitude_damping", gamma=0.3)
        one = OptimizerConfig(restarts=1)
        q1 = quantum_capacity_single_use(ch, one).optimizer
        assert q1.restart_spread is None
        geo = hsw_geometric(ch, one).optimizer
        rep = full_report(ch, one, measures=("qcap", "hsw-geo"))
        assert rep.optimizer.restart_spread is None
        assert rep.optimizer.certificate_residual == max(
            q1.certificate_residual, geo.certificate_residual
        )
        assert full_report(ch, one, measures=("qcap",)).optimizer.restart_spread is None
        # a spread and a residual from different solvers are not merged into one
        rep = full_report(ch, FAST, measures=("hsw", "hsw-geo"))
        assert rep.optimizer.restart_spread == hsw_numeric(ch, FAST).optimizer.restart_spread
        assert rep.optimizer.certificate_residual == geo.certificate_residual

"""Capacity solvers.

Numeric optimizers for the single-letter capacities (Holevo ensemble
optimization, coherent-information maximization, entanglement-assisted
mutual information, private information), an independent geometric
solver that finds the informational radius r* of a qubit channel as a
min-max relative-entropy ball problem, and closed forms for the channel
families that have them.

All solvers are deterministic for a fixed OptimizerConfig seed, use
multi-start local refinement (sequential, lowest start index wins ties),
and report single-letter quantities: every value is a one-use optimum,
which lower-bounds the regularized capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .channels import (
    QuantumChannel,
    _superoperator,
    affine_representation,
    complementary,
    from_kraus,
    is_cptp,
    is_unital,
    min_output_entropy,
)
from .entropy import (
    _bloch_divergences,
    _bloch_negentropy,
    _bloch_sigma_terms,
    _entropy_and_log2,
    binary_entropy,
)
from .errors import InvalidChannel, InvalidParameter, Unsupported
from .qmath import DensityMatrix, Ensemble, from_bloch

_DIM_LIMIT = 8
_TINY = 1e-300
_LN2 = math.log(2.0)
# Largest Bloch radius the entropy slope -atanh(r)/ln 2 is evaluated at, so
# that pure outputs (amplitude damping at r = 1) keep a finite gradient.
_SLOPE_RADIUS = 1.0 - 1e-15
# (c_rho, c_out, c_env) of the state functionals sum_X c_X S(X(rho)) that
# quantum_capacity_single_use and entanglement_assisted maximize
_COHERENT = (0.0, 1.0, -1.0)
_MUTUAL = (1.0, 1.0, -1.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the numeric solvers."""

    max_inputs: int = 4
    restarts: int = 32
    tolerance: float = 1e-6
    seed: int = 0


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class OptimizerStats:
    """Work a solve did; evaluations sums res.nfev over every minimize call.

    converged is the optimizer's own success flag for the reported optimum.
    """

    iterations: int
    restarts: int
    achieved_tolerance: float
    evaluations: int = 0
    converged: bool = True


@dataclass(frozen=True)
class CapacityReport:
    """Named single-letter results; unset fields are None."""

    channel_label: str
    chi: Optional[float] = None
    C_hsw: Optional[float] = None
    Q1: Optional[float] = None
    Q1_raw: Optional[float] = None
    C_E: Optional[float] = None
    P1: Optional[float] = None
    r_star: Optional[float] = None
    S_min: Optional[float] = None
    optimizer: Optional[OptimizerStats] = None
    optimal_ensemble: Optional[Ensemble] = None
    notes: tuple = field(default_factory=tuple)


def _require_solvable(channel: QuantumChannel) -> None:
    if channel.kraus is None:
        raise InvalidChannel("channel has no Kraus representation; capacity undefined")
    if channel.dim_in > _DIM_LIMIT or channel.dim_out > _DIM_LIMIT:
        raise Unsupported(
            f"solver limit is dimension {_DIM_LIMIT}, got {channel.dim_in}->{channel.dim_out}"
        )
    if not is_cptp(channel):
        raise InvalidChannel("capacity solvers need a CPTP channel")


def _clamp_zero(x: float) -> float:
    """max(x, 0.0) that returns +0.0, never -0.0 (max(-0.0, 0.0) is -0.0)."""
    return x if x > 0.0 else 0.0


def _softmax(w: np.ndarray) -> np.ndarray:
    e = np.exp(w - w.max())
    return e / e.sum()


class _MultiStart:
    """Sequential multi-start minimizer with a plateau early exit.

    Runs local refinements from the given starts in order, keeps the best
    result (earliest start wins ties), and stops early once at least 8
    starts ran and 6 in a row failed to improve. Never exceeds
    cfg.restarts starts. converged is the winner's success flag, or True
    when a later start tied it within 1e-15 and converged.
    """

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.best_val = math.inf
        self.best_x = None
        self.converged = True
        self.runner_up = math.inf
        self.iterations = 0
        self.evaluations = 0
        self.started = 0
        self._since_improve = 0

    def run(self, objective: Callable, starts, method="L-BFGS-B", options=None, jac=None):
        from scipy.optimize import minimize

        options = options or {}
        for x0 in starts:
            if self.started >= self.cfg.restarts:
                break
            res = minimize(
                objective, np.asarray(x0, dtype=float), method=method, jac=jac, options=options
            )
            self.started += 1
            self.iterations += int(res.nit)
            self.evaluations += int(res.nfev)
            val = float(res.fun)
            if val < self.best_val - 1e-15:
                self.runner_up = self.best_val
                self.best_val = val
                self.best_x = np.asarray(res.x, dtype=float)
                self.converged = bool(res.success)
                self._since_improve = 0
            else:
                # a tie that converged confirms the optimum the winner found
                self.converged |= val <= self.best_val + 1e-15 and bool(res.success)
                self.runner_up = min(self.runner_up, val)
                self._since_improve += 1
            if self.started >= 8 and self._since_improve >= 6:
                break
        return self

    def stats(self) -> OptimizerStats:
        if math.isfinite(self.runner_up) and math.isfinite(self.best_val):
            spread = abs(self.runner_up - self.best_val)
        else:
            spread = self.cfg.tolerance
        return OptimizerStats(
            self.iterations, self.started, spread, self.evaluations, self.converged
        )


def _axis_ensemble_starts(m: int, rng: np.random.Generator, total: int):
    """Start points for m-member qubit ensembles: axis pairs, then random."""
    axes = [
        np.array([0.0, 0.0, 1.0]),
        np.array([0.0, 0.0, -1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([-1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, -1.0, 0.0]),
    ]
    structured = [
        [axes[0], axes[1], axes[2], axes[3]],
        [axes[0], axes[1], axes[4], axes[5]],
        [axes[2], axes[3], axes[4], axes[5]],
        [axes[0], axes[1], axes[0], axes[1]],
    ]
    starts = []
    for vecs in structured:
        vecs = (vecs * m)[:m]
        starts.append(np.concatenate([np.concatenate(vecs), np.zeros(m)]))
    while len(starts) < total:
        x = rng.standard_normal(3 * m)
        w = 0.1 * rng.standard_normal(m)
        starts.append(np.concatenate([x, w]))
    return starts


def _unpack_bloch_ensemble(t: np.ndarray, m: int):
    xs = t[: 3 * m].reshape(m, 3)
    norms = np.maximum(np.linalg.norm(xs, axis=1), 1e-12)
    us = xs / norms[:, None]
    w = _softmax(t[3 * m :])
    return us, w, norms


def _qubit_neg_chi(a: np.ndarray, b: np.ndarray, m: int) -> Callable:
    """-chi of an m-member ensemble of pure qubit inputs, with its gradient.

    The objective takes t = (x_1..x_m, logits): input Bloch directions
    u_k = x_k / |x_k| and softmax weights w. For the channel r -> A r + b,
    -chi = sum_k w_k S(r_k) - S(R) with r_k = |A u_k + b| and R the radius
    of the weighted mean output. The gradient uses dS/dr = -atanh(r)/ln 2.
    """
    a_t = a.T

    def neg_chi(t):
        us, w, norms = _unpack_bloch_ensemble(t, m)
        outs = us @ a_t + b
        avg = w @ outs
        rads = np.sqrt(np.concatenate(((outs * outs).sum(axis=1), [avg @ avg])))
        ent = 1.0 - _bloch_negentropy(rads)
        value = float(w @ ent[:m] - ent[m])
        # (dS/dr) / r per output; outputs at r = 0 are the zero vector,
        # so any finite factor gives them a zero gradient
        slope = -np.arctanh(np.minimum(rads, _SLOPE_RADIUS)) / (_LN2 * np.maximum(rads, _TINY))
        d_outs = w[:, None] * (slope[:m, None] * outs - slope[m] * avg)
        d_us = d_outs @ a
        d_xs = (d_us - us * (us * d_us).sum(axis=1)[:, None]) / norms[:, None]
        d_w = ent[:m] - slope[m] * (outs @ avg)
        return value, np.concatenate((d_xs.reshape(-1), w * (d_w - w @ d_w)))

    return neg_chi


def _hsw_qubit(channel: QuantumChannel, cfg: OptimizerConfig):
    from scipy.optimize import minimize

    aff = affine_representation(channel)
    m = max(2, int(cfg.max_inputs))
    neg_chi = _qubit_neg_chi(aff.A, aff.b, m)

    rng = np.random.default_rng(cfg.seed)
    opts = {"maxiter": 300, "ftol": 1e-13, "gtol": 1e-9}
    ms = _MultiStart(cfg).run(
        neg_chi, _axis_ensemble_starts(m, rng, cfg.restarts), options=opts, jac=True
    )

    # prune negligible members, then polish once more
    us, w, _ = _unpack_bloch_ensemble(ms.best_x, m)
    keep = w > 1e-4
    if keep.sum() >= 1 and keep.sum() < m:
        us = np.concatenate([us[keep], us[[0] * (m - int(keep.sum()))]])
        w = np.concatenate([w[keep], np.zeros(m - int(keep.sum()))])
        w = w / w.sum()
        logits = np.log(np.maximum(w, 1e-12))
        t0 = np.concatenate([us.reshape(-1), logits])
        res = minimize(neg_chi, t0, method="L-BFGS-B", jac=True, options=opts)
        ms.evaluations += int(res.nfev)
        if float(res.fun) <= ms.best_val:
            ms.best_x = np.asarray(res.x, dtype=float)
            ms.best_val = float(res.fun)
            ms.converged = bool(res.success)
            ms.iterations += int(res.nit)

    us, w, _ = _unpack_bloch_ensemble(ms.best_x, m)
    chi = _clamp_zero(-ms.best_val)
    keep = w > 1e-4
    w_kept = w[keep] / w[keep].sum()
    states = [from_bloch(u) for u in us[keep]]
    ensemble = Ensemble(w_kept, states)
    return chi, ensemble, ms.stats()


def _basis_ensemble_starts(d: int, m: int, rng: np.random.Generator, total: int):
    starts = []
    base = np.zeros(m * 2 * d)
    for k in range(m):
        base[k * 2 * d + (k % d)] = 1.0
    starts.append(np.concatenate([base, np.zeros(m)]))
    uniform = np.tile(np.concatenate([np.ones(d), np.zeros(d)]) / math.sqrt(d), m)
    starts.append(np.concatenate([uniform, np.zeros(m)]))
    while len(starts) < total:
        starts.append(
            np.concatenate([rng.standard_normal(m * 2 * d), 0.1 * rng.standard_normal(m)])
        )
    return starts


def _unpack_vector_ensemble(t: np.ndarray, m: int, d: int):
    """(states psi_k, weights w, norms |a_k|, live mask) of t = (x_1, y_1, ..., logits).

    Amplitudes a_k = x_k + i y_k; a member with |a_k| < 1e-12 is not live:
    it becomes e_0 and its norm is reported as 1.
    """
    seg = t[: 2 * m * d].reshape(m, 2, d)
    amps = seg[:, 0] + 1j * seg[:, 1]
    norms = np.linalg.norm(amps, axis=1)
    live = norms >= 1e-12
    psi = np.zeros((m, d), dtype=complex)
    psi[:, 0] = 1.0
    psi[live] = amps[live] / norms[live, None]
    return psi, _softmax(t[2 * m * d :]), np.where(live, norms, 1.0), live


def _pure_ensemble_neg_chi(kraus, m: int, d: int) -> Callable:
    """-chi of an m-member ensemble of pure inputs, with its gradient.

    The objective takes t = (x_1, y_1, ..., x_m, y_m, logits), unpacked by
    _unpack_vector_ensemble. With v_ki = K_i psi_k, out_k = sum_i v_ki v_ki^dag
    and avg = sum_k w_k out_k, -chi = sum_k w_k S(out_k) - S(avg). Its
    differential in out_k is Tr(M_k d out_k) with M_k = w_k (log2 avg - log2 out_k).
    Eigenvalues are floored inside log2 only: every v_ki lies in the range
    of out_k and of avg, so the null-space block never reaches the gradient.
    """
    ks = np.asarray(kraus, dtype=complex)
    ks_conj = ks.conj()

    def neg_chi(t):
        psi, w, norms, live = _unpack_vector_ensemble(t, m, d)
        v = np.einsum("iod,kd->kio", ks, psi)
        outs = np.einsum("kio,kip->kop", v, v.conj())
        outs = np.concatenate((outs, np.tensordot(w, outs, axes=1)[None]))
        ent, logm = _entropy_and_log2(outs)
        mk = w[:, None, None] * (logm[m] - logm[:m])
        g = 2.0 * np.einsum("iod,kio->kd", ks_conj, np.einsum("kop,kip->kio", mk, v))
        g = (g - (psi.conj() * g).sum(axis=1).real[:, None] * psi) / norms[:, None]
        g[~live] = 0.0
        d_w = ent[:m] + np.einsum("op,kpo->k", logm[m], outs[:m]).real
        grad = np.concatenate(
            (np.stack((g.real, g.imag), axis=1).reshape(-1), w * (d_w - w @ d_w))
        )
        return float(w @ ent[:m] - ent[m]), grad

    return neg_chi


def _hsw_general(channel: QuantumChannel, cfg: OptimizerConfig):
    d = channel.dim_in
    m = max(2, int(cfg.max_inputs))
    rng = np.random.default_rng(cfg.seed)
    opts = {"maxiter": 200, "ftol": 1e-13, "gtol": 1e-8}
    neg_chi = _pure_ensemble_neg_chi(channel.kraus, m, d)
    starts = _basis_ensemble_starts(d, m, rng, cfg.restarts)
    ms = _MultiStart(cfg).run(neg_chi, starts, options=opts, jac=True)
    psi, w, _, _ = _unpack_vector_ensemble(ms.best_x, m, d)
    chi = _clamp_zero(-ms.best_val)
    keep = w > 1e-4
    w_kept = w[keep] / w[keep].sum()
    ensemble = Ensemble(w_kept, [_pure_density(amp) for amp in psi[keep]])
    return chi, ensemble, ms.stats()


def _pure_density(amp: np.ndarray) -> DensityMatrix:
    return DensityMatrix(np.outer(amp, amp.conj()), repair=True)


def hsw_numeric(channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None) -> CapacityReport:
    """Single-letter Holevo capacity by ensemble optimization.

    Maximizes chi over ensembles of cfg.max_inputs pure input states with
    free priors. Qubit-to-qubit channels run on a fast Bloch-coordinate
    path; everything else uses explicit state vectors.
    """
    cfg = cfg or DEFAULT_CONFIG
    _require_solvable(channel)
    if channel.dim_in == 2 and channel.dim_out == 2:
        chi, ensemble, stats = _hsw_qubit(channel, cfg)
    else:
        chi, ensemble, stats = _hsw_general(channel, cfg)
    return CapacityReport(
        channel_label=channel.label,
        chi=chi,
        C_hsw=chi,
        optimizer=stats,
        optimal_ensemble=ensemble,
        notes=("single-letter value; lower bound on the regularized capacity",),
    )


def _fibonacci_directions(n: int) -> np.ndarray:
    """n roughly uniform unit vectors on the sphere, deterministic."""
    i = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def _angles_to_unit(theta: float, phi: float) -> np.ndarray:
    s = math.sin(theta)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(theta)])


def _xlog2(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _surface_divergence(aff, sigma: np.ndarray) -> Callable:
    """-D(A u(theta, phi) + b || sigma) as scalar math over the two angles."""
    direction, log_term, half_log_ratio = _bloch_sigma_terms(sigma)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = aff.A.tolist()
    b0, b1, b2 = aff.b.tolist()
    c0, c1, c2 = (aff.A.T @ direction).tolist()
    c_b = float(aff.b @ direction)

    def neg_div(angles):
        theta, phi = float(angles[0]), float(angles[1])
        st = math.sin(theta)
        u0, u1, u2 = st * math.cos(phi), st * math.sin(phi), math.cos(theta)
        s0 = a00 * u0 + a01 * u1 + a02 * u2 + b0
        s1 = a10 * u0 + a11 * u1 + a12 * u2 + b1
        s2 = a20 * u0 + a21 * u1 + a22 * u2 + b2
        r = min(math.sqrt(s0 * s0 + s1 * s1 + s2 * s2), 1.0)
        negentropy = 0.5 * (_xlog2(1.0 + r) + _xlog2(1.0 - r))
        along = c0 * u0 + c1 * u1 + c2 * u2 + c_b
        return -((negentropy - log_term) - along * half_log_ratio)

    return neg_div


def hsw_geometric(channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None) -> CapacityReport:
    """Informational radius r* of a qubit channel.

    Finds min over states sigma of the max relative entropy from the
    channel's output ellipsoid to sigma; that radius equals the HSW
    capacity. Works entirely in Bloch coordinates and never calls the
    ensemble optimizer, so it is an independent cross-check of
    hsw_numeric. The optimal sigma is certified as a convex mixture of
    the divergence maximizers with equal divergences. optimizer.converged
    ANDs the success flags of the outer sigma runs and of the polishes
    whose point entered the support.
    """
    from scipy.optimize import minimize, nnls

    cfg = cfg or DEFAULT_CONFIG
    if channel.dim_in != 2 or channel.dim_out != 2:
        raise Unsupported("geometric solver handles qubit channels")
    _require_solvable(channel)
    aff = affine_representation(channel)
    dirs = _fibonacci_directions(2048)
    points = dirs @ aff.A.T + aff.b
    notes = ["single-letter value; lower bound on the regularized capacity"]

    if np.ptp(points, axis=0).max() < 1e-12:
        return CapacityReport(
            channel_label=channel.label,
            r_star=0.0,
            optimizer=OptimizerStats(0, 0, 0.0),
            notes=tuple(notes + ["constant-output channel"]),
        )

    # 1 - S(point) does not depend on sigma: computed once per support point
    points_negentropy = _bloch_negentropy(np.linalg.norm(points, axis=1))
    support, negentropy = points, points_negentropy
    iterations = 0
    evaluations = 0
    converged = True

    def outer(sig):
        if math.sqrt(float(sig @ sig)) >= 1.0 - 1e-9:
            return math.inf
        return float(_bloch_divergences(support, negentropy, sig).max())

    sigma = points.mean(axis=0)
    for _ in range(4):
        res = minimize(
            outer,
            sigma,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 1200},
        )
        iterations += int(res.nit)
        evaluations += int(res.nfev)
        converged = converged and bool(res.success)
        sigma = np.asarray(res.x, dtype=float)
        # polish the inner maximum over the output ellipsoid surface
        vals = _bloch_divergences(points, points_negentropy, sigma)
        order = np.argsort(vals)[::-1]
        new_points = []
        best_polished = float(vals[order[0]])
        neg_div = _surface_divergence(aff, sigma)

        for idx in order[:8]:
            u0 = dirs[idx]
            theta = math.acos(max(-1.0, min(1.0, u0[2])))
            phi = math.atan2(u0[1], u0[0])
            pol = minimize(
                neg_div,
                np.array([theta, phi]),
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 500},
            )
            iterations += int(pol.nit)
            evaluations += int(pol.nfev)
            val = -float(pol.fun)
            if val > best_polished + 1e-12:
                converged = converged and bool(pol.success)
                new_points.append(aff(_angles_to_unit(*pol.x)))
                best_polished = max(best_polished, val)
        if not new_points:
            break
        new_points = np.array(new_points)
        support = np.vstack([support, new_points])
        negentropy = np.concatenate(
            [negentropy, _bloch_negentropy(np.linalg.norm(new_points, axis=1))]
        )

    vals = _bloch_divergences(support, negentropy, sigma)
    r_star = float(vals.max())

    # certificate: sigma must be a convex mixture of the maximizers,
    # all of which sit at the same divergence
    maximizers = support[vals >= r_star - 1e-6]
    a_aug = np.vstack([maximizers.T, np.ones(len(maximizers))])
    b_aug = np.concatenate([sigma, [1.0]])
    weights, _ = nnls(a_aug, b_aug)
    cert_residual = float(np.linalg.norm(a_aug @ weights - b_aug))
    if cert_residual > 1e-3:
        notes.append(f"certificate residual {cert_residual:.2e} above 1e-3")
    if is_unital(channel) and float(np.linalg.norm(sigma)) > 1e-4:
        notes.append("unital channel but optimal sigma is off-center")

    return CapacityReport(
        channel_label=channel.label,
        r_star=r_star,
        optimizer=OptimizerStats(iterations, 1, cert_residual, evaluations, converged),
        notes=tuple(notes),
    )


def _state_param_starts(d: int, rng: np.random.Generator, total: int):
    starts = []
    eye = np.eye(d).reshape(-1)
    starts.append(np.concatenate([eye, np.zeros(d * d)]))
    while len(starts) < total:
        starts.append(rng.standard_normal(2 * d * d))
    return starts


def _state_linear_forms(kraus) -> np.ndarray:
    """Rows F_ab, one per input matrix unit |a><b|, with vec(rho) @ F = (N(rho), env(rho)).

    The channel output and the environment matrix env_ij = Tr(K_i rho K_j^dag)
    are the images of rho under the channel and its complementary channel;
    each row holds the two matrices flattened and concatenated, so one
    product per evaluation yields both.
    """
    channel = from_kraus(kraus)
    forms = np.vstack([_superoperator(channel), _superoperator(complementary(channel))])
    return np.ascontiguousarray(forms.T)  # one contiguous row per input matrix unit


def _state_neg_value(kraus, coeffs) -> Callable:
    """-f and its gradient for f(rho) = c_rho S(rho) + c_out S(N(rho)) + c_env S(env(rho)).

    x = (Re M, Im M), each d x d flattened; rho = M M^dag / t, t = Tr M M^dag.
    The rho-gradient is G = sum_X c_X X^dag(-log2 X(rho)), the adjoints of N
    and env taken from the forms matrix F as F @ vec(L^T); every X preserves
    trace and Tr(d rho) = 0, so the -1/ln 2 term of dS drops. With
    H = G - Tr(G rho) I the gradient is (2/t) (Re HM, Im HM).

    Rank-deficient X(rho): for full-rank rho its null space is that of X(I),
    which no dX reaches. A further null vector needs a singular M (amplitude
    damping at |0>, say); then d rho has no block on the null space of
    M^dag, X^dag of X's null-space projector lives on that null space, and
    HM drops it. So the floored block of log2 X never reaches the gradient,
    which stays the exact derivative in M on the boundary of the state space.
    """
    forms = _state_linear_forms(kraus)
    (d_out, d), n = kraus[0].shape, len(kraus)
    cut = d_out * d_out
    c_rho, c_out, c_env = coeffs
    eye = np.eye(d)

    def neg_value(x):
        m = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
        p = m @ m.conj().T
        t = float(np.trace(p).real)
        if t < 1e-12:  # a vanishing M stands for the identity
            m, p, t = eye, eye, float(d)
        rho = p / t
        flat = rho.reshape(-1) @ forms
        s_out, log_out = _entropy_and_log2(flat[:cut].reshape(d_out, d_out))
        s_env, log_env = _entropy_and_log2(flat[cut:].reshape(n, n))
        back = np.concatenate(
            (c_out * log_out.T.reshape(-1), c_env * log_env.T.reshape(-1))
        )
        g = -(forms @ back).reshape(d, d).T
        value = c_out * s_out + c_env * s_env
        if c_rho:
            s_rho, log_rho = _entropy_and_log2(rho)
            value += c_rho * s_rho
            g -= c_rho * log_rho
        hm = (2.0 / t) * ((g - np.trace(g @ rho).real * eye) @ m)
        return -float(value), -np.concatenate((hm.real.reshape(-1), hm.imag.reshape(-1)))

    return neg_value


def _maximize_state_functional(channel: QuantumChannel, cfg: OptimizerConfig, coeffs):
    """Maximize c_rho S(rho) + c_out S(N(rho)) + c_env S(env(rho)) over input states."""
    rng = np.random.default_rng(cfg.seed)
    opts = {"maxiter": 500, "ftol": 1e-15, "gtol": 1e-10}
    ms = _MultiStart(cfg).run(
        _state_neg_value(channel.kraus, coeffs),
        _state_param_starts(channel.dim_in, rng, cfg.restarts),
        options=opts,
        jac=True,
    )
    return -ms.best_val, ms.stats()


def quantum_capacity_single_use(
    channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None
) -> CapacityReport:
    """Single-use quantum capacity: max over inputs of the coherent information.

    Reports the clamped value Q1 = max(0, max I_coh) and keeps the raw
    optimum in Q1_raw.
    """
    cfg = cfg or DEFAULT_CONFIG
    _require_solvable(channel)

    raw, stats = _maximize_state_functional(channel, cfg, _COHERENT)
    return CapacityReport(
        channel_label=channel.label,
        Q1=_clamp_zero(raw),
        Q1_raw=raw,
        optimizer=stats,
        notes=("single-letter value; lower bound on the regularized capacity",),
    )


def entanglement_assisted(
    channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None
) -> CapacityReport:
    """Entanglement-assisted classical capacity.

    Maximizes the output mutual information S(rho) + S(N(rho)) - S_E over
    input states; for this quantity the single-use optimum already equals
    the capacity.
    """
    cfg = cfg or DEFAULT_CONFIG
    _require_solvable(channel)
    if channel.dim_in > 4:
        raise Unsupported("entanglement-assisted solver handles input dimension <= 4")

    best, stats = _maximize_state_functional(channel, cfg, _MUTUAL)
    return CapacityReport(
        channel_label=channel.label,
        C_E=_clamp_zero(best),
        optimizer=stats,
        notes=("entanglement-assisted value; single-use equals asymptotic",),
    )


def private_information(
    channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None
) -> CapacityReport:
    """Single-letter private information: max over ensembles of chi_AB - chi_AE."""
    cfg = cfg or DEFAULT_CONFIG
    _require_solvable(channel)
    if channel.dim_in > 4:
        raise Unsupported("private-information solver handles input dimension <= 4")
    d = channel.dim_in
    m = max(2, int(cfg.max_inputs))
    chi_b = _pure_ensemble_neg_chi(channel.kraus, m, d)
    chi_e = _pure_ensemble_neg_chi(complementary(channel).kraus, m, d)

    def neg_p(t):
        (val_b, grad_b), (val_e, grad_e) = chi_b(t), chi_e(t)
        return val_b - val_e, grad_b - grad_e

    rng = np.random.default_rng(cfg.seed)
    opts = {"maxiter": 200, "ftol": 1e-13, "gtol": 1e-8}
    ms = _MultiStart(cfg).run(
        neg_p, _basis_ensemble_starts(d, m, rng, cfg.restarts), options=opts, jac=True
    )
    return CapacityReport(
        channel_label=channel.label,
        P1=_clamp_zero(-ms.best_val),
        optimizer=ms.stats(),
        notes=("single-letter value; lower bound on the regularized capacity",),
    )


def analytic_capacity(kind: str, **params) -> CapacityReport:
    """Closed-form capacities for the families that have them.

    Kinds: erasure(p, d=2), phase_erasure(q, d=2), mixed_erasure(p, q,
    d=2), amplitude_damping(gamma), depolarizing(p), bsc(p). Quantum
    values are reported with the raw (unclamped) optimum in Q1_raw.
    """

    def prob(name):
        v = float(params.pop(name))
        if not 0.0 <= v <= 1.0:
            raise InvalidParameter(f"{name} = {v} outside [0, 1]")
        return v

    if kind == "erasure":
        p = prob("p")
        d = int(params.pop("d", 2))
        _reject_extra(params)
        logd = math.log2(d)
        raw = (1.0 - 2.0 * p) * logd
        return CapacityReport(
            channel_label=f"analytic:erasure(p={p:g},d={d})",
            chi=(1.0 - p) * logd,
            C_hsw=(1.0 - p) * logd,
            Q1=_clamp_zero(raw),
            Q1_raw=raw,
            notes=("closed form",),
        )
    if kind == "phase_erasure":
        q = prob("q")
        d = int(params.pop("d", 2))
        _reject_extra(params)
        logd = math.log2(d)
        return CapacityReport(
            channel_label=f"analytic:phase_erasure(q={q:g},d={d})",
            chi=logd,
            C_hsw=logd,
            Q1=(1.0 - q) * logd,
            Q1_raw=(1.0 - q) * logd,
            notes=("closed form",),
        )
    if kind == "mixed_erasure":
        p = prob("p")
        q = prob("q")
        d = int(params.pop("d", 2))
        _reject_extra(params)
        if p + q > 1.0 + 1e-12:
            raise InvalidParameter(f"p + q = {p + q:g} exceeds 1")
        logd = math.log2(d)
        raw = (1.0 - q - 2.0 * p) * logd
        return CapacityReport(
            channel_label=f"analytic:mixed_erasure(p={p:g},q={q:g},d={d})",
            chi=(1.0 - p) * logd,
            C_hsw=(1.0 - p) * logd,
            Q1=_clamp_zero(raw),
            Q1_raw=raw,
            notes=("closed form",),
        )
    if kind == "amplitude_damping":
        from scipy.optimize import minimize_scalar

        gamma = prob("gamma") if "gamma" in params else 1.0 - prob("p")
        _reject_extra(params)

        def neg_q(tau):
            return -(
                float(binary_entropy((1.0 - gamma) * tau))
                - float(binary_entropy(gamma * tau))
            )

        res = minimize_scalar(
            neg_q, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-9}
        )
        raw = -float(res.fun)
        if gamma >= 0.5:
            raw = min(raw, 0.0)
        return CapacityReport(
            channel_label=f"analytic:amplitude_damping(gamma={gamma:g})",
            Q1=_clamp_zero(raw),
            Q1_raw=raw,
            notes=("closed form; maximized over the population parameter",),
        )
    if kind == "depolarizing":
        p = prob("p")
        _reject_extra(params)
        c = 1.0 - float(binary_entropy(p / 2.0))
        return CapacityReport(
            channel_label=f"analytic:depolarizing(p={p:g})",
            chi=c,
            C_hsw=c,
            notes=("closed form",),
        )
    if kind == "bsc":
        p = prob("p")
        _reject_extra(params)
        return CapacityReport(
            channel_label=f"analytic:bsc(p={p:g})",
            chi=1.0 - float(binary_entropy(p)),
            C_hsw=1.0 - float(binary_entropy(p)),
            notes=("classical binary symmetric channel",),
        )
    raise Unsupported(f"no closed form for kind {kind!r}")


def _reject_extra(params: dict) -> None:
    if params:
        raise InvalidParameter(f"unexpected parameters {sorted(params)}")


def _min_entropy_report(channel: QuantumChannel, cfg: OptimizerConfig) -> CapacityReport:
    """min_output_entropy as a report with S_min set; it takes no optimizer knobs."""
    return CapacityReport(channel_label=channel.label, S_min=float(min_output_entropy(channel)))


# Measure name -> (solver, the report fields it fills). Its order is the order
# of --measure all and of the CLI's CSV columns. Solvers are named, not held,
# so that full_report calls whatever the module attribute is at call time.
MEASURES = {
    "hsw": ("hsw_numeric", ("chi", "C_hsw")),
    "qcap": ("quantum_capacity_single_use", ("Q1", "Q1_raw")),
    "ea": ("entanglement_assisted", ("C_E",)),
    "private": ("private_information", ("P1",)),
    "hsw-geo": ("hsw_geometric", ("r_star",)),
    "minent": ("_min_entropy_report", ("S_min",)),
}
REPORT_FIELDS = tuple(name for _, fields in MEASURES.values() for name in fields)


def full_report(
    channel: QuantumChannel,
    cfg: Optional[OptimizerConfig] = None,
    measures=("hsw",),
) -> CapacityReport:
    """Run the requested solvers and merge their fields into one report."""
    cfg = cfg or DEFAULT_CONFIG
    if measures == "all" or "all" in measures:
        measures = tuple(MEASURES)
    merged: dict = {"channel_label": channel.label}
    notes: list = []
    stats = None
    for measure in measures:
        if measure not in MEASURES:
            raise InvalidParameter(f"unknown measure {measure!r}")
        solver, fields = MEASURES[measure]
        rep = globals()[solver](channel, cfg)
        for name in fields:
            val = getattr(rep, name)
            if val is not None:
                merged[name] = val
        notes.extend(n for n in rep.notes if n not in notes)
        if rep.optimizer is not None:
            stats = rep.optimizer if stats is None else OptimizerStats(
                stats.iterations + rep.optimizer.iterations,
                stats.restarts + rep.optimizer.restarts,
                max(stats.achieved_tolerance, rep.optimizer.achieved_tolerance),
                stats.evaluations + rep.optimizer.evaluations,
                stats.converged and rep.optimizer.converged,
            )
    report = CapacityReport(optimizer=stats, notes=tuple(notes), **merged)
    _check_orderings(report)
    return report


def _check_orderings(report: CapacityReport) -> None:
    if report.Q1 is not None and report.C_hsw is not None:
        if report.Q1 > report.C_hsw + 1e-6:
            raise InvalidChannel(
                f"ordering violated: Q1 = {report.Q1} exceeds C_hsw = {report.C_hsw}"
            )

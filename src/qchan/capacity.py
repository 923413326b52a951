"""Capacity solvers.

Numeric optimizers for the single-letter capacities (Holevo ensemble
optimization, coherent-information maximization, entanglement-assisted
mutual information, private information) and the minimum output
entropy, an independent geometric solver that finds the informational
radius r* of a qubit channel as a min-max relative-entropy ball problem,
and closed forms for the channel families that have them.

The chi kernel (_pure_ensemble_neg_chi) serves hsw_numeric only. The
state kernel (_state_neg_value) serves Q1, whose one search also gives
P1 (= max I_coh), C_E and the qudit S_min, all through one search
routine (_maximize_state_functional). Every search runs one numpy
L-BFGS (_lbfgs_steps, backtracking line search) through one multi-start
function (_search: a solver's fixed starts, then seeded draws, lowest
start index wins ties), which runs every live start in one kernel call
per round and reads the results in start order, so all solvers are
deterministic for a fixed OptimizerConfig seed; hsw_geometric's coarse
centre comes from one _lbfgs run. A concave search (C_E always, Q1 on
a degradable channel) passes _search a Frank-Wolfe certificate and
stops after its first start when the certificate holds there. Every
capacity is a one-use optimum, which lower-bounds the regularized one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .channels import (
    CHANNEL_KINDS,
    QuantumChannel,
    _degradability,
    _max_output_direction,
    _max_output_radius,
    _superoperator,
    affine_representation,
    complementary,
    is_cptp,
    is_unital,
)
from .entropy import (
    _LN2,
    EntropyScalar,
    _bloch_divergences,
    _bloch_negentropy,
    _entropy_and_log2,
    _from_natural,
    _log_map,
    binary_entropy,
)
from .errors import InvalidChannel, InvalidParameter, Unsupported, _check_count
from .qmath import DensityMatrix, Ensemble, from_bloch

_DIM_LIMIT = 8
_TINY = 1e-300
_EPS = float(np.finfo(float).eps)
# Rounding noise of the entropy objectives, relative to max(|f|, 1): moving x
# by a few ulps moves them by up to 16 eps on random channels up to 8->8
_NOISE = 16.0 * _EPS
# (c_rho, c_out, c_env) of the state functionals sum_X c_X S(X(rho)) that Q1
# and P1, C_E and (as -S_min, on pure inputs) _min_entropy_report maximize
_COHERENT = (0.0, 1.0, -1.0)
_MUTUAL = (1.0, 1.0, -1.0)
_NEG_OUTPUT = (0.0, -1.0, 0.0)
# Members of the pure-input ensembles that hsw_numeric searches
_ENSEMBLE_SIZE = 4
# A concave search stops after its first start when the Frank-Wolfe gap
# there, rounding margin included, is at most this many bits
_CERTIFIED_GAP = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the numeric solvers."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_count("restarts", self.restarts, 1)
        _check_count("seed", self.seed)


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class OptimizerStats:
    """Work a solve did; evaluations sums the objective calls of every _lbfgs run.

    converged is the optimizer's own success flag for the reported optimum.
    restart_spread is the best-vs-runner-up spread of a multi-start search
    (None when no runner-up ran). certificate_residual bounds how far the
    reported value can lie from the true optimum: the Frank-Wolfe gap of a
    concave search, hsw_geometric's duality gap r* - chi, or 0.0 for a
    closed form; None where the solve has no certificate.
    """

    iterations: int
    restarts: int
    restart_spread: Optional[float]
    evaluations: int = 0
    converged: bool = True
    certificate_residual: Optional[float] = None


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


def _line_search(x, f: float, g, d, gd: float, stp: float):
    """Backtracking step along d from (x, f, g), gd = g.d < 0: (stp, x, f, g, nfev).

    A generator: it yields each trial point and is sent its (value, gradient).
    The step is the first trial with a finite value and gradient and
    sufficient decrease f_t <= f + 1e-3 stp gd (L-BFGS-B's c1), up to
    _NOISE * max(|f|, 1), so that a step which rounding hides is still
    taken. Otherwise the next trial is the minimizer of the quadratic
    through f, gd and f_t, kept within [0.1, 0.5] stp; a non-finite trial
    halves the step. stp is None when 20 evaluations end without a step.
    """
    slack = _NOISE * max(abs(f), 1.0)
    for nfev in range(1, 21):
        trial = x + stp * d
        ft, gt = yield trial
        ft = float(ft)
        if not (math.isfinite(ft) and np.isfinite(gt).all()):
            stp *= 0.5
        elif ft <= f + 1e-3 * stp * gd + slack:
            return stp, trial, ft, gt, nfev
        else:
            # ft > f + 1e-3 stp gd makes the quadratic's curvature positive
            quad = -0.5 * gd * stp * stp / (ft - f - gd * stp)
            stp = min(max(quad, 0.1 * stp), 0.5 * stp)
    return None, x, f, g, nfev


def _lbfgs_steps(x0, maxiter: int, ftol: float, gtol: float):
    """Minimize from x0 as a generator: it yields each point whose (value, gradient)
    it needs, is sent that pair, and returns (x, f, nit, nfev, success).

    Unconstrained L-BFGS (Liu & Nocedal, Math. Prog. 45, 1989): memory 10,
    the two-loop recursion with H0 = (s.y / y.y) I from the newest pair, a
    pair kept only when s.y > eps |g.s| (the backtracking _line_search checks
    no curvature), and that search from the step 1/|g| at first, then 1. As
    in L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995)
    without bounds, a run succeeds once max|g| <= gtol or (f_old - f) /
    max(|f_old|, |f|, 1) <= ftol after an iteration, and fails on reaching
    maxiter or on a failed line search with no memory left to reset; one
    with memory clears it and restarts along -g.
    """
    x = np.array(x0, dtype=float)
    f, g = yield x
    f, nit, nfev = float(f), 0, 1
    if not (math.isfinite(f) and np.isfinite(g).all()):
        return x, f, nit, nfev, False
    pairs: list = []  # (s, y, 1 / s.y), oldest first
    scale = 1.0
    while np.abs(g).max() > gtol:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * s.dot(d))
            d -= y * alphas[-1]
        d *= scale
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += s * (alpha - rho * y.dot(d))
        gd = float(g.dot(d))
        stp = min(1.0 / math.sqrt(float(d.dot(d))), 1e10) if nit == 0 else 1.0
        stp, x_new, f_new, g_new, used = (
            (yield from _line_search(x, f, g, d, gd, stp)) if gd < 0.0 else (None, x, f, g, 0)
        )
        nfev += used
        if stp is None:
            if not pairs:
                return x, f, nit, nfev, False
            pairs, scale = [], 1.0
            continue
        nit += 1
        if nit >= maxiter:
            return x_new, f_new, nit, nfev, False
        done = f - f_new <= ftol * max(abs(f), abs(f_new), 1.0)
        sy = (float(g_new.dot(d)) - gd) * stp
        if sy > _EPS * -gd * stp:
            y = g_new - g
            pairs = pairs[-9:] + [(stp * d, y, 1.0 / sy)]
            scale = sy / float(y.dot(y))
        x, f, g = x_new, f_new, g_new
        if done:
            return x, f, nit, nfev, True
    return x, f, nit, nfev, True


def _lbfgs(fun: Callable, x0, maxiter: int, ftol: float, gtol: float):
    """Minimize fun(x) -> (value, gradient) from x0 by _lbfgs_steps: (x, f, nit, nfev, success)."""
    steps = _lbfgs_steps(x0, maxiter, ftol, gtol)
    x = next(steps)
    while True:
        try:
            x = steps.send(fun(x))
        except StopIteration as stop:
            return stop.value


def _lockstep(objective: Callable, starts, limits) -> list:
    """One _lbfgs_steps run per start, advanced together: their results, in start order.

    Each round stacks the points of the runs still going into one (B, n)
    array, makes one objective call, which returns (values (B,), gradients
    (B, n)), and sends each run its row. limits = (maxiter, ftol, gtol).
    """
    runs = [_lbfgs_steps(x0, *limits) for x0 in starts]
    points = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while points:
        values, grads = objective(np.stack(list(points.values())))
        for i, f, g in zip(list(points), values, grads):
            try:
                points[i] = runs[i].send((f, g))
            except StopIteration as stop:
                results[i] = stop.value
                del points[i]
    return results


def _search(objective: Callable, fixed, draw: Callable, cfg: OptimizerConfig, limits, certify=None):
    """Multi-start _lbfgs_steps minimization, in lockstep batches: (x, value, OptimizerStats).

    Starts are the rows of fixed, then draw(rng) from default_rng(cfg.seed),
    cfg.restarts in all; draws are made lazily, so the k-th start is the
    same whenever the search reaches it. objective and limits are
    _lockstep's. The best result wins (earliest start on ties), and the
    search stops once at least 8 starts ran and 6 in a row failed to
    improve on the best by more than 1e-12 * max(1, |best|). converged is
    the winner's success flag, or True when a later start tied it within
    1e-15 and converged. Each batch holds the fewest starts that the
    plateau rule must run before it could stop, all run by one _lockstep;
    results are read in start order, so stop point, stats and winner are
    those of a sequential run, and no start past the stop point runs.

    With certify(x) -> certificate residual (a concave objective), the
    first start runs alone and the search stops there when its residual is
    at most _CERTIFIED_GAP; otherwise it goes on exactly as without
    certify and certifies the final winner.
    """
    rng = np.random.default_rng(cfg.seed)
    best_x, best, runner_up, converged = None, math.inf, math.inf, True
    started = iterations = evaluations = stale = 0
    certificate, stop = None, False
    while not stop and started < cfg.restarts:
        end = 1 if certify is not None and started == 0 else max(8, started + 6 - stale)
        batch = range(started, min(end, cfg.restarts))
        starts = [fixed[k] if k < len(fixed) else draw(rng) for k in batch]
        for x, val, nit, nfev, success in _lockstep(objective, starts, limits):
            started += 1
            iterations += nit
            evaluations += nfev
            # a rounding-level gain may take the lead, but does not restart the plateau
            stale = 0 if val < best - 1e-12 * max(1.0, abs(val)) else stale + 1
            if val < best - 1e-15:
                best_x, best, runner_up, converged = x, val, best, success
            else:
                # a tie that converged confirms the optimum the winner found
                converged |= val <= best + 1e-15 and success
                runner_up = min(runner_up, val)
        if certify is not None and started == 1:
            certificate = certify(best_x)
            stop = certificate <= _CERTIFIED_GAP
        stop = stop or (started >= 8 and stale >= 6)
    if certify is not None and started > 1:
        certificate = certify(best_x)
    # best vs runner-up; None when no second start ran
    spread = abs(runner_up - best) if math.isfinite(runner_up) else None
    stats = OptimizerStats(iterations, started, spread, evaluations, converged, certificate)
    return best_x, best, stats


def _unpack_vector_ensemble(t: np.ndarray, m: int, d: int):
    """(states psi_k, weights w, norms |a_k|) of each row t = (x_1, y_1, ..., logits).

    t is a (B, n) stack; each output has a leading batch axis. Amplitudes
    a_k = x_k + i y_k; a member with |a_k| < 1e-12 becomes e_0 and its
    norm is reported as inf, so a gradient divided by it vanishes.
    """
    seg = t[:, : 2 * m * d].reshape(len(t), m, 2, d)
    norms = np.sqrt((seg * seg).sum(axis=(2, 3)))
    psi = seg[:, :, 0] + 1j * seg[:, :, 1]
    dead = norms < 1e-12
    norms[dead] = math.inf
    psi /= norms[..., None]
    psi[dead, 0] = 1.0
    logits = t[:, 2 * m * d :]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return psi, e / e.sum(axis=1, keepdims=True), norms


def _pure_ensemble_neg_chi(kraus, m: int, d: int) -> Callable:
    """-chi of an m-member ensemble of pure inputs, with its gradient, per row of a stack.

    The objective takes a (B, n) stack of t = (x_1, y_1, ..., x_m, y_m,
    logits), unpacked by _unpack_vector_ensemble, and returns (values (B,),
    gradients (B, n)). With v_ki = K_i psi_k, out_k = sum_i v_ki v_ki^dag
    and avg = sum_k w_k out_k, -chi = sum_k w_k S(out_k) - S(avg). Its
    differential in out_k is Tr(M_k d out_k) with M_k = w_k (log2 avg - log2 out_k).
    Eigenvalues are floored inside log2 only: every v_ki lies in the range
    of out_k and of avg, so the null-space block never reaches the gradient.
    Each row's products are the ones a single t takes (matrix-vector ones
    as matmuls with a unit axis), so a row's result does not depend on B.
    """
    ks = np.asarray(kraus, dtype=complex)
    n, d_out = ks.shape[:2]
    # the Kraus operators stacked as one (n d_out) x d matrix: K psi holds every v_ki
    k_t = ks.reshape(n * d_out, d).T.copy()
    k_conj2 = 2.0 * ks.reshape(n * d_out, d).conj()

    def neg_chi(t):
        b = len(t)
        psi, w, norms = _unpack_vector_ensemble(t, m, d)
        v = (psi @ k_t).reshape(b, m, n, d_out)
        outs = np.empty((b, m + 1, d_out, d_out), dtype=complex)  # out_1..out_m, then avg
        np.matmul(v.swapaxes(2, 3), v.conj(), out=outs[:, :m])
        flat = outs[:, :m].reshape(b, m, -1)
        outs[:, m] = (w[:, None] @ flat).reshape(b, d_out, d_out)
        ent, logm = _entropy_and_log2(outs)
        mk = w[:, :, None, None] * (logm[:, m:] - logm[:, :m])
        g = (v @ mk.swapaxes(2, 3)).reshape(b, m, -1) @ k_conj2
        g = (g - (psi.conj() * g).sum(axis=2).real[..., None] * psi) / norms[..., None]
        d_w = ent[:, :m] + (flat @ logm[:, m].swapaxes(1, 2).reshape(b, -1, 1))[..., 0].real
        grad = np.empty((b, 2 * m * d + m))
        members = grad[:, : 2 * m * d].reshape(b, m, 2, d)
        members[:, :, 0], members[:, :, 1] = g.real, g.imag
        grad[:, 2 * m * d :] = w * (d_w - (w[:, None] @ d_w[..., None])[..., 0])
        return (w[:, None] @ ent[:, :m, None])[:, 0, 0] - ent[:, m], grad

    return neg_chi


def hsw_numeric(channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None) -> CapacityReport:
    """Single-letter Holevo capacity by ensemble optimization.

    Maximizes chi over ensembles of four (_ENSEMBLE_SIZE) pure input states
    with free priors, as state vectors for every channel, qubits included;
    members of weight at most 1e-4 are left out of optimal_ensemble.
    """
    cfg = cfg or DEFAULT_CONFIG
    _require_solvable(channel)
    d, m = channel.dim_in, _ENSEMBLE_SIZE
    # starts: the basis states, then their uniform superposition, then seeded draws
    base = np.zeros(m * 2 * d)
    base[np.arange(m) * 2 * d + np.arange(m) % d] = 1.0
    uniform = np.tile(np.concatenate([np.ones(d), np.zeros(d)]) / math.sqrt(d), m)
    # the uniform start is a stationary point (chi = 0) that never wins, but its one
    # evaluation counts toward the plateau's 8 starts: dropping it costs 5-13% more
    x, neg_chi, stats = _search(
        _pure_ensemble_neg_chi(channel.kraus, m, d),
        [np.concatenate([base, np.zeros(m)]), np.concatenate([uniform, np.zeros(m)])],
        lambda rng: np.concatenate([rng.standard_normal(2 * m * d), 0.1 * rng.standard_normal(m)]),
        cfg,
        (200, 1e-13, 1e-8),
    )
    psi, w, _ = (a[0] for a in _unpack_vector_ensemble(x[None], m, d))
    keep = w > 1e-4
    states = [DensityMatrix(np.outer(amp, amp.conj()), repair=True) for amp in psi[keep]]
    chi = _clamp_zero(-neg_chi)
    return CapacityReport(
        channel_label=channel.label,
        chi=chi,
        C_hsw=chi,
        optimizer=stats,
        optimal_ensemble=Ensemble(w[keep] / w[keep].sum(), states),
        notes=("single-letter value; lower bound on the regularized capacity",),
    )


def _fibonacci_directions(n: int) -> np.ndarray:
    """n roughly uniform unit vectors on the sphere, deterministic."""
    i = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def _surface_terms(aff, us: np.ndarray, s: np.ndarray):
    """(p, d, E, AE, g, H) of f(u) = D(A u + b || s) at unit inputs us (k, 3).

    Outputs p, divergences d, tangent frames E (k, 3, 2), AE = A E, and the
    gradient g = AE^T q and Hessian H = AE^T K(p) AE / ln 2 - (u . A^T q) I
    of f on the sphere, with q = (L(p) - L(s)) / ln 2 and K = dL/dx.
    """
    p = us @ aff.A.T + aff.b
    c1, c2 = _log_map(p)
    t = _log_map(s)[0] * s
    q = (c1[:, None] * p - t) / _LN2
    seed = np.where(np.abs(us[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    e1 = seed - (seed * us).sum(axis=1)[:, None] * us
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    frames = np.stack((e1, np.cross(us, e1)), axis=2)
    ae = aff.A @ frames
    pa = np.einsum("kx,kxa->ka", p, ae)
    h = c1[:, None, None] * np.einsum("kxa,kxb->kab", ae, ae)
    h = (h + c2[:, None, None] * pa[:, :, None] * pa[:, None, :]) / _LN2
    h -= ((p - aff.b) * q).sum(axis=1)[:, None, None] * np.eye(2)
    d = _bloch_divergences(p, _bloch_negentropy(np.linalg.norm(p, axis=1)), t)
    return p, d, frames, ae, np.einsum("kxa,kx->ka", ae, q), h


def _retract(us: np.ndarray, frames: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Unit vectors moved along tangent steps (k, 2) of at most 0.2 rad."""
    steps = steps / np.maximum(np.linalg.norm(steps, axis=1) / 0.2, 1.0)[:, None]
    moved = us + np.einsum("kxa,ka->kx", frames, steps)
    return moved / np.linalg.norm(moved, axis=1)[:, None]


def _polish_maxima(aff, us: np.ndarray, s: np.ndarray):
    """Climb from each input to a local maximum of D(A u + b || s): (us, d, evaluations).

    Newton steps on H shifted until negative definite (a flat ring of maxima
    stays flat), kept only where D rises; a rejected step cuts that input's
    trust radius tenfold.
    """
    trust = np.full(len(us), 0.5)
    _, d, frames, _, g, h = _surface_terms(aff, us, s)
    evaluations = 1
    while evaluations <= 30:
        lam = np.linalg.eigvalsh(h)
        shift = np.maximum(lam[:, -1] + 1e-3 * np.maximum(np.abs(lam).max(axis=1), 1e-6), 0.0)
        steps = -np.linalg.solve(h - shift[:, None, None] * np.eye(2), g[:, :, None])[:, :, 0]
        steps *= np.minimum(1.0, trust / np.maximum(np.linalg.norm(steps, axis=1), _TINY))[:, None]
        gain = (g * steps).sum(axis=1) + 0.5 * np.einsum("ka,kab,kb->k", steps, h, steps)
        if np.all((gain < 1e-13) | (trust < 1e-8)):
            break
        trial = _retract(us, frames, steps)
        _, t_d, t_frames, _, t_g, t_h = _surface_terms(aff, trial, s)
        evaluations += 1
        up = t_d > d
        trust = np.where(up, trust, 0.1 * trust)
        up1, up2 = up[:, None], up[:, None, None]
        d, us, g = np.where(up, t_d, d), np.where(up1, trial, us), np.where(up1, t_g, g)
        frames, h = np.where(up2, t_frames, frames), np.where(up2, t_h, h)
    return us, d, evaluations


def _kkt_residual(aff, us: np.ndarray, w: np.ndarray, t: np.ndarray, r: float):
    """(residual, Jacobian, frames, free mask) of the KKT system of min_sigma max_u D.

    sigma has natural parameter t and Bloch vector s. Rows: D(p_i || s) - r
    per active input, sum(w) - 1, s - sum_i w_i p_i, and the gradient g_i of
    each free input (one whose output is not pure). Columns: a tangent step
    per free input, t, w, r.
    """
    s = _from_natural(t)
    p, d, frames, ae, g, h = _surface_terms(aff, us, s)
    free = np.linalg.norm(p, axis=1) < 1.0 - 1e-12
    k, nf = len(us), int(free.sum())
    c1, c2 = _log_map(s)
    cols = 2 * np.arange(nf)[:, None] + [0, 1]  # the step columns of each free input
    ts, ws = slice(2 * nf, 2 * nf + 3), slice(2 * nf + 3, -1)
    jac = np.zeros((k + 4 + 2 * nf, 2 * nf + 4 + k))
    jac[np.flatnonzero(free)[:, None], cols] = g[free]
    jac[:k, ts], jac[:k, -1], jac[k, ws] = (s - p) / _LN2, -1.0, 1.0
    jac[k + 1 : k + 4, : 2 * nf] = -np.einsum("i,ixa->xia", w[free], ae[free]).reshape(3, -1)
    jac[k + 1 : k + 4, ts] = np.linalg.inv(c1 * np.eye(3) + c2 * np.outer(s, s))
    jac[k + 1 : k + 4, ws] = -p.T
    jac[(k + 4 + cols)[:, :, None], cols[:, None, :]] = h[free]
    jac[k + 4 :, ts] = -ae[free].transpose(0, 2, 1).reshape(-1, 3) / _LN2
    res = np.concatenate((d - r, [w.sum() - 1.0], s - w @ p, g[free].reshape(-1)))
    return res, jac, frames, free


def _kkt_newton(aff, us: np.ndarray, w: np.ndarray, t: np.ndarray):
    """Newton's method on the KKT system: (inputs, weights, converged, evaluations).

    A step that would take a weight to 0 stops there and that input leaves
    (with 2 inputs left it stops halfway). An input with a pure output keeps
    its direction, because the entropy slope is infinite there.
    """
    res, jac, frames, free = _kkt_residual(aff, us, w, t, 0.0)
    r = float(w @ res[: len(w)])
    res[: len(w)] -= r
    for evaluations in range(1, 41):
        if np.abs(res).max() < 1e-12:
            return us, w, True, evaluations
        step = np.linalg.lstsq(jac, -res, rcond=1e-10)[0]
        nf = int(free.sum())
        d_w, scale, keep = step[2 * nf + 3 : -1], 1.0, np.ones(len(w), dtype=bool)
        if np.any(w + d_w <= 0.0):
            ratios = np.where(w + d_w <= 0.0, w / np.maximum(-d_w, _TINY), math.inf)
            keep[int(np.argmin(ratios))] = len(w) == 2
            scale = float(ratios.min()) * (0.5 if len(w) == 2 else 1.0)
        us = us.copy()
        us[free] = _retract(us[free], frames[free], scale * step[: 2 * nf].reshape(nf, 2))
        w = np.maximum(w + scale * d_w, 0.0)[keep]
        us, w, r = us[keep], w / w.sum(), r + scale * step[-1]
        t = t + scale * step[2 * nf : 2 * nf + 3]
        res, jac, frames, free = _kkt_residual(aff, us, w, t, r)
    return us, w, bool(np.abs(res).max() < 1e-12), evaluations + 1


def _spread_picks(dirs: np.ndarray, vals: np.ndarray, floor: float, limit: int) -> np.ndarray:
    """Up to limit inputs with vals >= floor, 0.35 rad apart: the best, then farthest-first."""
    cand = np.flatnonzero(vals >= floor)
    picked = [int(cand[np.argmax(vals[cand])])]
    closest = dirs[cand] @ dirs[picked[0]]
    while len(picked) < limit and closest.min() < math.cos(0.35):
        picked.append(int(cand[np.argmin(closest)]))
        closest = np.maximum(closest, dirs[cand] @ dirs[picked[-1]])
    return np.array(picked)


def hsw_geometric(channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None) -> CapacityReport:
    """Divergence radius r* = min_sigma max_rho D(N(rho) || sigma) of a qubit channel.

    r* equals the HSW capacity (Schumacher & Westmoreland, quant-ph/9912122);
    this route never calls the ensemble optimizer, so it cross-checks
    hsw_numeric. Unital and constant channels: the inputs +-v along a top
    singular vector of A average to sigma*, so r* = 1 - S(|A|_2), exactly.

    Otherwise one _lbfgs run minimizes a smoothed max of D over 2,048 grid
    outputs and the output of largest radius. Its softmax mass at up to 4
    spread inputs seeds Newton's method on the KKT system: equal divergences
    at the active inputs, sigma = sum_i w_i p_i, each input stationary on the
    sphere. chi = sum_i w_i D(p_i || sigma) is the Holevo quantity of that
    ensemble; r* is the max of D(. || sigma) over polished grid maxima. The
    duality gap r* - chi is certificate_residual, noted above 1e-6.
    optimizer.converged ANDs the _lbfgs flag and Newton's. The route has no
    knobs: cfg is accepted for the common solver signature and ignored.
    """
    if channel.dim_in != 2 or channel.dim_out != 2:
        raise Unsupported("geometric solver handles qubit channels")
    _require_solvable(channel)
    aff = affine_representation(channel)
    notes = ["single-letter value; lower bound on the regularized capacity"]
    if is_unital(channel) or np.abs(aff.A).max() < 1e-12:
        v = np.linalg.svd(aff.A)[2][0]
        return CapacityReport(
            channel_label=channel.label,
            r_star=float(_bloch_negentropy(np.linalg.norm(aff.A, 2))),
            optimizer=OptimizerStats(0, 0, None, certificate_residual=0.0),
            optimal_ensemble=Ensemble([0.5, 0.5], [from_bloch(v), from_bloch(-v)]),
            notes=tuple(notes),
        )
    # the grid plus the input of largest output radius, so that a pure output is a candidate
    dirs = np.vstack((_fibonacci_directions(2048), _max_output_direction(aff)))
    points = dirs @ aff.A.T + aff.b
    negentropy = _bloch_negentropy(np.linalg.norm(points, axis=1))
    t = _log_map(aff.b)[0] * aff.b  # sigma = b, the output of I/2
    # the spread of D over the grid sets the smoothing, every threshold and
    # the units of the coarse search: x = t / scale, value (F - top) / scale
    d0 = _bloch_divergences(points, negentropy, t)
    top, scale = float(d0.max()), float(np.ptp(d0))
    beta = 2000.0 / scale

    def smoothed_max(x):
        d = _bloch_divergences(points, negentropy, scale * x)
        e = np.exp(beta * (d - d.max()))
        value = (float(d.max()) + math.log(float(e.sum())) / beta - top) / scale
        return value, (_from_natural(scale * x) - (e / e.sum()) @ points) / _LN2

    # L-BFGS-B's customary limits: maxiter 15000, ftol 1e7 eps, gtol 1e-5
    x, _, nit, nfev, success = _lbfgs(smoothed_max, t / scale, 15000, 1e7 * _EPS, 1e-5)
    t = scale * x
    vals = _bloch_divergences(points, negentropy, t)
    mass = np.exp(beta * (vals - vals.max()))
    picked = _spread_picks(dirs, mass, 1e-3, 4)
    w = np.bincount(np.argmax(dirs @ dirs[picked].T, axis=1), weights=mass, minlength=len(picked))
    us, _, polished = _polish_maxima(aff, dirs[picked], _from_natural(t))
    us, w, newton_ok, steps = _kkt_newton(aff, us, w / w.sum(), t)
    # chi and r* are both taken at the ensemble's own average output
    p = us @ aff.A.T + aff.b
    s = w @ p
    t = _log_map(s)[0] * s
    chi = float(w @ _bloch_divergences(p, _bloch_negentropy(np.linalg.norm(p, axis=1)), t))
    vals = _bloch_divergences(points, negentropy, t)
    seeds = dirs[_spread_picks(dirs, vals, float(vals.max()) - 0.05 * scale, 8)]
    _, top_vals, final = _polish_maxima(aff, seeds, s)
    r_star = max(float(top_vals.max()), chi)
    gap = _clamp_zero(r_star - chi)
    if gap > 1e-6:
        notes.append(f"duality gap r* - chi = {gap:.2e} above 1e-6")
    evaluations = nfev + polished + steps + final
    return CapacityReport(
        channel_label=channel.label,
        r_star=r_star,
        optimizer=OptimizerStats(nit + steps, 1, None, evaluations, success and newton_ok, gap),
        optimal_ensemble=Ensemble(w, [from_bloch(u) for u in us]),
        notes=tuple(notes),
    )


def _state_gradient(channel: QuantumChannel, coeffs, superops=None) -> Callable:
    """evaluate(x) -> (f, G, rho, M, t), f = c_rho S(rho) + c_out S(N(rho)) + c_env S(env(rho)).

    x is a (B, n) stack of rows (Re M, Im M), M d x r flattened (r = d, or
    1 for a pure state); each output has a leading batch axis. rho = M M^dag
    / t, t = Tr M M^dag; c_X = 0 skips S(X). superops = (M_N, M_Nc) of the
    channel and its complementary channel, when the caller has them.

    Row |a><b| of the forms matrix F holds N(|a><b|) and env(|a><b|), env_ij
    = Tr(K_i rho K_j^dag), flattened, so vec(rho) @ F gives both images.
    G = sum_X c_X X^dag(-log2 X(rho)) is the Hermitian rho-gradient, the
    adjoints taken as F @ vec(L^T); every X preserves trace, so the -1/ln 2
    term of dS, a multiple of I, is left out: neither the projected gradient
    nor the Frank-Wolfe gap sees it. The products with F are matrix-vector
    ones per row (matmuls with a unit axis): a row's result does not depend on B.

    Rank-deficient X(rho): for full-rank rho its null space is that of X(I),
    which no dX reaches. A further null vector needs a singular M (amplitude
    damping at |0>, or r = 1); then d rho has no block on the null space of
    M^dag, X^dag of X's null-space projector lives on that null space, and
    HM below drops it. So the floored block of log2 X never reaches the
    gradient, which stays the exact derivative in M on the boundary of the
    state space; only the Frank-Wolfe gap sees it there, as a large G.
    """
    m_n, m_c = superops or (_superoperator(channel), _superoperator(complementary(channel)))
    forms = np.ascontiguousarray(np.vstack([m_n, m_c]).T)  # one contiguous row per |a><b|
    d_out, d, n = channel.dim_out, channel.dim_in, len(channel.kraus)
    cut = d_out * d_out
    c_rho, c_out, c_env = coeffs
    forms = forms if c_env else np.ascontiguousarray(forms[:, :cut])  # N's columns only

    def evaluate(x):
        b, r = len(x), x.shape[1] // (2 * d)
        m = (x[:, : d * r] + 1j * x[:, d * r :]).reshape(b, d, r)
        p = m @ m.conj().swapaxes(1, 2)
        t = np.trace(p, axis1=1, axis2=2).real
        dead = t < 1e-12  # a vanishing M stands for the first r basis states
        if dead.any():
            m[dead], p[dead], t[dead] = np.eye(d, r), np.eye(d, r) @ np.eye(r, d), r
        rho = p / t[:, None, None]
        flat = (rho.reshape(b, 1, -1) @ forms)[:, 0]
        s_out, log_out = _entropy_and_log2(flat[:, :cut].reshape(b, d_out, d_out))
        value, back = c_out * s_out, c_out * log_out.swapaxes(1, 2).reshape(b, -1)
        if c_env:
            s_env, log_env = _entropy_and_log2(flat[:, cut:].reshape(b, n, n))
            value += c_env * s_env
            back = np.concatenate((back, c_env * log_env.swapaxes(1, 2).reshape(b, -1)), axis=1)
        g = -(forms @ back[:, :, None]).reshape(b, d, d).swapaxes(1, 2)
        if c_rho:
            s_rho, log_rho = _entropy_and_log2(rho)
            value += c_rho * s_rho
            g -= c_rho * log_rho
        return value, g, rho, m, t

    return evaluate


def _state_neg_value(evaluate: Callable) -> Callable:
    """-f and its gradient in x, per row, for the evaluate of _state_gradient.

    Tr(d rho) = 0, so with H = G - Tr(G rho) I the gradient is
    (2/t) (Re HM, Im HM).
    """

    def neg_value(x):
        value, g, rho, m, t = evaluate(x)
        shift = np.trace(g @ rho, axis1=1, axis2=2).real[:, None, None] * np.eye(g.shape[1])
        hm = ((2.0 / t)[:, None, None] * ((g - shift) @ m)).reshape(len(x), -1)
        return -value, -np.concatenate((hm.real, hm.imag), axis=1)

    return neg_value


def _frank_wolfe_gap(evaluate: Callable) -> Callable:
    """certify(x) -> lambda_max(G) - Tr(G rho) plus a rounding margin, for a concave f.

    For concave f every state sigma has f(sigma) <= f(rho) + Tr(G (sigma - rho)),
    whose maximum over sigma is the gap, so max f lies in [f(rho), f(rho) + gap].
    The margin, 8 ulps x d x max|lambda(G)|, covers the rounding of the gap.
    """

    def certify(x):
        g, rho = (a[0] for a in evaluate(x[None])[1:3])
        lam = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
        gap = float(lam[-1]) - float((g * rho.T).sum().real)
        margin = 8.0 * _EPS * len(g) * float(np.abs(lam).max())
        return _clamp_zero(gap) + margin

    return certify


def _maximize_state_functional(
    channel: QuantumChannel, cfg: OptimizerConfig, coeffs, concave=False, fixed=None, superops=None
):
    """Maximize c_rho S(rho) + c_out S(N(rho)) + c_env S(env(rho)): (maximum, stats).

    Starts are the rows x = (Re M, Im M) of fixed (by default M = I, the
    maximally mixed input), then seeded draws of the same length. A caller
    that knows the functional is concave passes concave=True: the search
    then stops after the first start when its Frank-Wolfe gap certifies it
    (see _search), and stats.certificate_residual holds the gap. superops
    goes to _state_gradient.
    """
    if fixed is None:
        d = channel.dim_in
        fixed = [np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d)])]
    evaluate = _state_gradient(channel, coeffs, superops)
    _, neg_best, stats = _search(
        _state_neg_value(evaluate),
        fixed,
        lambda rng: rng.standard_normal(len(fixed[0])),
        cfg,
        (500, 1e-15, 1e-10),
        _frank_wolfe_gap(evaluate) if concave else None,
    )
    return -neg_best, stats


def quantum_capacity_single_use(
    channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None
) -> CapacityReport:
    """Single-use quantum capacity Q1 and pure-ensemble private information P1.

    Both are max over inputs of the coherent information. For pure psi
    S(N(psi)) = S(N^c(psi)), so chi_AB - chi_AE of a pure-state ensemble is
    I_coh of its average (Devetak, IEEE TIT 51, 2005), and P1, a lower bound
    on the private capacity, is the same maximum. One search fills the
    clamped Q1 = P1 = max(0, max I_coh) and the raw optimum Q1_raw.
    private_information is this function.

    On a channel that is_degradable calls degradable the coherent
    information is concave in the input (Yard, Hayden & Devetak, IEEE TIT
    54, 2008), so the search is certified as in entanglement_assisted and
    stops after one start when the certificate holds; any other verdict
    runs the full multi-start.
    """
    cfg = cfg or DEFAULT_CONFIG
    _require_solvable(channel)
    # one complementary channel and one pair of superoperators for the verdict and the search
    superops = _superoperator(channel), _superoperator(complementary(channel))
    concave = _degradability(channel, *superops).status == "degradable"
    raw, stats = _maximize_state_functional(channel, cfg, _COHERENT, concave, superops=superops)
    return CapacityReport(
        channel_label=channel.label,
        Q1=_clamp_zero(raw),
        Q1_raw=raw,
        P1=_clamp_zero(raw),
        optimizer=stats,
        notes=("single-letter value; lower bound on the regularized capacity",),
    )


def entanglement_assisted(
    channel: QuantumChannel, cfg: Optional[OptimizerConfig] = None
) -> CapacityReport:
    """Entanglement-assisted classical capacity.

    Maximizes the output mutual information S(rho) + S(N(rho)) - S_E over
    input states; for this quantity the single-use optimum already equals
    the capacity. The mutual information is concave in the input (Adami &
    Cerf, PRA 56, 1997), so one start from the maximally mixed input is
    kept once its Frank-Wolfe gap, in optimizer.certificate_residual, is at
    most 1e-6 bits: [C_E, C_E + certificate_residual] brackets the
    capacity, and cfg (restarts, seed) does not change it. Only a start
    that fails the certificate falls back to the seeded multi-start.
    """
    cfg = cfg or DEFAULT_CONFIG
    _require_solvable(channel)
    best, stats = _maximize_state_functional(channel, cfg, _MUTUAL, True)
    return CapacityReport(
        channel_label=channel.label,
        C_E=_clamp_zero(best),
        optimizer=stats,
        notes=("entanglement-assisted value; single-use equals asymptotic",),
    )


private_information = quantum_capacity_single_use


def analytic_capacity(kind: str, **params) -> CapacityReport:
    """Closed-form capacities for the families that have them.

    erasure, phase_erasure, mixed_erasure, amplitude_damping and
    depolarizing take exactly make_channel's parameters, checked by the
    same parser (qchan.channels.ChannelKind.parse). bsc(p), the classical
    binary symmetric channel, takes bit_flip's. Quantum values are
    reported with the raw (unclamped) optimum in Q1_raw. On the erasure
    kinds that optimum is (1 - q - 2p) log2 d, I_coh at the maximally mixed
    input, while it is positive; otherwise it is 0, I_coh at any pure input.
    """
    shared = ("erasure", "phase_erasure", "mixed_erasure", "amplitude_damping", "depolarizing")
    if kind not in shared + ("bsc",):
        raise Unsupported(f"no closed form for kind {kind!r}")
    values = CHANNEL_KINDS["bit_flip" if kind == "bsc" else kind].parse(kind, params)
    if "d" in values:
        p, q = values.get("p", 0.0), values.get("q", 0.0)
        logd = math.log2(values["d"])
        raw = _clamp_zero(1.0 - q - 2.0 * p) * logd
        label = ",".join(f"{name}={v:g}" for name, v in values.items())
        return CapacityReport(
            channel_label=f"analytic:{kind}({label})",
            chi=(1.0 - p) * logd,
            C_hsw=(1.0 - p) * logd,
            Q1=raw,
            Q1_raw=raw,
            notes=("closed form",),
        )
    if kind == "amplitude_damping":
        gamma = values["gamma"]
        raw = 0.0  # gamma >= 1/2 is antidegradable: I_coh <= 0, and 0 at the input |0>
        if gamma < 0.5:
            # golden-section search over the population tau in [0, 1], where q is unimodal
            def q(tau):
                return float(binary_entropy((1.0 - gamma) * tau)) - float(binary_entropy(gamma * tau))

            shrink = (math.sqrt(5.0) - 1.0) / 2.0
            lo, hi = 0.0, 1.0
            a, b = hi - shrink, shrink
            qa, qb = q(a), q(b)
            while hi - lo > 1e-9:
                if qa >= qb:
                    hi, b, qb = b, a, qa
                    a = hi - shrink * (hi - lo)
                    qa = q(a)
                else:
                    lo, a, qa = a, b, qb
                    b = lo + shrink * (hi - lo)
                    qb = q(b)
            raw = max(qa, qb)
        return CapacityReport(
            channel_label=f"analytic:amplitude_damping(gamma={gamma:g})",
            Q1=_clamp_zero(raw),
            Q1_raw=raw,
            notes=("closed form; maximized over the population parameter",),
        )
    p = values["p"]
    if kind == "depolarizing":
        c = 1.0 - float(binary_entropy(p / 2.0))
        return CapacityReport(
            channel_label=f"analytic:depolarizing(p={p:g})",
            chi=c,
            C_hsw=c,
            notes=("closed form",),
        )
    return CapacityReport(
        channel_label=f"analytic:bsc(p={p:g})",
        chi=1.0 - float(binary_entropy(p)),
        C_hsw=1.0 - float(binary_entropy(p)),
        notes=("classical binary symmetric channel",),
    )


def _min_entropy_report(channel: QuantumChannel, cfg: OptimizerConfig) -> CapacityReport:
    """Minimum output entropy S_min = min_psi S(N(|psi><psi|)) as a report.

    The minimum over all inputs is attained on a pure state. Qubit-to-qubit
    channels reduce to the largest output Bloch radius, which has a closed
    form (no restarts, certificate_residual 0.0); other channels search the state
    kernel with a d x 1 M (a pure input), from the basis states and their
    uniform superposition, then seeded draws.
    """
    if not is_cptp(channel):
        raise InvalidChannel("minimum output entropy needs a CPTP channel")
    if channel.dim_in == 2 and channel.dim_out == 2:
        radius = _max_output_radius(affine_representation(channel))
        s_min = float(binary_entropy((1.0 + radius) / 2.0))
        stats = OptimizerStats(0, 0, None, certificate_residual=0.0)
    else:
        d = channel.dim_in
        fixed = np.vstack((np.eye(d, 2 * d), np.ones(2 * d) / math.sqrt(2 * d)))
        neg_s_min, stats = _maximize_state_functional(channel, cfg, _NEG_OUTPUT, False, fixed)
        s_min = _clamp_zero(-neg_s_min)
    return CapacityReport(channel_label=channel.label, S_min=s_min, optimizer=stats)


def min_output_entropy(channel: QuantumChannel) -> EntropyScalar:
    """Minimum output entropy min_psi S(N(|psi><psi|)) in bits, with the default config."""
    return EntropyScalar(_min_entropy_report(channel, DEFAULT_CONFIG).S_min, "von_neumann")


# Measure name -> (solver, the report fields it takes from it). Its order is the
# order of --measure all and of the CLI's CSV columns. Solvers are named, not
# held, so that full_report calls whatever the module attribute is at call time.
MEASURES = {
    "hsw": ("hsw_numeric", ("chi", "C_hsw")),
    "qcap": ("quantum_capacity_single_use", ("Q1", "Q1_raw")),
    "ea": ("entanglement_assisted", ("C_E",)),
    "private": ("quantum_capacity_single_use", ("P1",)),
    "hsw-geo": ("hsw_geometric", ("r_star",)),
    "minent": ("_min_entropy_report", ("S_min",)),
}
REPORT_FIELDS = tuple(name for _, fields in MEASURES.values() for name in fields)


def full_report(
    channel: QuantumChannel,
    cfg: Optional[OptimizerConfig] = None,
    measures=("hsw",),
) -> CapacityReport:
    """Run the requested solvers and merge the measures' fields into one report.

    Each distinct solver runs once, so qcap and private share one search and
    the summed stats count it once. A measure that "all" brings in and the
    channel does not support is left out with a note; one named explicitly
    raises Unsupported.
    """
    cfg = cfg or DEFAULT_CONFIG
    named = () if measures == "all" else tuple(measures)
    if measures == "all" or "all" in measures:
        measures = tuple(MEASURES)
    merged: dict = {"channel_label": channel.label}
    notes: list = []
    runs: dict = {}  # solver name -> its report, or the Unsupported it raised
    for measure in measures:
        if measure not in MEASURES:
            raise InvalidParameter(f"unknown measure {measure!r}")
        solver, fields = MEASURES[measure]
        if solver not in runs:
            try:
                runs[solver] = globals()[solver](channel, cfg)
            except Unsupported as err:
                runs[solver] = err
        rep = runs[solver]
        if isinstance(rep, Unsupported):
            if measure in named:
                raise rep
            notes.append(f"{measure} left out: {rep}")
            continue
        for name in fields:
            val = getattr(rep, name)
            if val is not None:
                merged[name] = val
        notes.extend(n for n in rep.notes if n not in notes)
    # summed over the searches that ran, each once
    ran = [r.optimizer for r in runs.values() if isinstance(r, CapacityReport) and r.optimizer]

    def worst(name):
        return max((getattr(s, name) for s in ran if getattr(s, name) is not None), default=None)

    stats = None if not ran else OptimizerStats(
        sum(s.iterations for s in ran),
        sum(s.restarts for s in ran),
        worst("restart_spread"),
        sum(s.evaluations for s in ran),
        all(s.converged for s in ran),
        worst("certificate_residual"),
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

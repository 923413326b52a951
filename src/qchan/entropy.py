"""Entropy functionals and the information measures built from them.

All quantities are in bits (base-2 logarithms). Values are returned as
EntropyScalar, a float subclass tagged with the kind of quantity it
carries; an infinite relative entropy is a tagged +inf, never an
overflow. A state's eigenvalues are clipped to [0, 1] (beyond is rounding)
before taking logarithms, with the limit x log x -> 0 applied at x = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import _apply_matrix, complementary
from .errors import (
    DimensionMismatch,
    InfiniteDivergence,
    InvalidBlochVector,
    InvalidChannel,
    InvalidOrder,
    InvalidProbability,
)
from .qmath import (
    COMPLETENESS_TOL,
    Ensemble,
    _as_matrix,
    completeness_residual,
    partial_trace,
)

_KINDS = frozenset(
    {
        "shannon",
        "von_neumann",
        "relative",
        "holevo",
        "mutual",
        "conditional",
        "renyi",
        "coherent",
        "exchange",
    }
)

_SUPPORT_TOL = 1e-12
# Eigenvalue floor inside log2 only, so a null-space eigenvalue has a finite log
_LOG_FLOOR = 1e-300
_LN2 = math.log(2.0)
# Largest Bloch radius the natural parameter atanh(r) is taken at, so that
# pure states (amplitude damping at r = 1) keep a finite entropy slope
_SLOPE_RADIUS = 1.0 - 1e-15


class EntropyScalar(float):
    """A float in bits tagged with the kind of entropy it measures."""

    __slots__ = ("kind",)

    def __new__(cls, value: float, kind: str):
        if kind not in _KINDS:
            raise ValueError(f"unknown entropy kind {kind!r}")
        obj = super().__new__(cls, value)
        obj.kind = kind
        return obj

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self)

    def __repr__(self):
        return f"EntropyScalar({float(self)!r}, kind={self.kind!r})"


def _plog2(x: np.ndarray) -> np.ndarray:
    """Elementwise x * log2(x) with the x = 0 limit set to 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log2(x[pos])
    return out


def _entropy_bits(w) -> float:
    """-sum w log2 w over probabilities w; 0.0 - x makes an all-zero sum +0.0, never -0.0."""
    return 0.0 - float(_plog2(w).sum())


def _entropy_and_log2(mats: np.ndarray):
    """(S(X), log2 X) for a stack of Hermitian matrices X, from one eigh.

    Eigenvalues of the unit-trace X are clipped to [0, 1], so S >= +0.0, and
    floored at 1e-300 inside log2 only: a null-space eigenvalue contributes a
    finite -996.6 to log2 X, which callers must show never reaches their gradient.
    """
    lam, vecs = np.linalg.eigh(mats)
    lam = np.clip(lam, 0.0, 1.0)
    logs = np.log2(np.maximum(lam, _LOG_FLOOR))
    ent = 0.0 - (lam * logs).sum(axis=-1)
    logm = (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return ent, logm


def _bloch_negentropy(radii) -> np.ndarray:
    """1 - S(rho) for qubit states of the given Bloch radii (vectorized)."""
    r = np.minimum(np.asarray(radii, dtype=float), 1.0)
    hi, lo = 1.0 + r, 1.0 - r
    # lo * log2(lo) -> 0 as lo -> 0; the floor only keeps log2 finite
    return 0.5 * (hi * np.log2(hi) + lo * np.log2(np.maximum(lo, _LOG_FLOOR)))


def _log_map(x: np.ndarray):
    """(c1, c2) with L(x) = c1 x and dL/dx = c1 I + c2 x x^T, per qubit Bloch vector x.

    L(x) = atanh|x| x/|x| is the natural parameter t of the state x (its log
    is t.pauli - log(2 cosh|t|) I), so D(p || s) = 1 - S(p) - log2(1 - |s|^2)/2
    - p.L(s)/ln 2 has gradients (L(p) - L(s))/ln 2 in p and (s - p)/ln 2 in
    t = L(s). Radii are clipped at _SLOPE_RADIUS: pure states stay finite.
    """
    rad = np.minimum(np.linalg.norm(x, axis=-1), _SLOPE_RADIUS)
    r = np.where(rad < 1e-8, 1.0, rad)
    c1 = np.where(rad < 1e-8, 1.0, np.arctanh(r) / r)
    return c1, np.where(rad < 1e-8, 2.0 / 3.0, (1.0 / (1.0 - r * r) - c1) / (r * r))


def _from_natural(t: np.ndarray) -> np.ndarray:
    """The Bloch vector tanh|t| t/|t| of natural parameter t (the inverse of L)."""
    tau = math.sqrt(float(t @ t))
    return t * (math.tanh(tau) / tau if tau > 0.0 else 1.0)


def _bloch_divergences(points: np.ndarray, negentropy: np.ndarray, t: np.ndarray):
    """D(p || sigma) for qubit Bloch points p, given negentropy = 1 - S(p) and t = L(sigma).

    With sigma = tanh|t| t/|t|, -log2(1 - |sigma|^2)/2 = log2 cosh|t| (vectorized).
    """
    return (negentropy + math.log2(math.cosh(math.sqrt(float(t @ t))))) - (points @ t) / _LN2


def binary_entropy(p: float) -> EntropyScalar:
    """H2(p) = -p log2 p - (1-p) log2(1-p), zero at both endpoints."""
    p = float(p)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise InvalidProbability(f"p = {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return EntropyScalar(_entropy_bits([p, 1.0 - p]), "shannon")


def von_neumann(rho) -> EntropyScalar:
    """S(rho) = -sum_i lambda_i log2 lambda_i over the spectrum."""
    w = np.clip(np.linalg.eigvalsh(_as_matrix(rho)), 0.0, 1.0)
    return EntropyScalar(_entropy_bits(w), "von_neumann")


def relative_entropy(rho, sigma) -> EntropyScalar:
    """D(rho || sigma) = Tr rho (log2 rho - log2 sigma).

    Returns tagged +inf when the support of rho is not contained in the
    support of sigma.
    """
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state dims differ: {a.shape[0]} vs {b.shape[0]}")
    wa, va = np.linalg.eigh(a)
    wb, vb = np.linalg.eigh(b)
    wa = np.clip(wa, 0.0, None)
    wb = np.clip(wb, 0.0, None)
    # support check: any weight of rho on the kernel of sigma diverges
    kernel = wb <= _SUPPORT_TOL
    if np.any(kernel):
        overlap = np.abs(va.conj().T @ vb[:, kernel]) ** 2
        mass = float((wa[:, None] * overlap).sum())
        if mass > _SUPPORT_TOL:
            return EntropyScalar(math.inf, "relative")
    term_rho = float(_plog2(wa).sum())
    # cross term: sum_ij wa_i |<va_i|vb_j>|^2 log2 wb_j over sigma's support
    sup = ~kernel
    overlap = np.abs(va.conj().T @ vb[:, sup]) ** 2
    term_cross = float((wa[:, None] * overlap * np.log2(wb[sup])[None, :]).sum())
    return EntropyScalar(max(term_rho - term_cross, 0.0), "relative")


def relative_entropy_bloch(r_rho, r_sigma) -> EntropyScalar:
    """Qubit relative entropy straight from two Bloch vectors.

    Closed form in the radii r_rho, r_sigma and the angle between the
    vectors; equals the matrix definition exactly. Requires |r_sigma| < 1
    unless the two vectors coincide; a pure sigma with any other rho has
    divergent relative entropy and raises InfiniteDivergence.
    """
    a = np.asarray(tuple(r_rho), dtype=float)
    b = np.asarray(tuple(r_sigma), dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise DimensionMismatch("Bloch vectors need exactly 3 components")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidBlochVector("Bloch vector has a non-finite component")
    ra = float(np.linalg.norm(a))
    rb = float(np.linalg.norm(b))
    if ra > 1.0 + 1e-10 or rb > 1.0 + 1e-10:
        raise InfiniteDivergence("Bloch norm exceeds 1")
    if rb >= 1.0 - 1e-12:
        if np.linalg.norm(a - b) <= 1e-12:
            return EntropyScalar(0.0, "relative")
        raise InfiniteDivergence("sigma is pure and differs from rho")
    return EntropyScalar(float(_bloch_divergences(a, _bloch_negentropy(ra), _log_map(b)[0] * b)), "relative")


def holevo_quantity(ensemble: Ensemble) -> EntropyScalar:
    """chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i)."""
    avg = ensemble.average()
    mix = float(von_neumann(avg))
    members = sum(p * float(von_neumann(s)) for p, s in zip(ensemble.weights, ensemble.states))
    return EntropyScalar(max(mix - members, 0.0), "holevo")


def conditional_entropy(rho_ab, dims) -> EntropyScalar:
    """S(A|B) = S(AB) - S(B) for a bipartite state with subsystem dims."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise DimensionMismatch("conditional entropy needs exactly two subsystems")
    joint = float(von_neumann(rho_ab))
    s_b = float(von_neumann(partial_trace(rho_ab, dims, 1)))
    return EntropyScalar(joint - s_b, "conditional")


def mutual_information(rho_ab, dims) -> EntropyScalar:
    """I(A:B) = S(A) + S(B) - S(AB)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise DimensionMismatch("mutual information needs exactly two subsystems")
    s_a = float(von_neumann(partial_trace(rho_ab, dims, 0)))
    s_b = float(von_neumann(partial_trace(rho_ab, dims, 1)))
    joint = float(von_neumann(rho_ab))
    return EntropyScalar(max(s_a + s_b - joint, 0.0), "mutual")


def renyi_entropy(rho, r: float) -> EntropyScalar:
    """Renyi entropy R_r(rho) = log2(Tr rho^r) / (1 - r).

    The r -> 1 limit is the von Neumann entropy, r = 0 gives log2(rank),
    and r -> inf gives -log2 of the largest eigenvalue (operator norm);
    r = inf is accepted directly.
    """
    if not r >= 0:
        raise InvalidOrder(f"Renyi order {r} is negative or NaN")
    # clipped to [0, 1] as in von_neumann; 0.0 - x and x + 0.0 turn -0.0 into +0.0
    w = np.clip(np.linalg.eigvalsh(_as_matrix(rho)), 0.0, 1.0)
    if math.isinf(r):
        return EntropyScalar(0.0 - math.log2(float(w.max())), "renyi")
    if abs(r - 1.0) <= 1e-12:
        return EntropyScalar(_entropy_bits(w), "renyi")
    if r == 0.0:
        rank = int(np.count_nonzero(w > _SUPPORT_TOL))
        return EntropyScalar(math.log2(rank), "renyi")
    pos = w[w > 0.0]
    total = float((pos**r).sum())
    return EntropyScalar(math.log2(total) / (1.0 - r) + 0.0, "renyi")


def environment_state(rho, channel) -> np.ndarray:
    """Environment output rho_E with entries Tr(K_i rho K_j^dag).

    This is the output of complementary(channel), in the environment basis
    attached to the channel's Kraus operators.
    """
    kraus = getattr(channel, "kraus", None)
    if kraus is None:
        raise InvalidChannel("channel has no Kraus representation")
    m = _as_matrix(rho)
    if m.shape[0] != channel.dim_in:
        raise DimensionMismatch(
            f"state dim {m.shape[0]} differs from channel input {channel.dim_in}"
        )
    if completeness_residual(kraus) > COMPLETENESS_TOL:
        raise InvalidChannel("Kraus completeness fails")
    return _apply_matrix(complementary(channel), m)


def coherent_information(rho, channel):
    """I_coh = S(rho_B) - S(rho_E) for input rho; returns (I_coh, S_E).

    rho_B is the channel output and rho_E the environment output of the
    complementary map; S_E is the entropy exchange.
    """
    env = environment_state(rho, channel)
    out = _apply_matrix(channel, _as_matrix(rho))
    s_b = float(von_neumann(out))
    s_e = float(von_neumann(env))
    return (
        EntropyScalar(s_b - s_e, "coherent"),
        EntropyScalar(s_e, "exchange"),
    )

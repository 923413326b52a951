"""Quantum channel representations, a constructor zoo, and classifiers.

Channels are immutable Kraus-operator lists (plus affine-only qubit maps,
such as the non-CP pancake witness); outputs, Choi and Bloch-ball forms
are read from one superoperator. The module also provides composition and
tensoring, complementary channels, the largest output Bloch radius of a
qubit channel, and structural classifiers: CPTP, unital, Pauli-distortion
tetrahedron membership, degradability and entanglement breaking. Minimum
output entropy is a search over inputs and lives in qchan.capacity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidParameter,
    Unsupported,
)
from .qmath import (
    COMPLETENESS_TOL,
    DensityMatrix,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _as_matrix,
    completeness_residual,
)

_PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
# row i is vec(s_i), the row-major vec of Pauli i
_PAULI_VECS = np.reshape(_PAULIS, (4, 4))

CP_TOL = 1e-9


@dataclass(frozen=True)
class AffineMap:
    """Bloch-ball action r -> A r + b of a qubit channel."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name, shape in (("A", (3, 3)), ("b", (3,))):
            value = np.asarray(getattr(self, name), dtype=float).reshape(shape)
            if not np.isfinite(value).all():
                raise InvalidChannel(f"affine map has a non-finite entry in {name}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __call__(self, r) -> np.ndarray:
        return self.A @ np.asarray(tuple(r), dtype=float) + self.b

    @property
    def distortion(self) -> np.ndarray:
        """Diagonal of A; the distortion vector for Pauli-diagonal maps."""
        return np.diag(self.A)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi state (I (x) N) applied to the normalized maximally entangled state.

    Indices are grouped as (reference, output); the matrix has unit trace
    for a trace-preserving channel and is PSD iff the channel is CP.
    """

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics from is_cptp; truthy iff the channel is CPTP."""

    trace_preserving: bool
    completely_positive: bool
    completeness_residual: float
    choi_min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.trace_preserving and self.completely_positive


@dataclass(frozen=True)
class DegradabilityReport:
    """Outcome of the degradability test.

    status is "degradable", "not_degradable" or "undetermined" (the
    last when the degrading map is not unique and the one found is not
    CPTP). degrading_map carries the recovered map when degradable.
    """

    status: str
    degrading_map: Optional["QuantumChannel"]
    condition_number: float
    residual: float


class QuantumChannel:
    """A channel N given by Kraus operators {N_i}, or affine-only.

    Parameters
    ----------
    kraus : sequence of arrays, or None
        dim_out x dim_in complex Kraus operators. None is reserved for
        affine-only qubit maps (the non-CP pancake witness), which must
        supply `affine` instead and be 2 -> 2.
    dim_in, dim_out : int
        Input and output dimensions.
    label : str
        Human-readable name used in reports.
    kind : str
        Constructor kind ("custom" for explicit Kraus lists).
    params : dict
        Constructor parameters, kept for reporting.
    trace_preserving : bool
        When True (default) the Kraus completeness sum is validated
        within 1e-9 and InvalidChannel is raised on failure.
    """

    __slots__ = ("_kraus", "_affine", "dim_in", "dim_out", "label", "kind", "params")

    def __init__(
        self,
        kraus,
        dim_in: int,
        dim_out: int,
        label: str = "",
        kind: str = "custom",
        params: Optional[dict] = None,
        affine: Optional[AffineMap] = None,
        trace_preserving: bool = True,
    ):
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.label = label or kind
        self.kind = kind
        self.params = dict(params or {})
        self._affine = affine
        if kraus is None:
            if affine is None:
                raise InvalidChannel("channel needs Kraus operators or an affine map")
            if (self.dim_in, self.dim_out) != (2, 2):
                raise Unsupported("an affine-only channel is a qubit map, 2 -> 2")
            self._kraus = None
            return
        ops = tuple(np.array(k, dtype=complex) for k in kraus)
        if not ops:
            raise InvalidChannel("empty Kraus list")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus shape {k.shape} differs from ({self.dim_out}, {self.dim_in})"
                )
            if not np.isfinite(k).all():
                raise InvalidChannel("Kraus operator has a non-finite entry")
            k.setflags(write=False)
        if trace_preserving:
            if completeness_residual(ops) > COMPLETENESS_TOL:
                raise InvalidChannel("Kraus operators do not sum to the identity")
        self._kraus = ops

    @property
    def kraus(self):
        """Tuple of Kraus operators, or None for affine-only maps."""
        return self._kraus

    @property
    def stored_affine(self) -> Optional[AffineMap]:
        return self._affine

    def __call__(self, rho) -> DensityMatrix:
        return apply(self, rho)

    def __repr__(self):
        nk = "affine" if self._kraus is None else len(self._kraus)
        return f"QuantumChannel({self.label!r}, {self.dim_in}->{self.dim_out}, kraus={nk})"


# Largest dimension of a named channel: the scale qchan.qmath is written for
MAX_DIM = 32

# flag qubit states |0> and |1> as columns, for the erasure-type channels
_FLAG0, _FLAG1 = np.eye(2, dtype=complex)[:, :1], np.eye(2, dtype=complex)[:, 1:]


def _number(name: str, value, lo: int, hi: int) -> float:
    """value as a float in [lo, hi]; bools, non-numbers, NaN and infinities are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo <= value <= hi:
        raise InvalidParameter(f"{name} = {value} must be a number in [{lo}, {hi}]")
    return float(value)


@dataclass(frozen=True)
class ChannelKind:
    """One row of CHANNEL_KINDS: a named channel's parameters, in order, and its builder.

    Each parameter is a probability in [0, 1], except the dimension d: an
    integer from d_min to MAX_DIM, default 2. They name the channel, as in
    erasure(p=0.2,d=3). A qubit_only kind also takes d = 2 and leaves it out
    of the name. complement may stand in for p as 1 - p. build maps the
    values to Kraus operators, or to the AffineMap of the affine-only pancake.
    """

    params: Tuple[str, ...]
    build: Callable
    complement: Optional[str] = None
    qubit_only: bool = False
    d_min: int = 2

    @property
    def sweep(self) -> Optional[str]:
        """The parameter a CLI --sweep varies: the complement, else the first probability."""
        return self.complement or next((n for n in self.params if n != "d"), None)

    def parse(self, kind: str, given: dict) -> dict:
        """Values of params, d and the complement; InvalidParameter on any bad one.

        A qubit_only kind at d != 2 raises Unsupported instead.
        """
        raw, values = dict(given), {}
        if self.complement in raw:
            if "p" in raw:
                raise InvalidParameter(f"give either p or {self.complement}, not both")
            values[self.complement] = _number(self.complement, raw.pop(self.complement), 0, 1)
            raw["p"] = 1.0 - values[self.complement]
        for name in self.params + ("d",) * self.qubit_only:
            if name == "d":
                d = _number("d", raw.pop("d", 2), self.d_min, MAX_DIM)
                if not d.is_integer():
                    raise InvalidParameter(f"d = {d} is not an integer")
                values["d"] = int(d)
            elif name in raw:
                values[name] = _number(name, raw.pop(name), 0, 1)
            else:
                raise InvalidParameter(f"{kind} needs parameter {name}")
        if raw:
            raise InvalidParameter(f"unexpected parameters {sorted(raw)}")
        if self.qubit_only and values["d"] != 2:
            raise Unsupported(f"{kind} is defined for qubits only")
        probs = {n: values[n] for n in self.params if n != "d"}
        if sum(probs.values()) > 1.0 + 1e-12:
            raise InvalidParameter(f"{' + '.join(probs)} = {sum(probs.values()):g} exceeds 1")
        if self.complement:
            values.setdefault(self.complement, 1.0 - values["p"])
        return values


def _erasure_ops(p: float, d: int) -> list:
    """sqrt(p) |e><k| for k < d: each input level goes to the erasure flag e = d."""
    return [np.sqrt(p) * np.outer(np.eye(d + 1)[d], row) for row in np.eye(d)]


def _flip(pauli: np.ndarray) -> Callable:
    return lambda p: [np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * pauli]


def _mixed_erasure(p: float, q: float) -> list:
    v = np.eye(3, 2)  # C^2 into the first two levels of C^3
    ops = [np.sqrt(max(1.0 - p - q, 0.0)) * np.kron(v, _FLAG0)]
    ops.append(np.sqrt(q / 2.0) * np.kron(v, _FLAG1))
    ops.append(np.sqrt(q / 2.0) * np.kron(v @ PAULI_Z, _FLAG1))
    return ops + [np.kron(op, _FLAG0) for op in _erasure_ops(p, 2)]


# The one list of named channels: make_channel, the kind form of channel
# JSON, analytic_capacity and the CLI all read it
CHANNEL_KINDS = {
    "identity": ChannelKind(("d",), lambda d: [np.eye(d)], d_min=1),
    "bit_flip": ChannelKind(("p",), _flip(PAULI_X)),
    "phase_flip": ChannelKind(("p",), _flip(PAULI_Z)),
    "bit_phase_flip": ChannelKind(("p",), _flip(PAULI_Y)),
    "dephasing": ChannelKind(("p",), _flip(PAULI_Z)),
    # N(rho) = p I/2 + (1 - p) rho
    "depolarizing": ChannelKind(
        ("p",),
        lambda p: [np.sqrt(1.0 - 0.75 * p) * PAULI_I] + [np.sqrt(p / 4) * s for s in _PAULIS[1:]],
    ),
    # p is the probability the |0> component survives, gamma = 1 - p the
    # damping rate; decay is toward |1>
    "amplitude_damping": ChannelKind(
        ("p",),
        lambda p: [np.diag([np.sqrt(p), 1.0]), np.sqrt(1.0 - p) * np.eye(2, k=-1)],
        complement="gamma",
    ),
    # output dimension d + 1: the input levels, then the erasure flag |e> = |d>
    "erasure": ChannelKind(
        ("p", "d"), lambda p, d: [np.sqrt(1.0 - p) * np.eye(d + 1, d)] + _erasure_ops(p, d)
    ),
    # output dimension 4: the input qubit and a flag qubit
    "phase_erasure": ChannelKind(
        ("q",),
        lambda q: [
            np.sqrt(1.0 - q) * np.kron(PAULI_I, _FLAG0),
            np.sqrt(q / 2.0) * np.kron(PAULI_I, _FLAG1),
            np.sqrt(q / 2.0) * np.kron(PAULI_Z, _FLAG1),
        ],
        qubit_only=True,
    ),
    # erase with probability p, phase-erase with probability q
    "mixed_erasure": ChannelKind(("p", "q"), _mixed_erasure, qubit_only=True),
    # computational-basis measure-and-resend
    "measure_prepare": ChannelKind((), lambda: [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    # affine-only (x, y, z) -> (x, y, 0), not completely positive
    "pancake": ChannelKind((), lambda: AffineMap(np.diag([1.0, 1.0, 0.0]), np.zeros(3))),
}


def make_channel(kind: str, **params) -> QuantumChannel:
    """The named channel of CHANNEL_KINDS; its params keep p, not the complement gamma."""
    if not isinstance(kind, str) or kind not in CHANNEL_KINDS:
        raise Unsupported(f"unknown channel kind {kind!r}")
    row = CHANNEL_KINDS[kind]
    values = row.parse(kind, params)
    args = [values[n] for n in row.params]
    shown = ",".join(f"{n}={v:g}" for n, v in zip(row.params, args))
    label = f"{kind}({shown})" if shown else kind
    params = {n: v for n, v in values.items() if n != row.complement}
    built = row.build(*args)
    if isinstance(built, AffineMap):
        return QuantumChannel(None, 2, 2, label=label, kind=kind, params=params, affine=built)
    d_out, d_in = np.shape(built[0])
    return QuantumChannel(built, d_in, d_out, label=label, kind=kind, params=params)


def from_kraus(kraus, dim_in=None, dim_out=None, label="custom") -> QuantumChannel:
    """Wrap an explicit Kraus list as a channel (completeness validated)."""
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise InvalidChannel("empty Kraus list")
    d_out, d_in = ops[0].shape
    dim_in = d_in if dim_in is None else int(dim_in)
    dim_out = d_out if dim_out is None else int(dim_out)
    return QuantumChannel(ops, dim_in, dim_out, label=label, kind="custom")


def _apply_matrix(channel: QuantumChannel, m: np.ndarray) -> np.ndarray:
    d = channel.dim_out
    return (_superoperator(channel) @ m.reshape(-1)).reshape(d, d)


def apply(channel: QuantumChannel, rho) -> DensityMatrix:
    """Send a state through the channel."""
    m = _as_matrix(rho)
    if m.shape[0] != channel.dim_in:
        raise DimensionMismatch(
            f"state dim {m.shape[0]} differs from channel input {channel.dim_in}"
        )
    return DensityMatrix(_apply_matrix(channel, m), repair=True)


def _superoperator(channel: QuantumChannel) -> np.ndarray:
    """Row-major-vec superoperator M with vec(N(rho)) = M vec(rho).

    An affine-only map r -> A r + b enters through its Pauli transfer matrix
    R = [[1, 0], [b, A]] as M = sum_ij R_ij vec(s_i) vec(s_j)^dag / 2 (Wood,
    Biamonte & Cory, Quantum Inf. Comput. 15, 2015).
    """
    if channel.kraus is None:
        aff = channel.stored_affine
        r = np.eye(4)
        r[1:, 0], r[1:, 1:] = aff.b, aff.A
        return 0.5 * _PAULI_VECS.T @ r @ _PAULI_VECS.conj()
    ks = np.asarray(channel.kraus)
    m = np.einsum("ioa,iqb->oqab", ks, ks.conj())
    return m.reshape(channel.dim_out**2, channel.dim_in**2)


def _choi_from_superop(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    t = m.reshape(d_out, d_out, d_in, d_in)
    return t.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out) / d_in


def choi(channel: QuantumChannel) -> ChoiMatrix:
    """Choi state of the channel (unit trace for trace-preserving maps)."""
    d_in, d_out = channel.dim_in, channel.dim_out
    return ChoiMatrix(_choi_from_superop(_superoperator(channel), d_in, d_out), d_in, d_out)


def _choi_trace_residual(c: np.ndarray, d_in: int, d_out: int) -> float:
    """max |d_in Tr_out C - I|: zero when the map with Choi state C preserves trace."""
    reduced = np.trace(c.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3) * d_in
    return float(np.max(np.abs(reduced - np.eye(d_in))))


def is_cptp(channel: QuantumChannel) -> CptpReport:
    """Trace preservation and complete positivity with diagnostics."""
    c = choi(channel)
    residual = _choi_trace_residual(c.matrix, channel.dim_in, channel.dim_out)
    min_eig = c.min_eigenvalue
    return CptpReport(
        trace_preserving=residual <= COMPLETENESS_TOL,
        completely_positive=min_eig >= -CP_TOL,
        completeness_residual=residual,
        choi_min_eigenvalue=min_eig,
    )


def is_unital(channel: QuantumChannel) -> bool:
    """True when the maximally mixed input maps to the maximally mixed output."""
    d_in, d_out = channel.dim_in, channel.dim_out
    out = _apply_matrix(channel, np.eye(d_in) / d_in)
    return bool(np.max(np.abs(out - np.eye(d_out) / d_out)) <= COMPLETENESS_TOL)


def complementary(channel: QuantumChannel) -> QuantumChannel:
    """The channel into the environment.

    For Kraus operators {N_i} the environment output has entries
    Tr(N_i rho N_j^dag); the returned map sends the input to that
    environment state, with one Kraus operator per output basis index.
    Its completeness sum equals the channel's, so it is not checked again.
    """
    if channel.kraus is None:
        raise InvalidChannel("affine-only channel has no complementary map")
    # operator b stacks row b of every Kraus operator
    ops = np.asarray(channel.kraus).transpose(1, 0, 2)
    return QuantumChannel(
        ops,
        channel.dim_in,
        len(channel.kraus),
        label=f"comp({channel.label})",
        kind="complementary",
        params=dict(channel.params),
        trace_preserving=False,
    )


def affine_representation(channel: QuantumChannel) -> AffineMap:
    """Bloch-ball affine action r -> A r + b of a qubit channel.

    b and A are R[1:, 0] and R[1:, 1:] of the Pauli transfer matrix
    R_ij = Tr(s_i N(s_j)) / 2. R's top row is (1, 0, 0, 0) exactly when N
    preserves trace; a map that does not raises InvalidChannel.
    """
    if channel.dim_in != 2 or channel.dim_out != 2:
        raise DimensionMismatch("affine representation needs a qubit channel")
    if channel.kraus is None:
        return channel.stored_affine
    r = 0.5 * _PAULI_VECS.conj() @ _superoperator(channel) @ _PAULI_VECS.T
    if np.max(np.abs(r[0] - (1.0, 0.0, 0.0, 0.0))) > COMPLETENESS_TOL:
        raise InvalidChannel("map does not preserve trace, so it has no Bloch-ball action")
    return AffineMap(r[1:, 1:].real, r[1:, 0].real)


def tetrahedron_check(eta) -> bool:
    """Whether a Pauli distortion vector (eta_x, eta_y, eta_z) is CP-compatible.

    Checks the four Choi vertex weights (1 +- eta_x +- eta_y +- eta_z)/4
    with an even number of minus signs; all must be non-negative.
    """
    x, y, z = (float(v) for v in tuple(eta))
    weights = (
        1.0 + x + y + z,
        1.0 + x - y - z,
        1.0 - x + y - z,
        1.0 - x - y + z,
    )
    return all(w >= -4.0 * CP_TOL for w in weights)


def compose(first: QuantumChannel, second: QuantumChannel) -> QuantumChannel:
    """The channel `second after first` with Kraus set {S_j F_i}."""
    if first.kraus is None or second.kraus is None:
        raise InvalidChannel("composition needs Kraus representations")
    if second.dim_in != first.dim_out:
        raise DimensionMismatch(
            f"cannot compose: {first.dim_out} -> into input {second.dim_in}"
        )
    ops = [s @ f for s in second.kraus for f in first.kraus]
    return QuantumChannel(
        ops,
        first.dim_in,
        second.dim_out,
        label=f"({second.label} o {first.label})",
        kind="composition",
    )


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """The parallel channel a (x) b."""
    if a.kraus is None or b.kraus is None:
        raise InvalidChannel("tensoring needs Kraus representations")
    ops = [np.kron(ka, kb) for ka in a.kraus for kb in b.kraus]
    return QuantumChannel(
        ops,
        a.dim_in * b.dim_in,
        a.dim_out * b.dim_out,
        label=f"({a.label} x {b.label})",
        kind="tensor",
    )


def _max_output_radius(aff: AffineMap) -> float:
    """max_u |A u + b| over the unit sphere, exactly."""
    return min(float(np.linalg.norm(aff(_max_output_direction(aff)))), 1.0)


def _max_output_direction(aff: AffineMap) -> np.ndarray:
    """The unit input u that maximizes |A u + b|.

    With M = A^T A = V diag(mu) V^T and g = V^T A^T b, the maximizer is
    u = V y with y_i = g_i / (s + mu_max - mu_i), where s >= 0 is the root of
    the secular equation |y| = 1 (Gander, Golub & von Matt, A constrained
    eigenvalue problem, Linear Algebra Appl. 114/115, 1989). 1/|y(s)| is
    concave, so Newton from below the root climbs to it monotonically. In
    the hard case (g has no top-eigenspace component, e.g. b = 0 on unital
    channels) |y| < 1 already at s = 0, and t v_1 fills y up to the sphere.
    """
    a, b = aff.A, aff.b
    mu, vecs = np.linalg.eigh(a.T @ a)
    g = vecs.T @ (a.T @ b)
    gap = mu[-1] - mu
    # below the root: at s = |g_i| - gap_i the i-th term alone reaches 1
    s = max(float(np.max(np.abs(g) - gap)), 1e-300)
    for _ in range(100):
        y = g / (s + gap)
        norm2 = float(y @ y)
        if norm2 <= 1.0:
            break
        step = (math.sqrt(norm2) - 1.0) * norm2 / float((y * y / (s + gap)).sum())
        if step <= 1e-16 * s:
            break
        s += step
    fill = 1.0 - float(y @ y)
    # a smaller fill is rounding noise at |y| = 1 (amplitude damping), and
    # dropping t costs only mu_max t^4 of |A u + b|^2
    if fill > 1e-8:
        y[-1] = math.sqrt(fill)
    return vecs @ (y / np.linalg.norm(y))


def is_degradable(channel: QuantumChannel) -> DegradabilityReport:
    """Test whether the environment output can be produced from the channel output.

    Solves D M_N = M_Nc for the degrading map D on superoperators once, by
    pseudo-inverse (singular values below 1e-12 of the largest are dropped),
    and decides: no exact solution means no linear D, so "not_degradable";
    a CPTP D means "degradable". A D that is not CPTP is "not_degradable"
    when it is the only solution (M_N of full row rank d_out^2), else
    "undetermined": other solutions D may be CPTP (erasure(0.2) is
    degradable, yet its pinv solution is not CP). condition_number is that
    of the kept singular values, 1.0 when none is kept.
    """
    return _degradability(channel, _superoperator(channel), _superoperator(complementary(channel)))


def _degradability(channel: QuantumChannel, m_n, m_c) -> DegradabilityReport:
    """is_degradable from the superoperators M_N and M_Nc of the channel and its complement."""
    d_out, n_env = channel.dim_out, len(channel.kraus)
    u, sv, vh = np.linalg.svd(m_n, full_matrices=False)
    rank = int(np.count_nonzero(sv > 1e-12 * sv[0]))
    cond = float(sv[0] / sv[rank - 1]) if rank else 1.0
    d_mat = (m_c @ vh[:rank].conj().T / sv[:rank]) @ u[:, :rank].conj().T
    residual = float(np.max(np.abs(d_mat @ m_n - m_c)))
    solve_tol = max(1e-9, cond * 1e-13)
    if residual > solve_tol:
        # no linear map sends the outputs to the environment outputs
        return DegradabilityReport("not_degradable", None, cond, residual)

    choi_d = _choi_from_superop(d_mat, d_out, n_env)
    w, v = np.linalg.eigh((choi_d + choi_d.conj().T) / 2.0)
    tp_residual = _choi_trace_residual(choi_d, d_out, n_env)
    if w[0] < -solve_tol or tp_residual > max(1e-7, solve_tol):
        status = "not_degradable" if rank == d_out * d_out else "undetermined"
        return DegradabilityReport(status, None, cond, residual)

    ops = [
        math.sqrt(float(w[i]) * d_out) * v[:, i].reshape(d_out, n_env).T
        for i in range(w.size)
        if w[i] > 1e-12
    ]
    label = f"degrading({channel.label})"
    degrading = QuantumChannel(ops, d_out, n_env, label, kind="degrading", trace_preserving=False)
    return DegradabilityReport("degradable", degrading, cond, residual)


def is_entanglement_breaking(channel: QuantumChannel) -> bool:
    """PPT test on the Choi state; decisive for qubit-to-qubit channels."""
    if channel.dim_in != 2 or channel.dim_out != 2:
        raise Unsupported("entanglement-breaking test implemented for qubit channels")
    c = choi(channel).matrix
    t = c.reshape(2, 2, 2, 2)
    pt = t.transpose(2, 1, 0, 3).reshape(4, 4)  # transpose the reference leg
    return float(np.linalg.eigvalsh(pt)[0]) >= -CP_TOL


def channel_to_json(channel: QuantumChannel) -> dict:
    """JSON-ready dict with the explicit Kraus representation."""
    if channel.kraus is None:
        raise InvalidChannel("affine-only channel has no Kraus JSON form")
    return {
        "label": channel.label,
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [
            {"re": k.real.tolist(), "im": k.imag.tolist()} for k in channel.kraus
        ],
    }


def channel_from_json(data: dict, strict: bool = True) -> QuantumChannel:
    """Build a channel from a JSON dict.

    Accepts either {"kind": ..., <params>} for the constructor zoo or an
    explicit {"label", "dim_in", "dim_out", "kraus": [{"re", "im"}, ...]}
    form. In strict mode the explicit form must be CPTP.
    """
    if isinstance(data, dict) and "kind" in data:
        params = {k: v for k, v in data.items() if k not in ("kind", "label")}
        return make_channel(data["kind"], **params)
    try:
        ops = [
            np.asarray(k["re"], dtype=float) + 1j * np.asarray(k["im"], dtype=float)
            for k in data["kraus"]
        ]
        dim_in = int(data["dim_in"])
        dim_out = int(data["dim_out"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidChannel(f"malformed channel JSON: {exc}") from exc
    ch = QuantumChannel(
        ops,
        dim_in,
        dim_out,
        label=str(data.get("label", "custom")),
        kind="custom",
        trace_preserving=strict,
    )
    if strict and not is_cptp(ch):
        raise InvalidChannel("channel JSON is not CPTP in strict mode")
    return ch


def random_cptp_channel(
    dim_in: int, dim_out: int, kraus_count: int, rng: np.random.Generator
) -> QuantumChannel:
    """A Haar-ish random CPTP channel from a random isometry."""
    rows = dim_out * kraus_count
    if rows < dim_in:
        raise InvalidParameter("dim_out * kraus_count must be at least dim_in")
    g = rng.standard_normal((rows, dim_in)) + 1j * rng.standard_normal((rows, dim_in))
    v, _ = np.linalg.qr(g)
    ops = [v[e * dim_out : (e + 1) * dim_out, :] for e in range(kraus_count)]
    return QuantumChannel(ops, dim_in, dim_out, label="random", kind="custom")

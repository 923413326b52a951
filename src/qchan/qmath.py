"""State algebra for small finite-dimensional quantum systems.

Density matrices, Bloch vectors, pure states, ensembles and measurements,
plus the operations the rest of the toolkit is built on: spectral
decomposition, tensor products, partial traces, purification, fidelity
and projective/POVM measurement. Everything works on explicit complex
matrices; intended scale is dimension <= 32.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompleteMeasurement,
    InvalidBlochVector,
    InvalidChannel,
    InvalidState,
    NotHermitian,
)

STATE_TOL = 1e-10
COMPLETENESS_TOL = 1e-9

PAULI_I = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)


def completeness_residual(ops) -> float:
    """max |sum_i K_i^dag K_i - I| over the entries, for a nonempty operator list."""
    total = sum(k.conj().T @ k for k in ops)
    return float(np.max(np.abs(total - np.eye(ops[0].shape[1]))))


def _as_matrix(obj) -> np.ndarray:
    """Complex square ndarray view of a DensityMatrix or array-like."""
    if isinstance(obj, DensityMatrix):
        return obj.matrix
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidState("matrix has a non-finite entry")
    return m


def _complex_from_json(data: dict, ndim: int) -> np.ndarray:
    """re + i im of a state's JSON dict, of shape (dim,) * ndim."""
    try:
        values = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        shape = (data["dim"],) * ndim
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidState(f"malformed state JSON: {exc!r}") from exc
    if values.shape != shape:
        raise DimensionMismatch(f"dim field disagrees with shape {values.shape}")
    return values


def _clipped_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix with tiny negatives clipped to 0."""
    w = np.linalg.eigvalsh(m)
    return np.clip(w, 0.0, None)


class BlochVector:
    """A point of the closed Bloch ball, r = (x, y, z) with |r| <= 1.

    Parameters
    ----------
    r : sequence of 3 reals
        Cartesian Bloch components. Norms up to 1 + 1e-10 are accepted
        to absorb rounding; anything larger raises InvalidBlochVector.
    """

    __slots__ = ("_r",)

    def __init__(self, r):
        arr = np.asarray(r, dtype=float)
        if arr.shape != (3,):
            raise InvalidBlochVector(f"expected 3 components, got shape {arr.shape}")
        if not np.linalg.norm(arr) <= 1.0 + STATE_TOL:
            raise InvalidBlochVector(f"norm {np.linalg.norm(arr):.12f} exceeds 1 or is NaN")
        arr.setflags(write=False)
        self._r = arr

    @property
    def r(self) -> np.ndarray:
        return self._r

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self._r))

    def __iter__(self):
        return iter(self._r)

    def __len__(self):
        return 3

    def __getitem__(self, i):
        return self._r[i]

    def __repr__(self):
        x, y, z = self._r
        return f"BlochVector(({x:.6g}, {y:.6g}, {z:.6g}))"


class DensityMatrix:
    """A dim x dim density matrix: Hermitian, unit trace, PSD.

    Parameters
    ----------
    matrix : array-like
        Square complex matrix.
    repair : bool
        If True, re-Hermitize as (M + M^dag)/2 and renormalize the trace
        before validating positivity. If False (default), Hermiticity and
        unit trace are required within 1e-10.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix, repair: bool = False):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidState("matrix has a non-finite entry")
        if repair:
            m = (m + m.conj().T) / 2.0
            tr = float(np.trace(m).real)
            if tr <= STATE_TOL:
                raise InvalidState(f"trace {tr:.3e} is not renormalizable")
            m = m / tr
        else:
            if np.max(np.abs(m - m.conj().T)) > STATE_TOL:
                raise NotHermitian("matrix is not Hermitian within 1e-10")
            if abs(np.trace(m) - 1.0) > STATE_TOL:
                raise InvalidState(f"trace {np.trace(m):.12f} differs from 1")
            m = (m + m.conj().T) / 2.0
        if np.linalg.eigvalsh(m)[0] < -STATE_TOL:
            raise InvalidState("matrix has a negative eigenvalue")
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ndarray holding the entries."""
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def purity(self) -> float:
        return purity(self)

    def to_bloch(self) -> BlochVector:
        return to_bloch(self)

    def spectral_decompose(self):
        return spectral_decompose(self)

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return tensor_product(self, other)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self._m.real.tolist(),
            "im": self._m.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DensityMatrix":
        return cls(_complex_from_json(data, 2))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, purity={self.purity():.6g})"


class PureState:
    """A normalized state vector |psi> of dimension dim."""

    __slots__ = ("_amp",)

    def __init__(self, amplitudes):
        amp = np.array(amplitudes, dtype=complex).reshape(-1)
        if amp.size == 0:
            raise InvalidState("empty amplitude vector")
        nrm2 = float(np.vdot(amp, amp).real)
        if not abs(nrm2 - 1.0) <= STATE_TOL:  # NaN fails too
            raise InvalidState(f"squared norm {nrm2:.12f} differs from 1")
        amp.setflags(write=False)
        self._amp = amp

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp

    @property
    def dim(self) -> int:
        return self._amp.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self._amp, self._amp.conj()))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self._amp.real.tolist(),
            "im": self._amp.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PureState":
        return cls(_complex_from_json(data, 1))

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class Ensemble:
    """A finite ensemble {p_i, rho_i} of same-dimension states."""

    __slots__ = ("_weights", "_states")

    def __init__(self, weights, states):
        w = np.asarray(weights, dtype=float)
        states = tuple(states)
        if w.ndim != 1 or len(states) != w.size or w.size == 0:
            raise InvalidState("weights and states must be equal-length and non-empty")
        # written so that NaN fails; an infinite weight fails the sum
        if not np.all(w >= -STATE_TOL):
            raise InvalidState("negative or NaN ensemble weight")
        if not abs(float(w.sum()) - 1.0) <= STATE_TOL:
            raise InvalidState(f"weights sum to {w.sum():.12f}, expected 1")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed state dimensions {sorted(dims)}")
        w = np.clip(w, 0.0, None)
        w.setflags(write=False)
        self._weights = w
        self._states = states

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def states(self) -> tuple:
        return self._states

    @property
    def dim(self) -> int:
        return self._states[0].dim

    def __len__(self):
        return len(self._states)

    def average(self) -> DensityMatrix:
        """The ensemble average sum_i p_i rho_i."""
        acc = sum(p * s.matrix for p, s in zip(self._weights, self._states))
        return DensityMatrix(acc, repair=True)

    def __repr__(self):
        return f"Ensemble(size={len(self)}, dim={self.dim})"


class MeasurementSet:
    """POVM given by operators {M_i} with sum_i M_i^dag M_i = I."""

    __slots__ = ("_ops",)

    def __init__(self, operators):
        ops = tuple(np.array(m, dtype=complex) for m in operators)
        if not ops:
            raise IncompleteMeasurement("no measurement operators")
        d = ops[0].shape[0]
        if any(m.shape != (d, d) for m in ops):
            raise DimensionMismatch("measurement operators must share one square shape")
        if not completeness_residual(ops) <= COMPLETENESS_TOL:  # NaN fails too
            raise IncompleteMeasurement("operators do not resolve the identity within 1e-9")
        for m in ops:
            m.setflags(write=False)
        self._ops = ops

    @property
    def operators(self) -> tuple:
        return self._ops

    @property
    def dim(self) -> int:
        return self._ops[0].shape[0]

    def __len__(self):
        return len(self._ops)


def from_bloch(r) -> DensityMatrix:
    """Density matrix (I + r . sigma)/2 of a Bloch vector."""
    if not isinstance(r, BlochVector):
        r = BlochVector(r)
    x, y, z = r.r
    m = 0.5 * (PAULI_I + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    return DensityMatrix(m)


def to_bloch(rho) -> BlochVector:
    """Bloch vector (Tr(rho X), Tr(rho Y), Tr(rho Z)) of a qubit state."""
    m = _as_matrix(rho)
    if m.shape != (2, 2):
        raise DimensionMismatch(f"Bloch coordinates need dim 2, got {m.shape[0]}")
    return BlochVector(tuple(float(np.trace(m @ p).real) for p in (PAULI_X, PAULI_Y, PAULI_Z)))


def spectral_decompose(rho):
    """Eigen-decomposition with a deterministic ordering.

    Returns a list of (eigenvalue, eigenvector) pairs sorted by descending
    eigenvalue. Each eigenvector is phase-normalized so its first component
    of magnitude above 1e-12 is real positive; exact eigenvalue ties are
    ordered lexicographically by the normalized vector entries.
    """
    m = _as_matrix(rho)
    if np.max(np.abs(m - m.conj().T)) > STATE_TOL:
        raise NotHermitian("spectral decomposition needs a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    pairs = []
    for k in range(w.size):
        vec = v[:, k].copy()
        nz = np.flatnonzero(np.abs(vec) > 1e-12)
        if nz.size:
            lead = vec[nz[0]]
            vec = vec * (lead.conjugate() / abs(lead))
        pairs.append((float(w[k]), vec))
    def _key(pair):
        val, vec = pair
        return (-round(val, 12), tuple(np.round(vec.view(float), 10)))
    pairs.sort(key=_key)
    for _, vec in pairs:
        vec.setflags(write=False)
    return pairs


def purity(rho) -> float:
    """Tr(rho^2), in [1/dim, 1]."""
    m = _as_matrix(rho)
    return float(np.trace(m @ m).real)


def tensor_product(a, b):
    """Kronecker product of two states (DensityMatrix or PureState)."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    return DensityMatrix(np.kron(_as_matrix(a), _as_matrix(b)))


def partial_trace(rho, dims, keep) -> DensityMatrix:
    """Trace out all subsystems not listed in keep.

    Parameters
    ----------
    rho : DensityMatrix or array-like
        Joint state on the tensor product of the given subsystems.
    dims : sequence of int
        Subsystem dimensions, in tensor order; their product must equal
        the matrix dimension.
    keep : int or sequence of int
        Indices (into dims) of the subsystems to keep, in original order.
    """
    m = _as_matrix(rho)
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != m.shape[0]:
        raise DimensionMismatch(f"dims {dims} do not factor dimension {m.shape[0]}")
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep) or len(set(keep)) != len(keep):
        raise DimensionMismatch(f"keep indices {keep} invalid for {len(dims)} subsystems")
    n = len(dims)
    t = m.reshape(dims + dims)
    # contract row/column axes of each traced subsystem, highest axis first
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return DensityMatrix(t.reshape(d_keep, d_keep))


def purify(rho) -> PureState:
    """A purification |phi>_PA with reference system P first.

    |phi> = sum_i sqrt(lambda_i) |i>_P |e_i>_A built from the spectral
    decomposition of rho; tracing out P recovers rho exactly.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    basis = np.eye(rho.dim, dtype=complex)
    pairs = enumerate(spectral_decompose(rho))
    amp = sum(np.sqrt(val) * np.kron(basis[i], vec) for i, (val, vec) in pairs if val > 0.0)
    nrm = np.linalg.norm(amp)
    return PureState(amp / nrm)


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = [Tr sqrt(sqrt(sigma) rho sqrt(sigma))]^2."""
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state dims differ: {a.shape[0]} vs {b.shape[0]}")
    rb = _sqrtm_psd(b)
    w = _clipped_eigvalsh(rb @ a @ rb)
    f = float(np.sqrt(w).sum() ** 2)
    return min(f, 1.0)


def entanglement_fidelity(rho, channel) -> float:
    """Entanglement fidelity of a channel at input rho.

    <psi| (I (x) N)(|psi><psi|) |psi> for a purification psi of rho, which
    equals sum_k |Tr(rho K_k)|^2 (Schumacher, PRA 54, 1996). Requires a
    trace-preserving channel with equal input and output dimensions.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    kraus = getattr(channel, "kraus", None)
    if kraus is None:
        raise InvalidChannel("channel has no Kraus representation")
    if channel.dim_in != rho.dim or channel.dim_out != rho.dim:
        raise DimensionMismatch("entanglement fidelity needs dim_out == dim_in == dim(rho)")
    if completeness_residual(kraus) > COMPLETENESS_TOL:
        raise InvalidChannel("channel is not trace preserving")
    # Tr(rho K_k) for every k at once
    traces = np.einsum("ij,kji->k", rho.matrix, np.asarray(kraus))
    return float(min(float(np.sum(np.abs(traces) ** 2)), 1.0))


def measure(rho, measurement: MeasurementSet):
    """Apply a measurement, returning [(probability, post_state), ...].

    Post-measurement states are M_i rho M_i^dag / p_i; outcomes with
    probability below 1e-12 carry None in place of an undefined state.
    """
    m = _as_matrix(rho)
    if not isinstance(measurement, MeasurementSet):
        measurement = MeasurementSet(measurement)
    if measurement.dim != m.shape[0]:
        raise DimensionMismatch("measurement dimension differs from state")
    outcomes = []
    for op in measurement.operators:
        out = op @ m @ op.conj().T
        p = float(np.trace(out).real)
        if p <= 1e-12:
            outcomes.append((max(p, 0.0), None))
        else:
            outcomes.append((p, DensityMatrix(out / p, repair=True)))
    return outcomes


def bell_state(i: int, j: int) -> PureState:
    """The Bell state |beta_ij>; i flips the sign, j flips the parity."""
    if i not in (0, 1) or j not in (0, 1):
        raise InvalidState(f"Bell indices must be bits, got ({i}, {j})")
    amp = np.zeros(4, dtype=complex)
    sign = -1.0 if i else 1.0
    if j == 0:
        amp[0], amp[3] = 1.0, sign          # (|00> + sign |11>)/sqrt(2)
    else:
        amp[1], amp[2] = 1.0, sign          # (|01> + sign |10>)/sqrt(2)
    return PureState(amp / np.sqrt(2.0))

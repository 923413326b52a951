"""Reference values computed without qchan.

Closed forms from the literature and exact rational arithmetic. Nothing
here imports qchan, so a wrong answer in the program cannot leak into
the value it is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# independence numbers of the strong powers of the 5-cycle
PENTAGON_ALPHA = {1: 2, 2: 5, 3: 10}


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def shannon(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def affine_matrix(kraus) -> np.ndarray:
    """T with T_ij = Tr(s_i N(s_j)) / 2: the linear part of the Bloch map."""
    return np.array(
        [[0.5 * np.trace(si @ apply_kraus(kraus, sj)).real for sj in PAULIS] for si in PAULIS]
    )


def unital_qubit_capacity(kraus) -> float:
    """King: C = 1 - h((1 + lambda_max) / 2) for a unital qubit channel."""
    lam = float(np.linalg.svd(affine_matrix(kraus), compute_uv=False)[0])
    return 1.0 - h2((1.0 + min(lam, 1.0)) / 2.0)


def dephasing_type_q1(p: float) -> float:
    """Q1 of a two-Kraus Pauli channel (degradable): 1 - h(p)."""
    return 1.0 - h2(p)


def amplitude_damping_q1(gamma: float) -> float:
    """max over tau of h((1 - gamma) tau) - h(gamma tau) for gamma < 1/2, else 0."""
    if gamma >= 0.5:
        return 0.0

    def f(tau):
        return h2((1.0 - gamma) * tau) - h2(gamma * tau)

    grid = [k / 2000.0 for k in range(2001)]
    k_best = max(range(len(grid)), key=lambda k: f(grid[k]))
    lo, hi = grid[max(k_best - 1, 0)], grid[min(k_best + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a = hi - inv_phi * (hi - lo)
        b = lo + inv_phi * (hi - lo)
        if f(a) < f(b):
            lo = a
        else:
            hi = b
    return max(f(0.5 * (lo + hi)), 0.0)


def erasure_refs(p: float):
    """(C, Q1) of the qubit erasure channel."""
    return 1.0 - p, max(1.0 - 2.0 * p, 0.0)


def mixed_erasure_refs(p: float, q: float):
    """(C, Q1) of erasure p mixed with phase erasure q."""
    return 1.0 - p, max(1.0 - q - 2.0 * p, 0.0)


def expected_rounds_exact(n: int, p0: float) -> Fraction:
    """E[max of 2^n geometric(p0)] by inclusion-exclusion, in exact rationals."""
    m = 2**n
    q = 1 - Fraction(p0)
    total = Fraction(0)
    qi = Fraction(1)
    for i in range(1, m + 1):
        qi *= q
        term = Fraction(math.comb(m, i)) / (1 - qi)
        total += term if i % 2 else -term
    return total


def strong_adjacent(base_adj, a, b) -> bool:
    """Distinct tuples are adjacent when every coordinate is equal or adjacent."""
    return a != b and all(x == y or base_adj[x][y] for x, y in zip(a, b))


def parse_tuple(label: str):
    """'(v0,v3)' -> ('v0', 'v3'); a single-use label 'v0' -> ('v0',)."""
    if label.startswith("(") and label.endswith(")"):
        return tuple(label[1:-1].split(","))
    return (label,)


def pauli_eigenstates():
    """The six Pauli eigenstates, labelled as qchan labels them."""
    out = {}
    for name, axis in (("z", 2), ("x", 0), ("y", 1)):
        for sign in (1.0, -1.0):
            r = [0.0, 0.0, 0.0]
            r[axis] = sign
            rho = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(r, PAULIS)))
            out[("+" if sign > 0 else "-") + name] = rho
    return out


def confusability_adjacency(kraus, tol: float = 1e-10):
    """Label-keyed adjacency of the Pauli-eigenstate alphabet under a channel."""
    states = pauli_eigenstates()
    outs = {k: apply_kraus(kraus, rho) for k, rho in states.items()}
    return {
        a: {b: a != b and float(np.trace(outs[a] @ outs[b]).real) > tol for b in outs}
        for a in outs
    }


def pentagon_adjacency():
    labels = [f"v{i}" for i in range(5)]
    return {
        a: {b: abs(i - j) in (1, 4) for j, b in enumerate(labels)}
        for i, a in enumerate(labels)
    }


def independence_number(base_adj) -> int:
    """Largest independent set of a small label-keyed graph, by trying every subset."""
    labels = list(base_adj)
    best = 0
    for mask in range(1 << len(labels)):
        members = [v for k, v in enumerate(labels) if mask >> k & 1]
        if len(members) > best and all(
            not base_adj[a][b] for i, a in enumerate(members) for b in members[i + 1 :]
        ):
            best = len(members)
    return best


def independent_under(base_adj, witness) -> bool:
    tuples = [parse_tuple(w) for w in witness]
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            if strong_adjacent(base_adj, tuples[i], tuples[j]):
                return False
    return len(set(tuples)) == len(tuples)

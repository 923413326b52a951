import numpy as np
import pytest

from qchan import DensityMatrix, from_bloch


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_bloch(rng: np.random.Generator, max_radius: float = 1.0) -> np.ndarray:
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    return u * rng.uniform(0.0, max_radius)


def random_qubit(rng: np.random.Generator, max_radius: float = 1.0) -> DensityMatrix:
    return from_bloch(random_bloch(rng, max_radius))


def one_point(objective):
    """A batched kernel (a (B, n) stack in, results with a leading B axis out) on one point."""
    return lambda x: tuple(out[0] for out in objective(np.asarray(x, dtype=float)[None]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)

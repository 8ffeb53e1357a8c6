"""Model builders shared by several test modules."""

import numpy as np

from qcr.model import build_model
from qcr.operators import DensityOperator


def random_model(d, n, rng):
    """Random complex model: rho = A A^dag + 0.3 I normalized, traceless random Hermitian tangents."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    p = a @ a.conj().T + 0.3 * np.eye(d)
    tangents = []
    for _ in range(n):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (b + b.conj().T) / 2
        tangents.append(h - np.trace(h).real / d * np.eye(d))
    return build_model(DensityOperator(p / np.trace(p).real), tangents)

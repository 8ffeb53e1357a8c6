"""Randomness condition: decides whether random measurements are globally optimal.

The test works on one orthonormal cotangent basis: the condition holds iff
every symmetrized block X_i rho X_j vanishes for i != j while the diagonal
blocks all agree. Bilinearity extends the verdict from the basis to every
unit cotangent, so no sphere sampling is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import StatisticalModel, cotangent_operator, tangent_norm

RANDOMNESS_TOL = 1e-8
QUBIT_IDENTITY_TOL = 1e-10  # largest residual norm qubit_constant_check accepts


def orthonormal_cotangent_basis(model: StatisticalModel) -> np.ndarray:
    """Gram-Schmidt on the coordinate basis under the Fisher Gram matrix.

    That is L^{-1} for the Cholesky factor J = L L^T: its rows are cotangent
    coordinates with rows @ J @ rows.T = Id.
    """
    return np.linalg.inv(np.linalg.cholesky(model.fisher))


def bilinear_table(model: StatisticalModel) -> np.ndarray:
    """Symmetrized blocks (X_i rho X_j + X_j rho X_i)/2 over the orthonormal cotangent basis.

    The ``(n, n, d, d)`` array is symmetric in its first two indices.
    """
    ops = np.tensordot(orthonormal_cotangent_basis(model), model.slds, 1)
    prod = ops[:, None] @ model.rho.matrix @ ops[None]
    return (prod + prod.swapaxes(0, 1)) / 2.0


@dataclass(frozen=True)
class RandomnessReport:
    verdict: bool
    constant: np.ndarray | None
    witness: tuple[int, int] | None
    score: float

    def __bool__(self) -> bool:
        return self.verdict


def is_random_model(model: StatisticalModel) -> RandomnessReport:
    """Decide the randomness condition and report the constant block or a witness.

    ``score`` is the largest residual over the off-diagonal blocks and the
    diagonal-block differences; the verdict is ``score <= RANDOMNESS_TOL``.
    The witness is the first largest off-diagonal block in row-major order
    when it exceeds the tolerance, and the first largest diagonal difference
    otherwise.
    """
    blocks = bilinear_table(model)
    diag = np.arange(len(blocks))
    res = np.linalg.norm(blocks, axis=(2, 3))
    res[diag, diag] = np.linalg.norm(blocks[diag, diag] - blocks[0, 0], axis=(1, 2))
    score = float(res.max())
    if score <= RANDOMNESS_TOL:
        return RandomnessReport(True, blocks[0, 0].copy(), None, score)
    off = np.where(np.eye(len(blocks), dtype=bool), 0.0, res)
    # an off-diagonal block that fails to vanish is the more direct evidence
    if off.max() > RANDOMNESS_TOL:
        i, j = np.unravel_index(np.argmax(off), off.shape)
    else:
        i = j = np.argmax(res[diag, diag])
    return RandomnessReport(False, None, (int(i), int(j)), score)


def qubit_constant_check(model: StatisticalModel, e) -> bool:
    """Qubit identity: for a unit tangent e, X rho X equals Id - rho.

    ``e`` are tangent coordinates with unit Fisher norm; the observable X
    carries the same coordinates under the paired-basis identification.
    """
    if model.dim != 2:
        raise ValidationError("the constant-block identity is specific to qubit models")
    coords = np.asarray(e, dtype=float)
    norm = tangent_norm(model, coords)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"tangent vector has norm {norm!r}, expected 1")
    x = cotangent_operator(model, coords)
    rho = model.rho.matrix
    residual = x @ rho @ x - (np.eye(2) - rho)
    return float(np.linalg.norm(residual)) <= QUBIT_IDENTITY_TOL

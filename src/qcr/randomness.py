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
from .operators import _readonly

RANDOMNESS_TOL = 1e-8
QUBIT_IDENTITY_TOL = 1e-10  # largest residual norm qubit_constant_check accepts


def orthonormal_cotangent_basis(model: StatisticalModel) -> np.ndarray:
    """Gram-Schmidt on the coordinate basis under the Fisher Gram matrix.

    That is L^{-1} for the Cholesky factor J = L L^T: its rows are cotangent
    coordinates with rows @ J @ rows.T = Id.
    """
    return np.linalg.inv(np.linalg.cholesky(model.fisher))


@dataclass(frozen=True)
class BilinearTable:
    """Symmetrized blocks (X_i rho X_j + X_j rho X_i)/2 over an orthonormal basis."""

    basis: np.ndarray
    blocks: np.ndarray  # (n, n, d, d), symmetric in the first two indices

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def bilinear_table(model: StatisticalModel, basis: np.ndarray | None = None) -> BilinearTable:
    if basis is None:
        basis = orthonormal_cotangent_basis(model)
    basis = np.asarray(basis, dtype=float)
    n, d = model.n, model.dim
    if basis.shape != (n, n):
        raise ValidationError(f"basis: expected {n}x{n} coordinates, got {basis.shape}")
    ops = [cotangent_operator(model, basis[i]) for i in range(n)]
    rho = model.rho.matrix
    blocks = np.empty((n, n, d, d), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            b = (ops[i] @ rho @ ops[j] + ops[j] @ rho @ ops[i]) / 2.0
            blocks[i, j] = b
            blocks[j, i] = b
    return BilinearTable(_readonly(basis), _readonly(blocks))


@dataclass(frozen=True)
class RandomnessReport:
    verdict: bool
    constant: np.ndarray | None
    witness: tuple[int, int] | None
    score: float

    def __bool__(self) -> bool:
        return self.verdict


def is_random_model(model: StatisticalModel, basis: np.ndarray | None = None) -> RandomnessReport:
    """Decide the randomness condition and report the constant block or a witness.

    ``score`` is the largest residual over the off-diagonal blocks and the
    diagonal-block differences; the verdict is ``score <= RANDOMNESS_TOL``.
    """
    table = bilinear_table(model, basis)
    n = table.n
    score = 0.0
    off_best = (0.0, None)
    diag_best = (0.0, None)
    for i in range(n):
        for j in range(n):
            if i == j:
                res = float(np.linalg.norm(table.blocks[i, i] - table.blocks[0, 0]))
                if res > diag_best[0]:
                    diag_best = (res, (i, j))
            else:
                res = float(np.linalg.norm(table.blocks[i, j]))
                if res > off_best[0]:
                    off_best = (res, (i, j))
            score = max(score, res)
    if score <= RANDOMNESS_TOL:
        return RandomnessReport(True, table.blocks[0, 0].copy(), None, score)
    # an off-diagonal block that fails to vanish is the more direct evidence
    witness = off_best[1] if off_best[0] > RANDOMNESS_TOL else diag_best[1]
    return RandomnessReport(False, None, witness, score)


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

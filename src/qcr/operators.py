"""Dense Hermitian linear algebra used by every other module.

Operators are plain complex numpy arrays validated at the boundaries; all
routines are pure and never mutate their inputs. Target scale is d <= 8,
so everything is dense and eigendecomposition-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotPsdError, NumericError, SingularModelError, ValidationError

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_FLOOR = 1e-10
# eigenvalues in [-PSD_CLIP_BAND, 0] are treated as round-off and clipped to zero
PSD_CLIP_BAND = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def require_hermitian(matrix, *, tol: float = HERMITIAN_TOL, name: str = "operator") -> np.ndarray:
    """Validate a square complex matrix as Hermitian; return its exact Hermitian part."""
    h = np.array(matrix, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise ValidationError(f"{name}: expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError(f"{name}: entries must be finite")
    gap = float(np.max(np.abs(h - h.conj().T)))
    if gap > tol:
        raise ValidationError(f"{name}: not Hermitian (max |H - H^dag| = {gap:.3e} > {tol:.1e})")
    return (h + h.conj().T) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eigh(matrix, *, name: str = "operator") -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix."""
    h = require_hermitian(matrix, name=name)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge for {name}") from exc
    return SpectralDecomposition(_readonly(w), _readonly(v))


def min_eigenpair(matrix, *, name: str = "operator") -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian matrix with one unit eigenvector."""
    dec = eigh(matrix, name=name)
    return float(dec.eigenvalues[0]), dec.eigenvectors[:, 0]


def min_eigenvalue(matrix, *, name: str = "operator") -> float:
    return min_eigenpair(matrix, name=name)[0]


@dataclass(frozen=True)
class DensityOperator:
    """Strictly positive, unit-trace Hermitian matrix.

    Rank-deficient states are rejected: every construction downstream
    assumes the symmetrized-product solve is single-valued.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix, name="rho")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"rho: trace {trace!r} differs from 1 beyond {TRACE_TOL:.1e}")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < POSITIVITY_FLOOR:
            raise SingularModelError(
                f"rho: eigenvalue {smallest:.3e} below positivity floor {POSITIVITY_FLOOR:.1e}"
            )
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectral(self) -> SpectralDecomposition:
        return eigh(self.matrix, name="rho")


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, DensityOperator) else np.asarray(op, dtype=complex)


def sym_product(rho, x) -> np.ndarray:
    """Symmetrized product (rho x + x rho) / 2."""
    r = _as_matrix(rho)
    h = require_hermitian(x, name="X")
    if r.shape != h.shape:
        raise ValidationError(f"dimension mismatch: rho is {r.shape}, X is {h.shape}")
    out = (r @ h + h @ r) / 2.0
    return (out + out.conj().T) / 2.0


def solve_sym_product(rho: DensityOperator, a) -> np.ndarray:
    """Solve rho o X = A for Hermitian X.

    In rho's eigenbasis the solution is entrywise: X_ij = 2 A_ij / (s_i + s_j),
    well defined because the density operator is strictly positive.
    """
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    h = require_hermitian(a, name="A")
    if h.shape[0] != rho.dim:
        raise ValidationError(f"dimension mismatch: rho is {rho.dim}x{rho.dim}, A is {h.shape}")
    dec = rho.spectral
    v = dec.eigenvectors
    a_tilde = v.conj().T @ h @ v
    denom = dec.eigenvalues[:, None] + dec.eigenvalues[None, :]
    x = v @ (2.0 * a_tilde / denom) @ v.conj().T
    return (x + x.conj().T) / 2.0


def sqrt_psd(matrix, *, name: str = "operator") -> np.ndarray:
    """Positive square root of a PSD Hermitian matrix."""
    dec = eigh(matrix, name=name)
    w = dec.eigenvalues
    if w[0] < -PSD_CLIP_BAND:
        raise NotPsdError(f"{name}: eigenvalue {w[0]:.3e} below -{PSD_CLIP_BAND:.1e}, not PSD")
    w = np.where(w < 0.0, 0.0, w)
    v = dec.eigenvectors
    out = (v * np.sqrt(w)) @ v.conj().T
    return (out + out.conj().T) / 2.0

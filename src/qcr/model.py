"""Statistical model at a point: a density operator plus tangent directions.

Coordinate conventions, fixed for the whole package:

* a tangent vector with coordinates ``xi`` stands for the operator
  ``sum_i xi[i] * tangent[i]`` (a trace-free direction of the state);
* a cotangent vector with coordinates ``c`` stands for the observable
  ``sum_i c[i] * sld[i]``, where ``sld[i]`` solves ``rho o L = tangent[i]``;
* the pairing of a cotangent ``c`` with a tangent ``xi`` equals
  ``tr(X x) = c @ J @ xi``, and both the tangent norm and the cotangent
  norm are induced by the Fisher matrix J (``xi @ J @ xi`` and
  ``c @ J @ c``).

The map identifying estimate directions with observables is therefore the
identity on coordinates; no Euclidean identification appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .operators import (
    POSITIVITY_FLOOR,
    DensityOperator,
    _readonly,
    require_hermitian,
    solve_sym_product,
)

TANGENT_TRACE_TOL = 1e-10
TANGENT_INDEPENDENCE_TOL = 1e-8
FISHER_PD_TOL = 1e-10

PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class StatisticalModel:
    """Local data of a model: state, tangent operators, cached SLDs and Fisher matrix."""

    rho: DensityOperator
    tangent: tuple[np.ndarray, ...]
    slds: tuple[np.ndarray, ...]
    fisher: np.ndarray

    @property
    def dim(self) -> int:
        return self.rho.dim

    @property
    def n(self) -> int:
        return len(self.tangent)

    @cached_property
    def _fisher_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.fisher)

    @cached_property
    def fisher_inverse(self) -> np.ndarray:
        w, v = self._fisher_eig
        return _readonly((v / w) @ v.T)

    @cached_property
    def fisher_sqrt(self) -> np.ndarray:
        w, v = self._fisher_eig
        return _readonly((v * np.sqrt(w)) @ v.T)

    @cached_property
    def fisher_isqrt(self) -> np.ndarray:
        w, v = self._fisher_eig
        return _readonly((v / np.sqrt(w)) @ v.T)


def build_model(rho, tangent_ops) -> StatisticalModel:
    """Validate the point data, solve the SLDs and assemble the Fisher matrix."""
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    if len(tangent_ops) == 0:
        raise ValidationError("model needs at least one tangent operator")
    tangents = []
    for i, op in enumerate(tangent_ops):
        h = require_hermitian(op, name=f"tangent[{i}]")
        if h.shape[0] != rho.dim:
            raise ValidationError(f"tangent[{i}]: dimension {h.shape[0]} != rho dimension {rho.dim}")
        # h is Hermitian, so its trace is real
        tr = float(np.trace(h).real)
        if abs(tr) > TANGENT_TRACE_TOL:
            raise ValidationError(f"tangent[{i}]: trace {tr!r} exceeds {TANGENT_TRACE_TOL:.1e} in magnitude")
        tangents.append(_readonly(h))

    # independence of the directions: smallest singular value of the stacked
    # real vectorizations must stay away from zero
    stack = np.stack([np.concatenate([t.real.ravel(), t.imag.ravel()]) for t in tangents])
    smin = np.linalg.svd(stack, compute_uv=False)[-1]
    if smin <= TANGENT_INDEPENDENCE_TOL:
        raise ValidationError(f"tangent operators nearly dependent (sigma_min = {smin:.3e})")

    slds = tuple(_readonly(solve_sym_product(rho, t)) for t in tangents)
    n = len(tangents)
    fisher = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            fisher[i, j] = float(np.trace(tangents[j] @ slds[i]).real)
    fisher = (fisher + fisher.T) / 2.0
    if np.linalg.eigvalsh(fisher)[0] <= FISHER_PD_TOL:
        raise ValidationError("Fisher matrix is not positive definite")
    return StatisticalModel(rho, tuple(tangents), slds, _readonly(fisher))


def _as_coords(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValidationError(f"{name}: expected {n} coordinates, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name}: coordinates must be finite")
    return v


def sld_inner(model: StatisticalModel, c1, c2) -> float:
    """Inner product of two cotangent vectors, c1 @ J @ c2."""
    a = _as_coords(c1, model.n, "c1")
    b = _as_coords(c2, model.n, "c2")
    return float(a @ model.fisher @ b)


def tangent_norm(model: StatisticalModel, xi) -> float:
    """Norm of a tangent vector, sqrt(xi @ J @ xi)."""
    v = _as_coords(xi, model.n, "xi")
    return math.sqrt(max(float(v @ model.fisher @ v), 0.0))


def cotangent_operator(model: StatisticalModel, c) -> np.ndarray:
    """Observable sum_i c[i] * sld[i]."""
    v = _as_coords(c, model.n, "c")
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for ci, l in zip(v, model.slds):
        out += ci * l
    return out


def tangent_operator(model: StatisticalModel, xi) -> np.ndarray:
    """Trace-free direction sum_i xi[i] * tangent[i]."""
    v = _as_coords(xi, model.n, "xi")
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for xii, t in zip(v, model.tangent):
        out += xii * t
    return out


def builtin_model(name: str, *, alpha: float | None = None, probs=None) -> StatisticalModel:
    """Builtin model families.

    ``qubit-full(alpha)``:      rho = (Id + alpha sigma_3)/2,  tangents sigma_i/2, i = 1..3
    ``qubit-equatorial(alpha)``: same state, tangents sigma_1/2 and sigma_2/2 only
    ``qutrit-diagonal(p1,p2,p3)``: rho = diag(p), tangents diag(1,0,-1) and diag(0,1,-1)
    """
    if name in ("qubit-full", "qubit-equatorial"):
        if alpha is None:
            raise ValidationError(f"{name}: parameter alpha is required")
        alpha = float(alpha)
        bound = 1.0 - 2.0 * POSITIVITY_FLOOR
        if not abs(alpha) < bound:
            raise ValidationError(f"{name}: alpha = {alpha!r} outside (-{bound!r}, {bound!r})")
        rho = DensityOperator((np.eye(2, dtype=complex) + alpha * PAULI_3) / 2.0)
        tangents = [PAULI_1 / 2.0, PAULI_2 / 2.0, PAULI_3 / 2.0]
        if name == "qubit-equatorial":
            tangents = tangents[:2]
        return build_model(rho, tangents)
    if name == "qutrit-diagonal":
        if probs is None:
            raise ValidationError("qutrit-diagonal: parameters p1, p2, p3 are required")
        p = np.asarray(probs, dtype=float)
        if p.shape != (3,):
            raise ValidationError(f"qutrit-diagonal: expected 3 probabilities, got {p.shape}")
        if np.any(p <= POSITIVITY_FLOOR):
            raise ValidationError("qutrit-diagonal: probabilities must exceed the positivity floor")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"qutrit-diagonal: probabilities sum to {total!r}, not 1 within 1e-12")
        rho = DensityOperator(np.diag(p).astype(complex))
        tangents = [
            np.diag([1.0, 0.0, -1.0]).astype(complex),
            np.diag([0.0, 1.0, -1.0]).astype(complex),
        ]
        return build_model(rho, tangents)
    raise ValidationError(
        f"unknown builtin model {name!r}; expected qubit-full, qubit-equatorial or qutrit-diagonal"
    )

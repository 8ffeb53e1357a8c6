import numpy as np
import pytest

from qcr.errors import ValidationError
from qcr.model import PAULI_1, build_model, builtin_model
from qcr.operators import DensityOperator
from qcr.randomness import (
    bilinear_table,
    is_random_model,
    orthonormal_cotangent_basis,
    qubit_constant_check,
)

from helpers import random_model


def qubit(alpha=0.6):
    return builtin_model("qubit-full", alpha=alpha)


def qutrit():
    return builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))


def brute_block(model, c1, c2):
    # direct d x d computation from explicit sums of SLDs
    x1 = sum(c * l for c, l in zip(c1, model.slds))
    x2 = sum(c * l for c, l in zip(c2, model.slds))
    rho = model.rho.matrix
    return (x1 @ rho @ x2 + x2 @ rho @ x1) / 2


def test_orthonormal_basis_maximally_mixed():
    basis = orthonormal_cotangent_basis(qubit(0.0))
    assert np.allclose(basis, np.eye(3), atol=1e-12)


def test_orthonormal_basis_alpha06():
    basis = orthonormal_cotangent_basis(qubit(0.6))
    assert np.allclose(basis, np.diag([1.0, 1.0, 1.0 / 1.25]), atol=1e-10)


def test_orthonormal_basis_gram_identity():
    rng = np.random.default_rng(2)
    for alpha in (-0.9, -0.2, 0.4, 0.8):
        m = qubit(alpha)
        basis = orthonormal_cotangent_basis(m)
        gram = basis @ m.fisher @ basis.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
    q = qutrit()
    basis = orthonormal_cotangent_basis(q)
    assert np.max(np.abs(basis @ q.fisher @ basis.T - np.eye(2))) <= 1e-10
    del rng


def test_bilinear_table_qubit_structure():
    m = qubit(0.45)
    table = bilinear_table(m)
    target = np.eye(2) - m.rho.matrix
    for i in range(3):
        for j in range(3):
            if i == j:
                assert np.linalg.norm(table[i, i] - target) <= 1e-10
            else:
                assert np.linalg.norm(table[i, j]) <= 1e-10


def test_bilinear_table_single_parameter():
    rho = DensityOperator((np.eye(2) + 0.6 * np.diag([1.0, -1.0])) / 2)
    m = build_model(rho, [PAULI_1 / 2])
    table = bilinear_table(m)
    basis = orthonormal_cotangent_basis(m)
    assert np.allclose(table[0, 0], brute_block(m, basis[0], basis[0]), atol=1e-12)


def test_bilinear_table_qutrit_offdiagonal_nonzero():
    q = qutrit()
    table = bilinear_table(q)
    assert np.linalg.norm(table[0, 1]) > 1e-3
    basis = orthonormal_cotangent_basis(q)
    assert np.allclose(table[0, 1], brute_block(q, basis[0], basis[1]), atol=1e-12)


@pytest.mark.parametrize("make", [
    pytest.param(qutrit, id="qutrit-diagonal"),
    pytest.param(lambda: random_model(3, 2, np.random.default_rng(3)), id="complex-d3-n2"),
    pytest.param(lambda: random_model(3, 4, np.random.default_rng(4)), id="complex-d3-n4"),
    pytest.param(lambda: random_model(4, 3, np.random.default_rng(5)), id="complex-d4-n3"),
])
def test_bilinear_table_matches_brute_force_blocks(make):
    m = make()
    table = bilinear_table(m)
    basis = orthonormal_cotangent_basis(m)
    assert table.shape == (m.n, m.n, m.dim, m.dim)
    for i in range(m.n):
        for j in range(m.n):
            assert np.allclose(table[i, j], brute_block(m, basis[i], basis[j]), rtol=0, atol=1e-12)


def test_is_random_model_qubit():
    for alpha in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.9):
        m = qubit(alpha)
        rep = is_random_model(m)
        assert rep
        assert rep.witness is None
        assert np.linalg.norm(rep.constant - (np.eye(2) - m.rho.matrix)) <= 1e-10
        assert np.trace(rep.constant).real == pytest.approx(1.0, abs=1e-10)


def test_is_random_model_single_parameter():
    rho = DensityOperator((np.eye(2) + 0.6 * np.diag([1.0, -1.0])) / 2)
    m = build_model(rho, [PAULI_1 / 2])
    assert is_random_model(m)


def test_is_random_model_qutrit_fails_with_witness():
    rep = is_random_model(qutrit())
    assert not rep
    assert rep.constant is None
    assert rep.witness == (0, 1)
    assert rep.score > 1e-3


def test_unit_diagonal_blocks():
    # tr(X rho X) = 1 for every unit cotangent, on every model
    for m in (qubit(0.3), qubit(-0.7), qutrit()):
        table = bilinear_table(m)
        for i in range(m.n):
            assert np.trace(table[i, i]).real == pytest.approx(1.0, abs=1e-10)


def test_reparametrization_keeps_the_verdict():
    # tangents T' = A T for an invertible real A describe the same model in
    # other coordinates: the verdict and the constant block must not change
    rng = np.random.default_rng(6)
    for m, expected in ((qubit(0.5), True), (qutrit(), False)):
        rep = is_random_model(m)
        for _ in range(5):
            a = rng.normal(size=(m.n, m.n)) + 2.0 * np.eye(m.n)
            assert abs(np.linalg.det(a)) > 1e-3
            rep_re = is_random_model(build_model(m.rho, np.tensordot(a, m.tangent, 1)))
            assert rep_re.verdict == expected == rep.verdict
            if expected:
                assert np.linalg.norm(rep_re.constant - rep.constant) <= 1e-7


def test_qubit_constant_check_basis_vectors():
    m = qubit(0.6)
    assert qubit_constant_check(m, np.array([1.0, 0.0, 0.0]))
    assert qubit_constant_check(m, np.array([0.0, 0.0, 0.8]))


def test_qubit_constant_check_random_unit_vectors():
    rng = np.random.default_rng(42)
    m = qubit(0.6)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.sqrt(v @ m.fisher @ v)
        assert qubit_constant_check(m, v)


def test_qubit_constant_check_rejects_nonunit():
    m = qubit(0.6)
    with pytest.raises(ValidationError):
        qubit_constant_check(m, np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        qubit_constant_check(qutrit(), np.array([1.0, 0.0]))

import numpy as np
import pytest

from qcr.errors import ValidationError
from qcr.model import (
    PAULI_1,
    PAULI_3,
    build_model,
    builtin_model,
    cotangent_operator,
    sld_inner,
    tangent_norm,
    tangent_operator,
)
from qcr.operators import DensityOperator


def qubit(alpha):
    return builtin_model("qubit-full", alpha=alpha)


def multinomial_fisher(probs, dps):
    # classical Fisher oracle: J_ij = sum_k dp_i[k] dp_j[k] / p[k]
    n = len(dps)
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            j[a, b] = sum(dps[a][k] * dps[b][k] / probs[k] for k in range(len(probs)))
    return j


def test_maximally_mixed_qubit_fisher():
    m = qubit(0.0)
    assert np.allclose(m.fisher, np.eye(3), atol=1e-12)


def test_qubit_fisher_alpha06():
    m = qubit(0.6)
    expected = np.diag([1.0, 1.0, 1.0 / (1.0 - 0.36)])
    assert np.allclose(m.fisher, expected, atol=1e-12)
    # oracle: SLD from the symmetrized-product solve, Fisher entry from trace
    from qcr.operators import solve_sym_product

    for i, t in enumerate(m.tangent):
        sld = solve_sym_product(m.rho, t)
        assert np.linalg.norm(sld - m.slds[i]) <= 1e-12
        assert m.fisher[i, i] == pytest.approx(np.trace(t @ sld).real, abs=1e-12)


def test_qutrit_fisher_matches_multinomial_oracle():
    probs = (0.5, 0.25, 0.25)
    m = builtin_model("qutrit-diagonal", probs=probs)
    oracle = multinomial_fisher(probs, [(1.0, 0.0, -1.0), (0.0, 1.0, -1.0)])
    assert np.allclose(m.fisher, oracle, atol=1e-12)
    assert np.allclose(m.fisher, [[6.0, 4.0], [4.0, 8.0]], atol=1e-12)


def test_build_model_rejects_dependent_tangents():
    rho = DensityOperator((np.eye(2) + 0.3 * PAULI_3) / 2)
    with pytest.raises(ValidationError):
        build_model(rho, [PAULI_1 / 2, PAULI_1 / 2])


def test_build_model_rejects_traced_tangent():
    rho = DensityOperator((np.eye(2) + 0.3 * PAULI_3) / 2)
    with pytest.raises(ValidationError):
        build_model(rho, [np.eye(2, dtype=complex)])


def test_sld_defining_equation_random_models():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        p = a @ a.conj().T + 0.1 * np.eye(d)
        rho = DensityOperator(p / np.trace(p).real)
        n = int(rng.integers(1, min(4, d * d - 1) + 1))
        tangents = []
        for _ in range(n):
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (b + b.conj().T) / 2
            tangents.append(h - np.trace(h).real / d * np.eye(d))
        try:
            m = build_model(rho, tangents)
        except ValidationError:
            continue
        from qcr.operators import sym_product

        for t, l in zip(m.tangent, m.slds):
            assert np.linalg.norm(sym_product(m.rho, l) - t) <= 1e-10
            assert abs(np.trace(m.rho.matrix @ l).real) <= 1e-10
        # both Fisher formulas agree
        for i in range(m.n):
            for j in range(m.n):
                alt = np.trace(m.rho.matrix @ m.slds[i] @ m.slds[j]).real
                assert m.fisher[i, j] == pytest.approx(alt, abs=1e-10)


def test_sld_inner_examples():
    m0 = qubit(0.0)
    e1 = np.array([1.0, 0.0, 0.0])
    assert sld_inner(m0, e1, e1) == pytest.approx(1.0)
    m = qubit(0.6)
    e3 = np.array([0.0, 0.0, 1.0])
    assert sld_inner(m, e3, e3) == pytest.approx(1.5625, abs=1e-12)
    e2 = np.array([0.0, 1.0, 0.0])
    assert sld_inner(m, e1, e2) == pytest.approx(m.fisher[0, 1], abs=1e-14)


def test_tangent_norm_examples():
    m = qubit(0.6)
    assert tangent_norm(m, np.zeros(3)) == 0.0
    # the scaled third basis direction has unit norm
    f3 = np.array([0.0, 0.0, np.sqrt(1.0 - 0.36)])
    assert tangent_norm(m, f3) == pytest.approx(1.0, abs=1e-12)
    assert tangent_norm(m, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.25, abs=1e-12)


def test_cotangent_operator_examples():
    m = qubit(0.6)
    assert np.allclose(cotangent_operator(m, np.zeros(3)), 0.0)
    l3 = cotangent_operator(m, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(l3, np.diag([0.625, -2.5]), atol=1e-12)
    l1 = cotangent_operator(m, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(l1, PAULI_1, atol=1e-12)


def test_pairing_convention_self_test():
    # tr(X_op x_op) must equal c @ J @ xi on random vectors
    rng = np.random.default_rng(3)
    for alpha in (0.0, 0.3, 0.6, -0.5):
        m = qubit(alpha)
        for _ in range(25):
            c = rng.normal(size=3)
            xi = rng.normal(size=3)
            lhs = np.trace(cotangent_operator(m, c) @ tangent_operator(m, xi)).real
            assert lhs == pytest.approx(float(c @ m.fisher @ xi), abs=1e-10)


def test_builtin_models():
    m = builtin_model("qubit-full", alpha=0.6)
    assert (m.dim, m.n) == (2, 3)
    me = builtin_model("qubit-equatorial", alpha=0.6)
    assert (me.dim, me.n) == (2, 2)
    assert np.allclose(me.fisher, np.eye(2), atol=1e-12)
    q = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
    assert (q.dim, q.n) == (3, 2)
    with pytest.raises(ValidationError):
        builtin_model("qubit-full", alpha=1.0)
    with pytest.raises(ValidationError):
        builtin_model("qutrit-diagonal", probs=(0.5, 0.5, 0.1))
    with pytest.raises(ValidationError):
        builtin_model("spin-chain")


@pytest.mark.parametrize("call, match", [
    (lambda: build_model(np.eye(2) / 2, []), "at least one tangent"),
    (lambda: build_model(np.eye(2) / 2, [np.diag([1.0, 0.0, -1.0])]), "dimension 3 != rho dimension 2"),
    (lambda: builtin_model("qubit-full"), "alpha is required"),
    (lambda: builtin_model("qubit-equatorial"), "alpha is required"),
    (lambda: builtin_model("qutrit-diagonal"), "p1, p2, p3 are required"),
    (lambda: builtin_model("qutrit-diagonal", probs=(0.5, 0.5)), "expected 3 probabilities"),
    (lambda: builtin_model("qutrit-diagonal", probs=(1e-10, 0.5 - 1e-10, 0.5)), "positivity floor"),
], ids=["no-tangents", "tangent-dim", "qubit-full-no-alpha", "qubit-equatorial-no-alpha",
        "qutrit-no-probs", "qutrit-two-probs", "qutrit-prob-at-floor"])
def test_malformed_model_inputs_are_rejected(call, match):
    with pytest.raises(ValidationError, match=match):
        call()

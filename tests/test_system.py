import numpy as np
import pytest

from helpers import (pair_defect, parameter_from_pair, random_complex,
                     random_structured, random_system, reversal_defect)
from palinverse.errors import (DimensionMismatch, SingularMatrix, SingularW,
                               SymmetryViolation)
from palinverse.forward import eig_full
from palinverse.numerics import fnorm
from palinverse.system import (ALL_CLASSES, HA, HP, TA, TP, PalindromicSystem,
                               SymmetryClass, assembled_system, eval_Q,
                               pair_residual)
from reference_problems import update_fixture


def test_symmetry_class_codes():
    assert SymmetryClass.from_code("tp") == TP
    assert SymmetryClass.from_code("ha") == HA
    with pytest.raises(ValueError):
        SymmetryClass.from_code("xx")
    with pytest.raises(ValueError):
        SymmetryClass("Q", 1)


def test_partner_and_defect():
    lam = 0.4 + 0.3j
    assert abs(TP.star_scalar(lam) - lam) == 0.0
    assert abs(HP.star_scalar(lam) - np.conj(lam)) == 0.0
    assert pair_defect(TP, lam, 1 / lam) < 1e-15
    assert pair_defect(HP, lam, 1 / np.conj(lam)) < 1e-15
    assert pair_defect(TP, lam, 1 / np.conj(lam)) > 0.1


def test_constructor_rejects_broken_symmetry():
    A1 = np.eye(2)
    A0 = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(SymmetryViolation):
        PalindromicSystem(TP, A1, A0)


@pytest.mark.parametrize("A1, A0, said", [
    (np.ones((2, 3)), np.ones((2, 2)), "A1 must be square"),
    (np.eye(2), np.zeros((3, 3)), r"A0 shape \(3, 3\) does not match A1 shape \(2, 2\)"),
], ids=["A1", "A0"])
def test_constructor_rejects_nonconforming_shapes(A1, A0, said):
    with pytest.raises(DimensionMismatch, match=said):
        PalindromicSystem(TP, A1, A0)


def test_constructor_rejects_singular_A1():
    with pytest.raises(SingularMatrix):
        PalindromicSystem(TA, np.zeros((2, 2)), np.zeros((2, 2)))


def test_constructor_warns_near_singular_A1():
    A1 = np.diag([1.0, 1e-10])
    with pytest.warns(UserWarning):
        PalindromicSystem(TA, A1, np.zeros((2, 2)))


def test_eval_Q_constant_term():
    sys, _, _ = update_fixture("tp")
    assert np.allclose(eval_Q(sys, 0.0), sys.cls.epsilon * sys.A1)


def test_eval_Q_scalar_anti():
    sys = PalindromicSystem(TA, [[1.0]], [[0.0]])
    assert abs(eval_Q(sys, 1.0)[0, 0]) < 1e-15


def test_eval_Q_near_eigenvalue_fixture():
    sys, replace, _ = update_fixture("ta")
    Q = eval_Q(sys, replace[0])
    smin = np.linalg.svd(Q, compute_uv=False)[-1]
    assert smin < 1e-3 * fnorm(Q)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_palindromic_identity_random_lambdas(cls):
    sys = random_system(cls, 4, seed=42)
    rng = np.random.default_rng(9)
    checks = [1.0]
    checks += [complex(np.exp(2j * np.pi * rng.uniform())) for _ in range(30)]
    checks += [complex(rng.uniform(0.2, 2.5) * np.exp(2j * np.pi * rng.uniform()))
               for _ in range(69)]
    for lam in checks:
        val = reversal_defect(sys, lam)
        assert val <= 1e-10 * max(fnorm(eval_Q(sys, lam)), 1e-300)


def test_palindromic_identity_detects_broken_symmetry():
    # Bypass the validating constructor to fake a broken A0.
    sys = PalindromicSystem(TP, np.eye(2), np.zeros((2, 2)))
    sys.A0 = np.array([[0.0, 1e-3], [0.0, 0.0]], dtype=complex)
    val = reversal_defect(sys, 2.0 + 1.0j)
    assert val > 1e-4


def test_pair_residual_scalar_case():
    sys = PalindromicSystem(TA, [[1.0]], [[0.0]])
    r = pair_residual(sys, (np.array([[1.0, 1.0]]), np.diag([1.0, -1.0])))
    assert r < 1e-15


@pytest.mark.parametrize("X, T, said", [
    (np.ones((2, 2)), np.eye(2), "X has 2 rows, expected 3"),
    (np.ones((3, 2)), np.eye(3), "X and T dimensions do not conform"),
], ids=["rows", "conform"])
def test_pair_residual_rejects_nonconforming_pair(X, T, said):
    with pytest.raises(DimensionMismatch, match=said):
        pair_residual(random_system(TP, 3, seed=3), (X, T))


def test_pair_residual_negative_control():
    rng = np.random.default_rng(10)
    sys = random_system(TP, 3, seed=3)
    X = random_complex(rng, 3, 6)
    T = np.diag(random_complex(rng, 6) + 2)
    assert pair_residual(sys, (X, T)) > 1e-3


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_pair_residual_equivalence_invariance(cls):
    sys = random_system(cls, 3, seed=17)
    e = eig_full(sys)
    X, T = e.vectors, np.diag(e.values)
    base = pair_residual(sys, (X, T))
    rng = np.random.default_rng(11)
    for _ in range(5):
        while True:
            Y = random_complex(rng, 6, 6)
            if np.linalg.cond(Y) < 50:
                break
        transformed = pair_residual(sys, (X @ Y, np.linalg.solve(Y, T @ Y)))
        assert abs(transformed - base) < 1e-12


def test_standard_pair_validation():
    # parameter_from_pair validates a standard pair (X, T): T nonsingular,
    # X n-by-2n and W = [X; -X T^{-1}] nonsingular.
    sys = random_system(TP, 2, seed=30)
    with pytest.raises(SingularMatrix, match="T is numerically singular"):
        parameter_from_pair(sys, (np.ones((2, 2)), np.zeros((2, 2))))
    X = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularW, match="not a standard pair"):
        parameter_from_pair(sys, (np.hstack([X, X]), np.eye(4)))
    # A duplicated eigenpair column of an eig_full pair makes W singular.
    e = eig_full(sys)
    X, values = e.vectors.copy(), e.values.copy()
    X[:, 1], values[1] = X[:, 0], values[0]
    with pytest.raises(SingularW):
        parameter_from_pair(sys, (X, np.diag(values)))
    with pytest.raises(DimensionMismatch, match="needs a full pair"):
        parameter_from_pair(sys, (e.vectors[:, :2], np.diag(e.values[:2])))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_assembled_system_takes_structured_part(cls):
    # A0 = structured + delta * anti-structured: the helper keeps the
    # structured part and records the relative defect it removed.
    rng = np.random.default_rng(21)
    A1 = random_complex(rng, 5, 5)
    M = random_complex(rng, 5, 5)
    A0s = M + cls.epsilon * cls.star_of(M)
    B = random_structured(rng, cls, 5)
    A0 = A0s + 1e-7 * B
    sys = assembled_system(cls, A1, A0)
    assert sys.symmetry_defect() == 0.0
    assert fnorm(sys.A0 - A0s) <= 1e-15 * fnorm(A0s)
    want = 2e-7 * fnorm(B) / max(fnorm(A0), fnorm(A1))
    assert abs(sys.a0_defect - want) <= 1e-6 * want
    assert PalindromicSystem(cls, A1, A0s).a0_defect == 0.0
    with pytest.raises(SymmetryViolation):
        PalindromicSystem(cls, A1, A0)

import numpy as np
import pytest

from helpers import random_complex, random_unitary
from palinverse.errors import DimensionMismatch, SingularMatrix
from palinverse.numerics import (as_matrix, dense_eig, fnorm, invert,
                                 linear_solve, rank_factorize, solve_right,
                                 sv_ratio)


def test_linear_solve_identity():
    rng = np.random.default_rng(0)
    B = random_complex(rng, 3, 2)
    X = linear_solve(np.eye(3), B)
    assert np.allclose(X, B, atol=1e-14)


def test_linear_solve_diagonal():
    X = linear_solve(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
    assert np.allclose(X, [[1.0], [2.0]], atol=1e-14)


def test_linear_solve_residual_random():
    rng = np.random.default_rng(1)
    A = random_complex(rng, 8, 8)
    B = random_complex(rng, 8, 3)
    X = linear_solve(A, B)
    assert fnorm(A @ X - B) <= 1e-12 * fnorm(A) * fnorm(X)


def test_linear_solve_many_random_well_conditioned():
    rng = np.random.default_rng(2)
    done = 0
    while done < 1000:
        n = int(rng.integers(1, 21))
        A = random_complex(rng, n, n)
        if np.linalg.cond(A) >= 1e6:
            continue
        B = random_complex(rng, n, int(rng.integers(1, 4)))
        X = linear_solve(A, B)
        assert fnorm(A @ X - B) <= 1e-12 * fnorm(A) * max(fnorm(X), 1e-300)
        done += 1


def test_linear_solve_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linear_solve(A, np.eye(2))


def test_linear_solve_exact_diagonal_any_condition():
    # Conditioning is gated by the callers; a diagonal system with
    # condition 1e14 is solved exactly, not refused.
    d = np.array([1e-7, 1e7])
    B = random_complex(np.random.default_rng(4), 2, 3)
    np.testing.assert_allclose(linear_solve(np.diag(d), B), B / d[:, None],
                               rtol=1e-15, atol=0)


def test_linear_solve_shape_checks():
    with pytest.raises(DimensionMismatch):
        linear_solve(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        linear_solve(np.eye(2), np.ones((3, 2)))


def test_invert_roundtrip():
    rng = np.random.default_rng(3)
    A = random_complex(rng, 6, 6)
    assert fnorm(A @ invert(A) - np.eye(6)) < 1e-12 * fnorm(A)


def test_rank_factorize_zero():
    Z1, Z2, ell = rank_factorize(np.zeros((3, 3)))
    assert ell == 0 and Z1.shape == (3, 0) and Z2.shape == (3, 0)


@pytest.mark.parametrize("star", ["T", "H"])
def test_rank_factorize_rank_one(star):
    rng = np.random.default_rng(4)
    u = random_complex(rng, 5, 1)
    v = random_complex(rng, 5, 1)
    vs = v.T if star == "T" else v.conj().T
    M = u @ vs
    Z1, Z2, ell = rank_factorize(M, star=star)
    assert ell == 1
    Z2s = Z2.T if star == "T" else Z2.conj().T
    assert fnorm(Z1 @ Z2s - M) <= 1e-12 * fnorm(M)


def test_rank_factorize_rank_two():
    rng = np.random.default_rng(5)
    M = sum(random_complex(rng, 5, 1) @ random_complex(rng, 5, 1).conj().T
            for _ in range(2))
    Z1, Z2, ell = rank_factorize(M)
    assert ell == 2


def test_rank_factorize_reconstruction_bound():
    rng = np.random.default_rng(6)
    for _ in range(50):
        rows, cols = rng.integers(1, 12, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        M = np.zeros((rows, cols), dtype=complex)
        for _ in range(r):
            M += random_complex(rng, rows, 1) @ random_complex(rng, cols, 1).conj().T
        tol = 1e-10 * (np.linalg.norm(M, 2) if M.any() else 0.0)
        Z1, Z2, ell = rank_factorize(M)
        bound = max(10 * tol * np.sqrt(rows * cols), 1e-13)
        assert fnorm(Z1 @ Z2.conj().T - M) <= bound


def test_dense_eig_diagonal():
    w, v = dense_eig(np.diag([1.0, 2.0, 3.0]))
    assert sorted(np.round(w.real, 12)) == [1.0, 2.0, 3.0]
    assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)


def test_dense_eig_rotation_generator():
    w, _ = dense_eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert sorted(np.round(w.imag, 12)) == [-1.0, 1.0]
    assert np.allclose(w.real, 0.0, atol=1e-12)


def test_dense_eig_residuals():
    rng = np.random.default_rng(7)
    A = random_complex(rng, 10, 10)
    w, v = dense_eig(A)
    for i in range(10):
        assert np.linalg.norm(A @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * fnorm(A)
        assert abs(np.linalg.norm(v[:, i]) - 1.0) < 1e-12


def test_dense_eig_unitary_similarity_invariance():
    rng = np.random.default_rng(8)
    A = random_complex(rng, 7, 7)
    U = random_unitary(rng, 7)
    w1, _ = dense_eig(A)
    w2, _ = dense_eig(U.conj().T @ A @ U)
    w1 = np.sort_complex(np.round(w1, 10))
    w2 = np.sort_complex(np.round(w2, 10))
    assert np.allclose(w1, w2, atol=1e-8)


def test_sv_ratio_empty_and_zero():
    assert sv_ratio(np.zeros((2, 2))) == 0.0
    assert sv_ratio(np.zeros((0, 0))) == 0.0


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        linear_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2))


def _views(a):
    """C- and F-ordered copies, the transpose and strided slices of a."""
    return [a, np.asfortranarray(a), a.T, a[::2, 1:], a[:, ::-3], a[:0], a.T[:, :0]]


def test_fnorm_bit_identical_to_numpy_frobenius():
    rng = np.random.default_rng(9)
    for rows, cols in [(1, 1), (5, 7), (16, 16), (48, 3)]:
        z = random_complex(rng, rows, cols) * 10.0 ** rng.uniform(-200, 200)
        for a in _views(z) + _views(z.real.copy()) + _views(np.round(z.imag * 8)):
            assert fnorm(a) == float(np.linalg.norm(a, "fro"))
            assert type(fnorm(a)) is float
    assert fnorm(np.zeros((0, 0))) == 0.0
    assert fnorm(np.array([[1, 2], [3, 4]])) == float(np.linalg.norm([[1, 2], [3, 4]], "fro"))


def test_as_matrix_copies_and_rejects():
    a = np.array([[1.0, 2.0]])
    m = as_matrix(a)
    m[0, 0] = 5.0
    assert a[0, 0] == 1.0 and m.dtype == np.complex128
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="X contains non-finite entries"):
            as_matrix([[1.0, bad]], "X")
    for shape in [(3,), (2, 2, 2), ()]:
        with pytest.raises(DimensionMismatch, match="X must be 2-D"):
            as_matrix(np.ones(shape), "X")


def test_invert_and_solve_right_copy_and_check_once():
    rng = np.random.default_rng(10)
    A = random_complex(rng, 4, 4)
    B = random_complex(rng, 3, 4)
    A0, B0 = A.copy(), B.copy()
    assert fnorm(invert(A) @ A - np.eye(4)) <= 1e-12 * fnorm(A)
    assert fnorm(solve_right(B, A) @ A - B) <= 1e-12 * fnorm(A) * fnorm(B)
    assert np.array_equal(A, A0) and np.array_equal(B, B0)
    with pytest.raises(ValueError, match="non-finite"):
        invert(np.where(np.eye(4) > 0, np.nan, A))
    with pytest.raises(ValueError, match="non-finite"):
        solve_right(np.full((3, 4), np.inf), A)
    with pytest.raises(DimensionMismatch):
        invert(np.ones(3))
    with pytest.raises(DimensionMismatch):
        solve_right(np.ones((3, 2)), A)
    with pytest.raises(SingularMatrix):
        invert(np.zeros((2, 2)))

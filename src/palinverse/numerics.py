"""Dense complex-matrix substrate.

All data are plain numpy arrays with complex128 entries.  The routines here
wrap LAPACK (via numpy/scipy) behind the small contracts the rest of the
package relies on: pivoted solves with an explicit singularity threshold,
SVD-based rank decisions, and a dense nonsymmetric eigensolver.
"""

import warnings

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, DimensionMismatch, SingularMatrix

# Relative pivot threshold for declaring a solve singular.
PIVOT_RTOL = 1e-13
# Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-10


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.array(a, dtype=np.complex128, copy=True)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def fnorm(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a, "fro"))


def two_norm(a):
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def sv_ratio(a):
    """sigma_min / sigma_max, or 0.0 for an empty or zero matrix."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def linear_solve(A, B):
    """Solve A X = B by partially pivoted LU.

    Raises SingularMatrix when a pivot falls below PIVOT_RTOL * ||A||_F.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
    if n == 0:
        return np.zeros((0, B.shape[1]), dtype=np.complex128)
    with warnings.catch_warnings():
        # The pivot check below is the authoritative singularity gate.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_RTOL * fnorm(A):
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below threshold for ||A||_F = {fnorm(A):.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), B, check_finite=False)


def invert(A):
    """Matrix inverse via linear_solve against the identity."""
    A = as_matrix(A, "A")
    return linear_solve(A, np.eye(A.shape[0], dtype=np.complex128))


def solve_right(B, A):
    """Solve X A = B (i.e. X = B A^{-1}) without forming the inverse."""
    return linear_solve(as_matrix(A, "A").T, as_matrix(B, "B").T).T


def rank_factorize(M, tol=None, star="H"):
    """Full-rank factorization M = Z1 Z2*.

    Computed from the SVD M = U S V^H: Z1 = U_l S_l and Z2 = V_l for
    star == "H", Z2 = conj(V_l) for star == "T", so that Z1 @ star(Z2)
    reproduces M either way.  The rank is the number of singular values
    above ``tol`` (default RANK_RTOL * sigma_max).

    Returns (Z1, Z2, rank); rank 0 yields empty factors.
    """
    M = as_matrix(M, "M")
    if M.size == 0:
        return (np.zeros((M.shape[0], 0), dtype=np.complex128),
                np.zeros((M.shape[1], 0), dtype=np.complex128), 0)
    u, s, vh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    if tol is None:
        tol = RANK_RTOL * smax
    ell = int(np.count_nonzero(s > tol))
    Z1 = u[:, :ell] * s[:ell]
    V = vh[:ell].conj().T
    Z2 = V.conj() if star == "T" else V
    return Z1, Z2, ell


def dense_eig(A, vectors=True):
    """All eigenvalues and unit right eigenvectors of a dense square matrix.

    With vectors=False only the eigenvalues are computed and returned, which
    skips the Schur vectors and the eigenvector back-substitution.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    try:
        if not vectors:
            return np.linalg.eigvals(A)
        w, v = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0.0] = 1.0
    return w, v / norms

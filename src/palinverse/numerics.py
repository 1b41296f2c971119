"""Dense complex-matrix substrate.

All data are plain numpy arrays with complex128 entries.  The routines here
wrap numpy's LAPACK bindings behind the small contracts the rest of the
package relies on: pivoted LU solves, SVD-based rank decisions, thin-QR
range coordinates, and a dense nonsymmetric eigensolver.

Singularity policy.  linear_solve raises SingularMatrix only when LAPACK
meets an exactly zero pivot; it does not judge conditioning, so an exactly
solvable diagonal system with condition 1e14 is solved.  Every production
call of linear_solve, invert and solve_right is guarded before the call by
a scale-invariant gate (sv_ratio, sigma_min / sigma_max) or by a
construction that bounds the condition number:

- forward.companion: A1*, of order n; PalindromicSystem gates A1
  (sv_ratio > 1e-12), whose singular values A1* shares.
- structfact._isometry: I - K with ||K||_F = 1/2, so sigma(I - K) lies in
  [1/2, 3/2].
- IepProblem: T1, sv_ratio-gated just before the solve.
- spectral.parameter_from_pair: T and W = [X; -X T^{-1}], then
  eps X* A1 X T^{-1} - T^{-*} X* A1* X, all sv_ratio-gated.
- spectral.compute_S1: that matrix, sv_ratio-gated; T1 as in mup.
- spectral.coefficients_from_pair: G, sv_ratio-gated; T, because
  S = T S T* with S sv_ratio-gated forces |det T| = 1.
- mup: the diagonal T1, T1_new and their squares, whose entries are
  nonzero (eigenvalues of a system with nonsingular A1, and a
  pairing-closed replacement) and are divided exactly; Xi, sv_ratio-gated;
  the star factor of S1_new, which passed sample_nonsingular
  (sv_ratio > 1e-8).
- analysis: zeta_partition sv_ratio-gates S, and A1 is gated by
  PalindromicSystem.
"""

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, SingularMatrix

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


def block_diag(*blocks):
    """Complex block-diagonal matrix of 2-D blocks (empty blocks allowed)."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.complex128)
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out


def linear_solve(A, B):
    """Solve A X = B by partially pivoted LU (LAPACK getrf + getrs).

    Raises SingularMatrix only on an exactly zero pivot; callers gate the
    conditioning of A themselves (see the module docstring).
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
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("A is exactly singular (zero pivot)") from exc


def invert(A):
    """Matrix inverse via linear_solve against the identity."""
    A = as_matrix(A, "A")
    return linear_solve(A, np.eye(A.shape[0], dtype=np.complex128))


def solve_right(B, A):
    """Solve X A = B (i.e. X = B A^{-1}) without forming the inverse."""
    return linear_solve(as_matrix(A, "A").T, as_matrix(B, "B").T).T


def rank_factorize(M, star="H"):
    """Full-rank factorization M = Z1 Z2*.

    Computed from the SVD M = U S V^H: Z1 = U_l S_l and Z2 = V_l for
    star == "H", Z2 = conj(V_l) for star == "T", so that Z1 @ star(Z2)
    reproduces M either way.  The rank is the number of singular values
    above RANK_RTOL * sigma_max.

    Returns (Z1, Z2, rank); rank 0 yields empty factors.
    """
    M = as_matrix(M, "M")
    if M.size == 0:
        return (np.zeros((M.shape[0], 0), dtype=np.complex128),
                np.zeros((M.shape[1], 0), dtype=np.complex128), 0)
    u, s, vh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    ell = int(np.count_nonzero(s > RANK_RTOL * smax))
    Z1 = u[:, :ell] * s[:ell]
    V = vh[:ell].conj().T
    Z2 = V.conj() if star == "T" else V
    return Z1, Z2, ell


def range_coordinates(*blocks):
    """Orthonormal basis Q of the joint column range of the blocks, and
    each block B_i in its coordinates Q^H B_i.

    Q comes from one thin Householder QR and is n-by-min(n, columns).
    W M star(W) = Q (P M star(P)) star(Q) with P = Q^H W for either star,
    and the small core keeps the singular values of the product, so rank
    decisions on it keep their meaning.  Each block is projected in its
    own product: equal blocks get bit-equal coordinates.
    """
    Q = np.linalg.qr(np.hstack(blocks))[0]
    QH = Q.conj().T
    return Q, [QH @ B for B in blocks]


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

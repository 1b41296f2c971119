"""Dense complex-matrix substrate.

All data are plain numpy arrays with complex128 entries.  The routines here
wrap numpy's LAPACK bindings behind the small contracts the rest of the
package relies on: pivoted LU solves, SVD-based rank decisions, thin-QR
range coordinates, a dense nonsymmetric eigensolver, and diagonal_of, the
package's one exact test that a T is diagonal.

Singularity policy.  linear_solve raises SingularMatrix only when LAPACK
meets an exactly zero pivot; it does not judge conditioning, so an exactly
solvable diagonal system with condition 1e14 is solved.  Every production
call of linear_solve, invert and solve_right is guarded before the call by
a scale-invariant gate (sv_ratio, sigma_min / sigma_max, against
SINGULAR_RTOL unless named otherwise) or by a construction that bounds the
condition number:

- forward.companion: A1*, of order n; PalindromicSystem gates A1, whose
  singular values A1* shares, or certifies A1 above A1_WARN_RTOL by a floor
  on its sigma_min: the Woodbury floor of an update (mup.low_rank_update),
  1 / sigma_max(X T^-1 S X*) less a roundoff margin for a construction
  (spectral._coefficients_from_blocks).
- structfact._isometry: I - K with ||K||_F = 1/2, so sigma(I - K) lies in
  [1/2, 3/2].
- IepProblem: T1, gated just before the solve.
- spectral.compute_S1: eps X1* A1 X1 T1^{-1} - T1^{-*} X1* A1* X1, gated;
  T1 as in an update below.
- spectral._spectral_sums, for construction and update: T_b is LU-solved
  unless diagonal (divided exactly), so only for a construction's T1 given
  as a defective Jordan form (iep._jordan_form diagonalizes any other T1),
  gated by IepProblem.  The remaining T2 of a construction, and an
  update's T1 and T1_new, are diagonal with nonzero entries (pairing-closed
  values, or eigenvalues of a nonsingular A1).
- mup: Xi, gated.

Tolerance table.  Every numerical decision of the package reads one entry
below, relative to the norm its site names: no entry is absolute, and a
ratio divides only by a norm its code has shown nonzero, never by a floor.
"""

import math

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, SingularMatrix, SingularW

# Singularity and rank.
SINGULAR_RTOL = 1e-12  # sv_ratio at or below which a matrix to be inverted is singular
A1_WARN_RTOL = 1e-8  # sv_ratio of A1 at or below which a system warns; a certified A1 clears it
NONSINGULAR_RTOL = 1e-8  # sv_ratio a drawn or solved parameter matrix S must exceed
RANK_RTOL = 1e-10  # singular values or |eigenvalues| this small against the largest are zero
# Structure: a relative defect under which a matrix has its claimed form.
STRUCTURE_RTOL = 1e-10  # star(B) = -eps B, membership, reconstruction, congruence
A0_SYMMETRY_RTOL = 1e-12  # star(A0) = eps A0 of a system
DIAGONAL_RTOL = 1e-12  # an update's T1 or T1_new is diagonal
# A one-value step's vectors are accurate to about u / gap, so a gap under
# u / STRUCTURE_RTOL ~ 1e-6 fails the reconstruction; 1e-4 leaves a margin.
CLUSTER_RTOL = 1e-4  # neighbouring singular values this close, relative to the largest, cluster
S1_MEMBERSHIP_RTOL = 1e-9  # the S1 computed from a system satisfies S1 = T1 S1 T1*
# Roundoff floors.
ROUNDOFF_RTOL = 1e-12  # a product W M W* within this of its scale ||W||^2 ||M|| is roundoff
TRANSFER_FLOOR_RTOL = 1e-13  # a transfer residual within this of its scale ||X||^2 ||S|| is roundoff
# Residual gates.
PAIR_RESIDUAL_GATE = 1e-8  # pair_residual under which a given pair is an invariant pair
OUTPUT_RESIDUAL_TOL = 1e-9  # pair_residual of a built or updated system; a transfer X S X* = C
# Eigenvalue sets.
PAIRING_TOL = 1e-6  # |lam mu* - 1| within which eig_full pairs two eigenvalues
COINCIDE_RTOL = 1e-8  # two eigenvalues coincide: |a - b| <= COINCIDE_RTOL |a|, at any modulus
SELECTED_MATCH_RTOL = 1e-6  # an update finds a selected eigenvalue among the system's
MATCH_TOL = 1e-3  # select_pairs and --match-tol find a target among the eigenvalues


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.array(a, dtype=np.complex128, copy=True)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError(f"{name} contains non-finite entries")
    return m


def diagonal_of(T):
    """The diagonal of the square T if every off-diagonal entry is exactly 0, else None."""
    d = np.diagonal(T)
    return d if np.count_nonzero(T) == np.count_nonzero(d) else None


def fnorm(a):
    """Frobenius norm, bit-identical to np.linalg.norm(a, "fro") (real dots over
    ravel(order="K"), by vdot, which warns of no overflow) unless that sum of squares
    overflows, or underflows to 0 for a nonzero array: then it is max|x| ||x / max|x|||."""
    x = np.asarray(a)
    x = (x if x.dtype.kind in "fc" else x.astype(float)).ravel(order="K")
    s = np.vdot(x.real, x.real) + (np.vdot(x.imag, x.imag) if x.dtype.kind == "c" else 0.0)
    if not 0.0 < s < math.inf and x.any():
        x = np.abs(x)
        big = x.max()
        return big * fnorm(x / big) if big < math.inf else big
    return math.sqrt(s)


def column_norms(X):
    """fnorm of each column of X: the bits of np.linalg.norm(X, axis=0), and
    fnorm's rescue for a column whose plain norm under- or overflows."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=0)
    for j in np.flatnonzero((norms == 0.0) | np.isinf(norms)):
        norms[j] = fnorm(X[:, j])
    return norms


def unit_columns(X, T):
    """X at unit scale: with unit columns if T is diagonal, as (X D, T) is then the
    eigendata of (X, T) for every nonsingular diagonal D, and X / ||X||_F for any
    other T, as a scalar multiple of X is the same invariant pair; diagonal_of
    decides.  A zero column (a zero X included) is no eigenvector: SingularW."""
    norms = fnorm(X) if diagonal_of(T) is None else column_norms(X)
    if not np.all(norms):
        raise SingularW(f"column {np.argmin(norms)} of X has zero norm, so no eigenvector")
    subnormal = norms < np.finfo(float).tiny  # complex X / norm forms 1 / norm: inf
    if np.any(subnormal):
        return unit_columns(X * np.where(subnormal, 2.0**600, 1.0), T)
    return X / norms


def two_norm(a):
    return float(np.linalg.norm(a, 2)) if np.size(a) else 0.0


def sv_min_ratio(a):
    """(sigma_min, sigma_min / sigma_max), (0.0, 0.0) for an empty or zero matrix."""
    s = np.linalg.svd(a, compute_uv=False) if np.size(a) else np.zeros(1)
    return (float(s[-1]), float(s[-1] / s[0])) if s[0] else (0.0, 0.0)


def sv_ratio(a):
    """sigma_min / sigma_max, or 0.0 for an empty or zero matrix."""
    return sv_min_ratio(a)[1]


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
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("A is exactly singular (zero pivot)") from exc


def invert(A):
    """Matrix inverse via linear_solve against the identity."""
    n = np.shape(A)[0] if np.ndim(A) else 0
    return linear_solve(A, np.eye(n, dtype=np.complex128))


def solve_right(B, A):
    """Solve X A = B (i.e. X = B A^{-1}) without forming the inverse."""
    return linear_solve(np.transpose(A), np.transpose(B)).T


def rank_factorize(M, star="H"):
    """Full-rank factorization M = Z1 Z2*.

    Computed from the SVD M = U S V^H: Z1 = U_l S_l and Z2 = V_l for
    star == "H", Z2 = conj(V_l) for star == "T", so that Z1 @ star(Z2)
    reproduces M either way.  The rank is the number of singular values
    above RANK_RTOL * sigma_max.

    Returns (Z1, Z2, rank); rank 0 yields empty factors.
    """
    M = as_matrix(M, "M")
    u, s, vh = np.linalg.svd(M)
    ell = int(np.count_nonzero(s > RANK_RTOL * s[0]))
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
    return w, v / column_norms(v)

"""Spectral decomposition of a palindromic system, both directions.

The parameter matrix of an invariant pair (X, T) is S = (W* L J_eps L* W)^{-1}
with W = [X; -X T^{-1}], formed multiplied out as
(eps X* A1 X T^{-1} - T^{-*} X* A1* X)^{-1}: compute_S1 for the selected
pair of an update.  From (X, T, S) the coefficients are recovered as
A1 = eps (X T^{-1} S X*)^{-1} and
A0 = -A1 X T^{-2} S X* A1, block by block (_spectral_sums) when T and S are
block diagonal, dividing each diagonal T block exactly (every block of an
update, and the closed-form remaining block of a construction); the
no-spillover update (mup) forms its change the same way.
"""

import numpy as np

from .errors import (DimensionMismatch, MembershipCheckFailed, SingularLeadingBlock,
                     SingularMatrix, SingularS1Precursor)
from .numerics import (S1_MEMBERSHIP_RTOL, SINGULAR_RTOL, STRUCTURE_RTOL, as_matrix, diagonal_of,
                       fnorm, invert, linear_solve, solve_right, sv_min_ratio, sv_ratio)
from .system import assembled_system


def _check_membership(blocks, cls):
    """Raise unless diag(S_b) is in the parameter space of ([X_b], diag(T_b)):
    defects per block, X S X* summed, norms the hypot of block norms."""
    star, eps = cls.star_of, cls.epsilon
    nS, nT, nX, sym, com = np.hypot.reduce(
        [[fnorm(S), fnorm(T), fnorm(X), fnorm(star(S) + eps * S),
          fnorm(S - T @ S @ star(T))] for X, T, S in blocks], axis=0)
    iso = fnorm(sum(X @ S @ star(X) for X, _, S in blocks))
    if not sym <= STRUCTURE_RTOL * nS:
        raise MembershipCheckFailed(f"star(S) != -eps S (defect {sym:.3e})")
    if not com <= STRUCTURE_RTOL * nS * nT * nT:
        raise MembershipCheckFailed(f"S != T S T* (defect {com:.3e})")
    if not iso <= STRUCTURE_RTOL * nX * nX * nS:
        raise MembershipCheckFailed(f"X S X* != 0 (defect {iso:.3e})")


def compute_S1(sys, X1, T1):
    """Parameter block of the selected invariant pair, straight from the
    coefficients: S1 = (eps X1* A1 X1 T1^{-1} - T1^{-*} X1* A1* X1)^{-1}."""
    X1, T1 = as_matrix(X1, "X1"), as_matrix(T1, "T1")
    star = sys.cls.star_of
    G = (sys.cls.epsilon * solve_right(star(X1) @ sys.A1 @ X1, T1)
         - linear_solve(star(T1), star(X1) @ star(sys.A1) @ X1))
    if not sv_ratio(G) > SINGULAR_RTOL:
        raise SingularS1Precursor(
            "eps X1* A1 X1 T1^{-1} - T1^{-*} X1* A1* X1 is singular")
    S1 = invert(G)
    S1 = (S1 - sys.cls.epsilon * star(S1)) / 2.0
    nS, nT = fnorm(S1), fnorm(T1)
    com = fnorm(S1 - T1 @ S1 @ star(T1))
    if not com <= S1_MEMBERSHIP_RTOL * nS * nT * nT:
        raise MembershipCheckFailed(
            f"computed S1 violates S1 = T1 S1 T1* (defect {com:.3e}); "
            "the selected eigendata is inconsistent with the system")
    return S1


def coefficients_from_pair(X, T, S, cls):
    """Rebuild the palindromic system whose standard pair is (X, T).

    S must be a nonsingular member of the parameter space of (X, T); the
    membership identities are checked before the coefficients are formed,
    and A0 is taken as its structured part (see assembled_system).
    """
    X, T, S = as_matrix(X, "X"), as_matrix(T, "T"), as_matrix(S, "S")
    if X.shape[1] != T.shape[0] or T.shape[0] != T.shape[1] or S.shape != T.shape:
        raise DimensionMismatch("X, T, S dimensions do not conform")
    return _coefficients_from_blocks([(X, T, S)], cls,
                                     [np.linalg.svd(S, compute_uv=False)])


def _spectral_sums(blocks, star):
    """G = sum X_b T_b^{-1} S_b X_b* and H = sum X_b T_b^{-2} S_b X_b* over
    blocks (X_b, T_b, S_b).  A diagonal T_b (numerics.diagonal_of) with no
    zero entry divides exactly; other T_b are LU-solved."""
    G = H = 0
    for X, T, S in blocks:
        d = diagonal_of(T)
        if d is not None and d.all():
            TinvS = S / d[:, None]
            XTinvS, XT2invS = X @ TinvS, X @ (TinvS / d[:, None])
        else:
            TinvS = linear_solve(T, S)
            XTinvS, XT2invS = X @ TinvS, X @ linear_solve(T, TinvS)
        G, H = G + XTinvS @ star(X), H + XT2invS @ star(X)
    return G, H


def _coefficients_from_blocks(blocks, cls, svals):
    """coefficients_from_pair of the block-diagonal (X, T, S) of blocks
    (X_b, T_b, S_b), X = [X_1, X_2, ...], without forming T or S; svals[b]
    are the singular values of S_b, which gate S."""
    s = np.concatenate(svals)  # sigma(S)
    if not (s.size and s.min() > SINGULAR_RTOL * s.max()):
        raise SingularMatrix("S must be nonsingular")
    _check_membership(blocks, cls)
    G, H = _spectral_sums(blocks, cls.star_of)
    smin, ratio = sv_min_ratio(G)
    if not ratio > SINGULAR_RTOL:
        raise SingularLeadingBlock(
            "X T^{-1} S X* is numerically singular; no regular solution")
    A1 = cls.epsilon * invert(G)
    # sigma_min(A1) = 1 / sigma_max(G) in exact arithmetic; the computed
    # inverse may fall below it by O(n u kappa(G)^2) relative, so the floor
    # gives up a margin of that order, or is not claimed.
    margin = 4 * len(G) * np.finfo(float).eps / ratio ** 2
    floor = ratio / smin * (1.0 - margin) if margin < 0.5 else None
    return assembled_system(cls, A1, -A1 @ H @ A1, floor)

"""Spectral decomposition of a palindromic system, both directions.

From a system and a full standard pair the parameter matrix is
S = (W* L J_eps L* W)^{-1}; from (X, T, S) the coefficients are recovered
as A1 = eps (X T^{-1} S X*)^{-1} and A0 = -A1 X T^{-2} S X* A1.
"""

import numpy as np

from .errors import (DimensionMismatch, MembershipCheckFailed, ResidualTooLarge,
                     SingularLeadingBlock, SingularMatrix)
from .numerics import as_matrix, fnorm, invert, linear_solve, sv_ratio
from .system import StandardPair, assembled_system, pair_residual

PAIR_RESIDUAL_GATE = 1e-8
MEMBERSHIP_RTOL = 1e-10
LEADING_SINGULAR_RTOL = 1e-12


def structure_blocks(sys):
    """The constant matrices L and J_eps of the decomposition."""
    n = sys.n
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    L = np.block([[zero, eye], [sys.cls.star_of(sys.A1), zero]])
    J = np.block([[zero, eye], [-sys.cls.epsilon * eye, zero]])
    return L, J


def check_membership(S, X, T, cls):
    """Verify S is in the parameter space of (X, T); raise on failure."""
    nS = max(fnorm(S), 1e-300)
    nT = max(fnorm(T), 1e-300)
    nX = max(fnorm(X), 1e-300)
    sym = fnorm(cls.star_of(S) + cls.epsilon * S)
    com = fnorm(S - T @ S @ cls.star_of(T))
    iso = fnorm(X @ S @ cls.star_of(X))
    if sym > MEMBERSHIP_RTOL * nS:
        raise MembershipCheckFailed(f"star(S) != -eps S (defect {sym:.3e})")
    if com > MEMBERSHIP_RTOL * nS * nT * nT:
        raise MembershipCheckFailed(f"S != T S T* (defect {com:.3e})")
    if iso > MEMBERSHIP_RTOL * nX * nX * nS:
        raise MembershipCheckFailed(f"X S X* != 0 (defect {iso:.3e})")


def parameter_from_pair(sys, pair):
    """Parameter matrix S of a system given a full standard pair.

    Gates the input on the pair residual, then evaluates
    (W* L J_eps L* W)^{-1} and verifies the membership identities the
    decomposition guarantees, failing loudly instead of trusting a
    numerically inconsistent pair.
    """
    if not isinstance(pair, StandardPair):
        pair = StandardPair(*pair)
    if not pair.is_full:
        raise DimensionMismatch("parameter_from_pair needs a full pair (m = 2n)")
    if pair.n != sys.n:
        raise DimensionMismatch("pair and system orders differ")
    resid = pair_residual(sys, pair)
    if resid > PAIR_RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"pair residual {resid:.3e} exceeds gate {PAIR_RESIDUAL_GATE:.0e}")
    W = pair.W
    L, J = structure_blocks(sys)
    star = sys.cls.star_of
    Sinv = star(W) @ L @ J @ star(L) @ W
    ratio = sv_ratio(Sinv)
    if ratio <= LEADING_SINGULAR_RTOL:
        raise SingularMatrix(
            f"W* L J L* W is singular (sigma_min/sigma_max = {ratio:.3e})")
    S = invert(Sinv)
    # Exact by theory; strip the round-off asymmetry.
    S = (S - sys.cls.epsilon * star(S)) / 2.0
    check_membership(S, pair.X, pair.T, sys.cls)
    return S


def coefficients_from_pair(X, T, S, cls):
    """Rebuild the palindromic system whose standard pair is (X, T).

    S must be a nonsingular member of the parameter space of (X, T); the
    membership identities are checked before the coefficients are formed,
    and A0 is taken as its structured part (see assembled_system).
    """
    X = as_matrix(X, "X")
    T = as_matrix(T, "T")
    S = as_matrix(S, "S")
    if X.shape[1] != T.shape[0] or T.shape[0] != T.shape[1] or S.shape != T.shape:
        raise DimensionMismatch("X, T, S dimensions do not conform")
    if sv_ratio(S) <= LEADING_SINGULAR_RTOL:
        raise SingularMatrix("S must be nonsingular")
    check_membership(S, X, T, cls)
    star = cls.star_of
    TinvS = linear_solve(T, S)
    G = X @ TinvS @ star(X)
    if sv_ratio(G) <= LEADING_SINGULAR_RTOL:
        raise SingularLeadingBlock(
            "X T^{-1} S X* is numerically singular; no regular solution")
    A1 = cls.epsilon * invert(G)
    T2invS = linear_solve(T, TinvS)
    return assembled_system(cls, A1, -A1 @ X @ T2invS @ star(X) @ A1)

"""Spectral decomposition of a palindromic system, both directions.

The parameter matrix of an invariant pair (X, T) is S = (W* L J_eps L* W)^{-1}
with W = [X; -X T^{-1}], formed multiplied out as
(eps X* A1 X T^{-1} - T^{-*} X* A1* X)^{-1}: parameter_from_pair for a full
pair, compute_S1 for the selected pair of an update.  From (X, T, S) the
coefficients are recovered as A1 = eps (X T^{-1} S X*)^{-1} and
A0 = -A1 X T^{-2} S X* A1, block by block (_spectral_sums) when T and S are
block diagonal; the no-spillover update (mup) forms its change the same way.
"""

import numpy as np

from .errors import (DimensionMismatch, MembershipCheckFailed, ResidualTooLarge,
                     SingularLeadingBlock, SingularMatrix, SingularS1Precursor,
                     SingularW)
from .numerics import (NORM_FLOOR, PAIR_RESIDUAL_GATE, S1_MEMBERSHIP_RTOL,
                       SINGULAR_RTOL, STRUCTURE_RTOL, as_matrix, fnorm, invert,
                       linear_solve, solve_right, sv_min_ratio, sv_ratio)
from .system import assembled_system, pair_residual


def _check_membership(blocks, cls):
    """Raise unless diag(S_b) is in the parameter space of ([X_b], diag(T_b)):
    defects per block, X S X* summed, norms the hypot of block norms."""
    star, eps = cls.star_of, cls.epsilon
    nS, nT, nX, sym, com = np.hypot.reduce(
        [[fnorm(S), fnorm(T), fnorm(X), fnorm(star(S) + eps * S),
          fnorm(S - T @ S @ star(T))] for X, T, S in blocks], axis=0)
    nS, nT, nX = max(nS, NORM_FLOOR), max(nT, NORM_FLOOR), max(nX, NORM_FLOOR)
    iso = fnorm(sum(X @ S @ star(X) for X, _, S in blocks))
    if sym > STRUCTURE_RTOL * nS:
        raise MembershipCheckFailed(f"star(S) != -eps S (defect {sym:.3e})")
    if com > STRUCTURE_RTOL * nS * nT * nT:
        raise MembershipCheckFailed(f"S != T S T* (defect {com:.3e})")
    if iso > STRUCTURE_RTOL * nX * nX * nS:
        raise MembershipCheckFailed(f"X S X* != 0 (defect {iso:.3e})")


def _inverse_parameter(sys, X, T):
    """eps X* A1 X T^{-1} - T^{-*} X* A1* X: W* L J_eps L* W multiplied out,
    with W = [X; -X T^{-1}] and L J_eps L* = [[0, -eps A1], [A1*, 0]], the
    inverse parameter matrix of an invariant pair, full or partial."""
    star = sys.cls.star_of
    lead = sys.cls.epsilon * solve_right(star(X) @ sys.A1 @ X, T)
    trail = linear_solve(star(T), star(X) @ star(sys.A1) @ X)
    return lead - trail


def parameter_from_pair(sys, pair):
    """Parameter matrix S of a system given a full standard pair (X, T).

    Gates T and W = [X; -X T^{-1}] on their singular-value ratios and the
    pair on its residual, then evaluates (W* L J_eps L* W)^{-1} and
    verifies the membership identities the decomposition guarantees,
    failing loudly instead of trusting a numerically inconsistent pair.
    """
    X, T = pair
    X, T = as_matrix(X, "X"), as_matrix(T, "T")
    m = T.shape[0]
    if T.shape != (m, m):
        raise DimensionMismatch(f"T must be square, got {T.shape}")
    if X.shape[1] != m:
        raise DimensionMismatch(
            f"X has {X.shape[1]} columns but T is {m}-by-{m}")
    if sv_ratio(T) <= SINGULAR_RTOL:
        raise SingularMatrix("T is numerically singular")
    if m != 2 * X.shape[0]:
        raise DimensionMismatch("parameter_from_pair needs a full pair (m = 2n)")
    if sv_ratio(np.vstack([X, -solve_right(X, T)])) <= SINGULAR_RTOL:
        raise SingularW(
            "[X; -X T^{-1}] is numerically singular; not a standard pair")
    if X.shape[0] != sys.n:
        raise DimensionMismatch("pair and system orders differ")
    resid = pair_residual(sys, (X, T))
    if resid > PAIR_RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"pair residual {resid:.3e} exceeds gate {PAIR_RESIDUAL_GATE:.0e}")
    Sinv = _inverse_parameter(sys, X, T)
    ratio = sv_ratio(Sinv)
    if ratio <= SINGULAR_RTOL:
        raise SingularMatrix(
            f"W* L J L* W is singular (sigma_min/sigma_max = {ratio:.3e})")
    S = invert(Sinv)
    # Exact by theory; strip the round-off asymmetry.
    S = (S - sys.cls.epsilon * sys.cls.star_of(S)) / 2.0
    _check_membership([(X, T, S)], sys.cls)
    return S


def compute_S1(sys, X1, T1):
    """Parameter block of the selected invariant pair, straight from the
    coefficients: S1 = (eps X1* A1 X1 T1^{-1} - T1^{-*} X1* A1* X1)^{-1}."""
    X1, T1 = as_matrix(X1, "X1"), as_matrix(T1, "T1")
    star = sys.cls.star_of
    G = _inverse_parameter(sys, X1, T1)
    if sv_ratio(G) <= SINGULAR_RTOL:
        raise SingularS1Precursor(
            "eps X1* A1 X1 T1^{-1} - T1^{-*} X1* A1* X1 is singular")
    S1 = invert(G)
    S1 = (S1 - sys.cls.epsilon * star(S1)) / 2.0
    nS, nT = max(fnorm(S1), NORM_FLOOR), max(fnorm(T1), NORM_FLOOR)
    com = fnorm(S1 - T1 @ S1 @ star(T1))
    if com > S1_MEMBERSHIP_RTOL * nS * nT * nT:
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
    return _coefficients_from_blocks([(X, T, S)], cls)


def _singular_values(S):
    """Singular values of S; a monomial S (one nonzero in each row and
    column, as a canonical Omega) has the moduli of its entries."""
    nz = S != 0
    if np.count_nonzero(nz) == len(S) and nz.any(axis=0).all() and nz.any(axis=1).all():
        return np.abs(S[nz])
    return np.linalg.svd(S, compute_uv=False)


def _spectral_sums(blocks, star, svals=None):
    """G = sum X_b T_b^{-1} S_b X_b* and H = sum X_b T_b^{-2} S_b X_b* over
    blocks (X_b, T_b, S_b).  A diagonal T_b divides exactly; a unit-monomial
    S_b (Omega; svals[b] are S_b's singular values, if known) takes
    T_b^{-1} S_b = S_b T_b*, which S_b = T_b S_b T_b* gives; other T_b are
    LU-solved."""
    G = H = 0
    for b, (X, T, S) in enumerate(blocks):
        d = np.diagonal(T)
        if d.all() and np.count_nonzero(T) == len(d):
            TinvS = S / d[:, None]
            XTinvS, XT2invS = X @ TinvS, X @ (TinvS / d[:, None])
        elif ((_singular_values(S) if svals is None else svals[b]) == 1).all():
            XTinvS = X @ S @ star(T)
            XT2invS = XTinvS @ star(T)
        else:
            TinvS = linear_solve(T, S)
            XTinvS, XT2invS = X @ TinvS, X @ linear_solve(T, TinvS)
        G, H = G + XTinvS @ star(X), H + XT2invS @ star(X)
    return G, H


def _coefficients_from_blocks(blocks, cls):
    """coefficients_from_pair of the block-diagonal (X, T, S) of blocks
    (X_b, T_b, S_b), X = [X_1, X_2, ...], without forming T or S."""
    svals = [_singular_values(S) for _, _, S in blocks]
    s = np.concatenate(svals)  # sigma(S)
    if not s.size or s.min() <= SINGULAR_RTOL * s.max():
        raise SingularMatrix("S must be nonsingular")
    _check_membership(blocks, cls)
    G, H = _spectral_sums(blocks, cls.star_of, svals)
    smin, ratio = sv_min_ratio(G)
    if ratio <= SINGULAR_RTOL:
        raise SingularLeadingBlock(
            "X T^{-1} S X* is numerically singular; no regular solution")
    A1 = cls.epsilon * invert(G)
    # sigma_min(A1) = 1 / sigma_max(G) in exact arithmetic; the computed
    # inverse may fall below it by O(n u kappa(G)^2) relative, so the floor
    # gives up a margin of that order, or is not claimed.
    margin = 4 * len(G) * np.finfo(float).eps / ratio ** 2
    floor = ratio / smin * (1.0 - margin) if margin < 0.5 else None
    return assembled_system(cls, A1, -A1 @ H @ A1, floor)

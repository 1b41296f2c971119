"""No-spillover model updating of palindromic systems.

Selected eigenvalues are replaced while every remaining eigenpair is kept
exactly invariant.  The update never touches the kept eigenvectors: the
parameter block S1 of the selected pairs is computed from the coefficients
(spectral.compute_S1), replacement data (X1_new, S1_new) is built so that
X1_new S1_new X1_new* = X1 S1 X1* (free eigenvectors take S1_new in closed
form, prescribed ones solve for it), and the coefficient change is a rank-ell
correction with a Sherman-Morrison-Woodbury pivot Xi, applied in O(n^2 k);
Woodbury also certifies the new A1 nonsingular without an order-n SVD
(low_rank_update).  Each product W M W* with W thin (X1, X1_new or both)
is decomposed in the coordinates of range(W), at order at most 2k.
update_model_result is the one entry point: it takes the replacement
eigenvectors as given when MupProblem.X1_new is set and constructs them
otherwise, and errors.retry draws again when a draw misses.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (RETRY_ATTEMPTS, BadIndices, DefectiveSpectrum, DimensionMismatch,
                     Infeasible, ResidualTooLarge, XiSingular, retry, seed_index)
from .forward import _admit, _apart, _coincide, _group_values, _nearest, _paired, eigenvalues
from .numerics import (DIAGONAL_RTOL, OUTPUT_RESIDUAL_TOL, PAIR_RESIDUAL_GATE,
                       SELECTED_MATCH_RTOL, SINGULAR_RTOL, as_matrix, fnorm, invert,
                       range_coordinates, rank_factorize, sv_ratio, unit_columns)
from .paramspace import _transfer_bound, constrained_family, sample_nonsingular
from .spectral import _spectral_sums, compute_S1
from .structfact import (_closed_form_block, _congruence_onto, _inertia, _isotropy_factor,
                         _snap_isotropy)
from .system import PalindromicSystem, _recorded, assembled_system, pair_residual


def _check_diagonal(T, name):
    T = as_matrix(T, name)
    if T.shape[0] != T.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    off = T - np.diag(np.diag(T))
    if not fnorm(off) <= DIAGONAL_RTOL * fnorm(T):
        raise DimensionMismatch(
            f"{name} must be diagonal (semi-simple selected eigenvalues)")
    return np.diag(np.diag(T))


@dataclass
class MupProblem:
    """A no-spillover update: replace the eigenvalues of (X1, T1) by T1_new.

    T1 and T1_new must be diagonal, pairing-closed and mutually disjoint,
    and forward._nearest must find T1 in the spectrum of the system, apart
    from the kept rest of it.  T1_new is admitted beside the kept spectrum
    by forward._admit, the rule a construction's remaining values pass.  With
    X1_new set, the replacement eigenvectors are prescribed.
    """

    sys: PalindromicSystem
    X1: np.ndarray
    T1: np.ndarray
    T1_new: np.ndarray
    X1_new: np.ndarray = None
    seed: int = 0
    new_groups: tuple = field(init=False, repr=False)  # pairing of T1_new, by index

    def __post_init__(self):
        self.seed = seed_index(self.seed)
        self.X1 = as_matrix(self.X1, "X1")
        self.T1 = _check_diagonal(self.T1, "T1")
        self.T1_new = _check_diagonal(self.T1_new, "T1_new")
        k = self.T1.shape[0]
        if k == 0:
            raise DimensionMismatch("an update replaces at least one eigenvalue")
        if self.X1.shape != (self.sys.n, k):
            raise DimensionMismatch("X1 must be n-by-k")
        if self.T1_new.shape != (k, k):
            raise DimensionMismatch("T1_new must match T1 in size")
        if self.X1_new is not None:
            self.X1_new = as_matrix(self.X1_new, "X1_new")
            if self.X1_new.shape != (self.sys.n, k):
                raise DimensionMismatch("X1_new must be n-by-k")
            self.X1_new = unit_columns(self.X1_new, self.T1_new)
        self.X1 = unit_columns(self.X1, self.T1)
        resid = pair_residual(self.sys, (self.X1, self.T1))
        if not resid <= PAIR_RESIDUAL_GATE:
            raise ResidualTooLarge(
                f"(X1, T1) is not an invariant pair of the system "
                f"(residual {resid:.3e})")
        cls = self.sys.cls
        old = np.diag(self.T1)
        new = np.diag(self.T1_new)
        _group_values(old, cls)
        cluster = np.argwhere(np.triu(_coincide(old, old), 1))
        if cluster.size:
            i, j = cluster[0]
            raise DefectiveSpectrum(
                f"selected eigenvalues {old[i]:.6g} and {old[j]:.6g} "
                "cluster; semi-simple selection required")
        _apart(new, old, "a replaced one")
        values = eigenvalues(self.sys)
        # The tolerance also absorbs eig_full's roundoff against eigenvalues'.
        kept = np.delete(values, _nearest(values, old, SELECTED_MATCH_RTOL))
        _apart(old, kept, "the kept spectrum")
        self.new_groups = _admit(cls, self.sys.n, new, kept, "the kept spectrum")


@dataclass
class MupResult:
    """Updated system plus the internals the update is built from."""

    system: PalindromicSystem
    X1_new: np.ndarray
    S1: np.ndarray
    S1_new: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    rank: int
    attempts: int

    @property
    def a0_defect(self):
        """Relative symmetry defect removed from the assembled A0."""
        return self.system.a0_defect


def low_rank_update(sys, X1, T1, S1, X1_new, T1_new, S1_new):
    """Coefficient update from old and new selected spectral data.

    spectral._spectral_sums gives the changes of X T^{-1} S X* and of
    X T^{-2} S X* (Upsilon) as order-min(n, 2k) cores in the coordinates Q
    of range([X1_new, X1]).  The first is factorized as Z1 Z2*, Z1 = Q Z1c,
    Z2 = Q Z2c.  With the pivot Xi = I + eps Z2* A1 Z1, R = Xi^{-1} Z2* A1 and
    L = (A1 Z1) Xi^{-1}: A1_new = A1 - eps (A1 Z1) R, and A0_new = (I - eps L Z2*)
    core (I - eps Z1 R), core = A0 - (A1 Q) Upsilon_c (Q* A1), is applied as two
    rank-ell corrections, so every product is O(n^2 k).  By Woodbury
    A1_new^{-1} = A1^{-1} + eps Z1 Z2*: the floor 1 / (1 / sigma_min(A1) +
    ||Z1||_F ||Z2||_F) <= sigma_min(A1_new) goes to assembled_system when sys
    records sigma_min(A1).  A zero-rank change copies the system.  Returns
    (system, Z1, Z2, rank); raises XiSingular when Xi is singular.
    """
    cls = sys.cls
    star = cls.star_of
    eps = cls.epsilon
    Q, (P_new, P_old) = range_coordinates(X1_new, X1)
    D1_core, Upsilon_core = _spectral_sums(
        [(P_new, T1_new, S1_new), (P_old, T1, -S1)], star)
    Z1c, Z2c, ell = rank_factorize(D1_core, star=cls.star)
    Z1, Z2 = Q @ Z1c, Q @ Z2c
    smin = _recorded(sys, sys._a1_sigma_min)
    if ell == 0:
        copy = PalindromicSystem(cls, sys.A1.copy(), sys.A0.copy(), _a1_floor=smin)
        return copy, Z1, Z2, 0

    A1Q = sys.A1 @ Q
    A1Z1, Z2sA1 = A1Q @ Z1c, star(Z2) @ sys.A1
    Xi = np.eye(ell, dtype=np.complex128) + eps * Z2sA1 @ Z1
    if not sv_ratio(Xi) > SINGULAR_RTOL:
        raise XiSingular("low-rank pivot Xi is singular")
    XiInv = invert(Xi)
    L, R = A1Z1 @ XiInv, XiInv @ Z2sA1
    core = sys.A0 - A1Q @ Upsilon_core @ (star(Q) @ sys.A1)
    M = core - eps * L @ (star(Z2) @ core)
    floor = None if smin is None else 1.0 / (1.0 / smin + fnorm(Z1) * fnorm(Z2))
    return assembled_system(cls, sys.A1 - eps * A1Z1 @ R,
                            M - eps * (M @ Z1) @ R, floor), Z1, Z2, ell


def _finish(problem, S1, X1t, T1t, S1t, attempt):
    new_sys, Z1, Z2, ell = low_rank_update(
        problem.sys, problem.X1, problem.T1, S1, X1t, T1t, S1t)
    cls = problem.sys.cls
    resid_new = pair_residual(new_sys, (X1t, problem.T1_new))
    target = problem.X1 @ S1 @ cls.star_of(problem.X1)
    eq_resid = fnorm(X1t @ S1t @ cls.star_of(X1t) - target)
    if not (resid_new <= OUTPUT_RESIDUAL_TOL
            and eq_resid <= _transfer_bound(target, (problem.X1, S1), (X1t, S1t))):
        raise ResidualTooLarge(
            f"update verification failed (pair residual {resid_new:.3e}, "
            f"transfer residual {eq_resid:.3e})")
    return MupResult(new_sys, X1t, S1, S1t, Z1, Z2, ell, attempt)


def update_model_result(problem):
    """Replace the selected eigenvalues, returning full diagnostics.

    Free eigenvectors (X1_new unset) follow the constructive recipe:
    factorize X1 S1 X1* = Y Delta Y*, take the closed-form parameter block
    S1_new = G F G* of T1_new with the inertia of S1
    (structfact._closed_form_block), and set X1_new = Y Psi G^H with
    Psi F Psi* = Delta, which transfers the isotropy constraint to the new
    pair by construction.  Y and Delta come from structfact._isotropy_factor,
    as for a construction, which decomposes the order-min(n, k) core.  A
    draw is the seeded isometry of F in Psi; an inertia of S1 that the pairs
    of T1_new cannot carry is Infeasible before the first draw.

    Prescribed eigenvectors (X1_new set) solve the transfer constraint
    X1_new S X1_new* = X1 S1 X1* for a nonsingular S in the parameter space
    of T1_new: the particular solution first, then seeded draws along the
    homogeneous directions with paramspace.sample_nonsingular.  Raises
    Inconsistent when no S solves the constraint, and NoSolution when every
    S1_new drawn was singular.

    Both solve on T1_new as forward._paired snaps it (the gates judge it as
    given), draw from one generator the seed starts and apply the low-rank
    update, drawing again when a draw misses (errors.MISSES).
    """
    cls = problem.sys.cls
    T1t = np.diag(_paired(np.diag(problem.T1_new), problem.new_groups, cls))
    S1 = compute_S1(problem.sys, problem.X1, problem.T1)
    rng = np.random.default_rng(problem.seed)
    if problem.X1_new is None:
        fact = _isotropy_factor(problem.X1, S1, cls)
        # diag(S1, S_kept) keeps its inertia, so S1_new must carry that of
        # S1, which passed compute_S1's gate: every eigenvalue sign counts.
        # Each pair of T1_new gives S1_new one slot of each sign, each
        # unimodular value one slot of either sign (p = q = 0 for star = T).
        p, q = _inertia(S1, cls)
        try:
            S1t, G, F = _closed_form_block(cls, np.diag(T1t), problem.new_groups, p, q)
        except BadIndices as exc:
            raise Infeasible(f"inertia of S1: {exc}") from exc

        def draw(attempt):
            # X1_new S1_new X1_new* = Y psi F psi* Y* = X1 S1 X1*.
            psi = _congruence_onto(fact.pattern.matrix(), F, cls, rng)
            return _finish(problem, S1, fact.Y @ psi @ G.conj().T, T1t, S1t, attempt)

        attempts = RETRY_ATTEMPTS
    else:
        S_part, homogeneous = constrained_family(
            T1t, cls, problem.X1_new, _snap_isotropy(problem.X1, S1, cls))

        def draw(attempt):
            S1t, _ = sample_nonsingular(homogeneous if attempt > 1 else [], rng, S_part)
            return _finish(problem, S1, problem.X1_new, T1t, S1t, attempt)

        attempts = RETRY_ATTEMPTS + 1
    return retry(attempts, draw, "no regular update found")


def update_model_prescribed(problem):
    """The updated system alone: update_model_result(problem).system."""
    return update_model_result(problem).system

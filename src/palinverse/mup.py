"""No-spillover model updating of palindromic systems.

Selected eigenvalues are replaced while every remaining eigenpair is kept
exactly invariant.  The update never touches the kept eigenvectors: the
parameter block S1 of the selected pairs is computed from the coefficients
(spectral.compute_S1), replacement data (X1_new, S1_new) is built so that
X1_new S1_new X1_new* = X1 S1 X1*, and the coefficient change is a rank-ell
correction with a Sherman-Morrison-Woodbury pivot Xi, applied in O(n^2 k);
Woodbury also certifies the new A1 nonsingular without an order-n SVD
(low_rank_update).  Each product W M W* with W thin (X1, X1_new or both)
is decomposed in the coordinates of range(W), at order at most 2k.
update_model_result is the one entry point: it takes the replacement
eigenvectors as given when MupProblem.X1_new is set and constructs them
otherwise, and errors.retry draws again when the output misses a gate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (RETRY_ATTEMPTS, DefectiveSpectrum, DimensionMismatch,
                     Infeasible, NoNonsingularS1Tilde, ResidualTooLarge,
                     SingularMatrix, SpectraOverlap, SymmetryViolation,
                     XiSingular, XiSingularRetryExhausted, retry)
from .forward import (_coincide, _group_values, _semisimple_bound, _unit_parity,
                      eigenvalues)
from .numerics import (DIAGONAL_RTOL, NONSINGULAR_RTOL, NORM_FLOOR,
                       OUTPUT_RESIDUAL_TOL, PAIR_RESIDUAL_GATE, SELECTED_MATCH_RTOL,
                       SINGULAR_RTOL, TRANSFER_FLOOR_RTOL, as_matrix, fnorm, invert,
                       range_coordinates, rank_factorize, solve_right, sv_ratio,
                       unit_columns)
from .paramspace import constrained_family, s_basis, sample_nonsingular
from .spectral import _spectral_sums, compute_S1
from .structfact import _congruence_onto, _snap_isotropy, star_factorize
from .system import PalindromicSystem, _recorded, assembled_system, pair_residual


def _check_diagonal(T, name):
    T = as_matrix(T, name)
    if T.shape[0] != T.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    off = T - np.diag(np.diag(T))
    if fnorm(off) > DIAGONAL_RTOL * max(fnorm(T), NORM_FLOOR):
        raise DimensionMismatch(
            f"{name} must be diagonal (semi-simple selected eigenvalues)")
    return T


@dataclass
class MupProblem:
    """A no-spillover update: replace the eigenvalues of (X1, T1) by T1_new.

    T1 and T1_new must be diagonal, pairing-closed and mutually disjoint;
    both must stay away from the remaining spectrum of the system, and
    T1_new may repeat no value more than n times.  With X1_new set, the
    replacement eigenvectors are prescribed.
    """

    sys: PalindromicSystem
    X1: np.ndarray
    T1: np.ndarray
    T1_new: np.ndarray
    X1_new: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:  # numpy would refuse it only at the first draw
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.X1 = as_matrix(self.X1, "X1")
        self.T1 = _check_diagonal(self.T1, "T1")
        self.X1 = unit_columns(self.X1, self.T1)
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
        resid = pair_residual(self.sys, (self.X1, self.T1))
        if resid > PAIR_RESIDUAL_GATE:
            raise ResidualTooLarge(
                f"(X1, T1) is not an invariant pair of the system "
                f"(residual {resid:.3e})")
        cls = self.sys.cls
        old = np.diag(self.T1)
        new = np.diag(self.T1_new)
        _group_values(old, cls)
        _group_values(new, cls)
        cluster = np.argwhere(np.triu(_coincide(old, old), 1))
        if cluster.size:
            i, j = cluster[0]
            raise DefectiveSpectrum(
                f"selected eigenvalues {old[i]:.6g} and {old[j]:.6g} "
                "cluster; semi-simple selection required")
        hit = np.flatnonzero(_coincide(new, old).any(axis=1))
        if hit.size:
            raise SpectraOverlap(
                f"replacement eigenvalue {new[hit[0]]:.6g} collides with a "
                "replaced one")
        values = eigenvalues(self.sys)
        kept_vals = values[self._kept_indices(values, old)]
        moved = np.concatenate([old, new])
        hit = np.flatnonzero(_coincide(moved, kept_vals).any(axis=1))
        if hit.size:
            raise SpectraOverlap(
                f"eigenvalue {moved[hit[0]]:.6g} collides with the kept spectrum")
        # An update whose final spectrum breaks the +-1 parity of the
        # transpose classes has no solution at all.
        wrong = _unit_parity(cls, self.sys.n, np.concatenate([new, kept_vals]))
        if wrong:
            raise Infeasible(
                f"parity: the updated spectrum carries eigenvalue {wrong[0]:+.0f} "
                "with a multiplicity impossible for this class and order")
        _semisimple_bound(self.sys.n, new)

    def _kept_indices(self, values, old):
        # The tolerance also absorbs eig_full's roundoff against eigenvalues'.
        used = set()
        for v in old:
            dist = np.abs(values - v)
            for j in np.argsort(dist):
                if j not in used:
                    if dist[j] > SELECTED_MATCH_RTOL * max(1.0, abs(v)):
                        raise SpectraOverlap(
                            f"selected eigenvalue {v:.6g} not found in the "
                            "system spectrum")
                    used.add(int(j))
                    break
        return [i for i in range(len(values)) if i not in used]

    @property
    def k(self):
        return self.T1.shape[0]


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
    if sv_ratio(Xi) <= SINGULAR_RTOL:
        raise XiSingular("low-rank pivot Xi is singular")
    XiInv = invert(Xi)
    L, R = A1Z1 @ XiInv, XiInv @ Z2sA1
    core = sys.A0 - A1Q @ Upsilon_core @ (star(Q) @ sys.A1)
    M = core - eps * L @ (star(Z2) @ core)
    floor = None if smin is None else 1.0 / (1.0 / smin + fnorm(Z1) * fnorm(Z2))
    return assembled_system(cls, sys.A1 - eps * A1Z1 @ R,
                            M - eps * (M @ Z1) @ R, floor), Z1, Z2, ell


def _finish(problem, S1, X1t, S1t, attempt):
    new_sys, Z1, Z2, ell = low_rank_update(
        problem.sys, problem.X1, problem.T1, S1, X1t, problem.T1_new, S1t)
    cls = problem.sys.cls
    resid_new = pair_residual(new_sys, (X1t, problem.T1_new))
    target = problem.X1 @ S1 @ cls.star_of(problem.X1)
    eq_resid = fnorm(X1t @ S1t @ cls.star_of(X1t) - target)
    # Mixed bound: relative to the transfer target, with a roundoff floor
    # in the natural scale of the products (the target is exactly zero when
    # every eigenpair is replaced).
    floor = TRANSFER_FLOOR_RTOL * (fnorm(problem.X1) ** 2 * fnorm(S1)
                                   + fnorm(X1t) ** 2 * fnorm(S1t))
    if resid_new > OUTPUT_RESIDUAL_TOL \
            or eq_resid > OUTPUT_RESIDUAL_TOL * fnorm(target) + floor:
        raise ResidualTooLarge(
            f"update verification failed (pair residual {resid_new:.3e}, "
            f"transfer residual {eq_resid:.3e})")
    return MupResult(new_sys, X1t, S1, S1t, Z1, Z2, ell, attempt)


def update_model_result(problem):
    """Replace the selected eigenvalues, returning full diagnostics.

    Free eigenvectors (X1_new unset) follow the constructive recipe:
    factorize X1 S1 X1* = Y Delta Y*, sample a nonsingular S1_new for the
    replacement eigenvalues, factorize it as Ytil Delta_til Ytil*, solve
    Psi Delta_til Psi* = Delta, and set X1_new = Y Psi Ytil^{-1}, which
    transfers the isotropy constraint to the new pair by construction.
    Y = Q Yc is n-by-min(n, k), from the core P S1 P* = Yc Delta Yc* in
    the coordinates Q of range(X1), P = Q^H X1.

    Prescribed eigenvectors (X1_new set) solve the transfer constraint
    X1_new S X1_new* = X1 S1 X1* for a nonsingular S in the parameter space
    of T1_new: the particular solution first, then seeded draws along the
    homogeneous directions.  Raises Inconsistent when no S solves the
    constraint and NoNonsingularS1Tilde when no solution is nonsingular.

    Both then apply the low-rank update, drawing again when its pivot is
    singular or its output misses a gate.
    """
    cls = problem.sys.cls
    S1 = compute_S1(problem.sys, problem.X1, problem.T1)
    retryable = (XiSingular, ResidualTooLarge, SymmetryViolation)
    if problem.X1_new is None:
        basis = s_basis(problem.T1_new, cls)
        Q, (P,) = range_coordinates(problem.X1)
        fact = star_factorize(_snap_isotropy(P, S1, cls), cls)
        Y = Q @ fact.Y
        master = np.random.default_rng(problem.seed)

        def draw(attempt):
            seeds = master.integers(0, 2 ** 63, size=2)
            S1t = sample_nonsingular(basis, int(seeds[0]))
            fact_t = star_factorize(S1t, cls)
            psi = _congruence_onto(fact.pattern.matrix(), fact_t.pattern.matrix(),
                                   cls, np.random.default_rng(int(seeds[1])))
            X1t = solve_right(Y @ psi, fact_t.Y)
            return _finish(problem, S1, X1t, S1t, attempt)

        attempts = RETRY_ATTEMPTS
    else:
        C = _snap_isotropy(problem.X1, S1, cls)
        S_part, homogeneous = constrained_family(
            problem.T1_new, cls, problem.X1_new, C)
        rng = np.random.default_rng(problem.seed)

        def draw(attempt):
            coeff = np.zeros(len(homogeneous)) if attempt == 1 \
                else rng.standard_normal(len(homogeneous))
            S1t = S_part.copy()
            for c, H in zip(coeff, homogeneous):
                S1t = S1t + c * H
            if sv_ratio(S1t) <= NONSINGULAR_RTOL:
                raise SingularMatrix("candidate S1_new is singular")
            return _finish(problem, S1, problem.X1_new, S1t, attempt)

        attempts = RETRY_ATTEMPTS + 1
        retryable += (SingularMatrix,)
    try:
        return retry(attempts, draw, retryable, XiSingularRetryExhausted,
                     "no regular update found")
    except XiSingularRetryExhausted as exc:
        if set(exc.reasons) == {SingularMatrix.__name__}:
            raise NoNonsingularS1Tilde(
                "every solution of the transfer constraint is singular") from exc
        raise


def update_model_prescribed(problem):
    """The updated system alone: update_model_result(problem).system."""
    return update_model_result(problem).system

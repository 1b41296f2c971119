"""No-spillover model updating of palindromic systems.

Selected eigenvalues are replaced while every remaining eigenpair is kept
exactly invariant.  The update never touches the kept eigenvectors: the
parameter block S1 of the selected pairs is computed directly from the
coefficients, replacement data (X1_new, S1_new) is built so that
X1_new S1_new X1_new* = X1 S1 X1*, and the coefficient change is a low
rank correction driven by a rank factorization and a Sherman-Morrison-
Woodbury style pivot Xi.  Each product W M W* with W thin (X1, X1_new or
both) is decomposed in the coordinates of range(W)
(numerics.range_coordinates), at order at most 2k.  update_model_result
is the one entry point: it takes the replacement eigenvectors as given
when MupProblem.X1_new is set and constructs them otherwise, and
errors.retry draws again when the output misses a gate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DefectiveSpectrum, DimensionMismatch, Infeasible,
                     MembershipCheckFailed, NoNonsingularS1Tilde,
                     ResidualTooLarge, SingularMatrix, SingularS1Precursor,
                     SpectraOverlap, SymmetryViolation, XiSingular,
                     XiSingularRetryExhausted, retry)
from .forward import COINCIDE_RTOL, eigenvalues
from .iep import (OUTPUT_RESIDUAL_TOL, _congruence_onto, _group_values,
                  _snap_isotropy, _unit_multiplicity)
from .numerics import (as_matrix, fnorm, invert, linear_solve, range_coordinates,
                       rank_factorize, solve_right, sv_ratio)
from .paramspace import (NONSINGULAR_RTOL, constrained_family, s_basis,
                         sample_nonsingular)
from .spectral import PAIR_RESIDUAL_GATE
from .structfact import star_factorize
from .system import PalindromicSystem, assembled_system, pair_residual

S1_MEMBERSHIP_RTOL = 1e-9
XI_SINGULAR_RTOL = 1e-12
# Relative distance within which a selected eigenvalue must be found in the
# system's spectrum.  It also absorbs the roundoff between values computed
# with eigenvectors (eig_full, usually the source of T1) and without them.
SELECTED_MATCH_RTOL = 1e-6


def compute_S1(sys, X1, T1):
    """Parameter block of the selected invariant pair, straight from the
    coefficients: S1 = (eps X1* A1 X1 T1^{-1} - T1^{-*} X1* A1* X1)^{-1}."""
    X1 = as_matrix(X1, "X1")
    T1 = as_matrix(T1, "T1")
    cls = sys.cls
    star = cls.star_of
    lead = cls.epsilon * solve_right(star(X1) @ sys.A1 @ X1, T1)
    trail = linear_solve(star(T1), star(X1) @ star(sys.A1) @ X1)
    G = lead - trail
    if sv_ratio(G) <= XI_SINGULAR_RTOL:
        raise SingularS1Precursor(
            "eps X1* A1 X1 T1^{-1} - T1^{-*} X1* A1* X1 is singular")
    S1 = invert(G)
    S1 = (S1 - cls.epsilon * star(S1)) / 2.0
    nS, nT = max(fnorm(S1), 1e-300), max(fnorm(T1), 1e-300)
    com = fnorm(S1 - T1 @ S1 @ star(T1))
    if com > S1_MEMBERSHIP_RTOL * nS * nT * nT:
        raise MembershipCheckFailed(
            f"computed S1 violates S1 = T1 S1 T1* (defect {com:.3e}); "
            "the selected eigendata is inconsistent with the system")
    return S1


def _check_diagonal(T, name):
    T = as_matrix(T, name)
    if T.shape[0] != T.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    off = T - np.diag(np.diag(T))
    if fnorm(off) > 1e-12 * max(fnorm(T), 1e-300):
        raise DimensionMismatch(
            f"{name} must be diagonal (semi-simple selected eigenvalues)")
    return T


@dataclass
class MupProblem:
    """A no-spillover update: replace the eigenvalues of (X1, T1) by T1_new.

    T1 and T1_new must be diagonal, pairing-closed and mutually disjoint;
    both must stay away from the remaining spectrum of the system.  With
    X1_new set, the replacement eigenvectors are prescribed.
    """

    sys: PalindromicSystem
    X1: np.ndarray
    T1: np.ndarray
    T1_new: np.ndarray
    X1_new: np.ndarray = None
    seed: int = 0
    attempts: int = 20

    def __post_init__(self):
        self.X1 = as_matrix(self.X1, "X1")
        self.T1 = _check_diagonal(self.T1, "T1")
        self.T1_new = _check_diagonal(self.T1_new, "T1_new")
        k = self.T1.shape[0]
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
        for i in range(k):
            for j in range(i + 1, k):
                if abs(old[i] - old[j]) <= COINCIDE_RTOL * max(1.0, abs(old[i])):
                    raise DefectiveSpectrum(
                        f"selected eigenvalues {old[i]:.6g} and {old[j]:.6g} "
                        "cluster; semi-simple selection required")
        for v in new:
            if min(abs(v - old)) <= COINCIDE_RTOL * max(1.0, abs(v)):
                raise SpectraOverlap(
                    f"replacement eigenvalue {v:.6g} collides with a "
                    "replaced one")
        values = eigenvalues(self.sys)
        kept_vals = values[self._kept_indices(values, old)]
        for v in np.concatenate([old, new]):
            if kept_vals.size and min(abs(v - kept_vals)) <= \
                    COINCIDE_RTOL * max(1.0, abs(v)):
                raise SpectraOverlap(
                    f"eigenvalue {v:.6g} collides with the kept spectrum")
        if cls.star == "T":
            # Transpose classes pin the parity of the +-1 multiplicities
            # (even for eps = +1; congruent to n mod 2 for eps = -1, since
            # Q(+-1) is then skew-symmetric).  An update whose final
            # spectrum breaks this has no solution at all.
            updated = np.concatenate([new, kept_vals])
            want = 0 if cls.epsilon == 1 else self.sys.n % 2
            for point in (1.0, -1.0):
                m = _unit_multiplicity(updated, point)
                if m % 2 != want:
                    raise Infeasible(
                        f"parity: the updated spectrum carries eigenvalue "
                        f"{point:+.0f} with multiplicity {m}, impossible for "
                        "this class and order")

    def _kept_indices(self, values, old):
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

    Factorizes the change of X T^{-1} S X* as Z1 Z2*, forms the pivot
    Xi = I + eps Z2* A1 Z1 and applies the bordered update to (A1, A0).
    The change is factorized as its order-min(n, 2k) core in the
    coordinates Q of range([X1_new, X1]), lifted as Z1 = Q Z1c,
    Z2 = Q Z2c.  A zero-rank change short-circuits to exact copies.
    Returns (system, Z1, Z2, rank); raises XiSingular when Xi is singular
    (callers retry with a fresh parameter draw).
    """
    cls = sys.cls
    star = cls.star_of
    eps = cls.epsilon
    Q, (P_new, P_old) = range_coordinates(X1_new, X1)
    D1_core = P_new @ linear_solve(T1_new, S1_new) @ star(P_new) \
        - P_old @ linear_solve(T1, S1) @ star(P_old)
    Z1, Z2, ell = rank_factorize(D1_core, star=cls.star)
    Z1, Z2 = Q @ Z1, Q @ Z2
    if ell == 0:
        return PalindromicSystem(cls, sys.A1.copy(), sys.A0.copy()), Z1, Z2, 0

    Xi = np.eye(ell, dtype=np.complex128) + eps * star(Z2) @ sys.A1 @ Z1
    if sv_ratio(Xi) <= XI_SINGULAR_RTOL:
        raise XiSingular("low-rank pivot Xi is singular")
    T2_new = T1_new @ T1_new
    T2_old = T1 @ T1
    Upsilon = X1_new @ linear_solve(T2_new, S1_new) @ star(X1_new) \
        - X1 @ linear_solve(T2_old, S1) @ star(X1)
    XiInv = invert(Xi)
    XiInvZ2A1 = XiInv @ star(Z2) @ sys.A1
    A1_new = sys.A1 - eps * sys.A1 @ Z1 @ XiInvZ2A1
    E = np.eye(sys.n, dtype=np.complex128) - eps * sys.A1 @ Z1 @ XiInv @ star(Z2)
    F = np.eye(sys.n, dtype=np.complex128) - eps * Z1 @ XiInvZ2A1
    core = sys.A0 - sys.A1 @ Upsilon @ sys.A1
    return assembled_system(cls, A1_new, E @ core @ F), Z1, Z2, ell


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
    floor = 1e-13 * (fnorm(problem.X1) ** 2 * fnorm(S1)
                     + fnorm(X1t) ** 2 * fnorm(S1t))
    if resid_new > OUTPUT_RESIDUAL_TOL or eq_resid > 1e-9 * fnorm(target) + floor:
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
    basis = s_basis(problem.T1_new, cls)
    retryable = (XiSingular, ResidualTooLarge, SymmetryViolation)
    if problem.X1_new is None:
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

        attempts = problem.attempts
    else:
        C = _snap_isotropy(problem.X1, S1, cls)
        S_part, homogeneous = constrained_family(basis, problem.X1_new, C, cls)
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

        attempts = problem.attempts + 1
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

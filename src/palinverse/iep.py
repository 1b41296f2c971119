"""Inverse eigenvalue problems with prescribed eigenpairs.

solve_iep_partial_result(IepProblem(...)) is the one entry, for every
1 <= k <= 2n.  For k = 2n (solve_iep_full) a regular solution exists
exactly when the parameter space of (X, T) contains a nonsingular element,
which is searched by seeded sampling.  For k < 2n, under the standing
assumptions that the prescribed T1 is similar to T1^{-*} and the remaining
spectrum stays disjoint, a parameter block S1 for the prescribed part is
sampled, the deficit X1 S1 X1* = Y Delta Y* is cancelled by extra
eigenvector columns Y Psi with Psi Omega Psi* = -Delta, and the remaining
eigenvalues enter through any T2hat preserving the canonical form Omega.
Each attempt draws S1, the default remaining eigenvalues and the isometry
of Omega from one seeded master RNG, and errors.retry draws again when the
output misses a gate.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (RETRY_ATTEMPTS, BadIndices, DimensionMismatch, Infeasible,
                     NoNonsingularFound, NoSolution, NonsingularityRetryExhausted,
                     PairingNotClosed, RemainingEigenvalueConflict,
                     ResidualTooLarge, RetryExhausted, SingularLeadingBlock,
                     SingularW, SymmetryViolation, UnsupportedRegime, retry)
from .forward import _coincide, _group_values, _semisimple_bound, _unit_parity
from .numerics import (COINCIDE_RTOL, NORM_FLOOR, OUTPUT_RESIDUAL_TOL, PATTERN_RTOL,
                       RANK_RTOL, SINGULAR_RTOL, as_matrix, fnorm, solve_right,
                       sv_ratio, unit_columns)
from .paramspace import sample_nonsingular, solution_space
from .spectral import _coefficients_from_blocks, coefficients_from_pair
from .structfact import _congruence_onto, _snap_isotropy, build_delta, star_factorize
from .system import pair_residual


def solve_iep_full(X, T, cls, seed=0):
    """The k = 2n step of solve_iep_partial_result, which checks the pair
    and its +-1 parity first; bench/ times it directly, by this name.

    Samples a nonsingular S subject to star(S) = -eps S, S = T S T* and
    X S X* = 0; raises NoSolution when the constrained space contains no
    nonsingular element.
    """
    X, T = as_matrix(X, "X"), as_matrix(T, "T")
    if X.shape[1] != T.shape[0] or 2 * X.shape[0] != T.shape[0]:
        raise DimensionMismatch("solve_iep_full needs X n-by-2n and T 2n-by-2n")
    X = unit_columns(X, T)
    try:
        S = sample_nonsingular(solution_space(T, cls, X), seed)
    except NoNonsingularFound as exc:
        raise NoSolution(f"no nonsingular parameter matrix exists: {exc}") from exc
    sys = coefficients_from_pair(X, T, S, cls)
    resid = pair_residual(sys, (X, T))
    if resid > OUTPUT_RESIDUAL_TOL:
        raise ResidualTooLarge(
            f"constructed system has pair residual {resid:.3e}")
    return sys


# ---------------------------------------------------------------------------
# Psi construction: solve Psi Omega Psi* = target for canonical patterns
# ---------------------------------------------------------------------------

def solve_psi(delta, omega, cls):
    """The canonical selection Psi with Psi Omega Psi* = -Delta.

    Delta is an n-by-n canonical factor (possibly rank deficient, zeros
    trailing); Omega is a nonsingular canonical factor of the complementary
    size.  For star = H the inertias must satisfy the usual feasibility
    inequalities, otherwise Infeasible is raised.  Not public; bench/
    traces it by name.  Construction and updating compose the selection
    with a seeded isometry of Omega (_congruence_onto with an rng).
    """
    return _congruence_onto(-as_matrix(delta, "Delta"), as_matrix(omega, "Omega"), cls)


# ---------------------------------------------------------------------------
# remaining-spectrum machinery
# ---------------------------------------------------------------------------

def _default_remaining(cls, count, n_pos, n_neg, order, t1_values, rng):
    """Seeded default for the unprescribed eigenvalues.

    Off-circle reciprocal pairs with modulus in [0.3, 0.7] wherever the
    class structure allows them; star = H classes fill the remaining
    inertia with unimodular singletons, and the transpose classes add the
    +-1 singletons that the parity of T1's spectrum forces.
    """
    # Values to stay clear of, T1's first and then each accepted draw, with
    # their exclusion radii; moduli by hypot, as abs() of a Python complex.
    used = len(t1_values)
    avoid = np.zeros(used + count, dtype=np.complex128)
    avoid[:used] = t1_values

    def reach_of(z):
        return 10 * COINCIDE_RTOL * np.maximum(1.0, np.hypot(z.real, z.imag))

    reach = reach_of(avoid)

    def keep(zs):
        nonlocal used
        zs = np.asarray(zs)
        avoid[used:used + len(zs)] = zs
        reach[used:used + len(zs)] = reach_of(zs)
        used += len(zs)

    def clear(z):
        d = z - avoid[:used]
        return bool((np.hypot(d.real, d.imag) > reach[:used]).all())

    def partner(mu):
        return 1.0 / (np.conj(mu) if cls.star == "H" else mu)

    def draw_pairs(m):
        # m pairs in one batch, every value clear of T1 and of the pairs
        # before it; the whole batch is drawn again on a clash.
        slot = np.arange(2 * m) // 2
        for _ in range(100):
            mu = rng.uniform(0.3, 0.7, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            z = np.column_stack([mu, partner(mu)]).ravel()
            d = z[:, None] - np.concatenate([avoid[:used], z])
            far = np.hypot(d.real, d.imag) > np.concatenate([reach[:used], reach_of(z)])
            far[:, used:] |= slot[:, None] <= slot
            if far.all():
                keep(z)
                return list(zip(z[0::2], z[1::2]))
        raise RetryExhausted("could not draw clear reciprocal pairs")

    def draw_unimodular():
        for _ in range(100):
            mu = np.exp(2j * np.pi * rng.uniform())
            if clear(mu):
                keep([mu])
                return mu
        raise RetryExhausted("could not draw a clear unimodular value")

    if cls.star == "H":
        n_pair = min(n_pos, n_neg)
        pairs = draw_pairs(n_pair)
        singles = [draw_unimodular() for _ in range(abs(n_pos - n_neg))]
        return pairs, singles, _assign_hermitian_signs(len(singles), n_pair,
                                                       n_pos, n_neg)
    # The up-front parity check leaves only points T1 does not carry.
    singles = _unit_parity(cls, order, t1_values)
    return draw_pairs((count - len(singles)) // 2), singles, [1] * len(singles)


def _assign_hermitian_signs(n_singles, n_pairs, n_pos, n_neg):
    """Singleton inertia signs that, with n_pairs reciprocal pairs, make up
    the inertia (n_pos, n_neg) of Omega.  (n_pos, n_neg) comes from the
    drawn S1, so a miss raises BadIndices, which the construction retries."""
    a = n_pos - n_pairs
    b = n_neg - n_pairs
    if a < 0 or b < 0 or a + b != n_singles:
        raise BadIndices(
            f"remaining eigenvalues carry {n_pairs} pairs and {n_singles} "
            f"singletons, incompatible with inertia targets ({n_pos}, {n_neg})")
    return [1] * a + [-1] * b


# Per class (star, eps): a unitary 2x2 factor y of a reciprocal-pair block,
# y delta y* = [[0, 1], [-eps, 0]], and for star = H the diagonal of the
# canonical delta.  For star = T delta is [[0, 1], [-1, 0]] (eps = +1) or
# the identity (eps = -1).
_SQRT_HALF = np.sqrt(0.5)
_PAIR_FACTOR = {
    ("H", 1): (_SQRT_HALF * np.array([[1, 1], [1j, -1j]]), (1j, -1j)),
    ("H", -1): (_SQRT_HALF * np.array([[1, 1], [1, -1]]), (1.0, -1.0)),
    ("T", 1): (np.eye(2, dtype=np.complex128), None),
    ("T", -1): (_SQRT_HALF * np.array([[1, 1j], [1, -1j]]), None),
}


def _build_t2hat(cls, pairs, singles, signs, omega):
    """T2hat with T2hat Omega T2hat* = Omega and the given spectrum.

    In block form a reciprocal pair (mu, nu) is y^{-1} diag(mu, nu) y with
    the class factor y of _PAIR_FACTOR, and a unimodular singleton is its
    own 1x1 block, carrying +-i (HP) or +-1 (HA, TA) by its inertia sign;
    TP has no singletons, its equal +-1 values come as pairs.
    A permutation then sorts the slots into build_delta order: the +i (HP)
    or +1 (HA) slots first; for TP the first slots of the pairs, then the
    second slots.
    """
    npair = len(pairs)
    r = 2 * npair + len(singles)
    if omega.shape != (r, r):
        raise Infeasible("remaining eigenvalue count does not match Omega")
    y, slots = _PAIR_FACTOR[(cls.star, cls.epsilon)]
    lam = np.array(pairs, dtype=np.complex128).reshape(npair, 1, 2)
    t2 = np.zeros((r, r), dtype=np.complex128)
    rows = np.arange(2 * npair).reshape(npair, 2, 1)
    t2[rows, rows.transpose(0, 2, 1)] = (y.conj().T * lam) @ y
    single = np.arange(2 * npair, r)
    t2[single, single] = singles
    if cls.star == "H":
        # sign = +1 must contribute positive inertia to sqrt(-eps) Omega.
        unit = -1j if cls.epsilon == 1 else 1.0
        values = np.concatenate([np.tile(slots, npair),
                                 unit * np.asarray(signs, dtype=float)])
        # +i (HP) and +1 (HA) lead, -i and -1 follow.
        order = np.argsort(values.real + values.imag < 0, kind="stable")
        delta = np.diag(values[order])
    elif cls.epsilon == -1:
        order = np.arange(r)
        delta = np.eye(r)
    else:
        order = np.arange(r).reshape(npair, 2).T.ravel()
        delta = build_delta(cls, 0, 0, r, r)
    if fnorm(delta - omega) > PATTERN_RTOL * max(fnorm(omega), NORM_FLOOR):
        raise Infeasible(
            "canonical factor of the model parameter block does not match Omega")
    return t2[np.ix_(order, order)]


@dataclass
class IepProblem:
    """An inverse problem: k prescribed eigenpairs (X1, T1), 1 <= k <= 2n.

    remaining_eigenvalues optionally fixes the other 2n - k eigenvalues
    (must be pairing-closed and disjoint from the spectrum of T1);
    otherwise seeded defaults are drawn.
    """

    cls: object
    X1: np.ndarray
    T1: np.ndarray
    seed: int = 0
    remaining_eigenvalues: list = None
    t1_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.X1 = as_matrix(self.X1, "X1")
        self.T1 = as_matrix(self.T1, "T1")
        k = self.T1.shape[0]
        if self.T1.shape != (k, k) or self.X1.shape[1] != k:
            raise DimensionMismatch("X1 and T1 dimensions do not conform")
        if k == 0:
            raise DimensionMismatch("a construction prescribes at least one eigenpair")
        self.X1 = unit_columns(self.X1, self.T1)
        if sv_ratio(self.T1) <= SINGULAR_RTOL:
            raise SingularW("T1 must be nonsingular")
        if sv_ratio(np.vstack([self.X1, -solve_right(self.X1, self.T1)])) <= RANK_RTOL:
            raise SingularW("[X1; -X1 T1^{-1}] must have full column rank")
        self.t1_values = np.linalg.eigvals(self.T1)
        _group_values(self.t1_values, self.cls)  # raises PairingNotClosed

    @property
    def n(self):
        return self.X1.shape[0]

    @property
    def k(self):
        return self.T1.shape[0]


@dataclass
class IepSolution:
    """A solved partial problem with its assembled spectral data."""

    system: object
    X: np.ndarray
    T: np.ndarray
    S: np.ndarray
    attempts: int
    residual: float

    @property
    def a0_defect(self):
        """Relative symmetry defect removed from the assembled A0."""
        return self.system.a0_defect


def _remaining_spectrum(problem):
    """Pairs and singletons of the user-supplied remaining eigenvalues,
    checked against the prescribed spectrum and the class rules."""
    cls, t1_eigs = problem.cls, problem.t1_values
    vals = np.array(problem.remaining_eigenvalues, dtype=np.complex128)
    hit = np.flatnonzero(_coincide(vals, t1_eigs).any(axis=1))
    if hit.size:
        raise RemainingEigenvalueConflict(
            f"remaining eigenvalue {vals[hit[0]]:.6g} collides with the "
            "prescribed spectrum")
    try:
        pairs, singles = _group_values(vals, cls)
    except PairingNotClosed as exc:
        raise RemainingEigenvalueConflict(str(exc)) from exc
    wrong = _unit_parity(cls, problem.n, np.concatenate([t1_eigs, vals]))
    if wrong:
        raise Infeasible(
            f"parity: eigenvalue {wrong[0]:+.0f} occurs with a multiplicity "
            "this class and order forbid")
    _semisimple_bound(problem.n, vals)
    if cls.star == "T" and cls.epsilon == 1:
        # Equal +-1 values pair into +-I blocks, which preserve the skew form.
        singles = sorted(singles, key=lambda v: v.real)
        return pairs + list(zip(singles[0::2], singles[1::2])), []
    return pairs, singles


def solve_iep_partial_result(problem):
    """Solve an IepProblem for any 1 <= k <= 2n, returning full diagnostics.

    Infeasible is decided before the first draw, from the +-1 parity of
    the transpose classes (for k = 2n too) and the multiplicity bound of a
    given remaining list.  For star = H any pairing-closed remaining list of length
    2n - k has consistent inertia counts: some inertia of S1, read off
    its star factorization, admits a sign split, and a draw that misses
    it is retried."""
    cls = problem.cls
    n, k = problem.n, problem.k
    r = 2 * n - k
    given = problem.remaining_eigenvalues
    if given is not None and len(given) != r:
        raise RemainingEigenvalueConflict(
            f"expected {r} remaining eigenvalues, got {len(given)}")
    t1_eigs = problem.t1_values
    for point in _unit_parity(cls, n, t1_eigs):
        if _coincide([point], t1_eigs).any():
            raise Infeasible(
                f"parity: eigenvalue {point:+.0f} is prescribed with a "
                "multiplicity this class and order forbid, and the remaining "
                "spectrum cannot repeat it")
    if r == 0:
        sys = solve_iep_full(problem.X1, problem.T1, cls, problem.seed)
        return IepSolution(sys, problem.X1, problem.T1, None, 1,
                           pair_residual(sys, (problem.X1, problem.T1)))
    if given is not None:
        given = _remaining_spectrum(problem)
    # IepProblem has refused a singular T1.
    basis = solution_space(problem.T1, cls)
    master = np.random.default_rng(problem.seed)

    def draw(attempt):
        seeds = master.integers(0, 2 ** 63, size=3)
        try:
            S1 = sample_nonsingular(basis, int(seeds[0]))
        except NoNonsingularFound as exc:
            raise NoSolution(
                f"no nonsingular parameter block for the prescribed pairs: {exc}"
            ) from exc
        if cls.star == "H":
            pattern = star_factorize(S1, cls).pattern
            n_pos, n_neg = n - pattern.p, n - pattern.q
            # BadIndices, retried, when S1 is numerically singular
            # (p + q < k) or its inertia exceeds the order.
            omega = build_delta(cls, p=n_pos, q=n_neg, t=0, size=r)
        else:
            omega = build_delta(cls, p=0, q=0, t=r, size=r)
            n_pos = n_neg = 0
        fact = star_factorize(_snap_isotropy(problem.X1, S1, cls), cls)
        if given is None:
            pairs, singles, signs = _default_remaining(
                cls, r, n_pos, n_neg, n, t1_eigs,
                np.random.default_rng(int(seeds[1])))
        else:
            pairs, singles = given
            # The singleton signs depend on the inertia of the drawn S1.
            signs = _assign_hermitian_signs(len(singles), len(pairs),
                                            n_pos, n_neg) \
                if cls.star == "H" else [1] * len(singles)
        t2hat = _build_t2hat(cls, pairs, singles, signs, omega)
        try:
            psi = _congruence_onto(-fact.pattern.matrix(), omega, cls,
                                   np.random.default_rng(int(seeds[2])))
        except Infeasible as exc:
            raise UnsupportedRegime(
                f"{exc}: completion needs rank(X1 S1 X1*) <= 2n - k = {r} "
                "with compatible inertia, a determinantal condition that "
                f"the freely drawn S1 misses (k = {k} > n = {n})") from exc
        X2 = fact.Y @ psi
        # (X, T, S) = ([X1, X2], diag(T1, T2hat), diag(S1, Omega)), assembled
        # by blocks; raises SingularLeadingBlock when X T^-1 S X* is singular.
        sys = _coefficients_from_blocks(
            [(problem.X1, problem.T1, S1), (X2, t2hat, omega)], cls)
        resid = pair_residual(sys, (problem.X1, problem.T1))
        if resid > OUTPUT_RESIDUAL_TOL:
            raise ResidualTooLarge(f"prescribed-pair residual {resid:.3e}")
        return sys, X2, S1, t2hat, omega, attempt, resid

    sys, X2, S1, t2hat, omega, attempt, resid = retry(
        RETRY_ATTEMPTS, draw, (RetryExhausted, BadIndices, SingularLeadingBlock,
                                 ResidualTooLarge, SymmetryViolation),
        NonsingularityRetryExhausted, "no regular completion")
    T, S = np.zeros((2, 2 * n, 2 * n), dtype=np.complex128)
    T[:k, :k], T[k:, k:], S[:k, :k], S[k:, k:] = problem.T1, t2hat, S1, omega
    return IepSolution(sys, np.hstack([problem.X1, X2]), T, S, attempt, resid)

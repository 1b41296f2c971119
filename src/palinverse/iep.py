"""Inverse eigenvalue problems with prescribed eigenpairs.

solve_iep_partial_result(IepProblem(...)) is the one entry, for every
1 <= k <= 2n.  For k = 2n a regular solution exists exactly when the
parameter space of (X, T) contains a nonsingular element, which is
searched by seeded sampling.  For k < 2n, under the standing
assumptions that the prescribed T1 is similar to T1^{-*} and the remaining
spectrum stays disjoint, a parameter block S1 for the prescribed part is
sampled, the deficit X1 S1 X1* = Y Delta Y* is cancelled by extra
eigenvector columns Y Psi with Psi Omega Psi* = -Delta, and the remaining
eigenvalues enter through any T2hat preserving the canonical form Omega.
Every k draws in one loop (_construct): each attempt takes S1 and, for
k < 2n, the default remaining eigenvalues and the isometry of Omega from
one seeded master RNG, and errors.retry draws again when the output misses
a gate.
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
from .spectral import _coefficients_from_blocks
from .structfact import _congruence_onto, _snap_isotropy, build_delta, star_factorize
from .system import pair_residual


def solve_iep_full(X, T, cls, seed=0):
    """The system of the k = 2n step of solve_iep_partial_result, which
    checks the pair and its +-1 parity first; bench/ times it directly, by
    this name.

    Samples a nonsingular S subject to star(S) = -eps S, S = T S T* and
    X S X* = 0, with the entry's seeded draws and retries; raises NoSolution
    when the constrained space contains no nonsingular element.
    """
    X, T = as_matrix(X, "X"), as_matrix(T, "T")
    if X.shape[1] != T.shape[0] or 2 * X.shape[0] != T.shape[0]:
        raise DimensionMismatch("solve_iep_full needs X n-by-2n and T 2n-by-2n")
    X = unit_columns(X, T)
    return _construct(cls, X, T, seed, solution_space(T, cls, X)).system


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
    """Seeded default (pairs, singles) for the unprescribed eigenvalues.

    Off-circle reciprocal pairs with modulus in [0.3, 0.7] wherever the
    class structure allows them; star = H classes fill the remaining
    inertia with unimodular singletons, and the transpose classes add the
    +-1 singletons that the parity of T1's spectrum forces.  The drawn
    values come in one batch, drawn again whole when a value lies within
    10 COINCIDE_RTOL max(1, |a|) of a value a of T1 or of an earlier drawn
    value other than its partner.
    """
    if cls.star == "H":
        n_pair, n_single = min(n_pos, n_neg), abs(n_pos - n_neg)
    else:
        # The up-front parity check leaves only points T1 does not carry.
        forced = _unit_parity(cls, order, t1_values)
        n_pair, n_single = (count - len(forced)) // 2, 0
    # A pair's two values share a slot; a value is checked against T1 and
    # the values of earlier slots.
    slot = np.concatenate([np.arange(2 * n_pair) // 2, n_pair + np.arange(n_single)])
    for _ in range(100):
        mu = rng.uniform(0.3, 0.7, n_pair) * np.exp(2j * np.pi * rng.uniform(size=n_pair))
        nu = 1.0 / (np.conj(mu) if cls.star == "H" else mu)
        z = np.concatenate([np.column_stack([mu, nu]).ravel(),
                            [np.exp(2j * np.pi * rng.uniform()) for _ in range(n_single)]])
        avoid = np.concatenate([t1_values, z])
        d = z[:, None] - avoid
        # Moduli by hypot, as abs() of a Python complex.
        far = np.hypot(d.real, d.imag) > \
            10 * COINCIDE_RTOL * np.maximum(1.0, np.hypot(avoid.real, avoid.imag))
        far[:, len(t1_values):] |= slot[:, None] <= slot
        if far.all():
            break
    else:
        raise RetryExhausted("could not draw remaining eigenvalues clear of T1 "
                             "and of each other")
    pairs = list(zip(z[0:2 * n_pair:2], z[1:2 * n_pair:2]))
    return pairs, list(z[2 * n_pair:]) if cls.star == "H" else forced


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
        if self.seed < 0:  # numpy would refuse it only at the first draw
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    """A solved problem with its assembled spectral data (X, T, S) and the
    number of draws it took."""

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
    # At k = 2n no remaining spectrum can supply a missing +-1 either.
    for point in _unit_parity(cls, n, t1_eigs):
        if r == 0 or _coincide([point], t1_eigs).any():
            raise Infeasible(
                f"parity: eigenvalue {point:+.0f} is prescribed with a "
                "multiplicity this class and order forbid, and the remaining "
                "spectrum cannot mend it")
    if r == 0:
        return _construct(cls, problem.X1, problem.T1, problem.seed,
                          solution_space(problem.T1, cls, problem.X1))
    if given is not None:
        given = _remaining_spectrum(problem)

    def completion(S1, seeds):
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
        pairs, singles = given if given is not None else _default_remaining(
            cls, r, n_pos, n_neg, n, t1_eigs, np.random.default_rng(int(seeds[1])))
        # The singleton signs depend on the inertia of the drawn S1.
        signs = _assign_hermitian_signs(len(singles), len(pairs), n_pos, n_neg) \
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
        return fact.Y @ psi, t2hat, omega

    # IepProblem has refused a singular T1.
    return _construct(cls, problem.X1, problem.T1, problem.seed,
                      solution_space(problem.T1, cls), completion)


def _construct(cls, X1, T1, seed, basis, completion=None):
    """The seeded draws of every construction.  Each draw takes S1 from
    basis and, for k < 2n, the block (X2, T2hat, Omega) that
    completion(S1, seeds) builds; errors.retry draws again when the output
    misses a gate."""
    master = np.random.default_rng(seed)

    def draw(attempt):
        seeds = master.integers(0, 2 ** 63, size=3)
        try:
            S1 = sample_nonsingular(basis, int(seeds[0]))
        except NoNonsingularFound as exc:
            raise NoSolution(
                f"no nonsingular parameter matrix for the prescribed pairs: {exc}"
            ) from exc
        blocks = [(X1, T1, S1)]
        if completion is not None:
            blocks.append(completion(S1, seeds))
        # (X, T, S) = ([X1, X2], diag(T1, T2hat), diag(S1, Omega)), assembled
        # by blocks; raises SingularLeadingBlock when X T^-1 S X* is singular.
        sys = _coefficients_from_blocks(blocks, cls)
        resid = pair_residual(sys, (X1, T1))
        if resid > OUTPUT_RESIDUAL_TOL:
            raise ResidualTooLarge(f"prescribed-pair residual {resid:.3e}")
        return sys, blocks, attempt, resid

    sys, blocks, attempt, resid = retry(
        RETRY_ATTEMPTS, draw, (RetryExhausted, BadIndices, SingularLeadingBlock,
                                 ResidualTooLarge, SymmetryViolation),
        NonsingularityRetryExhausted, "no regular completion")
    if completion is None:
        return IepSolution(sys, X1, T1, blocks[0][2], attempt, resid)
    (_, _, S1), (X2, t2hat, omega) = blocks
    k, m = len(T1), len(T1) + len(t2hat)
    T, S = np.zeros((2, m, m), dtype=np.complex128)
    T[:k, :k], T[k:, k:], S[:k, :k], S[k:, k:] = T1, t2hat, S1, omega
    return IepSolution(sys, np.hstack([X1, X2]), T, S, attempt, resid)

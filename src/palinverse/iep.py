"""Inverse eigenvalue problems with prescribed eigenpairs.

solve_iep_partial_result(IepProblem(...)) is the one entry, for every
1 <= k <= 2n.  For k = 2n a regular solution exists exactly when the
parameter space of (X, T) contains a nonsingular element, which is
searched by seeded sampling.  For k < 2n, under the standing
assumptions that the prescribed T1 is similar to T1^{-*} and the remaining
spectrum stays disjoint, a parameter block S1 for the prescribed part is
sampled, and the remaining eigenvalues enter as T2 = diag(values) with
the closed-form parameter block S2 = G F G* (structfact._closed_form_block).
The deficit X1 S1 X1* = Y Delta Y* (structfact._isotropy_factor, at order
min(n, k)) is cancelled by the extra eigenvector columns X2 = Y Psi G^H
with Psi F Psi* = -Delta, so T = diag(T1, T2) with T1 in Jordan form
(_jordan_form): (X, T) is an eigendecomposition unless the caller's T1
is a defective Jordan form.  Every k draws in one loop (_construct):
each attempt takes S1 and, for k < 2n, the default remaining eigenvalues
and the isometry of F from the one generator the seed starts, and
errors.retry draws again when a draw misses (errors.MISSES).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (RETRY_ATTEMPTS, BadIndices, DefectiveSpectrum, DimensionMismatch,
                     Infeasible, PairingNotClosed, ResidualTooLarge, SingularW,
                     UnsupportedRegime, retry, seed_index)
from .forward import _admit, _apart, _coincide, _group_values, _paired, _unit_parity
from .numerics import (OUTPUT_RESIDUAL_TOL, RANK_RTOL, SINGULAR_RTOL, as_matrix,
                       dense_eig, solve_right, sv_ratio, unit_columns)
from .paramspace import _jordan_blocks, sample_nonsingular, solution_space
from .spectral import _coefficients_from_blocks
from .structfact import _closed_form_block, _congruence_onto, _inertia, _isotropy_factor
from .system import pair_residual


def solve_iep_full(X, T, cls, seed=0):
    """The system of the k = 2n step of solve_iep_partial_result, which
    checks the pair and its +-1 parity first; bench/ times it directly, by
    this name.

    Samples a nonsingular S subject to star(S) = -eps S, S = T S T* and
    X S X* = 0, with the entry's seeded draws and retries; raises NoSolution
    when the constrained space contains no nonsingular element; ValueError
    for a seed errors.seed_index refuses, before any solve.
    """
    seed = seed_index(seed)
    X, T = as_matrix(X, "X"), as_matrix(T, "T")
    if X.shape[1] != T.shape[0] or 2 * X.shape[0] != T.shape[0]:
        raise DimensionMismatch("solve_iep_full needs X n-by-2n and T 2n-by-2n")
    X = unit_columns(X, T)
    return _construct(cls, (X, T), _jordan_form(X, T), seed, None).system


def _jordan_form(X1, T1):
    """(X1, T1) in the Jordan form a construction solves on: as given when
    paramspace._jordan_blocks reads T1, else (X1 V, D), unit columns, from
    one T1 = V D V^-1.  DefectiveSpectrum when sv_ratio(V) <= u / RANK_RTOL
    (2.2e-6), past which roundoff in D, about u ||T1|| / sv_ratio(V), tops
    RANK_RTOL: a defective T1 must be given in Jordan form."""
    if _jordan_blocks(T1) is not None:
        return X1, T1
    w, V = dense_eig(T1)
    ratio = sv_ratio(V)
    if not ratio > np.finfo(float).eps / RANK_RTOL:
        raise DefectiveSpectrum(f"T1 is defective or nearly so (eigenvector sigma "
                                f"ratio {ratio:.3e}); give it in Jordan form")
    return unit_columns(X1 @ V, np.diag(w)), np.diag(w)


# ---------------------------------------------------------------------------
# Psi construction: solve Psi Omega Psi* = target for canonical patterns
# ---------------------------------------------------------------------------

def solve_psi(delta, omega, cls):
    """The canonical selection Psi with Psi Omega Psi* = -Delta.

    Delta is an n-by-n canonical factor (possibly rank deficient, zeros
    trailing); Omega is a nonsingular canonical factor of the complementary
    size.  For star = H the inertias must satisfy the usual feasibility
    inequalities, otherwise BadIndices is raised.  Not public; bench/
    traces it by name.  Construction and updating compose the selection
    with a seeded isometry of Omega (_congruence_onto with an rng).
    """
    return _congruence_onto(-as_matrix(delta, "Delta"), as_matrix(omega, "Omega"), cls)


# ---------------------------------------------------------------------------
# remaining-spectrum machinery
# ---------------------------------------------------------------------------

def _default_remaining(cls, count, n_pos, n_neg, order, t1_values, rng):
    """Seeded default values for the unprescribed eigenvalues, with their
    pairing by index (as forward._group_values gives it).

    Off-circle reciprocal pairs with modulus in [0.3, 0.7] wherever the
    class structure allows them, each pair's values side by side; star = H
    classes fill the remaining inertia with unimodular singletons, and the
    transpose classes add the +-1 singletons that the parity of T1's
    spectrum forces.  The drawn values come in one batch, exact pairs; one
    that coincides with a value of T1 raises SpectraOverlap
    (forward._apart), a miss, and the construction draws again.
    """
    # The up-front parity check leaves only points T1 does not carry.
    forced = _unit_parity(cls, order, t1_values)
    if cls.star == "H":
        n_pair, n_single = min(n_pos, n_neg), abs(n_pos - n_neg)
    else:
        n_pair, n_single = (count - len(forced)) // 2, 0
    mu = rng.uniform(0.3, 0.7, n_pair) * np.exp(2j * np.pi * rng.uniform(size=n_pair))
    singles = [np.exp(2j * np.pi * rng.uniform()) for _ in range(n_single)]
    pairs = [(2 * m, 2 * m + 1) for m in range(n_pair)]
    z = _paired(np.concatenate([np.repeat(mu, 2), singles]), (pairs, []), cls)
    _apart(z, t1_values, "the prescribed spectrum")
    values = np.concatenate([z, forced])
    return values, (pairs, list(range(2 * n_pair, len(values))))


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
    form: tuple = field(init=False, repr=False)  # (X1, T1) in Jordan form (_jordan_form)
    t1_values: np.ndarray = field(init=False, repr=False)  # the form's diagonal, in order
    t1_groups: tuple = field(init=False, repr=False)  # pairing of t1_values, by index

    def __post_init__(self):
        self.seed = seed_index(self.seed)
        self.X1, self.T1 = as_matrix(self.X1, "X1"), as_matrix(self.T1, "T1")
        k = self.T1.shape[0]
        if self.T1.shape != (k, k) or self.X1.shape[1] != k:
            raise DimensionMismatch("X1 and T1 dimensions do not conform")
        if k == 0:
            raise DimensionMismatch("a construction prescribes at least one eigenpair")
        self.X1 = unit_columns(self.X1, self.T1)
        ratio = sv_ratio(self.T1)
        if not ratio > SINGULAR_RTOL:
            raise SingularW(f"sigma_min/sigma_max of T1 is {ratio:.3e}, at or below "
                            f"SINGULAR_RTOL = {SINGULAR_RTOL:.0e}")
        if not sv_ratio(np.vstack([self.X1, -solve_right(self.X1, self.T1)])) > RANK_RTOL:
            raise SingularW("[X1; -X1 T1^{-1}] must have full column rank")
        self.form = _jordan_form(self.X1, self.T1)
        self.t1_values = np.diag(self.form[1])
        self.t1_groups = _group_values(self.t1_values, self.cls)  # raises PairingNotClosed

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


def solve_iep_partial_result(problem):
    """Solve an IepProblem for any 1 <= k <= 2n, returning full diagnostics.

    Infeasible is decided before the first draw, from the +-1 parity of
    the transpose classes (for k = 2n too); a given remaining list is
    admitted by forward._admit, the rule an update's replacement values
    pass too.  For star = H any pairing-closed remaining list of length
    2n - k has consistent inertia counts: some inertia of S1, its sign
    count (structfact._inertia), admits a sign split, and a draw that
    misses it is retried."""
    cls = problem.cls
    n, k = problem.n, problem.k
    r = 2 * n - k
    given = problem.remaining_eigenvalues
    if given is not None and len(given) != r:
        raise DimensionMismatch(
            f"expected {r} remaining eigenvalues, got {len(given)}")
    vals = None if given is None else as_matrix([given], "remaining eigenvalues")[0]
    # At k = 2n no remaining spectrum can supply a missing +-1 either.
    for point in _unit_parity(cls, n, problem.t1_values):
        if r == 0 or _coincide([point], problem.t1_values).any():
            raise Infeasible(
                f"parity: eigenvalue {point:+.0f} is prescribed with a "
                "multiplicity this class and order forbid, and the remaining "
                "spectrum cannot mend it")
    if given is not None:
        groups = _admit(cls, n, vals, problem.t1_values, "the prescribed spectrum")
        given = _paired(vals, groups, cls), groups

    def completion(S1, rng):
        # For star = H, S = diag(S1, S2) has inertia (n, n).  BadIndices,
        # retried, when the inertia of S1 (nonsingular: it cleared the
        # sampler) exceeds n.  For star = T, p = q = 0.
        inertia = _inertia(S1, cls)
        p, q = (n - inertia[0], n - inertia[1]) if cls.star == "H" else inertia
        if min(p, q) < 0:
            raise BadIndices(f"S1 of inertia {inertia} leaves "
                             f"no inertia of size {r} for the remaining block")
        fact = _isotropy_factor(problem.form[0], S1, cls)
        values, groups = given if given is not None else _default_remaining(
            cls, r, p, q, n, problem.t1_values, rng)
        S2, G, F = _closed_form_block(cls, values, groups, p, q)
        try:
            psi = _congruence_onto(-fact.pattern.matrix(), F, cls, rng)
        except BadIndices as exc:
            raise UnsupportedRegime(
                f"{exc}: completion needs rank(X1 S1 X1*) <= 2n - k = {r} "
                "with compatible inertia, a determinantal condition that "
                f"the freely drawn S1 misses (k = {k} > n = {n})") from exc
        # X2 S2 X2* = Y psi F psi* Y* = -X1 S1 X1*.
        return fact.Y @ psi @ G.conj().T, np.diag(values), S2

    # At k = 2n the constraint X1 S1 X1* = 0 takes the completion's place.
    return _construct(cls, (problem.X1, problem.T1), problem.form, problem.seed,
                      problem.t1_groups, completion if r else None)


def _construct(cls, pair, form, seed, groups, completion=None):
    """The seeded draws of every construction, from one generator rng, on
    the Jordan form (X1, T1) of the caller's pair, its diagonal snapped by
    forward._paired and groups (its pairing, found when None; PairingNotClosed
    when rows of one Jordan block take different partners).  Each draw takes
    S1 from its parameter space (with X1 S1 X1* = 0 when completion is None)
    and, for k < 2n, the block (X2, T2, S2) that completion(S1, rng) builds,
    T2 diagonal; the gate judges pair and (X2, T2).  errors.retry draws again
    when S1 is singular or the draw misses a gate, and raises NoSolution when
    every S1 drawn was singular."""
    rng = np.random.default_rng(seed)
    X1, T1 = form[0], form[1].copy()
    d = np.diag(form[1])
    np.fill_diagonal(T1, _paired(d, groups or _group_values(d, cls), cls))
    split = np.flatnonzero(np.diag(T1, 1) * np.diff(np.diag(T1)))
    if split.size:
        raise PairingNotClosed(f"pairing splits T1's Jordan block at eigenvalue {d[split[0]]:.6g}")
    basis = solution_space(T1, cls, X1 if completion is None else None)

    def draw(attempt):
        S1, s1 = sample_nonsingular(basis, rng)
        blocks, svals = [(X1, T1, S1)], [s1]
        if completion is not None:
            blocks.append(completion(S1, rng))
            # S2 has one unimodular entry in each row and column.
            svals.append(np.ones(len(blocks[1][2])))
        # (X, T, S) = ([X1, X2], diag(T1, T2), diag(S1, S2)), assembled by
        # blocks; raises SingularLeadingBlock when X T^-1 S X* is singular.
        sys = _coefficients_from_blocks(blocks, cls, svals)
        resid = pair_residual(sys, pair)
        if not resid <= OUTPUT_RESIDUAL_TOL:
            raise ResidualTooLarge(f"prescribed-pair residual {resid:.3e}")
        rest = pair_residual(sys, blocks[1][:2]) if completion is not None else 0.0
        if not rest <= OUTPUT_RESIDUAL_TOL:
            raise ResidualTooLarge(f"remaining-pair residual {rest:.3e}")
        return sys, blocks, attempt, resid

    sys, blocks, attempt, resid = retry(RETRY_ATTEMPTS, draw, "no regular completion")
    if completion is None:
        return IepSolution(sys, X1, T1, blocks[0][2], attempt, resid)
    (_, _, S1), (X2, T2, S2) = blocks
    k, m = len(T1), len(T1) + len(T2)
    T, S = np.zeros((2, m, m), dtype=np.complex128)
    T[:k, :k], T[k:, k:], S[:k, :k], S[k:, k:] = T1, T2, S1, S2
    return IepSolution(sys, np.hstack([X1, X2]), T, S, attempt, resid)

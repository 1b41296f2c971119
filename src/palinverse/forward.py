"""Forward eigensolver for palindromic quadratics, with reciprocal pairing.

The quadratic is linearized by its companion matrix
C = [[-Y0, -Y1], [I, 0]] with A1* [Y0, Y1] = [A0, eps A1], the standard form
of the pencil lambda [[A1*, 0], [0, I]] + [[A0, eps A1], [-I, 0]].  The pencil
is never formed: C costs one order-n LU solve with 2n right-hand sides.
This companion form is deliberately unstructured; at desk scale its
accuracy supports the 1e-6 pairing tolerance PAIRING_TOL, and
structure-preserving solvers are out of scope.

Each system keeps the 2n eigenvalues of its last eigensolve, so a
spectrum is solved at most once per system.  eig_full and eigenvalues
record a read-only copy of the values they compute on the system; the
most recent solve overwrites the record (eig_full's values, computed with
eigenvectors, differ from eigenvalues' at roundoff).  eigenvalues returns
the record only while system._recorded holds it valid (sys.A1 and sys.A0
the very arrays it came from, neither writeable), and solves afresh
otherwise.  eig_full always runs its own eigensolve.

Construction (iep), updating (mup) and select_pairs decide every rule on a
set of eigenvalues here: _coincide is the one coincidence test,
_group_values applies the reciprocal pairing to a prescribed value list,
_unit_parity is the +-1 multiplicity rule of the transpose classes, and
_semisimple_bound caps the multiplicity of any value at the order n.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import Infeasible, PairingNotClosed, SpectraOverlap, TargetNotFound
from .numerics import COINCIDE_RTOL, MATCH_TOL, PAIRING_TOL, dense_eig, linear_solve
from .system import SymmetryClass, _recorded


def companion(sys):
    """Companion matrix of Q; A1 nonsingular rules out infinite eigenvalues,
    so its 2n eigenvalues are those of Q.  Its eigenvectors are (lam x; x)
    with Q(lam) x = 0, so either n-block is an eigenvector of Q."""
    n = sys.n
    eps, A1 = sys.cls.epsilon, sys.A1
    C = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    Y = linear_solve(sys.cls.star_of(A1), np.hstack([sys.A0, eps * A1]))
    np.negative(Y, out=C[:n])
    C[n:, :n] = np.eye(n)
    return C


def _record(sys, values):
    kept = values.copy()
    kept.flags.writeable = False
    sys._eigenvalues = (sys.A1, sys.A0, kept)
    return kept


def eigenvalues(sys):
    """The 2n eigenvalues of Q alone: no eigenvectors, residuals or pairing.

    Returns the read-only values recorded by the last eigensolve of sys
    when they are still valid (see the module docstring) and solves for
    them otherwise.
    """
    values = _recorded(sys, sys._eigenvalues)
    return values if values is not None \
        else _record(sys, dense_eig(companion(sys), vectors=False))


@dataclass
class EigenPairSet:
    """All 2n eigenpairs of a system plus reciprocal pairing bookkeeping.

    pairing holds index tuples (i, j) with lam_j ~= 1 / lam_i*; self-paired
    unimodular eigenvalues appear as (i, i).  residuals[i] is the 2-norm of
    Q(lam_i) v_i.  pairing_complete is False when some eigenvalue found no
    partner within PAIRING_TOL; those indices are listed in unmatched.
    """

    cls: SymmetryClass
    values: np.ndarray
    vectors: np.ndarray
    pairing: list
    residuals: np.ndarray
    unmatched: list = field(default_factory=list)

    @property
    def pairing_complete(self):
        return not self.unmatched

    @property
    def n(self):
        return self.vectors.shape[0]

    @cached_property
    def partners(self):
        """partners[i] is the index paired with i, or -1 when i is unmatched."""
        partners = np.full(len(self.values), -1)
        pairs = np.array(self.pairing, dtype=int).reshape(-1, 2)
        partners[pairs[:, 0]] = pairs[:, 1]
        partners[pairs[:, 1]] = pairs[:, 0]
        return partners

    def partner_index(self, i):
        j = int(self.partners[i])
        return None if j < 0 else j


def _greedy_pairing(values, cls, tol):
    """Match eigenvalues into (lam, 1/lam*) pairs.

    Smallest modulus first; each unmatched value takes the unmatched
    candidate minimizing |lam lam'* - 1| (itself included, which accepts
    unimodular self-pairs).  Ties break by index order.

    Moduli and defects are taken with hypot on real and imaginary parts,
    which rounds exactly like the scalar abs(complex) (numpy's complex abs
    may not), so the order and the ties are those of a scalar loop.
    """
    re, im = values.real, values.imag
    im_star = -im if cls.star == "H" else im
    outer = np.multiply.outer
    defect = np.hypot(outer(re, re) - outer(im, im_star) - 1.0,
                      outer(re, im_star) + outer(im, re))
    free = np.ones(len(values), dtype=bool)
    pairs = []
    unmatched = []
    for i in np.argsort(np.hypot(re, im), kind="stable").tolist():
        if not free[i]:
            continue
        j = int(np.argmin(np.where(free, defect[i], np.inf)))
        free[i] = False
        if defect[i, j] <= tol:
            free[j] = False
            pairs.append((min(i, j), max(i, j)))
        else:
            unmatched.append(i)
    return pairs, unmatched


def _group_values(values, cls):
    """Split a pairing-closed value list into reciprocal pairs and
    unimodular singletons, each in list order (a pair at the place of its
    first value); raise when some value has no partner."""
    values = [complex(v) for v in values]
    matched, unmatched = _greedy_pairing(
        np.array(values, dtype=np.complex128), cls, COINCIDE_RTOL)
    if unmatched:
        raise PairingNotClosed(
            f"value {values[min(unmatched)]:.6g} has no reciprocal partner "
            "in the list")
    pairs, singles = [], []
    for i, j in sorted(matched):
        if i == j:
            singles.append(values[i])
        else:
            pairs.append((values[i], values[j]))
    return pairs, singles


def _coincide(a, b):
    """Boolean matrix: a_i and b_j coincide, |a_i - b_j| <= COINCIDE_RTOL
    max(1, |a_i|)."""
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a[:, None] - b[None, :]) <= \
        COINCIDE_RTOL * np.maximum(1.0, np.abs(a))[:, None]


def _unit_parity(cls, n, values):
    """The points +-1 whose multiplicity in the whole spectrum values of an
    order-n system breaks the transpose-class rule: even for eps = +1, and
    congruent to n mod 2 for eps = -1, where Q(+-1) is skew-symmetric.
    Empty for star = H, which puts no parity on +-1."""
    if cls.star == "H":
        return []
    want = 0 if cls.epsilon == 1 else n % 2
    points = (1.0, -1.0)
    counts = _coincide(points, values).sum(axis=1)
    return [p for p, m in zip(points, counts) if m % 2 != want]


def _semisimple_bound(n, values):
    """Raise Infeasible when a value occurs more than n times in values: a
    semisimple eigenvalue of an order-n system has at most n eigenvectors.
    A list disjoint from the rest of the spectrum decides it for the whole."""
    values = np.asarray(values)
    counts = _coincide(values, values).sum(axis=1)
    if counts.max(initial=0) > n:
        i = int(np.argmax(counts))
        raise Infeasible(
            f"multiplicity: eigenvalue {values[i]:.6g} occurs {counts[i]} times, "
            f"but a semisimple eigenvalue of an order-{n} system has at most "
            f"{n} eigenvectors")


def eig_full(sys):
    """All 2n finite eigenpairs of Q with reciprocal pairing.

    Solves the standard eigenproblem of the companion matrix, normalizes
    eigenvectors from the better scaled companion block, and pairs the
    spectrum greedily within PAIRING_TOL.  An incomplete pairing is
    recorded in the result, not raised.  The eigenvalues are also recorded
    on sys, for eigenvalues.
    """
    n = sys.n
    values, Z = dense_eig(companion(sys))
    _record(sys, values)
    top, bottom = Z[:n], Z[n:]
    # hypot, as in _greedy_pairing: unimodular values sit on this boundary.
    vectors = np.where(np.hypot(values.real, values.imag) >= 1.0, top, bottom)
    # A unit companion eigenvector is (lam x; x), so the kept block has
    # norm at least 1/sqrt(2).
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    # Q(lam_i) x_i for all i at once: Lambda acts as a column scaling.
    A1 = sys.A1
    R = (sys.cls.star_of(A1) @ vectors) * values**2 + (sys.A0 @ vectors) * values \
        + sys.cls.epsilon * (A1 @ vectors)
    residuals = np.linalg.norm(R, axis=0)
    pairs, unmatched = _greedy_pairing(values, sys.cls, PAIRING_TOL)
    return EigenPairSet(sys.cls, values, vectors, pairs, residuals, unmatched)


def select_pairs(eigs, targets, tol=MATCH_TOL):
    """Split an EigenPairSet into selected and remaining invariant pairs.

    Each target must match exactly one computed eigenvalue within tol
    (absolute, relative to max(1, |target|)), the selection must be closed
    under reciprocal pairing, and selected and remaining eigenvalues must
    not overlap.  Returns (X1, T1, X2, T2) with diagonal T factors.
    """
    if not tol >= 0:  # a nan tolerance would match any eigenvalue
        raise ValueError(f"match tolerance must be >= 0, got {tol}")
    values = eigs.values
    targets = np.fromiter(targets, dtype=np.complex128)
    dists = np.abs(values[None, :] - targets[:, None])
    selected = np.argmin(dists, axis=1)
    missing = dists.min(axis=1) > tol * np.maximum(1.0, np.abs(targets))
    repeated = np.ones(len(targets), dtype=bool)
    repeated[np.unique(selected, return_index=True)[1]] = False
    bad = np.flatnonzero(missing | repeated)
    if bad.size:
        a = bad[0]
        j = selected[a]
        if missing[a]:
            raise TargetNotFound(f"target not found: {complex(targets[a]):.6g} "
                                 f"(closest eigenvalue {values[j]:.6g})")
        raise TargetNotFound(
            f"targets are ambiguous: eigenvalue {values[j]:.6g} matched twice")
    in_sel = np.zeros(len(values), dtype=bool)
    in_sel[selected] = True
    partner = eigs.partners[selected]
    unclosed = np.flatnonzero((partner < 0) | ~in_sel[partner])
    if unclosed.size:
        i, j = selected[unclosed[0]], partner[unclosed[0]]
        if j < 0:
            raise PairingNotClosed(
                f"pairing not closed: eigenvalue {values[i]:.6g} has no partner")
        raise PairingNotClosed(
            f"pairing not closed: eigenvalue {values[i]:.6g} selected "
            f"without its partner {values[j]:.6g}")
    rest = np.flatnonzero(~in_sel)
    chosen = values[selected]
    hit = np.flatnonzero(_coincide(chosen, values[rest]).any(axis=1))
    if hit.size:
        raise SpectraOverlap(
            f"selected eigenvalue {chosen[hit[0]]:.6g} reappears in the "
            "remaining spectrum")
    X1 = eigs.vectors[:, selected]
    T1 = np.diag(chosen)
    X2 = eigs.vectors[:, rest]
    T2 = np.diag(values[rest])
    return X1, T1, X2, T2

"""Forward eigensolver for palindromic quadratics, with reciprocal pairing.

The quadratic is linearized into the companion pencil lambda M1 + M0 with
M1 = [[A1*, 0], [0, I]] and M0 = [[A0, eps A1], [-I, 0]].  This companion
form is deliberately unstructured; at desk scale its accuracy supports the
1e-6 pairing tolerance used throughout, and structure-preserving solvers
are out of scope.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (PairingFailure, PairingNotClosed, SpectraOverlap,
                     TargetNotFound)
from .numerics import dense_eig, linear_solve
from .system import SymmetryClass

PAIRING_TOL = 1e-6


def linearize(sys):
    """Companion pencil (M0, M1) of Q; lambda M1 + M0 is singular exactly
    at the eigenvalues of Q, and the top n-block of a pencil eigenvector is
    an eigenvector of Q."""
    n = sys.n
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    M1 = np.block([[sys.cls.star_of(sys.A1), zero], [zero, eye]])
    M0 = np.block([[sys.A0, sys.cls.epsilon * sys.A1], [-eye, zero]])
    return M0, M1


def companion(sys):
    """-M1^{-1} M0, the standard form of the companion pencil; A1 nonsingular
    rules out infinite eigenvalues, so its 2n eigenvalues are those of Q."""
    M0, M1 = linearize(sys)
    return -linear_solve(M1, M0)


def eigenvalues(sys):
    """The 2n eigenvalues of Q alone: no eigenvectors, residuals or pairing."""
    return dense_eig(companion(sys), vectors=False)


@dataclass
class EigenPairSet:
    """All 2n eigenpairs of a system plus reciprocal pairing bookkeeping.

    pairing holds index tuples (i, j) with lam_j ~= 1 / lam_i*; self-paired
    unimodular eigenvalues appear as (i, i).  residuals[i] is the 2-norm of
    Q(lam_i) v_i.  pairing_complete is False when some eigenvalue found no
    partner within pairing_tol; those indices are listed in unmatched.
    """

    cls: SymmetryClass
    values: np.ndarray
    vectors: np.ndarray
    pairing: list
    residuals: np.ndarray
    pairing_tol: float
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


def eig_full(sys, pairing_tol=PAIRING_TOL, strict=False):
    """All 2n finite eigenpairs of Q with reciprocal pairing.

    Solves the standard eigenproblem of the companion matrix, normalizes
    eigenvectors from the better scaled companion block, and pairs the
    spectrum greedily.  With strict=True an incomplete pairing raises
    PairingFailure; otherwise the result is returned with the failures
    recorded.
    """
    n = sys.n
    values, Z = dense_eig(companion(sys))
    top, bottom = Z[:n], Z[n:]
    # hypot, as in _greedy_pairing: unimodular values sit on this boundary.
    vectors = np.where(np.hypot(values.real, values.imag) >= 1.0, top, bottom)
    norms = np.linalg.norm(vectors, axis=0)
    for i in np.flatnonzero(norms == 0.0):
        vectors[:, i] = top[:, i] if np.linalg.norm(top[:, i]) > 0 else bottom[:, i]
        norms[i] = np.linalg.norm(vectors[:, i])
    vectors = vectors / norms
    # Q(lam_i) x_i for all i at once: Lambda acts as a column scaling.
    A1 = sys.A1
    R = (sys.cls.star_of(A1) @ vectors) * values**2 + (sys.A0 @ vectors) * values \
        + sys.cls.epsilon * (A1 @ vectors)
    residuals = np.linalg.norm(R, axis=0)
    pairs, unmatched = _greedy_pairing(values, sys.cls, pairing_tol)
    if unmatched and strict:
        bad = ", ".join(f"{values[i]:.6g}" for i in unmatched)
        raise PairingFailure(f"no reciprocal partner within {pairing_tol:g} for: {bad}")
    return EigenPairSet(sys.cls, values, vectors, pairs, residuals,
                        pairing_tol, unmatched)


def select_pairs(eigs, targets, tol=1e-3, overlap_tol=1e-8):
    """Split an EigenPairSet into selected and remaining invariant pairs.

    Each target must match exactly one computed eigenvalue within tol
    (absolute, relative to max(1, |target|)), the selection must be closed
    under reciprocal pairing, and selected and remaining eigenvalues must
    not overlap.  Returns (X1, T1, X2, T2) with diagonal T factors.
    """
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
    overlap = np.abs(chosen[:, None] - values[None, rest]) <= \
        overlap_tol * np.maximum(1.0, np.abs(chosen))[:, None]
    hit = np.flatnonzero(overlap.any(axis=1))
    if hit.size:
        raise SpectraOverlap(
            f"selected eigenvalue {chosen[hit[0]]:.6g} reappears in the "
            "remaining spectrum")
    X1 = eigs.vectors[:, selected]
    T1 = np.diag(chosen)
    X2 = eigs.vectors[:, rest]
    T2 = np.diag(values[rest])
    return X1, T1, X2, T2

"""Exception hierarchy for palinverse.

Every domain failure derives from PalinverseError so callers (and the CLI)
can distinguish "the problem has no solution / bad input" from genuine bugs.
"""

import operator
from collections import Counter


class PalinverseError(Exception):
    """Base class for all domain errors raised by this package."""


# numerics
class SingularMatrix(PalinverseError):
    """A matrix required to be nonsingular is singular to working precision."""


class ConvergenceFailure(PalinverseError):
    """An iterative backend (eigensolver) failed to converge."""


class DimensionMismatch(PalinverseError):
    """Operands have incompatible shapes."""


# system
class SymmetryViolation(PalinverseError):
    """A matrix does not carry the (anti)symmetry its role requires."""


# structfact
class FactorizationFailure(PalinverseError):
    """A canonical congruence factorization could not be completed."""


class BadIndices(PalinverseError):
    """A canonical pattern cannot be built from its inertia/rank indices,
    or cannot be reached by congruence from the form at hand."""


# paramspace
class Inconsistent(PalinverseError):
    """A linear constraint on the parameter matrix has no solution."""


# spectral
class SingularW(PalinverseError):
    """The stacked matrix [X; -X T^{-1}] is (numerically) rank deficient."""


class ResidualTooLarge(PalinverseError):
    """An input pair violates the defining residual gate."""


class SingularLeadingBlock(PalinverseError):
    """X T^{-1} S X* is singular, so no regular leading coefficient exists."""


class MembershipCheckFailed(PalinverseError):
    """A computed parameter matrix failed its post-hoc membership checks."""


# forward
class TargetNotFound(PalinverseError):
    """A requested eigenvalue does not match any computed eigenvalue."""


class PairingNotClosed(PalinverseError):
    """A selection of eigenvalues is not closed under reciprocal pairing."""


class SpectraOverlap(PalinverseError):
    """Selected and remaining eigenvalues overlap within tolerance."""


class DefectiveSpectrum(PalinverseError):
    """Eigenvalues too clustered to treat as semi-simple: an update's
    selection, or a non-Jordan T1 whose eigenvector matrix is near singular."""


# iep
class NoSolution(PalinverseError):
    """Every parameter matrix a construction or update drew was singular:
    its parameter space holds no nonsingular element.  Raised from the
    RetryExhausted that counts the draws."""


class Infeasible(PalinverseError):
    """A structural condition (inertia, parity, multiplicity) rules out
    every solution; each operation decides it before its first draw."""


class UnsupportedRegime(PalinverseError):
    """A solution may exist, but the construction cannot reach it: a partial
    problem with k > n needs rank(X1 S1 X1*) <= 2n - k, which a freely
    drawn S1 misses."""


# mup
class SingularS1Precursor(PalinverseError):
    """The matrix inverted to obtain S1 is singular."""


class XiSingular(PalinverseError):
    """The low-rank update pivot Xi is singular for the current draw."""


# draws
class RetryExhausted(PalinverseError):
    """Every draw of a construction or update missed; .reasons counts the
    misses by type name."""


# Failures of one seeded draw, not of the problem: retry draws again.
MISSES = (SingularMatrix, BadIndices, FactorizationFailure, SpectraOverlap,
          SingularLeadingBlock, XiSingular, ResidualTooLarge, SymmetryViolation)

RETRY_ATTEMPTS = 20  # draws a construction or an update makes before giving up


def retry(attempts, draw, what):
    """Call draw(attempt) for attempt = 1, 2, ... until one draw returns.

    A draw that raises one of MISSES counts as failed, keyed by its type
    name.  When all attempts fail, raises RetryExhausted with the message
    '<what> in 20 attempts: SymmetryViolation 18, XiSingular 2 (last
    failure: ...)', reasons most frequent first, and keeps the Counter of
    reasons as its .reasons; if every failure was SingularMatrix (a
    singular parameter matrix), raises NoSolution from it instead.
    """
    reasons = Counter()
    last = None
    for attempt in range(1, attempts + 1):
        try:
            return draw(attempt)
        except MISSES as exc:
            reasons[type(exc).__name__] += 1
            last = exc
    counts = ", ".join(f"{name} {n}" for name, n in reasons.most_common())
    error = RetryExhausted(f"{what} in {attempts} attempts: {counts} "
                           f"(last failure: {last})")
    error.reasons = reasons
    if set(reasons) == {SingularMatrix.__name__}:
        raise NoSolution(f"every parameter matrix drawn was singular: {error}") from error
    raise error


def seed_index(seed):
    """seed as the int an operation's one generator starts from; ValueError
    for a negative seed or one operator.index refuses (1.5, 2.0, "3",
    None), which numpy would refuse only at the first draw, untyped."""
    try:
        index = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}") from None
    if index < 0:
        raise ValueError(f"seed must be >= 0, got {index}")
    return index

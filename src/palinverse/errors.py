"""Exception hierarchy for palinverse.

Every domain failure derives from PalinverseError so callers (and the CLI)
can distinguish "the problem has no solution / bad input" from genuine bugs.
"""

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
    """Inertia/rank indices passed to build_delta are inconsistent."""


# paramspace
class NoNonsingularFound(PalinverseError):
    """No nonsingular element was found in the sampled parameter space."""


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
    """Eigenvalues cluster too tightly to be treated as semi-simple (a
    selection to update, or a T not in Jordan form)."""


# iep
class NoSolution(PalinverseError):
    """The inverse eigenvalue problem instance admits no regular solution."""


class Infeasible(PalinverseError):
    """A structural feasibility condition (inertia, rank, parity) fails."""


RETRY_ATTEMPTS = 20  # draws a construction or an update makes before giving up


def retry(attempts, draw, retryable, exhausted, what):
    """Call draw(attempt) for attempt = 1, 2, ... until one draw returns.

    A draw that raises one of the retryable types counts as failed, keyed
    by its type name.  When all attempts fail, raises exhausted with the
    message '<what> in 20 attempts: SymmetryViolation 18, XiSingular 2
    (last failure: ...)', reasons most frequent first, and keeps the
    Counter of reasons as its .reasons.
    """
    reasons = Counter()
    last = None
    for attempt in range(1, attempts + 1):
        try:
            return draw(attempt)
        except retryable as exc:
            reasons[type(exc).__name__] += 1
            last = exc
    counts = ", ".join(f"{name} {n}" for name, n in reasons.most_common())
    error = exhausted(f"{what} in {attempts} attempts: {counts} "
                      f"(last failure: {last})")
    error.reasons = reasons
    raise error


class UnsupportedRegime(PalinverseError):
    """A solution may exist, but the construction cannot reach it: a partial
    problem with k > n needs rank(X1 S1 X1*) <= 2n - k, which a freely
    drawn S1 misses."""


class RetryExhausted(PalinverseError):
    """Random draws kept producing degenerate intermediates."""


class NonsingularityRetryExhausted(PalinverseError):
    """All retries produced a singular assembled coefficient block."""


class RemainingEigenvalueConflict(PalinverseError):
    """User-supplied remaining eigenvalues collide with the prescribed ones."""


# mup
class SingularS1Precursor(PalinverseError):
    """The matrix inverted to obtain S1 is singular."""


class NoNonsingularS1Tilde(PalinverseError):
    """No nonsingular S1-tilde solves the prescribed-eigenvector constraint."""


class XiSingular(PalinverseError):
    """The low-rank update pivot Xi is singular for the current draw."""


class XiSingularRetryExhausted(PalinverseError):
    """Every retry produced a singular low-rank update pivot Xi."""


# analysis
class StructureViolation(PalinverseError):
    """Computed spectra violate the pairing/multiplicity structure theory predicts."""


class SingularInput(PalinverseError):
    """An analysis routine received a singular parameter matrix."""


class NotJBDiagonalizable(PalinverseError):
    """Joint block diagonalization failed (ambiguous eigenvalue clustering)."""


class GeomMultViolation(PalinverseError):
    """An eigenvalue has geometric multiplicity larger than one."""

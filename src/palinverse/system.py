"""Palindromic quadratic systems Q(lambda) = lambda^2 A1* + lambda A0 + eps A1.

The four symmetry classes combine star in {transpose, conjugate transpose}
with eps in {+1, -1}.  Constructors validate structure rather than project:
an A0 that is not eps-(anti)symmetric within tolerance is rejected.
"""

import warnings
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularMatrix, SymmetryViolation
from .numerics import (A0_SYMMETRY_RTOL, A1_WARN_RTOL, SINGULAR_RTOL, as_matrix,
                       diagonal_of, fnorm, sv_min_ratio)

_CODES = {("T", 1): "tp", ("T", -1): "ta", ("H", 1): "hp", ("H", -1): "ha"}


@dataclass(frozen=True)
class SymmetryClass:
    """One of the four palindromic symmetry classes.

    star: "T" for transpose, "H" for conjugate transpose.
    epsilon: +1 (palindromic) or -1 (anti-palindromic).
    """

    star: str
    epsilon: int

    def __post_init__(self):
        if self.star not in ("T", "H"):
            raise ValueError(f"star must be 'T' or 'H', got {self.star!r}")
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon!r}")

    def star_of(self, M):
        """Apply the class adjoint to a matrix."""
        M = np.asarray(M)
        return M.T if self.star == "T" else M.conj().T

    def star_scalar(self, z):
        return complex(z) if self.star == "T" else complex(np.conj(z))

    @property
    def code(self):
        return _CODES[(self.star, self.epsilon)]

    @classmethod
    def from_code(cls, code):
        for key, val in _CODES.items():
            if val == code:
                return cls(*key)
        raise ValueError(f"unknown class code {code!r}; expected one of {sorted(_CODES.values())}")


TP = SymmetryClass("T", 1)
TA = SymmetryClass("T", -1)
HP = SymmetryClass("H", 1)
HA = SymmetryClass("H", -1)
ALL_CLASSES = (TP, TA, HP, HA)


@dataclass
class PalindromicSystem:
    """A regular palindromic quadratic system of a given symmetry class.

    Validates on construction: A1 square and nonsingular, A0 of matching
    size with star(A0) = eps * A0 within A0_SYMMETRY_RTOL (relative;
    defects are rejected, never projected away).  Systems assembled from
    spectral data come from assembled_system, which records in a0_defect
    the defect it projected away.  Real input is stored as complex;
    nothing ever assumes real storage.

    A1 and A0 are private copies of the input and read-only after
    validation: an in-place write raises ValueError.  A different system
    is built as a new PalindromicSystem.  Validation records sigma_min(A1)
    from its SVD, or a certified floor on it (see assembled_system).
    """

    cls: SymmetryClass
    A1: np.ndarray
    A0: np.ndarray
    _: KW_ONLY
    _a1_floor: InitVar[float] = None
    a0_defect: float = field(default=0.0, init=False, repr=False)
    # (A1, A0, values) of the last eigensolve; see forward.eigenvalues.
    _eigenvalues: tuple = field(default=None, init=False, repr=False, compare=False)
    # (A1, sigma_min(A1) or a floor on it); see _recorded.
    _a1_sigma_min: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, _a1_floor):
        self.A1 = as_matrix(self.A1, "A1")
        self.A0 = as_matrix(self.A0, "A0")
        n = self.A1.shape[0]
        if self.A1.shape != (n, n):
            raise DimensionMismatch(f"A1 must be square, got {self.A1.shape}")
        if self.A0.shape != (n, n):
            raise DimensionMismatch(
                f"A0 shape {self.A0.shape} does not match A1 shape {self.A1.shape}")
        defect = self.symmetry_defect()
        # Scale against the whole system so a zero A0 (defect pure roundoff)
        # is not rejected by a vacuous relative bound.
        scale = max(fnorm(self.A0), fnorm(self.A1))
        if not defect <= A0_SYMMETRY_RTOL * scale:
            raise SymmetryViolation(
                f"A0 symmetry violation: ||A0* - eps A0|| = {defect:.3e} "
                f"exceeds {A0_SYMMETRY_RTOL:.0e} * max(||A0||, ||A1||)")
        if _a1_floor is not None and _a1_floor > A1_WARN_RTOL * fnorm(self.A1):
            smin = _a1_floor  # sigma_max(A1) <= ||A1||_F
        else:
            smin, ratio = sv_min_ratio(self.A1)
            if not ratio > SINGULAR_RTOL:
                raise SingularMatrix(
                    f"A1 is numerically singular (sigma_min/sigma_max = {ratio:.3e})")
            if ratio <= A1_WARN_RTOL:
                warnings.warn(
                    f"A1 is nearly singular (sigma_min/sigma_max = {ratio:.3e}); "
                    "results may be inaccurate", stacklevel=2)
        self.A1.flags.writeable = False
        self.A0.flags.writeable = False
        self._a1_sigma_min = (self.A1, smin)

    @property
    def n(self):
        return self.A1.shape[0]

    def symmetry_defect(self):
        """Frobenius norm of star(A0) - eps * A0."""
        return fnorm(self.cls.star_of(self.A0) - self.cls.epsilon * self.A0)


def _recorded(sys, memo):
    """memo[-1] while memo[:-1] are still the read-only (A1, A0) of sys it came
    from, else None; a write between two flips of the flag goes unseen."""
    live = memo is not None and all(a is b and not b.flags.writeable
                                    for a, b in zip(memo[:-1], (sys.A1, sys.A0)))
    return memo[-1] if live else None


def assembled_system(cls, A1, A0, a1_floor=None):
    """System from assembled coefficients, A0 taken as its structured part.

    Assembly formulas give star(A0) = eps A0 only in exact arithmetic, with
    a roundoff defect that grows with their conditioning.  The structured
    part (A0 + eps A0*)/2 satisfies it exactly; the relative defect
    ||A0* - eps A0|| / max(||A0||, ||A1||) it removes is kept as a0_defect,
    a ratio taken once A1 has passed validation, so ||A1|| > 0.
    A floor a1_floor <= sigma_min(A1) with a1_floor / ||A1||_F > A1_WARN_RTOL
    passes both A1 gates (sigma_max <= ||A1||_F) without the validation SVD.
    """
    A0_star = cls.star_of(A0)
    sys = PalindromicSystem(cls, A1, (A0 + cls.epsilon * A0_star) / 2.0,
                            _a1_floor=a1_floor)
    sys.a0_defect = fnorm(A0_star - cls.epsilon * A0) / max(fnorm(A0), fnorm(A1))
    return sys


def eval_Q(sys, lam):
    """Evaluate Q(lambda) = lambda^2 A1* + lambda A0 + eps A1."""
    lam = complex(lam)
    return (lam * lam) * sys.cls.star_of(sys.A1) + lam * sys.A0 \
        + sys.cls.epsilon * sys.A1


def pair_defect_matrix(sys, X, T):
    """Residual matrix A1* X T^2 + A0 X T + eps A1 X, formed only here; a diagonal
    T = diag(d) (numerics.diagonal_of) acts as a column scaling of each term."""
    X = as_matrix(X, "X")
    T = as_matrix(T, "T")
    if X.shape[0] != sys.n:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, expected {sys.n}")
    if T.shape[0] != T.shape[1] or X.shape[1] != T.shape[0]:
        raise DimensionMismatch("X and T dimensions do not conform")
    d = diagonal_of(T)
    if d is not None:
        return (sys.cls.star_of(sys.A1) @ X) * d**2 + (sys.A0 @ X) * d \
            + sys.cls.epsilon * (sys.A1 @ X)
    XT = X @ T
    return sys.cls.star_of(sys.A1) @ XT @ T + sys.A0 @ XT \
        + sys.cls.epsilon * sys.A1 @ X


def pair_residual(sys, pair):
    """Relative residual of the defining relation for a (partial) pair.

    Normalized by ||A1|| ||X|| ||T||^2 + ||A0|| ||X|| ||T|| + ||A1|| ||X||
    (all Frobenius) so the number is scale free.
    """
    X, T = pair
    R = pair_defect_matrix(sys, X, T)
    na1, na0 = fnorm(sys.A1), fnorm(sys.A0)
    nx, nt = fnorm(X), fnorm(T)
    denom = na1 * nx * nt * nt + na0 * nx * nt + na1 * nx
    return fnorm(R) / denom if denom else 0.0

"""Palindromic quadratic systems Q(lambda) = lambda^2 A1* + lambda A0 + eps A1.

The four symmetry classes combine star in {transpose, conjugate transpose}
with eps in {+1, -1}.  Constructors validate structure rather than project:
an A0 that is not eps-(anti)symmetric within tolerance is rejected.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, SingularMatrix, SingularW,
                     SymmetryViolation)
from .numerics import as_matrix, fnorm, solve_right, sv_ratio

A0_SYMMETRY_RTOL = 1e-12
A1_SINGULAR_RTOL = 1e-12
A1_WARN_RTOL = 1e-8
W_SINGULAR_RTOL = 1e-12

_CODES = {("T", 1): "tp", ("T", -1): "ta", ("H", 1): "hp", ("H", -1): "ha"}
_NAMES = {
    "tp": "transpose-palindromic",
    "ta": "transpose-anti-palindromic",
    "hp": "conjugate-transpose-palindromic",
    "ha": "conjugate-transpose-anti-palindromic",
}


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

    @property
    def name(self):
        return _NAMES[self.code]

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
    is built as a new PalindromicSystem.
    """

    cls: SymmetryClass
    A1: np.ndarray
    A0: np.ndarray
    a0_defect: float = field(default=0.0, init=False, repr=False)
    # (A1, A0, values) of the last eigensolve; see forward.eigenvalues.
    _eigenvalues: tuple = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        self.A1 = as_matrix(self.A1, "A1")
        self.A0 = as_matrix(self.A0, "A0")
        n = self.A1.shape[0]
        if self.A1.shape != (n, n):
            raise DimensionMismatch(f"A1 must be square, got {self.A1.shape}")
        if self.A0.shape != (n, n):
            raise DimensionMismatch(
                f"A0 shape {self.A0.shape} does not match A1 shape {self.A1.shape}")
        defect = fnorm(self.cls.star_of(self.A0) - self.cls.epsilon * self.A0)
        # Scale against the whole system so a zero A0 (defect pure roundoff)
        # is not rejected by a vacuous relative bound.
        scale = max(fnorm(self.A0), fnorm(self.A1), 1e-300)
        if defect > A0_SYMMETRY_RTOL * scale:
            raise SymmetryViolation(
                f"A0 symmetry violation: ||A0* - eps A0|| = {defect:.3e} "
                f"exceeds {A0_SYMMETRY_RTOL:.0e} * max(||A0||, ||A1||)")
        ratio = sv_ratio(self.A1)
        if ratio <= A1_SINGULAR_RTOL:
            raise SingularMatrix(
                f"A1 is numerically singular (sigma_min/sigma_max = {ratio:.3e})")
        if ratio <= A1_WARN_RTOL:
            warnings.warn(
                f"A1 is nearly singular (sigma_min/sigma_max = {ratio:.3e}); "
                "results may be inaccurate", stacklevel=2)
        self.A1.flags.writeable = False
        self.A0.flags.writeable = False

    @property
    def n(self):
        return self.A1.shape[0]

    def symmetry_defect(self):
        """Frobenius norm of star(A0) - eps * A0."""
        return fnorm(self.cls.star_of(self.A0) - self.cls.epsilon * self.A0)


def assembled_system(cls, A1, A0):
    """System from assembled coefficients, A0 taken as its structured part.

    Assembly formulas give star(A0) = eps A0 only in exact arithmetic, with
    a roundoff defect that grows with their conditioning.  The structured
    part (A0 + eps A0*)/2 satisfies it exactly; the relative defect
    ||A0* - eps A0|| / max(||A0||, ||A1||) it removes is kept as a0_defect.
    """
    A0_star = cls.star_of(A0)
    defect = fnorm(A0_star - cls.epsilon * A0) \
        / max(fnorm(A0), fnorm(A1), 1e-300)
    sys = PalindromicSystem(cls, A1, (A0 + cls.epsilon * A0_star) / 2.0)
    sys.a0_defect = defect
    return sys


@dataclass
class StandardPair:
    """A pair (X, T) with X n-by-m and T m-by-m nonsingular.

    m = 2n gives a full pair (the stacked matrix W = [X; -X T^{-1}] must be
    nonsingular); m < 2n gives an invariant/partial pair.
    """

    X: np.ndarray
    T: np.ndarray
    _W: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.X = as_matrix(self.X, "X")
        self.T = as_matrix(self.T, "T")
        m = self.T.shape[0]
        if self.T.shape != (m, m):
            raise DimensionMismatch(f"T must be square, got {self.T.shape}")
        if self.X.shape[1] != m:
            raise DimensionMismatch(
                f"X has {self.X.shape[1]} columns but T is {m}-by-{m}")
        if sv_ratio(self.T) <= W_SINGULAR_RTOL:
            raise SingularMatrix("T is numerically singular")
        if self.is_full:
            W = self.W
            if sv_ratio(W) <= W_SINGULAR_RTOL:
                raise SingularW(
                    "[X; -X T^{-1}] is numerically singular; not a standard pair")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def m(self):
        return self.T.shape[0]

    @property
    def is_full(self):
        return self.m == 2 * self.n

    @property
    def W(self):
        """The stacked matrix [X; -X T^{-1}]."""
        if self._W is None:
            XTinv = solve_right(self.X, self.T)
            self._W = np.vstack([self.X, -XTinv])
        return self._W


def eval_Q(sys, lam):
    """Evaluate Q(lambda) = lambda^2 A1* + lambda A0 + eps A1."""
    lam = complex(lam)
    return (lam * lam) * sys.cls.star_of(sys.A1) + lam * sys.A0 \
        + sys.cls.epsilon * sys.A1


def pair_defect_matrix(sys, X, T):
    """Residual matrix A1* X T^2 + A0 X T + eps A1 X."""
    X = as_matrix(X, "X")
    T = as_matrix(T, "T")
    if X.shape[0] != sys.n:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, expected {sys.n}")
    if T.shape[0] != T.shape[1] or X.shape[1] != T.shape[0]:
        raise DimensionMismatch("X and T dimensions do not conform")
    XT = X @ T
    return sys.cls.star_of(sys.A1) @ XT @ T + sys.A0 @ XT \
        + sys.cls.epsilon * sys.A1 @ X


def pair_residual(sys, pair):
    """Relative residual of the defining relation for a (partial) pair.

    Normalized by ||A1|| ||X|| ||T||^2 + ||A0|| ||X|| ||T|| + ||A1|| ||X||
    (all Frobenius) so the number is scale free.
    """
    if isinstance(pair, StandardPair):
        X, T = pair.X, pair.T
    else:
        X, T = pair
    R = pair_defect_matrix(sys, X, T)
    na1, na0 = fnorm(sys.A1), fnorm(sys.A0)
    nx, nt = fnorm(X), fnorm(T)
    denom = na1 * nx * nt * nt + na0 * nx * nt + na1 * nx
    if denom == 0.0:
        return 0.0
    return fnorm(R) / denom

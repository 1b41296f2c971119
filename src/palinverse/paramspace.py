"""Parameter matrices S with star(S) = -eps S and S = T S T*.

The solution set is a real-linear subspace (conjugations in the star = H
classes break complex linearity, so everything is handled over real
coordinates uniformly).  solution_space takes one of two routes: for a
diagonal T the Stein equation holds entry by entry, so the space lives on
the support {(i, j) : t_i t_j* = 1} and only the isotropy constraint
X S X* = 0 needs a (small) null-space solve; any other nonsingular T goes
through a vectorized Kronecker null-space solve.  A structured block
construction covers T in palindromic Jordan canonical form, where each
free block is the product of an upper-triangular Hankel parameter block and
a constant lower-triangular scaled rotated Pascal matrix.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import (DimensionMismatch, Inconsistent, NoNonsingularFound,
                     PairingNotClosed, SingularMatrix)
from .numerics import as_matrix, fnorm, sv_ratio
from .system import SymmetryClass

NULLSPACE_RTOL = 1e-10
NONSINGULAR_RTOL = 1e-8
PAIRING_RTOL = 1e-8
CONSISTENCY_RTOL = 1e-8


# ---------------------------------------------------------------------------
# real-linear vectorization helpers
# ---------------------------------------------------------------------------

def _rvec(M):
    """Column-stacked [Re; Im] real vector of a complex matrix."""
    v = np.asarray(M).flatten(order="F")
    return np.concatenate([v.real, v.imag])


def _unrvec(x, rows, cols):
    half = rows * cols
    v = x[:half] + 1j * x[half:]
    return v.reshape((rows, cols), order="F")


def _realify_linear(A):
    """Real 2m-by-2k block matrix of the complex-linear map x -> A x."""
    return np.block([[A.real, -A.imag], [A.imag, A.real]])


def _commutation(m):
    """Permutation K with K vec(S) = vec(S^T) for m-by-m S."""
    K = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            K[j * m + i, i * m + j] = 1.0
    return K


def _constraint_rows(T, cls, X=None):
    """Stacked real matrix of the defining constraints acting on rvec(S)."""
    T = as_matrix(T, "T")
    m = T.shape[0]
    eps = cls.epsilon
    K = _commutation(m)
    rows = []
    if cls.star == "T":
        # S + eps S^T = 0 is complex-linear.
        rows.append(_realify_linear(np.eye(m * m) + eps * K))
    else:
        # S + eps conj(S)^T = 0 decouples into real and imaginary parts.
        Z = np.zeros((m * m, m * m))
        rows.append(np.block([[np.eye(m * m) + eps * K, Z],
                              [Z, np.eye(m * m) - eps * K]]))
    # S - T S T* = 0 is complex-linear for both stars:
    # vec(T S T^T) = (T kron T) vec(S); vec(T S T^H) = (conj(T) kron T) vec(S).
    right = T if cls.star == "T" else np.conj(T)
    rows.append(_realify_linear(np.eye(m * m) - np.kron(right, T)))
    if X is not None:
        X = as_matrix(X, "X")
        xr = X if cls.star == "T" else np.conj(X)
        rows.append(_realify_linear(np.kron(xr, X)))
    return np.vstack(rows)


def _svd_null(A, floor):
    """SVD of a real matrix with its rank decided against an absolute floor.

    Returns (u, s, vt, rank); the rows vt[rank:] are an orthonormal basis
    of the null space.  The factors are thin unless A is wide, where the
    full V is needed to span the null space.
    """
    u, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    return u, s, vt, int(np.count_nonzero(s > floor))


def _stein_support(t, cls, tol):
    """Unit real basis of {S : star(S) = -eps S, S = T S T*}, T = diag(t).

    S = T S T* reads S_ij (1 - t_i t_j*) = 0, so S lives on the support
    |t_i t_j* - 1| <= tol (relative to the largest |t_i t_j*|, as the rank
    decision of the Kronecker solve is).  star(S) = -eps S ties S_ji to
    S_ij: each support entry i < j carries one free complex value z, each
    diagonal support entry the part of z with z = -eps z*.  Element k is
    a[k] at (i[k], j[k]) plus b[k] at (j[k], i[k]); the elements have
    disjoint supports or disjoint real/imaginary parts and unit norm, so
    they are orthonormal as real vectors.
    """
    star = (lambda z: z) if cls.star == "T" else np.conj
    P = t[:, None] * star(t)[None, :]
    free = np.abs(P - 1.0) <= tol * max(1.0, float(np.abs(P).max()))
    rows, cols = np.nonzero(np.triu(free))
    upper = rows < cols
    ri, ci, di = rows[upper], cols[upper], rows[~upper]
    w = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    z = np.array([v for v in (1.0, 1.0j) if v + cls.epsilon * star(v) == 0])
    I = np.concatenate([np.repeat(ri, 2), np.repeat(di, z.size)])
    J = np.concatenate([np.repeat(ci, 2), np.repeat(di, z.size)])
    a = np.concatenate([np.tile(w, ri.size), np.tile(z, di.size)])
    b = np.concatenate([-cls.epsilon * star(np.tile(w, ri.size)),
                        np.zeros(z.size * di.size)])
    return I, J, a.astype(np.complex128), b.astype(np.complex128)


def _diagonal_solution_space(t, cls, X, tol):
    """solution_space for T = diag(t): the Stein-support elements, cut down
    to the null space of S -> X S X* over their coefficients."""
    m = t.shape[0]
    I, J, a, b = _stein_support(t, cls, tol)
    coeffs = np.eye(I.size)
    if X is not None and I.size:
        # Image X E_k X* of each element, as real columns of the map.
        Y = X if cls.star == "T" else np.conj(X)
        img = np.einsum("pk,qk->kpq", X[:, I] * a, Y[:, J]) \
            + np.einsum("pk,qk->kpq", X[:, J] * b, Y[:, I])
        img = img.reshape(I.size, -1)
        A = np.vstack([img.real.T, img.imag.T])
        _, _, vt, rank = _svd_null(A, tol * fnorm(X) ** 2)
        coeffs = vt[rank:]
    S = np.zeros((coeffs.shape[0], m, m), dtype=np.complex128)
    np.add.at(S, (slice(None), I, J), coeffs * a)
    np.add.at(S, (slice(None), J, I), coeffs * b)
    return list(S)


def solution_space(T, cls, X=None, tol=NULLSPACE_RTOL):
    """Real basis of {S : star(S) = -eps S, S = T S T*, (X S X* = 0)}.

    Returns a list of m-by-m complex matrices, orthonormal as real vectors,
    each exactly (anti)symmetric.  A diagonal T takes the Stein-support
    route (an SVD with about 2m columns at most, O(n^4) for X n-by-m);
    any other T the Kronecker solve (an SVD with 2m^2 columns, O(n^6)).
    With X, rank decisions compare against tol ||X||_F^2, the largest
    value X S X* can take on a unit S.
    """
    T = as_matrix(T, "T")
    m = T.shape[0]
    if m == 0:
        return []
    if X is not None:
        X = as_matrix(X, "X")
        if X.shape[1] != m:
            raise DimensionMismatch(f"X has {X.shape[1]} columns, expected {m}")
    if not np.any(T - np.diag(np.diag(T))):
        return _diagonal_solution_space(np.diag(T), cls, X, tol)
    A = _constraint_rows(T, cls, X)
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0
    basis = []
    for i in range(rank, vt.shape[0]):
        B = _unrvec(vt[i], m, m)
        B = (B - cls.epsilon * cls.star_of(B)) / 2.0
        basis.append(B)
    return basis


@dataclass
class SBasis:
    """A real basis of a parameter-matrix space attached to an ambient T.

    dim counts real degrees of freedom.  For star = T the space is also
    complex-linear, so the real dimension is twice the complex one; the
    basis is a real basis either way.  zero_singletons lists eigenvalues of
    T whose diagonal parameter block is structurally zero (these force
    every member of the space to be singular).
    """

    T: np.ndarray
    cls: SymmetryClass
    basis: list = field(default_factory=list)
    zero_singletons: list = field(default_factory=list)

    @property
    def dim(self):
        return len(self.basis)

    def combine(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise DimensionMismatch(f"expected {self.dim} coefficients")
        m = self.T.shape[0]
        S = np.zeros((m, m), dtype=np.complex128)
        for c, B in zip(coeffs, self.basis):
            S += c * B
        return S


def s_basis(T, cls, tol=NULLSPACE_RTOL):
    """Real basis of the space {S : star(S) = -eps S, S = T S T*}."""
    T = as_matrix(T, "T")
    if T.size and sv_ratio(T) <= 1e-12:
        raise SingularMatrix("T must be nonsingular")
    return SBasis(T, cls, solution_space(T, cls, tol=tol))


# ---------------------------------------------------------------------------
# Pascal machinery and the PJCF-structured construction
# ---------------------------------------------------------------------------

def pascal_matrix(m):
    """Lower-triangular Pascal-like matrix L with L[i, j] = C(m-1-j, m-1-i)."""
    if m < 1:
        raise ValueError("order must be at least 1")
    L = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(i + 1):
            L[i, j] = comb(m - 1 - j, m - 1 - i)
    return L


def pascal_scaling(m, lam):
    """Scaled rotated Pascal matrix P of order m at eigenvalue lam.

    P = diag(lam^{m-1}, ..., 1) L diag(1, -1/lam, ..., (-1/lam)^{m-1})
    realizes the similarity ((1/lam) I + N^T)^{-1} = P^{-1} (lam I + N^T) P
    with N the nilpotent upshift.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    left = np.array([lam ** (m - 1 - i) for i in range(m)])
    right = np.array([(-1.0 / lam) ** j for j in range(m)])
    return (left[:, None] * pascal_matrix(m)) * right[None, :]


def nilpotent_shift(m):
    """m-by-m nilpotent with ones on the superdiagonal."""
    N = np.zeros((m, m), dtype=np.complex128)
    for i in range(m - 1):
        N[i, i + 1] = 1.0
    return N


def jordan_block(lam, m):
    return complex(lam) * np.eye(m, dtype=np.complex128) + nilpotent_shift(m)


def _hankel_param(p, q, d):
    """Upper-left Hankel basis matrix: ones on the d-th anti-diagonal."""
    H = np.zeros((p, q), dtype=np.complex128)
    for a in range(p):
        b = d - a
        if 0 <= b < q:
            H[a, b] = 1.0
    return H


def _block_family(lam, mults_row, mults_col):
    """Basis of {S : (lam I + N_row) S ((1/lam*) I + N_col)* = S}.

    Blockwise the solutions are H P with H an upper-left Hankel parameter
    block and P the Pascal scaling of the column Jordan block; the family
    is complex-linear of dimension sum_{j,k} min(n_j, n_k).
    """
    rows = int(sum(mults_row))
    cols = int(sum(mults_col))
    out = []
    roff = 0
    for p in mults_row:
        coff = 0
        for q in mults_col:
            P = pascal_scaling(q, lam)
            for d in range(min(p, q)):
                M = np.zeros((rows, cols), dtype=np.complex128)
                M[roff:roff + p, coff:coff + q] = _hankel_param(p, q, d) @ P
                out.append(M)
            coff += q
        roff += p
    return out


@dataclass
class PJCF:
    """Palindromic Jordan canonical form metadata.

    values lists the distinct eigenvalues with reciprocal pairs adjacent
    (indices 2i, 2i+1 for i < n_pairs) and unimodular / plus-minus-one
    singletons trailing.  mults[i] holds the partial multiplicities of
    values[i], descending.
    """

    star: str
    values: list
    mults: list
    n_pairs: int

    def __post_init__(self):
        if self.star not in ("T", "H"):
            raise ValueError("star must be 'T' or 'H'")
        if len(self.values) != len(self.mults):
            raise ValueError("values and mults must have equal length")
        star_scalar = (lambda z: z) if self.star == "T" else np.conj
        for i in range(self.n_pairs):
            a, b = self.values[2 * i], self.values[2 * i + 1]
            if abs(complex(a) * star_scalar(b) - 1.0) > PAIRING_RTOL * max(1.0, abs(a * b)):
                raise PairingNotClosed(
                    f"values {a} and {b} are not a reciprocal pair")
            if list(self.mults[2 * i]) != list(self.mults[2 * i + 1]):
                raise PairingNotClosed(
                    "paired eigenvalues must share partial multiplicities")
        for i in range(2 * self.n_pairs, len(self.values)):
            lam = complex(self.values[i])
            if abs(lam * star_scalar(lam) - 1.0) > PAIRING_RTOL:
                raise PairingNotClosed(
                    f"unpaired eigenvalue {lam} must satisfy lam * lam_star = 1")
        for ms in self.mults:
            if list(ms) != sorted(ms, reverse=True) or any(m < 1 for m in ms):
                raise ValueError("partial multiplicities must be positive, descending")
        vals = [complex(v) for v in self.values]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if abs(vals[i] - vals[j]) <= 1e-8 * max(1.0, abs(vals[i])):
                    raise ValueError("eigenvalues of a PJCF must be distinct")

    @property
    def t(self):
        return len(self.values)

    @property
    def total(self):
        return int(sum(sum(ms) for ms in self.mults))

    def group_sizes(self):
        return [int(sum(ms)) for ms in self.mults]

    def group_offsets(self):
        sizes = self.group_sizes()
        offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        return offs

    def T_matrix(self):
        blocks = []
        for lam, ms in zip(self.values, self.mults):
            for m in ms:
                blocks.append(jordan_block(lam, int(m)))
        out = np.zeros((self.total, self.total), dtype=np.complex128)
        off = 0
        for b in blocks:
            k = b.shape[0]
            out[off:off + k, off:off + k] = b
            off += k
        return out


def s_basis_pjcf(jcf, cls, tol=NULLSPACE_RTOL):
    """Structured real basis of S_T for T in PJCF.

    Paired eigenvalue groups contribute free off-diagonal blocks
    [[0, S_i], [-eps S_i*, 0]] with S_i ranging over the Hankel-Pascal
    family; singleton groups keep only the members of that family that are
    eps-(anti)symmetric, solved in the small Hankel parameter space.
    Structurally zero singleton blocks are recorded in zero_singletons.
    """
    if jcf.star != cls.star:
        raise ValueError("PJCF star does not match the symmetry class")
    total = jcf.total
    offs = jcf.group_offsets()
    basis = []
    zero_singletons = []
    for i in range(jcf.n_pairs):
        lam = complex(jcf.values[2 * i])
        r0, r1 = offs[2 * i], offs[2 * i + 1]
        c0, c1 = offs[2 * i + 1], offs[2 * i + 2]
        for blk in _block_family(lam, jcf.mults[2 * i], jcf.mults[2 * i + 1]):
            for scale in (1.0, 1.0j):
                M = np.zeros((total, total), dtype=np.complex128)
                M[r0:r1, c0:c1] = scale * blk
                M[c0:c1, r0:r1] = -cls.epsilon * cls.star_of(scale * blk)
                basis.append(M)
    for i in range(2 * jcf.n_pairs, jcf.t):
        lam = complex(jcf.values[i])
        r0, r1 = offs[i], offs[i + 1]
        family = _block_family(lam, jcf.mults[i], jcf.mults[i])
        # Real-linear symmetry constraint on the complex Hankel coefficients.
        cols = []
        for blk in family:
            for scale in (1.0, 1.0j):
                cols.append(_rvec(scale * blk + cls.epsilon * cls.star_of(scale * blk)))
        A = np.column_stack(cols) if cols else np.zeros((2, 0))
        _, s, vt = np.linalg.svd(A) if A.size else (None, np.zeros(0), np.zeros((0, 0)))
        smax = s[0] if s.size else 0.0
        rank = int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0
        kept = 0
        for irow in range(rank, vt.shape[0]):
            coeff = vt[irow]
            blk = np.zeros((r1 - r0, r1 - r0), dtype=np.complex128)
            for k, base in enumerate(family):
                blk += (coeff[2 * k] + 1j * coeff[2 * k + 1]) * base
            blk = (blk - cls.epsilon * cls.star_of(blk)) / 2.0
            if fnorm(blk) < 1e-12:
                continue
            M = np.zeros((total, total), dtype=np.complex128)
            M[r0:r1, r0:r1] = blk
            basis.append(M)
            kept += 1
        if kept == 0:
            zero_singletons.append(lam)
    return SBasis(jcf.T_matrix(), cls, basis, zero_singletons)


# ---------------------------------------------------------------------------
# sampling and constrained solves
# ---------------------------------------------------------------------------

def sample_nonsingular(basis, seed, attempts=50):
    """Draw S = sum_i c_i B_i with seeded normal coefficients until
    sigma_min(S) > 1e-8 sigma_max(S).

    Raises NoNonsingularFound when every draw fails, which signals that the
    space may contain no nonsingular element at all.
    """
    if basis.dim == 0:
        raise NoNonsingularFound("parameter space is trivial")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(attempts):
        S = basis.combine(rng.standard_normal(basis.dim))
        ratio = sv_ratio(S)
        if ratio > NONSINGULAR_RTOL:
            return S
        best = max(best, ratio)
    raise NoNonsingularFound(
        f"no nonsingular element found in {attempts} draws "
        f"(best sigma ratio {best:.3e})")


def constrained_family(basis, X, C, cls):
    """Affine solution set of X S X* = C over span(basis).

    Returns (S_particular, homogeneous) where homogeneous is a list of
    matrices spanning the null directions.  Raises Inconsistent when the
    least-squares residual exceeds 1e-8 ||C||.
    """
    X = as_matrix(X, "X")
    C = as_matrix(C, "C")
    defect = fnorm(cls.star_of(C) + cls.epsilon * C)
    if defect > 1e-8 * max(fnorm(C), 1e-300):
        raise Inconsistent("right-hand side C must satisfy star(C) = -eps C")
    if basis.dim == 0:
        if fnorm(C) <= 1e-12:
            return np.zeros_like(C), []
        raise Inconsistent("parameter space is trivial but C != 0")
    cols = [_rvec(X @ B @ cls.star_of(X)) for B in basis.basis]
    A = np.column_stack(cols)
    b = _rvec(C)
    # ||X B X*|| <= ||X||_F^2 ||B||_F bounds every column of A.
    scale = fnorm(X) ** 2 * max(fnorm(B) for B in basis.basis)
    u, s, vt, rank = _svd_null(A, NULLSPACE_RTOL * scale)
    coeff = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    resid = np.linalg.norm(A @ coeff - b)
    if resid > CONSISTENCY_RTOL * max(np.linalg.norm(b), 1e-300):
        raise Inconsistent(
            f"no S solves X S X* = C (residual {resid:.3e} vs ||C|| {fnorm(C):.3e})")
    S_part = basis.combine(coeff)
    homogeneous = [basis.combine(v) for v in vt[rank:]]
    return S_part, homogeneous


def solve_constrained_S(basis, X, C, cls):
    """Least-squares solution S in span(basis) of X S X* = C.

    Returns the minimum-coefficient-norm particular solution; use
    constrained_family for the full affine set (particular plus null
    directions) when a nonsingular member must be searched for.
    """
    S_part, _ = constrained_family(basis, X, C, cls)
    return S_part

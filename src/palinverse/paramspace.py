"""Parameter matrices S with star(S) = -eps S and S = T S T*.

The solution set is a real-linear subspace (conjugations in the star = H
classes break complex linearity, so everything is handled over real
coordinates uniformly).  solution_space builds it from the Jordan blocks
of T: the block of S joining Jordan blocks a and b is nonzero only when
lam_a lam_b* = 1, and there it is an upper-left Hankel parameter block
times a constant lower-triangular scaled rotated Pascal matrix.  A
diagonal T is the case of all 1-by-1 blocks, whose space lives on the
Stein support {(i, j) : t_i t_j* = 1}.  Any other T goes through its
eigendecomposition, so a defective T must be given in Jordan form.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import (DefectiveSpectrum, DimensionMismatch, Inconsistent,
                     NoNonsingularFound, SingularMatrix)
from .numerics import (as_matrix, dense_eig, fnorm, range_coordinates,
                       sv_ratio)
from .system import SymmetryClass

NULLSPACE_RTOL = 1e-10
NONSINGULAR_RTOL = 1e-8
CONSISTENCY_RTOL = 1e-8
SAMPLE_ATTEMPTS = 50


# ---------------------------------------------------------------------------
# real-linear vectorization helpers
# ---------------------------------------------------------------------------

def _rvec(M):
    """Column-stacked [Re; Im] real vector of a complex matrix."""
    v = np.asarray(M).flatten(order="F")
    return np.concatenate([v.real, v.imag])


def _svd_null(A, floor):
    """SVD of a real matrix with its rank decided against an absolute floor.

    Returns (u, s, vt, rank); the rows vt[rank:] are an orthonormal basis
    of the null space.  The factors are thin unless A is wide, where the
    full V is needed to span the null space.
    """
    u, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    return u, s, vt, int(np.count_nonzero(s > floor))


# ---------------------------------------------------------------------------
# the parameter space, block by block over the Jordan form of T
# ---------------------------------------------------------------------------

def _jordan_blocks(T, tol=0.0):
    """(starts, sizes, values) of the Jordan blocks of T, or None.

    A superdiagonal entry within 1e-12 of one joins two rows into a
    block, whose eigenvalue is its first diagonal entry.  T is in Jordan
    form when it differs from the Jordan matrix read this way by at most
    tol ||T||_F (by default: not at all).  A diagonal T is all 1-by-1
    blocks; it is the common case, so it is recognized first.
    """
    m = T.shape[0]
    if not np.any(T - np.diag(np.diag(T))):
        return np.arange(m), np.ones(m, dtype=int), np.diag(T)
    joins = np.abs(np.diag(T, 1) - 1.0) <= 1e-12
    starts = np.flatnonzero(np.concatenate([[True], ~joins]))
    sizes = np.diff(starts, append=m)
    values = np.diag(T)[starts]
    J = np.diag(np.repeat(values, sizes)) + np.diag(joins, 1)
    if fnorm(T - J) > tol * fnorm(T):
        return None
    return starts, sizes, values


def _symmetric_family(lam, size, cls):
    """Unit elements B of the Hankel-Pascal family of one Jordan block
    with lam lam* = 1 that satisfy star(B) = -eps B, from the null space
    of that real-linear constraint over the family's coefficients."""
    gens = [s * F for F in _block_family(lam, size, size) for s in (1.0, 1.0j)]
    A = np.column_stack([_rvec(G + cls.epsilon * cls.star_of(G)) for G in gens])
    # Every column has norm at most 2.
    _, _, vt, rank = _svd_null(A, 2.0 * NULLSPACE_RTOL)
    out = []
    for coeff in vt[rank:]:
        B = sum(c * G for c, G in zip(coeff, gens))
        B = (B - cls.epsilon * cls.star_of(B)) / 2.0
        out.append(B / fnorm(B))
    return out


def _stein_support(starts, sizes, values, cls):
    """Structural real basis of {S : star(S) = -eps S, S = T S T*} for T
    in Jordan form, as sparse entry arrays (K, I, J, a, b).

    Entry e puts a[e] at (I[e], J[e]) and b[e] at (J[e], I[e]) of element
    K[e]; K is nondecreasing.  The block of S joining Jordan blocks p and
    q is free only when |lam_p lam_q* - 1| <= NULLSPACE_RTOL (relative to
    the largest |lam_p lam_q*|), and star(S) = -eps S mirrors block
    (p, q) into (q, p).  Between 1-by-1 blocks (all of them for a
    diagonal T) a pair p < q carries one free complex value z, as two
    real elements, and a block p = q the part of z with z = -eps z*;
    these elements have unit norm and disjoint supports or disjoint
    real/imaginary parts, so they are orthonormal as real vectors.
    Larger blocks carry the Hankel-Pascal family of _block_family, cut
    down to its (anti)symmetric part when p = q.
    """
    eps = cls.epsilon
    star = (lambda z: z) if cls.star == "T" else np.conj
    P = values[:, None] * star(values)[None, :]
    free = np.abs(P - 1.0) <= NULLSPACE_RTOL * max(1.0, float(np.abs(P).max()))
    bp, bq = np.nonzero(np.triu(free))
    single = sizes == 1
    unit = single[bp] & single[bq]
    rows, cols = starts[bp[unit]], starts[bq[unit]]
    upper = rows < cols
    ri, ci, di = rows[upper], cols[upper], rows[~upper]
    w = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    z = np.array([v for v in (1.0, 1.0j) if v + eps * star(v) == 0])
    I = [np.repeat(ri, 2), np.repeat(di, z.size)]
    J = [np.repeat(ci, 2), np.repeat(di, z.size)]
    a = [np.tile(w, ri.size), np.tile(z, di.size)]
    b = [-eps * star(np.tile(w, ri.size)), np.zeros(z.size * di.size)]
    n_el = 2 * ri.size + z.size * di.size
    K = [np.arange(n_el)]
    for p, q in zip(bp[~unit], bq[~unit]):
        if p == q:
            elements = _symmetric_family(values[p], sizes[p], cls)
        else:
            elements = [s * F for F in
                        _block_family(values[p], sizes[p], sizes[q])
                        for s in w]
        for B in elements:
            r, c = np.nonzero(B)
            I.append(starts[p] + r)
            J.append(starts[q] + c)
            a.append(B[r, c])
            b.append(np.zeros(r.size) if p == q else -eps * star(B[r, c]))
            K.append(np.full(r.size, n_el))
            n_el += 1
    return (np.concatenate(K), np.concatenate(I), np.concatenate(J),
            np.concatenate(a).astype(np.complex128),
            np.concatenate(b).astype(np.complex128))


def _jordan_space(starts, sizes, values, cls, X):
    """solution_space for T in Jordan form: the structural elements of
    _stein_support, cut down to the null space of S -> X S X* over their
    coefficients.  Returns the elements stacked in one array."""
    m = int(sizes.sum())
    K, I, J, a, b = _stein_support(starts, sizes, values, cls)
    n_el = int(K[-1]) + 1 if K.size else 0
    coeffs = np.eye(n_el)
    if X is not None and n_el:
        # Image X E_k X* of each element, as real columns of the map.
        Y = X if cls.star == "T" else np.conj(X)
        img = np.einsum("pk,qk->kpq", X[:, I] * a, Y[:, J]) \
            + np.einsum("pk,qk->kpq", X[:, J] * b, Y[:, I])
        if K.size > n_el:
            # Elements of larger Jordan blocks have several entries.
            img = np.add.reduceat(img, np.searchsorted(K, np.arange(n_el)))
        img = img.reshape(n_el, -1)
        A = np.vstack([img.real.T, img.imag.T])
        _, _, vt, rank = _svd_null(A, NULLSPACE_RTOL * fnorm(X) ** 2)
        coeffs = vt[rank:]
    S = np.zeros((coeffs.shape[0], m, m), dtype=np.complex128)
    np.add.at(S, (slice(None), I, J), coeffs[:, K] * a)
    np.add.at(S, (slice(None), J, I), coeffs[:, K] * b)
    return S


def solution_space(T, cls, X=None):
    """Real basis of {S : star(S) = -eps S, S = T S T*, (X S X* = 0)}.

    Returns a list of m-by-m complex matrices, each exactly
    (anti)symmetric.  T in Jordan form, a diagonal T included, is solved
    block by block (_stein_support): one real unknown per structural
    element, about 2m of them when the eigenvalues are distinct, and
    X S X* = 0 is a thin SVD over those (O(n^4) for X n-by-m).  Any other
    T goes through its eigendecomposition T = V D V^-1: the space of
    (X V, D) is mapped back as V S V* and projected onto the exact
    structure (B - eps B*) / 2.  DefectiveSpectrum is raised when
    sv_ratio(V) <= u / NULLSPACE_RTOL (about 2.2e-6): a defective T must be
    given in Jordan form.  The elements are orthonormal as real vectors
    for a diagonal T and of unit norm for larger Jordan blocks without X;
    mapped back through V they are neither.  With X, rank decisions
    compare against NULLSPACE_RTOL ||X||_F^2, the largest value X S X*
    can take on a unit S.
    """
    T = as_matrix(T, "T")
    m = T.shape[0]
    if m == 0:
        return []
    if X is not None:
        X = as_matrix(X, "X")
        if X.shape[1] != m:
            raise DimensionMismatch(f"X has {X.shape[1]} columns, expected {m}")
    blocks = _jordan_blocks(T)
    if blocks is not None:
        return list(_jordan_space(*blocks, cls, X))
    w, V = dense_eig(T)
    # Roundoff moves the eigenvalues by up to about u ||T|| / sv_ratio(V);
    # past NULLSPACE_RTOL the Stein support can no longer be read off them.
    # (A defective T gives sv_ratio(V) ~ sqrt(u) ~ 1e-8 for 2-by-2 blocks.)
    ratio = sv_ratio(V)
    if ratio <= np.finfo(float).eps / NULLSPACE_RTOL:
        raise DefectiveSpectrum(
            f"T is defective or nearly so (eigenvector sigma ratio "
            f"{ratio:.3e}); give a defective T in Jordan form")
    S = _jordan_space(np.arange(m), np.ones(m, dtype=int), w, cls,
                      None if X is None else X @ V)
    S = V @ S @ cls.star_of(V)
    St = np.swapaxes(S, 1, 2)
    return list((S - cls.epsilon * (St if cls.star == "T" else St.conj())) / 2.0)


@dataclass
class SBasis:
    """A real basis of a parameter-matrix space attached to an ambient T.

    dim counts real degrees of freedom.  For star = T the space is also
    complex-linear, so the real dimension is twice the complex one; the
    basis is a real basis either way.
    """

    T: np.ndarray
    cls: SymmetryClass
    basis: list = field(default_factory=list)

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


def s_basis(T, cls):
    """Real basis of the space {S : star(S) = -eps S, S = T S T*}."""
    T = as_matrix(T, "T")
    if T.size and sv_ratio(T) <= 1e-12:
        raise SingularMatrix("T must be nonsingular")
    return SBasis(T, cls, solution_space(T, cls))


# ---------------------------------------------------------------------------
# Pascal machinery of the Jordan-block families
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


def _hankel_param(p, q, d):
    """Upper-left Hankel basis matrix: ones on the d-th anti-diagonal."""
    H = np.zeros((p, q), dtype=np.complex128)
    for a in range(p):
        b = d - a
        if 0 <= b < q:
            H[a, b] = 1.0
    return H


def _block_family(lam, p, q):
    """Unit basis of {E : (lam I + N_p) E ((1/lam*) I + N_q)* = E}.

    The solutions are H P with H an upper-left Hankel parameter block and
    P the Pascal scaling of the column Jordan block; the family is
    complex-linear of dimension min(p, q).
    """
    P = pascal_scaling(q, lam)
    out = []
    for d in range(min(p, q)):
        E = _hankel_param(p, q, d) @ P
        out.append(E / fnorm(E))
    return out


# ---------------------------------------------------------------------------
# sampling and constrained solves
# ---------------------------------------------------------------------------

def sample_nonsingular(basis, seed):
    """Draw S = sum_i c_i B_i with seeded normal coefficients until
    sigma_min(S) > 1e-8 sigma_max(S), at most SAMPLE_ATTEMPTS times.

    Raises NoNonsingularFound when every draw fails, which signals that the
    space may contain no nonsingular element at all.
    """
    if basis.dim == 0:
        raise NoNonsingularFound("parameter space is trivial")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(SAMPLE_ATTEMPTS):
        S = basis.combine(rng.standard_normal(basis.dim))
        ratio = sv_ratio(S)
        if ratio > NONSINGULAR_RTOL:
            return S
        best = max(best, ratio)
    raise NoNonsingularFound(
        f"no nonsingular element found in {SAMPLE_ATTEMPTS} draws "
        f"(best sigma ratio {best:.3e})")


def constrained_family(basis, X, C, cls):
    """Affine solution set of X S X* = C over span(basis).

    Returns (S_particular, homogeneous) where homogeneous is a list of
    matrices spanning the null directions.  It is solved in the
    coordinates Q of range(X) as P S P* = Q^H C star(Q^H), P = Q^H X: one
    thin SVD of a real 2 min(n, m)^2-row matrix with the singular values
    of the map S -> X S X*.  Raises Inconsistent when the least-squares
    residual, the part of C outside range(Q) included, exceeds 1e-8 ||C||.
    """
    X = as_matrix(X, "X")
    C = as_matrix(C, "C")
    star = cls.star_of
    defect = fnorm(star(C) + cls.epsilon * C)
    if defect > 1e-8 * max(fnorm(C), 1e-300):
        raise Inconsistent("right-hand side C must satisfy star(C) = -eps C")
    if basis.dim == 0:
        if fnorm(C) <= 1e-12:
            m = basis.T.shape[0]
            return np.zeros((m, m), dtype=np.complex128), []
        raise Inconsistent("parameter space is trivial but C != 0")
    Q, (P,) = range_coordinates(X)
    QH = Q.conj().T
    C_core = QH @ C @ star(QH)
    A = np.column_stack([_rvec(P @ B @ star(P)) for B in basis.basis])
    b = _rvec(C_core)
    # ||X B X*|| <= ||X||_F^2 ||B||_F bounds every column of A.
    scale = fnorm(X) ** 2 * max(fnorm(B) for B in basis.basis)
    u, s, vt, rank = _svd_null(A, NULLSPACE_RTOL * scale)
    coeff = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    # The two parts of the residual are orthogonal: inside range(Q) and
    # the part of C that no X S X* can reach.
    resid = np.hypot(np.linalg.norm(A @ coeff - b),
                     fnorm(C - Q @ C_core @ star(Q)))
    if resid > CONSISTENCY_RTOL * max(fnorm(C), 1e-300):
        raise Inconsistent(
            f"no S solves X S X* = C (residual {resid:.3e} vs ||C|| {fnorm(C):.3e})")
    S_part = basis.combine(coeff)
    homogeneous = [basis.combine(v) for v in vt[rank:]]
    return S_part, homogeneous

"""Parameter matrices S with star(S) = -eps S and S = T S T*.

The solution set is a real-linear subspace (conjugations in the star = H
classes break complex linearity, so everything is handled over real
coordinates uniformly), built from the Jordan blocks of T: the block of S
joining Jordan blocks a and b is nonzero only when lam_a lam_b* = 1, and
there it is an upper-left Hankel parameter block times a constant
lower-triangular scaled rotated Pascal matrix.  A diagonal T is the case
of all 1-by-1 blocks, whose space lives on the Stein support
{(i, j) : t_i t_j* = 1}.  T must be in Jordan form, as iep._jordan_form
puts a construction's T1 (an update's is diagonal): nothing here computes
eigenvalues.  One routine, _xsx_solve, cuts the space down by X S X* = C:
solution_space is its homogeneous view (C = 0, as for entire eigendata)
and constrained_family its affine view (the transfer constraint of a
prescribed update).  A basis is a plain (d, m, m) array.
"""

from math import comb

import numpy as np

from .errors import DefectiveSpectrum, DimensionMismatch, Inconsistent, SingularMatrix
from .forward import _reciprocity_defect
from .numerics import (NONSINGULAR_RTOL, OUTPUT_RESIDUAL_TOL, RANK_RTOL, SINGULAR_RTOL,
                       STRUCTURE_RTOL, TRANSFER_FLOOR_RTOL, as_matrix, diagonal_of,
                       fnorm, range_coordinates, sv_ratio)


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

def _jordan_blocks(T):
    """(starts, sizes, values) of the Jordan blocks of T, or None.

    A superdiagonal entry equal to one joins two rows into a block, whose
    eigenvalue is its first diagonal entry.  T is in Jordan form when it
    equals the Jordan matrix read this way.  A diagonal T (numerics.diagonal_of)
    is all 1-by-1 blocks; it is the common case, so it is recognized first.
    """
    m, d = T.shape[0], diagonal_of(T)
    if d is not None:
        return np.arange(m), np.ones(m, dtype=int), d
    joins = np.diag(T, 1) == 1.0
    starts = np.flatnonzero(np.concatenate([[True], ~joins]))
    sizes = np.diff(starts, append=m)
    values = np.diag(T)[starts]
    J = np.diag(np.repeat(values, sizes)) + np.diag(joins, 1)
    if np.any(T != J):
        return None
    return starts, sizes, values


def _symmetric_family(lam, size, cls):
    """Unit elements B of the Hankel-Pascal family of one Jordan block
    with lam lam* = 1 that satisfy star(B) = -eps B, from the null space
    of that real-linear constraint over the family's coefficients."""
    gens = [s * F for F in _block_family(lam, size, size) for s in (1.0, 1.0j)]
    A = np.column_stack([_rvec(G + cls.epsilon * cls.star_of(G)) for G in gens])
    # Every column has norm at most 2.
    _, _, vt, rank = _svd_null(A, 2.0 * RANK_RTOL)
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
    q is free only when forward._reciprocity_defect |lam_p lam_q* - 1| is
    at most RANK_RTOL, at any modulus, and star(S) = -eps S mirrors block
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
    bp, bq = np.nonzero(np.triu(_reciprocity_defect(values, cls) <= RANK_RTOL))
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


def _transfer_bound(C, *products):
    """The most a transfer residual ||X S X* - C||_F may be: OUTPUT_RESIDUAL_TOL
    ||C||, plus a roundoff floor TRANSFER_FLOOR_RTOL ||X||^2 ||S|| for each
    product (X, S) compared, as C is exactly zero when all pairs are replaced."""
    return OUTPUT_RESIDUAL_TOL * fnorm(C) + TRANSFER_FLOOR_RTOL * sum(
        fnorm(X) ** 2 * fnorm(S) for X, S in products)


def _xsx_solve(T, cls, X=None, C=None):
    """The one solve of X S X* = C over {S : star(S) = -eps S, S = T S T*}.

    The Stein support comes from T in Jordan form, a diagonal T included;
    any other T raises DefectiveSpectrum.  One thin SVD of the sparse
    images X E X* of the structural elements E decides their rank against
    RANK_RTOL ||X||_F^2, the largest value X S X* takes on a unit S.
    Without C the rows are those of X; with C, those of P = Q^H X in the
    coordinates Q of range(X), which keep the singular values of the map,
    and Inconsistent is raised when star(C) = -eps C fails at STRUCTURE_RTOL
    or the least-squares residual (C outside range(Q) included) exceeds
    _transfer_bound at the minimum-norm solution: the bound an update
    verifies, and no step along a null direction lowers the residual.
    Returns (particular, elements): the minimum-norm solution (None without
    C) and the null directions, stacked in one (d, m, m) array.
    """
    T = as_matrix(T, "T")
    m = T.shape[0]
    star = cls.star_of
    if X is not None:
        X = as_matrix(X, "X")
        if X.shape[1] != m:
            raise DimensionMismatch(f"X has {X.shape[1]} columns, expected {m}")
    if C is not None:
        C = as_matrix(C, "C")
        n = X.shape[0]
        if C.shape != (n, n):
            raise DimensionMismatch(f"C has shape {C.shape}, expected ({n}, {n})")
        if not fnorm(star(C) + cls.epsilon * C) <= STRUCTURE_RTOL * fnorm(C):
            raise Inconsistent("right-hand side C must satisfy star(C) = -eps C")
    blocks = _jordan_blocks(T)
    if blocks is None:
        raise DefectiveSpectrum("T is not in Jordan form")
    K, I, J, a, b = _stein_support(*blocks, cls)
    n_el = int(K[-1]) + 1 if K.size else 0
    coeffs = np.eye(n_el)
    if X is not None:
        if C is not None:
            Q, (X,) = range_coordinates(X)
            core = Q.conj().T @ C @ star(Q.conj().T)
        # Image X E_k X* of each element, as real columns of the map; its
        # rows are row-major, and so is the right-hand side.
        Y = X if cls.star == "T" else np.conj(X)
        img = np.einsum("pk,qk->kpq", X[:, I] * a, Y[:, J]) \
            + np.einsum("pk,qk->kpq", X[:, J] * b, Y[:, I])
        if K.size > n_el:
            # Elements of larger Jordan blocks have several entries.
            img = np.add.reduceat(img, np.searchsorted(K, np.arange(n_el)))
        img = img.reshape(n_el, len(X) ** 2)
        A = np.vstack([img.real.T, img.imag.T])
        u, s, vt, rank = _svd_null(A, RANK_RTOL * fnorm(X) ** 2)
        coeffs = vt[rank:]
        if C is not None:
            rhs = _rvec(core.T)
            part = vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
            # The two parts of the residual are orthogonal: inside range(Q)
            # and the part of C that no X S X* can reach.
            resid = np.hypot(fnorm(A @ part - rhs),
                             fnorm(C - Q @ core @ star(Q)))
            coeffs = np.vstack([part, coeffs])
    S = np.zeros((coeffs.shape[0], m, m), dtype=np.complex128)
    np.add.at(S, (slice(None), I, J), coeffs[:, K] * a)
    np.add.at(S, (slice(None), J, I), coeffs[:, K] * b)
    if C is not None and not resid <= _transfer_bound(C, (X, S[0])):
        raise Inconsistent(f"no S solves X S X* = C (residual {resid:.3e} "
                           f"vs ||C|| {fnorm(C):.3e})")
    return (None, S) if C is None else (S[0], S[1:])


def solution_space(T, cls, X=None):
    """Real basis of {S : star(S) = -eps S, S = T S T*, (X S X* = 0)}: the
    homogeneous view of _xsx_solve, a (d, m, m) array of exactly
    (anti)symmetric elements, orthonormal as real vectors for a diagonal T
    and of unit norm for larger Jordan blocks without X.  About 2m real
    unknowns when the eigenvalues are distinct: O(n^4) for X n-by-m."""
    return _xsx_solve(T, cls, X)[1]


def _nonsingular(T):
    T = as_matrix(T, "T")
    if T.size and not sv_ratio(T) > SINGULAR_RTOL:
        raise SingularMatrix("T must be nonsingular")
    return T


def s_basis(T, cls):
    """solution_space(T, cls) of a nonsingular T.  Its length counts real
    degrees of freedom: twice the complex dimension for star = T."""
    return solution_space(_nonsingular(T), cls)


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

def sample_nonsingular(basis, rng, particular=None):
    """One draw S = particular + sum_i c_i B_i over a basis array, with
    c = rng.standard_normal(len(basis)) from the operation's generator,
    which the draw advances.  Without particular the sum starts at zero.

    Returns (S, s), s the singular values of S, when
    sigma_min / sigma_max > NONSINGULAR_RTOL; otherwise raises
    SingularMatrix, and the caller's retry loop draws again.
    """
    if len(basis) == 0 and particular is None:
        raise SingularMatrix("parameter space is trivial")
    terms = (c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    S = sum(terms, 0 if particular is None else particular)
    s = np.linalg.svd(S, compute_uv=False)
    ratio = s[-1] / s[0] if s[0] else 0.0
    if not ratio > NONSINGULAR_RTOL:
        raise SingularMatrix(f"drawn S is singular (sigma ratio {ratio:.3e})")
    return S, s


def constrained_family(T, cls, X, C):
    """Affine solution set of X S X* = C over the parameter space of a
    nonsingular T: the affine view of _xsx_solve, one thin SVD of a real
    2 min(n, m)^2-row matrix.  Returns (S_particular, homogeneous), the
    null directions as a list; raises Inconsistent when no S solves it.
    """
    S_part, homogeneous = _xsx_solve(_nonsingular(T), cls, X, C)
    return S_part, list(homogeneous)

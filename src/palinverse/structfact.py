"""Canonical congruence factorizations B = Y Delta Y* for the four classes.

A parameter-type matrix satisfies star(B) = -eps B.  Depending on the class
that makes B skew-Hermitian, Hermitian, complex skew-symmetric or complex
symmetric, and the canonical middle factor Delta is respectively a
(+i/-i) inertia pattern, a (+1/-1) inertia pattern, an aggregated
[[0, I], [-I, 0]] block, or an identity block, each padded with a trailing
zero block when B is rank deficient.

The Hermitian cases reduce to a unitary eigendecomposition.  The complex
symmetric case is an SVD-based Takagi factorization with degenerate
singular-value clusters re-symmetrized blockwise.  The complex
skew-symmetric case is a Youla reduction driven by the unitary
eigendecomposition of B B^H.

_congruence_onto maps one canonical pattern onto another (Psi form Psi* =
target, optionally through a random isometry of the form); construction
(iep) and updating (mup) share it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BadIndices, FactorizationFailure, Infeasible, RetryExhausted,
                     SymmetryViolation)
from .numerics import (CLUSTER_RTOL, NORM_FLOOR, RANK_RTOL, RECONSTRUCT_ATOL,
                       ROUNDOFF_RTOL, STRUCTURE_RTOL, ZERO_ATOL, as_matrix, fnorm,
                       linear_solve)
from .system import SymmetryClass


def build_delta(cls, p, q, t, size):
    """The canonical Delta matrix of a class.

    Star = H: diag(i I_q, -i I_p, 0) for eps = +1, diag(I_p, -I_q, 0)
    for eps = -1 (p + q <= size).  Star = T: the aggregated skew block
    diag([[0, I_{t/2}], [-I_{t/2}, 0]], 0) for eps = +1 (t even) and
    diag(I_t, 0) for eps = -1 (t <= size).
    """
    if size < 0:
        raise BadIndices("size must be nonnegative")
    D = np.zeros((size, size), dtype=np.complex128)
    if cls.star == "H":
        if p < 0 or q < 0 or p + q > size:
            raise BadIndices(f"need p, q >= 0 and p + q <= size, got p={p}, q={q}, size={size}")
        if cls.epsilon == 1:
            D[:q, :q] = 1j * np.eye(q)
            D[q:q + p, q:q + p] = -1j * np.eye(p)
        else:
            D[:p, :p] = np.eye(p)
            D[p:p + q, p:p + q] = -np.eye(q)
    else:
        if t < 0 or t > size:
            raise BadIndices(f"need 0 <= t <= size, got t={t}, size={size}")
        if cls.epsilon == 1:
            if t % 2 != 0:
                raise BadIndices("skew-symmetric Delta needs even t")
            h = t // 2
            D[:h, h:t] = np.eye(h)
            D[h:t, :h] = -np.eye(h)
        else:
            D[:t, :t] = np.eye(t)
    return D


@dataclass(frozen=True)
class DeltaPattern:
    """Structural description of a canonical Delta factor."""

    cls: SymmetryClass
    size: int
    p: int = 0
    q: int = 0
    t: int = 0

    @property
    def rank(self):
        return self.p + self.q if self.cls.star == "H" else self.t

    def matrix(self):
        return build_delta(self.cls, self.p, self.q, self.t, self.size)


@dataclass
class StarFactorization:
    """B = Y Delta Y* with Y square nonsingular."""

    Y: np.ndarray
    pattern: DeltaPattern
    cls: SymmetryClass

    @property
    def delta(self):
        return self.pattern.matrix()

    @property
    def rank(self):
        return self.pattern.rank

    def reconstruct(self):
        return self.Y @ self.delta @ self.cls.star_of(self.Y)


def _cluster_descending(values, tol):
    """Group indices of a descending nonnegative sequence by closeness."""
    groups = []
    for i, v in enumerate(values):
        if groups and (values[groups[-1][0]] - v) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _symmetric_unitary_sqrt(M):
    """A symmetric unitary R with R R = M, for symmetric unitary M.

    Rotates M by a phase e^{-i alpha} that moves the point -1 into the
    widest gap of its spectrum, so N = e^{-i alpha} M has no eigenvalue
    near -1, and takes the polar factor of I + N:
    R = e^{i alpha/2} (I + N) H^{-1/2} with H = (I + N)* (I + N) =
    2 (I + Re N).  N commutes with the real symmetric H, which makes R
    symmetric and unitary, and R R = e^{i alpha} (I + N)^2 H^{-1} = M.
    Repeated eigenvalues and eigenvalues at -1 need no special case.
    """
    theta = np.sort(np.angle(np.linalg.eigvals(M)))
    gaps = np.diff(np.append(theta, theta[0] + 2.0 * np.pi))
    widest = int(np.argmax(gaps))
    alpha = theta[widest] + gaps[widest] / 2.0 - np.pi
    N = np.exp(-1j * alpha) * M
    eye = np.eye(M.shape[0])
    h, P = np.linalg.eigh(2.0 * (eye + N.real))
    return np.exp(0.5j * alpha) * ((eye + N) @ (P / np.sqrt(h)) @ P.T)


def _takagi(u, s, vh, rank_tol):
    """Takagi factorization B = Z diag(s) Z^T of complex symmetric B.

    Takes the SVD B = u diag(s) vh and returns (Z, t) with Z unitary and t
    the numerical rank.  A simple singular value rescales its column by a
    scalar square root; a degenerate cluster takes a blockwise matrix
    square root, re-symmetrized within the cluster.
    """
    smax = s[0] if s.size else 0.0
    t = int(np.count_nonzero(s > rank_tol))
    # Diagonal of u^T vh^H over the active columns.
    m = np.einsum("ki,ik->i", u[:, :t], vh[:t].conj())
    Z = u.copy()
    Z[:, :t] *= np.conj(np.sqrt(m))
    for group in _cluster_descending(s[:t], CLUSTER_RTOL * max(smax, NORM_FLOOR)):
        if len(group) < 2:
            continue
        idx = np.asarray(group)
        M = u[:, idx].T @ vh[idx].conj().T
        M = (M + M.T) / 2.0
        Z[:, idx] = u[:, idx] @ np.conj(_symmetric_unitary_sqrt(M))
    return Z, t


def _youla_pairs(B, zleft, s, rank_tol):
    """Youla reduction of complex skew-symmetric B.

    Takes the left singular vectors zleft and singular values s of B and
    returns (gammas, U, V, kernel) with B = sum_i gamma_i (u_i v_i^T -
    v_i u_i^T), gammas descending positive, and [U V kernel] unitary.
    The left singular vectors of B (eigenvectors of B B^H) span the
    active subspace; the antilinear map x -> B conj(x) pairs each basis
    vector with an orthogonal partner carrying the same singular value.
    """
    n = B.shape[0]
    smax = s[0] if s.size else 0.0
    t = int(np.count_nonzero(s > rank_tol))
    if t % 2 != 0:
        raise FactorizationFailure(
            f"skew-symmetric input has odd numerical rank {t}; "
            "rank must be even")
    kernel = zleft[:, t:]

    # Nonzero singular values of a skew-symmetric matrix come in equal
    # pairs; the pairing map stays inside each equal-sigma cluster, so the
    # deflation must as well.  Merge clusters forward until all are even.
    clusters = _cluster_descending(s[:t], CLUSTER_RTOL * max(smax, NORM_FLOOR))
    merged = []
    carry = []
    for group in clusters:
        carry += group
        if len(carry) % 2 == 0:
            merged.append(carry)
            carry = []
    if carry:
        raise FactorizationFailure("could not pair singular-value clusters")

    gammas, us, vs = [], [], []
    for group in merged:
        active = zleft[:, group]
        while active.shape[1] > 0:
            v = active[:, 0]
            u = B @ np.conj(v)
            gamma = float(np.linalg.norm(u))
            if gamma <= rank_tol:
                raise FactorizationFailure(
                    "pairing collapsed inside the numerically nonzero subspace")
            u = u / gamma
            u = u - v * np.vdot(v, u)
            nu = np.linalg.norm(u)
            if nu < 0.5:
                raise FactorizationFailure("lost orthogonality in Youla pairing")
            u = u / nu
            gammas.append(gamma)
            vs.append(v)
            us.append(u)
            keep = active.shape[1] - 2
            if keep == 0:
                break
            proj = active - np.outer(v, np.conj(v) @ active) \
                - np.outer(u, np.conj(u) @ active)
            q, sp, _ = np.linalg.svd(proj, full_matrices=False)
            if sp[keep - 1] < 0.5:
                raise FactorizationFailure("deflation lost rank in Youla pairing")
            active = q[:, :keep]
    U = np.column_stack(us) if us else np.zeros((n, 0), dtype=np.complex128)
    V = np.column_stack(vs) if vs else np.zeros((n, 0), dtype=np.complex128)
    return np.asarray(gammas), U, V, kernel


def star_factorize(B, cls, rank_tol=None):
    """Canonical congruence factorization B = Y Delta Y*.

    Requires star(B) = -eps B within STRUCTURE_RTOL; the input is projected
    onto that structure before factorizing.  Y is square nonsingular with
    the zero block of Delta trailing.
    """
    B = as_matrix(B, "B")
    n = B.shape[0]
    if B.shape != (n, n):
        raise SymmetryViolation("B must be square")
    nrm = fnorm(B)
    defect = fnorm(cls.star_of(B) + cls.epsilon * B)
    if defect > STRUCTURE_RTOL * max(nrm, NORM_FLOOR):
        raise SymmetryViolation(
            f"star(B) != -eps B: defect {defect:.3e} vs ||B|| {nrm:.3e}")
    Bp = (B - cls.epsilon * cls.star_of(B)) / 2.0
    # One decomposition per class; the default rank threshold is read off
    # its spectrum (||Bp||_2 is the largest |eigenvalue| or singular value).
    if cls.star == "H":
        H = 1j * Bp if cls.epsilon == 1 else Bp
        H = (H + H.conj().T) / 2.0
        w, Z = np.linalg.eigh(H)
        if rank_tol is None:
            rank_tol = RANK_RTOL * (np.abs(w).max() if n else 0.0)
        # eigh sorts ascending: negatives lead most negative first, positives
        # are reordered largest first.
        neg = np.flatnonzero(w < -rank_tol)
        pos = np.flatnonzero(w > rank_tol)
        pos = pos[np.argsort(-w[pos], kind="stable")]
        zer = np.flatnonzero(np.abs(w) <= rank_tol)
        p, q = len(pos), len(neg)
        # eps=+1: Delta = diag(i I_q, -i I_p, 0) -> negative eigenvalues lead.
        order = np.concatenate((neg, pos, zer) if cls.epsilon == 1
                               else (pos, neg, zer))
        scale = np.ones(n)
        scale[:p + q] = np.sqrt(np.abs(w[order][:p + q]))
        Y = Z[:, order] * scale
        pattern = DeltaPattern(cls, n, p=p, q=q)
    else:
        u, s, vh = np.linalg.svd(Bp)
        if rank_tol is None:
            rank_tol = RANK_RTOL * (s[0] if n else 0.0)
        if cls.epsilon == -1:
            Z, t = _takagi(u, s, vh, rank_tol)
            scale = np.ones(n)
            scale[:t] = np.sqrt(s[:t])
            Y = Z * scale
            pattern = DeltaPattern(cls, n, t=t)
        else:
            # Guard on the raw input: a genuinely skew-symmetric matrix has
            # even rank, so an odd numerical rank flags an inconsistent rank
            # decision.
            s_raw = np.linalg.svd(B, compute_uv=False)
            if int(np.count_nonzero(s_raw > rank_tol)) % 2 != 0:
                raise FactorizationFailure(
                    "input has odd numerical rank; skew-symmetric matrices "
                    "have even rank")
            gammas, U, V, kernel = _youla_pairs(Bp, u, s, rank_tol)
            sq = np.sqrt(gammas)
            Y = np.hstack([U * sq, V * sq, kernel])
            pattern = DeltaPattern(cls, n, t=2 * len(gammas))

    fact = StarFactorization(Y, pattern, cls)
    err = fnorm(fact.reconstruct() - Bp)
    if err > STRUCTURE_RTOL * max(nrm, NORM_FLOOR) and err > RECONSTRUCT_ATOL:
        raise FactorizationFailure(
            f"reconstruction residual {err:.3e} exceeds tolerance for ||B|| = {nrm:.3e}")
    return fact


# ---------------------------------------------------------------------------
# Congruence onto a canonical form: Psi form Psi* = target
# ---------------------------------------------------------------------------

def _random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _isometry(form, cls, rng):
    """A random W with W form W* = form.

    form is a nonsingular canonical pattern, so it is unitary and
    star(form) = -eps form.  K = M form^{-1} with M = eps star(M) then lies
    in the Lie algebra of the form (K form + form star(K) = 0), and its
    Cayley transform W = (I - K)^{-1} (I + K) is an isometry; scaling to
    ||K||_F = 1/2 keeps I - K well conditioned (cond <= 3).
    """
    r = form.shape[0]
    A = _random_complex(rng, r, r)
    K = (A + cls.epsilon * cls.star_of(A)) @ form.conj().T
    size = fnorm(K)
    if size > 0.0:  # K vanishes only for a 1x1 skew-symmetric M
        K *= 0.5 / size
    eye = np.eye(r, dtype=np.complex128)
    return linear_solve(eye - K, eye + K)


def _snap_isotropy(X1, S1, cls):
    """X1 S1 X1*, snapped to exact zero at roundoff level.

    When every eigenpair is selected this product is the isotropy identity
    of the full parameter matrix, so it vanishes identically and only
    roundoff survives; downstream canonical factorization needs the exact
    zero to classify it."""
    G = X1 @ S1 @ cls.star_of(X1)
    scale = fnorm(X1) ** 2 * fnorm(S1)
    if fnorm(G) <= ROUNDOFF_RTOL * scale:
        return np.zeros_like(G)
    return G


def _congruence_onto(target, form, cls, rng=None):
    """Psi with Psi form Psi* = target, both exact canonical patterns.

    form must be nonsingular canonical; target may be rank deficient with
    trailing zeros and may carry the opposite sign.  A selection matrix C
    maps the target's nonzero slots onto form slots of the same value;
    rows of C facing the zero block of the target are filled with
    form-isotropic combinations of the leftover form slots (instead of
    zeros) so the assembled eigenvector matrix can reach full row rank.
    With rng given, Psi = C W for a random isometry W of the form;
    otherwise Psi = C.
    """
    n = target.shape[0]
    r = form.shape[0]
    if r == 0:
        if fnorm(target) > ZERO_ATOL:
            raise Infeasible("empty form cannot produce a nonzero target")
        return np.zeros((n, 0), dtype=np.complex128)
    C = np.zeros((n, r), dtype=np.complex128)
    if cls.star == "H":
        tvals, fvals = np.diag(target), np.diag(form)
        spare = []
        for value in ((1.0j, -1.0j) if cls.epsilon == 1 else (1.0, -1.0)):
            tgt = np.flatnonzero(tvals == value)
            src = np.flatnonzero(fvals == value)
            if len(src) < len(tgt):
                raise Infeasible(
                    f"inertia shortfall: target needs {len(tgt)} entries of "
                    f"{value}, source offers {len(src)}")
            C[tgt, src[:len(tgt)]] = 1.0
            spare.append(src[len(tgt):])
        # One + and one - leftover slot per zero row: the form values cancel.
        zero = np.flatnonzero(tvals == 0)
        m = min(len(spare[0]), len(spare[1]), len(zero))
        C[zero[:m], spare[0][:m]] = 1.0
        C[zero[:m], spare[1][:m]] = 1.0
    elif cls.epsilon == 1:
        ht, hs = np.count_nonzero(target.any(axis=1)) // 2, r // 2
        if ht > hs:
            raise Infeasible(f"target rank {2 * ht} exceeds source rank {r}")
        j = np.arange(ht)
        # target = sigma [[0, I], [-I, 0]]: swap the pair slots when the
        # sign differs from the form's.
        swap = ht > 0 and target[0, ht] != form[0, hs]
        C[j, j + hs if swap else j] = 1.0
        C[j + ht, j if swap else j + hs] = 1.0
        # A single slot of a fresh symplectic pair is isotropic.
        z = np.arange(min(hs - ht, n - 2 * ht))
        C[2 * ht + z, ht + z] = 1.0
    else:
        tt = np.count_nonzero(np.diag(target))
        if tt > r:
            raise Infeasible(f"target rank {tt} exceeds source rank {r}")
        j = np.arange(tt)
        # target = sigma I: c^2 form = target picks c = 1 or i.
        C[j, j] = 1.0 if tt == 0 or target[0, 0] == form[0, 0] else 1.0j
        # Pairs of leftover slots combine into isotropic rows: 1^2 + i^2 = 0.
        z = np.arange(min((r - tt) // 2, n - tt))
        C[tt + z, tt + 2 * z] = 1.0
        C[tt + z, tt + 2 * z + 1] = 1.0j
    psi = C if rng is None else C @ _isometry(form, cls, rng)
    err = fnorm(psi @ form @ cls.star_of(psi) - target)
    floor = ROUNDOFF_RTOL * max(1.0, fnorm(psi) ** 2 * fnorm(form))
    if err > STRUCTURE_RTOL * fnorm(target) + floor:
        raise RetryExhausted(f"congruence construction residual {err:.3e}")
    return psi

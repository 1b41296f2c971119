"""Canonical congruence factorizations B = Y Delta Y* for the four classes.

A parameter-type matrix satisfies star(B) = -eps B.  Depending on the class
that makes B skew-Hermitian, Hermitian, complex skew-symmetric or complex
symmetric, and the canonical middle factor Delta is respectively a
(-i/+i) inertia pattern, a (+1/-1) inertia pattern, an aggregated
[[0, I], [-I, 0]] block, or an identity block, each padded with a trailing
zero block when B is rank deficient.

The Hermitian classes are one: u B is Hermitian for the unit u of
_hermitian_unit (i for hp, 1 for ha), each hp canonical object is
conj(u) = -i times ha's, and both reduce to one unitary eigendecomposition
of u B.  The two transpose classes share one reduction of the antilinear
map A(z) = B conj(z), which leaves each cluster of equal singular values
sigma of B invariant and squares to sigma^2 on it for symmetric B, to
-sigma^2 for skew-symmetric B.  One step on a unit vector v of a cluster
takes w = A(v) / sigma and gives a Takagi vector (A(z) = sigma z, a
longest combination of v and w) or a Youla pair (w made orthogonal to v,
v).  A cluster one step wide takes that step alone, all such clusters at
once; a wider one steps on its leading left singular vector, deflates,
and steps again.  The vector a step starts from is the one free choice
of the factorization.

_isotropy_factor factorizes the deficit X1 S1 X1* of a thin X1 at order
min(n, k), and _congruence_onto maps one canonical pattern onto another
(Psi form Psi* = target, optionally through a random isometry of the
form); construction (iep) and updating (mup) share both, and read the
inertia of S1 from one sign count, _inertia.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadIndices, FactorizationFailure, SymmetryViolation
from .numerics import (CLUSTER_RTOL, RANK_RTOL, STRUCTURE_RTOL, _transfer_bound, as_matrix,
                       column_norms, fnorm, linear_solve)
from .system import SymmetryClass


def _hermitian_unit(cls):
    """u with u B Hermitian for each parameter-type B of a star = H class: i
    for hp, 1 for ha (and star = T).  No other code reads eps of an H class."""
    return 1j if cls.star == "H" and cls.epsilon == 1 else 1


def build_delta(cls, p, q, t, size):
    """The canonical Delta matrix of a class.

    Star = H: conj(u) diag(I_p, -I_q, 0) (p + q <= size), u the unit of
    _hermitian_unit, so p counts the -i entries of hp and the +1 entries
    of ha.  Star = T: the aggregated skew block
    diag([[0, I_{t/2}], [-I_{t/2}, 0]], 0) for eps = +1 (t even) and
    diag(I_t, 0) for eps = -1 (t <= size).
    """
    if size < 0:
        raise BadIndices("size must be nonnegative")
    D = np.zeros((size, size), dtype=np.complex128)
    if cls.star == "H":
        if p < 0 or q < 0 or p + q > size:
            raise BadIndices(f"need p, q >= 0 and p + q <= size, got p={p}, q={q}, size={size}")
        np.fill_diagonal(D[:p + q, :p + q], _hermitian_unit(cls).conjugate()
                         * np.repeat([1.0, -1.0], [p, q]))
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

    def reconstruct(self):
        return self.Y @ self.pattern.matrix() @ self.cls.star_of(self.Y)


def _cluster_descending(values, tol, width):
    """Group indices of a descending nonnegative sequence into runs whose
    consecutive values lie within tol (single linkage); a group whose size
    is not a multiple of width takes in the next value."""
    groups = []
    for i, v in enumerate(values):
        if groups and (values[i - 1] - v <= tol or len(groups[-1]) % width):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _antilinear_step(B, V, eps, rank_tol):
    """One step of the reduction of z -> B conj(z) on each column v of V.

    With gamma = |B conj(v)| and the unit image w = B conj(v) / gamma, the
    map squares to -eps gamma^2 on v's cluster.  For eps = -1 the step
    takes the Takagi vector z = c v + conj(c) w, normalized, with
    c^2 = <v, w> / |<v, w>| (c = 1 if <v, w> = 0): the longest of the
    vectors e^{ia} v + e^{-ia} w, all of which have B conj(z) = gamma z.
    For eps = +1 it takes the Youla pair (w made orthogonal to v, v).
    Returns the columns taken, [Z] or [W, V], and gamma.
    """
    W = B @ V.conj()
    gamma = column_norms(W)
    if not gamma.min(initial=np.inf) > rank_tol:
        raise FactorizationFailure(
            "reduction collapsed inside the numerically nonzero subspace")
    W /= gamma
    vw = (V.conj() * W).sum(axis=0)
    if eps == -1:
        c = np.exp(0.5j * np.angle(vw))
        return [(c * V + c.conj() * W) / np.sqrt(2.0 + 2.0 * np.abs(vw))], gamma
    W -= V * vw
    nu = column_norms(W)
    if not nu.min(initial=1.0) >= 0.5:
        raise FactorizationFailure("lost orthogonality in Youla pairing")
    return [W / nu, V], gamma


def _transpose_reduction(B, u, s, vh, eps, rank_tol):
    """B = Y Delta Y^T for complex symmetric (eps = -1) or skew-symmetric
    (eps = +1) B, from its SVD B = u diag(s) vh.

    Returns (Y, t), t the numerical rank, with Y = [Z sqrt(gamma), kernel]
    for eps = -1 (Delta = diag(I_t, 0)) and Y = [W sqrt(gamma),
    V sqrt(gamma), kernel] for eps = +1 (the aggregated skew block); Z and
    [W V] are orthonormal and gamma matches s.  The map leaves each
    cluster of equal singular values invariant, merged for eps = +1 until
    each holds whole pairs.  The clusters of one step's width all take
    their step at once, on their first singular vectors; for eps = -1 the
    image w = p v is read off the SVD, p = conj(u_j^T v_j), and the step is
    z = sqrt(p) v.  A wider cluster steps on its first singular vector,
    projects out the columns taken, and steps again on B's leading left
    singular vector within the rest.
    """
    width = 1 if eps == -1 else 2
    t = int(np.count_nonzero(s > rank_tol))
    if t % width:
        raise FactorizationFailure(
            f"skew-symmetric input has odd numerical rank {t}; rank must be even")
    clusters = _cluster_descending(s[:t].tolist(), CLUSTER_RTOL * (s[0] if t else 0.0), width)
    if eps == -1:
        m = np.einsum("ki,ik->i", u[:, :t], vh[:t].conj())
        cols, gamma = [u[:, :t] * np.conj(np.sqrt(m))], s[:t]
    else:
        cols, gamma = _antilinear_step(B, u[:, :t:2], eps, rank_tol)
    sides = [col * np.sqrt(gamma) for col in cols]
    for c in clusters:
        if len(c) == width:
            continue
        active = u[:, c]
        for slot in range(c[0] // width, (c[-1] + 1) // width):
            taken, g = _antilinear_step(B, active[:, :1], eps, rank_tol)
            for side, col in zip(sides, taken):
                side[:, slot:slot + 1] = col * np.sqrt(g)
            keep = active.shape[1] - width
            if keep:
                prev = np.hstack(taken)
                q, sv, _ = np.linalg.svd(active - prev @ (prev.conj().T @ active),
                                         full_matrices=False)
                if sv[keep - 1] < 0.5:
                    raise FactorizationFailure("deflation lost rank in the reduction")
                # Values of a cluster that are close but unequal keep their
                # own vectors: the next step is on B's singular vectors.
                q = q[:, :keep]
                active = q @ np.linalg.svd(B.conj().T @ q, full_matrices=False)[2].conj().T
    return np.concatenate(sides + [u[:, t:]], axis=1), t


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
    if not defect <= STRUCTURE_RTOL * nrm:
        raise SymmetryViolation(
            f"star(B) != -eps B: defect {defect:.3e} vs ||B|| {nrm:.3e}")
    Bp = (B - cls.epsilon * cls.star_of(B)) / 2.0
    # One decomposition per class; the default rank threshold is read off
    # its spectrum (||Bp||_2 is the largest |eigenvalue| or singular value).
    if cls.star == "H":
        w, Z = np.linalg.eigh(_hermitian_unit(cls) * Bp)
        if rank_tol is None:
            rank_tol = RANK_RTOL * (np.abs(w).max() if n else 0.0)
        # eigh of the Hermitian u Bp sorts ascending: Y takes the positives
        # largest first, then the negatives most negative first, then the kernel.
        pos, neg = np.flatnonzero(w > rank_tol), np.flatnonzero(w < -rank_tol)
        order = np.concatenate((pos[np.argsort(-w[pos], kind="stable")], neg,
                                np.flatnonzero(np.abs(w) <= rank_tol)))
        p, q = len(pos), len(neg)
        Y = Z[:, order] * np.sqrt(np.where(np.arange(n) < p + q, np.abs(w[order]), 1.0))
        pattern = DeltaPattern(cls, n, p=p, q=q)
    else:
        u, s, vh = np.linalg.svd(Bp)
        if rank_tol is None:
            rank_tol = RANK_RTOL * (s[0] if n else 0.0)
        if cls.epsilon == 1:
            # Guard on the raw input: a genuinely skew-symmetric matrix has
            # even rank, so an odd numerical rank flags an inconsistent rank
            # decision.
            s_raw = np.linalg.svd(B, compute_uv=False)
            if int(np.count_nonzero(s_raw > rank_tol)) % 2 != 0:
                raise FactorizationFailure(
                    "input has odd numerical rank; skew-symmetric matrices "
                    "have even rank")
        Y, t = _transpose_reduction(Bp, u, s, vh, cls.epsilon, rank_tol)
        pattern = DeltaPattern(cls, n, t=t)

    fact = StarFactorization(Y, pattern, cls)
    err = fnorm(fact.reconstruct() - Bp)
    if not err <= STRUCTURE_RTOL * nrm:
        raise FactorizationFailure(
            f"reconstruction residual {err:.3e} exceeds tolerance for ||B|| = {nrm:.3e}")
    return fact


def _inertia(B, cls):
    """(p, q), the counts of positive and negative eigenvalues of the
    Hermitian u B (u of _hermitian_unit) for a parameter-type B of a
    star = H class, which the p and q of star_factorize(B, cls).pattern
    count; (0, 0) for star = T.  Every sign counts, with no rank band: the
    callers' B cleared a nonsingularity gate."""
    if cls.star != "H":
        return 0, 0
    w = np.linalg.eigvalsh(_hermitian_unit(cls) * B)
    return int(np.count_nonzero(w > 0)), int(np.count_nonzero(w < 0))


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
    ||K||_F = 1/2 keeps I - K well conditioned (cond <= 3).  M is built from
    conj(u) times the draw, so an hp form, conj(u) times ha's, draws ha's W.
    """
    r = form.shape[0]
    A = _hermitian_unit(cls).conjugate() * _random_complex(rng, r, r)
    K = (A + cls.epsilon * cls.star_of(A)) @ form.conj().T
    size = fnorm(K)
    if size > 0.0:  # K vanishes only for a 1x1 skew-symmetric M
        K *= 0.5 / size
    eye = np.eye(r, dtype=np.complex128)
    return linear_solve(eye - K, eye + K)


def _snap_isotropy(X1, S1, cls):
    """X1 S1 X1*, snapped to exact zero when _transfer_bound counts it roundoff.

    When every eigenpair is selected this product is the isotropy identity
    of the full parameter matrix, so it vanishes identically and only
    roundoff survives; downstream canonical factorization needs the exact
    zero to classify it."""
    G = X1 @ S1 @ cls.star_of(X1)
    return np.zeros_like(G) if fnorm(G) <= _transfer_bound(0, (X1, S1)) else G


def _isotropy_factor(X1, S1, cls):
    """star_factorize(_snap_isotropy(X1, S1, cls), cls) of the n-by-n deficit
    X1 S1 X1*, decomposed at order m = min(n, k) for X1 n-by-k.

    One complete QR of X1 gives a unitary Q whose first m columns span
    range(X1); the snapped core P S1 P*, P = Q[:, :m]^H X1, keeps the
    singular values of the deficit.  Y is square and nonsingular with the
    zero block of Delta trailing, and that block lists the directions
    outside range(X1) first: Q[:, m:], then Q[:, :m] times the core's
    zero block, led by the left null space of P.  _congruence_onto fills
    the leading rows of the zero block with isotropic rows, so those reach
    outside range(X1) before any direction inside it.
    """
    n, k = X1.shape
    m = min(n, k)
    Q = np.linalg.qr(X1, mode="complete")[0]
    P = Q[:, :m].conj().T @ X1
    core = star_factorize(_snap_isotropy(P, S1, cls), cls)
    rank, Yc = core.pattern.rank, core.Y
    if rank < m:  # order the kernel by |P* u| ascending when some P* u = 0
        _, s, vh = np.linalg.svd(P.conj().T @ Yc[:, rank:])
        if s[-1] <= RANK_RTOL * fnorm(P):
            Yc = np.hstack([Yc[:, :rank], Yc[:, rank:] @ vh[::-1].conj().T])
    QY = Q[:, :m] @ Yc
    Y = np.hstack([QY[:, :rank], Q[:, m:], QY[:, rank:]])
    return StarFactorization(Y, replace(core.pattern, size=n), cls)


def _congruence_onto(target, form, cls, rng=None):
    """Psi with Psi form Psi* = target, both exact canonical patterns.

    form must be nonsingular canonical; target may be rank deficient with
    trailing zeros and may carry the opposite sign.  A selection matrix C
    maps the target's nonzero slots onto form slots of the same value;
    rows of C facing the zero block of the target are filled with
    form-isotropic combinations of the leftover form slots (instead of
    zeros) so the assembled eigenvector matrix can reach full row rank.
    With rng given, Psi = C W for a random isometry W of the form;
    otherwise Psi = C.  Raises BadIndices when the form lacks the inertia
    or rank the target needs, and FactorizationFailure when Psi misses the
    residual gate, STRUCTURE_RTOL ||target|| plus _transfer_bound's floor.
    """
    n = target.shape[0]
    r = form.shape[0]
    C = np.zeros((n, r), dtype=np.complex128)
    if cls.star == "H":
        tvals, fvals = np.diag(target), np.diag(form)
        spare = []
        for value in _hermitian_unit(cls).conjugate() * np.array([1.0, -1.0]):
            tgt = np.flatnonzero(tvals == value)
            src = np.flatnonzero(fvals == value)
            if len(src) < len(tgt):
                raise BadIndices(
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
            raise BadIndices(f"target rank {2 * ht} exceeds source rank {r}")
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
            raise BadIndices(f"target rank {tt} exceeds source rank {r}")
        j = np.arange(tt)
        # target = sigma I: c^2 form = target picks c = 1 or i.
        C[j, j] = 1.0 if tt == 0 or target[0, 0] == form[0, 0] else 1.0j
        # Pairs of leftover slots combine into isotropic rows: 1^2 + i^2 = 0.
        z = np.arange(min((r - tt) // 2, n - tt))
        C[tt + z, tt + 2 * z] = 1.0
        C[tt + z, tt + 2 * z + 1] = 1.0j
    psi = C if rng is None else C @ _isometry(form, cls, rng)
    err = fnorm(psi @ form @ cls.star_of(psi) - target)
    if not err <= STRUCTURE_RTOL * fnorm(target) + _transfer_bound(0, (psi, form)):
        raise FactorizationFailure(f"congruence construction residual {err:.3e}")
    return psi


# ---------------------------------------------------------------------------
# The parameter block of new eigenvalues, in closed form
# ---------------------------------------------------------------------------

# A unitary 2x2 factor y of a reciprocal-pair block, y diag(f) y* =
# [[0, c], [-eps star(c), 0]] with c = conj(u), for the pair's two canonical
# entries f: c (1, -1) for both star = H classes, [[0, 1], [-1, 0]] for tp
# and the identity for ta.
_SQRT_HALF = np.sqrt(0.5)
_PAIR_FACTOR = {
    "H": _SQRT_HALF * np.array([[1, 1], [1, -1]]),
    "tp": np.eye(2, dtype=np.complex128),
    "ta": _SQRT_HALF * np.array([[1, 1j], [1, -1j]]),
}


def _closed_form_block(cls, values, groups, p, q):
    """A member S of the parameter space of diag(values), with its canonical
    congruence factorization S = G F star(G), G unitary.

    groups is the reciprocal pairing of values that forward._group_values
    gives, by index.  S is conj(u) and -eps star(conj(u)) = -eps u on each
    pair (i, j), i < j, u of _hermitian_unit, and a unit on each unimodular
    value; tp has no unit for a +-1 value, so equal +-1 values pair instead.
    F = build_delta(cls, p, q, t=len(values)), and G is y of _PAIR_FACTOR on
    a pair's slots and 1 on a unimodular value's.  For star = H the first
    p - len(pairs) unimodular values carry conj(u), which p counts, and the
    others -conj(u); for star = T, p = q = 0.  Raises BadIndices when the
    counts cannot carry (p, q), or the tp +-1 values cannot pair.
    """
    pairs, singles = groups
    r, eps, unit = len(values), cls.epsilon, _hermitian_unit(cls)
    if cls.star == "H" and (min(p, q) < len(pairs) or p + q != r):
        raise BadIndices(f"{len(pairs)} pairs and {len(singles)} unimodular values "
                         f"cannot carry the inertia ({p}, {q})")
    if cls.star == "T" and eps == 1:
        signs = np.sign(np.real(values)[singles])
        if np.count_nonzero(signs < 0) % 2 or np.count_nonzero(signs > 0) % 2:
            raise BadIndices("tp pairs equal +-1 values, which come in odd number")
        ones = [singles[i] for i in np.argsort(signs, kind="stable")]
        pairs, singles = list(pairs) + list(zip(ones[0::2], ones[1::2])), []
    # The column of F for each slot, pairs' slots first.  Apart from ta's
    # identity, F leads with the first slots of the pairs (conj(u) or the
    # first half of the skew form) and the unimodular values of that sign.
    key = np.zeros(r) if cls.star == "T" and eps == -1 else np.concatenate(
        [np.tile([0, 1], len(pairs)), np.arange(len(singles)) >= p - len(pairs)])
    slot = np.empty(r, dtype=int)
    slot[np.argsort(key, kind="stable")] = np.arange(r)
    F = build_delta(cls, p, q, r, r)
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2), slot[:2 * len(pairs)].reshape(-1, 2)
    S, G = np.zeros((2, r, r), dtype=np.complex128)
    S[rows[:, 0], rows[:, 1]], S[rows[:, 1], rows[:, 0]] = unit.conjugate(), -eps * unit
    S[singles, singles] = np.diagonal(F)[slot[2 * len(pairs):]]
    G[rows[:, :, None], cols[:, None, :]] = _PAIR_FACTOR[cls.code if cls.star == "T" else "H"]
    G[singles, slot[2 * len(pairs):]] = 1.0
    return S, G, F

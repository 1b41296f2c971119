"""Shared seeded generators for the test suite."""

import numpy as np
import scipy.linalg

from palinverse import forward, spectral
from palinverse.errors import DimensionMismatch, ResidualTooLarge, SingularMatrix, SingularW
from palinverse.fileio import FileFormatError
from palinverse.forward import eig_full
from palinverse.numerics import (PAIR_RESIDUAL_GATE, RANK_RTOL, SINGULAR_RTOL,
                                 STRUCTURE_RTOL, as_matrix, fnorm, invert, linear_solve,
                                 solve_right, sv_ratio)
from palinverse.paramspace import _rvec
from palinverse.system import PalindromicSystem, eval_Q, pair_residual

NORM_FLOOR = 1e-300  # least norm the Hermitian check of inertia scales by, in place of zero


def count_eigensolves(monkeypatch):
    """Record the vectors flag of every forward.dense_eig call."""
    calls = []
    dense_eig = forward.dense_eig

    def counting_eig(A, vectors=True):
        calls.append(vectors)
        return dense_eig(A, vectors=vectors)

    monkeypatch.setattr(forward, "dense_eig", counting_eig)
    return calls


def log_decompositions(monkeypatch, order):
    """(name, input) of every SVD or eigensolve of order above `order`
    from now on."""
    logged = []
    for name in ("svd", "eigh", "eig", "eigvals"):
        def recording(a, *args, _name=name, _decompose=getattr(np.linalg, name),
                      **kwargs):
            if max(np.shape(a)) > order:
                logged.append((_name, np.array(a)))
            return _decompose(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    return logged


def singular_draws(module, monkeypatch, count):
    """Zero the basis of the first count draws of module's parameter
    sampler, which then refuses each of them as singular."""
    sample, calls = module.sample_nonsingular, []

    def planted(basis, seed, *rest):
        calls.append(seed)
        return sample(0 * np.asarray(basis) if len(calls) <= count else basis, seed, *rest)

    monkeypatch.setattr(module, "sample_nonsingular", planted)


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_structured(rng, cls, n):
    """A random matrix with star(B) = -eps B."""
    M = random_complex(rng, n, n)
    return (M - cls.epsilon * cls.star_of(M)) / 2.0


def inertia(H):
    """Counts (p, q, z) of eigenvalues of Hermitian H above/below/near zero,
    with the zero band |eig| <= RANK_RTOL ||H||_2.

    Sylvester oracle for the (p, q) pattern of star_factorize in the
    conjugate-transpose classes.
    """
    H = as_matrix(H, "H")
    if fnorm(H - H.conj().T) > STRUCTURE_RTOL * max(fnorm(H), NORM_FLOOR):
        raise ValueError("input is not Hermitian within tolerance")
    if H.shape[0] == 0:
        return 0, 0, 0
    w = np.linalg.eigvalsh((H + H.conj().T) / 2.0)
    tol = RANK_RTOL * np.max(np.abs(w))
    p = int(np.count_nonzero(w > tol))
    q = int(np.count_nonzero(w < -tol))
    return p, q, H.shape[0] - p - q


def random_system(cls, n, seed, real=False, cond_limit=1e6, max_tries=200):
    """A random regular system of the class, conditioning filtered.

    Rejects draws whose companion eigenproblem has an eigenvalue condition
    number above cond_limit (left/right eigenvector angle test), so the
    accepted systems are semi-simple with well separated reciprocal pairs.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        if real:
            A1 = rng.standard_normal((n, n))
            M = rng.standard_normal((n, n))
        else:
            A1 = random_complex(rng, n, n)
            M = random_complex(rng, n, n)
        A0 = M + cls.epsilon * cls.star_of(M)
        try:
            sys = PalindromicSystem(cls, A1, A0)
        except Exception:
            continue
        if max_eig_condition(sys) < cond_limit:
            return sys
    raise RuntimeError(f"no well conditioned {cls.code} system of order {n} found")


def off_circle_pair(e):
    """select_pairs of the reciprocal pair of e whose member has the
    largest modulus among those more than 0.05 off the unit circle."""
    i = next(i for i in np.argsort(-np.abs(e.values))
             if abs(abs(e.values[i]) - 1.0) > 0.05)
    return forward.select_pairs(e, [e.values[i], e.values[e.partner_index(i)]])


def closed_selection(e, k):
    """Indices of k eigenvalues of e closed under its reciprocal pairing:
    whole pairs first, in pairing order, then self-paired values."""
    idx = []
    for a, b in sorted(e.pairing, key=lambda p: p[0] == p[1]):
        group = [a] if a == b else [a, b]
        if len(idx) + len(group) <= k:
            idx += group
    assert len(idx) == k, (k, e.pairing)
    return idx


def replacement_values(cls, values, rng):
    """New values for a pairing-closed list, group for group: a reciprocal
    pair of modulus in [0.3, 0.7] for each pair, a unimodular value for each
    self-paired one, so a free update can carry the inertia of S1."""
    pairs, singles = forward._group_values(values, cls)
    new = np.empty(len(values), dtype=np.complex128)
    for i, j in pairs:
        new[i] = rng.uniform(0.3, 0.7) * np.exp(2j * np.pi * rng.uniform())
        new[j] = 1.0 / cls.star_scalar(new[i])
    new[singles] = np.exp(2j * np.pi * rng.uniform(size=len(singles)))
    return new


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


def companion_reference(sys):
    """-M1^{-1} M0 by a 2n-by-2n solve: the reference for
    forward.companion, which takes the same matrix from an order-n solve."""
    M0, M1 = linearize(sys)
    return -linear_solve(M1, M0)


def max_eig_condition(sys):
    """Largest eigenvalue condition number of the companion eigenproblem."""
    w, vl, vr = scipy.linalg.eig(companion_reference(sys), left=True, right=True)
    conds = []
    for i in range(len(w)):
        denom = abs(np.vdot(vl[:, i], vr[:, i]))
        conds.append(np.inf if denom == 0 else 1.0 / denom)
    return max(conds)


def separated_spectrum(eigs, tol=1e-6):
    """True when all computed eigenvalues are pairwise separated."""
    v = eigs.values
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if abs(v[i] - v[j]) <= tol * max(1.0, abs(v[i])):
                return False
    return True


def planted_direct_sum(cls, sizes, seed, cond_limit=1e5, max_tries=200):
    """Full pair (X, J) of a direct-sum system built from genuine
    subsystem eigendata, with pairwise disjoint sub-spectra.

    Note: two transpose-anti blocks of odd order can never be disjoint
    (each is forced to carry +1 and -1), so such size requests fail.
    """
    if cls.epsilon == -1 and cls.star == "T" and \
            sum(1 for nb in sizes if nb % 2 == 1) > 1:
        raise ValueError(
            "transpose-anti blocks of odd order all contain +-1; at most one "
            "odd block can appear in a disjoint direct sum")
    rng_seed = seed
    for _ in range(max_tries):
        Xs, Js, all_vals = [], [], []
        ok = True
        for i, nb in enumerate(sizes):
            sys = random_system(cls, nb, rng_seed + 1000 * i, cond_limit=cond_limit)
            e = eig_full(sys)
            if not (e.pairing_complete and separated_spectrum(e, 1e-4)):
                ok = False
                break
            Xs.append(e.vectors)
            Js.append(np.diag(e.values))
            all_vals.extend(e.values)
        if ok:
            vals = np.asarray(all_vals)
            sep = min(abs(vals[i] - vals[j])
                      for i in range(len(vals)) for j in range(i + 1, len(vals)))
            if sep > 1e-4:
                return scipy.linalg.block_diag(*Xs), scipy.linalg.block_diag(*Js)
        rng_seed += 7919
    raise RuntimeError(f"no disjoint {cls.code} direct sum of sizes {sizes}")


def residual_scale(sys, lam):
    """Natural residual scale ||A1||(1 + |lam|^2) + ||A0|| |lam|."""
    a = abs(lam)
    return fnorm(sys.A1) * (1.0 + a * a) + fnorm(sys.A0) * a


def jordan_matrix(values, sizes):
    """Block-diagonal Jordan matrix: block i has order sizes[i], values[i]
    on its diagonal and ones on its superdiagonal."""
    diag = np.repeat(np.asarray(values, dtype=np.complex128), sizes)
    sup = np.ones(diag.size - 1)
    sup[np.cumsum(sizes)[:-1] - 1] = 0.0
    return np.diag(diag) + np.diag(sup, 1)


def pair_defect(cls, a, b):
    """|a b* - 1|; zero exactly when (a, b) is a reciprocal pair."""
    return abs(complex(a) * cls.star_scalar(b) - 1.0)


def reversal_defect(sys, lam):
    """||Q(lam) - eps lam^2 star(Q(1/lam*))||_F: the reversal identity that
    forces reciprocal pairing, roundoff-small for every valid system."""
    lam = complex(lam)
    mirrored = eval_Q(sys, 1.0 / sys.cls.star_scalar(lam))
    return fnorm(eval_Q(sys, lam)
                 - sys.cls.epsilon * lam * lam * sys.cls.star_of(mirrored))


def greedy_pairing_loop(values, cls, tol):
    """Match eigenvalues into (lam, 1/lam*) pairs.

    Smallest modulus first; each unmatched value takes the unmatched
    candidate minimizing |lam lam'* - 1| (itself included, which accepts
    unimodular self-pairs).  Ties break by index order.

    Scalar reference for forward._greedy_pairing, which must return the
    same pairs and unmatched indices.
    """
    m = len(values)
    order = sorted(range(m), key=lambda i: (abs(values[i]), i))
    matched = [False] * m
    pairs = []
    unmatched = []
    for i in order:
        if matched[i]:
            continue
        best_j, best_d = None, np.inf
        for j in range(m):
            if matched[j] and j != i:
                continue
            d = pair_defect(cls, values[i], values[j])
            if best_j is None or d < best_d:
                best_j, best_d = j, d
        if best_d <= tol:
            matched[i] = True
            matched[best_j] = True
            pairs.append((min(i, best_j), max(i, best_j)))
        else:
            matched[i] = True
            unmatched.append(i)
    return pairs, unmatched


# ---------------------------------------------------------------------------
# Per-entry reference for the fileio matrix format
# ---------------------------------------------------------------------------

def matrix_to_json_loop(M):
    """Rows of [re, im] pairs, one complex entry at a time: with json.dumps,
    the reference for the matrices fileio writes."""
    M = np.asarray(M, dtype=np.complex128)
    return [[[complex(z).real, complex(z).imag] for z in row] for row in M]


def matrix_from_json_loop(data, what):
    """Complex matrix from rows of [re, im] pairs, one entry at a time: the
    reference for fileio._matrix_from_json, which must give the same bits
    and, for malformed input, the same message.  It reads booleans as
    numbers and lets an integer beyond the float range raise
    OverflowError; fileio rejects both with FileFormatError."""
    if not isinstance(data, list) or not data or \
            not all(isinstance(row, list) for row in data):
        raise FileFormatError(f"parse: {what} must be a nested list")
    ncols = len(data[0])
    out = np.zeros((len(data), ncols), dtype=np.complex128)
    for i, row in enumerate(data):
        if len(row) != ncols:
            raise FileFormatError(f"parse: ragged rows in {what}")
        for j, item in enumerate(row):
            if (not isinstance(item, (list, tuple))) or len(item) != 2 or \
                    not all(isinstance(x, (int, float)) for x in item):
                raise FileFormatError(
                    f"parse: {what}[{i}][{j}] must be a [re, im] pair, got {item!r}")
            out[i, j] = complex(float(item[0]), float(item[1]))
    return out


# ---------------------------------------------------------------------------
# Kronecker reference for paramspace.solution_space
# ---------------------------------------------------------------------------

def _unrvec(x, rows, cols):
    """Inverse of paramspace._rvec: complex matrix from [Re; Im] stacking."""
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


def kronecker_space(T, cls, X=None):
    """Reference basis of {S : star(S) = -eps S, S = T S T*, X S X* = 0}
    for any T: the null space of all three constraints stacked as one real
    (4m^2 + 2n^2)-by-2m^2 Kronecker matrix, by SVD (O(m^6) time).

    X is normalized first: {S : X S X* = 0} does not depend on the scale of
    X, while this solve decides rank against its largest singular value,
    which mixes the X rows with the O(1) symmetry and Stein rows.
    """
    if X is not None:
        X = X / fnorm(X)
    A = _constraint_rows(T, cls, X)
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    return [_unrvec(v, T.shape[0], T.shape[0]) for v in vt[rank:]]


# ---------------------------------------------------------------------------
# Full-pair reference for spectral.compute_S1
# ---------------------------------------------------------------------------

def parameter_from_pair(sys, pair):
    """Parameter matrix S of a system given a full standard pair (X, T),
    the oracle of spectral.compute_S1 at k = 2n.

    Gates T and W = [X; -X T^{-1}] on their singular-value ratios and the
    pair on its residual, then evaluates (W* L J_eps L* W)^{-1} and
    verifies the membership identities the decomposition guarantees,
    failing loudly instead of trusting a numerically inconsistent pair.
    """
    X, T = pair
    X, T = as_matrix(X, "X"), as_matrix(T, "T")
    m = T.shape[0]
    if T.shape != (m, m):
        raise DimensionMismatch(f"T must be square, got {T.shape}")
    if X.shape[1] != m:
        raise DimensionMismatch(
            f"X has {X.shape[1]} columns but T is {m}-by-{m}")
    if sv_ratio(T) <= SINGULAR_RTOL:
        raise SingularMatrix("T is numerically singular")
    if m != 2 * X.shape[0]:
        raise DimensionMismatch("parameter_from_pair needs a full pair (m = 2n)")
    W = np.vstack([X, -solve_right(X, T)])
    if sv_ratio(W) <= SINGULAR_RTOL:
        raise SingularW(
            "[X; -X T^{-1}] is numerically singular; not a standard pair")
    if X.shape[0] != sys.n:
        raise DimensionMismatch("pair and system orders differ")
    resid = pair_residual(sys, (X, T))
    if resid > PAIR_RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"pair residual {resid:.3e} exceeds gate {PAIR_RESIDUAL_GATE:.0e}")
    # W* L J_eps L* W from its definition, not multiplied out as compute_S1
    # forms it.
    star, zero = sys.cls.star_of, np.zeros_like(sys.A1)
    LJL = np.block([[zero, -sys.cls.epsilon * sys.A1], [star(sys.A1), zero]])
    Sinv = star(W) @ LJL @ W
    ratio = sv_ratio(Sinv)
    if ratio <= SINGULAR_RTOL:
        raise SingularMatrix(
            f"W* L J L* W is singular (sigma_min/sigma_max = {ratio:.3e})")
    S = invert(Sinv)
    # Exact by theory; strip the round-off asymmetry.
    S = (S - sys.cls.epsilon * star(S)) / 2.0
    spectral._check_membership([(X, T, S)], sys.cls)
    return S


# ---------------------------------------------------------------------------
# Order-n references for the update's range-coordinate cores
# ---------------------------------------------------------------------------

def dense_update_change(cls, X1, T1, S1, X1_new, T1_new, S1_new):
    """D1 = X1_new T1_new^-1 S1_new X1_new* - X1 T1^-1 S1 X1*, formed as an
    n-by-n matrix, and its rank by SVD against RANK_RTOL.

    Reference for mup.low_rank_update, which factorizes D1 in the
    coordinates of range([X1_new, X1]).
    """
    star = cls.star_of
    D1 = X1_new @ linear_solve(T1_new, S1_new) @ star(X1_new) \
        - X1 @ linear_solve(T1, S1) @ star(X1)
    s = np.linalg.svd(D1, compute_uv=False)
    return D1, int(np.count_nonzero(s > RANK_RTOL * s[0]))


def dense_constrained_family(basis, X, C, cls):
    """Least-squares solve of X S X* = C over span(basis) on the whole
    2n^2-row real map S -> X S X*, with the rank decided as in
    paramspace.constrained_family.

    Reference for constrained_family, which solves in the coordinates of
    range(X).  Returns (coeff, null, resid): the minimum-norm coefficient
    vector, the null directions as rows, and the residual norm.
    """
    A = np.column_stack([_rvec(X @ B @ cls.star_of(X)) for B in basis])
    b = _rvec(C)
    scale = fnorm(X) ** 2 * max(fnorm(B) for B in basis)
    u, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.count_nonzero(s > RANK_RTOL * scale))
    coeff = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    return coeff, vt[rank:], float(np.linalg.norm(A @ coeff - b))

"""Accuracy oracle of the benchmark, in plain numpy.

Nothing here calls into palinverse: every defect is recomputed from the
raw coefficient arrays, so no change to the package can loosen the check.
A system is handled as the triple (A1, A0, cls) with cls carrying the
class's ``star`` ("T" or "H") and ``epsilon`` (+1 or -1), and

    Q(lambda) = lambda^2 star(A1) + lambda A0 + eps A1.

The gates are the package's documented output bounds, copied as numbers.
"""

import numpy as np

# Documented output gates (README / module docstrings of the package).
CONSTRUCT_RESIDUAL_GATE = 1e-9   # iep.OUTPUT_RESIDUAL_TOL
CONSTRUCT_SYMMETRY_GATE = 1e-12  # system.A0_SYMMETRY_RTOL
UPDATE_RESIDUAL_GATE = 1e-9      # mup.OUTPUT_RESIDUAL_TOL
UPDATE_SYMMETRY_GATE = 1e-10     # mup.OUTPUT_SYMMETRY_RTOL
KEPT_PAIR_GATE = 1e-8            # mup.PAIR_RESIDUAL_GATE (invariant pairs)
PAIRING_GATE = 1e-6              # forward.PAIRING_TOL

DIGITS_CAP = 16.0


def digits(defect):
    """-log10 of a relative defect, capped at 16 (0 when nothing verified)."""
    if defect is None:
        return 0.0
    return float(min(DIGITS_CAP, -np.log10(max(defect, 10.0 ** -DIGITS_CAP))))


def star(cls, M):
    M = np.asarray(M)
    return M.T if cls.star == "T" else M.conj().T


def star_scalar(cls, z):
    z = np.asarray(z)
    return z if cls.star == "T" else np.conj(z)


def fro(M):
    return float(np.sqrt(np.sum(np.abs(np.asarray(M)) ** 2)))


def symmetry_defect(A1, A0, cls):
    """||star(A0) - eps A0|| relative to max(||A0||, ||A1||)."""
    scale = max(fro(A0), fro(A1), 1e-300)
    return fro(star(cls, A0) - cls.epsilon * A0) / scale


def pair_residual(A1, A0, cls, X, T):
    """Relative residual of star(A1) X T^2 + A0 X T + eps A1 X = 0."""
    X = np.asarray(X, dtype=complex)
    T = np.asarray(T, dtype=complex)
    XT = X @ T
    R = star(cls, A1) @ XT @ T + A0 @ XT + cls.epsilon * (A1 @ X)
    na1, na0, nx, nt = fro(A1), fro(A0), fro(X), fro(T)
    denom = na1 * nx * nt * nt + na0 * nx * nt + na1 * nx
    return fro(R) / denom if denom > 0 else 0.0


def _scale(A1, A0, lam):
    a = np.abs(lam)
    return fro(A1) * (1.0 + a * a) + fro(A0) * a


def eigpair_residuals(A1, A0, cls, values, vectors):
    """Per column ||Q(lam_i) x_i|| / (scale(lam_i) ||x_i||)."""
    V = np.asarray(vectors, dtype=complex)
    lam = np.asarray(values, dtype=complex)
    R = (star(cls, A1) @ V) * lam ** 2 + (A0 @ V) * lam + cls.epsilon * (A1 @ V)
    return np.linalg.norm(R, axis=0) / (_scale(A1, A0, lam) * np.linalg.norm(V, axis=0))


def left_relation_defects(A1, A0, cls, values, vectors, pairs):
    """Spectral symmetry of eigendata: for each reported pair (i, j) the
    star of x_j is a left eigenvector at lam_i, because
    Q(lam) = eps lam^2 star(Q(1 / lam*)).  Returns the relative defects
    ||star(x_j) Q(lam_i)|| / (scale(lam_i) ||x_j||) for both orientations."""
    if not pairs:
        return np.zeros(0)
    idx = np.array(pairs, dtype=int)
    i = np.concatenate([idx[:, 0], idx[:, 1]])
    j = np.concatenate([idx[:, 1], idx[:, 0]])
    lam = np.asarray(values, dtype=complex)[i]
    Xs = star(cls, np.asarray(vectors, dtype=complex)[:, j])  # rows star(x_j)
    R = (Xs @ star(cls, A1)) * lam[:, None] ** 2 + (Xs @ A0) * lam[:, None] \
        + cls.epsilon * (Xs @ A1)
    return np.linalg.norm(R, axis=1) / (_scale(A1, A0, lam) * np.linalg.norm(Xs, axis=1))


def pair_defects(cls, values, pairs):
    """|lam_i star(lam_j) - 1| over reported pairs (i, j)."""
    if not pairs:
        return np.zeros(0)
    idx = np.array(pairs, dtype=int)
    v = np.asarray(values, dtype=complex)
    return np.abs(v[idx[:, 0]] * star_scalar(cls, v[idx[:, 1]]) - 1.0)


def _companion(A1, A0, cls):
    n = A1.shape[0]
    M2inv = np.linalg.inv(star(cls, A1))
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    C[:n, n:] = np.eye(n)
    C[n:, :n] = -cls.epsilon * (M2inv @ A1)
    C[n:, n:] = -(M2inv @ A0)
    return C


def eigenvalues(A1, A0, cls):
    """All 2n eigenvalues of Q from its companion matrix (A1 nonsingular)."""
    return np.linalg.eigvals(_companion(A1, A0, cls))


def eigen(A1, A0, cls):
    """All 2n eigenpairs of Q from its companion matrix.

    The eigenvector is read from whichever companion block is better
    scaled and normalised to unit length."""
    n = A1.shape[0]
    w, Z = np.linalg.eig(_companion(A1, A0, cls))
    X = np.where(np.abs(w) <= 1.0, Z[:n], Z[n:] / np.where(w == 0, 1.0, w))
    return w, X / np.linalg.norm(X, axis=0)


def closure_defect(A1, A0, cls):
    """How far the spectrum of Q is from being closed under lam -> 1/lam*.

    Worst over the computed eigenvalues of min_j |lam_i star(lam_j) - 1|,
    divided by the eigenvalue's condition number in the companion matrix,
    so the oracle's own unstructured eigensolver error (about kappa u)
    does not pass for a structure defect of the system."""
    w, V = np.linalg.eig(_companion(A1, A0, cls))
    kappa = np.linalg.norm(np.linalg.inv(V), axis=1) * np.linalg.norm(V, axis=0)
    D = np.abs(w[:, None] * star_scalar(cls, w)[None, :] - 1.0)
    return float(np.max(np.min(D, axis=1) / kappa))


def sigma_min_residual(A1, A0, cls, lam):
    """sigma_min(Q(lam)) / scale(lam): eigenvalue residual without a vector."""
    lam = complex(lam)
    Q = lam * lam * star(cls, A1) + lam * A0 + cls.epsilon * A1
    return float(np.linalg.svd(Q, compute_uv=False)[-1]) / _scale(A1, A0, lam)


def nearest_indices(values, targets):
    """Distinct indices of values nearest to each target, in target order."""
    used = []
    v = np.asarray(values, dtype=complex)
    for t in targets:
        order = np.argsort(np.abs(v - complex(t)))
        used.append(int(next(j for j in order if int(j) not in used)))
    return used


def reciprocal_pairs(cls, values):
    """Greedy (i, j) pairs with lam_j ~ 1 / lam_i*, off the unit circle."""
    v = np.asarray(values, dtype=complex)
    free = set(range(len(v)))
    pairs = []
    for i in np.argsort(np.abs(v)):
        i = int(i)
        if i not in free or abs(abs(v[i]) - 1.0) < 1e-6:
            continue
        cand = [j for j in free if j != i]
        d = np.abs(v[i] * star_scalar(cls, v[cand]) - 1.0)
        j = cand[int(np.argmin(d))]
        if d.min() <= PAIRING_GATE:
            pairs.append((i, j))
            free -= {i, j}
    return pairs


class Defects:
    """Worst relative defect per check category over one run."""

    CATEGORIES = ("residual", "symmetry", "pairing", "spillover")

    def __init__(self):
        self.worst = {}

    def add(self, category, values):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.size == 0:
            return
        self.worst[category] = max(self.worst.get(category, 0.0), float(values.max()))

    def merge(self, other):
        for cat, val in other.worst.items():
            self.add(cat, val)

    def digits(self, category):
        return digits(self.worst.get(category))

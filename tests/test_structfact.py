import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import inertia, random_complex, random_structured, random_unitary
from palinverse import structfact
from palinverse.errors import BadIndices, FactorizationFailure, SymmetryViolation
from palinverse.forward import _group_values
from palinverse.numerics import fnorm
from palinverse.structfact import (_closed_form_block, _congruence_onto, build_delta,
                                   star_factorize)
from palinverse.system import ALL_CLASSES, HA, HP, TA, TP
from strategies import draw_pairing


def test_inertia_diagonal():
    assert inertia(np.diag([1.0, -1.0, 0.0])) == (1, 1, 1)
    assert inertia(-np.eye(2)) == (0, 2, 0)


def test_inertia_sylvester_oracle():
    rng = np.random.default_rng(0)
    G = random_unitary(rng, 3)
    H = G.conj().T @ np.diag([3.0, -2.0, 5.0]) @ G
    assert inertia(H) == (2, 1, 0)


def test_inertia_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_build_delta_examples():
    assert np.allclose(build_delta(HP, p=1, q=1, t=0, size=2), np.diag([-1j, 1j]))
    assert np.allclose(build_delta(TP, p=0, q=0, t=2, size=2),
                       [[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(build_delta(TA, p=0, q=0, t=1, size=3),
                       np.diag([1.0, 0.0, 0.0]))


def test_build_delta_bad_indices():
    with pytest.raises(BadIndices):
        build_delta(HP, p=2, q=1, t=0, size=2)
    with pytest.raises(BadIndices):
        build_delta(TP, p=0, q=0, t=3, size=4)
    with pytest.raises(BadIndices):
        build_delta(TA, p=0, q=0, t=5, size=4)


def test_star_factorize_canonical_inputs():
    f = star_factorize(np.array([[0.0, 1.0], [-1.0, 0.0]]), TP)
    assert f.pattern.t == 2
    assert np.allclose(np.abs(f.Y), np.eye(2), atol=1e-12)
    f = star_factorize(1j * np.eye(2), HP)
    assert (f.pattern.p, f.pattern.q) == (0, 2)
    assert np.allclose(f.Y, np.eye(2), atol=1e-12)


def test_star_factorize_symmetric_random():
    rng = np.random.default_rng(1)
    B = random_structured(rng, TA, 6)
    f = star_factorize(B, TA)
    assert fnorm(f.reconstruct() - B) <= 1e-10 * fnorm(B)
    assert np.allclose(f.pattern.matrix(), np.eye(6), atol=1e-12)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_star_factorize_reconstruction_sweep(cls):
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 6, 11, 30):
        if cls == TP and n == 1:
            continue
        B = random_structured(rng, cls, n)
        f = star_factorize(B, cls)
        assert fnorm(f.reconstruct() - B) <= 1e-10 * fnorm(B)
        assert f.pattern.rank == np.linalg.matrix_rank(B, tol=1e-8 * fnorm(B))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_star_factorize_rank_deficient(cls):
    rng = np.random.default_rng(3)
    n, r = 7, 4
    if cls.star == "H":
        core = build_delta(cls, p=2, q=2, t=0, size=r)
    else:
        core = build_delta(cls, p=0, q=0, t=r, size=r)
    C = random_complex(rng, n, r)
    B = C @ core @ cls.star_of(C)
    f = star_factorize(B, cls)
    assert f.pattern.rank == r
    assert fnorm(f.reconstruct() - B) <= 1e-10 * fnorm(B)


def test_star_factorize_inertia_matches_oracle():
    rng = np.random.default_rng(4)
    for cls in (HP, HA):
        B = random_structured(rng, cls, 8)
        f = star_factorize(B, cls)
        H = 1j * B if cls.epsilon == 1 else B
        p, q, _ = inertia(H)
        assert (f.pattern.p, f.pattern.q) == (p, q)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_sign_count_is_the_inertia_of_the_factorization(cls):
    # The inertia construction and the free update read: the signs of u B,
    # as star_factorize and the Sylvester oracle count them, and (0, 0)
    # for a transpose class, whose Delta has no signs.
    rng = np.random.default_rng(5)
    for n in (1, 4, 9):
        B = random_structured(rng, cls, n)
        counts = structfact._inertia(B, cls)
        if cls.star == "T":
            assert counts == (0, 0)
            continue
        pattern = star_factorize(B, cls).pattern
        assert counts == (pattern.p, pattern.q) == inertia(1j * B if cls == HP else B)[:2]
        assert all(type(c) is int for c in counts)


def test_star_factorize_rejects_wrong_symmetry():
    rng = np.random.default_rng(5)
    B = random_structured(rng, TA, 4)
    with pytest.raises(SymmetryViolation):
        star_factorize(B, TP)
    with pytest.raises(SymmetryViolation, match="B must be square"):
        star_factorize(np.ones((2, 3)), TP)


def test_star_factorize_odd_rank_skew_rejected():
    # A perturbation inside the symmetry budget gives the input odd rank at
    # a tightened threshold; the parity guard must refuse to pair it.
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1], B[1, 0] = 1.0, -1.0
    B[2, 2] = 5e-11
    with pytest.raises(FactorizationFailure):
        star_factorize(B, TP, rank_tol=1e-12)
    # At the default threshold the perturbation is treated as noise.
    f = star_factorize(B, TP)
    assert f.pattern.rank == 2


def test_delta_roundtrip_near_unitary_Y():
    for cls in ALL_CLASSES:
        size = 6
        if cls.star == "H":
            D = build_delta(cls, p=2, q=3, t=0, size=size)
        else:
            D = build_delta(cls, p=0, q=0, t=4, size=size)
        f = star_factorize(D, cls)
        sv = np.linalg.svd(f.Y, compute_uv=False)
        assert sv.max() <= 1 + 1e-10 and sv.min() >= 1 - 1e-10
        assert fnorm(f.reconstruct() - D) <= 1e-10 * max(fnorm(D), 1.0)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_star_factorize_one_decomposition(cls, monkeypatch):
    # The rank threshold comes from the factorization's own spectrum: TP
    # runs one full SVD plus the values-only parity guard, TA one SVD, the
    # Hermitian classes one eigh and no SVD.
    calls = []
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counted_svd(a, *args, **kwargs):
        calls.append(("svd", kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        calls.append(("eigh", True))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    B = random_structured(np.random.default_rng(9), cls, 6)
    f = star_factorize(B, cls)
    assert fnorm(f.reconstruct() - B) <= 1e-10 * fnorm(B)
    expected = {"tp": [("svd", True), ("svd", False)], "ta": [("svd", True)],
                "hp": [("eigh", True)], "ha": [("eigh", True)]}[cls.code]
    assert calls == expected


@pytest.mark.parametrize("scale", [1.0, 1e-20])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_star_factorize_refuses_a_relative_error_at_any_scale(cls, scale, monkeypatch):
    # The reconstruction gate is relative to ||B|| alone: a decomposition
    # whose Y Delta Y* is off B by 1e-6 relative is refused however small
    # B is.
    B = scale * random_structured(np.random.default_rng(9), cls, 6)
    assert fnorm(star_factorize(B, cls).reconstruct() - B) <= 1e-13 * fnorm(B)
    if cls.star == "H":
        eigh = np.linalg.eigh

        def wrong(a):
            w, Z = eigh(a)
            return w * (1 + 1e-6), Z

        monkeypatch.setattr(np.linalg, "eigh", wrong)
    else:
        reduction = structfact._transpose_reduction

        def wrong(*args):
            Y, t = reduction(*args)
            return Y * np.sqrt(1 + 1e-6), t

        monkeypatch.setattr(structfact, "_transpose_reduction", wrong)
    with pytest.raises(FactorizationFailure, match="reconstruction residual"):
        star_factorize(B, cls)


def _unit_columns(f):
    """Z of Y = Z diag(sqrt(gamma), 1): the Takagi vectors and kernel of a
    ta factorization, the Youla pairs and kernel of a tp one."""
    return f.Y / np.linalg.norm(f.Y, axis=0)


def test_takagi_mixed_clusters():
    # Simple singular values take one step at once, the two degenerate
    # clusters the deflation loop; the kernel column passes through.
    rng = np.random.default_rng(12)
    U = random_unitary(rng, 6)
    sigma = np.array([3.0, 3.0, 2.0, 1.0, 1.0, 0.0])
    B = U @ np.diag(sigma) @ U.T
    s = np.linalg.svd(B, compute_uv=False)
    f = star_factorize(B, TA)
    Z = _unit_columns(f)
    assert f.pattern.rank == 5
    assert fnorm(Z.conj().T @ Z - np.eye(6)) <= 1e-12
    assert fnorm(Z @ np.diag(s) @ Z.T - B) <= 1e-10 * fnorm(B)
    assert fnorm(f.reconstruct() - B) <= 1e-10 * fnorm(B)


# Angles of the eigenvalues of a symmetric unitary M: -1 (angle pi) and
# repeated values come from the sampled set, the rest from a float range.
_ANGLES = st.one_of(st.sampled_from([np.pi, -np.pi / 2, 0.0, 1.0]),
                    st.floats(-np.pi, np.pi))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(angles=st.lists(_ANGLES, min_size=2, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(angles=[np.pi, np.pi, np.pi, np.pi], seed=0)
@example(angles=[np.pi, 0.3, np.pi, 0.3], seed=1)
@example(angles=[np.pi / 2, -np.pi / 2], seed=2)
def test_symmetric_unitary_sqrt_property(angles, seed):
    # All singular values of a symmetric unitary M are 1: one cluster, which
    # the deflation loop reduces to a unitary square root, Y Y^T = M.
    m = len(angles)
    O, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    M = O @ np.diag(np.exp(1j * np.array(angles))) @ O.T
    Y = star_factorize(M, TA).Y
    assert fnorm(Y.conj().T @ Y - np.eye(m)) <= 1e-12
    assert fnorm(Y @ Y.T - M) <= 1e-12


@pytest.mark.parametrize("sigma", [[2.0, 2.0, 1.0], [3.0, 3.0, 3.0, 1.0, 0.0],
                                   [3.0] * 4 + [2.0] * 2 + [1.0] * 3,
                                   [1.0] * 4 + [0.0] * 2])
@pytest.mark.parametrize("seed", range(4))
def test_takagi_degenerate_clusters(sigma, seed):
    rng = np.random.default_rng(30 + seed)
    n = len(sigma)
    U = random_unitary(rng, n)
    B = U @ np.diag(sigma) @ U.T
    s = np.linalg.svd(B, compute_uv=False)
    f = star_factorize(B, TA)
    Z = _unit_columns(f)
    assert f.pattern.t == np.count_nonzero(sigma)
    assert fnorm(Z.conj().T @ Z - np.eye(n)) <= 1e-10
    assert fnorm(Z @ np.diag(s) @ Z.T - B) <= 1e-10 * fnorm(B)


def _skew(rng, gammas, kernel=0):
    """U [[0, G], [-G, 0]] U^T padded by a kernel, G = diag(gammas), U unitary."""
    h, n = len(gammas), 2 * len(gammas) + kernel
    U = random_unitary(rng, n)
    core = np.zeros((n, n))
    core[:h, h:2 * h] = np.diag(gammas)
    return U @ (core - core.T) @ U.T


@pytest.mark.parametrize("gammas", [[2.0] * 2, [2.0] * 3, [2.0] * 2 + [1.0]])
@pytest.mark.parametrize("kernel", [0, 2])
def test_youla_degenerate_clusters(gammas, kernel):
    # 4 or 6 equal singular values of a skew-symmetric B run the deflation
    # loop for eps = +1; the kernel passes through.
    B = _skew(np.random.default_rng(40 + kernel), gammas, kernel)
    f = star_factorize(B, TP)
    assert f.pattern.t == 2 * len(gammas)
    Z = _unit_columns(f)
    assert fnorm(Z.conj().T @ Z - np.eye(B.shape[0])) <= 1e-10
    assert fnorm(f.reconstruct() - B) <= 1e-10 * fnorm(B)


@pytest.mark.parametrize("cls", [TA, TP], ids=lambda c: c.code)
@pytest.mark.parametrize("seed", range(4))
def test_cluster_of_unequal_values_reconstructs(cls, seed):
    # Values up to 2e-9 apart share a cluster (CLUSTER_RTOL = 1e-4), yet
    # are not equal: the deflation steps on B's leading singular vector of
    # the rest, so the reconstruction stays at roundoff, not at the spread.
    rng = np.random.default_rng(50 + seed)
    values = 1.0 - np.array([0.0, 6e-10, 7e-10, 1.3e-9, 1.8e-9, 2e-9])
    if cls == TA:
        U = random_unitary(rng, 6)
        B = U @ np.diag(values) @ U.T
    else:
        B = _skew(rng, values)
    f = star_factorize(B, cls)
    assert f.pattern.t == B.shape[0]
    assert fnorm(f.reconstruct() - B) <= 1e-13 * fnorm(B)


def _cluster_input(cls, rng, values, kernel=0):
    """U diag(values) U^T (ta) or the skew form with pair values (tp), each
    padded by a kernel of the given size."""
    if cls == TA:
        values = np.concatenate([values, np.zeros(kernel)])
        U = random_unitary(rng, len(values))
        return U @ np.diag(values) @ U.T
    return _skew(rng, values, kernel)


@pytest.mark.parametrize("cls", [TA, TP], ids=lambda c: c.code)
def test_nearly_equal_values_factorize_to_relative_roundoff(cls):
    # Singular values a little farther apart than the cluster tolerance
    # would take one-value steps, whose vectors are accurate only to about
    # u / gap; clustering neighbours within CLUSTER_RTOL leaves every such
    # input to the deflation loop.  The error is measured relative to ||B||,
    # as the reconstruction gate measures it, at scales 1e-9 to 1e9.
    def rel_error(B):
        return fnorm(star_factorize(B, cls).reconstruct() - B) / fnorm(B)

    worst = 0.0
    for g in (2e-8, 5e-8, 1e-7, 1e-6):
        for seed in range(20):
            B = _cluster_input(cls, np.random.default_rng(seed), np.array([1, 1 - g, 0.5]))
            worst = max(worst, rel_error(B))
    for spread in (1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 3e-3):
        for m in (2, 3, 4):
            for scale in (1e-9, 1.0, 1e9):
                for kernel in (0, 2):
                    for seed in range(10):
                        rng = np.random.default_rng([m, seed, kernel])
                        inner = 1 - np.sort(rng.uniform(size=m - 2))[::-1]
                        steps = np.concatenate([[0.0], inner, [1.0]])
                        values = scale * np.append(1 - spread * steps, 0.5)
                        worst = max(worst, rel_error(_cluster_input(cls, rng, values, kernel)))
    assert worst <= 1e-10


# hp and ha are one problem: (A1, A0) -> (i A1, -i A0) maps one onto the
# other with the same eigenpairs and S -> i S.  Every hp canonical object
# is -i times ha's, bit for bit, as multiplying by +-i is exact.

@pytest.mark.parametrize("delta, snapped", [(1e-12, False), (1e-13, True)])
def test_isotropy_snap_reads_the_transfer_floor(delta, snapped):
    # X1 = [x, x + delta z] and skew S1 give the tp product
    # X1 S1 X1^T = delta (x z^T - z x^T), delta / 2 of ||X1||^2 ||S1||: at
    # 5e-13 above the one roundoff floor (TRANSFER_FLOOR_RTOL = 1e-13), so
    # it is kept as formed; at 5e-14 below it, so it snaps to exact zero.
    x, z = np.eye(3, 2, dtype=complex).T
    X1 = np.column_stack([x, x + delta * z])
    S1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    G = X1 @ S1 @ X1.T
    assert fnorm(G) == pytest.approx(delta / 2 * fnorm(X1) ** 2 * fnorm(S1), rel=1e-6)
    kept = structfact._snap_isotropy(X1, S1, TP)
    assert np.array_equal(kept, np.zeros_like(G) if snapped else G)


def test_hp_delta_is_minus_i_times_ha():
    for size in range(5):
        for p in range(size + 1):
            for q in range(size - p + 1):
                assert np.array_equal(build_delta(HP, p, q, 0, size),
                                      -1j * build_delta(HA, p, q, 0, size))


def test_hp_factorization_is_ha_of_i_times_b():
    rng = np.random.default_rng(4)
    inputs = [random_structured(rng, HP, n) for n in (1, 2, 3, 6, 11, 30)]
    Y0 = random_complex(rng, 7, 4)
    inputs += [Y0 @ build_delta(HP, 2, 2, 0, 4) @ Y0.conj().T, Y0 @ Y0.conj().T * 1j,
               np.zeros((3, 3)), 1j * np.eye(2)]
    for B in inputs:
        hp, ha = star_factorize(B, HP), star_factorize(1j * B, HA)
        assert np.array_equal(hp.Y, ha.Y)
        assert (hp.pattern.p, hp.pattern.q) == (ha.pattern.p, ha.pattern.q)


def _congruence_or_none(target, form, cls, seed):
    rng = None if seed is None else np.random.default_rng(seed)
    try:
        return _congruence_onto(target, form, cls, rng)
    except BadIndices:
        return None


@pytest.mark.parametrize("n,r", [(6, 3), (5, 5), (3, 8)])
def test_hp_congruence_is_ha_on_minus_i_times_the_forms(n, r):
    # Every target inertia and sign against every form inertia, with no
    # isometry and with one drawn from a fresh generator on each side.
    for f_plus, t_plus, sign, seed in itertools.product(
            range(r + 1), range(n + 1), (1, -1), (None, 0, 7)):
        form = build_delta(HA, f_plus, r - f_plus, 0, r)
        for t_minus in range(n - t_plus + 1):
            target = sign * build_delta(HA, t_plus, t_minus, 0, n)
            ha = _congruence_or_none(target, form, HA, seed)
            hp = _congruence_or_none(-1j * target, -1j * form, HP, seed)
            assert (ha is None) == (hp is None)
            assert ha is None or np.array_equal(hp, ha)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hp_closed_form_block_is_minus_i_times_ha(data):
    # The pairings of test_closed_form_block_over_random_pairings, for star = H.
    values, p, q = draw_pairing(data, HA)
    S, G, F = _closed_form_block(HA, values, _group_values(values, HA), p, q)
    hp = _closed_form_block(HP, values, _group_values(values, HP), p, q)
    for got, want in zip(hp, (-1j * S, G, -1j * F)):
        assert np.array_equal(got, want)

import numpy as np
import pytest

from helpers import parameter_from_pair, random_complex, random_system
from palinverse.errors import (MembershipCheckFailed, ResidualTooLarge,
                               SingularLeadingBlock, SingularMatrix)
from palinverse.forward import eig_full
from palinverse.numerics import fnorm, invert
from palinverse.spectral import (_coefficients_from_blocks, coefficients_from_pair,
                                 compute_S1)
from palinverse.system import ALL_CLASSES, TA, TP, PalindromicSystem


def _stacked(X, T):
    """W = [X; -X T^{-1}] of a pair."""
    return np.vstack([X, -X @ np.linalg.inv(T)])


def test_scalar_parameter_matrix():
    sys = PalindromicSystem(TA, [[1.0]], [[0.0]])
    pair = (np.array([[1.0, 1.0]]), np.diag([1.0, -1.0]))
    S = parameter_from_pair(sys, pair)
    assert np.allclose(S, np.diag([-0.5, 0.5]), atol=1e-14)


def test_scalar_coefficients_roundtrip():
    rec = coefficients_from_pair(np.array([[1.0, 1.0]]), np.diag([1.0, -1.0]),
                                 np.diag([-0.5, 0.5]), TA)
    assert np.allclose(rec.A1, [[1.0]], atol=1e-14)
    assert np.allclose(rec.A0, [[0.0]], atol=1e-14)


def test_scaling_homogeneity():
    # S -> 2S scales Q by 1/2.
    rec1 = coefficients_from_pair(np.array([[1.0, 1.0]]), np.diag([1.0, -1.0]),
                                  np.diag([-0.5, 0.5]), TA)
    rec2 = coefficients_from_pair(np.array([[1.0, 1.0]]), np.diag([1.0, -1.0]),
                                  np.diag([-1.0, 1.0]), TA)
    assert np.allclose(rec2.A1, rec1.A1 / 2.0, atol=1e-14)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_roundtrip_random_systems(cls):
    for seed in range(5):
        sys = random_system(cls, 4, seed=100 + seed)
        e = eig_full(sys)
        pair = (e.vectors, np.diag(e.values))
        S = parameter_from_pair(sys, pair)
        rec = coefficients_from_pair(*pair, S, cls)
        assert fnorm(rec.A1 - sys.A1) <= 1e-8 * fnorm(sys.A1)
        assert fnorm(rec.A0 - sys.A0) <= 1e-8 * max(fnorm(sys.A0), fnorm(sys.A1))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_parameter_transforms_under_pair_equivalence(cls):
    rng = np.random.default_rng(12)
    sys = random_system(cls, 3, seed=200)
    e = eig_full(sys)
    X, T = e.vectors, np.diag(e.values)
    S = parameter_from_pair(sys, (X, T))
    while True:
        Y = random_complex(rng, 6, 6)
        if np.linalg.cond(Y) < 30:
            break
    S2 = parameter_from_pair(sys, (X @ Y, np.linalg.solve(Y, T @ Y)))
    expected = np.linalg.solve(Y, S @ cls.star_of(np.linalg.inv(Y)))
    assert fnorm(S2 - expected) <= 1e-8 * fnorm(S2)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_structure_block_identity(cls):
    # M J_eps M* = L J_eps L* with M = [[eps A1, 0], [-A0, -I]], and the
    # parameter matrix is (W* L J_eps L* W)^{-1}, which parameter_from_pair
    # forms multiplied out.
    sys = random_system(cls, 3, seed=300)
    n = sys.n
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    L = np.block([[zero, eye], [sys.cls.star_of(sys.A1), zero]])
    J = np.block([[zero, eye], [-sys.cls.epsilon * eye, zero]])
    M = np.block([[sys.cls.epsilon * sys.A1, zero], [-sys.A0, -eye]])
    lhs = M @ J @ sys.cls.star_of(M)
    rhs = L @ J @ sys.cls.star_of(L)
    scale = max(fnorm(lhs), 1.0)
    assert fnorm(lhs - rhs) <= 1e-12 * scale
    e = eig_full(sys)
    W = _stacked(e.vectors, np.diag(e.values))
    S = invert(sys.cls.star_of(W) @ rhs @ W)
    S_pair = parameter_from_pair(sys, (e.vectors, np.diag(e.values)))
    assert fnorm(S_pair - S) <= 1e-10 * fnorm(S)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_parameter_from_pair_matches_compute_S1(cls):
    # One formula: on a full pair both give the same matrix, bit for bit.
    for seed in range(3):
        sys = random_system(cls, 4, seed=310 + seed)
        e = eig_full(sys)
        X, T = e.vectors, np.diag(e.values)
        assert np.array_equal(parameter_from_pair(sys, (X, T)),
                              compute_S1(sys, X, T))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_wsw_block_identity(cls):
    sys = random_system(cls, 3, seed=400)
    e = eig_full(sys)
    pair = (e.vectors, np.diag(e.values))
    S = parameter_from_pair(sys, pair)
    W = _stacked(*pair)
    lhs = W @ S @ sys.cls.star_of(W)
    n = sys.n
    A1inv = invert(sys.A1)
    rhs = np.block([
        [np.zeros((n, n)), sys.cls.star_of(A1inv)],
        [-sys.cls.epsilon * A1inv, np.zeros((n, n))],
    ])
    assert fnorm(lhs - rhs) <= 1e-9 * max(fnorm(rhs), 1e-300)


def test_parameter_rejects_bad_pair():
    sys = random_system(TA, 3, seed=500)
    rng = np.random.default_rng(13)
    X = random_complex(rng, 3, 6)
    T = np.diag(random_complex(rng, 6) + 2.0)
    with pytest.raises(ResidualTooLarge):
        parameter_from_pair(sys, (X, T))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_parameter_rejects_ill_conditioned_pair(cls):
    # Shrinking the eigenvectors of one reciprocal pair by 1e-7 leaves
    # W = [X; -X T^{-1}] inside its own gate (cond ~1e7) but makes
    # W* L J L* W (cond ~1e14) numerically singular, since S couples the
    # two partners; the sv_ratio gate refuses it before the inversion.
    sys = random_system(cls, 3, seed=210)
    e = eig_full(sys)
    scale = np.ones(6)
    scale[[0, e.partner_index(0)]] = 1e-7
    pair = (e.vectors * scale, np.diag(e.values))
    assert 1e5 < np.linalg.cond(_stacked(*pair)) < 1e9
    with pytest.raises(SingularMatrix, match=r"W\* L J L\* W is singular"):
        parameter_from_pair(sys, pair)


def test_coefficients_reject_non_member():
    rng = np.random.default_rng(14)
    X = random_complex(rng, 2, 4)
    T = np.diag([2.0, 0.5, 3.0, 1 / 3.0]).astype(complex)
    S = random_complex(rng, 4, 4)
    with pytest.raises(MembershipCheckFailed):
        coefficients_from_pair(X, T, S, TA)


def test_coefficients_singular_leading_block():
    # X with a zero row makes X T^{-1} S X* singular.
    T = np.diag([2.0, 0.5]).astype(complex)
    X = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    S = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(SingularLeadingBlock):
        coefficients_from_pair(X, T, S, TP)


def test_parameter_block_sparsity_in_pjcf_order():
    # Reordering the full pair so reciprocal partners are adjacent exposes
    # the 2x2 antidiagonal block structure of S.
    from reference_problems import update_fixture

    sys, _, _ = update_fixture("tp")
    e = eig_full(sys)
    order = []
    seen = set()
    for a, b in e.pairing:
        if a not in seen:
            order += [a, b] if a != b else [a]
            seen.update((a, b))
    X = e.vectors[:, order]
    T = np.diag(e.values[order])
    S = parameter_from_pair(sys, (X, T))
    mask = np.ones_like(S, dtype=bool)
    for i in range(0, 6, 2):
        mask[i, i + 1] = mask[i + 1, i] = False
    assert np.linalg.norm(S[mask]) <= 1e-9 * fnorm(S)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_full_solve_order_32_passes_symmetry_gate(cls):
    # The assembled A0 = -A1 X T^-2 S X* A1 is star-symmetric only up to a
    # roundoff defect that grows with the order; its structured part passes
    # the 1e-12 gate with the prescribed pairs kept to roundoff.
    from palinverse.iep import solve_iep_full
    from palinverse.system import pair_residual

    for seed in range(4):
        e = eig_full(random_system(cls, 32, seed))
        pair = (e.vectors, np.diag(e.values))
        sys = solve_iep_full(*pair, cls, seed=0)
        assert sys.symmetry_defect() == 0.0
        assert sys.a0_defect > 0.0
        assert pair_residual(sys, pair) <= 1e-12


def _partial_blocks(cls, seed):
    """The two blocks (X1, T1, S1), (X2, T2, S2) of a solved partial
    problem at order 6 with k = 4, read back from its dense (X, T, S)."""
    from palinverse.iep import IepProblem, solve_iep_partial_result

    e = eig_full(random_system(cls, 6, seed))
    idx = [i for pair in e.pairing[:2] for i in pair]
    sol = solve_iep_partial_result(IepProblem(
        cls, e.vectors[:, idx], np.diag(e.values[idx]), seed=seed))
    k = len(idx)
    return [(sol.X[:, :k], sol.T[:k, :k], sol.S[:k, :k]),
            (sol.X[:, k:], sol.T[k:, k:], sol.S[k:, k:])], sol


def _svals(blocks):
    return [np.linalg.svd(S, compute_uv=False) for _, _, S in blocks]


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_block_assembly_matches_the_dense_pair(cls):
    for seed in range(3):
        blocks, sol = _partial_blocks(cls, seed)
        assert np.count_nonzero(blocks[1][2]) == blocks[1][2].shape[0]  # closed form
        by_blocks = _coefficients_from_blocks(blocks, cls, _svals(blocks))
        dense = coefficients_from_pair(sol.X, sol.T, sol.S, cls)
        scale = max(fnorm(dense.A1), fnorm(dense.A0))
        assert fnorm(by_blocks.A1 - dense.A1) <= 1e-12 * scale
        assert fnorm(by_blocks.A0 - dense.A0) <= 1e-12 * scale


def _dense(blocks):
    (X1, T1, S1), (X2, T2, S2) = blocks
    z = np.zeros((T1.shape[0], T2.shape[0]))
    return (np.hstack([X1, X2]), np.block([[T1, z], [z.T, T2]]),
            np.block([[S1, z], [z.T, S2]]))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_block_assembly_fails_as_the_dense_pair_does(cls):
    blocks, _ = _partial_blocks(cls, 0)
    (X1, T1, S1), (X2, T2, S2) = blocks
    rng = np.random.default_rng(1)
    cases = [
        (SingularMatrix, [(X1, T1, 0 * S1), (X2, T2, S2)]),
        (MembershipCheckFailed, [(X1, T1, S1), (X2, T2 + 1e-6 * random_complex(
            rng, *T2.shape), S2)]),
        (MembershipCheckFailed, [(X1, T1, S1 + 1e-6 * random_complex(
            rng, *S1.shape)), (X2, T2, S2)]),
        # A zero row of X makes X T^{-1} S X* singular.
        (SingularLeadingBlock, [(np.vstack([0 * X1[:1], X1[1:]]), T1, S1),
                                (np.vstack([0 * X2[:1], X2[1:]]), T2, S2)]),
    ]
    for error, broken in cases:
        with pytest.raises(error):
            _coefficients_from_blocks(broken, cls, _svals(broken))
        with pytest.raises(error):
            coefficients_from_pair(*_dense(broken), cls)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_update_equals_fresh_assembly(cls):
    # A free update of the selected block (X1, T1, S1) of a partial solve
    # gives the system that _coefficients_from_blocks assembles afresh from
    # (X1_new, T1_new, S1_new) and the kept block (X2, T2, S2).  The
    # worst relative gap over these cases (seeds 0-4) measured 6.4e-12;
    # the bound is 1e-10.
    from palinverse.mup import MupProblem, update_model_result

    mus = [0.5 * np.exp(0.7j), 0.4 * np.exp(2.1j)]
    T1_new = np.diag([v for mu in mus for v in (mu, 1 / cls.star_scalar(mu))])
    for seed in range(5):
        ((X1, T1, _), kept), sol = _partial_blocks(cls, seed)
        res = update_model_result(MupProblem(sol.system, X1, T1, T1_new, seed=seed))
        blocks = [(res.X1_new, T1_new, res.S1_new), kept]
        fresh = _coefficients_from_blocks(blocks, cls, _svals(blocks))
        for got, want in [(res.system.A1, fresh.A1), (res.system.A0, fresh.A0)]:
            assert fnorm(got - want) <= 1e-10 * fnorm(want)


def test_block_singular_values_decided_once(monkeypatch):
    # The S gate reads the singular values the sampler computed for S1 (of
    # a Jordan T1, which is LU-solved), and ones for the closed-form S2, so
    # a draw decomposes S1 once and S2 never.
    from helpers import jordan_matrix
    from palinverse.iep import IepProblem, solve_iep_partial_result

    lam = 0.5 + 0.3j
    X1 = random_complex(np.random.default_rng(1), 6, 4)
    seen, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    res = solve_iep_partial_result(
        IepProblem(TA, X1, jordan_matrix([lam, 1 / lam], [2, 2]), seed=0))
    assert res.attempts == 1

    def decompositions(M):
        return sum(a.shape == M.shape and np.array_equal(a, M) for a in seen)

    assert decompositions(res.S[:4, :4]) == 1
    assert decompositions(res.S[4:, 4:]) == 0

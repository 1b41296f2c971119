import numpy as np
import pytest
import scipy.linalg

from helpers import (dense_constrained_family, jordan_matrix, kronecker_space,
                     planted_direct_sum, random_complex, random_structured,
                     random_system)
from palinverse.errors import (DefectiveSpectrum, DimensionMismatch,
                               Inconsistent, SingularMatrix)
from palinverse.forward import eig_full
from palinverse.iep import _jordan_form, solve_iep_full
from palinverse.numerics import dense_eig, fnorm
from palinverse.paramspace import (_jordan_blocks, _rvec, pascal_matrix,
                                   pascal_scaling, s_basis,
                                   sample_nonsingular, constrained_family,
                                   solution_space)
from palinverse.system import (ALL_CLASSES, HA, HP, TA, TP, SymmetryClass,
                               pair_residual)


def test_pascal_matrix_small():
    assert np.allclose(pascal_matrix(1), [[1.0]])
    assert np.allclose(pascal_matrix(3), [[1, 0, 0], [2, 1, 0], [1, 1, 1]])
    P4 = pascal_matrix(4).real
    assert np.allclose(P4, [[1, 0, 0, 0], [3, 1, 0, 0], [3, 2, 1, 0], [1, 1, 1, 1]])


@pytest.mark.parametrize("lam", [0.3 + 0.4j, 2 - 1j, -1.0])
@pytest.mark.parametrize("m", range(1, 7))
def test_pascal_similarity_identity(lam, m):
    N = np.eye(m, k=1)
    P = pascal_scaling(m, lam)
    lhs = np.linalg.inv((1.0 / lam) * np.eye(m) + N.T)
    rhs = np.linalg.inv(P) @ (lam * np.eye(m) + N.T) @ P
    assert fnorm(lhs - rhs) <= 1e-10 * max(fnorm(lhs), 1.0)


def _pair_diag(cls, *lams):
    vals = []
    for lam in lams:
        vals += [lam, 1 / cls.star_scalar(lam)]
    return np.diag(np.array(vals, dtype=complex))


def test_s_basis_dimensions_simple_cases():
    assert len(s_basis(_pair_diag(HP, 1 + 1j), HP)) == 2
    assert len(s_basis(np.diag([1.0, -1.0]), TA)) == 4
    assert len(s_basis(_pair_diag(TP, 2.0), TP)) == 2


def test_s_basis_hp_pair_structure():
    b = s_basis(_pair_diag(HP, 1 + 1j), HP)
    for B in b:
        assert abs(B[0, 0]) < 1e-12 and abs(B[1, 1]) < 1e-12
        assert abs(B[1, 0] + np.conj(B[0, 1])) < 1e-12


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_s_basis_membership_residuals(cls):
    T = _pair_diag(cls, 0.4 + 0.2j, 1.7 - 0.5j)
    b = s_basis(T, cls)
    nt = fnorm(T)
    for B in b:
        assert fnorm(B + cls.epsilon * cls.star_of(B)) <= 1e-12 * fnorm(B)
        assert fnorm(B - T @ B @ cls.star_of(T)) <= 1e-10 * fnorm(B) * nt * nt


@pytest.mark.parametrize("rho", [1e3, 1e5, 1e8])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_solution_space_of_a_far_pair(cls, rho):
    # A partner is admitted by |lam mu* - 1| <= RANK_RTOL at any modulus,
    # so the small member's product with itself, 1/rho^2, is none: the
    # space is the one value joining the pair (two real elements), and
    # every element meets S = T S T* to roundoff.
    mu = rho * np.exp(0.7j)
    T = np.diag([mu, 1 / cls.star_scalar(mu)])
    basis = solution_space(T, cls)
    assert len(basis) == 2
    for S in basis:
        assert fnorm(S - T @ S @ cls.star_of(T)) <= 1e-12 * fnorm(S)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_s_basis_real_dim_convention(cls):
    # Star = T spaces are complex linear: i * element stays inside, so the
    # real dimension is even and twice the complex one.
    T = _pair_diag(cls, 0.4 + 0.2j, 1.7 - 0.5j)
    b = s_basis(T, cls)
    if cls.star == "T":
        assert len(b) % 2 == 0
        A = np.column_stack([_rvec(B) for B in b])
        q, _ = np.linalg.qr(A)
        for B in b:
            v = _rvec(1j * B)
            assert np.linalg.norm(v - q @ (q.T @ v)) < 1e-8


def _span_gap(basis_a, basis_b):
    A = np.column_stack([_rvec(B) / np.linalg.norm(_rvec(B)) for B in basis_a])
    B = np.column_stack([_rvec(M) / np.linalg.norm(_rvec(M)) for M in basis_b])
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    return max(np.linalg.norm(B - qa @ (qa.T @ B)),
               np.linalg.norm(A - qb @ (qb.T @ A)))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_pjcf_basis_agrees_with_generic_simple(cls):
    lam1, lam2 = 0.4 + 0.2j, 1.7 - 0.5j
    T = jordan_matrix([lam1, 1 / cls.star_scalar(lam1),
                       lam2, 1 / cls.star_scalar(lam2)], [1, 1, 1, 1])
    sb = s_basis(T, cls)
    gb = kronecker_space(T, cls)
    assert len(sb) == len(gb)
    assert _span_gap(sb, gb) <= 1e-8


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_pjcf_basis_agrees_with_generic_jordan(cls):
    lam = 0.5 + 0.3j
    T = jordan_matrix([lam, 1 / cls.star_scalar(lam)], [2, 2])
    sb = s_basis(T, cls)
    gb = kronecker_space(T, cls)
    assert len(sb) == len(gb) == 4
    assert _span_gap(sb, gb) <= 1e-8


def test_pjcf_jordan_pair_is_pascal_hankel():
    lam = 0.5 + 0.3j
    sb = s_basis(jordan_matrix([lam, 1 / lam], [2, 2]), TP)
    P = pascal_scaling(2, lam)
    for B in sb:
        H = B[:2, 2:] @ np.linalg.inv(P)
        # Upper-triangular Hankel: zero below the main anti-diagonal,
        # constant on anti-diagonals.
        assert abs(H[1, 1]) < 1e-12
        assert abs(H[0, 1] - H[1, 0]) < 1e-12


def test_pjcf_flags_forced_zero_singletons():
    # The +1 and -1 singletons sit at diagonal slots 2 and 3.  Their
    # parameter blocks are structurally zero for TP (every element vanishes
    # there) and free for TA (some element does not).
    T = np.diag([2.0, 0.5, 1.0, -1.0])
    sb = s_basis(T, TP)
    assert not any(np.any(B[[2, 3], [2, 3]]) for B in sb)
    assert len(sb) == 2
    sb_ta = s_basis(T, TA)
    for slot in (2, 3):
        assert any(B[slot, slot] != 0 for B in sb_ta)
    assert len(sb_ta) == 6


def test_sample_nonsingular_scalar_family():
    basis = np.array([np.diag([1.0, -1.0]).astype(complex)])
    S, _ = sample_nonsingular(basis, np.random.default_rng(0))
    assert np.linalg.cond(S) < 1e8


def test_sample_nonsingular_structural_failure():
    basis = np.array([np.diag([1.0, 0.0]).astype(complex)])
    with pytest.raises(SingularMatrix):
        sample_nonsingular(basis, np.random.default_rng(0))


def test_sample_nonsingular_deterministic():
    T = _pair_diag(HP, 0.3 + 0.4j, 1.2 - 0.1j)
    b = s_basis(T, HP)
    S1, _ = sample_nonsingular(b, np.random.default_rng(123))
    S2, _ = sample_nonsingular(b, np.random.default_rng(123))
    assert np.array_equal(S1, S2)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_solve_constrained_plant_and_recover(cls):
    rng = np.random.default_rng(8)
    T = _pair_diag(cls, 0.4 + 0.2j, 1.7 - 0.5j)
    b = s_basis(T, cls)
    X = random_complex(rng, 3, 4)
    S0 = sum(c * B for c, B in zip(rng.standard_normal(len(b)), b))
    C = X @ S0 @ cls.star_of(X)
    S = constrained_family(T, cls, X, C)[0]
    assert fnorm(X @ S @ cls.star_of(X) - C) <= 1e-10 * max(fnorm(C), 1e-300)


def test_solve_constrained_homogeneous_and_inconsistent():
    rng = np.random.default_rng(9)
    T = _pair_diag(TA, 0.4 + 0.2j)
    b = s_basis(T, TA)
    X = random_complex(rng, 2, 2)
    S, hom = constrained_family(T, TA, X, np.zeros((2, 2)))
    assert fnorm(S) < 1e-10
    # Right-hand side violating the required antisymmetry type:
    bad = np.array([[1.0, 0.0], [0.0, 2.0]])  # symmetric, but C must be too
    C_bad = np.array([[0.0, 1.0], [-1.0, 0.0]])  # skew: wrong type for TA
    with pytest.raises(Inconsistent):
        constrained_family(T, TA, X, C_bad)[0]
    # Structurally unreachable symmetric right side:
    X1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(Inconsistent):
        constrained_family(T, TA, X1, bad)[0]


def _span_defect(A, B):
    """Relative part of the columns of B outside the column span of A."""
    if B.shape[1] == 0:
        return 0.0
    fit = np.linalg.lstsq(A, B, rcond=None)[0]
    return fnorm(B - A @ fit) / fnorm(B)


def _family_t(cls, name):
    """Order-4 T of the constrained-family cases: diagonal with reciprocal
    pairs or unimodular, a Jordan pair of 2-by-2 blocks, whose elements
    have several entries, or a dense V D V^-1, solved on the Jordan form
    a construction puts it in (iep._jordan_form)."""
    if name == "unimodular":
        return np.eye(4)
    if name == "jordan":
        lam = 0.5 + 0.3j
        return jordan_matrix([lam, 1 / cls.star_scalar(lam)], [2, 2])
    D = _pair_diag(cls, 0.4 + 0.2j, 1.7 - 0.5j)
    return D if name == "pairs" else _similar(D, seed=34)[0]


# X is n-by-m with m = 4: full column rank with m <= n, rank deficient,
# and m > n, where range(X) is the whole space.
@pytest.mark.parametrize("n, rank", [(6, 4), (6, 2), (3, 3), (2, 2)],
                         ids=["m<=n", "m<=n-deficient", "m>n", "m=2n"])
@pytest.mark.parametrize("T", ["pairs", "unimodular", "jordan", "dense"])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_constrained_family_matches_order_n_solve(cls, T, n, rank):
    rng = np.random.default_rng(31)
    X = random_complex(rng, n, rank) @ random_complex(rng, rank, 4)
    X, T = _jordan_form(X, _family_t(cls, T))
    b = s_basis(T, cls)
    C = X @ sum(c * B for c, B in zip(rng.standard_normal(len(b)), b)) \
        @ cls.star_of(X)
    S, hom = constrained_family(T, cls, X, C)
    coeff, null, resid = dense_constrained_family(b, X, C, cls)
    assert resid <= 1e-10 * fnorm(C)
    assert fnorm(S - sum(c * B for c, B in zip(coeff, b))) <= 1e-8 * fnorm(S)
    # Same null-space dimension and span.
    assert len(hom) == len(null)
    H = np.column_stack([_rvec(h) for h in hom]) if hom else np.zeros((1, 0))
    R = np.column_stack([_rvec(sum(c * B for c, B in zip(v, b)))
                         for v in null]) if len(null) else np.zeros((1, 0))
    assert _span_defect(H, R) <= 1e-8 and _span_defect(R, H) <= 1e-8


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_constrained_family_counts_c_outside_range_of_x(cls):
    # The in-range part of C is consistent; a part outside range(X), which
    # no X S X* can produce, must still count in the residual.
    rng = np.random.default_rng(32)
    T = _pair_diag(cls, 0.4 + 0.2j)
    b = s_basis(T, cls)
    X = random_complex(rng, 6, 2)
    inside = X @ sum(c * B for c, B in zip(rng.standard_normal(len(b)), b)) \
        @ cls.star_of(X)
    N = np.linalg.qr(X, mode="complete")[0][:, 2:]
    outside = N @ random_structured(rng, cls, 4) @ cls.star_of(N)
    outside *= fnorm(inside) / fnorm(outside)
    S = constrained_family(T, cls, X, inside)[0]
    assert fnorm(X @ S @ cls.star_of(X) - inside) <= 1e-10 * fnorm(inside)
    with pytest.raises(Inconsistent):
        constrained_family(T, cls, X, inside + 1e-6 * outside)
    # Within the transfer bound, OUTPUT_RESIDUAL_TOL ||C|| (1e-9), the outside
    # part is tolerated.
    constrained_family(T, cls, X, inside + 1e-10 * outside)


def test_constrained_family_checks_operand_shapes():
    T = np.diag([0.5, 2.0, 0.4, 2.5])
    with pytest.raises(DimensionMismatch, match="X has 5 columns, expected 4"):
        constrained_family(T, TA, np.ones((3, 5)), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch, match=r"C has shape \(4, 4\)"):
        constrained_family(T, TA, np.ones((3, 4)), np.zeros((4, 4)))


def test_constrained_family_trivial_space_returns_m_by_m():
    T = np.diag([1.0, -1.0])
    b = s_basis(T, TP)
    assert len(b) == 0
    X = random_complex(np.random.default_rng(33), 4, 2)
    S, hom = constrained_family(T, TP, X, np.zeros((4, 4)))
    assert S.shape == (2, 2) and not S.any()
    assert hom == []
    # An empty space takes the one consistency rule: X 0 X* = C only for
    # C = 0, however small a nonzero C is.
    M = random_complex(np.random.default_rng(1), 4, 4)
    for c in (1e-20, 1e-13):
        with pytest.raises(Inconsistent, match="no S solves"):
            constrained_family(T, TP, X, c * (M - M.T))


def test_solution_space_with_isotropy_constraint():
    # Scalar case: T = diag(1, -1), X = [1, 1] forces s2 = -s1.
    T = np.diag([1.0, -1.0])
    X = np.array([[1.0, 1.0]])
    basis = solution_space(T, TA, X)
    assert len(basis) == 2  # one complex parameter
    for B in basis:
        assert abs(B[0, 0] + B[1, 1]) < 1e-10


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_pjcf_basis_geometric_multiplicity_two(cls):
    # Two Jordan blocks per eigenvalue: rectangular Hankel sub-blocks.
    lam = 0.45 + 0.2j
    p = 1 / cls.star_scalar(lam)
    T = jordan_matrix([lam, lam, p, p], [2, 1, 2, 1])
    sb = s_basis(T, cls)
    gb = kronecker_space(T, cls)
    # min-size sums over the 2x2 sub-block grid: 2+1+1+1 parameters.
    assert len(sb) == len(gb) == 10
    assert _span_gap(sb, gb) <= 1e-8


def test_pjcf_basis_jordan_singles():
    for cls in (HP, TA):
        T = jordan_matrix([np.exp(0.6j) if cls.star == "H" else 1.0], [2])
        sb = s_basis(T, cls)
        gb = kronecker_space(T, cls)
        assert len(sb) == len(gb) == 2
        assert _span_gap(sb, gb) <= 1e-8


# ---------------------------------------------------------------------------
# diagonal T: Stein-support route against the Kronecker reference
# ---------------------------------------------------------------------------

def _assert_same_space(T, cls, X):
    basis = solution_space(T, cls, X)
    ref = kronecker_space(T, cls, X)
    assert len(basis) == len(ref)
    if ref:
        assert _span_gap(basis, ref) <= 1e-8
    for B in basis:
        assert fnorm(B + cls.epsilon * cls.star_of(B)) == 0.0


@pytest.mark.parametrize("m", [4, 6, 12, 24])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_diagonal_space_matches_kronecker_on_eigendata(cls, m):
    e = eig_full(random_system(cls, m // 2, seed=60 + m))
    T, X = np.diag(e.values), e.vectors
    scales = [1.0] if m == 24 else [1.0, 1e6, 1e-6]
    _assert_same_space(T, cls, None)
    for scale in scales:
        _assert_same_space(T, cls, scale * X)


def _special_case(name):
    lam, mu = 0.4 + 0.2j, 1.7 - 0.5j
    rng = np.random.default_rng(12)
    if name == "ta-plus-minus-one":
        return TA, np.diag([1.0, -1.0, lam, 1 / lam, mu, 1 / mu]), \
            random_complex(rng, 3, 6)
    if name in ("hp-unimodular", "ha-unimodular"):
        cls = HP if name.startswith("hp") else HA
        t = [np.exp(0.7j), np.exp(-2.1j), lam, 1 / np.conj(lam)]
        return cls, np.diag(t), random_complex(rng, 2, 4)
    if name.startswith("repeated-"):
        cls = SymmetryClass.from_code(name.split("-")[1])
        p = 1 / cls.star_scalar(lam)
        return cls, np.diag([lam, lam, p, p]), random_complex(rng, 2, 4)
    if name == "tp-isotropic-rank-one":
        # X = u v^T: X S X^T = u (v^T S v) u^T vanishes for skew S.
        T = _pair_diag(TP, lam, mu, 0.3 - 0.9j)
        return TP, T, np.outer(random_complex(rng, 3), random_complex(rng, 6))
    if name == "tp-isotropic-planted":
        X, J = planted_direct_sum(TP, [1, 1], seed=43)
        return TP, J, X
    raise ValueError(name)


@pytest.mark.parametrize("name", [
    "ta-plus-minus-one", "hp-unimodular", "ha-unimodular", "repeated-tp",
    "repeated-ta", "repeated-hp", "repeated-ha", "tp-isotropic-rank-one",
    "tp-isotropic-planted"])
def test_diagonal_space_matches_kronecker_special(name):
    cls, T, X = _special_case(name)
    for scale in (1.0, 1e6, 1e-6):
        _assert_same_space(T, cls, scale * X)
    _assert_same_space(T, cls, None)


def test_isotropic_x_keeps_whole_space():
    # X S X* vanishes for every S, so the map is pure roundoff: the rank
    # decision must not call any of it nonzero.
    cls, T, X = _special_case("tp-isotropic-rank-one")
    b = s_basis(T, cls)
    assert len(solution_space(T, cls, 1e-6 * X)) == len(b) == 6
    S, hom = constrained_family(T, cls, 1e-6 * X, np.zeros((3, 3)))
    assert len(hom) == len(b)
    assert fnorm(S) == 0.0


# ---------------------------------------------------------------------------
# Jordan and dense T against the Kronecker reference
# ---------------------------------------------------------------------------

def _jordan_case(cls):
    """A Jordan matrix with blocks [2, 1] at each value of a reciprocal
    pair and two self-paired blocks of sizes 2 and 3: at +1 and -1
    (star = T) or on the unit circle (star = H)."""
    lam = 0.45 + 0.2j
    p = 1 / cls.star_scalar(lam)
    singles = [1.0, -1.0] if cls.star == "T" else [np.exp(0.6j), np.exp(-2.1j)]
    return jordan_matrix([lam, lam, p, p] + singles, [2, 1, 2, 1, 2, 3])


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_jordan_space_matches_kronecker(cls):
    T = _jordan_case(cls)
    _assert_same_space(T, cls, None)
    X = random_complex(np.random.default_rng(70), 2, T.shape[0])
    for scale in (1.0, 1e6, 1e-6):
        _assert_same_space(T, cls, scale * X)
    _assert_same_space(T, cls, random_complex(np.random.default_rng(71), 3,
                                              T.shape[0]))


@pytest.mark.parametrize("mults", [[2], [3], [2, 1]], ids=str)
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_jordan_singleton_matches_kronecker(cls, mults):
    # Jordan blocks at one self-paired eigenvalue, alone and with X.
    lam = 1.0 if cls.star == "T" else np.exp(0.6j)
    T = jordan_matrix([lam] * len(mults), mults)
    _assert_same_space(T, cls, None)
    X = random_complex(np.random.default_rng(72), 1, T.shape[0])
    _assert_same_space(T, cls, X)


def _similar(T, seed):
    W = random_complex(np.random.default_rng(seed), *T.shape)
    return np.linalg.solve(W, T @ W), W


@pytest.mark.parametrize("off", [5e-13, -5e-13, 1e-12, -1e-12])
def test_jordan_blocks_join_rows_on_an_exact_one_alone(off):
    # Only a superdiagonal entry equal to 1 joins two rows: an entry near 1
    # is no Jordan form, so the matrix is not read as one.
    lam = 0.4 + 0.2j
    T = jordan_matrix([lam], [2])
    starts, sizes, values = _jordan_blocks(T)
    assert [list(starts), list(sizes), list(values)] == [[0], [2], [lam]]
    T[0, 1] = 1.0 + off
    assert _jordan_blocks(T) is None


def _assert_same_space_on_form(T, cls, X):
    """The space of the Jordan form (X V, D) of a dense T, as a construction
    builds it (iep._jordan_form), mapped back by V S V*, is the Kronecker
    reference space of (X, T) itself."""
    assert _jordan_blocks(T) is None
    w, V = dense_eig(T)
    XV, D = _jordan_form(np.eye(len(T)) if X is None else X, T)
    assert np.array_equal(D, np.diag(w))
    if X is not None:
        V = V / np.linalg.norm(X @ V, axis=0)  # the form's unit columns
        assert fnorm(XV - X @ V) <= 1e-14 * fnorm(XV)
    basis = solution_space(D, cls, None if X is None else XV)
    for B in basis:
        assert fnorm(B + cls.epsilon * cls.star_of(B)) == 0.0
    ref = kronecker_space(T, cls, X)
    assert len(basis) == len(ref)
    if ref:
        assert _span_gap([V @ B @ cls.star_of(V) for B in basis], ref) <= 1e-8
    return XV, D


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_dense_space_matches_kronecker_on_eigendata(cls):
    # (X W, W^-1 D W) is a standard pair of the same system as (X, D).
    e = eig_full(random_system(cls, 3, seed=73))
    T, W = _similar(np.diag(e.values), seed=74)
    X = e.vectors @ W
    XV, D = _assert_same_space_on_form(T, cls, X)
    _assert_same_space_on_form(T, cls, None)
    _assert_same_space_on_form(T, cls, random_complex(np.random.default_rng(75), 2, 6))
    assert len(solution_space(D, cls, XV)) == \
        len(solution_space(np.diag(e.values), cls, e.vectors))
    sys = solve_iep_full(X, T, cls, seed=1)
    assert pair_residual(sys, (X, T)) <= 1e-9


@pytest.mark.parametrize("name", [
    "ta-plus-minus-one", "hp-unimodular", "ha-unimodular", "repeated-tp",
    "repeated-ta", "repeated-hp", "repeated-ha"])
def test_dense_space_matches_kronecker_special(name):
    cls, D, X = _special_case(name)
    T, W = _similar(D, seed=76)
    _assert_same_space_on_form(T, cls, X @ W)
    _assert_same_space_on_form(T, cls, None)


def test_upper_bidiagonal_t_is_not_read_as_jordan():
    # A unit superdiagonal over unequal eigenvalues is diagonalizable: the
    # construction's helper diagonalizes it, and the parameter space, which
    # takes Jordan form only, refuses it as given.
    T = np.array([[2.0, 1.0], [0.0, 0.5]])
    _, D = _assert_same_space_on_form(T, TP, None)
    assert len(solution_space(D, TP)) == 2
    with pytest.raises(DefectiveSpectrum, match="not in Jordan form"):
        solution_space(T, TP)


def _real_pair(sys):
    """Real standard pair (X, T) of a real system: x = u + iv at
    lam = a + ib (b > 0) gives columns [u, v] and the rotation block
    [[a, b], [-b, a]]; a real lam keeps a real eigenvector and a 1-by-1
    block."""
    e = eig_full(sys)
    cols, blocks = [], []
    for lam, x in zip(e.values, e.vectors.T):
        if abs(lam.imag) <= 1e-12 * abs(lam):
            k = np.argmax(np.abs(x))
            cols.append((x * np.conj(x[k]) / abs(x[k])).real)
            blocks.append([[lam.real]])
        elif lam.imag > 0:
            cols += [x.real, x.imag]
            blocks.append([[lam.real, lam.imag], [-lam.imag, lam.real]])
    return np.column_stack(cols), scipy.linalg.block_diag(*blocks)


def test_real_rotation_block_pair():
    sys = random_system(TP, 3, seed=77, real=True)
    X, T = _real_pair(sys)
    assert X.shape == (3, 6) and np.count_nonzero(np.diag(T, -1)) == 2
    assert pair_residual(sys, (X, T)) <= 1e-10
    XV, D = _assert_same_space_on_form(T, TP, X)
    _assert_same_space_on_form(T, TP, None)
    assert len(solution_space(D, TP, XV)) == 2
    built = solve_iep_full(X, T, TP, seed=2)
    assert pair_residual(built, (X, T)) <= 1e-9


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_similar_jordan_block_is_rejected(cls, size):
    lam = 0.5 + 0.3j
    J = jordan_matrix([lam, 1 / cls.star_scalar(lam)], [size, size])
    X = random_complex(np.random.default_rng(78), size, 2 * size)
    for seed in range(20):
        T, W = _similar(J, seed)
        with pytest.raises(DefectiveSpectrum, match="eigenvector sigma ratio"):
            _jordan_form(X @ W, T)
    with pytest.raises(DefectiveSpectrum):
        solve_iep_full(X @ W, T, cls)

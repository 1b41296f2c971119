import numpy as np
import pytest

from helpers import jordan_matrix, planted_direct_sum, random_system
from palinverse.analysis import (_offblock_mass, joint_block_diagonalize,
                                 zeta_partition)
from palinverse.errors import (GeomMultViolation, SingularInput,
                               StructureViolation)
from palinverse.forward import eig_full
from palinverse.paramspace import s_basis, sample_nonsingular, solution_space
from palinverse.spectral import coefficients_from_pair
from palinverse.system import ALL_CLASSES, HA, HP, TA, TP


def _constrained_basis(X, J, cls):
    return solution_space(J, cls, X)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_generic_full_pair_dimension(cls):
    sys = random_system(cls, 3, seed=31)
    e = eig_full(sys)
    dim = len(solution_space(np.diag(e.values), cls, e.vectors))
    assert dim == (2 if cls.star == "T" else 1)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_direct_sum_dimension_adds(cls):
    X, J = planted_direct_sum(cls, [2, 2], seed=40)
    dim = len(solution_space(J, cls, X))
    assert dim == 2 * (2 if cls.star == "T" else 1)


def test_scalar_dimension_hand_case():
    # T = diag(1, -1), X = [1, 1]: one complex parameter survives.
    dim = len(solution_space(np.diag([1.0, -1.0]), TA, np.array([[1.0, 1.0]])))
    assert dim == 2


def test_zeta_scaling_family():
    sys = random_system(HP, 3, seed=32)
    e = eig_full(sys)
    basis = _constrained_basis(e.vectors, np.diag(e.values), HP)
    S, _ = sample_nonsingular(basis, np.random.default_rng(1))
    z = zeta_partition(S, 2.0 * S, HP)
    assert z.parts == [3]
    assert z.pair_classes == ["self"]


def test_zeta_two_block():
    X, J = planted_direct_sum(TA, [1, 2], seed=41)
    basis = _constrained_basis(X, J, TA)
    rng = np.random.default_rng(0)
    S, _ = sample_nonsingular(basis, np.random.default_rng(3))
    S2, _ = sample_nonsingular(basis, np.random.default_rng(4))
    z = zeta_partition(S, S2, TA)
    assert sorted(z.parts) == [1, 2]
    assert z.cardinality == 2


def test_zeta_generic_cardinality_one():
    sys = random_system(TP, 3, seed=33)
    e = eig_full(sys)
    basis = _constrained_basis(e.vectors, np.diag(e.values), TP)
    S, _ = sample_nonsingular(basis, np.random.default_rng(5))
    S2, _ = sample_nonsingular(basis, np.random.default_rng(6))
    z = zeta_partition(S, S2, TP)
    assert z.cardinality == 1


def test_zeta_rejects_singular():
    with pytest.raises(SingularInput):
        zeta_partition(np.zeros((2, 2)), np.eye(2), TP)


def test_zeta_structure_violation():
    # A hand-built ratio with an unpaired complex eigenvalue (star = H).
    S = np.diag([1j, -1j])
    S2 = np.diag([2j, -1j])  # ratio diag(2, 1): 2 and 1 both real, odd mults
    with pytest.raises(StructureViolation):
        zeta_partition(S, S2, HA)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_joint_block_diagonalize_planted(cls):
    X, J = planted_direct_sum(cls, [2, 2], seed=42)
    basis = _constrained_basis(X, J, cls)
    S, _ = sample_nonsingular(basis, np.random.default_rng(1))
    S2, _ = sample_nonsingular(basis, np.random.default_rng(2))
    Shat, _ = sample_nonsingular(basis, np.random.default_rng(7))
    K, pi, blocks = joint_block_diagonalize(X, J, S, S2, Shat, cls)
    assert sorted(blocks) == [2, 2]
    # K works for an independent draw too.
    Shat2, _ = sample_nonsingular(basis, np.random.default_rng(8))
    sys2 = coefficients_from_pair(X, J, Shat2, cls)
    for M in (sys2.A1, sys2.A0):
        assert _offblock_mass(cls.star_of(K) @ M @ K, blocks) <= 1e-8
    # Pi groups the ratio spectrum conformally.
    ratio = S2 @ np.linalg.inv(S)
    permuted = ratio[np.ix_(pi, pi)]
    sizes = [2 * b for b in blocks]
    assert _offblock_mass(permuted, sizes) <= 1e-8
    # Dimension sandwich: observed cardinality within the dimension.
    z = zeta_partition(S, S2, cls)
    assert z.cardinality <= len(solution_space(J, cls, X))


def test_joint_block_diagonalize_scalar_ratio():
    sys = random_system(HA, 3, seed=34)
    e = eig_full(sys)
    X, J = e.vectors, np.diag(e.values)
    basis = _constrained_basis(X, J, HA)
    S, _ = sample_nonsingular(basis, np.random.default_rng(1))
    K, pi, blocks = joint_block_diagonalize(X, J, S, 2.0 * S, S, HA)
    assert blocks == [3]


def test_joint_block_diagonalize_geom_mult_guard():
    X, J = planted_direct_sum(TP, [1, 1], seed=43)
    Jbad = J.copy()
    Jbad[1, 1] = Jbad[0, 0]  # duplicate eigenvalue entry: geometric mult 2
    basis = _constrained_basis(X, J, TP)
    S, _ = sample_nonsingular(basis, np.random.default_rng(1))
    with pytest.raises(GeomMultViolation):
        joint_block_diagonalize(X, Jbad, S, 2 * S, S, TP)


def test_ratio_blocks_are_lower_triangular_toeplitz():
    # Jordan pair blocks: S_tilde_i^{-1} S_i is lower-triangular Toeplitz.
    for cls in (TP, HA):
        lam = 0.5 + 0.3j
        sb = s_basis(jordan_matrix([lam, 1 / cls.star_scalar(lam)], [2, 2]),
                     cls)
        rng = np.random.default_rng(9)
        S = sum(c * B for c, B in zip(rng.standard_normal(len(sb)), sb))
        S2 = sum(c * B for c, B in zip(rng.standard_normal(len(sb)), sb))
        if min(np.linalg.cond(S[:2, 2:]), np.linalg.cond(S2[:2, 2:])) > 1e6:
            continue
        # Off-diagonal parameter blocks of the pair structure:
        R = np.linalg.solve(S2[:2, 2:], S[:2, 2:])
        assert abs(R[0, 1]) <= 1e-9 * np.linalg.norm(R)
        assert abs(R[0, 0] - R[1, 1]) <= 1e-9 * np.linalg.norm(R)


def test_cardinality_bound_over_many_draws():
    # Upper bound asserted strictly over 50 seeded draws; the lower bound
    # of the dimension sandwich is informational and printed only.
    for cls in (TP, HA):
        X, J = planted_direct_sum(cls, [2, 2], seed=44)
        basis = _constrained_basis(X, J, cls)
        dim = len(solution_space(J, cls, X))
        best = 0
        S0, _ = sample_nonsingular(basis, np.random.default_rng(999))
        for seed in range(50):
            try:
                S, _ = sample_nonsingular(basis, np.random.default_rng(seed))
                z = zeta_partition(S0, S, cls)
            except Exception:
                continue
            best = max(best, z.cardinality)
            assert z.cardinality <= dim
        print(f"{cls.code}: observed max cardinality {best}, dimension {dim}, "
              f"half-dimension {dim / 2:.1f}")
        assert best >= 1

from collections import Counter

import numpy as np
import pytest

from helpers import (closed_selection, count_eigensolves, dense_update_change, inertia,
                     log_decompositions, off_circle_pair, parameter_from_pair,
                     random_complex, random_system, replacement_values, residual_scale,
                     separated_spectrum)
from palinverse import mup
from palinverse.errors import (DefectiveSpectrum, DimensionMismatch, Inconsistent,
                               Infeasible, MembershipCheckFailed, NoSolution,
                               ResidualTooLarge, RetryExhausted, SingularS1Precursor,
                               SingularW, SpectraOverlap, SymmetryViolation, XiSingular)
from palinverse.forward import eig_full, select_pairs
from palinverse.mup import (MupProblem, MupResult, low_rank_update,
                            update_model_prescribed, update_model_result)
from palinverse.numerics import OUTPUT_RESIDUAL_TOL, PAIR_RESIDUAL_GATE, fnorm, invert
from palinverse.spectral import compute_S1
from palinverse.system import (ALL_CLASSES, HA, HP, TA, TP, PalindromicSystem,
                               eval_Q, pair_residual)
from reference_problems import update_fixture


def test_compute_S1_scalar():
    sys = PalindromicSystem(TA, [[1.0]], [[0.0]])
    S1 = compute_S1(sys, np.array([[1.0, 1.0]]), np.diag([1.0, -1.0]))
    assert np.allclose(S1, np.diag([-0.5, 0.5]), atol=1e-14)


def test_compute_S1_membership_fixture():
    sys, replace, _ = update_fixture("tp")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    S1 = compute_S1(sys, X1, T1)
    com = fnorm(S1 - T1 @ S1 @ sys.cls.star_of(T1))
    assert com <= 1e-9 * fnorm(S1) * fnorm(T1) ** 2


def test_compute_S1_matches_full_parameter_block():
    sys, replace, _ = update_fixture("ta")
    e = eig_full(sys)
    X1, T1, X2, T2 = select_pairs(e, replace)
    # Full-pair parameter matrix in the same ordering.
    X = np.hstack([X1, X2])
    T = np.diag(np.concatenate([np.diag(T1), np.diag(T2)]))
    S = parameter_from_pair(sys, (X, T))
    k = T1.shape[0]
    S1 = compute_S1(sys, X1, T1)
    assert fnorm(S[:k, :k] - S1) <= 1e-8 * fnorm(S1)
    # Block-diagonal form: off blocks vanish.
    assert fnorm(S[:k, k:]) <= 1e-8 * fnorm(S)


@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_update_fixture_all_classes(code):
    sys, replace, new = update_fixture(code)
    e = eig_full(sys)
    X1, T1, X2, T2 = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=4))
    ns = res.system
    scale = max(fnorm(ns.A0), fnorm(ns.A1))
    assert ns.symmetry_defect() <= 1e-10 * scale
    assert pair_residual(ns, (res.X1_new, np.diag(new))) <= 1e-9
    assert pair_residual(ns, (X2, T2)) <= 1e-9
    # Eigenvalue replacement as a multiset.
    e2 = eig_full(ns)
    for v in new:
        assert min(abs(e2.values - v)) <= 1e-6 * max(1.0, abs(v))
    for v in np.diag(T2):
        assert min(abs(e2.values - v)) <= 1e-6 * max(1.0, abs(v))
    for v in replace:
        assert min(abs(e2.values - v)) > 1e-3


@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_update_no_spillover_eigenvectors(code):
    sys, replace, new = update_fixture(code)
    e = eig_full(sys)
    X1, T1, X2, T2 = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=4))
    for j, lam in enumerate(np.diag(T2)):
        x = X2[:, j]
        assert np.linalg.norm(eval_Q(res.system, lam) @ x) <= \
            1e-8 * residual_scale(res.system, lam)


def test_update_smw_identity_fixture():
    sys, replace, new = update_fixture("hp")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=4))
    smw = res.system.A1 @ (invert(sys.A1)
                           + sys.cls.epsilon * res.Z1 @ sys.cls.star_of(res.Z2))
    assert fnorm(smw - np.eye(sys.n)) <= 1e-10 * max(1.0, fnorm(smw))


def test_update_transfer_constraint_fixture():
    sys, replace, new = update_fixture("ha")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=4))
    S1 = res.S1
    lhs = res.X1_new @ res.S1_new @ sys.cls.star_of(res.X1_new)
    rhs = X1 @ S1 @ sys.cls.star_of(X1)
    assert fnorm(lhs - rhs) <= 1e-9 * max(fnorm(rhs), 1e-300)


def test_noop_update_is_exact():
    sys, replace, _ = update_fixture("ta")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    S1 = compute_S1(sys, X1, T1)
    ns, Z1, Z2, ell = low_rank_update(sys, X1, T1, S1, X1, T1, S1)
    assert ell == 0
    assert np.array_equal(ns.A1, sys.A1)
    assert np.array_equal(ns.A0, sys.A0)


def test_update_model_wrapper():
    sys, replace, new = update_fixture("ta")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=4))
    ns, x1n = res.system, res.X1_new
    assert x1n.shape == X1.shape
    assert pair_residual(ns, (x1n, np.diag(new))) <= 1e-9


@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_free_update_any_column_scaling(code):
    # X1 D with D = diag(10^U[-6, 6]) poses the same update as X1.
    sys, replace, new = update_fixture(code)
    X1, T1, _, _ = select_pairs(eig_full(sys), replace)
    for seed in range(12):
        D = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, X1.shape[1])
        result = update_model_result(MupProblem(sys, X1 * D, T1, np.diag(new),
                                                seed=seed))
        assert pair_residual(result.system, (result.X1_new, np.diag(new))) <= 1e-9


@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_nearly_diagonal_t1_poses_the_same_update(code):
    # A T1 or T1_new with off-diagonal mass under DIAGONAL_RTOL passes as
    # diagonal, and the problem keeps its diagonal: X1 D then takes unit
    # columns and the update repeats to the bit.
    sys, replace, new = update_fixture(code)
    X1, T1, _, _ = select_pairs(eig_full(sys), replace)
    D = np.array([3.0, 0.5, 2.0, 0.25])[:X1.shape[1]]
    E = np.zeros(T1.shape, dtype=complex)
    E[0, -1] = 1e-13 * fnorm(T1)
    base = MupProblem(sys, X1 * D, T1, np.diag(new), seed=1)
    for T1_given, T1_new in ((T1 + E, np.diag(new)), (T1, np.diag(new) + E)):
        problem = MupProblem(sys, X1 * D, T1_given, T1_new, seed=1)
        assert np.array_equal(problem.X1, base.X1)
        assert np.array_equal(problem.T1, base.T1)
        assert np.array_equal(problem.T1_new, base.T1_new)
        a, b = update_model_result(base), update_model_result(problem)
        for x, y in ((a.system.A1, b.system.A1), (a.system.A0, b.system.A0),
                     (a.X1_new, b.X1_new)):
            assert np.array_equal(x, y)


def test_update_determinism():
    sys, replace, new = update_fixture("hp")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    a = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=11))
    b = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=11))
    assert np.array_equal(a.system.A1, b.system.A1)
    assert np.array_equal(a.X1_new, b.X1_new)


def test_prescribed_matches_free_mode():
    sys, replace, new = update_fixture("hp")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=4))
    ns = update_model_prescribed(
        MupProblem(sys, X1, T1, np.diag(new), X1_new=res.X1_new, seed=9))
    e1 = np.sort_complex(np.round(eig_full(res.system).values, 8))
    e2 = np.sort_complex(np.round(eig_full(ns).values, 8))
    assert np.allclose(e1, e2, atol=1e-6)


def test_prescribed_inconsistent_vectors():
    sys, replace, new = update_fixture("hp")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    rng = np.random.default_rng(15)
    bad = random_complex(rng, sys.n, T1.shape[0])
    with pytest.raises(Inconsistent):
        update_model_prescribed(
            MupProblem(sys, X1, T1, np.diag(new), X1_new=bad, seed=0))


def test_prescribed_family_member_solvable():
    # Any consistent prescription solves; a scaled family member exercises
    # the constraint path away from the free-mode draw.  Rank arithmetic
    # pins span(X1_new) to the range of X1 S1 X1* when k <= n, so
    # prescriptions outside that span are necessarily inconsistent.
    sys, replace, new = update_fixture("tp")
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=6))
    prescribed = res.X1_new * np.exp(0.3j)  # scaling stays consistent
    ns = update_model_prescribed(
        MupProblem(sys, X1, T1, np.diag(new), X1_new=prescribed, seed=1))
    assert pair_residual(ns, (prescribed, np.diag(new))) <= 1e-9
    # Confirm the span statement that makes outside prescriptions moot.
    q, _ = np.linalg.qr(X1)
    outside = fnorm(res.X1_new - q @ (q.conj().T @ res.X1_new))
    assert outside <= 1e-8 * fnorm(res.X1_new)


def _moved_prescription(cls, delta):
    """A prescribed update of the off-circle pair of random_system(cls, 6, 3)
    to 0.6+0.1i and its partner, whose X1_new (a free update's) is moved by
    delta ||X1_new|| along a fixed unit direction."""
    sys = random_system(cls, 6, 3)
    X1, T1, _, _ = off_circle_pair(eig_full(sys))
    mu = 0.6 + 0.1j
    T1_new = np.diag([mu, 1 / cls.star_scalar(mu)])
    X1_new = update_model_result(MupProblem(sys, X1, T1, T1_new, seed=0)).X1_new
    E = random_complex(np.random.default_rng(1), *X1_new.shape)
    X1_new = X1_new + delta * fnorm(X1_new) * (E / fnorm(E))
    return MupProblem(sys, X1, T1, T1_new, X1_new=X1_new, seed=0)


@pytest.mark.parametrize("delta", [2e-9, 5e-9])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_transfer_no_draw_can_meet_is_inconsistent_before_any_draw(cls, delta, monkeypatch):
    # The move leaves X1_new S X1_new* = X1 S1 X1* a least-squares residual
    # of 1.2 to 1.8 delta ||C||, above the OUTPUT_RESIDUAL_TOL ||C|| that the
    # update verifies, and a draw along the null directions does not lower
    # it: the affine solve refuses it by that bound, and no draw is made.
    problem = _moved_prescription(cls, delta)
    real, calls = mup.low_rank_update, []
    monkeypatch.setattr(mup, "low_rank_update",
                        lambda *args: calls.append(args) or real(*args))
    with pytest.raises(Inconsistent, match="no S solves X S X"):
        update_model_result(problem)
    assert calls == []


@pytest.mark.parametrize("delta", [1e-10, 5e-10])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_transfer_within_the_bound_solves_on_the_first_draw(cls, delta):
    problem = _moved_prescription(cls, delta)
    res = update_model_result(problem)
    assert res.attempts == 1
    assert pair_residual(res.system, (problem.X1_new, problem.T1_new)) <= OUTPUT_RESIDUAL_TOL


def test_problem_validation_overlap():
    sys, replace, new = update_fixture("ta")
    e = eig_full(sys)
    X1, T1, _, T2 = select_pairs(e, replace)
    with pytest.raises(SpectraOverlap, match="collides with the kept spectrum"):
        MupProblem(sys, X1, T1, np.diag([np.diag(T2)[0], 1 / np.diag(T2)[0]]))
    with pytest.raises(SpectraOverlap, match="collides with a replaced one"):
        MupProblem(sys, X1, T1, T1.copy())


def _zero_column_selection(cls):
    """A closed selection (X1, T1) of two eigenvalues of an order-6 system,
    the copy of X1 with a zero first column, and replacement values."""
    sys = random_system(cls, 6, 3)
    e = eig_full(sys)
    idx = closed_selection(e, 2)
    X1, T1 = e.vectors[:, idx], np.diag(e.values[idx])
    zero = X1.copy()
    zero[:, 0] = 0.0
    new = replacement_values(cls, e.values[idx], np.random.default_rng(0))
    return sys, X1, zero, T1, np.diag(new)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_zero_eigenvector_column_is_refused_before_any_lookup(cls, monkeypatch):
    # A zero column is no eigenvector, and [X1; -X1 T1^-1] is then rank
    # deficient: an update refuses it as a construction does, before it
    # looks up an eigenvalue.  The pair gate alone passes it, as it divides
    # by ||X1||_F over all columns.
    from palinverse.iep import IepProblem

    sys, _, zero, T1, T1_new = _zero_column_selection(cls)
    assert pair_residual(sys, (zero, T1)) <= PAIR_RESIDUAL_GATE

    def no_lookup(*args):
        raise AssertionError("MupProblem looked up an eigenvalue")

    monkeypatch.setattr(mup, "eigenvalues", no_lookup)
    monkeypatch.setattr(mup, "_nearest", no_lookup)
    with pytest.raises(SingularW, match="column 0 of X has zero norm"):
        MupProblem(sys, zero, T1, T1_new)
    with pytest.raises(SingularW, match="column 0 of X has zero norm"):
        IepProblem(cls, zero, T1)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_compute_S1_refuses_a_zero_column_and_a_moved_T1(cls):
    # compute_S1 judges its input itself: a zero column of X1 leaves the
    # matrix it inverts singular, and T1 moved off the spectrum by 1e-6
    # leaves an S1 that misses S1 = T1 S1 T1* (defects near 2e-6).
    sys, X1, zero, T1, _ = _zero_column_selection(cls)
    with pytest.raises(SingularS1Precursor, match="is singular"):
        compute_S1(sys, zero, T1)
    with pytest.raises(MembershipCheckFailed, match="S1 = T1 S1 T1"):
        compute_S1(sys, X1, T1 * (1 + 1e-6))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_first_draw_census_of_free_updates(cls):
    # A free update draws only the isometry in Psi, so replacing k in
    # {2, 4} eigenvalues of a random system, group for group, succeeds on
    # the first draw at every seed.
    attempts = {}
    for n in (4, 8):
        sys = random_system(cls, n, 7)
        e = eig_full(sys)
        for k in (2, 4):
            idx = closed_selection(e, k)
            T1 = np.diag(e.values[idx])
            for seed in range(3):
                new = replacement_values(cls, e.values[idx], np.random.default_rng(seed))
                attempts[n, k, seed] = update_model_result(MupProblem(
                    sys, e.vectors[:, idx], T1, np.diag(new), seed=seed)).attempts
    assert set(attempts.values()) == {1}, attempts


def test_problem_refuses_a_negative_seed():
    # numpy would refuse it only at the first draw, untyped.
    sys, replace, new = update_fixture("ta")
    X1, T1, _, _ = select_pairs(eig_full(sys), replace)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        MupProblem(sys, X1, T1, np.diag(new), seed=-1)


def _problem(kind, seed):
    """An IepProblem or a MupProblem of the reference fixtures, with seed."""
    from palinverse.iep import IepProblem
    from reference_problems import iep_fixture

    if kind == "iep":
        return IepProblem(TP, *iep_fixture(TP), seed=seed)
    sys, replace, new = update_fixture("ta")
    X1, T1, _, _ = select_pairs(eig_full(sys), replace)
    return MupProblem(sys, X1, T1, np.diag(new), seed=seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(2.0), "3", None],
                         ids=["1.5", "2.0", "float64", "str", "None"])
@pytest.mark.parametrize("kind", ["iep", "mup"])
def test_problem_refuses_a_seed_that_is_no_integer(kind, seed):
    # A seed is an integer >= 0 (README): any value operator.index refuses
    # is refused up front with ValueError, as a negative seed is, not by
    # numpy at the first draw or by a failed comparison.
    with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got "):
        _problem(kind, seed)


@pytest.mark.parametrize("kind", ["iep", "mup"])
def test_problem_takes_a_numpy_integer_seed(kind):
    problem = _problem(kind, np.int64(2))
    assert problem.seed == 2 and type(problem.seed) is int


def test_problem_validation_residual_gate():
    sys, replace, new = update_fixture("ta")
    rng = np.random.default_rng(16)
    X1 = random_complex(rng, 3, 2)
    with pytest.raises(ResidualTooLarge):
        MupProblem(sys, X1, np.diag(replace).astype(complex), np.diag(new))


@pytest.mark.parametrize("cls_code", ["tp", "ta", "hp", "ha"])
def test_update_random_systems(cls_code):
    from palinverse.system import SymmetryClass

    cls = SymmetryClass.from_code(cls_code)
    done = 0
    seed = 900
    while done < 3:
        seed += 1
        sys = random_system(cls, 4, seed=seed)
        e = eig_full(sys)
        if not (e.pairing_complete and separated_spectrum(e)):
            continue
        # pick the pair of the smallest-modulus eigenvalue
        i = int(np.argmin(np.abs(e.values)))
        j = e.partner_index(i)
        if j == i:
            continue
        targets = [e.values[i], e.values[j]]
        X1, T1, X2, T2 = select_pairs(e, targets)
        mu = 0.45 * np.exp(1j * (0.8 + seed % 3))
        new = [mu, 1 / cls.star_scalar(mu)]
        res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=seed))
        assert pair_residual(res.system, (X2, T2)) <= 1e-9
        e2 = eig_full(res.system)
        for v in new:
            assert min(abs(e2.values - v)) <= 1e-6
        done += 1


def test_update_parity_guard_transpose_anti():
    # Odd-order transpose-anti systems must keep +-1 in the spectrum; a
    # replacement wiping them out is rejected up front.
    from palinverse.errors import Infeasible
    from palinverse.system import TA

    done = False
    seed = 400
    while not done:
        seed += 1
        sys = random_system(TA, 3, seed=seed)
        e = eig_full(sys)
        if not (e.pairing_complete and separated_spectrum(e)):
            continue
        plus = int(np.argmin(abs(e.values - 1.0)))
        minus = int(np.argmin(abs(e.values + 1.0)))
        if abs(e.values[plus] - 1.0) > 1e-8 or abs(e.values[minus] + 1.0) > 1e-8:
            continue
        X1, T1, _, _ = select_pairs(e, [e.values[plus], e.values[minus]])
        mu = 0.5 * np.exp(0.4j)
        with pytest.raises(Infeasible, match="parity"):
            MupProblem(sys, X1, T1, np.diag([mu, 1 / mu]))
        done = True


def test_update_value_beyond_the_order_is_infeasible():
    # Four values +1 at order 3: a semisimple eigenvalue has at most n
    # eigenvectors, so no update reaches that spectrum, and MupProblem
    # refuses it before any draw.
    from palinverse.errors import Infeasible

    sys = random_system(TP, 3, 5)
    e = eig_full(sys)
    old = [i for pair in e.pairing if pair[0] != pair[1] for i in pair][:4]
    with pytest.raises(Infeasible, match="multiplicity: eigenvalue 1.* 4 times"):
        MupProblem(sys, e.vectors[:, old], np.diag(e.values[old]), np.eye(4))


def test_clustered_selection_is_defective():
    # One unimodular eigenpair given twice, its second value 1e-10 away:
    # an invariant pair within the gate, but not a semi-simple selection.
    sys = random_system(HP, 4, 0)
    e = eig_full(sys)
    i = int(np.argmin(np.abs(np.abs(e.values) - 1.0)))
    assert e.partner_index(i) == i
    x, lam = e.vectors[:, i:i + 1], e.values[i]
    with pytest.raises(DefectiveSpectrum, match="cluster; semi-simple selection required"):
        MupProblem(sys, np.hstack([x, x]), np.diag([lam, lam * (1 + 1e-10)]),
                   np.diag([np.exp(0.2j), np.exp(0.3j)]))


def test_problem_shapes_are_dimension_mismatch():
    sys, replace, new = update_fixture("tp")
    X1, T1, _, _ = select_pairs(eig_full(sys), replace)
    off = T1.copy()
    off[0, 1] = 1.0
    for change, message in [({"T1": np.ones((2, 3))}, "T1 must be square"),
                            ({"T1": off}, "T1 must be diagonal"),
                            ({"X1": X1[:, :1]}, "X1 must be n-by-k"),
                            ({"X1": X1[:-1]}, "X1 must be n-by-k"),
                            ({"T1_new": np.diag([*new, 0.5])}, "T1_new must match T1 in size"),
                            ({"X1_new": np.ones((sys.n, 3))}, "X1_new must be n-by-k"),
                            ({"X1_new": np.ones((sys.n + 1, 2))}, "X1_new must be n-by-k")]:
        args = dict(sys=sys, X1=X1, T1=T1, T1_new=np.diag(new)) | change
        with pytest.raises(DimensionMismatch, match=message):
            MupProblem(**args)


def test_update_of_nothing_is_dimension_mismatch():
    # Nothing selected is refused before any decomposition.
    sys, _, _ = update_fixture("tp")
    X1, T1, _, _ = select_pairs(eig_full(sys), [])
    with pytest.raises(DimensionMismatch, match="at least one"):
        MupProblem(sys, X1, T1, T1)


def _fixture_problem(code, **kwargs):
    sys, replace, new = update_fixture(code)
    X1, T1, _, _ = select_pairs(eig_full(sys), replace)
    return MupProblem(sys, X1, T1, np.diag(new), seed=4, **kwargs)


def test_update_retry_exhaustion_counts_reasons(monkeypatch):
    # Every draw fails the output symmetry gate: the one exhausted error
    # reports what actually failed, not a singular Xi.
    def always_asymmetric(*args):
        raise SymmetryViolation("forced")

    monkeypatch.setattr(mup, "_finish", always_asymmetric)
    with pytest.raises(RetryExhausted,
                       match=r"in 20 attempts: SymmetryViolation 20 \(") as info:
        update_model_result(_fixture_problem("ta"))
    assert info.value.reasons == Counter(SymmetryViolation=20)


def test_prescribed_retry_exhaustion_counts_mixed_reasons(monkeypatch):
    failures = iter([XiSingular, SymmetryViolation, ResidualTooLarge,
                     SymmetryViolation])

    def fail_in_turn(*args):
        raise next(failures)("forced")

    free = update_model_result(_fixture_problem("hp"))
    problem = _fixture_problem("hp", X1_new=free.X1_new)
    monkeypatch.setattr(mup, "RETRY_ATTEMPTS", 3)
    monkeypatch.setattr(mup, "_finish", fail_in_turn)
    with pytest.raises(RetryExhausted) as info:
        update_model_prescribed(problem)
    assert "in 4 attempts: SymmetryViolation 2, XiSingular 1, " \
        "ResidualTooLarge 1 (" in str(info.value)
    assert info.value.reasons == Counter(
        SymmetryViolation=2, XiSingular=1, ResidualTooLarge=1)


def test_prescribed_update_returns_result():
    free = update_model_result(_fixture_problem("hp"))
    problem = _fixture_problem("hp", X1_new=free.X1_new)
    res = update_model_result(problem)
    assert isinstance(res, MupResult)
    assert res.attempts >= 1
    system = update_model_prescribed(problem)
    assert res.system.A1.tobytes() == system.A1.tobytes()
    assert res.system.A0.tobytes() == system.A0.tobytes()
    assert np.array_equal(res.X1_new, problem.X1_new)
    star = problem.sys.cls.star_of
    target = problem.X1 @ res.S1 @ star(problem.X1)
    assert fnorm(res.X1_new @ res.S1_new @ star(res.X1_new) - target) <= \
        1e-9 * fnorm(target)


def test_prescribed_all_candidates_singular(monkeypatch):
    # A transfer constraint whose only solution is S = 0: every candidate,
    # the particular solution and the draws alike, is singular.
    problem = _fixture_problem("ta")
    problem = _fixture_problem("ta", X1_new=problem.X1)
    monkeypatch.setattr(mup, "constrained_family",
                        lambda T, cls, X, C: (np.zeros_like(C), []))
    with pytest.raises(NoSolution) as info:
        update_model_result(problem)
    assert isinstance(info.value.__cause__, RetryExhausted)
    assert info.value.__cause__.reasons == Counter(SingularMatrix=21)


def _unimodular_system(cls, angles, X1, seed):
    """A system constructed from the eigenvectors X1 and the unimodular
    eigenvalues e^{i angles}, and its computed eigenpair (X1, T1) of them."""
    from palinverse.iep import IepProblem, solve_iep_partial_result

    values = np.exp(1j * np.asarray(angles))
    sys = solve_iep_partial_result(IepProblem(cls, X1, np.diag(values), seed=seed)).system
    X1, T1, _, _ = select_pairs(eig_full(sys), values)
    return sys, X1, T1


@pytest.mark.parametrize("cls", [HP, HA], ids=lambda c: c.code)
def test_free_update_of_a_unimodular_eigenvalue_solves_every_seed(cls):
    # S1_new carries the sign characteristic of S1, so no draw misses on a
    # sign: e^{0.5i} -> e^{0.8i} succeeds on the first draw for every seed.
    X1 = np.random.default_rng(5).standard_normal((3, 1))
    sys, X1, T1 = _unimodular_system(cls, [0.5], X1, 0)
    new, attempts = np.diag([np.exp(0.8j)]), []
    for seed in range(8):
        res = update_model_result(MupProblem(sys, X1, T1, new, seed=seed))
        assert pair_residual(res.system, (res.X1_new, new)) <= 1e-9
        attempts.append(res.attempts)
    assert attempts == [1] * 8


@pytest.mark.parametrize("cls", [HP, HA], ids=lambda c: c.code)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_free_update_of_unimodular_values_of_one_sign_solves_first_draw(cls, m):
    # m unimodular eigenvalues whose parameter block S1 is definite (all
    # of one sign), each moved by 0.15 rad at order 6: S1_new takes the
    # same signs, and every seed succeeds on its first draw.
    angles = 0.4 + 0.7 * np.arange(m)
    X1 = np.random.default_rng(30 + m).standard_normal((6, m))
    for seed in range(40):
        sys, X1s, T1 = _unimodular_system(cls, angles, X1, seed)
        # S1 is diagonal, imaginary for hp and real for ha.
        units = (-1j if cls.epsilon == 1 else 1) * np.diag(compute_S1(sys, X1s, T1))
        if abs(np.sign(units.real).sum()) == m:
            break
    else:
        raise RuntimeError("no definite S1 among the construction seeds")
    new = np.diag(np.exp(1j * (np.angle(np.diag(T1)) + 0.15)))
    for seed in range(20):
        res = update_model_result(MupProblem(sys, X1s, T1, new, seed=seed))
        assert res.attempts == 1
        assert pair_residual(res.system, (res.X1_new, new)) <= 1e-9


@pytest.mark.parametrize("cls", [HP, HA], ids=lambda c: c.code)
def test_free_update_beyond_the_sign_characteristic_is_infeasible(cls, monkeypatch):
    # Two unimodular eigenvalues whose S1 has two slots of one sign: an
    # off-circle pair gives S1_new one slot of each sign, so it cannot
    # carry them, and the update is refused before the first draw.  The
    # construction seed 1 gives S1 that inertia in both classes.
    X1 = np.random.default_rng(21).standard_normal((3, 2))
    sys, X1, T1 = _unimodular_system(cls, [0.3, 1.1], X1, 1)
    # i S1 is Hermitian for hp, S1 itself for ha.
    unit = 1j if cls.epsilon == 1 else 1
    p, q, zero = inertia(unit * compute_S1(sys, X1, T1))
    assert (sorted((p, q)), zero) == ([0, 2], 0)
    draws = []
    monkeypatch.setattr(mup, "_congruence_onto", lambda *args: draws.append(args))
    mu = 0.5 * np.exp(0.7j)
    with pytest.raises(Infeasible, match=r"inertia of S1: 1 pairs and 0 unimodular "
                       r"values cannot carry the inertia \((2, 0|0, 2)\)"):
        update_model_result(MupProblem(sys, X1, T1, np.diag([mu, 1 / np.conj(mu)])))
    assert draws == []


@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
@pytest.mark.parametrize("drift", [1e-9, 5e-9])
def test_free_update_to_a_pair_reciprocal_within_the_coincidence_tolerance(code, drift):
    # MupProblem pairs the replacement values within COINCIDE_RTOL (1e-8),
    # and S1_new is written on that pairing: a partner off by 1e-9 or
    # 5e-9 relative is updated, not refused as having no parameter space.
    # The prescribed update solves its parameter space on the same pairing,
    # so it takes the free update's eigenvectors too.
    sys, replace, new = update_fixture(code)
    X1, T1, X2, T2 = select_pairs(eig_full(sys), replace)
    T1_new = np.diag([new[0], new[1] * (1 + drift)])
    res = update_model_result(MupProblem(sys, X1, T1, T1_new, seed=4))
    assert pair_residual(res.system, (res.X1_new, T1_new)) <= 1e-9
    assert pair_residual(res.system, (X2, T2)) <= PAIR_RESIDUAL_GATE
    given = update_model_result(MupProblem(sys, X1, T1, T1_new, X1_new=res.X1_new, seed=5))
    assert pair_residual(given.system, (res.X1_new, T1_new)) <= OUTPUT_RESIDUAL_TOL
    assert pair_residual(given.system, (X2, T2)) <= PAIR_RESIDUAL_GATE


def _spillover_case(code, k):
    """A conditioning-filtered order-8 system with k/2 off-circle reciprocal
    pairs selected for replacement by pairs of modulus in [0.3, 0.6]."""
    from palinverse.system import SymmetryClass

    cls = SymmetryClass.from_code(code)
    for seed in range(601, 700):
        sys = random_system(cls, 8, seed=seed)
        e = eig_full(sys)
        pairs = [p for p in e.pairing if p[0] != p[1]]
        if e.pairing_complete and separated_spectrum(e) and len(pairs) >= k // 2:
            break
    else:
        raise RuntimeError(f"no separated {code} system found")
    targets = [e.values[i] for p in pairs[:k // 2] for i in p]
    X1, T1, _, _ = select_pairs(e, targets)
    new = []
    for m in range(k // 2):
        mu = (0.3 + 0.1 * m) * np.exp(1j * (0.7 + m))
        new += [mu, 1 / cls.star_scalar(mu)]
    return sys, X1, T1, np.diag(new), seed


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_problem_checks_eigenvalues_only(code, k, monkeypatch):
    # The overlap and parity checks need the kept eigenvalues, never their
    # eigenvectors.  The case's system carries eig_full's spectrum, so the
    # checks run on an equal system built afresh, which must solve.
    sys, X1, T1, T1_new, _ = _spillover_case(code, k)
    fresh = PalindromicSystem(sys.cls, sys.A1, sys.A0)

    def no_vectors(*args, **kwargs):
        raise AssertionError("MupProblem computed eigenvectors")

    monkeypatch.setattr(np.linalg, "eig", no_vectors)
    eigensolves = count_eigensolves(monkeypatch)
    MupProblem(fresh, X1, T1, T1_new)
    assert eigensolves == [False]


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_free_update_seeded_runs_repeat(code, k):
    sys, X1, T1, T1_new, seed = _spillover_case(code, k)
    a, b = (update_model_result(MupProblem(sys, X1, T1, T1_new, seed=seed))
            for _ in range(2))
    for name in ("A1", "A0"):
        assert getattr(a.system, name).tobytes() == getattr(b.system, name).tobytes()
    assert a.X1_new.tobytes() == b.X1_new.tobytes()
    assert a.attempts == b.attempts
    # The assembled A0 is structured exactly; the defect it shed is kept.
    assert a.system.symmetry_defect() == 0.0
    assert a.a0_defect == b.a0_defect == a.system.a0_defect > 0.0


def _large_modulus_cases():
    for n in (8, 48):
        for cls in ALL_CLASSES:
            for modulus in (3000.0, 1 / 3000.0):
                marks = ()
                if (cls, n, modulus) == (HA, 8, 3000.0):
                    marks = pytest.mark.xfail(strict=True, reason=(
                        "kept-pair residual 1.5e-8 above PAIR_RESIDUAL_GATE: the "
                        "T^-2 term of the A0 assembly cancels ~modulus^2 of its "
                        "digits (ROADMAP item 1)"))
                suffix = "" if n == 8 else f"-n{n}"
                yield pytest.param(cls, modulus, n, marks=marks,
                                   id=f"{cls.code}-{modulus}{suffix}")


@pytest.mark.parametrize("cls,modulus,n", _large_modulus_cases())
def test_free_update_to_large_modulus(cls, modulus, n):
    # The new T1 and its square are diagonal with condition modulus^4
    # (8e13); they are divided exactly, never refused as singular.
    sys = random_system(cls, n, 3)
    X1, T1, X2, T2 = off_circle_pair(eig_full(sys))
    mu = modulus * np.exp(0.7j)
    T1_new = np.diag([mu, 1 / cls.star_scalar(mu)])
    res = update_model_result(MupProblem(sys, X1, T1, T1_new, seed=0))
    assert pair_residual(res.system, (res.X1_new, T1_new)) <= 1e-9
    # The kept pairs stay invariant pairs a further update accepts.
    assert pair_residual(res.system, (X2, T2)) <= PAIR_RESIDUAL_GATE


@pytest.mark.parametrize("scale", [1e-150, 1e-20, 1e20, 1e150])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_updates_hold_under_overall_scaling(cls, scale):
    # Scaling (A1, A0) by s keeps every eigenpair, and every gate is
    # relative to what it checks, so free and prescribed updates hold for
    # any s a float can carry.
    base = random_system(cls, 8, 3)
    sys = PalindromicSystem(cls, scale * base.A1, scale * base.A0)
    X1, T1, X2, T2 = off_circle_pair(eig_full(sys))
    mu = 0.5 * np.exp(0.7j)
    T1_new = np.diag([mu, 1 / cls.star_scalar(mu)])
    free = update_model_result(MupProblem(sys, X1, T1, T1_new, seed=0))
    prescribed = update_model_result(
        MupProblem(sys, X1, T1, T1_new, X1_new=free.X1_new, seed=1))
    for res in (free, prescribed):
        assert pair_residual(res.system, (res.X1_new, T1_new)) <= 1e-9
        assert pair_residual(res.system, (X2, T2)) <= 1e-8


def _fixture_update_case(code):
    sys, replace, new = update_fixture(code)
    X1, T1, _, _ = select_pairs(eig_full(sys), replace)
    return sys, X1, T1, np.diag(new)


def _random_update_case(code, k=8):
    """Order 48, as in the update benchmark: k/2 off-circle reciprocal
    pairs replaced by pairs of modulus in [0.3, 0.6]."""
    from palinverse.system import SymmetryClass

    cls = SymmetryClass.from_code(code)
    sys = random_system(cls, 48, seed=48)
    e = eig_full(sys)
    pairs = [p for p in e.pairing
             if p[0] != p[1] and abs(abs(e.values[p[0]]) - 1.0) > 0.05]
    X1, T1, _, _ = select_pairs(e, [e.values[i] for p in pairs[:k // 2] for i in p])
    new = []
    for m in range(k // 2):
        mu = (0.3 + 0.1 * m) * np.exp(1j * (0.7 + m))
        new += [mu, 1 / cls.star_scalar(mu)]
    return sys, X1, T1, np.diag(new)


@pytest.mark.parametrize("make_case", [_fixture_update_case, _random_update_case],
                         ids=["fixture", "order48"])
@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_update_outputs_do_not_depend_on_recorded_spectrum(make_case, code):
    # sys carries eig_full's eigenvalues; an equal system built afresh
    # solves for its values alone.  The two differ at roundoff, and they
    # only feed the problem's gates, so every output bit agrees.
    sys, X1, T1, T1_new = make_case(code)
    fresh = PalindromicSystem(sys.cls, sys.A1, sys.A0)

    def outputs(s):
        free = update_model_result(MupProblem(s, X1, T1, T1_new, seed=3))
        prescribed = update_model_result(
            MupProblem(s, X1, T1, T1_new, X1_new=free.X1_new, seed=4))
        return [(r.system.A1.tobytes(), r.system.A0.tobytes(),
                 r.X1_new.tobytes(), r.attempts) for r in (free, prescribed)]

    assert outputs(fresh) == outputs(sys)


@pytest.mark.parametrize("k", [2, 8, 10], ids=["2k<n", "2k>n", "k>n"])
@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_low_rank_factors_match_order_n_change(code, k):
    # The update factorizes D1 in the coordinates of range([X1_new, X1]);
    # the n-by-n D1 (n = 8) is the reference for its factors and rank.
    sys, X1, T1, T1_new, seed = _spillover_case(code, k)
    free = update_model_result(MupProblem(sys, X1, T1, T1_new, seed=seed))
    prescribed = update_model_result(
        MupProblem(sys, X1, T1, T1_new, X1_new=free.X1_new, seed=seed + 1))
    for res in (free, prescribed):
        D1, rank = dense_update_change(sys.cls, X1, T1, res.S1, res.X1_new,
                                       T1_new, res.S1_new)
        assert res.rank == rank
        assert res.Z1.shape == res.Z2.shape == (sys.n, rank)
        assert fnorm(res.Z1 @ sys.cls.star_of(res.Z2) - D1) <= 1e-10 * fnorm(D1)


class _Logged(np.ndarray):
    """An array whose matrix products, and those of every array computed
    from it, append (rows, inner, columns) to _Logged.log."""

    log = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Logged) else x for x in inputs]
        if ufunc is np.matmul and all(np.ndim(x) == 2 for x in plain):
            _Logged.log.append(plain[0].shape + plain[1].shape[1:])
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_Logged) if isinstance(out, np.ndarray) else out


def _log_products(monkeypatch, sys):
    """(rows, inner, columns) of every matrix product an update of sys
    forms from now on from its coefficients.  They become views that log
    their products; the sigma_min record moves onto the new A1."""
    monkeypatch.setattr(_Logged, "log", [])
    smin = sys._a1_sigma_min[1]
    sys.A1, sys.A0 = sys.A1.view(_Logged), sys.A0.view(_Logged)
    sys._a1_sigma_min = (sys.A1, smin)
    return _Logged.log


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_update_decomposes_nothing_of_order_n_but_the_new_a1(code, k, monkeypatch):
    # Every rank-2k product is decomposed in range coordinates, and the new
    # A1 is certified nonsingular by its Woodbury floor, so past the
    # problem's checks an update at n = 48 runs no SVD or eigensolve of
    # order above 2k, not even the sigma-ratio gate of the new A1, and
    # multiplies no two matrices all of whose dimensions exceed 2k.  The
    # transfer constraint is a real system of 2 k^2 rows (not 2 n^2) over
    # at most 2k unknowns.
    sys, X1, T1, T1_new = _random_update_case(code, k)
    free_problem = MupProblem(sys, X1, T1, T1_new, seed=3)
    decomposed = log_decompositions(monkeypatch, 2 * k)
    products = _log_products(monkeypatch, sys)

    def order_n_products():
        return [dims for dims in products if min(dims) > 2 * k]

    free = update_model_result(free_problem)
    assert decomposed == [] and products and order_n_products() == []

    prescribed_problem = MupProblem(sys, X1, T1, T1_new, X1_new=free.X1_new, seed=4)
    decomposed.clear()
    products.clear()
    update_model_result(prescribed_problem)
    ((name, transfer),) = decomposed
    assert name == "svd" and transfer.dtype == np.float64
    assert transfer.shape[0] == 2 * k * k and transfer.shape[1] <= 2 * k
    assert order_n_products() == []


def _farthest_pair(e):
    """(X1, T1) of the reciprocal pair of e farthest from the unit circle."""
    i = next(i for i in np.argsort(-np.abs(np.log(np.abs(e.values))))
             if e.partner_index(i) != i)
    return select_pairs(e, [e.values[i], e.values[e.partner_index(i)]])[:2]


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_chained_updates_stay_certified(cls, monkeypatch):
    # Five free updates in a row (k = 2), each replacing the pair farthest
    # from the unit circle: the base system's validation is the only SVD
    # of order above 2k, and every child records a floor on sigma_min(A1)
    # that the true value respects.
    sys = random_system(cls, 48, 7)
    svd = np.linalg.svd
    decomposed = log_decompositions(monkeypatch, 4)
    for step in range(5):
        X1, T1 = _farthest_pair(eig_full(sys))
        mu = (0.3 + 0.05 * step) * np.exp(1j * (0.4 + step))
        T1_new = np.diag([mu, 1 / cls.star_scalar(mu)])
        sys = update_model_result(MupProblem(sys, X1, T1, T1_new, seed=step)).system
        floor = sys._a1_sigma_min[1]
        assert 0.0 < floor <= svd(sys.A1, compute_uv=False)[-1]
    assert [a.shape for name, a in decomposed if name == "svd"] == []


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_update_of_a_nearly_singular_a1_runs_the_svd(cls, monkeypatch):
    # sigma_min / sigma_max of the base A1 is 1e-9, so it warns, and the
    # floor of the new A1 cannot certify it past A1_WARN_RTOL: validation
    # runs its order-n SVD and warns with the ratio it computes.  The
    # scalar block (A1 entry s, A0 entry 0) has eigenvalues +-1 or +-i and
    # is untouched by an update of the order-7 block.
    block = random_system(cls, 7, 3)
    A1 = np.zeros((8, 8), dtype=complex)
    A0 = np.zeros((8, 8), dtype=complex)
    A1[:7, :7], A0[:7, :7] = block.A1, block.A0
    A1[7, 7] = 1e-9 * np.linalg.norm(block.A1, 2)
    with pytest.warns(UserWarning, match="nearly singular"):
        sys = PalindromicSystem(cls, A1, A0)
    X1, T1 = _farthest_pair(eig_full(sys))
    mu = 0.5 * np.exp(0.7j)
    problem = MupProblem(sys, X1, T1, np.diag([mu, 1 / cls.star_scalar(mu)]), seed=0)
    decomposed = log_decompositions(monkeypatch, 4)
    with pytest.warns(UserWarning, match="nearly singular") as caught:
        res = update_model_result(problem)
    ((name, A1_new),) = decomposed
    assert name == "svd" and np.array_equal(A1_new, res.system.A1)
    s = np.linalg.svd(A1_new, compute_uv=False)
    assert [str(w.message) for w in caught] == [
        f"A1 is nearly singular (sigma_min/sigma_max = {s[-1] / s[0]:.3e}); "
        "results may be inaccurate"]
    assert res.system._a1_sigma_min[1] == s[-1]

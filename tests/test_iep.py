import inspect
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (closed_selection, jordan_matrix, log_decompositions, off_circle_pair,
                     pair_defect, random_complex, random_system, singular_draws)
from palinverse.errors import (BadIndices, DimensionMismatch, Infeasible, NoSolution,
                               PairingNotClosed, RetryExhausted, SingularW,
                               SpectraOverlap, SymmetryViolation, UnsupportedRegime)
from palinverse.forward import _group_values, eig_full
from palinverse.iep import (IepProblem, solve_iep_full,
                            solve_iep_partial_result, solve_psi)
from palinverse.numerics import fnorm
from palinverse.structfact import _closed_form_block, build_delta, star_factorize
from palinverse.system import (ALL_CLASSES, HA, HP, TA, TP, PalindromicSystem,
                               pair_residual)
from reference_problems import iep_fixture
from strategies import draw_pairing


def test_full_iep_scalar():
    sys = solve_iep_full(np.array([[1.0, 1.0]]), np.diag([1.0, -1.0]), TA, seed=0)
    # Proportional to lambda^2 - 1.
    assert abs(sys.A0[0, 0] / sys.A1[0, 0]) < 1e-12


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_full_iep_roundtrip_spectrum(cls):
    from helpers import random_system

    src = random_system(cls, 3, seed=50)
    e = eig_full(src)
    sys = solve_iep_full(e.vectors, np.diag(e.values), cls, seed=1)
    e2 = eig_full(sys)
    for v in e.values:
        assert min(abs(e2.values - v)) <= 1e-6 * max(1.0, abs(v))


def test_full_iep_degenerate_repeated_columns():
    # A triple-repeated eigenvector column forces the isotropy constraint
    # to zero out one pair parameter, leaving only singular candidates.
    rng = np.random.default_rng(3)
    x = random_complex(rng, 2, 1)
    y = random_complex(rng, 2, 1)
    X = np.hstack([x, x, x, y])
    T = np.diag([2.0, 3.0, 0.5, 1 / 3.0]).astype(complex)
    with pytest.raises(NoSolution):
        solve_iep_full(X, T, TP, seed=0)


def test_full_iep_simple_unit_eigenvalue_rejected():
    rng = np.random.default_rng(4)
    X = random_complex(rng, 2, 4)
    T = np.diag([1.0, -1.0, 2.0, 0.5]).astype(complex)
    with pytest.raises(NoSolution):
        solve_iep_full(X, T, TP, seed=0)


@pytest.mark.parametrize("code", ["tp", "ta", "hp", "ha"])
def test_iep_reference_fixture(code):
    from palinverse.system import SymmetryClass

    cls = SymmetryClass.from_code(code)
    X1, T1 = iep_fixture(cls)
    sol = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=5))
    assert sol.residual <= 1e-10
    defect = sol.system.symmetry_defect()
    assert defect <= 1e-11 * max(fnorm(sol.system.A0), fnorm(sol.system.A1))
    e = eig_full(sol.system)
    for lam in np.diag(T1):
        assert min(abs(e.values - lam)) <= 1e-6 * max(1.0, abs(lam))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 4), (6, 4)])
def test_iep_partial_various_sizes(cls, n, k):
    rng = np.random.default_rng(60 + n + k)
    vals = []
    for i in range(k // 2):
        mu = (0.3 + 0.12 * i) * np.exp(1j * (0.4 + 1.1 * i))
        vals += [mu, 1 / cls.star_scalar(mu)]
    X1 = random_complex(rng, n, k)
    sol = solve_iep_partial_result(IepProblem(cls, X1, np.diag(vals), seed=9))
    assert sol.residual <= 1e-9
    assert pair_residual(sol.system, (X1, np.diag(vals))) <= 1e-9
    # Constructed S satisfies the full membership conditions.
    from palinverse.spectral import _check_membership
    _check_membership([(sol.X, sol.T, sol.S)], cls)


def test_iep_partial_reduces_to_full_at_k_equals_2n():
    from helpers import random_system

    src = random_system(HA, 2, seed=70)
    e = eig_full(src)
    prob = IepProblem(HA, e.vectors, np.diag(e.values), seed=2)
    sol = solve_iep_partial_result(prob)
    # The drawn member of the parameter space of the whole pair.
    from palinverse.spectral import _check_membership
    _check_membership([(sol.X, sol.T, sol.S)], HA)
    assert pair_residual(sol.system, (e.vectors, np.diag(e.values))) <= 1e-8


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_full_iep_direct_step_and_entry_agree_bit_for_bit(cls):
    # Both normalise X once and draw through the same loop, so the k = 2n
    # step bench/ calls by name and the entry build the same system, even
    # for badly scaled columns.
    from helpers import random_system

    e = eig_full(random_system(cls, 4, seed=12))
    T = np.diag(e.values)
    X = e.vectors * 10.0 ** np.random.default_rng(12).uniform(-3, 3, T.shape[0])
    direct = solve_iep_full(X, T, cls, seed=3)
    entry = solve_iep_partial_result(IepProblem(cls, X, T, seed=3)).system
    assert direct.A1.tobytes() == entry.A1.tobytes()
    assert direct.A0.tobytes() == entry.A0.tobytes()


def test_full_iep_retries_a_singular_leading_block(monkeypatch):
    # At k = 2n a draw that misses a gate is drawn again, as for k < 2n:
    # the first draw's X T^-1 S X* is reported singular, the second passes.
    from helpers import random_system
    from palinverse import spectral

    e = eig_full(random_system(TP, 3, seed=4))
    X, T = e.vectors, np.diag(e.values)
    real, calls = spectral.sv_min_ratio, []

    def singular_once(a):
        calls.append(a.shape)
        return (0.0, 0.0) if len(calls) == 1 else real(a)

    monkeypatch.setattr(spectral, "sv_min_ratio", singular_once)
    sol = solve_iep_partial_result(IepProblem(TP, X, T, seed=1))
    assert calls == [(3, 3), (3, 3)]
    assert sol.attempts == 2
    assert pair_residual(sol.system, (X, T)) <= 1e-9


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_constructed_a1_is_certified_by_its_leading_block(cls, monkeypatch):
    # 1 / sigma_max(X T^-1 S X*), less its roundoff margin, is a floor on
    # sigma_min of the stored A1, so validation runs no SVD of A1.
    from palinverse import system

    X1, T1 = iep_fixture(cls)
    real, calls = system.sv_min_ratio, []
    monkeypatch.setattr(system, "sv_min_ratio",
                        lambda a: calls.append(a.shape) or real(a))
    for k in (2, 4):
        sol = solve_iep_partial_result(IepProblem(cls, X1[:, :k], T1[:k, :k], seed=2))
        floor = sol.system._a1_sigma_min[1]
        smin = np.linalg.svd(sol.system.A1, compute_uv=False)[-1]
        assert 0.999 * smin <= floor <= smin
    assert calls == []


def test_problem_refuses_a_negative_seed():
    # numpy would refuse it only at the first draw, untyped.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        IepProblem(TP, *iep_fixture(TP), seed=-1)


@pytest.mark.parametrize("seed", [1.5, "3", -1, None, np.float64(2.0)],
                         ids=["1.5", "str", "-1", "None", "float64"])
def test_full_solve_refuses_a_bad_seed_before_solving(seed, monkeypatch):
    # solve_iep_full checks its seed as IepProblem does, with ValueError,
    # before the parameter space is solved.
    from palinverse import iep

    calls = []
    monkeypatch.setattr(iep, "solution_space", lambda *args: calls.append(args))
    e = eig_full(random_system(TP, 3, seed=50))
    with pytest.raises(ValueError, match="seed must be"):
        solve_iep_full(e.vectors, np.diag(e.values), TP, seed=seed)
    assert calls == []


@pytest.mark.parametrize("cls", [TP, HA], ids=lambda c: c.code)
def test_iep_full_pair_rejects_remaining_eigenvalues(cls):
    # A full pair leaves no eigenvalue to choose: a non-empty list is
    # refused, not silently dropped; an empty one is the plain full solve.
    from helpers import random_system

    e = eig_full(random_system(cls, 3, seed=5))
    X, T = e.vectors, np.diag(e.values)
    with pytest.raises(DimensionMismatch,
                       match="expected 0 remaining eigenvalues, got 3"):
        solve_iep_partial_result(IepProblem(
            cls, X, T, remaining_eigenvalues=[0.5, 2.0, 7 + 1j]))
    plain = solve_iep_partial_result(IepProblem(cls, X, T)).system
    empty = solve_iep_partial_result(IepProblem(
        cls, X, T, remaining_eigenvalues=[])).system
    assert np.array_equal(empty.A1, plain.A1)
    assert np.array_equal(empty.A0, plain.A0)


def test_iep_partial_determinism():
    cls = HP
    X1, T1 = iep_fixture(cls)
    s1 = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=31)).system
    s2 = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=31)).system
    assert np.array_equal(s1.A1, s2.A1)
    assert np.array_equal(s1.A0, s2.A0)


def test_iep_parity_infeasible_tp():
    rng = np.random.default_rng(8)
    # k = 2 prescribed, n = 2 -> r = 2 works; force odd r with n = 2, k = 1?
    # k must be pairing closed, so use n = 3, k = 2 -> r = 4 (fine) and
    # instead drive the parity error through explicit remaining values.
    mu = 0.4 * np.exp(0.7j)
    X1 = random_complex(rng, 3, 2)
    prob = IepProblem(TP, X1, np.diag([mu, 1 / mu]), seed=0,
                      remaining_eigenvalues=[2.0, 0.5, 3.0, 1 / 3.0])
    sol = solve_iep_partial_result(prob)  # consistent: all pairs
    assert sol.residual <= 1e-9
    bad = IepProblem(TP, X1, np.diag([mu, 1 / mu]), seed=0,
                     remaining_eigenvalues=[2.0, 0.5, 1.0, -1.0])
    with pytest.raises(Infeasible):
        solve_iep_partial_result(bad)


def test_iep_ta_parity_forces_unit_singletons():
    # Odd order: +1 and -1 are forced into the spectrum.
    rng = np.random.default_rng(9)
    mu = 0.45 * np.exp(0.9j)
    X1 = random_complex(rng, 3, 2)
    sol = solve_iep_partial_result(IepProblem(TA, X1, np.diag([mu, 1 / mu]), seed=3))
    e = eig_full(sol.system)
    assert min(abs(e.values - 1.0)) < 1e-6
    assert min(abs(e.values + 1.0)) < 1e-6


def test_iep_remaining_conflicts():
    rng = np.random.default_rng(10)
    mu = 0.4 * np.exp(0.7j)
    X1 = random_complex(rng, 3, 2)
    T1 = np.diag([mu, 1 / mu])
    # A collision, a wrong count and an unpaired value, each by its own type.
    with pytest.raises(SpectraOverlap, match="collides with the prescribed"):
        solve_iep_partial_result(IepProblem(
            TP, X1, T1, remaining_eigenvalues=[mu, 1 / mu, 2.0, 0.5]))
    with pytest.raises(DimensionMismatch, match="expected 4 remaining"):
        solve_iep_partial_result(IepProblem(
            TP, X1, T1, remaining_eigenvalues=[2.0, 0.5, 3.0]))
    with pytest.raises(PairingNotClosed):
        solve_iep_partial_result(IepProblem(
            TP, X1, T1, remaining_eigenvalues=[2.0, 0.6, 3.0, 1 / 3.0]))
    # nan and inf are no eigenvalues: a ValueError in every class, as for a
    # matrix entry, before any admission rule reads them.
    for cls in ALL_CLASSES:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="remaining eigenvalues contains non-finite"):
                solve_iep_partial_result(IepProblem(
                    cls, X1, np.diag([mu, 1 / cls.star_scalar(mu)]),
                    remaining_eigenvalues=[2.0, 0.5, bad, 1 / 3.0]))


def test_iep_user_remaining_respected():
    rng = np.random.default_rng(11)
    mu = 0.4 * np.exp(0.7j)
    want = [0.2 + 0.1j, 1 / np.conj(0.2 + 0.1j), 0.6 - 0.3j, 1 / np.conj(0.6 - 0.3j)]
    X1 = random_complex(rng, 3, 2)
    sol = solve_iep_partial_result(IepProblem(
        HP, X1, np.diag([mu, 1 / np.conj(mu)]), seed=1,
        remaining_eigenvalues=want))
    e = eig_full(sol.system)
    for v in want:
        assert min(abs(e.values - v)) <= 1e-6


@pytest.mark.parametrize("cls", [HP, HA], ids=lambda c: c.code)
def test_iep_given_remaining_solves_every_seed(cls):
    # Two unimodular prescribed values leave the inertia of S1 to the draw;
    # one draw in two misses the sign split that two remaining pairs need.
    # The counts are consistent, so a miss is retried, never Infeasible.
    X1 = random_complex(np.random.default_rng(21), 3, 2)
    T1 = np.diag([np.exp(0.3j), np.exp(1.1j)])
    want = [0.2 + 0.1j, 1 / np.conj(0.2 + 0.1j), 0.6 - 0.3j, 1 / np.conj(0.6 - 0.3j)]
    retried = 0
    for seed in range(40):
        sol = solve_iep_partial_result(IepProblem(
            cls, X1, T1, seed=seed, remaining_eigenvalues=want))
        assert sol.residual <= 1e-9
        retried += sol.attempts > 1
    assert retried > 0


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_first_draw_census_of_constructions(cls):
    # Generic eigendata never needs a second draw: k in {2, n, 2n}
    # eigenpairs of a random system solve on the first draw at every seed.
    attempts = {}
    for n in (4, 8):
        e = eig_full(random_system(cls, n, 7))
        for k in (2, n, 2 * n):
            idx = closed_selection(e, k)
            for seed in range(3):
                attempts[n, k, seed] = solve_iep_partial_result(IepProblem(
                    cls, e.vectors[:, idx], np.diag(e.values[idx]), seed=seed)).attempts
    assert set(attempts.values()) == {1}, attempts


@pytest.mark.parametrize("units", [[1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
                                   [1.0, 1.0, 1.0, 1.0]],
                         ids=["pp", "ppmm", "pppp"])
def test_iep_tp_given_double_unit_eigenvalues(units):
    # Equal +-1 values of a transpose-palindromic system pair as a
    # reciprocal pair does, into a skew block of S2.  Order 4: a semisimple
    # eigenvalue of a regular system has multiplicity at most n.
    mu = 0.4 * np.exp(0.7j)
    X1 = random_complex(np.random.default_rng(14), 4, 2)
    remaining = units + [2.0, 0.5, 3.0, 1 / 3.0][:6 - len(units)]
    sol = solve_iep_partial_result(IepProblem(
        TP, X1, np.diag([mu, 1 / mu]), seed=0, remaining_eigenvalues=remaining))
    assert sol.residual <= 1e-9
    values = eig_full(sol.system).values
    for v in set(remaining):
        near = np.abs(values - v) <= 1e-6
        assert np.count_nonzero(near) == remaining.count(v)


@pytest.mark.parametrize("cls,value", [(TP, 1.0), (HP, np.exp(0.5j))],
                         ids=["tp-plus-one", "hp-unimodular"])
def test_iep_value_beyond_the_order_is_infeasible(cls, value, monkeypatch):
    # Four remaining copies of one value at order 3: a semisimple eigenvalue
    # has at most n eigenvectors, so no draw can succeed, and the solve
    # raises Infeasible before the first one.
    from palinverse import iep

    draws = []
    monkeypatch.setattr(iep, "sample_nonsingular", lambda *args: draws.append(args))
    mu = 0.4 * np.exp(0.7j)
    X1 = random_complex(np.random.default_rng(14), 3, 2)
    problem = IepProblem(cls, X1, np.diag([mu, 1 / cls.star_scalar(mu)]), seed=0,
                         remaining_eigenvalues=[value] * 4)
    with pytest.raises(Infeasible, match="multiplicity: .* 4 times"):
        solve_iep_partial_result(problem)
    assert draws == []


def _reciprocal_pairs(count, start):
    zs = [(0.3 + 0.05 * (start + i)) * np.exp(1j * (0.4 + start + i))
          for i in range(count)]
    return [v for z in zs for v in (z, 1 / z)]


UNIT_PARITY_CASES = [(cls, n, mp, mm) for cls in (TP, TA) for n in (3, 4)
                     for mp in range(4) for mm in range(4)
                     if mp + mm <= 2 * n - 2 and (mp + mm) % 2 == 0]


@pytest.mark.parametrize("cls,n,m_plus,m_minus", UNIT_PARITY_CASES,
                         ids=[f"{c.code}-n{n}-{p}{m}"
                              for c, n, p, m in UNIT_PARITY_CASES])
def test_solve_and_update_share_the_unit_parity_rule(cls, n, m_plus, m_minus):
    # A solve whose prescribed pair and remaining eigenvalues make up a
    # spectrum with m_plus values +1 and m_minus values -1, and an update
    # whose final spectrum has the same multiplicities, are both refused as
    # Infeasible or both accepted.
    from palinverse.forward import select_pairs
    from palinverse.mup import MupProblem

    rng = np.random.default_rng(10 * n + 3 * m_plus + m_minus)
    mu = _reciprocal_pairs(1, 0)
    counts = {1.0: m_plus, -1.0: m_minus}
    rest = _reciprocal_pairs((2 * n - 2 - m_plus - m_minus) // 2, 1)
    try:
        solve_iep_partial_result(IepProblem(
            cls, random_complex(rng, n, 2), np.diag(mu), seed=0,
            remaining_eigenvalues=[p for p, m in counts.items()
                                   for _ in range(m)] + rest))
        solved = True
    except Infeasible:
        solved = False

    # The update keeps `kept` and replaces `old` by `new`.  A point whose
    # multiplicity a system can carry is kept; otherwise the replacement
    # brings it (or, at multiplicity 0, takes the one copy an odd-order
    # anti-palindromic system must carry).  The replaced values collide
    # with neither of the others.
    want = 0 if cls.epsilon == 1 else n % 2
    kept, new, old = list(rest), list(mu), []
    for point, m in counts.items():
        if m % 2 == want:
            kept += [point] * m
        elif m == 0:
            old.append(point)
        elif want == 0:
            new += [point] * m
        else:
            pytest.skip("an even +-1 multiplicity at odd order is reached "
                        "by no update free of collisions")
    old += _reciprocal_pairs((len(new) - len(old)) // 2, 2 * n)
    base_values = old[-2:] + kept + old[:-2]
    base = solve_iep_partial_result(IepProblem(
        cls, random_complex(rng, n, 2), np.diag(base_values[:2]), seed=0,
        remaining_eigenvalues=base_values[2:])).system
    X1, T1, _, _ = select_pairs(eig_full(base), old)
    try:
        MupProblem(base, X1, T1, np.diag(new))
        updated = True
    except Infeasible:
        updated = False
    assert updated == solved


def test_full_iep_parity_through_the_entry_as_for_k_below_2n():
    # A simple +1 and -1 break the tp parity; the entry refuses them at
    # k = 2n exactly as at k = 2, where solve_iep_full alone answers
    # NoSolution (test_full_iep_simple_unit_eigenvalue_rejected).
    X = random_complex(np.random.default_rng(4), 2, 4)
    T = np.diag([1.0, -1.0, 0.5, 2.0]).astype(complex)
    for k in (4, 2):
        with pytest.raises(Infeasible, match="parity"):
            solve_iep_partial_result(IepProblem(TP, X[:, :k], T[:k, :k], seed=0))


@pytest.mark.parametrize("n", [1, 3])
def test_full_iep_missing_forced_unit_value_is_infeasible(n):
    # Odd-order ta forces +1 and -1 into the spectrum; complete eigendata
    # without them breaks the parity as a prescribed +-1 does.
    X = random_complex(np.random.default_rng(n), n, 2 * n)
    values = [v for mu in (2.0, 3.0, 4.0)[:n] for v in (mu, 1 / mu)]
    with pytest.raises(Infeasible, match="parity"):
        solve_iep_partial_result(IepProblem(TA, X, np.diag(values), seed=0))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_prescribed_pair_gate_refuses_draws_of_a_far_pair(cls):
    # A prescribed pair of modulus 1e5 puts about rho^2 into the T^-2 sums
    # of the assembly (ROADMAP item 1), and _construct gates every pair it
    # returns, the caller's and the remaining block (X2, T2): every outcome
    # is a solution whose pairs all pass the gate or an exhaustion by that
    # gate alone, and both occur.  The parameter space holds no element
    # joining the small member to itself, so some draws pass.
    mu = 1e5 * np.exp(0.7j)
    T1 = np.diag([mu, 1 / cls.star_scalar(mu)])
    outcomes = Counter()
    for n in (6, 12):
        for seed in range(5):
            X1 = random_complex(np.random.default_rng(seed), n, 2)
            try:
                sol = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=seed))
            except RetryExhausted as exc:
                assert set(exc.reasons) == {"ResidualTooLarge"}, exc
                outcomes["exhausted"] += 1
            else:
                assert pair_residual(sol.system, (X1, T1)) <= 1e-9
                assert pair_residual(sol.system, (sol.X[:, 2:], sol.T[2:, 2:])) <= 1e-9
                outcomes["solved"] += 1
    assert outcomes["exhausted"] and outcomes["solved"], outcomes


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_full_iep_through_the_entry_refuses_non_standard_pairs(cls):
    # Complete eigendata gets IepProblem's typed refusals at the one entry.
    from helpers import random_system

    e = eig_full(random_system(cls, 4, 0))
    zero_value, unpaired, zero_column = e.values.copy(), e.values.copy(), e.vectors.copy()
    zero_value[0], zero_column[:, 0] = 0.0, 0.0
    unpaired[0] *= 1.7
    for X, values, error in ((e.vectors, zero_value, SingularW),
                             (zero_column, e.values, SingularW),
                             (e.vectors, unpaired, PairingNotClosed)):
        with pytest.raises(error):
            solve_iep_partial_result(IepProblem(cls, X, np.diag(values), seed=0))


def test_shape_errors_and_k_zero_are_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="do not conform"):
        IepProblem(TP, np.ones((3, 2)), np.eye(3))
    with pytest.raises(DimensionMismatch, match="n-by-2n"):
        solve_iep_full(np.ones((3, 2)), np.eye(2), TP)
    with pytest.raises(DimensionMismatch, match="at least one"):
        IepProblem(TP, np.zeros((3, 0)), np.zeros((0, 0)))


def test_iep_problem_validation():
    rng = np.random.default_rng(12)
    X1 = random_complex(rng, 3, 2)
    with pytest.raises(PairingNotClosed):
        IepProblem(TP, X1, np.diag([0.4 + 0.0j, 0.7]))


def test_solve_psi_examples():
    D = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    psi = solve_psi(D, D, TP)
    assert fnorm(psi @ D @ psi.T + D) <= 1e-10 * fnorm(D)

    D2 = np.diag([1j, -1j])
    psi = solve_psi(D2, D2, HP)
    assert fnorm(psi @ D2 @ psi.conj().T + D2) <= 1e-10 * fnorm(D2)

    D3 = np.diag([1.0 + 0j])
    O3 = np.eye(2, dtype=complex)
    psi = solve_psi(D3, O3, TA)
    assert psi.shape == (1, 2)
    assert fnorm(psi @ O3 @ psi.T + D3) <= 1e-10


def test_solve_psi_infeasible_inertia():
    # -Delta = diag(i, i) needs +i entries the all -i source cannot provide:
    # a pattern no congruence reaches, which claims nothing of the problem.
    delta = build_delta(HP, p=2, q=0, t=0, size=2)   # diag(-i, -i)
    omega = build_delta(HP, p=2, q=0, t=0, size=2)   # diag(-i, -i)
    with pytest.raises(BadIndices, match="inertia shortfall"):
        solve_psi(delta, omega, HP)


def test_iep_odd_k_tp_parity_error():
    # k = 1 with the only admissible unimodular value: the remainder count
    # 2n - k is odd, which this class cannot host.
    rng = np.random.default_rng(13)
    X1 = random_complex(rng, 2, 1)
    prob = IepProblem(TP, X1, np.diag([1.0 + 0j]), seed=0)
    with pytest.raises(Infeasible, match="parity"):
        solve_iep_partial_result(prob)


def test_iep_output_satisfies_reversal_identity():
    from helpers import reversal_defect
    from palinverse.system import eval_Q

    X1, T1 = iep_fixture(TP)
    sys = solve_iep_partial_result(IepProblem(TP, X1, T1, seed=5)).system
    lam = 2.0 + 1.0j
    val = reversal_defect(sys, lam)
    assert val <= 1e-10 * fnorm(eval_Q(sys, lam))


def test_iep_user_remaining_with_unimodular_singles():
    rng = np.random.default_rng(14)
    mu = 0.4 * np.exp(0.7j)
    X1 = random_complex(rng, 3, 2)
    pair = [0.55 - 0.2j, 1 / np.conj(0.55 - 0.2j)]
    singles = [np.exp(0.3j), np.exp(2.1j)]
    sol = solve_iep_partial_result(IepProblem(
        HP, X1, np.diag([mu, 1 / np.conj(mu)]), seed=2,
        remaining_eigenvalues=pair + singles))
    e = eig_full(sol.system)
    for v in pair + singles:
        assert min(abs(e.values - v)) <= 1e-6


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_iep_partial_any_column_scaling(cls):
    # X1 D with D = diag(10^U[-6, 6]) poses the same problem as X1.
    X1, T1 = iep_fixture(cls)
    for seed in range(6):
        D = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, X1.shape[1])
        sol = solve_iep_partial_result(IepProblem(cls, X1 * D, T1, seed=seed))
        assert pair_residual(sol.system, (X1, T1)) <= 1e-9


@pytest.mark.parametrize("scale", [1e-250, 1e-200, 1e-150, 1e-20, 1e20, 1e150, 1e200, 1e250])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_construction_holds_under_overall_scaling(cls, scale):
    # Eigendata of a system scaled by s, with eigenvectors scaled by s:
    # every gate is relative, so k = 2 and k = 2n construct for any s, and
    # the residual of the scaled pair reads its roundoff, not 0.
    base = random_system(cls, 8, 3)
    e = eig_full(PalindromicSystem(cls, scale * base.A1, scale * base.A0))
    X1, T1 = off_circle_pair(e)[:2]
    for X, T in ((scale * X1, T1), (scale * e.vectors, np.diag(e.values))):
        sol = solve_iep_partial_result(IepProblem(cls, X, T, seed=0))
        assert 0.0 < pair_residual(sol.system, (X, T)) <= 1e-9


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_full_iep_any_column_scaling(cls):
    # X D with D = diag(10^U[-6, 6]) poses the same problem as X for a
    # diagonal T; the full solve takes X with unit columns, called directly
    # and through the one entry.
    from helpers import random_system

    for seed in range(6):
        e = eig_full(random_system(cls, 6, seed))
        T = np.diag(e.values)
        D = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, T.shape[0])
        entry = solve_iep_partial_result(IepProblem(cls, e.vectors * D, T, seed=seed))
        for sys in (solve_iep_full(e.vectors * D, T, cls, seed=seed), entry.system):
            assert pair_residual(sys, (e.vectors, T)) <= 1e-9


def test_iep_partial_retry_exhaustion_counts_reasons(monkeypatch):
    # A draw whose assembled A0 misses the symmetry gate is retried like a
    # residual failure; exhaustion reports the count per reason.
    from palinverse import iep

    def always_asymmetric(*args):
        raise SymmetryViolation("forced")

    monkeypatch.setattr(iep, "_coefficients_from_blocks", always_asymmetric)
    X1, T1 = iep_fixture(TP)
    with pytest.raises(RetryExhausted,
                       match=r"in 20 attempts: SymmetryViolation 20 \(") as info:
        solve_iep_partial_result(IepProblem(TP, X1, T1, seed=5))
    assert info.value.reasons == Counter(SymmetryViolation=20)


def test_t_proxies_state_the_ratio_they_measured():
    # A diagonal T1 of modulus 1e6 is nonsingular; the proxies refuse it on
    # its sigma ratio, and say so.
    from palinverse.errors import SingularMatrix
    from palinverse.paramspace import s_basis

    mu = 1e6 * np.exp(0.7j)
    T1 = np.diag([mu, 1 / np.conj(mu)])
    measured = r"sigma_min/sigma_max of {} is 1\.000e-12, at or below SINGULAR_RTOL = 1e-12"
    with pytest.raises(SingularW, match=measured.format("T1")):
        IepProblem(HP, random_complex(np.random.default_rng(0), 6, 2), T1)
    with pytest.raises(SingularMatrix, match=measured.format("T")):
        s_basis(T1, HP)


@pytest.mark.parametrize("cls, n, seed", [(HP, 6, 3), (HP, 12, 1), (HA, 12, 1), (HA, 12, 4)],
                         ids=["hp-6-3", "hp-12-1", "ha-12-1", "ha-12-4"])
def test_a_discarded_draw_keeps_its_warnings(cls, n, seed):
    # A pair of modulus 3e5 sends every draw to the residual gate, and one of
    # them assembles an A1 of sigma ratio 3e-9 or so, which warns: the draw
    # is discarded, so its warning about a system no caller sees goes too.
    mu = 3e5 * np.exp(0.7j)
    X1 = random_complex(np.random.default_rng(seed), n, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        with pytest.raises(RetryExhausted) as info:
            solve_iep_partial_result(
                IepProblem(cls, X1, np.diag([mu, 1 / cls.star_scalar(mu)]), seed=seed))
    assert info.value.reasons == Counter(ResidualTooLarge=20)
    assert [str(w.message) for w in caught] == []


def test_the_returned_draw_passes_its_warnings_once(monkeypatch):
    # Every draw warns; the first misses, the second returns, and only the
    # second's warning reaches the caller.  The filters stay the caller's,
    # so an error filter, as tier-1's for RuntimeWarning, raises inside a draw.
    from palinverse import iep
    from palinverse.errors import retry

    assemble, draws = iep._coefficients_from_blocks, []

    def warning_draws(*args):
        draws.append(len(draws) + 1)
        warnings.warn(f"planted warning of draw {draws[-1]}")
        if len(draws) == 1:
            raise SymmetryViolation("planted miss")
        return assemble(*args)

    monkeypatch.setattr(iep, "_coefficients_from_blocks", warning_draws)
    X1, T1 = iep_fixture(TP)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        res = solve_iep_partial_result(IepProblem(TP, X1, T1, seed=5))
    assert res.attempts == 2
    assert [str(w.message) for w in caught] == ["planted warning of draw 2"]

    def overflowing_draw(attempt):
        warnings.warn("planted overflow", RuntimeWarning)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="planted overflow"):
            retry(2, overflowing_draw, "no draw")


def _k2n_or_partial(full):
    if full:
        e = eig_full(random_system(HP, 3, 50))
        return e.vectors, np.diag(e.values)
    return iep_fixture(HP)


@pytest.mark.parametrize("full", [True, False], ids=["k=2n", "k<2n"])
def test_iep_singular_draw_is_retried(full, monkeypatch):
    # The sampler refuses a singular S1, and the construction's one retry
    # loop draws again.
    from palinverse import iep

    X1, T1 = _k2n_or_partial(full)
    singular_draws(iep, monkeypatch, 1)
    res = solve_iep_partial_result(IepProblem(HP, X1, T1, seed=0))
    assert res.attempts == 2
    assert pair_residual(res.system, (X1, T1)) <= 1e-9


@pytest.mark.parametrize("full", [True, False], ids=["k=2n", "k<2n"])
def test_iep_every_draw_singular_is_no_solution(full, monkeypatch):
    from palinverse import iep

    X1, T1 = _k2n_or_partial(full)
    singular_draws(iep, monkeypatch, 20)
    with pytest.raises(NoSolution) as info:
        solve_iep_partial_result(IepProblem(HP, X1, T1, seed=0))
    assert isinstance(info.value.__cause__, RetryExhausted)
    assert info.value.__cause__.reasons == Counter(SingularMatrix=20)


def test_iep_remaining_checked_once(monkeypatch):
    # User-supplied remaining eigenvalues are checked before the first
    # draw, not once per draw.
    from palinverse import iep

    def always_asymmetric(*args):
        raise SymmetryViolation("forced")

    rng = np.random.default_rng(11)
    mu = 0.4 * np.exp(0.7j)
    want = [0.2 + 0.1j, 1 / np.conj(0.2 + 0.1j), 0.6 - 0.3j, 1 / np.conj(0.6 - 0.3j)]
    problem = IepProblem(HP, random_complex(rng, 3, 2),
                         np.diag([mu, 1 / np.conj(mu)]), seed=1,
                         remaining_eigenvalues=want)
    calls = []
    admit = iep._admit
    monkeypatch.setattr(iep, "_admit", lambda *args: calls.append(args) or admit(*args))
    monkeypatch.setattr(iep, "_coefficients_from_blocks", always_asymmetric)
    with pytest.raises(RetryExhausted):
        solve_iep_partial_result(problem)
    assert len(calls) == 1


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_group_values_keeps_list_order(cls):
    # Index pairs come back at the place of their first value and
    # singletons in list order, as a first-fit scan of the list finds them;
    # the closed-form block assigns its canonical slots and signs in this
    # order.
    from palinverse.iep import _group_values

    rng = np.random.default_rng(8)
    mus = 0.5 * np.exp(2j * np.pi * rng.uniform(size=3))
    units = np.exp(2j * np.pi * rng.uniform(size=2)) if cls.star == "H" \
        else np.array([1.0, -1.0])
    values = [complex(v) for v in
              (*mus, *(1 / cls.star_scalar(m) for m in mus), *units)]
    for _ in range(5):
        rng.shuffle(values)
        pairs, singles, used = [], [], set()
        for i, v in enumerate(values):
            if i in used:
                continue
            if pair_defect(cls, v, v) <= 1e-8:
                singles.append(i)
                continue
            j = next(j for j in range(i + 1, len(values))
                     if j not in used and pair_defect(cls, v, values[j]) <= 1e-8)
            used.add(j)
            pairs.append((i, j))
        assert _group_values(values, cls) == (pairs, singles)
    with pytest.raises(PairingNotClosed, match="has no reciprocal partner"):
        _group_values(values[1:], cls)


def _t2hat_case(cls, n_pairs, signs):
    """Remaining values and the inertia (p, q) they must carry: reciprocal
    pairs off the circle, then unimodular singletons (+-1 for TA), p
    counting the pairs and the signs +1."""
    mus = (0.3 + 0.1 * np.arange(n_pairs)) * np.exp(1j * (0.5 + 1.3 * np.arange(n_pairs)))
    values = [v for mu in mus for v in (mu, 1 / cls.star_scalar(mu))]
    if cls.star == "H":
        values += [np.exp(1j * (0.2 + 0.9 * i)) for i in range(len(signs))]
        return values, n_pairs + signs.count(1), n_pairs + signs.count(-1)
    return values + [1.0, -1.0][:len(signs)], 0, 0


def _check_closed_form_block(cls, values, p, q):
    """The closed-form block of values, paired by forward, with the inertia
    (p, q): an exact member of the parameter space of diag(values), conj(u)
    and -eps star(conj(u)) on each pair (u = i for hp, 1 otherwise) and a
    unit on each unimodular value, and S = G F G* with G unitary and F
    canonical."""
    star, eps, r = cls.star_of, cls.epsilon, len(values)
    groups = _group_values(values, cls)
    S, G, F = _closed_form_block(cls, values, groups, p, q)
    assert np.abs(G @ F @ star(G) - S).max(initial=0.0) <= 4 * np.finfo(float).eps
    assert fnorm(G.conj().T @ G - np.eye(r)) <= 1e-14
    assert np.array_equal(star(S), -eps * S)
    D = np.diag(np.array(values, dtype=complex))
    assert fnorm(D @ S @ star(D) - S) <= 1e-13 * max(r, 1)
    c = -1j if cls == HP else 1
    for i, j in groups[0]:
        assert (S[i, j], S[j, i]) == (c, -eps * cls.star_scalar(c))
    assert np.count_nonzero(S) == r and np.all(np.abs(S[S != 0]) == 1)
    assert np.array_equal(F, build_delta(cls, p, q, r, r))
    pattern = star_factorize(S, cls).pattern
    assert (pattern.p, pattern.q) == (p, q)
    return groups


T2HAT_CASES = (
    [(cls, 2, []) for cls in ALL_CLASSES]                      # pairs only
    + [(HP, 0, [1, 1, -1]), (HA, 0, [-1, 1, -1]), (TA, 0, [1, 1])]
    + [(HP, 2, [-1, -1]), (HA, 1, [1]), (TA, 2, [1, 1])]       # mixed
    + [(cls, 0, []) for cls in ALL_CLASSES]                    # r = 0
    + [(HP, 0, [1]), (HA, 0, [-1]), (TA, 0, [1])])             # r = 1


@pytest.mark.parametrize("cls,n_pairs,signs", T2HAT_CASES,
                         ids=[f"{c.code}-{p}p-{len(s)}s" for c, p, s in T2HAT_CASES])
def test_build_t2hat_closed_form(cls, n_pairs, signs):
    # The remaining block of a construction: T2 = diag(values), and its
    # parameter block S2 = G F G* written in closed form.
    values, p, q = _t2hat_case(cls, n_pairs, signs)
    groups = _check_closed_form_block(cls, values, p, q)
    if cls.star == "H":
        # Counts that cannot carry the inertia: one slot too many, and a
        # pair short of one sign.
        bad = [(p + 1, q), (p, q + 1)] + [(n_pairs - 1, q + 1)] * (n_pairs > 0)
        for inertia in bad:
            with pytest.raises(BadIndices, match="cannot carry the inertia"):
                _closed_form_block(cls, values, groups, *inertia)
    elif cls.epsilon == 1:
        # tp carries +-1 only in equal pairs.
        values = values + [1.0, -1.0]
        with pytest.raises(BadIndices, match="odd number"):
            _closed_form_block(cls, values, _group_values(values, cls), 0, 0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_block_over_random_pairings(data):
    cls = data.draw(st.sampled_from(ALL_CLASSES), label="cls")
    _check_closed_form_block(cls, *draw_pairing(data, cls))


def _prescribed_pairs(cls, n, k, seed):
    from helpers import random_system

    e = eig_full(random_system(cls, n, seed))
    idx = [i for a, b in e.pairing if a != b for i in (a, b)][:k]
    assert len(idx) == k
    return e.vectors[:, idx], np.diag(e.values[idx])


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
@pytest.mark.parametrize("k", [2, 12])
def test_iep_partial_seeded_runs_repeat(cls, k):
    # n >= k: the construction needs rank(X1 S1 X1*) <= 2n - k.
    X1, T1 = _prescribed_pairs(cls, 12, k, seed=80 + k)
    a = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=17))
    b = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=17))
    assert a.system.A1.tobytes() == b.system.A1.tobytes()
    assert a.system.A0.tobytes() == b.system.A0.tobytes()
    assert a.attempts == b.attempts


@pytest.mark.parametrize("k", [2, 12])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_construction_decomposes_nothing_of_order_n_but_the_leading_block(cls, k,
                                                                          monkeypatch):
    # The deficit X1 S1 X1* is factorized at order min(n, k), and S1 at
    # order k, so past the problem's checks a partial solve at n = 24 runs
    # one SVD of order n per draw: the gate of X T^-1 S X*.
    n = 24
    problem = IepProblem(cls, *_prescribed_pairs(cls, n, k, seed=90 + k), seed=3)
    decomposed = log_decompositions(monkeypatch, n - 1)
    sol = solve_iep_partial_result(problem)
    assert [(name, a.shape) for name, a in decomposed] == [("svd", (n, n))] * sol.attempts
    X, T, S = sol.X, sol.T, sol.S
    lead = X @ np.linalg.solve(T, S) @ sol.system.cls.star_of(X)
    assert fnorm(decomposed[-1][1] - lead) <= 1e-12 * fnorm(lead)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rank_deficient_eigenvectors_reach_outside_their_range(n):
    # X1 = [x, (1+i) x] has rank one, so the core of X1 S1 X1* has a
    # kernel, and the isotropic rows of the completion must reach the
    # directions outside range(X1) before x itself: the zero block of the
    # deficit's factorization lists them first, and every tp seed solves.
    mu = 0.5 * np.exp(0.9j)
    x = random_complex(np.random.default_rng(n), n, 1)
    X1, T1 = np.hstack([x, (1 + 1j) * x]), np.diag([mu, 1 / mu])
    for seed in range(5):
        sol = solve_iep_partial_result(IepProblem(TP, X1, T1, seed=seed))
        assert pair_residual(sol.system, (X1, T1)) <= 1e-9


def test_iep_partial_counts_singular_leading_block(monkeypatch):
    # The leading-block check lives in the spectral assembly; a singular
    # X T^-1 S X* must still be retried and counted under its own reason.
    from palinverse import spectral

    sv_min_ratio = spectral.sv_min_ratio
    X1, T1 = iep_fixture(HA)
    n = X1.shape[0]

    def singular_leading_block(a):
        return (0.0, 0.0) if a.shape == (n, n) else sv_min_ratio(a)

    monkeypatch.setattr(spectral, "sv_min_ratio", singular_leading_block)
    with pytest.raises(RetryExhausted,
                       match=r"in 20 attempts: SingularLeadingBlock 20 \("):
        solve_iep_partial_result(IepProblem(HA, X1, T1, seed=5))


def _canonical(cls, plus, minus, size):
    """A canonical pattern of the given size with `plus` entries +i (HP) or
    +1 (HA) and `minus` entries of the opposite value; for star = T, rank
    plus + minus (TP: a skew block, TA: an identity block)."""
    if cls.star == "T":
        return build_delta(cls, 0, 0, plus + minus, size)
    if cls.epsilon == 1:
        return build_delta(cls, p=minus, q=plus, t=0, size=size)
    return build_delta(cls, p=plus, q=minus, t=0, size=size)


# (n, r): target order against form order, r < n, r = n and r > n.
CONGRUENCE_SIZES = [(6, 3), (5, 5), (3, 8)]


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
@pytest.mark.parametrize("n,r", CONGRUENCE_SIZES,
                         ids=[f"n{n}-r{r}" for n, r in CONGRUENCE_SIZES])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_congruence_onto_property(cls, n, r, data):
    from palinverse.structfact import _congruence_onto, _isometry

    if cls.star == "T" and cls.epsilon == 1:
        r -= r % 2  # a nonsingular skew form has even order
    # Form inertia (H) and target ranks, inertias and sign: the target may
    # carry the opposite sign, as -Delta does in a partial solve.
    f_plus = data.draw(st.integers(0, r)) if cls.star == "H" else r
    form = _canonical(cls, f_plus, r - f_plus, r)
    t_plus = data.draw(st.integers(0, n))
    t_minus = data.draw(st.integers(0, n - t_plus)) if cls.star == "H" else 0
    if cls.star == "T" and cls.epsilon == 1:
        t_plus -= t_plus % 2
    sign = data.draw(st.sampled_from([1, -1]))
    target = _canonical(cls, t_plus, t_minus, n) if sign == 1 \
        else -_canonical(cls, t_minus, t_plus, n)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))

    if cls.star == "H":
        feasible = t_plus <= f_plus and t_minus <= r - f_plus
    else:
        feasible = t_plus <= r
    if not feasible:
        with pytest.raises(BadIndices):
            _congruence_onto(target, form, cls, np.random.default_rng(seed))
        return
    W = _isometry(form, cls, np.random.default_rng(seed))
    assert fnorm(W @ form @ cls.star_of(W) - form) <= 1e-12 * fnorm(form)
    C = _congruence_onto(target, form, cls)
    psi = _congruence_onto(target, form, cls, np.random.default_rng(seed))
    assert np.array_equal(psi, C @ W)
    scale = max(fnorm(target), fnorm(psi) ** 2 * fnorm(form))
    assert fnorm(psi @ form @ cls.star_of(psi) - target) <= 1e-12 * scale
    # The selection maps each nonzero target slot to one form slot and
    # fills zero rows with isotropic combinations while slots remain.
    rank = np.linalg.matrix_rank(C)
    spare = r - t_plus - t_minus
    if cls.star == "H":
        spare = min(f_plus - t_plus, r - f_plus - t_minus)
    elif cls.epsilon == -1:
        spare //= 2
    else:
        spare = (r - t_plus) // 2
    assert rank == t_plus + t_minus + min(spare, n - t_plus - t_minus)


def test_solve_psi_signature_and_modes():
    assert list(inspect.signature(solve_psi).parameters) == ["delta", "omega", "cls"]
    delta = build_delta(HA, p=1, q=1, t=0, size=3)
    omega = build_delta(HA, p=2, q=3, t=0, size=5)
    canonical = solve_psi(delta, omega, HA)
    assert np.array_equal(canonical, solve_psi(delta, omega, HA))
    assert fnorm(canonical @ omega @ canonical.conj().T + delta) <= 1e-12 * fnorm(delta)


def _pairs_of_some_system(cls, n, k):
    """k eigenpairs (k/2 off-circle reciprocal pairs) of the first
    random_system of order n, from seed 0 up, that has that many."""
    for seed in range(50):
        e = eig_full(__import__("helpers").random_system(cls, n, seed))
        idx = [i for a, b in e.pairing if a != b for i in (a, b)][:k]
        if len(idx) == k:
            return e.vectors[:, idx], np.diag(e.values[idx])
    raise RuntimeError(f"no order-{n} {cls.code} system with {k // 2} pairs")


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
@pytest.mark.parametrize("n,k", [(4, 6), (6, 8), (6, 10)])
def test_iep_partial_more_pairs_than_order_is_unsupported(cls, n, k):
    # k = n + 2 and k = 2n - 2: a solution exists (the pairs come from a
    # real system), but a freely drawn S1 gives rank(X1 S1 X1*) = n > 2n - k.
    # The error says so and does not claim infeasibility.
    assert not issubclass(UnsupportedRegime, Infeasible)
    X1, T1 = _pairs_of_some_system(cls, n, k)
    with pytest.raises(UnsupportedRegime,
                       match=rf"rank\(X1 S1 X1\*\) <= 2n - k = {2 * n - k} "):
        solve_iep_partial_result(IepProblem(cls, X1, T1, seed=3))


@pytest.mark.parametrize("cls", [HP, HA], ids=lambda c: c.code)
def test_iep_partial_redraws_an_s1_of_too_much_inertia(cls, monkeypatch):
    # k = 3 unimodular values at n = 2: S = diag(S1, S2) has inertia (2, 2),
    # so an S1 with 3 eigenvalues of one sign leaves the remaining block no
    # inertia, and the completion misses before it factorizes the deficit.
    # Seeds 1 and 5 draw such an S1 first (5 twice) and draw again; every
    # seed then meets the rank condition of k > n.
    from helpers import inertia
    from palinverse import iep

    X1 = random_complex(np.random.default_rng(4), 2, 3)
    T1 = np.diag(np.exp(1j * np.array([0.4, 1.3, 2.2])))
    sample, factor = iep.sample_nonsingular, iep._isotropy_factor
    unit = 1j if cls.epsilon == 1 else 1  # unit S1 is Hermitian
    for seed in range(8):
        drawn, factored = [], []
        monkeypatch.setattr(iep, "sample_nonsingular",
                            lambda *args: drawn.append(sample(*args)) or drawn[-1])
        monkeypatch.setattr(iep, "_isotropy_factor",
                            lambda *args: factored.append(args) or factor(*args))
        with pytest.raises(UnsupportedRegime, match=r"rank\(X1 S1 X1\*\) <= 2n - k = 1 "):
            solve_iep_partial_result(IepProblem(cls, X1, T1, seed=seed))
        assert (len(drawn), len(factored)) == ({1: 2, 5: 3}.get(seed, 1), 1), seed
        signs = [sorted(inertia(unit * S1)[:2]) for S1, _ in drawn]
        assert signs == [[0, 3]] * (len(drawn) - 1) + [[1, 2]], seed


def test_iep_partial_reads_t1_eigenvalues_once(monkeypatch):
    # A construction reads the eigenvalues of T1 in iep._jordan_form alone:
    # off the diagonal of a diagonal or Jordan T1 with no eigensolve, and by
    # exactly one dense_eig of any other T1.  Every nonsymmetric eigensolve
    # is counted (structfact's eigh factorizes a Hermitian S1, not T1).
    from palinverse import iep

    calls = []
    for name in ("eig", "eigvals"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, real=real, name=name:
                            calls.append((name, a.shape)) or real(a))
    dense_eig = iep.dense_eig
    monkeypatch.setattr(iep, "dense_eig", lambda a: calls.append(("dense_eig", a.shape))
                        or dense_eig(a))
    X1, T1 = iep_fixture(HP)
    lam = 0.5 + 0.3j
    W = random_complex(np.random.default_rng(4), 4, 4)
    cases = [(X1, T1, []),
             (random_complex(np.random.default_rng(6), 6, 4),
              jordan_matrix([lam, 1 / np.conj(lam)], [2, 2]), []),
             (X1 @ W, np.linalg.solve(W, T1 @ W), [("dense_eig", (4, 4)), ("eig", (4, 4))])]
    for X, T, want in cases:
        calls.clear()
        solve_iep_partial_result(IepProblem(HP, X, T, seed=5))
        assert calls == want
def _as_values(batch):
    """A batch (values, (pairs, singles)) of _default_remaining, indices
    replaced by values."""
    values, (pairs, singles) = batch
    return [(values[i], values[j]) for i, j in pairs], [values[i] for i in singles]


def _remaining_or_overlap(cls, count, n_pos, n_neg, order, t1, seed):
    """_default_remaining's batch for a generator seeded seed, as values,
    or None when the batch clashes and raises SpectraOverlap."""
    from palinverse import iep

    try:
        return _as_values(iep._default_remaining(cls, count, n_pos, n_neg, order, t1,
                                                 np.random.default_rng(seed)))
    except SpectraOverlap:
        return None


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
@pytest.mark.parametrize("tol", [1e-8, 5e-2])
def test_default_remaining_keeps_values_clear(cls, tol, monkeypatch):
    # Every returned value z lies outside tol |z| of T1's values, the
    # forward._apart rule, and each pair is exact.  The wide tolerance
    # makes a few batches clash, and a clashing batch raises SpectraOverlap:
    # one batch per draw.
    from palinverse import forward

    monkeypatch.setattr(forward, "COINCIDE_RTOL", tol)
    t1 = np.array([0.5 * np.exp(0.4j), 1 / cls.star_scalar(0.5 * np.exp(0.4j))])
    n_pos = n_neg = 7 if cls.star == "H" else 0
    batches = [_remaining_or_overlap(cls, 14, n_pos, n_neg, 8, t1, seed)
               for seed in range(400)]
    returned = [b for b in batches if b is not None]
    for pairs, singles in returned:
        assert len(pairs) == 7 and not singles
        _assert_clear(cls, t1, pairs, tol)
    if tol == 1e-8:  # no clash: one batch of moduli, then one of angles
        assert len(returned) == 400
        rng = np.random.default_rng(3)
        mus = rng.uniform(0.3, 0.7, 7) * np.exp(2j * np.pi * rng.uniform(size=7))
        assert np.array_equal([mu for mu, _ in batches[3][0]], mus)
    else:
        assert 0 < len(returned) < 400


def _assert_clear(cls, t1, pairs, tol):
    for mu, nu in pairs:
        assert pair_defect(cls, mu, nu) <= 1e-12
        for z in (mu, nu):
            assert all(abs(z - a) > tol * abs(z) for a in t1)


def _first_batch(rng, n_pair, n_single):
    mu = rng.uniform(0.3, 0.7, n_pair) * np.exp(2j * np.pi * rng.uniform(size=n_pair))
    return mu, [np.exp(2j * np.pi * rng.uniform()) for _ in range(n_single)]


@pytest.mark.parametrize("cls", [TP, HP], ids=lambda c: c.code)
def test_default_remaining_redraws_a_batch_that_hits_t1(cls, monkeypatch):
    # T1 carries the last value of the batch a generator seeded 11 draws
    # first (tp: the second pair; hp: the unimodular singleton), so that
    # batch raises SpectraOverlap.  Through the entry, T1 carries a value of
    # the batch of the first draw: the construction draws again and
    # succeeds on the second.
    from palinverse import iep

    n_pos, n_neg = (0, 0) if cls is TP else (2, 1)
    n_pair, n_single = (2, 0) if cls is TP else (1, 1)
    mu, singles = _first_batch(np.random.default_rng(11), n_pair, n_single)
    hit = singles[0] if n_single else mu[-1]
    t1 = np.array([hit, 1 / cls.star_scalar(hit)])
    assert _remaining_or_overlap(cls, 4, n_pos, n_neg, 3, t1, 11) is None

    # n = 3, k = 2: two remaining pairs for either class (the off-circle
    # pair of T1 gives S1 the inertia (1, 1)).  The construction draws from
    # one generator: the sampler takes one normal per real element of the
    # pair's parameter space (two), and the batch of the first draw follows.
    rng = np.random.default_rng(5)
    rng.standard_normal(2)
    mu, _ = _first_batch(rng, 2, 0)
    T1 = np.diag([mu[-1], 1 / cls.star_scalar(mu[-1])])
    X1 = random_complex(np.random.default_rng(12), 3, 2)
    default_remaining, outcomes = iep._default_remaining, []

    def recorded(*args):
        try:
            batch = default_remaining(*args)
        except SpectraOverlap:
            outcomes.append(None)
            raise
        outcomes.append(batch)
        return batch

    monkeypatch.setattr(iep, "_default_remaining", recorded)
    sol = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=5))
    assert sol.attempts == 2
    assert outcomes[0] is None and len(outcomes) == 2
    _assert_clear(cls, np.diag(T1), _as_values(outcomes[1])[0], 1e-8)
    assert pair_residual(sol.system, (X1, T1)) <= 1e-9


def test_default_remaining_clears_prescribed_values(monkeypatch):
    # One pair against eight prescribed pairs in the same annulus: a draw
    # that coincides with a value of T1 (forward._apart, the rule patched
    # wide) raises SpectraOverlap, and every batch returned stays clear.
    from palinverse import forward

    monkeypatch.setattr(forward, "COINCIDE_RTOL", 2e-1)
    mus = (0.3 + 0.05 * np.arange(8)) * np.exp(0.8j * np.arange(8))
    t1 = np.concatenate([mus, 1 / mus])
    batches = [_remaining_or_overlap(TP, 2, 0, 0, 9, t1, seed) for seed in range(20)]
    assert None in batches
    for batch in batches:
        if batch is not None:
            _assert_clear(TP, t1, batch[0], 2e-1)

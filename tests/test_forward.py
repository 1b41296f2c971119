import copy
import pickle

import numpy as np
import pytest

from helpers import (companion_reference, count_eigensolves, linearize,
                     max_eig_condition, pair_defect, random_system,
                     residual_scale)
from palinverse import forward
from palinverse.errors import PairingNotClosed, SpectraOverlap, TargetNotFound
from palinverse.forward import eig_full, eigenvalues, select_pairs
from palinverse.mup import MupProblem
from palinverse.numerics import dense_eig, linear_solve
from palinverse.system import ALL_CLASSES, HP, TA, TP, PalindromicSystem
from reference_problems import update_fixture


def test_linearize_scalar():
    sys = PalindromicSystem(TA, [[1.0]], [[0.0]])
    M0, M1 = linearize(sys)
    w, _ = dense_eig(-linear_solve(M1, M0))
    assert sorted(np.round(w.real, 10)) == [-1.0, 1.0]


def test_linearize_fixture_eigenvalue():
    sys, replace, _ = update_fixture("tp")
    M0, M1 = linearize(sys)
    w, _ = dense_eig(-linear_solve(M1, M0))
    assert len(w) == 6
    assert min(abs(w - replace[0])) < 2e-3 * abs(replace[0])
    assert min(abs(w - replace[1])) < 2e-3


@pytest.mark.parametrize("n", [1, 5, 48, 128])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_companion_matches_pencil_solve(cls, n):
    sys = random_system(cls, n, seed=70 + n)
    C, C_ref = forward.companion(sys), companion_reference(sys)
    assert np.linalg.norm(C - C_ref) <= 1e-12 * np.linalg.norm(C_ref)
    bottom = np.hstack([np.eye(n), np.zeros((n, n))])
    assert np.array_equal(C[n:], bottom)


@pytest.mark.parametrize("solve", [eig_full, forward.eigenvalues],
                         ids=["eig_full", "eigenvalues"])
def test_one_order_n_solve_per_eigensolve(monkeypatch, solve):
    sys = random_system(HP, 6, seed=4)
    shapes = []

    def recording_solve(A, B):
        shapes.append((np.shape(A), np.shape(B)))
        return linear_solve(A, B)

    monkeypatch.setattr(forward, "linear_solve", recording_solve)
    solve(sys)
    assert shapes == [((6, 6), (6, 12))]


def test_pencil_spectrum_matches_quartic_roots():
    # Independent oracle at n = 2: expand det Q into a quartic by
    # polynomial arithmetic on the entries, then take its roots.
    sys = random_system(TP, 2, seed=21)
    q = [None] * 2
    polys = {}
    for i in range(2):
        for j in range(2):
            polys[(i, j)] = np.array([
                sys.cls.star_of(sys.A1)[i, j],
                sys.A0[i, j],
                sys.cls.epsilon * sys.A1[i, j],
            ])
    det = np.polysub(np.polymul(polys[(0, 0)], polys[(1, 1)]),
                     np.polymul(polys[(0, 1)], polys[(1, 0)]))
    roots = np.roots(det)
    e = eig_full(sys)
    for r in roots:
        assert min(abs(e.values - r)) < 1e-6 * max(1.0, abs(r))


def test_eig_full_scalar_pairing():
    sys = PalindromicSystem(TA, [[1.0]], [[0.0]])
    e = eig_full(sys)
    assert sorted(np.round(e.values.real, 10)) == [-1.0, 1.0]
    assert e.pairing_complete
    assert all(a == b for a, b in e.pairing)  # both are +-1 self-pairs


def test_eig_full_fixture_pairs():
    sys, replace, _ = update_fixture("tp")
    e = eig_full(sys)
    i = int(np.argmin(abs(e.values - replace[0])))
    j = e.partner_index(i)
    assert abs(e.values[j] - replace[1]) < 2e-3


def test_eig_full_conjugate_pair_fixture():
    sys, replace, _ = update_fixture("hp")
    e = eig_full(sys)
    i = int(np.argmin(abs(e.values - replace[0])))
    j = e.partner_index(i)
    assert abs(e.values[j] - replace[1]) < 2e-3
    assert abs(e.values[i] * np.conj(e.values[j]) - 1.0) < 1e-10


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_eig_full_residual_bound(cls):
    sys = random_system(cls, 5, seed=33)
    e = eig_full(sys)
    from palinverse.system import eval_Q

    for i, lam in enumerate(e.values):
        res = np.linalg.norm(eval_Q(sys, lam) @ e.vectors[:, i])
        assert res <= 1e-8 * residual_scale(sys, lam)
        assert res == pytest.approx(e.residuals[i], abs=1e-12)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_spectral_symmetry_random(cls):
    count = 0
    seed = 0
    while count < 20:
        seed += 1
        sys = random_system(cls, int(np.random.default_rng(seed).integers(1, 6)),
                            seed=seed)
        if max_eig_condition(sys) >= 1e6:
            continue
        e = eig_full(sys)
        assert e.pairing_complete
        for a, b in e.pairing:
            assert pair_defect(cls, e.values[a], e.values[b]) <= 1e-6
        count += 1


def test_real_transpose_conjugate_closure():
    for cls in (TP, TA):
        for seed in range(5):
            sys = random_system(cls, 4, seed=77 + seed, real=True)
            e = eig_full(sys)
            for v in e.values:
                assert min(abs(e.values - np.conj(v))) < 1e-8 * max(1.0, abs(v))


def test_select_pairs_fixture():
    sys, replace, _ = update_fixture("ta")
    e = eig_full(sys)
    X1, T1, X2, T2 = select_pairs(e, replace)
    assert T1.shape == (2, 2) and T2.shape == (4, 4)
    assert abs(np.diag(T1)[0] - 4.23606797749979) < 1e-4


def test_select_pairs_all():
    sys, _, _ = update_fixture("ta")
    e = eig_full(sys)
    X1, T1, X2, T2 = select_pairs(e, list(e.values))
    assert T2.shape == (0, 0) and X2.shape == (3, 0)


def test_select_pairs_errors():
    sys, replace, _ = update_fixture("ta")
    e = eig_full(sys)
    with pytest.raises(TargetNotFound):
        select_pairs(e, [123.0])
    with pytest.raises(PairingNotClosed):
        select_pairs(e, [replace[0]])
    # A nan tolerance would match any eigenvalue, a negative one none.
    for tol in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            select_pairs(e, replace, tol=tol)
    # A non-finite target would stand for eigenvalue #0.
    for bad in (float("nan"), float("inf"), complex(float("nan"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            select_pairs(e, [bad, replace[1]])


def test_select_pairs_overlap_guard():
    sys, replace, _ = update_fixture("ta")
    e = eig_full(sys)
    e.values[2] = e.values[0] * (1 + 1e-10)  # inject a near-duplicate
    with pytest.raises((SpectraOverlap, PairingNotClosed)):
        select_pairs(e, [e.values[0], 1 / e.values[0]])


def test_eig_full_strict_pairing_failure(monkeypatch):
    sys, _, _ = update_fixture("tp")
    # An absurdly tight tolerance forces unmatched eigenvalues.
    monkeypatch.setattr(forward, "PAIRING_TOL", 1e-18)
    e = eig_full(sys)
    assert not e.pairing_complete
    assert e.unmatched


def _values_only(sys):
    return dense_eig(forward.companion(sys), vectors=False)


def test_recorded_spectrum_skips_the_eigensolve(monkeypatch):
    sys, replace, new = update_fixture("hp")
    calls = count_eigensolves(monkeypatch)
    e = eig_full(sys)
    assert calls == [True]
    assert np.array_equal(eigenvalues(sys), e.values)
    X1, T1, _, _ = select_pairs(e, replace)
    MupProblem(sys, X1, T1, np.diag(new))
    assert calls == [True]
    # eig_full runs its own eigensolve every time.
    eig_full(sys)
    assert calls == [True, True]


def test_values_only_solve_is_recorded(monkeypatch):
    sys = random_system(TP, 6, seed=5)
    calls = count_eigensolves(monkeypatch)
    first = eigenvalues(sys)
    assert np.array_equal(eigenvalues(sys), first)
    assert calls == [False]
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_reassigned_coefficient_is_solved_afresh(monkeypatch):
    sys = random_system(TP, 6, seed=5)
    other = random_system(TP, 6, seed=6)
    eig_full(sys)
    calls = count_eigensolves(monkeypatch)
    # Another system's A0 is read-only too: only its identity tells it apart.
    sys.A0 = other.A0
    assert np.array_equal(eigenvalues(sys), _values_only(sys))
    sys.A0 = np.array(other.A0)
    assert np.array_equal(eigenvalues(sys), _values_only(sys))
    assert calls == [False, False]


@pytest.mark.parametrize("name", ["A1", "A0"])
def test_coefficients_are_read_only(name):
    sys = random_system(HP, 4, seed=2)
    with pytest.raises(ValueError):
        getattr(sys, name)[0, 0] = 1.0


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("name", ["A1", "A0"])
def test_copied_system_written_in_place_is_solved_afresh(clone, name):
    sys = random_system(HP, 6, seed=3)
    stale = eig_full(sys).values
    twin = clone(sys)
    getattr(twin, name)[0, 0] += 0.5
    fresh = eigenvalues(twin)
    assert np.array_equal(fresh, _values_only(twin))
    assert not np.allclose(np.sort_complex(fresh), np.sort_complex(stale))


def test_mutating_returned_values_leaves_record_intact():
    sys = random_system(HP, 6, seed=3)
    e = eig_full(sys)
    recorded = e.values.copy()
    e.values[:] = 0.0
    assert np.array_equal(eigenvalues(sys), recorded)

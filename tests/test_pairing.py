"""The array forms of eig_full, the reciprocal pairing and select_pairs,
pinned against the scalar loops they replaced."""

import dataclasses
import re

import numpy as np
import pytest

from helpers import greedy_pairing_loop, random_system, residual_scale
from palinverse import forward, numerics
from palinverse.errors import PairingNotClosed, SpectraOverlap, TargetNotFound
from palinverse.forward import _greedy_pairing, eig_full, select_pairs
from palinverse.numerics import dense_eig
from palinverse.system import ALL_CLASSES, TA, TP, PalindromicSystem, eval_Q
from reference_problems import update_fixture

def assert_same_pairing(values, cls, tol):
    pairs, unmatched = _greedy_pairing(values, cls, tol)
    assert (pairs, unmatched) == greedy_pairing_loop(values, cls, tol)
    return pairs, unmatched


@pytest.mark.parametrize("n", [1, 5, 48, 128])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_pairing_matches_loop(cls, n):
    e = eig_full(random_system(cls, n, seed=40 + n))
    assert (e.pairing, e.unmatched) == greedy_pairing_loop(e.values, cls, numerics.PAIRING_TOL)
    assert e.pairing_complete


@pytest.mark.parametrize("n", [1, 5, 48, 128])
@pytest.mark.parametrize("cls", [TP, TA], ids=lambda c: c.code)
def test_pairing_matches_loop_real(cls, n):
    e = eig_full(random_system(cls, n, seed=50 + n, real=True))
    assert (e.pairing, e.unmatched) == greedy_pairing_loop(e.values, cls, numerics.PAIRING_TOL)
    # The computed conjugate pairs of a real system tie in modulus only by
    # chance, so the ties come from an exactly conjugate-closed copy: the
    # upper half-plane values, their exact conjugates and the real values.
    values = e.values
    real = np.abs(values.imag) <= 1e-8 * np.abs(values)
    upper = values[~real & (values.imag > 0)]
    closed = np.concatenate([upper, upper.conj(), values[real].real.astype(complex)])
    moduli = np.hypot(closed.real, closed.imag)
    assert len(np.unique(moduli)) < len(moduli) or n == 1
    assert_same_pairing(closed, cls, numerics.PAIRING_TOL)


def test_pairing_ta_scalar_self_pairs():
    e = eig_full(PalindromicSystem(TA, [[1.0]], [[0.0]]))
    assert e.pairing == [(0, 0), (1, 1)]
    assert (e.pairing, e.unmatched) == greedy_pairing_loop(e.values, TA, numerics.PAIRING_TOL)


def test_pairing_exact_duplicate_goes_to_lowest_index():
    pairs, unmatched = assert_same_pairing(np.array([0.5, 2.0, 2.0], dtype=complex),
                                           TP, 1e-6)
    assert pairs == [(0, 1)] and unmatched == [2]


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_pairing_injected_duplicate(cls):
    values = eig_full(random_system(cls, 48, seed=7)).values.copy()
    big = int(np.argmax(np.abs(values)))
    small = int(np.argmin(np.abs(values)))
    values[big] = values[small]  # the small value's partner now ties twice
    assert_same_pairing(values, cls, numerics.PAIRING_TOL)


@pytest.mark.parametrize("n", [1, 5, 48, 128])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_pairing_tiny_tolerance(cls, n, monkeypatch):
    monkeypatch.setattr(forward, "PAIRING_TOL", 1e-18)
    e = eig_full(random_system(cls, n, seed=60 + n))
    assert e.unmatched
    assert (e.pairing, e.unmatched) == greedy_pairing_loop(e.values, cls, 1e-18)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_residuals_match_eval_q_n48(cls):
    sys = random_system(cls, 48, seed=33)
    e = eig_full(sys)
    for i, lam in enumerate(e.values):
        res = np.linalg.norm(eval_Q(sys, lam) @ e.vectors[:, i])
        assert res <= 1e-8 * residual_scale(sys, lam)
        assert res == pytest.approx(e.residuals[i], abs=1e-12)


def vectors_loop(sys):
    """Eigenvectors as the per-eigenvalue loop chose and normalized them."""
    n = sys.n
    values, Z = dense_eig(forward.companion(sys))
    vectors = np.zeros((n, 2 * n), dtype=np.complex128)
    for i, lam in enumerate(values):
        top, bottom = Z[:n, i], Z[n:, i]
        x = top if abs(lam) >= 1.0 else bottom
        vectors[:, i] = x / np.linalg.norm(x)
    return values, vectors


@pytest.mark.parametrize("n, seed", [(5, 0), (5, 1), (5, 2), (48, 2)])
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_vectors_match_loop(cls, n, seed):
    # Unimodular eigenvalues sit on the top/bottom boundary, where numpy's
    # complex abs and the scalar abs can round to different sides of 1.
    sys = random_system(cls, n, seed=seed)
    values, vectors = vectors_loop(sys)
    e = eig_full(sys)
    assert np.array_equal(e.values, values)
    np.testing.assert_allclose(e.vectors, vectors, rtol=0, atol=1e-14)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.code)
def test_partner_index_matches_pair_list(cls, monkeypatch):
    monkeypatch.setattr(forward, "PAIRING_TOL", 1e-13)
    e = eig_full(random_system(cls, 5, seed=9))
    for i in range(len(e.values)):
        scan = [b if a == i else a for a, b in e.pairing if i in (a, b)]
        assert e.partner_index(i) == (scan[0] if scan else None)


def fixture_eigs():
    sys, replace, _ = update_fixture("ta")
    return eig_full(sys), replace


def test_select_pairs_not_found_before_open_pairing():
    e, replace = fixture_eigs()
    with pytest.raises(TargetNotFound, match=re.escape("target not found: 123+0j (closest")):
        select_pairs(e, [replace[0], 123.0])


def test_select_pairs_ambiguous_before_not_found():
    e, replace = fixture_eigs()
    with pytest.raises(TargetNotFound, match="targets are ambiguous"):
        select_pairs(e, [replace[0], replace[0], 123.0])


def test_select_pairs_not_found_before_ambiguous():
    e, replace = fixture_eigs()
    with pytest.raises(TargetNotFound, match="target not found"):
        select_pairs(e, [replace[0], 123.0, replace[0]])


def test_select_pairs_partner_missing_and_unmatched():
    e, replace = fixture_eigs()
    with pytest.raises(PairingNotClosed, match="selected without its partner"):
        select_pairs(e, [replace[0]])
    lone = dataclasses.replace(e, pairing=[], unmatched=list(range(len(e.values))))
    with pytest.raises(PairingNotClosed, match="has no partner"):
        select_pairs(lone, [replace[0]])


def test_select_pairs_overlap_after_closed_pairing():
    e, _ = fixture_eigs()
    a, b = next((a, b) for a, b in e.pairing if a != b)
    c = next(i for i in range(len(e.values)) if i not in (a, b))
    e.values[c] = e.values[a] * (1 + 1e-10)
    with pytest.raises(SpectraOverlap,
                       match=re.escape(f"eigenvalue {e.values[a]:.6g} collides with the "
                                       "remaining spectrum")):
        select_pairs(e, [e.values[a], e.values[b]])


def test_select_pairs_split():
    e, replace = fixture_eigs()
    X1, T1, X2, T2 = select_pairs(e, replace)
    i = [int(np.argmin(abs(e.values - t))) for t in replace]
    rest = [j for j in range(len(e.values)) if j not in i]
    assert np.array_equal(X1, e.vectors[:, i])
    assert np.array_equal(np.diag(T1), e.values[i])
    assert np.array_equal(X2, e.vectors[:, rest])
    assert np.array_equal(np.diag(T2), e.values[rest])
    X1, T1, X2, T2 = select_pairs(e, [])
    assert X1.shape == (3, 0) and T1.shape == (0, 0) and T2.shape == (6, 6)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from helpers import (inertia, jordan_matrix, kronecker_space, max_eig_condition,
                     pair_defect, parameter_from_pair, planted_direct_sum,
                     random_complex, random_structured, random_system,
                     separated_spectrum)
from palinverse.analysis import (_offblock_mass, joint_block_diagonalize,
                                 zeta_partition)
from palinverse.cli import main
from palinverse.errors import FactorizationFailure, NoSolution
from palinverse.fileio import load_system, save_pair, save_system
from palinverse.forward import eig_full, select_pairs
from palinverse.iep import solve_iep_full
from palinverse.mup import MupProblem, update_model_result
from palinverse.numerics import fnorm, invert
from palinverse.paramspace import (_rvec, pascal_scaling, s_basis,
                                   sample_nonsingular, solution_space)
from palinverse.spectral import coefficients_from_pair
from palinverse.structfact import build_delta, star_factorize
from palinverse.system import ALL_CLASSES, TA, TP, pair_residual
from reference_problems import iep_fixture, update_fixture

PER_CLASS_ROUNDTRIP = 200
COND_LIMIT = 1e6


@pytest.fixture(scope="module")
def random_suite():
    """Criterion-1 suite: 200 conditioning-filtered systems per class."""
    suite = {}
    for cls in ALL_CLASSES:
        systems = []
        seed = 0
        while len(systems) < PER_CLASS_ROUNDTRIP:
            seed += 1
            n = (seed % 8) + 1
            try:
                sys = random_system(cls, n, seed=seed * 17 + 5,
                                    cond_limit=COND_LIMIT, max_tries=10)
            except RuntimeError:
                continue
            systems.append(sys)
        suite[cls.code] = systems
    return suite


def test_criterion_1_roundtrip(random_suite):
    start = time.monotonic()
    checked = 0
    worst = 0.0
    for cls in ALL_CLASSES:
        for sys in random_suite[cls.code]:
            e = eig_full(sys)
            pair = (e.vectors, np.diag(e.values))
            S = parameter_from_pair(sys, pair)
            rec = coefficients_from_pair(*pair, S, cls)
            scale1 = fnorm(sys.A1)
            scale0 = max(fnorm(sys.A0), scale1)
            err = max(fnorm(rec.A1 - sys.A1) / scale1,
                      fnorm(rec.A0 - sys.A0) / scale0)
            worst = max(worst, err)
            assert err <= 1e-8, f"{cls.code} n={sys.n}: reconstruction {err:.3e}"
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 4 * PER_CLASS_ROUNDTRIP
    assert elapsed <= 60.0, f"runtime {elapsed:.1f} s exceeds 60 s"
    print(f"\nPASS criterion 1: coefficient round trip on {checked} systems, "
          f"worst relative error {worst:.2e} <= 1e-8 ({elapsed:.1f} s <= 60 s)")


def test_criterion_2_construction_fixtures(tmp_path):
    worst_res, worst_def = 0.0, 0.0
    for cls in ALL_CLASSES:
        X1, T1 = iep_fixture(cls)
        pairfile = tmp_path / f"pair_{cls.code}.json"
        outfile = tmp_path / f"sys_{cls.code}.json"
        save_pair(X1, T1, pairfile)
        start = time.monotonic()
        code = main(["solve", "--class", cls.code, "--pairs", str(pairfile),
                     "--seed", "7", "--out", str(outfile)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed <= 1.0, f"{cls.code}: runtime {elapsed:.2f} s exceeds 1 s"
        sys = load_system(outfile)
        res = pair_residual(sys, (X1, T1))
        defect = sys.symmetry_defect() / max(fnorm(sys.A0), fnorm(sys.A1))
        assert res <= 1e-10, f"{cls.code}: pair residual {res:.3e}"
        assert defect <= 1e-11, f"{cls.code}: symmetry defect {defect:.3e}"
        worst_res, worst_def = max(worst_res, res), max(worst_def, defect)
    print(f"\nPASS criterion 2: prescribed-eigenpair construction on all four "
          f"classes, residual <= {worst_res:.2e}, defect <= {worst_def:.2e}")


def test_criterion_3_update_fixtures(tmp_path, capsys):
    import re

    for code_name in ("tp", "ta", "hp", "ha"):
        sys, replace, new = update_fixture(code_name)
        sysfile = tmp_path / f"orig_{code_name}.json"
        outfile = tmp_path / f"upd_{code_name}.json"
        save_system(sys, sysfile)
        rep = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in replace)
        wit = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in new)
        start = time.monotonic()
        code = main(["update", "--system", str(sysfile), f"--replace={rep}",
                     f"--with={wit}", "--seed", "4", "--out", str(outfile)])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert elapsed <= 2.0, f"{code_name}: runtime {elapsed:.2f} s exceeds 2 s"
        rels = re.findall(r"(\S+) \(relative\)", captured.out)
        defect, new_res, kept_res = map(float, rels)
        assert defect <= 1e-10, f"{code_name}: defect {defect:.3e}"
        assert new_res <= 1e-9, f"{code_name}: new-pair residual {new_res:.3e}"
        assert kept_res <= 1e-9, f"{code_name}: kept-pair residual {kept_res:.3e}"
        # No spillover: every kept eigenvalue reappears in the update.
        e = eig_full(sys)
        _, _, _, T2 = select_pairs(e, replace)
        e2 = eig_full(load_system(outfile))
        for v in np.diag(T2):
            match = min(abs(e2.values - v))
            assert match <= 1e-6 * max(1.0, abs(v)), \
                f"{code_name}: kept eigenvalue {v:.6g} moved by {match:.3e}"
    print("\nPASS criterion 3: no-spillover update through the CLI on all "
          "four reference systems (defect <= 1e-10, residuals <= 1e-9, "
          "spillover <= 1e-6)")


def test_criterion_4_star_factorization_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    per_class = 500
    for cls in ALL_CLASSES:
        for trial in range(per_class):
            n = int(rng.integers(1, 31))
            if cls == TP and n == 1:
                n = 2
            if trial % 3 == 0 and n >= 2:
                r = int(rng.integers(1, n + 1))
                if cls.star == "T" and cls.epsilon == 1:
                    r -= r % 2
                    r = max(r, 2)
                if cls.star == "H":
                    p = int(rng.integers(0, r + 1))
                    core = build_delta(cls, p=p, q=r - p, t=0, size=r)
                else:
                    core = build_delta(cls, p=0, q=0, t=r, size=r)
                C = random_complex(rng, n, r)
                B = C @ core @ cls.star_of(C)
            else:
                B = random_structured(rng, cls, n)
            fact = star_factorize(B, cls)
            err = fnorm(fact.reconstruct() - B)
            assert err <= 1e-10 * max(fnorm(B), 1e-12), \
                f"{cls.code} n={n}: reconstruction {err:.3e}"
            if cls.star == "H":
                H = 1j * B if cls.epsilon == 1 else B
                p, q, _ = inertia(H)
                assert (fact.pattern.p, fact.pattern.q) == (p, q), \
                    f"{cls.code}: inertia mismatch"
    # Odd-rank skew-symmetric rejection.
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1], B[1, 0], B[2, 2] = 1.0, -1.0, 5e-11
    with pytest.raises(FactorizationFailure):
        star_factorize(B, TP, rank_tol=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"runtime {elapsed:.1f} s exceeds 30 s"
    print(f"\nPASS criterion 4: star-factorization suite, 500 matrices per "
          f"class incl. rank-deficient; odd-rank rejected ({elapsed:.1f} s <= 30 s)")


def test_criterion_5_parameter_space_structure():
    # Pascal similarity identity.
    for lam in (0.3 + 0.4j, 2 - 1j, -1.0):
        for m in range(1, 7):
            N = np.eye(m, k=1)
            P = pascal_scaling(m, lam)
            lhs = np.linalg.inv((1.0 / lam) * np.eye(m) + N.T)
            rhs = np.linalg.inv(P) @ (lam * np.eye(m) + N.T) @ P
            assert fnorm(lhs - rhs) <= 1e-10 * max(fnorm(lhs), 1.0)
    # Span agreement between the structured basis and the Kronecker
    # reference.
    for cls in ALL_CLASSES:
        lam1, lam2 = 0.4 + 0.2j, 1.7 - 0.5j
        T = jordan_matrix([lam1, 1 / cls.star_scalar(lam1),
                           lam2, 1 / cls.star_scalar(lam2)], [2, 2, 1, 1])
        sb = s_basis(T, cls)
        gb = kronecker_space(T, cls)
        assert len(sb) == len(gb)
        A = np.column_stack([_rvec(B) / np.linalg.norm(_rvec(B))
                             for B in sb])
        G = np.column_stack([_rvec(B) / np.linalg.norm(_rvec(B))
                             for B in gb])
        qa, _ = np.linalg.qr(A)
        qg, _ = np.linalg.qr(G)
        gap = max(np.linalg.norm(G - qa @ (qa.T @ G)),
                  np.linalg.norm(A - qg @ (qg.T @ A)))
        assert gap <= 1e-8, f"{cls.code}: span gap {gap:.3e}"
    # Falsification: a simple +1 eigenvalue kills every regular
    # transpose-palindromic candidate.  Its diagonal slot (and that of -1)
    # is structurally zero in every TP element, but free for TA.
    T = np.diag([2.0, 0.5, 1.0, -1.0])
    sb = s_basis(T, TP)
    assert len(sb) == 2
    assert not any(np.any(B[[2, 3], [2, 3]]) for B in sb)
    sb_ta = s_basis(T, TA)
    assert len(sb_ta) == 6
    assert any(np.any(B[[2, 3], [2, 3]]) for B in sb_ta)
    rng = np.random.default_rng(5)
    X = random_complex(rng, 2, 4)
    with pytest.raises(NoSolution):
        solve_iep_full(X, T, TP, seed=0)
    print("\nPASS criterion 5: Pascal identity <= 1e-10, structured/generic "
          "span agreement <= 1e-8, simple unimodular eigenvalue rejected")


def test_criterion_6_update_identities():
    done = 0
    seed = 0
    worst_smw, worst_transfer = 0.0, 0.0
    while done < 100:
        seed += 1
        cls = ALL_CLASSES[seed % 4]
        n = 3 + (seed % 3)
        try:
            sys = random_system(cls, n, seed=seed * 13 + 1, max_tries=10)
        except RuntimeError:
            continue
        e = eig_full(sys)
        if not (e.pairing_complete and separated_spectrum(e)):
            continue
        # Prefer a moderate-modulus pair to keep the update well scaled.
        cands = [(abs(abs(e.values[a]) - 0.5), a, b) for a, b in e.pairing
                 if a != b and 0.05 < abs(e.values[a]) < 0.95]
        if not cands:
            continue
        _, a, b = min(cands)
        try:
            X1, T1, X2, T2 = select_pairs(e, [e.values[a], e.values[b]])
            mu = (0.3 + 0.35 * ((seed * 7919) % 100) / 100.0) \
                * np.exp(2j * np.pi * ((seed * 104729) % 100) / 100.0)
            new = [mu, 1 / cls.star_scalar(mu)]
            res = update_model_result(
                MupProblem(sys, X1, T1, np.diag(new), seed=seed))
        except Exception:
            continue
        smw = fnorm(res.system.A1
                    @ (invert(sys.A1)
                       + cls.epsilon * res.Z1 @ cls.star_of(res.Z2))
                    - np.eye(n))
        transfer_rhs = X1 @ res.S1 @ cls.star_of(X1)
        transfer = fnorm(res.X1_new @ res.S1_new @ cls.star_of(res.X1_new)
                         - transfer_rhs) / max(fnorm(transfer_rhs), 1e-300)
        assert smw <= 1e-10, f"SMW identity defect {smw:.3e}"
        assert transfer <= 1e-9, f"transfer residual {transfer:.3e}"
        worst_smw = max(worst_smw, smw)
        worst_transfer = max(worst_transfer, transfer)
        done += 1
    print(f"\nPASS criterion 6: {done} updates, SMW <= {worst_smw:.2e} "
          f"(1e-10), transfer <= {worst_transfer:.2e} (1e-9)")


def test_criterion_7_joint_block_diagonalization():
    for cls in ALL_CLASSES:
        shapes = [(1, 1), (1, 2), (2, 2), (3, 3)]
        if cls == TA:
            # Odd-order transpose-anti blocks always carry +-1: two of them
            # can never have disjoint spectra.
            shapes = [(1, 2), (2, 2), (2, 3), (2, 4)]
        for sizes in shapes:
            X, J = planted_direct_sum(cls, list(sizes), seed=71)
            basis = solution_space(J, cls, X)
            S, _ = sample_nonsingular(basis, np.random.default_rng(1))
            S2, _ = sample_nonsingular(basis, np.random.default_rng(2))
            Shat, _ = sample_nonsingular(basis, np.random.default_rng(3))
            Shat2, _ = sample_nonsingular(basis, np.random.default_rng(4))
            K, pi, blocks = joint_block_diagonalize(X, J, S, S2, Shat, cls)
            assert sorted(blocks) == sorted(sizes), \
                f"{cls.code} {sizes}: got blocks {blocks}"
            sys2 = coefficients_from_pair(X, J, Shat2, cls)
            for M in (sys2.A1, sys2.A0):
                mass = _offblock_mass(cls.star_of(K) @ M @ K, blocks)
                assert mass <= 1e-8, f"{cls.code} {sizes}: off-block {mass:.3e}"
            z = zeta_partition(S, S2, cls)
            dim = len(solution_space(J, cls, X))
            assert z.cardinality <= dim, \
                f"{cls.code} {sizes}: card {z.cardinality} > dim {dim}"
    print("\nPASS criterion 7: planted block structure recovered, shared K "
          "verified on an independent draw, cardinality bound holds")


def test_criterion_8_spectral_symmetry(random_suite):
    checked = 0
    for cls in ALL_CLASSES:
        for sys in random_suite[cls.code]:
            e = eig_full(sys)
            assert e.pairing_complete, f"{cls.code} n={sys.n}: pairing failed"
            for a, b in e.pairing:
                d = pair_defect(cls, e.values[a], e.values[b])
                assert d <= 1e-6, f"{cls.code}: pair defect {d:.3e}"
            checked += 1
    # Real transpose-class systems also close under conjugation.
    real_checked = 0
    for cls in (TP, TA):
        for seed in range(25):
            sys = random_system(cls, 3 + seed % 4, seed=3000 + seed, real=True)
            if max_eig_condition(sys) >= COND_LIMIT:
                continue
            e = eig_full(sys)
            for v in e.values:
                gap = min(abs(e.values - np.conj(v)))
                assert gap <= 1e-8 * max(1.0, abs(v)), \
                    f"{cls.code}: conjugate closure gap {gap:.3e}"
            real_checked += 1
    print(f"\nPASS criterion 8: reciprocal pairing on {checked} systems "
          f"(<= 1e-6) and conjugate closure on {real_checked} real systems "
          f"(<= 1e-8)")

import json
import re

import numpy as np
import pytest

from helpers import count_eigensolves, random_system
from palinverse import forward
from palinverse.cli import main, parse_complex, parse_complex_list
from palinverse.fileio import (load_pair, load_system, load_values, save_pair,
                               save_system)
from palinverse.forward import eig_full, select_pairs
from palinverse.iep import IepProblem, solve_iep_partial_result
from palinverse.mup import MupProblem, update_model_result
from palinverse.numerics import fnorm
from palinverse.system import TP, SymmetryClass, pair_residual
from reference_problems import iep_fixture, update_fixture


def _write_values(values, path):
    """A values file: a JSON list of [re, im] pairs."""
    path.write_text(json.dumps([[complex(v).real, complex(v).imag]
                                for v in values]))


def test_parse_complex_forms():
    assert parse_complex("4.2361") == 4.2361
    assert parse_complex("-6+9i") == -6 + 9j
    assert parse_complex("1-2.5j") == 1 - 2.5j
    assert parse_complex("i") == 1j
    assert parse_complex("-3i") == -3j
    assert parse_complex_list("4,0.25") == [4.0, 0.25]
    with pytest.raises(ValueError):
        parse_complex("zebra")


def test_system_roundtrip_bytes(tmp_path):
    sys, _, _ = update_fixture("hp")
    path = tmp_path / "sys.json"
    save_system(sys, path)
    loaded = load_system(path)
    assert np.array_equal(loaded.A1, sys.A1)
    assert np.array_equal(loaded.A0, sys.A0)
    first = path.read_bytes()
    save_system(loaded, path)
    assert path.read_bytes() == first


def test_pair_and_values_roundtrip(tmp_path):
    from palinverse.system import HP

    X1, T1 = iep_fixture(HP)
    ppath = tmp_path / "pair.json"
    save_pair(X1, T1, ppath)
    X2, T2 = load_pair(ppath)
    assert np.array_equal(X1, X2) and np.array_equal(T1, T2)
    vpath = tmp_path / "vals.json"
    _write_values([1 + 2j, 3.0], vpath)
    assert load_values(vpath) == [1 + 2j, 3 + 0j]


def test_cmd_solve_fixture(tmp_path, capsys):
    from palinverse.system import TP

    X1, T1 = iep_fixture(TP)
    pairfile = tmp_path / "pair.json"
    outfile = tmp_path / "out.json"
    save_pair(X1, T1, pairfile)
    code = main(["solve", "--class", "tp", "--pairs", str(pairfile),
                 "--seed", "3", "--out", str(outfile), "--report"])
    captured = capsys.readouterr()
    assert code == 0
    assert "pair residual" in captured.out
    assert "sigma_min(A1)" in captured.out
    sys = load_system(outfile)
    assert pair_residual(sys, (X1, T1)) <= 1e-10
    scale = max(fnorm(sys.A0), fnorm(sys.A1))
    assert sys.symmetry_defect() <= 1e-11 * scale


def test_cmd_solve_deterministic(tmp_path):
    from palinverse.system import HA

    X1, T1 = iep_fixture(HA)
    pairfile = tmp_path / "pair.json"
    save_pair(X1, T1, pairfile)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--class", "ha", "--pairs", str(pairfile),
                 "--seed", "9", "--out", str(out1)]) == 0
    assert main(["solve", "--class", "ha", "--pairs", str(pairfile),
                 "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_solve_env_seed(tmp_path, monkeypatch):
    from palinverse.system import TA

    X1, T1 = iep_fixture(TA)
    pairfile = tmp_path / "pair.json"
    save_pair(X1, T1, pairfile)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("PALINVERSE_SEED", "17")
    assert main(["solve", "--class", "ta", "--pairs", str(pairfile),
                 "--out", str(out1)]) == 0
    assert main(["solve", "--class", "ta", "--pairs", str(pairfile),
                 "--seed", "17", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["solve", "--class", "tp", "--pairs", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.strip())
    assert err["error"] == "parse"


def test_cmd_file_errors_are_io_errors(tmp_path, capsys):
    # A file that cannot be written or read is an io failure, not a parse
    # error; both exit with code 2.
    pairfile = tmp_path / "pair.json"
    save_pair(*iep_fixture(TP), pairfile)
    missing = tmp_path / "missing"
    for argv in (["solve", "--class", "tp", "--pairs", str(pairfile),
                  "--out", str(missing / "out.json")],
                 ["solve", "--class", "tp", "--pairs", str(missing / "pair.json")]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "io", err
    assert not missing.exists()


@pytest.mark.parametrize("entry", ["1" + "0" * 400, "true"])
def test_cmd_out_of_range_or_boolean_entry_is_a_parse_error(entry, tmp_path, capsys):
    # A 400-digit integer overflows float() and a boolean is no number:
    # both are file errors (exit 2), not internal ones (exit 1).
    sysfile, pairfile = tmp_path / "sys.json", tmp_path / "pair.json"
    save_system(update_fixture("tp")[0], sysfile)
    save_pair(*iep_fixture(TP), pairfile)
    for path, key in ((sysfile, "A0"), (pairfile, "X")):
        doc = json.loads(path.read_text())
        doc[key][0][0][1] = "ENTRY"
        path.write_text(json.dumps(doc).replace('"ENTRY"', entry))
    for argv in (["eig", "--system", str(sysfile)],
                 ["solve", "--class", "tp", "--pairs", str(pairfile)]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse", err


def test_cmd_solve_parity_infeasible(tmp_path, capsys):
    # tp with one remaining +-1 singleton is structurally impossible.
    rng = np.random.default_rng(5)
    mu = 0.4 * np.exp(0.7j)
    X1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    pairfile = tmp_path / "pair.json"
    save_pair(X1, np.diag([mu, 1 / mu]), pairfile)
    valfile = tmp_path / "vals.json"
    _write_values([2.0, 0.5, 1.0, -1.0], valfile)
    code = main(["solve", "--class", "tp", "--pairs", str(pairfile),
                 "--remaining", str(valfile)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.strip())
    assert "parity" in err["message"] or "Infeasible" in err["error"]


def test_cmd_solve_full_pair_parity_infeasible(tmp_path, capsys):
    # k = 2n with a simple +1 and -1: tp parity, as for k < 2n.
    pairfile = tmp_path / "pair.json"
    X = np.random.default_rng(4).standard_normal((2, 4))
    save_pair(X, np.diag([1.0, -1.0, 0.5, 2.0]), pairfile)
    code = main(["solve", "--class", "tp", "--pairs", str(pairfile)])
    err = json.loads(capsys.readouterr().err.strip())
    assert (code, err["error"]) == (2, "Infeasible")


def test_cmd_update_of_nothing_is_dimension_mismatch(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    save_system(update_fixture("tp")[0], sysfile)
    code = main(["update", "--system", str(sysfile), "--replace=", "--with="])
    err = json.loads(capsys.readouterr().err.strip())
    assert (code, err["error"]) == (2, "DimensionMismatch")


def test_cmd_solve_full_pair_rejects_remaining(tmp_path, capsys):
    e = eig_full(random_system(TP, 3, seed=5))
    pairfile, valfile = tmp_path / "pair.json", tmp_path / "vals.json"
    save_pair(e.vectors, np.diag(e.values), pairfile)
    _write_values([0.5, 2.0, 7 + 1j], valfile)
    code = main(["solve", "--class", "tp", "--pairs", str(pairfile),
                 "--remaining", str(valfile)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.strip())
    assert err["error"] == "DimensionMismatch"
    assert err["message"] == "expected 0 remaining eigenvalues, got 3"


def _printed_defect(out):
    """The relative A0 symmetry defect printed by solve and update."""
    (value,) = re.findall(r"^A0 symmetry defect removed: (\S+) \(relative\)$",
                          out, flags=re.M)
    return value


@pytest.mark.parametrize("code_name", ["tp", "ta", "hp", "ha"])
def test_cmd_prints_removed_a0_defect(tmp_path, capsys, code_name):
    # solve and update print the a0_defect of their result, the defect the
    # assembly actually removed (every stored A0 is exactly structured).
    cls = SymmetryClass.from_code(code_name)
    X1, T1 = iep_fixture(cls)
    pairfile = tmp_path / "pair.json"
    save_pair(X1, T1, pairfile)
    assert main(["solve", "--class", code_name, "--pairs", str(pairfile),
                 "--seed", "3"]) == 0
    sol = solve_iep_partial_result(IepProblem(cls, X1, T1, seed=3))
    assert _printed_defect(capsys.readouterr().out) == f"{sol.a0_defect:.6e}"
    assert sol.a0_defect > 0.0

    sys, replace, new = update_fixture(code_name)
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    rep = ",".join(f"{complex(v).real!r}{complex(v).imag:+}i" for v in replace)
    wit = ",".join(f"{complex(v).real!r}{complex(v).imag:+}i" for v in new)
    assert main(["update", "--system", str(sysfile), f"--replace={rep}",
                 f"--with={wit}", "--seed", "4"]) == 0
    printed = _printed_defect(capsys.readouterr().out)
    loaded = load_system(sysfile)
    X, T, _, _ = select_pairs(eig_full(loaded), parse_complex_list(rep), tol=1e-3)
    res = update_model_result(MupProblem(loaded, X, T, np.diag(new), seed=4))
    assert printed == f"{res.a0_defect:.6e}"
    assert res.a0_defect > 0.0


@pytest.mark.parametrize("code_name", ["tp", "ta", "hp", "ha"])
def test_cmd_update_fixtures(tmp_path, capsys, code_name):
    sys, replace, new = update_fixture(code_name)
    sysfile = tmp_path / "sys.json"
    outfile = tmp_path / "new.json"
    save_system(sys, sysfile)
    rep = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in replace)
    wit = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in new)
    code = main(["update", "--system", str(sysfile), f"--replace={rep}",
                 f"--with={wit}", "--seed", "4", "--out", str(outfile)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    rels = re.findall(r"(\S+) \(relative\)", captured.out)
    assert len(rels) == 3
    defect, new_res, kept_res = map(float, rels)
    assert defect <= 1e-10
    assert new_res <= 1e-9
    assert kept_res <= 1e-9
    updated = load_system(outfile)
    e = eig_full(updated)
    for v in new:
        assert min(abs(e.values - v)) <= 1e-6


def test_cmd_update_solves_the_spectrum_once(tmp_path, capsys, monkeypatch):
    # The update's checks read the eigenvalues eig_full recorded.
    sys, replace, new = update_fixture("tp")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    calls = count_eigensolves(monkeypatch)
    rep = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in replace)
    wit = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in new)
    code = main(["update", "--system", str(sysfile), f"--replace={rep}",
                 f"--with={wit}", "--seed", "4"])
    assert code == 0, capsys.readouterr().err
    assert calls == [True]


def test_cmd_update_target_not_found(tmp_path, capsys):
    sys, _, _ = update_fixture("ta")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    code = main(["update", "--system", str(sysfile), "--replace", "99",
                 "--with", "2"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.strip())
    assert "target not found" in err["message"]


def test_cmd_update_lists_of_unequal_length_are_a_usage_error(tmp_path, capsys):
    sys, replace, _ = update_fixture("tp")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    rep = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in replace)
    code = main(["update", "--system", str(sysfile), f"--replace={rep}", "--with=0.5"])
    err = json.loads(capsys.readouterr().err.strip())
    assert (code, err) == (2, {"error": "usage", "message":
                               "--replace and --with need equally many values"})


@pytest.mark.parametrize("literal, said", [
    ("1e999", "non-finite complex literal '1e999'"),
    ("1e+", "cannot parse complex literal '1e+'"),
], ids=["overflow", "truncated"])
def test_cmd_update_bad_replace_literal_is_a_parse_error(literal, said, tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    save_system(update_fixture("tp")[0], sysfile)
    code = main(["update", "--system", str(sysfile), f"--replace={literal}", "--with=0.5"])
    err = json.loads(capsys.readouterr().err.strip())
    assert (code, err) == (2, {"error": "parse", "message": said})


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_cmd_update_match_tol_out_of_range_is_a_usage_error(tol, tmp_path, capsys):
    # A nan tolerance matched any eigenvalue and -1 none, even an exact one.
    sys, replace, new = update_fixture("tp")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    rep = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in replace)
    wit = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in new)
    code = main(["update", "--system", str(sysfile), f"--replace={rep}",
                 f"--with={wit}", "--match-tol", tol])
    err = json.loads(capsys.readouterr().err.strip())
    assert (code, err["error"]) == (2, "usage")
    assert "--match-tol" in err["message"]


@pytest.mark.parametrize("source", ["flag", "env"])
def test_cmd_negative_seed_is_a_usage_error(source, tmp_path, capsys, monkeypatch):
    pairfile = tmp_path / "pair.json"
    save_pair(*iep_fixture(TP), pairfile)
    argv = ["solve", "--class", "tp", "--pairs", str(pairfile)]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("PALINVERSE_SEED", "-1")
    code = main(argv)
    err = json.loads(capsys.readouterr().err.strip())
    assert (code, err["error"]) == (2, "usage")
    assert "seed" in err["message"]


@pytest.mark.parametrize("env", ["abc", "1.5", " "])
def test_cmd_non_integer_env_seed_is_a_usage_error(env, tmp_path, capsys, monkeypatch):
    # As --seed abc is: the seed is an argument, not a file to parse.
    pairfile = tmp_path / "pair.json"
    save_pair(*iep_fixture(TP), pairfile)
    monkeypatch.setenv("PALINVERSE_SEED", env)
    code = main(["solve", "--class", "tp", "--pairs", str(pairfile)])
    err = json.loads(capsys.readouterr().err.strip())
    assert (code, err["error"]) == (2, "usage")
    assert err["message"] == f"PALINVERSE_SEED must be an integer, got {env!r}"


def test_cmd_update_pairing_not_closed(tmp_path, capsys):
    sys, replace, _ = update_fixture("ta")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    code = main(["update", "--system", str(sysfile),
                 "--replace", str(replace[0]), "--with", "4"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.strip())
    assert "pairing not closed" in err["message"]


def test_cmd_eig_fixture(tmp_path, capsys):
    sys, replace, _ = update_fixture("hp")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    assert main(["eig", "--system", str(sysfile)]) == 0
    out = capsys.readouterr().out
    assert "paired with" in out
    # machine-readable form is byte-deterministic
    assert main(["eig", "--system", str(sysfile), "--json"]) == 0
    doc1 = capsys.readouterr().out
    assert main(["verify", "--system", str(sysfile), "--json"]) == 0
    doc2 = capsys.readouterr().out
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert parsed["pairing_complete"] is True
    vals = [complex(a, b) for a, b in parsed["values"]]
    assert min(abs(np.array(vals) - replace[0])) < 2e-3


def test_cmd_eig_scalar_system(tmp_path, capsys):
    from palinverse.system import TA, PalindromicSystem

    sysfile = tmp_path / "sys.json"
    save_system(PalindromicSystem(TA, [[1.0]], [[0.0]]), sysfile)
    assert main(["eig", "--system", str(sysfile)]) == 0
    out = capsys.readouterr().out
    assert "+1" in out and "-1" in out


def _pairing_notes(eigs):
    """The note cmd_eig prints after each eigenvalue, from eigs.pairing."""
    mate = {}
    for a, b in eigs.pairing:
        mate[a], mate[b] = b, a
    return ["UNPAIRED" if i not in mate
            else "self-paired (|lambda| = 1)" if mate[i] == i
            else f"paired with #{mate[i]}" for i in range(len(eigs.values))]


def test_cmd_eig_pairing_notes(tmp_path, capsys, monkeypatch):
    # Odd-order TA systems carry self-paired +1 and -1 beside a reciprocal
    # pair; a 1e-18 pairing tolerance leaves values unmatched.
    from palinverse.system import TA

    sysfile = tmp_path / "sys.json"
    save_system(random_system(TA, 3, seed=1), sysfile)
    sys = load_system(sysfile)
    for tol, complete in ((1e-6, True), (1e-18, False)):
        monkeypatch.setattr(forward, "PAIRING_TOL", tol)
        assert main(["eig", "--system", str(sysfile)]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = _pairing_notes(eig_full(sys))
        assert [line.split("  ")[-1] for line in lines[1:7]] == expected
        assert lines[7:] == ([] if complete else ["warning: pairing incomplete"])
        if complete:
            assert expected.count("self-paired (|lambda| = 1)") == 2
            assert sum(n.startswith("paired with #") for n in expected) == 4
        else:
            assert "UNPAIRED" in expected


def test_cmd_eig_symmetry_violation(tmp_path, capsys):
    sys, _, _ = update_fixture("tp")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    doc = json.loads(sysfile.read_text())
    doc["A0"][0][1][0] += 0.5  # break the symmetry
    sysfile.write_text(json.dumps(doc))
    code = main(["eig", "--system", str(sysfile)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.strip())
    assert "A0 symmetry violation" in err["message"]


def test_cmd_usage_error_exit_code(capsys):
    code = main(["solve"])  # missing required flags
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, said", [
    (["--class", "tp", "--pairs", "p.json", "--seed", "abc"], "invalid int value: 'abc'"),
    (["--class", "xx", "--pairs", "p.json"], "invalid choice: 'xx'"),
    (["--class", "tp"], "the following arguments are required: --pairs"),
], ids=["seed", "class", "pairs"])
def test_cmd_argparse_refusal_is_one_json_line(argv, said, capsys):
    # An argument argparse refuses ends like every other failure: exit 2
    # and one {"error", "message"} line on stderr, no usage text.
    code = main(["solve"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "usage" and said in err["message"]


def test_cmd_help_still_exits_zero(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--pairs" in capsys.readouterr().out


def test_cmd_update_prescribed_vectors(tmp_path, capsys):
    from palinverse.forward import select_pairs
    from palinverse.mup import MupProblem, update_model_result
    from palinverse.fileio import save_pair

    sys, replace, new = update_fixture("hp")
    sysfile = tmp_path / "sys.json"
    save_system(sys, sysfile)
    e = eig_full(sys)
    X1, T1, _, _ = select_pairs(e, replace)
    res = update_model_result(MupProblem(sys, X1, T1, np.diag(new), seed=4))
    vecfile = tmp_path / "vectors.json"
    save_pair(res.X1_new, np.diag(new), vecfile)
    rep = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in replace)
    wit = ",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in new)
    outfile = tmp_path / "out.json"
    code = main(["update", "--system", str(sysfile), f"--replace={rep}",
                 f"--with={wit}", "--vectors", str(vecfile),
                 "--seed", "1", "--out", str(outfile)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    updated = load_system(outfile)
    e2 = eig_full(updated)
    for v in new:
        assert min(abs(e2.values - v)) <= 1e-6

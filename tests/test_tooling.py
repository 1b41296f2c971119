"""Tooling checks.  The benchmark's tracer wraps package functions by name;
a rename must fail here, not only in a traced benchmark run.  The public
names in palinverse.__all__ must resolve, each to the object in its home
module.  `import palinverse` loads neither numpy nor any submodule, and each
subcommand loads only the modules it runs.  The CLI must run on numpy alone,
without importing scipy.  No package module imports a name it never uses,
only forward decides when two eigenvalues coincide, one function assembles
the spectral sums, one function solves X S X* = C over the parameter space,
and every float tolerance is defined in the one table of numerics."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import palinverse
from palinverse.fileio import save_pair, save_system
from palinverse.system import TP
from reference_problems import iep_fixture, update_fixture

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = ROOT / "src" / "palinverse"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    tracing = _tracing_module()
    for defining, attr, name in tracing.TARGETS:
        module = importlib.import_module(f"palinverse.{defining}")
        assert callable(getattr(module, attr, None)), name
    for defining, cls_name, name in tracing.METHOD_TARGETS:
        cls = getattr(importlib.import_module(f"palinverse.{defining}"), cls_name)
        assert "__post_init__" in vars(cls), name
    for module in tracing.MODULES:
        importlib.import_module(f"palinverse.{module}")


def _unused_imports(source):
    """Names a module's import statements bind but its code never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_unused_imports():
    # __init__ imports to re-export; every other module imports to use.
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_check_flags_planted_names():
    source = (PACKAGE / "system.py").read_text()
    planted = ("import json\nfrom .numerics import invert, solve_right\n"
               "from .errors import SingularW\n") + source
    assert _unused_imports(source) == []
    assert _unused_imports(planted) == ["SingularW", "invert", "json", "solve_right"]


def _readers(source, name):
    """Top-level definitions that read a name (None for other statements)."""
    return {getattr(stmt, "name", None) for stmt in ast.parse(source).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id == name}


def test_coincidence_tolerance_read_in_one_place():
    # Every eigenvalue-set rule (coincidence, pairing of a value list, +-1
    # parity, the multiplicity bound) is decided in forward.  The one other
    # reader is the exclusion radius of iep's default remaining eigenvalues;
    # iep keeps the import, and tests patch that binding.  numerics defines
    # the value in its tolerance table (a top-level statement, so None).
    readers = {path.stem: _readers(path.read_text(), "COINCIDE_RTOL")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "forward"}
    assert {module: names for module, names in readers.items() if names} == \
        {"iep": {"_default_remaining"}, "numerics": {None}}
    planted = "def _check(v, w):\n    return abs(v - w) <= COINCIDE_RTOL\n"
    assert _readers(planted, "COINCIDE_RTOL") == {"_check"}


def _small_floats(source):
    """(line, value) of every float or complex literal of modulus in
    (0, 1e-3] in a module's source: a tolerance or a floor."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, (float, complex))
                  and 0 < abs(node.value) <= 1e-3)


def test_tolerances_live_in_the_numerics_table():
    found = {path.name: _small_floats(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "numerics"}
    assert {name: values for name, values in found.items() if values} == {}


def test_small_float_check_flags_planted_literals():
    source = (PACKAGE / "mup.py").read_text()
    planted = source + ("\n\ndef _gate(x, y):\n"
                        "    return x <= 1e-9 * y or x > -2.5e-4 or x == 0.0 or y > 0.5\n")
    assert _small_floats(source) == []
    assert [value for _, value in _small_floats(planted)] == [1e-9, 2.5e-4]
    assert _small_floats((PACKAGE / "numerics.py").read_text())


def test_forward_binds_the_traced_eigensolver():
    # The tracer replaces numerics.dense_eig wherever a module binds that
    # very object; forward must call it through its own binding.
    from palinverse import forward, numerics

    assert forward.dense_eig is numerics.dense_eig


def test_one_spectral_assembly(monkeypatch):
    # Construction and the no-spillover update form X T^-1 S X* and
    # X T^-2 S X* in spectral._spectral_sums alone: wrapped wherever a module
    # binds it, it runs once per partial-solve draw and once per update
    # draw, and mup binds no linear_solve: the sums divide its T1 and T1_new.
    from palinverse import mup, spectral
    from palinverse.forward import eig_full, select_pairs
    from palinverse.iep import IepProblem, solve_iep_partial_result

    real, calls = spectral._spectral_sums, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    bindings = []
    for name in _tracing_module().MODULES:
        module = importlib.import_module(f"palinverse.{name}")
        if getattr(module, "_spectral_sums", None) is real:
            monkeypatch.setattr(module, "_spectral_sums", counted)
            bindings.append(name)
    assert bindings == ["spectral", "mup"]
    assert not hasattr(mup, "linear_solve")

    sol = solve_iep_partial_result(IepProblem(TP, *iep_fixture(TP), seed=1))
    assert (sol.attempts, len(calls)) == (1, 1)
    usys, replace, new = update_fixture("tp")
    X1, T1, _, _ = select_pairs(eig_full(usys), replace)
    res = mup.update_model_result(mup.MupProblem(usys, X1, T1, np.diag(new), seed=1))
    assert (res.attempts, len(calls)) == (1, 2)


def test_one_solve_of_the_parameter_space(monkeypatch):
    # Construction and the prescribed update solve X S X* = C over the
    # parameter space in paramspace._xsx_solve alone: wrapped wherever a
    # module binds it, it runs once for a full solve, once for the space
    # of a partial solve and once for a prescribed update.  It and the
    # Jordan-block family are the only null-space decisions by SVD.
    from palinverse import mup, paramspace
    from palinverse.forward import eig_full, select_pairs
    from palinverse.iep import IepProblem, solve_iep_full, solve_iep_partial_result

    usys, replace, new = update_fixture("tp")
    X1, T1, _, _ = select_pairs(eig_full(usys), replace)
    free = mup.update_model_result(mup.MupProblem(usys, X1, T1, np.diag(new), seed=1))
    real, calls = paramspace._xsx_solve, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    bindings = []
    for name in _tracing_module().MODULES:
        module = importlib.import_module(f"palinverse.{name}")
        if getattr(module, "_xsx_solve", None) is real:
            monkeypatch.setattr(module, "_xsx_solve", counted)
            bindings.append(name)
    assert bindings == ["paramspace"]

    e = eig_full(usys)
    solve_iep_full(e.vectors, np.diag(e.values), TP, seed=1)
    assert len(calls) == 1
    sol = solve_iep_partial_result(IepProblem(TP, *iep_fixture(TP), seed=1))
    assert (sol.attempts, len(calls)) == (1, 2)
    res = mup.update_model_result(mup.MupProblem(
        usys, X1, T1, np.diag(new), X1_new=free.X1_new, seed=1))
    assert (res.attempts, len(calls)) == (1, 3)
    readers = {path.stem: _readers(path.read_text(), "_svd_null")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in readers.items() if names} == \
        {"paramspace": {"_xsx_solve", "_symmetric_family"}}


def test_no_option_without_a_production_caller():
    # Options no production path set are constants now, and the k = 2n
    # step is no public entry; this keeps them from coming back unnoticed.
    import dataclasses
    import inspect

    from palinverse import analysis, forward, iep, mup, structfact, system

    def params(fn):
        return list(inspect.signature(fn).parameters)

    def init_fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert params(forward.eig_full) == ["sys"]
    assert params(iep.solve_psi) == ["delta", "omega", "cls"]
    assert params(analysis.zeta_partition) == ["S", "S_tilde", "cls"]
    assert params(analysis.joint_block_diagonalize) == [
        "X", "J", "S", "S_tilde", "S_hat", "cls"]
    assert init_fields(iep.IepProblem) == [
        "cls", "X1", "T1", "seed", "remaining_eigenvalues"]
    assert init_fields(mup.MupProblem) == ["sys", "X1", "T1", "T1_new", "X1_new", "seed"]
    assert "pairing_tol" not in init_fields(forward.EigenPairSet)
    assert not hasattr(system.SymmetryClass, "name")
    assert not hasattr(structfact.StarFactorization, "condition")
    assert {"solve_iep_full", "solve_psi"}.isdisjoint(palinverse.__all__)


def test_public_names_resolve():
    names = palinverse.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(palinverse, name) for name in names)
    namespace = {}
    exec("from palinverse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)


def _child(code, payload, cwd):
    """Run code in a fresh interpreter that imports this checkout's src;
    return the JSON object its last stdout line holds."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(payload)],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_runs(tmp_path):
    """Argument lists for solve, update and eig on the TP reference fixtures."""
    pairfile, sysfile = tmp_path / "pair.json", tmp_path / "sys.json"
    save_pair(*iep_fixture(TP), pairfile)
    usys, replace, new = update_fixture("tp")
    save_system(usys, sysfile)
    values = [",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in vs)
              for vs in (replace, new)]
    return {"solve": ["solve", "--class", "tp", "--pairs", str(pairfile),
                      "--seed", "1", "--out", str(tmp_path / "solved.json")],
            "update": ["update", "--system", str(sysfile), f"--replace={values[0]}",
                       f"--with={values[1]}", "--seed", "1",
                       "--out", str(tmp_path / "updated.json")],
            "eig": ["eig", "--system", str(sysfile), "--json"]}


# Runs the three subcommands in one fresh interpreter, then lists every
# scipy module it has loaded.
_NO_SCIPY_CODE = """
import json, sys
import palinverse
from palinverse.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_without_scipy(tmp_path):
    runs = list(_cli_runs(tmp_path).values())
    result = _child(_NO_SCIPY_CODE, runs, tmp_path)
    assert result == {"codes": [0, 0, 0], "scipy": []}


# `import palinverse`, then one subcommand; lists the package modules and
# whether numpy was loaded after the import alone.
_LOADED_CODE = """
import json, sys
import palinverse
report = {"numpy": "numpy" in sys.modules,
          "after_import": sorted(m for m in sys.modules if m.startswith("palinverse."))}
from palinverse.cli import main
report["code"] = main(json.loads(sys.argv[1]))
report["modules"] = sorted(m[len("palinverse."):] for m in sys.modules
                           if m.startswith("palinverse."))
print(json.dumps(report))
"""

# Modules a subcommand has no use for.
_NOT_LOADED = {
    "eig": {"iep", "mup", "paramspace", "structfact", "spectral", "analysis"},
    "solve": {"mup", "analysis"},
    "update": {"iep", "analysis"},
}


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_subcommand_loads_only_what_it_runs(command, tmp_path):
    report = _child(_LOADED_CODE, _cli_runs(tmp_path)[command], tmp_path)
    assert report["numpy"] is False
    assert report["after_import"] == []
    assert report["code"] == 0
    assert "cli" in report["modules"]
    assert _NOT_LOADED[command].isdisjoint(report["modules"])


def test_public_names_are_their_home_objects():
    for name in palinverse.__all__:
        home = importlib.import_module(f"palinverse.{palinverse._HOME[name]}")
        assert getattr(palinverse, name) is getattr(home, name), name
    assert dir(palinverse) == palinverse.__all__
    assert palinverse.iep is importlib.import_module("palinverse.iep")


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        palinverse.no_such_name
    with pytest.raises(ImportError):
        exec("from palinverse import no_such_name", {})

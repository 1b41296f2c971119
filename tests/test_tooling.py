"""Tooling checks.  The benchmark's tracer wraps package functions by name;
a rename must fail here, not only in a traced benchmark run.  The public
names in palinverse.__all__ must resolve.  The CLI must run on numpy alone,
without importing scipy."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import palinverse
from palinverse.fileio import save_pair, save_system
from palinverse.system import TP
from reference_problems import iep_fixture, update_fixture

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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


def test_forward_binds_the_traced_eigensolver():
    # The tracer replaces numerics.dense_eig wherever a module binds that
    # very object; forward must call it through its own binding.
    from palinverse import forward, numerics

    assert forward.dense_eig is numerics.dense_eig


def test_public_names_resolve():
    names = palinverse.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(palinverse, name) for name in names)
    namespace = {}
    exec("from palinverse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)


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
    pairfile, sysfile = tmp_path / "pair.json", tmp_path / "sys.json"
    save_pair(*iep_fixture(TP), pairfile)
    usys, replace, new = update_fixture("tp")
    save_system(usys, sysfile)
    values = [",".join(f"{complex(v).real}{complex(v).imag:+}i" for v in vs)
              for vs in (replace, new)]
    runs = [["solve", "--class", "tp", "--pairs", str(pairfile), "--seed", "1",
             "--out", str(tmp_path / "solved.json")],
            ["update", "--system", str(sysfile), f"--replace={values[0]}",
             f"--with={values[1]}", "--seed", "1",
             "--out", str(tmp_path / "updated.json")],
            ["eig", "--system", str(sysfile), "--json"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CODE, json.dumps(runs)],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}

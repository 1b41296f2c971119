"""The end-to-end CLI rows of cli_checks.py, one case per row, run against
this checkout's src; and the misses its runner must report."""

import os
from pathlib import Path

import pytest

from cli_checks import ROWS, make_inputs, run

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_checks")
    cwd = os.getcwd()
    os.chdir(path)
    try:
        make_inputs()
    finally:
        os.chdir(cwd)
    return path


def _env(**extra):
    """The environment of a row's runs: this checkout's src first, and no
    PALINVERSE_SEED but a row's own."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])), **extra)
    env.pop("PALINVERSE_SEED", None)
    return env


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_cli_row(row, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    problem = run(row, _env())
    assert problem is None, problem


def test_run_reports_every_miss(inputs, monkeypatch):
    # Each planted row differs from a passing one by one expectation, or by
    # PYTHONPROFILEIMPORTTIME, under which every run writes its import times
    # on stderr: an exit-0 run then writes text there, and an exit-2 run more
    # than its one JSON line.
    monkeypatch.chdir(inputs)
    eig = ["eig", "--system", "system.json"]
    abc = ["solve", "--class", "tp", "--pairs", "vectors.json", "--seed", "abc"]
    assert run(("eig", [eig], 0, None, lambda out, err: "n: 3" in out), _env()) is None
    assert run(("abc", [abc], 2, "usage", None), _env()) is None
    noisy = _env(PYTHONPROFILEIMPORTTIME="1")
    planted = {"wrong exit": (("eig", [eig], 2, "usage", None), _env()),
               "failing earlier run": (("abc", [abc, eig], 0, None, None), _env()),
               "wrong error": (("abc", [abc], 2, "parse", None), _env()),
               "failing check": (("eig", [eig], 0, None, lambda out, err: "n: 4" in out),
                                 _env()),
               "raising check": (("eig", [eig], 0, None, lambda out, err: 1 / 0), _env()),
               "stderr on exit 0": (("eig", [eig], 0, None, None), noisy),
               "stderr lines on exit 2": (("abc", [abc], 2, "usage", None), noisy)}
    missed = [kind for kind, (row, env) in planted.items() if run(row, env) is None]
    assert missed == []

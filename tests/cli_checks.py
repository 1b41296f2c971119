"""End-to-end checks of the palinverse command line: rows (name, runs, exit,
error, check), each run the argv of a fresh `python -m palinverse.cli`, after
a dict of environment entries if it has one.  Each run but the last exits 0
with no stderr; the last exits `exit`, with 2 writing one JSON line of that
"error", and check(stdout, stderr) judges it.  `python tests/cli_checks.py`
runs the rows against the importable palinverse; it exits 1 if one fails."""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from palinverse.fileio import load_pair, load_system, save_pair, save_system
from palinverse.forward import eig_full
from palinverse.system import PalindromicSystem

README = Path(__file__).resolve().parent.parent / "README.md"
SCALED = ("scaled_up.json", "scaled_down.json", "scaled_up_far.json", "scaled_down_far.json")


def normal(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def make_inputs():
    """Write every input file a row reads into the current directory."""
    # The README's Python API example: its system, and its new eigenvectors.
    section = README.read_text().split("## Python API", 1)[1]
    namespace = {}
    exec(re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1), namespace)
    save_system(namespace["sys"], "system.json")
    save_pair(namespace["new_vectors"], namespace["new"], "vectors.json")
    base = load_system("system.json")
    e = eig_full(base)
    save_pair(e.vectors, np.diag(e.values), "full.json")
    save_pair(normal(4, 2, 4), np.diag([1.0, -1.0, 0.5, 2.0]), "unit.json")
    save_pair(np.array([[1.0, 1.0]]), np.diag([2.0, 0.5]), "ta_odd.json")
    X = normal(7, 3, 2)
    X[:, 0] = 0.0
    save_pair(X, np.diag([2.0, 0.5]), "zero_column.json")
    save_pair(normal(5, 3, 1), np.diag([np.exp(0.5j)]), "unit_hp.json")
    mu, far = 0.6 + 0.1j, 1e5 * np.exp(0.7j)
    save_pair(normal(6, 3, 2), np.diag([mu, (1 + 3e-9) / np.conj(mu)]), "near_hp.json")
    save_pair(normal(6, 3, 2), np.array([[mu, 0.5], [0, (1 + 1e-9) / np.conj(mu)]]),
              "upper_hp.json")
    save_pair(normal(3, 3, 2), np.diag([far, 1 / np.conj(far)]), "far_hp.json")
    X, T = load_pair("vectors.json")
    E = normal(1, *X.shape)
    save_pair(X + 5e-9 * np.linalg.norm(X) / np.linalg.norm(E) * E, T, "moved.json")
    doc = json.loads(Path("system.json").read_text())
    doc["class"]["epsilon"] = 1.5
    Path("eps.json").write_text(json.dumps(doc))
    for name, s in zip(SCALED, (1e20, 1e-20, 1e200, 1e-200)):
        save_system(PalindromicSystem(base.cls, s * base.A1, s * base.A0), name)
    for name, first in (("rem.json", 1), ("rem_nan.json", "NaN"), ("rem_inf.json", "Infinity")):
        Path(name).write_text(f"[[{first}, 0], [1, 0], [0.5, 0], [2, 0]]\n")
    Path("rem4.json").write_text("[[1, 0], [1, 0], [1, 0], [1, 0]]\n")


def same_bytes(first, *others):
    return all(Path(first).read_bytes() == Path(other).read_bytes() for other in others)


def resaves(out, err):
    """Saving the loaded solved.json rewrites the same bytes."""
    save_system(load_system("solved.json"), "resaved.json")
    return same_bytes("solved.json", "resaved.json")


OLD = "--replace=0.4+0.2i,2-1i"
NEW = "--with=0.6+0.1i,1.6216216216216217-0.2702702702702703i"
BACK = "--replace=0.6+0.1i,1.6216216216216217-0.2702702702702703i --with=0.4+0.2i,2-1i"
UPD = f"update --system system.json {OLD}"
TP = "solve --class tp --pairs vectors.json"

ROWS = [
    ("CLI full solve (k = 2n) from the entire eigendata of the system",  # reaches X S X* = 0
     ["solve --class tp --pairs full.json --seed 0 --out full_solved.json".split(),
      "eig --system full_solved.json --json".split()],
     0, None, lambda out, err: json.loads(out)["pairing_complete"] is True),
    # The +-1 parity rules are decided before the k = 2n step, as for k < 2n.
    ("CLI full solve (k = 2n) with a simple +1 and -1",
     ["solve --class tp --pairs unit.json".split()], 2, "Infeasible", None),
    ("CLI full solve (k = 2n) of an odd-order ta spectrum without +1 and -1",
     ["solve --class ta --pairs ta_odd.json".split()], 2, "Infeasible", None),
    ("CLI update that breaks the tp parity of +1 and -1",
     [f"{UPD} --with=1,-1".split()], 2, "Infeasible", None),
    ("CLI update with a nan matching tolerance",  # nan would match any eigenvalue
     ["update --system system.json --replace=0.45+0.2i,2.1-1i "
      "--with=0.6,1.6666666666666667 --match-tol nan".split()], 2, "usage", None),
    ("CLI update with a matching tolerance of 1e308",  # its bound overflows to inf, silently
     ["update --system system.json --replace=0.45+0.2i,2.1-1i "
      "--with=0.6,1.6666666666666667 --match-tol 1e308".split()], 0, None, None),
    ("CLI update that replaces nothing",
     ["update --system system.json --replace= --with=".split()], 2, "DimensionMismatch", None),
    ("CLI eig on a system file whose epsilon is 1.5",  # int() once read it as tp
     ["eig --system eps.json".split()], 2, "parse", None),
    ("CLI solve with a seed argparse refuses",  # one JSON line, no usage text
     [f"{TP} --seed abc".split()], 2, "usage", None),
    ("CLI solve with a double +1 among the remaining eigenvalues",  # tp pairs equal +-1
     [f"{TP} --remaining rem.json".split()], 0, None, None),
    ("CLI solve with a value listed more than n times",
     [f"{TP} --remaining rem4.json".split()], 2, "Infeasible", None),
    ("CLI solve with a NaN remaining eigenvalue",
     [f"{TP} --remaining rem_nan.json".split()], 2, "parse", None),
    ("CLI solve with an Infinity remaining eigenvalue",
     [f"{TP} --remaining rem_inf.json".split()], 2, "parse", None),
    ("CLI solve of a pair whose X has a zero column",
     ["solve --class tp --pairs zero_column.json".split()], 2, "SingularW",
     lambda out, err: "column 0 of X has zero norm" in err),
    # S1_new takes the replaced eigenvalue's sign characteristic and draws none.
    ("CLI free hp update of a unimodular eigenvalue, seeds 0 to 3",
     ["solve --class hp --pairs unit_hp.json --seed 0 --out hp.json".split()]
     + [f"update --system hp.json --replace=0.8775825618903728+0.479425538604203i "
        f"--with=0.6967067093471654+0.7173560908995228i --seed {seed}".split()
        for seed in range(4)], 0, None, None),
    ("A seeded CLI hp and ha solve repeats byte for byte",  # structfact's Hermitian path
     [f"solve --class {c} --pairs unit_hp.json --seed 0 --out {c}-{i}.json".split()
      for c in ("hp", "ha") for i in (1, 2)], 0, None,
     lambda out, err: same_bytes("hp-1.json", "hp-2.json") and same_bytes("ha-1.json", "ha-2.json")),
    # Partners reciprocal to 1e-9 and 3e-9 relative pair within COINCIDE_RTOL.
    ("CLI free update to a partner reciprocal within 1e-8",
     [f"{UPD} --with=0.6+0.1i,1.62162162-0.27027027i".split()], 0, None, None),
    ("CLI solve with a prescribed partner reciprocal within 1e-8",
     ["solve --class hp --pairs near_hp.json --seed 0".split()], 0, None, None),
    ("CLI solve with a non-diagonal T1 whose partner is reciprocal within 1e-8",
     ["solve --class hp --pairs upper_hp.json --seed 0".split()], 0, None, None),
    ("CLI hp solve of a prescribed pair of modulus 1e5",  # a scale-free support bound
     ["solve --class hp --pairs far_hp.json --seed 0".split()],
     0, None, lambda out, err: float(re.search(
         r"pair residual: \S+ \(abs 2-norm\)\s+(\S+) \(relative\)", out)[1]) <= 1e-9),
    ("CLI eig of the saved system", ["eig --system system.json --json".split()], 0, None, None),
    ("CLI chained update of the saved system",
     [f"{UPD} {NEW} --seed 0 --out updated.json".split(),
      f"update --system updated.json {BACK} --seed 0".split()], 0, None, None),
    ("CLI prescribed update of the saved system",
     [f"{UPD} {NEW} --vectors vectors.json --seed 0 --out prescribed.json".split()], 0, None, None),
    ("CLI solve of the saved pair; saving a loaded system rewrites the same bytes",
     [f"{TP} --seed 0 --out solved.json".split()], 0, None, resaves),
    ("CLI update whose --vectors file pairs other eigenvalues",  # T must be diag(--with)
     [f"{UPD} --with=0.6+0.2i,1.6216216216216217-0.2702702702702703i "
      "--vectors vectors.json --seed 0".split()], 2, "usage", None),
    ("CLI update whose --vectors no parameter matrix can transfer to",  # misses by 3e-9
     [f"{UPD} {NEW} --vectors moved.json --seed 0".split()], 2, "Inconsistent", None),
    ("CLI update of the saved system scaled by 1e20, 1e-20, 1e200 and 1e-200",
     [f"update --system {name} {OLD} {NEW} --seed 0".split() for name in SCALED], 0, None, None),
    ("A seeded CLI solve repeats byte for byte",  # --seed and PALINVERSE_SEED alike
     [f"{TP} --seed 0 --out seed_a.json".split(), f"{TP} --seed 0 --out seed_b.json".split(),
      [{"PALINVERSE_SEED": "0"}, *f"{TP} --out seed_env.json".split()]],
     0, None, lambda out, err: same_bytes("seed_a.json", "seed_b.json", "seed_env.json")),
    ("A seeded CLI ta solve repeats byte for byte",  # a Takagi factorization every draw
     [f"solve --class ta --pairs vectors.json --seed 0 --out ta_{i}.json".split()
      for i in "ab"], 0, None, lambda out, err: same_bytes("ta_a.json", "ta_b.json")),
    ("CLI free update of the saved ta system",
     ["solve --class ta --pairs vectors.json --seed 0 --out ta_saved.json".split(),
      f"update --system ta_saved.json {BACK}".split()], 0, None, None),
]


def _error(stderr):
    """The "error" of a stderr that is one JSON line, else None."""
    try:
        return json.loads(stderr).get("error") if stderr.count("\n") == 1 else None
    except (ValueError, AttributeError):
        return None


def run(row, env):
    """None if every run of row behaves as the row says, else what did not."""
    _, runs, exit_code, error, check = row
    for i, argv in enumerate(runs):
        extra = argv[0] if isinstance(argv[0], dict) else {}
        argv = argv[1:] if extra else argv
        proc = subprocess.run([sys.executable, "-m", "palinverse.cli", *argv],
                              env={**env, **extra}, capture_output=True, text=True)
        want = exit_code if i == len(runs) - 1 else 0
        problem = (f"exit {proc.returncode}, expected {want}" if proc.returncode != want
                   else "stderr is not empty" if want == 0 and proc.stderr
                   else f"stderr is not one JSON line with error {error!r}"
                   if want == 2 and _error(proc.stderr) != error else None)
        if problem:
            return f"{' '.join(argv)}: {problem}\n{proc.stderr}"
    try:
        if check is None or check(proc.stdout, proc.stderr):
            return None
    except Exception as exc:
        proc.stderr += f"{type(exc).__name__}: {exc}\n"
    return f"{' '.join(argv)}: check failed\n{proc.stdout}{proc.stderr}"


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        make_inputs()
        for row in ROWS:
            problem = run(row, os.environ)
            failures += problem is not None
            print("ok  " if problem is None else "FAIL", row[0])
            print(problem or "", end="")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

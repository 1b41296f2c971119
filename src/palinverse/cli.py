"""Command-line front end.

Subcommands: solve (construct a system from prescribed eigenpairs), update
(replace eigenvalues with no spillover), eig / verify (forward-solve and
report the paired spectrum).  Exit codes: 0 success, 2 domain failure
(single-line JSON diagnostic on stderr, whose "error" is usage, parse, io
or the name of the domain error), 1 internal error.  PALINVERSE_SEED
provides the default seed.

Each subcommand imports only the modules it runs: solve loads iep, update
loads mup, and eig loads neither.
"""

import argparse
import json
import os
import re
import sys as _sys

import numpy as np

from .errors import PalinverseError
from .fileio import load_pair, load_system, load_values, save_system
from .forward import _coincide, eig_full, select_pairs
from .numerics import MATCH_TOL, two_norm
from .system import SymmetryClass, pair_defect_matrix, pair_residual

_LITERAL_RE = re.compile(r"^[0-9eEij+.\-]+$")


def parse_complex(text):
    """Parse 'a+bi' style literals: 1.5, -2e-3, 3i, -i, 1+2i, 2.5-0.5j.

    Locale independent; both i and j mark the imaginary part.
    """
    cleaned = text.strip().replace(" ", "").replace("I", "i").replace("J", "j")
    cleaned = cleaned.replace("i", "j")
    if not cleaned or not _LITERAL_RE.match(cleaned.replace("j", "i")):
        raise ValueError(f"cannot parse complex literal {text!r}")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ValueError(f"non-finite complex literal {text!r}")
    return value


def parse_complex_list(text):
    return [parse_complex(part) for part in text.split(",") if part.strip()]


class _UsageError(Exception):
    """Arguments that argparse refuses, or that parse but pose no valid call."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals reach main as _UsageError, so they
    end in the one-line JSON diagnostic; --help still exits 0."""

    def error(self, message):
        raise _UsageError(message)


def _default_seed(args):
    """--seed, else PALINVERSE_SEED, else 0; a seed that is not a
    non-negative integer is a usage error."""
    seed, env = args.seed, os.environ.get("PALINVERSE_SEED")
    if seed is None:
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise _UsageError(f"PALINVERSE_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise _UsageError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _fail(kind, message):
    _sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return 2


def _fmt(x):
    return f"{x:.6e}"


def _pair_norms(sys, X, T):
    """(absolute 2-norm, relative) residual of the defining relation."""
    R = pair_defect_matrix(sys, X, T)
    return two_norm(R), pair_residual(sys, (X, T))


def cmd_solve(args):
    from .iep import IepProblem, solve_iep_partial_result

    cls = SymmetryClass.from_code(args.cls)
    seed = _default_seed(args)
    X1, T1 = load_pair(args.pairs)
    remaining = load_values(args.remaining) if args.remaining else None
    problem = IepProblem(cls, X1, T1, seed=seed, remaining_eigenvalues=remaining)
    sol = solve_iep_partial_result(problem)
    if args.out:
        save_system(sol.system, args.out)
    abs_res, rel_res = _pair_norms(sol.system, X1, T1)
    print(f"class: {cls.code}  n: {sol.system.n}  k: {T1.shape[0]}")
    print(f"attempts: {sol.attempts}")
    print(f"pair residual: {_fmt(abs_res)} (abs 2-norm)  {_fmt(rel_res)} (relative)")
    print(f"A0 symmetry defect removed: {_fmt(sol.a0_defect)} (relative)")
    if args.report:
        sv = np.linalg.svd(sol.system.A1, compute_uv=False)
        print(f"sigma_min(A1)/sigma_max(A1): {_fmt(sv[-1] / sv[0])}")
    return 0


def cmd_update(args):
    from .mup import MupProblem, update_model_result

    if not args.match_tol >= 0:  # refuses nan too
        raise _UsageError(f"--match-tol must be >= 0, got {args.match_tol}")
    seed = _default_seed(args)
    sys = load_system(args.system)
    targets = parse_complex_list(args.replace)
    new_values = parse_complex_list(args.with_values)
    if len(targets) != len(new_values):
        raise _UsageError("--replace and --with need equally many values")
    eigs = eig_full(sys)
    X1, T1, X2, T2 = select_pairs(eigs, targets, tol=args.match_tol)
    T1_new = np.diag(np.array(new_values, dtype=np.complex128))
    X1_new = None
    if args.vectors:
        X1_new, T = load_pair(args.vectors)
        if T.shape != T1_new.shape or np.any(T != np.diag(np.diag(T))) \
                or not _coincide(np.diag(T), new_values).diagonal().all():
            raise _UsageError("--vectors must pair X with T = diag(--with values)")
    res = update_model_result(MupProblem(sys, X1, T1, T1_new, X1_new=X1_new,
                                         seed=seed))
    new_sys, x1n = res.system, res.X1_new
    if args.out:
        save_system(new_sys, args.out)
    abs_new, rel_new = _pair_norms(new_sys, x1n, T1_new)
    abs_kept, rel_kept = _pair_norms(new_sys, X2, T2)
    print(f"class: {sys.cls.code}  n: {sys.n}  replaced: {len(targets)}")
    print(f"A0 symmetry defect removed: {_fmt(res.a0_defect)} (relative)")
    print(f"new-pair residual: {_fmt(abs_new)} (abs 2-norm)  {_fmt(rel_new)} (relative)")
    print(f"kept-pair residual: {_fmt(abs_kept)} (abs 2-norm)  {_fmt(rel_kept)} (relative)")
    return 0


def cmd_eig(args):
    sys = load_system(args.system)
    eigs = eig_full(sys)
    if args.json:
        doc = {
            "format": "palinverse-v1",
            "values": [[v.real, v.imag] for v in eigs.values],
            "pairing": [list(p) for p in eigs.pairing],
            "residuals": list(map(float, eigs.residuals)),
            "pairing_complete": eigs.pairing_complete,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"class: {sys.cls.code}  n: {sys.n}")
    for i, v in enumerate(eigs.values):
        mate = eigs.partner_index(i)
        if mate == i:
            note = "self-paired (|lambda| = 1)"
        elif mate is None:
            note = "UNPAIRED"
        else:
            note = f"paired with #{mate}"
        print(f"#{i}: {v.real:+.10g}{v.imag:+.10g}i  |lambda|={abs(v):.6g}  "
              f"residual={eigs.residuals[i]:.3e}  {note}")
    if not eigs.pairing_complete:
        print("warning: pairing incomplete")
    return 0


def build_parser():
    parser = _Parser(
        prog="palinverse",
        description="Inverse eigenvalue problems and no-spillover updating "
                    "for quadratic palindromic systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="construct a system from prescribed eigenpairs")
    p.add_argument("--class", dest="cls", required=True,
                   choices=["tp", "ta", "hp", "ha"],
                   help="symmetry class")
    p.add_argument("--pairs", required=True, help="JSON pair file with X and T")
    p.add_argument("--remaining", help="JSON file with the remaining eigenvalues")
    p.add_argument("--seed", type=int, default=None, help="non-negative seed")
    p.add_argument("--out", help="write the constructed system here")
    p.add_argument("--report", action="store_true", help="print extra diagnostics")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("update", help="replace eigenvalues with no spillover")
    p.add_argument("--system", required=True, help="JSON system file")
    p.add_argument("--replace", required=True,
                   help="comma-separated eigenvalues to replace (a+bi literals)")
    p.add_argument("--with", dest="with_values", required=True,
                   help="comma-separated replacement eigenvalues")
    p.add_argument("--vectors", help="JSON pair file prescribing new eigenvectors")
    p.add_argument("--match-tol", type=float, default=MATCH_TOL,
                   help="matching tolerance for --replace values (>= 0)")
    p.add_argument("--seed", type=int, default=None, help="non-negative seed")
    p.add_argument("--out", help="write the updated system here")
    p.set_defaults(func=cmd_update)

    for name in ("eig", "verify"):
        p = sub.add_parser(name, help="forward-solve and report the paired spectrum")
        p.add_argument("--system", required=True)
        p.add_argument("--json", action="store_true",
                       help="machine-readable eigenpair report")
        p.set_defaults(func=cmd_eig)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except _UsageError as exc:
        return _fail("usage", str(exc))
    except OSError as exc:  # a file that cannot be read or written
        return _fail("io", str(exc))
    except ValueError as exc:  # malformed JSON, file format or literal
        return _fail("parse", str(exc))
    except PalinverseError as exc:
        return _fail(type(exc).__name__, str(exc))
    except Exception as exc:  # pragma: no cover - internal failure path
        _sys.stderr.write(json.dumps(
            {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Tooling checks.  The benchmark's tracer wraps package functions by name;
a rename must fail here, not only in a traced benchmark run.  The public
names in palinverse.__all__ are the paper's 20, the ones the README lists,
and must resolve, each to the object in its home module.  `import
palinverse` loads neither numpy nor any submodule, every submodule loads on
first access, and each subcommand loads only the modules it runs.  The CLI
must run on numpy alone, without importing scipy.  No package module
imports a name it never uses, only forward measures a reciprocal partner
by |lam mu* - 1|, decides when two eigenvalues coincide, keeps a value
list clear of a spectrum, admits new eigenvalues and finds given ones (mup builds no error of either), one function
assembles the spectral sums, one function solves X S X* = C over the
parameter space and computes no eigenvalues, one function reads the
eigenvalues of a prescribed T1, and every float tolerance is defined in the one table of
numerics, which has no absolute entry and no floor; no comparison floors its
scale with a constant but the eigenvalue lookup's, and one rule judges a
transfer X S X* = C.  Every gate that compares with a tolerance raises on a
nan, and only numerics calls np.linalg.norm.  Only numerics tests exactly that
a T is diagonal, and only system forms Q(T)X.
Every definition is reached from the CLI or a public name, but for a listed
few that wait for the benchmark to stop naming them.  The CI workflow runs no
CLI subcommand itself: every end-to-end CLI check is a row of cli_checks.py."""

import ast
import importlib
import importlib.util
import json
import os
import re
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
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


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
    # parity, the multiplicity bound, the clearance of drawn remaining
    # eigenvalues) is decided in forward, which alone reads the tolerance;
    # tests patch that binding.  numerics defines the value in its
    # tolerance table (a top-level statement, so None).
    readers = {path.stem: _readers(path.read_text(), "COINCIDE_RTOL")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in readers.items() if names} == \
        {"forward": {"_coincide", "_group_values"}, "numerics": {None}}
    planted = "def _check(v, w):\n    return abs(v - w) <= COINCIDE_RTOL\n"
    assert _readers(planted, "COINCIDE_RTOL") == {"_check"}


STARS = ("conj", "conjugate", "star", "star_of", "star_scalar")


def _called(node):
    """The name a call node calls, bare or as an attribute, else None."""
    func = getattr(node, "func", None)
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _starred_product(node):
    """An expression holding a product (*, outer) and a starred value (a
    call of conj or a star, or a name spelled with star)."""
    subs = list(ast.walk(node))
    return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
               or _called(sub) == "outer" for sub in subs) \
        and any(_called(sub) in STARS or isinstance(sub, ast.Name) and "star" in sub.id
                for sub in subs)


def _reciprocity_products(source):
    """The functions that form the reciprocity defect lam mu* - 1: 1
    subtracted from a starred product, written out or through a name
    assigned one."""
    named = {target.id for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Assign) and _starred_product(node.value)
             for target in node.targets if isinstance(target, ast.Name)}

    def less_one(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            return False
        for one, rest in ((node.left, node.right), (node.right, node.left)):
            if isinstance(one, ast.Constant) and one.value == 1:
                return _starred_product(rest) or getattr(rest, "id", None) in named
        return False

    return _enclosing(source, less_one)


def test_one_reciprocity_defect():
    # |lam_p lam_q* - 1| decides a reciprocal partner for the pairing and
    # for the Stein support of the parameter space: forward forms it once,
    # at a scale-free target, and no other module spells it.
    found = {path.stem: _reciprocity_products(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == \
        {"forward": {"_reciprocity_defect"}}


def test_reciprocity_check_flags_planted_spellings():
    # The Stein support's own copy this replaced, whose bound grew with
    # max |P|, and a product written out; 2 n - 1 and x - 1 are no defect.
    planted = ("def _stein_support(values, cls):\n"
               "    P = values[:, None] * star(values)[None, :]\n"
               "    return np.abs(P - 1.0) <= RANK_RTOL * np.abs(P).max()\n"
               "def _near(lam, mu):\n    return abs(1 - lam * np.conj(mu)) < 1e-8\n"
               "def _sizes(n, x):\n    return 2 * n - 1, x - 1\n")
    assert _reciprocity_products(planted) == {"_stein_support", "_near"}


def test_parameter_matrices_decided_in_the_sampler_alone():
    # Construction and both updates draw S through one sampler, which alone
    # decides a drawn S nonsingular; numerics defines the gate.
    readers = {path.stem: _readers(path.read_text(), "NONSINGULAR_RTOL")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in readers.items() if names} == \
        {"paramspace": {"sample_nonsingular"}, "numerics": {None}}


def test_one_retry_loop_and_one_exhausted_error():
    # Construction and both updates hand their draw to errors.retry, which
    # alone reads the one list of misses (defined by a top-level statement,
    # so None) and raises the one exhausted error.
    want = {"MISSES": {"errors": {None, "retry"}},
            "RetryExhausted": {"errors": {"retry"}}}
    for name, modules in want.items():
        readers = {path.stem: _readers(path.read_text(), name)
                   for path in sorted(PACKAGE.glob("*.py"))}
        assert {module: names for module, names in readers.items() if names} == \
            modules, name


def _enclosing(source, matches):
    """Qualified names (Class.method, outer.inner) of the functions that
    hold a node for which matches(node) is true."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
                continue
            if matches(child):
                found.add(prefix[:-1])
            visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def _raisers(source, name):
    """The functions that raise name."""
    def raises(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == name

    return _enclosing(source, raises)


def _callers(source, name):
    """The functions that call name, bare or as an attribute (np.f)."""
    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return getattr(func, "id", None) == name or getattr(func, "attr", None) == name

    return _enclosing(source, calls)


def test_infeasible_is_decided_before_the_first_draw():
    # Infeasible claims that no solution exists, so only the up-front
    # checks raise it; no function a draw calls (nested draws included)
    # does.
    raisers = {path.stem: _raisers(path.read_text(), "Infeasible")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in raisers.items() if names} == {
        "forward": {"_admit"}, "iep": {"solve_iep_partial_result"},
        "mup": {"update_model_result"}}
    planted = ("class P:\n    def check(self):\n        def draw():\n"
               "            raise Infeasible('x')\n        raise Infeasible\n")
    assert _raisers(planted, "Infeasible") == {"P.check.draw", "P.check"}


def _defined(stmt):
    """Names a top-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _unreached(sources, roots):
    """(module, name) of every top-level definition, and (module,
    Class.method) of every method, that no name read from roots reaches.
    Names resolve by spelling alone, in any module: a read of x reaches
    every definition and every method called x.  A reached class reaches
    its bases, decorators and field defaults, not its methods; dunders,
    which Python calls, and _Parser.error, which argparse calls, are roots."""
    defs = {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            defs.update(((module, name), stmt) for name in _defined(stmt))
            if isinstance(stmt, ast.ClassDef):
                defs.update(((module, f"{stmt.name}.{item.name}"), item)
                            for item in stmt.body if isinstance(item, ast.FunctionDef))
    spelled = {}
    for key in defs:
        spelled.setdefault(key[1].split(".")[-1], []).append(key)
    todo = list(roots) + [("cli", "_Parser.error")] + [
        key for key in defs if re.fullmatch(r"__\w+__", key[1].split(".")[-1])]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        node = defs[key]
        parts = [node] if not isinstance(node, ast.ClassDef) else \
            node.bases + node.decorator_list + [
                item for item in node.body if not isinstance(item, ast.FunctionDef)]
        for part in parts:
            for sub in ast.walk(part):
                name = sub.id if isinstance(sub, ast.Name) else \
                    sub.attr if isinstance(sub, ast.Attribute) else None
                todo += spelled.get(name, [])
    return set(defs) - reached


# Definitions no production path reaches.  Each waits for ROADMAP item 17:
# bench/ looks up the functions by name (tracing.TARGETS) and imports the
# empty analysis module (tracing.MODULES).  None stands for every
# definition of the module.
_WAITING = {
    "analysis": None,
    "iep": {"solve_iep_full", "solve_psi"},
    "mup": {"update_model_prescribed"},
    "paramspace": {"s_basis"},
    "spectral": {"coefficients_from_pair"},
    "system": {"eval_Q"},
}


def _package_unreached(sources):
    roots = [("cli", "main")] + [(palinverse._HOME[name], name) for name in palinverse.__all__]
    return _unreached(sources, roots)


def test_every_definition_is_reached_from_the_cli_or_a_public_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unreached = _package_unreached(sources)
    waiting = {(module, name) for module, name in unreached
               if module in _WAITING and (_WAITING[module] is None
                                          or name in _WAITING[module])}
    assert unreached - waiting == set()
    # Every named entry is still unreached, and every function waits on bench/.
    named = {(module, name) for module, names in _WAITING.items() for name in names or ()}
    assert named <= unreached
    tracing = _tracing_module()
    looked_up = {(module, attr) for module, attr, _ in tracing.TARGETS}
    assert "analysis" in tracing.MODULES
    assert named <= looked_up
    planted = dict(sources, mup=sources["mup"] + "\n\ndef _planted():\n    return 0\n")
    assert _package_unreached(planted) == unreached | {("mup", "_planted")}


def _spells_apart(node):
    """A call _coincide(...).any(axis=1): some value of a list coincides
    with one of another."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and getattr(func, "attr", None) == "any" \
        and isinstance(func.value, ast.Call) \
        and getattr(func.value.func, "id", None) == "_coincide" \
        and any(kw.arg == "axis" for kw in node.keywords)


def _spells_partner(node):
    """A division 1 / (...) whose denominator conjugates or stars a value:
    a partner value 1/lam* written out."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
        and isinstance(node.left, ast.Constant) and node.left.value == 1 \
        and any(getattr(getattr(sub, "func", None), "attr", None) in ("conj", "star_scalar")
                for sub in ast.walk(node.right))


def test_one_admission_rule_and_one_matcher():
    # A construction's remaining values and an update's replacement values
    # are admitted beside the rest of the spectrum by forward._admit; the
    # targets of select_pairs and an update's selected values are found by
    # forward._nearest; forward._apart alone checks that a value list is
    # clear of the rest of a spectrum (drawn remaining values too); and
    # forward._paired alone writes a partner value, for the values every
    # solve builds on.  mup builds neither of the two errors of a lookup or
    # a collision itself.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for name, want in (("_admit", {"iep": {"solve_iep_partial_result"},
                                   "mup": {"MupProblem.__post_init__"}}),
                       ("_nearest", {"forward": {"select_pairs"},
                                     "mup": {"MupProblem.__post_init__"}}),
                       ("_apart", {"forward": {"_admit", "select_pairs"},
                                   "iep": {"_default_remaining"},
                                   "mup": {"MupProblem.__post_init__"}}),
                       ("_paired", {"iep": {"_default_remaining", "solve_iep_partial_result",
                                            "_construct"},
                                    "mup": {"update_model_result"}})):
        callers = {module: _callers(source, name) for module, source in sources.items()}
        assert {module: names for module, names in callers.items() if names} == want, name
    for spells, home in ((_spells_apart, "_apart"), (_spells_partner, "_paired")):
        spelled = {module: _enclosing(source, spells) for module, source in sources.items()}
        assert {module: names for module, names in spelled.items() if names} == \
            {"forward": {home}}, home
    for error in ("SpectraOverlap", "TargetNotFound"):
        assert _callers(sources["mup"], error) | _raisers(sources["mup"], error) == set()


def test_apart_check_flags_planted_spellings():
    planted = ("def check(a, b):\n"
               "    if _coincide(a, b).any(axis=1).any():\n"
               "        raise SpectraOverlap('x')\n"
               "    return _coincide(a, b).any()\n")
    assert _enclosing(planted, _spells_apart) == {"check"}
    assert _callers(planted, "SpectraOverlap") == {"check"}


def test_partner_check_flags_planted_spellings():
    # The snap loop a prescribed update kept, and the drawn partners of a
    # construction's default remaining values, as they were written.
    planted = ("def snap(values, pairs, cls):\n"
               "    for i, j in pairs:\n"
               "        values[j] = 1.0 / cls.star_scalar(values[i])\n"
               "def draw(mu, cls):\n"
               "    return 1.0 / (np.conj(mu) if cls.star == 'H' else mu)\n"
               "def fine(lam, x):\n"
               "    return -1.0 / lam + 1.0 / (1.0 / x + 2.0)\n")
    assert _enclosing(planted, _spells_partner) == {"snap", "draw"}


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


def test_no_absolute_tolerance_in_the_table():
    # Every gate is relative to the size of what it checks, so an overall
    # scaling of the data moves no decision; a Jordan form joins two rows
    # on a superdiagonal entry exactly 1, with no tolerance.
    from palinverse import numerics

    assert [name for name in vars(numerics) if name.endswith("_ATOL")] == []
    assert not hasattr(numerics, "CONSISTENCY_RTOL")


def _floors(node):
    """Whether node is a constant floor: max(..., c) or np.maximum(c, ...)
    with a nonzero literal or a table-style name (NORM_FLOOR) c among its
    arguments, or .max(initial=c) with c != 0."""
    def constant(arg):
        arg = arg.operand if isinstance(arg, ast.UnaryOp) else arg
        return (isinstance(arg, ast.Constant) and type(arg.value) in (int, float)
                and arg.value != 0) or (isinstance(arg, ast.Name)
                                        and re.fullmatch(r"[A-Z0-9]+(_[A-Z0-9]+)+", arg.id))

    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    initial = [kw.value for kw in node.keywords if kw.arg == "initial"]
    return (name in ("max", "maximum") and any(map(constant, node.args))) \
        or (name == "max" and any(map(constant, initial)))


def _floored_comparisons(source):
    """The functions holding a comparison that carries a constant floor."""
    return _enclosing(source, lambda node: isinstance(node, ast.Compare)
                      and any(_floors(sub) for sub in ast.walk(node)))


def test_no_floor_in_the_table_or_a_comparison():
    # A relative gate x > tol * ||B|| needs no floor: a zero norm leaves a
    # zero defect, which passes.  And a ratio divides only by a norm its
    # code has shown nonzero, so the table holds tolerances alone.  The
    # one floored comparison is forward._nearest's max(1, |target|), the
    # lookup scale the README documents for --match-tol.
    from palinverse import numerics

    table = {name: value for name, value in vars(numerics).items() if name.isupper()}
    assert "NORM_FLOOR" not in table
    assert {name: value for name, value in table.items() if not 1e-16 < value < 1} == {}
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    floored = {module: _floored_comparisons(source) for module, source in sources.items()}
    assert {module: names for module, names in floored.items() if names} == \
        {"forward": {"_nearest"}}
    planted = ("def _gate(x, B):\n"
               "    if x > TOL * max(fnorm(B), NORM_FLOOR):\n"
               "        raise ValueError\n"
               "def _free(P):\n"
               "    return abs(P - 1) <= TOL * np.abs(P).max(initial=1.0)\n"
               "def _lookup(d, t):\n"
               "    return d > TOL * np.maximum(-1e-300, abs(t))\n"
               "def _count(c, n, X, A1):\n"
               "    return c.max(initial=0) > n or n < max(X, A1, fnorm(X))\n")
    assert _floored_comparisons(planted) == {"_gate", "_free", "_lookup"}


def test_one_transfer_rule():
    # The affine solve of X S X* = C and an update's verification judge a
    # transfer by one bound, paramspace._transfer_bound, the one reader of
    # its roundoff floor (numerics defines it, a top-level statement).
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = {module: _readers(source, "TRANSFER_FLOOR_RTOL")
               for module, source in sources.items()}
    assert {module: names for module, names in readers.items() if names} == \
        {"numerics": {None}, "paramspace": {"_transfer_bound"}}
    assert _package_callers("_transfer_bound") == {
        "paramspace": {"_xsx_solve"}, "mup": {"_finish"}}


# A tolerance a gate compares with: a table entry, a rank_tol or the transfer bound.
_TOLERANCE = re.compile(r"[A-Z0-9_]*_(RTOL|TOL|GATE)|rank_tol|_transfer_bound")


def _open_gates(source):
    """The functions holding an if that raises on an ordering of a value with
    a tolerance outside a not.  A nan orders false both ways, so such a gate
    lets it through, where not (value <= tol) raises on it."""
    def tolerance(node):
        return any(isinstance(sub, ast.Name) and _TOLERANCE.fullmatch(sub.id)
                   for sub in ast.walk(node))

    def bare(test):
        if isinstance(test, ast.BoolOp):
            return [c for value in test.values for c in bare(value)]
        return [test] if isinstance(test, ast.Compare) else []

    def gate(node):
        return isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body) \
            and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) and tolerance(c)
                    for c in bare(node.test) for op in c.ops)

    return _enclosing(source, gate)


def test_every_gate_fails_closed():
    # An overflow inside a solve leaves a nan, which as_matrix never lets in
    # from outside; every gate that compares with a tolerance raises on it.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    opened = {module: _open_gates(source) for module, source in sources.items()}
    assert {module: names for module, names in opened.items() if names} == {}


def test_open_gate_check_flags_planted_spellings():
    planted = ("def _pair(resid):\n"
               "    if resid > OUTPUT_RESIDUAL_TOL:\n"
               "        raise ResidualTooLarge\n"
               "def _ratio(A):\n"
               "    if sv_ratio(A) <= SINGULAR_RTOL:\n"
               "        raise SingularMatrix\n"
               "def _finish(r, e, C):\n"
               "    if r > OUTPUT_RESIDUAL_TOL or e > _transfer_bound(C):\n"
               "        raise ResidualTooLarge\n"
               "def _step(gamma, rank_tol):\n"
               "    if gamma.min() <= rank_tol:\n"
               "        raise FactorizationFailure\n"
               "def _closed(r, e, C):\n"
               "    if not (r <= OUTPUT_RESIDUAL_TOL and e <= _transfer_bound(C)):\n"
               "        raise ResidualTooLarge\n"
               "    if C is not None and not r > SINGULAR_RTOL:\n"
               "        raise SingularMatrix\n"
               "def _branch(s, P, rank_tol):\n"
               "    if s[-1] <= RANK_RTOL * P:\n"
               "        s = s[::-1]\n"
               "    if np.count_nonzero(s > rank_tol) % 2 != 0:\n"
               "        raise FactorizationFailure\n")
    assert _open_gates(planted) == {"_pair", "_ratio", "_finish", "_step"}


def test_one_norm_call_site():
    # Every norm is numerics' fnorm, column_norms or two_norm, so a norm
    # neither under- nor overflows at any scale a float carries: no other
    # module calls np.linalg.norm.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    callers = {module: _callers(source, "norm") for module, source in sources.items()}
    assert {module: names for module, names in callers.items() if names} == \
        {"numerics": {"column_norms", "two_norm"}}


def test_norm_check_flags_planted_calls():
    planted = ("from numpy.linalg import norm\n"
               "def _step(B, V):\n"
               "    return np.linalg.norm(B @ V.conj(), axis=0)\n"
               "def _resid(A, x, b):\n"
               "    return np.hypot(norm(A @ x - b), 1.0)\n"
               "def _fine(W, R):\n"
               "    return column_norms(W), fnorm(R), np.linalg.svd(R)\n")
    assert _callers(planted, "norm") == {"_step", "_resid"}


DIAGONALS = ("diag", "diagonal")


def _diagonal_tests(source):
    """The functions that test a T for exact diagonality: T against
    diag(diag(T)), or a count of T's nonzeros against a count or length."""

    def test(node):
        if _called(node) in DIAGONALS and node.args and _called(node.args[0]) in DIAGONALS:
            return True
        if not (isinstance(node, ast.Compare) and len(node.comparators) == 1):
            return False
        sides = {_called(node.left), _called(node.comparators[0])}
        return "count_nonzero" in sides and sides <= {"count_nonzero", "len"}

    return _enclosing(source, test)


def _mentions(node, name):
    return sum(getattr(sub, "id", None) == name or getattr(sub, "attr", None) == name
               for sub in ast.walk(node))


def _summands(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _summands(node.left) + _summands(node.right)
    return [node]


def _quadratic_sums(source):
    """The functions that form Q(T)X, or Q(lam): a sum that names A0 once or
    more and A1 twice or more (the quadratic and the constant term)."""

    def forms(node):
        return len(_summands(node)) > 1 and _mentions(node, "A0") and _mentions(node, "A1") > 1

    return _enclosing(source, forms)


def test_one_diagonal_test_and_one_defining_relation():
    # numerics.diagonal_of is the one exact test that T is diagonal; mup's
    # DIAGONAL_RTOL snap of an update's T1 is a tolerance decision, not an
    # exact test, and iep's Jordan-split check reads the superdiagonal, so
    # this reading does not count it.  Q(T)X is formed in system alone:
    # pair_defect_matrix, and eval_Q's Q(lam).
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for check, want in ((_diagonal_tests, {"numerics": {"diagonal_of"},
                                           "mup": {"_check_diagonal"}}),
                        (_quadratic_sums, {"system": {"eval_Q", "pair_defect_matrix"}})):
        found = {module: check(source) for module, source in sources.items()}
        assert {module: names for module, names in found.items() if names} == want


def test_diagonal_and_relation_checks_flag_planted_spellings():
    # The spellings diagonal_of and pair_defect_matrix replaced, with reads
    # of a diagonal, a count and a sum that are neither.
    planted = ("def _jordan_blocks(T):\n    return not np.any(T - np.diag(np.diag(T)))\n"
               "def unit_columns(X, T):\n"
               "    return np.count_nonzero(T) == np.count_nonzero(np.diagonal(T))\n"
               "def _spectral_sums(T, d):\n    return d.all() and np.count_nonzero(T) == len(d)\n"
               "def cmd_update(T):\n    return np.any(T != np.diag(np.diag(T)))\n"
               "def _fine(T, s, a, b):\n"
               "    return np.diag(T, 1) == 1.0, np.diag(np.repeat(np.diag(T), 2)), \\\n"
               "        np.count_nonzero(s > 1e-3) % 2 != 0, len(a) == len(b)\n")
    assert _diagonal_tests(planted) == {"_jordan_blocks", "unit_columns", "_spectral_sums",
                                        "cmd_update"}
    planted = ("def eig_full(sys, V, w):\n"
               "    return (star(sys.A1) @ V) * w**2 + (sys.A0 @ V) * w + eps * (sys.A1 @ V)\n"
               "def _horner(A1, A0, X, T):\n"
               "    return (star(A1) @ X @ T + A0 @ X) @ T - A1 @ X\n"
               "def _fine(A1, A0, B, A0_star, A1Q):\n"
               "    return (A0 + A0_star) / 2.0, A1 + B, max(fnorm(A0), fnorm(A1)), \\\n"
               "        A0 - A1Q @ B @ A1\n")
    assert _quadratic_sums(planted) == {"eig_full", "_horner"}


def test_small_float_check_flags_planted_literals():
    source = (PACKAGE / "mup.py").read_text()
    planted = source + ("\n\ndef _gate(x, y):\n"
                        "    return x <= 1e-9 * y or x > -2.5e-4 or x == 0.0 or y > 0.5\n")
    assert _small_floats(source) == []
    assert [value for _, value in _small_floats(planted)] == [1e-9, 2.5e-4]
    assert _small_floats((PACKAGE / "numerics.py").read_text())


def _cli_lines(workflow):
    """The lines of a workflow, read as text (CI installs no PyYAML), that run
    a palinverse subcommand by the console script or by python -m."""
    return [line.strip() for line in workflow.splitlines()
            if re.search(r"\bpalinverse\s+(solve|update|eig|verify)\b|-m\s+palinverse\.cli\b",
                         line)]


def test_no_cli_check_outside_the_table():
    # CI runs the rows of tests/cli_checks.py, which tier-1 runs too, and
    # `palinverse --help` to exercise the console script; a CLI check written
    # as a workflow step would run only in CI.
    assert _cli_lines(WORKFLOW.read_text()) == []


def test_cli_line_check_flags_planted_steps():
    planted = WORKFLOW.read_text() + ("      - name: CLI eig on a planted system\n"
                                      "        run: |\n"
                                      "          palinverse --help > /dev/null\n"
                                      "          palinverse eig --system x.json\n"
                                      "          python -m palinverse.cli solve --class tp\n")
    assert _cli_lines(planted) == ["palinverse eig --system x.json",
                                   "python -m palinverse.cli solve --class tp"]


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


def test_one_closed_form_block_of_new_eigenvalues():
    # The remaining eigenvalues of a construction and the replacement
    # values of a free update take their parameter block from one builder,
    # the one reader of the pair-factor table (defined by a top-level
    # statement, so None).  The free update draws and factorizes no
    # parameter matrix, and the spectral sums take no singular values.
    import inspect

    from palinverse import mup, spectral

    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = {module: _readers(source, "_PAIR_FACTOR") for module, source in sources.items()}
    assert {module: names for module, names in readers.items() if names} == \
        {"structfact": {None, "_closed_form_block"}}
    callers = {module: _callers(source, "_closed_form_block")
               for module, source in sources.items()}
    assert {module: names for module, names in callers.items() if names} == {
        "iep": {"solve_iep_partial_result.completion"}, "mup": {"update_model_result"}}
    assert not hasattr(mup, "s_basis") and not hasattr(mup, "solve_right")
    assert list(inspect.signature(spectral._spectral_sums).parameters) == ["blocks", "star"]
    planted = "def f():\n    def g():\n        return h(1)\n    return h\n"
    assert _callers(planted, "h") == {"f.g"}


def _hermitian_eps_tests(source):
    """The functions holding a comparison of eps (or epsilon) that is
    reached only for star = H, or is joined by `and` with a test that star
    is H: in the body of `if star == 'H'` (or `!= 'T'`), or the else of
    `if star == 'T'` (or `!= 'H'`)."""
    def star_test(node):
        text = ast.unparse(node)
        if re.fullmatch(r"(\w+\.)?star (==|!=) '[HT]'", text):
            return ("==" in text) == text.endswith("'H'")
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And) \
                and any(star_test(value) for value in node.values):
            return True
        return None

    def reads_eps(node):
        return any(isinstance(n, ast.Name) and n.id in ("eps", "epsilon")
                   or isinstance(n, ast.Attribute) and n.attr == "epsilon"
                   for n in ast.walk(node))

    found = set()

    def visit(node, prefix, hermitian):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            prefix, hermitian = f"{prefix}{node.name}.", False
        elif isinstance(node, ast.Compare) and hermitian and reads_eps(node):
            found.add(prefix[:-1])
        if isinstance(node, (ast.If, ast.IfExp)):
            side = star_test(node.test)
            visit(node.test, prefix, hermitian)
            for branch, under in ((node.body, side is True), (node.orelse, side is False)):
                for child in branch if isinstance(branch, list) else [branch]:
                    visit(child, prefix, hermitian or under)
            return
        joined = isinstance(node, ast.BoolOp) and star_test(node) is True
        for child in ast.iter_child_nodes(node):
            visit(child, prefix, hermitian or joined)

    visit(ast.parse(source), "", False)
    return found


def test_hermitian_unit_alone_reads_eps_of_an_h_class():
    # hp and ha are one problem: every hp canonical object is conj(u) times
    # ha's, and the unit u of _hermitian_unit is the one read of eps that
    # tells the star = H classes apart.  A test of eps under star = T (the
    # else of an H branch) is no such read.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = {module: _hermitian_eps_tests(source) for module, source in sources.items()}
    assert {module: names for module, names in found.items() if names} == \
        {"structfact": {"_hermitian_unit"}}


def test_hermitian_eps_check_flags_planted_spellings():
    # The spellings this replaced: build_delta's two H patterns and
    # star_factorize's 1j * Bp, each beside a test of eps that only a
    # star = T class reaches, which is no read of an H class.
    planted = ("def build_delta(cls, p, q, t, size):\n"
               "    if cls.star == 'H':\n"
               "        if cls.epsilon == 1:\n"
               "            D[:q, :q] = 1j * np.eye(q)\n"
               "        else:\n"
               "            D[:p, :p] = np.eye(p)\n"
               "    elif cls.epsilon == 1:\n"
               "        D[:t, :t] = np.eye(t)\n"
               "def star_factorize(B, cls):\n"
               "    if cls.star == 'T' and cls.epsilon == 1:\n"
               "        return B\n"
               "    return 1j * B if cls.star == 'H' and cls.epsilon == 1 else B\n")
    assert _hermitian_eps_tests(planted) == {"build_delta", "star_factorize"}
    unit = ("def build_delta(cls, p, q, t, size):\n"
            "    if cls.star == 'H':\n"
            "        D[:p, :p] = _hermitian_unit(cls).conjugate() * np.eye(p)\n"
            "    elif cls.epsilon == 1:\n"
            "        D[:t, :t] = np.eye(t)\n"
            "def star_factorize(B, cls):\n"
            "    if cls.star != 'H' and cls.epsilon == 1:\n"
            "        return B\n"
            "    return _hermitian_unit(cls) * B\n")
    assert _hermitian_eps_tests(unit) == set()


def test_one_reduction_for_the_transpose_classes():
    # Takagi (ta) and Youla (tp) factorizations are one reduction of
    # z -> B conj(z): it alone reads the cluster tolerance (numerics defines
    # it, a top-level statement, so None) and clusters the singular values,
    # and the star = T branch of star_factorize calls it.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = {module: _readers(source, "CLUSTER_RTOL") for module, source in sources.items()}
    assert {module: names for module, names in readers.items() if names} == \
        {"structfact": {"_transpose_reduction"}, "numerics": {None}}
    for name, caller in (("_cluster_descending", "_transpose_reduction"),
                         ("_transpose_reduction", "star_factorize")):
        callers = {module: _callers(source, name) for module, source in sources.items()}
        assert {module: names for module, names in callers.items() if names} == \
            {"structfact": {caller}}, name
    factorize = next(node for node in ast.parse(sources["structfact"]).body
                     if getattr(node, "name", None) == "star_factorize")
    branch = next(node for node in ast.walk(factorize) if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "cls.star == 'H'")
    assert "_transpose_reduction" in {
        node.func.id for stmt in branch.orelse for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    for gone in ("_takagi", "_youla_pairs", "_symmetric_unitary_sqrt"):
        assert not any(re.search(rf"\b{gone}\b", source) for source in sources.values())


def _package_callers(name):
    """{module: functions calling name} over the package, callers only."""
    found = {path.stem: _callers(path.read_text(), name)
             for path in sorted(PACKAGE.glob("*.py"))}
    return {module: names for module, names in found.items() if names}


def test_one_factorization_of_the_deficit_and_one_stream():
    # Construction and the free update factorize the deficit X1 S1 X1* in
    # one function, at order min(n, k); the prescribed update snaps the
    # same product as its right-hand side.  Each operation seeds one
    # generator, which the sampler, the default remaining eigenvalues and
    # the isometry of the congruence all draw from.
    assert _package_callers("_isotropy_factor") == {
        "iep": {"solve_iep_partial_result.completion"}, "mup": {"update_model_result"}}
    assert _package_callers("_snap_isotropy") == {
        "structfact": {"_isotropy_factor"}, "mup": {"update_model_result"}}
    assert _package_callers("default_rng") == {
        "iep": {"_construct"}, "mup": {"update_model_result"}}
    planted = "import numpy as np\ndef f(s):\n    return np.random.default_rng(s)\n"
    assert _callers(planted, "default_rng") == {"f"}


def test_one_sign_count_for_the_inertia_of_s1():
    # Construction and the free update read the inertia of S1 from one sign
    # count, structfact._inertia; the canonical factorization serves the
    # deficit X1 S1 X1* alone.  The spelling this replaced, a whole
    # factorization read for its two counts, is flagged.
    assert _package_callers("star_factorize") == {"structfact": {"_isotropy_factor"}}
    assert _package_callers("_inertia") == {
        "iep": {"solve_iep_partial_result.completion"}, "mup": {"update_model_result"}}
    planted = ("def update_model_result(problem, S1, cls):\n"
               "    inertia = star_factorize(S1, cls, rank_tol=0.0).pattern\n"
               "    return inertia.p, inertia.q\n")
    assert _callers(planted, "star_factorize") == {"update_model_result"}


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


EIGENSOLVERS = ("dense_eig", "eig", "eigvals", "eigh", "eigvalsh", "schur")


def _eigensolves(source):
    """{solver: functions calling it} for every eigensolver a source calls."""
    found = {name: _callers(source, name) for name in EIGENSOLVERS}
    return {name: names for name, names in found.items() if names}


def test_t1_eigenvalues_read_in_one_place():
    # Every construction solves on T1 in Jordan form, which iep._jordan_form
    # decides with the one dense_eig of a T1 that is neither diagonal nor
    # Jordan: iep makes no other eigensolve and the parameter space none.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _eigensolves(sources["paramspace"]) == {}
    assert _eigensolves(sources["iep"]) == {"dense_eig": {"_jordan_form"}}


def test_eigensolve_check_flags_planted_spellings():
    # The reads this replaced: a second dense_eig in the space's solve and
    # the eigvals of IepProblem.
    planted = ("def _xsx_solve(T):\n    w, V = dense_eig(T)\n    return w\n"
               "class IepProblem:\n    def __post_init__(self):\n"
               "        self.t1_values = np.linalg.eigvals(self.T1)\n")
    assert _eigensolves(planted) == {"dense_eig": {"_xsx_solve"},
                                     "eigvals": {"IepProblem.__post_init__"}}


def test_no_option_without_a_production_caller():
    # Options no production path set are constants now, and the k = 2n
    # step is no public entry; this keeps them from coming back unnoticed.
    import dataclasses
    import inspect

    from palinverse import errors, forward, iep, mup, paramspace, structfact, system

    def params(fn):
        return list(inspect.signature(fn).parameters)

    def init_fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert params(forward.eig_full) == ["sys"]
    assert params(errors.retry) == ["attempts", "draw", "what"]
    assert params(iep.solve_psi) == ["delta", "omega", "cls"]
    assert params(paramspace._jordan_blocks) == ["T"]
    assert init_fields(iep.IepProblem) == [
        "cls", "X1", "T1", "seed", "remaining_eigenvalues"]
    assert init_fields(mup.MupProblem) == ["sys", "X1", "T1", "T1_new", "X1_new", "seed"]
    assert "pairing_tol" not in init_fields(forward.EigenPairSet)
    assert not hasattr(system.SymmetryClass, "name")
    for member in ("condition", "delta", "rank"):
        assert not hasattr(structfact.StarFactorization, member), member
    assert {"solve_iep_full", "solve_psi"}.isdisjoint(palinverse.__all__)


# The system and its classes, the forward check, one entry per operation
# (construction and update), and the file formats.
PUBLIC = ["ALL_CLASSES", "EigenPairSet", "HA", "HP", "IepProblem", "MupProblem",
          "PalindromicSystem", "PalinverseError", "SymmetryClass", "TA", "TP",
          "eig_full", "load_pair", "load_system", "pair_residual", "save_pair",
          "save_system", "select_pairs", "solve_iep_partial_result",
          "update_model_result"]


def test_public_names_are_the_papers():
    assert palinverse.__all__ == PUBLIC
    with pytest.raises(ImportError):
        exec("from palinverse import star_factorize", {})


def test_readme_lists_the_public_names():
    # Each row of the README's module table names its public names in its
    # last column; together they are __all__, each in its home module.
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^\| `palinverse\.(\w+)` \|.*\|(.*)\|$",
                                    section, re.MULTILINE):
        listed.update((name, module) for name in re.findall(r"`(\w+)`", names))
    assert listed == palinverse._HOME


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


# `import palinverse`, then every submodule named in argv by attribute access.
_SUBMODULES_CODE = """
import json, sys
import palinverse
report = {"after_import": sorted(m for m in sys.modules if m.startswith("palinverse."))}
report["resolved"] = [getattr(palinverse, name) is sys.modules[f"palinverse.{name}"]
                      for name in json.loads(sys.argv[1])]
report["star_factorize"] = hasattr(palinverse, "star_factorize")
print(json.dumps(report))
"""


def test_every_submodule_loads_on_first_access(tmp_path):
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert sorted(palinverse._SUBMODULES) == modules
    report = _child(_SUBMODULES_CODE, modules, tmp_path)
    assert report == {"after_import": [], "resolved": [True] * len(modules),
                      "star_factorize": False}


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

"""Per-layer tracing from outside the package.

The tracer wraps the functions each palinverse module calls, at the names
that module imports them under (``iep.solution_space``,
``mup.eig_full``, ...), so the package source stays untouched.  Spans
(name, start, end, parent, op id, error) are kept in memory; a layer's
self time is its span's duration minus the time its child spans cover.
"""

import functools
import importlib
import time
from collections import defaultdict

# (defining module, attribute, span name).  Every binding of the same
# function object in any palinverse module is wrapped under that name.
TARGETS = [
    ("numerics", "dense_eig", "numerics.dense_eig"),
    ("numerics", "sv_ratio", "numerics.sv_ratio"),
    ("numerics", "linear_solve", "numerics.linear_solve"),
    ("numerics", "rank_factorize", "numerics.rank_factorize"),
    ("system", "eval_Q", "system.eval_Q"),
    ("system", "pair_residual", "system.pair_residual"),
    ("structfact", "star_factorize", "structfact.star_factorize"),
    ("paramspace", "solution_space", "paramspace.solution_space"),
    ("paramspace", "s_basis", "paramspace.s_basis"),
    ("paramspace", "constrained_family", "paramspace.constrained_family"),
    ("paramspace", "sample_nonsingular", "paramspace.sample_nonsingular"),
    ("spectral", "coefficients_from_pair", "spectral.coefficients_from_pair"),
    ("forward", "eig_full", "forward.eig_full"),
    ("forward", "select_pairs", "forward.select_pairs"),
    ("iep", "solve_iep_full", "iep.solve_iep_full"),
    ("iep", "solve_iep_partial_result", "iep.solve_iep_partial"),
    ("iep", "solve_psi", "iep.congruence"),
    ("iep", "_congruence_onto", "iep.congruence"),
    ("mup", "compute_S1", "mup.compute_S1"),
    ("mup", "low_rank_update", "mup.low_rank_update"),
    ("mup", "update_model_result", "mup.update_free"),
    ("mup", "update_model_prescribed", "mup.update_prescribed"),
    ("fileio", "load_system", "fileio.load_system"),
    ("fileio", "save_system", "fileio.save_system"),
    ("fileio", "load_pair", "fileio.load_pair"),
]

# (module, class, span name): validation hooks run by dataclass __init__.
METHOD_TARGETS = [
    ("system", "PalindromicSystem", "system.validate"),
    ("mup", "MupProblem", "mup.problem_check"),
]

MODULES = ("numerics", "system", "structfact", "paramspace", "spectral",
           "forward", "iep", "mup", "analysis", "fileio", "cli")


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id, error]
        self._stack = []
        self.op_id = None
        self._undo = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.op_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        mods = [importlib.import_module(f"palinverse.{m}") for m in MODULES]
        mods.append(importlib.import_module("palinverse"))
        for defining, attr, name in TARGETS:
            original = getattr(importlib.import_module(f"palinverse.{defining}"), attr)
            wrapped = self.wrap(name, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        for module, cls_name, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"palinverse.{module}"), cls_name)
            original = cls.__post_init__
            cls.__post_init__ = self.wrap(name, original)
            self._undo.append((cls, "__post_init__", original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self):
        """Per span name: total self seconds, call count and calls that
        returned without raising; plus the sv_ratio draws made directly
        inside paramspace.sample_nonsingular."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        returned = defaultdict(int)
        draws = 0
        for idx, (name, start, end, parent, _, error) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
            calls[name] += 1
            returned[name] += error is None
            if name == "numerics.sv_ratio" and parent is not None and \
                    self.spans[parent][0] == "paramspace.sample_nonsingular":
                draws += 1
        return dict(self_s), dict(calls), dict(returned), draws

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o,
                 "error": err} for n, s, e, p, o, err in self.spans]

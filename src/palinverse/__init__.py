"""palinverse: inverse eigenvalue problems for quadratic palindromic systems.

Construct coefficient matrices from prescribed eigenpairs, update an
existing system's eigenvalues with no spillover, and forward-solve for
verification, across all four transpose / conjugate-transpose
(anti-)palindromic symmetry classes.

Public names and submodules load on first access (PEP 562), so
`import palinverse` itself imports neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name; any other name is reached through its
# submodule, as palinverse.<module>.<name>.
_EXPORTS = {
    "errors": ("PalinverseError",),
    "system": ("ALL_CLASSES", "HA", "HP", "TA", "TP", "PalindromicSystem",
               "SymmetryClass", "pair_residual"),
    "forward": ("EigenPairSet", "eig_full", "select_pairs"),
    "iep": ("IepProblem", "solve_iep_partial_result"),
    "mup": ("MupProblem", "update_model_result"),
    "fileio": ("load_pair", "load_system", "save_pair", "save_system"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"analysis", "cli", "errors", "fileio", "forward", "iep",
                         "mup", "numerics", "paramspace", "spectral",
                         "structfact", "system"})

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)

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

# Home module of every public name.
_EXPORTS = {
    "errors": ("PalinverseError",),
    "system": ("ALL_CLASSES", "HA", "HP", "TA", "TP", "PalindromicSystem",
               "SymmetryClass", "eval_Q", "pair_residual"),
    "numerics": ("dense_eig", "linear_solve", "rank_factorize"),
    "structfact": ("DeltaPattern", "StarFactorization", "build_delta",
                   "star_factorize"),
    "paramspace": ("pascal_matrix", "pascal_scaling", "s_basis",
                   "sample_nonsingular"),
    "spectral": ("coefficients_from_pair", "compute_S1", "parameter_from_pair"),
    "forward": ("EigenPairSet", "eig_full", "select_pairs"),
    "iep": ("IepProblem", "solve_iep_full", "solve_iep_partial_result",
            "solve_psi"),
    "mup": ("MupProblem", "update_model_result"),
    "analysis": ("ZetaPartition", "joint_block_diagonalize",
                 "s_space_dimension", "zeta_partition"),
    "fileio": ("load_pair", "load_system", "save_pair", "save_system"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

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

"""palinverse: inverse eigenvalue problems for quadratic palindromic systems.

Construct coefficient matrices from prescribed eigenpairs, update an
existing system's eigenvalues with no spillover, and forward-solve for
verification, across all four transpose / conjugate-transpose
(anti-)palindromic symmetry classes.
"""

from .errors import PalinverseError
from .system import (ALL_CLASSES, HA, HP, TA, TP, PalindromicSystem,
                     SymmetryClass, eval_Q, pair_residual)
from .numerics import dense_eig, linear_solve, rank_factorize
from .structfact import (DeltaPattern, StarFactorization, build_delta,
                         inertia, star_factorize)
from .paramspace import (SBasis, pascal_matrix, pascal_scaling, s_basis,
                         sample_nonsingular)
from .spectral import coefficients_from_pair, compute_S1, parameter_from_pair
from .forward import EigenPairSet, eig_full, select_pairs
from .iep import IepProblem, solve_iep_full, solve_iep_partial_result, solve_psi
from .mup import MupProblem, update_model_result
from .analysis import (ZetaPartition, joint_block_diagonalize,
                       s_space_dimension, zeta_partition)
from .fileio import load_pair, load_system, save_pair, save_system

__version__ = "0.1.0"

__all__ = [
    "ALL_CLASSES", "DeltaPattern", "EigenPairSet", "HA", "HP", "IepProblem",
    "MupProblem", "PalindromicSystem", "PalinverseError", "SBasis",
    "StarFactorization", "SymmetryClass", "TA", "TP",
    "ZetaPartition", "build_delta", "coefficients_from_pair", "compute_S1",
    "dense_eig", "eig_full", "eval_Q", "inertia", "joint_block_diagonalize",
    "linear_solve", "load_pair", "load_system", "pair_residual",
    "parameter_from_pair", "pascal_matrix", "pascal_scaling", "rank_factorize",
    "s_basis", "s_space_dimension", "sample_nonsingular", "save_pair",
    "save_system", "select_pairs", "solve_iep_full",
    "solve_iep_partial_result", "solve_psi", "star_factorize",
    "update_model_result", "zeta_partition",
]

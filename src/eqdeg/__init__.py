"""Burnside-ring valued Brouwer degrees for reversible equivariant systems."""

from .bifurcation import (BifurcationInvariant, BifurcationReport,
                          CriticalPoint, bifurcation_report, critical_values,
                          local_invariant)
from .burnside import BurnsideElement
from .degrees import basic_degree, degree_for_character
from .errors import EqdegError, InputError, ValidationError
from .groups import (FiniteGroup, PermutationAction, dihedral_rotation_action,
                     direct_product, make_cyclic, make_dihedral,
                     make_permutation_group, make_sign_group, make_trivial)
from .lattice import SubgroupPoset, subgroup_poset
from .reps import (fold_frequency, gamma_irreps_in, maximal_orbit_types,
                   minus_irrep, time_irrep, time_irrep_indices, time_irreps)
from .spectral import (DegreeReport, GammaSpec, ProblemConfig, SolutionGuarantee,
                       SpectralTable, SymmetryContext, build_symmetry_context,
                       check_nondegeneracy, count_eta_rho,
                       existence_degree, interpret, lambda_value,
                       matrix_spectrum, parity_predictions, spectral_table)

__version__ = "0.1.0"

__all__ = [
    "BifurcationInvariant", "BifurcationReport", "BurnsideElement",
    "CriticalPoint", "DegreeReport", "EqdegError", "FiniteGroup", "GammaSpec",
    "InputError", "PermutationAction", "ProblemConfig", "SolutionGuarantee",
    "SpectralTable", "SubgroupPoset", "SymmetryContext", "ValidationError",
    "basic_degree", "bifurcation_report", "build_symmetry_context",
    "check_nondegeneracy", "count_eta_rho", "critical_values",
    "degree_for_character", "dihedral_rotation_action", "direct_product",
    "existence_degree", "fold_frequency", "gamma_irreps_in", "interpret",
    "lambda_value", "local_invariant", "make_cyclic", "make_dihedral",
    "make_permutation_group", "make_sign_group", "make_trivial",
    "matrix_spectrum", "maximal_orbit_types", "minus_irrep",
    "parity_predictions", "spectral_table", "subgroup_poset", "time_irrep",
    "time_irrep_indices", "time_irreps",
]

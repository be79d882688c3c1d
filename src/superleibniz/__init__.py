"""Exact computations with finite-dimensional Leibniz superalgebras."""

__version__ = "0.1.0"

from .algebra import (AssociativeSuperalgebra, CheckReport, LeibnizSuperalgebra,
                      SuperBimodule, SuperSpace, abelian, adjoint_module,
                      free_truncated, from_associative, koszul, nonlie_example,
                      zero_module)
from .cochain import Cochain, delta
from .cohomology import (ArityCapError, CohomologyTable, cohomology_table,
                         delta_matrix, derivations, inner_derivations)
from .deformation import (ExtensionUndefined, FormalIsomorphism,
                          TruncatedDeformation, check_deformation,
                          deformation_residual, equivalent_deformations,
                          extend_deformation, infinitesimal_relation,
                          transform)
from .extension import Extension, build_extension, check_extension
from .linalg import RatMatrix, kernel_basis, rank, rref, solve

"""Subgrid-scale stabilized P1/P1 finite elements for transient Stokes flow."""

from .asgs_core import (AssembledSystem, FieldState, StabilizationParams,
                        StepFailureError, SubscaleState, TimeScheme,
                        assemble_system, compute_taus, coercivity_check,
                        infsup_constant, solve_transient, step,
                        update_subscales)
from .fem_space import (DofMap, QuadratureRule, build_dofmap, interpolate,
                        p1_eval, quadrature_rule)
from .linalg import SingularMatrixError, SparseMatrix, from_triplets
from .manufactured import (ErrorAccumulator, LevelResult, RateTable,
                           accumulate_errors, exact_pressure, exact_velocity,
                           exact_velocity_gradient, forcing, rate_table,
                           residual_indicator, run_convergence_study,
                           run_verification_solve)
from .mesh import ElementGeometry, Mesh, build_unit_square_mesh, element_geometry

__version__ = "0.1.0"

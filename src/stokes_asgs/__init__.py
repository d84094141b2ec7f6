"""Subgrid-scale stabilized P1/P1 finite elements for transient Stokes flow."""

from .asgs_core import (FieldState, StabilizationParams, StepFailureError,
                        SubscaleState, TimeScheme, coercivity_check,
                        infsup_constant, solve_transient, step,
                        update_subscales)
from .fem_space import (DofMap, QuadratureRule, build_dofmap, interpolate,
                        quadrature_rule)
from .linalg import SingularMatrixError, SparseMatrix
from .manufactured import (LevelResult, RateTable, exact_pressure,
                           exact_velocity, exact_velocity_gradient, forcing,
                           rate_table, run_convergence_study,
                           run_verification_solve)
from .mesh import Mesh, build_unit_square_mesh

__version__ = "0.1.0"

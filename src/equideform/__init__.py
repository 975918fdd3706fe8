"""Equivariant deformation toolkit.

Families of matrix groups over a curvature-like parameter, discretized
invariant variational problems on the geometries they act on, kernel
certification against the Killing-Jacobi span, and branch continuation
in the family parameter.
"""

from .errors import (ConfigError, DomainError, EquideformError,
                     IllConditioned, NoConvergence, PreconditionError,
                     ShapeError, UnsupportedError)
from .lie_bundle import (algebra_basis, algebra_element,
                         bracket_closure_residual, complement_basis,
                         deformed_bracket, eta_form,
                         group_membership_residual, invariance_residual,
                         section, verify_bundle)
from .mesh import (Grid, JacobiOperator, build_grid, fornberg_weights,
                   wnorm)
from .ambient import (FlatTorus, ScaledSphere, SpaceForm2, quadric_to_chart,
                      radial_area, sn_lambda)
from .variational import (PROBLEMS, CmcCircle, CmcProfile, HarmonicSphere,
                          HarmonicTorus, Problem, ProblemState, act,
                          circle_seed, cmc_circle_radius, derived_scalars,
                          geodesic_curvature, jacobi, killing_jacobi_basis,
                          profile_cylinder_seed, residual, residual_norm,
                          sphere_equator_seed, torus_line_seed, value)
from .equivariance import (DiagnosticsReport, KernelBasis, NondegeneracyReport,
                           nondegeneracy_report, numerical_kernel,
                           operator_diagnostics, rank_basis,
                           transversality_margin)
from .continuation import (BranchRecord, ContinuationConfig,
                           congruence_check, continue_branch, corrector_step,
                           orbit_project)

__version__ = "0.1.0"

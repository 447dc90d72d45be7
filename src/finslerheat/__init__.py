"""Anisotropic (Finsler) heat equation toolkit.

Norm calculus with duals and the duality map, a conservative discrete
divergence-form operator with its radial reduction, closed-form solution
families, the sphere-integral representation formula, a proximal
gradient-flow solver for the Dirichlet problem on anisotropic balls, and
growth-condition classification of initial data.
"""

from .errors import (ConvergenceError, DomainError, OutOfRangeError,
                     SpecValidationError, StabilityError)
from .grids import GridFunction, RadialProfile, grid_from_function
from .norms import (DualEvalConfig, NormSpec, coercivity_bounds, dual_norm_eval,
                    dual_spec, duality_jacobian, duality_map, ellipse, euclidean,
                    eval_norm, grad_dual_norm, grad_norm, p_norm,
                    smoothed_polytope, sphere_maximization, verify_identities)
from .operators import (check_linearity, check_radial_reduction, finsler_laplacian,
                        interior_mask, lift_radial)
from .radial import bessel_I0, radial_heat_profile, sphere_integral_I
from .solutions import SolutionSpec, eval_solution, pde_residual, singular_poly_check
from .measures import (MeasureSpec, classify, growth_functional, measure_from_atoms,
                       measure_from_density, measure_from_radial, mollify)
from .flow import (FlowProblem, InnerSolverConfig, Trajectory, ball_layout, ball_mask,
                   energy, energy_gradient, explicit_step, nested_domain_study,
                   prox_homogeneity_defect, proximal_step, scaling_check, solve,
                   weighted_monitors)

__version__ = "0.1.0"

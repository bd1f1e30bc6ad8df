"""Numerical laboratory for rotating patches of the generalized SQG equation.

The transport of a patch of potential temperature under the velocity induced
by a fractional inverse Laplacian admits rigidly rotating solutions: an
m-fold symmetric branch leaves the unit disc at each angular velocity of the
dispersion relation.  The subpackages compute these objects and verify their
analytic properties at desk scale:

specfun        gamma / rising-factorial arithmetic and the dispersion relation
geometry       boundaries as exterior conformal-map Fourier coefficients
kernels        exact circle moments and the nonlinear patch functional
linearization  Fourier multipliers, discrete Jacobians, bifurcation scans
continuation   Newton solver and amplitude continuation for m-fold branches
evolution      Lagrangian contour dynamics (independent of the spectral path)
oracles        adaptive-quadrature references for the closed-form moments
output         deterministic CSV / JSON / SVG emission
cli            command-line drivers (also exposed as `python -m gsqg`)
"""

from .specfun import (EULER_GAMMA, AsymptoticParams, DispersionTable,
                      GammaPoleError, conv_constant, digamma_half_integer,
                      gamma_fn, harmonic_odd, omega_asymptotic,
                      omega_dispersion, omega_sqg, pochhammer,
                      pochhammer_ratio, theta_alpha, zeta_odd,
                      zeta_tail_constant)
from .geometry import (AliasingWarning, FourierBoundary, MFoldBoundary,
                       UnitGrid, coeffs_from_values, conj_deriv, default_grid,
                       dilate, embed_mfold, eval_deriv, eval_deriv_at,
                       eval_map, eval_map_at, project_mfold, univalence_margin)
from .kernels import (ResidualField, SelfIntersectionError,
                      ellipse_fourth_coefficient, ellipse_moment_ratio,
                      functional_G, functional_G_sqg, s_phi, s_phi_trapezoid,
                      singular_moment_I, singular_moment_J, singular_moment_Z,
                      sqg_moment_1, sqg_moment_2)
from .linearization import (BracketError, JacobianMatrix, MultiplierSpectrum,
                            bifurcation_scan, gateaux_derivative,
                            kernel_diagnostics, mixed_omega_column,
                            monomial_derivatives, multiplier_at_disc,
                            numerical_jacobian, transversality_check)
from .continuation import (BranchTable, FoldError, NonConvergenceError,
                           VStateSolution, continue_branch, residual_on_grid,
                           solve_vstate, verify_dilation_law)
from .evolution import (ContourError, ContourState, conserved_diagnostics,
                        evolve, hausdorff_distance, normal_velocity_residual,
                        redistribute, step_rk4, velocity_contour)

__version__ = "0.1.0"

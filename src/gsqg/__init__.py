"""Numerical laboratory for rotating patches of the generalized SQG equation.

The transport of a patch of potential temperature under the velocity induced
by a fractional inverse Laplacian admits rigidly rotating solutions: an
m-fold symmetric branch leaves the unit disc at each angular velocity of the
dispersion relation.  The subpackages compute these objects and verify their
analytic properties at desk scale:

specfun        the ratio, gap and odd-harmonic ladders, the dispersion relation
geometry       boundaries as exterior conformal-map Fourier coefficients
kernels        exact circle moments and the nonlinear patch functional
linearization  Fourier multipliers, analytic derivatives, bifurcation scans
continuation   Newton solver and amplitude continuation for m-fold branches
evolution      contour dynamics by integrating-factor normal-velocity stepping
               (independent of the spectral path)
oracles        Gauss–Jacobi references for the closed-form moments
output         deterministic CSV / JSON / SVG emission
cli            command-line drivers (also exposed as `python -m gsqg`)
"""

from .specfun import (DispersionTable, GammaOverflowError, GammaPoleError,
                      conv_constant, gamma_fn, gap_ladder, odd_harmonic_ladder,
                      omega_asymptotic, omega_dispersion, omega_sqg, theta_alpha)
from .geometry import (AliasingWarning, FourierBoundary, MFoldBoundary,
                       UnitGrid, default_grid, dilate, embed_mfold, eval_deriv,
                       eval_map, univalence_margin)
from .kernels import (ResidualField, SelfIntersectionError,
                      ellipse_fourth_coefficient, ellipse_moment_ratio,
                      functional_G, s_phi,
                      singular_moment_I, singular_moment_J, singular_moment_Z,
                      sqg_moment_1, sqg_moment_2)
from .linearization import (BracketError, bifurcation_scan, disc_jacobian,
                            gateaux_derivative, kernel_diagnostics,
                            monomial_derivatives, multiplier_at_disc,
                            transversality_check)
from .continuation import (BranchTable, FoldError, NonConvergenceError,
                           VStateSolution, continue_branch, solve_vstate,
                           verify_dilation_law)
from .evolution import (ContourError, ContourState, conserved_diagnostics,
                        evolve, hausdorff_distance, normal_node_velocity,
                        normal_step_bounds, normal_velocity_residual,
                        redistribute, stability_step, step_normal,
                        velocity_contour)

__version__ = "0.1.0"

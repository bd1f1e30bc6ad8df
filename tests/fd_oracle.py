"""Central-difference oracle for the analytic derivatives.

Differences of the nonlinear functional share no code with the analytic
derivative beyond the functional itself, so they are an independent
reference for `monomial_derivatives`, the disc Jacobian and the Newton
Jacobian of the branch solver.  Accuracy is limited by the step: about
1e-10 absolute at eps = 1e-6.
"""

import numpy as np

from gsqg.geometry import FourierBoundary, UnitGrid
from gsqg.kernels import functional_G


def perturbed(bnd: FourierBoundary, mode: int, eps: float, width: int = 0) -> FourierBoundary:
    """bnd with eps added to b_mode (mode -1: the leading coefficient)."""
    if mode == -1:
        return FourierBoundary(bnd.coeffs, lead=bnd.lead + eps)
    coeffs = np.zeros(max(bnd.order, width - 1, mode) + 1)
    coeffs[:bnd.order + 1] = bnd.coeffs
    coeffs[mode] += eps
    return FourierBoundary(coeffs, lead=bnd.lead)


def fd_column(bnd: FourierBoundary, mode: int, omega: float, alpha: float,
              grid: UnitGrid, eps: float, n_rows: int) -> np.ndarray:
    """Sine coefficients 1..n_rows of the central difference in the direction b_mode."""
    fp = functional_G(omega, perturbed(bnd, mode, +eps, n_rows), alpha, grid)
    fm = functional_G(omega, perturbed(bnd, mode, -eps, n_rows), alpha, grid)
    return (fp.sine_coeffs[:n_rows] - fm.sine_coeffs[:n_rows]) / (2.0 * eps)


def fd_jacobian_matrix(bnd: FourierBoundary, omega: float, alpha: float,
                       grid: UnitGrid, n_modes: int, eps: float = 1e-6) -> np.ndarray:
    """Square central-difference Jacobian: sine modes 1..n_modes against b_0..b_{n_modes-1}."""
    return np.column_stack([fd_column(bnd, n, omega, alpha, grid, eps, n_modes)
                            for n in range(n_modes)])


def fd_jacobian(x: np.ndarray, res_of) -> np.ndarray:
    """Central-difference Jacobian of a vector residual, step 1e-6 relative."""
    n = len(x)
    jac = np.empty((n, n))
    for j in range(n):
        step = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += step
        xm = x.copy()
        xm[j] -= step
        jac[:, j] = (res_of(xp) - res_of(xm)) / (2.0 * step)
    return jac

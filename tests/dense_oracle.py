"""Whole-matrix product quadrature: a reference for the blocked pass in `gsqg.kernels`.

Every target row is formed at once, as a full N x N factor: the chord ratio
from complex differences and two absolute values, H^(-a) as a power, and
the row contraction as one einsum against the circulant weights.  The
blocked pass forms H^2 from real differences and H^(-a) through log/exp,
one block of rows at a time, so the two share only the weights.
"""

import math

import numpy as np

from gsqg.geometry import FourierBoundary, UnitGrid, eval_deriv, eval_map
from gsqg.kernels import _H_FLOOR, SelfIntersectionError, _circulant_weights
from gsqg.specfun import conv_constant


def chord_ratio(phi: np.ndarray, w: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """H[i, j] = |phi(w_i)-phi(w_j)| / |w_i-w_j| with the diagonal limit |phi'|."""
    num = np.abs(phi[:, None] - phi[None, :])
    den = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(num, np.abs(dphi))
    np.fill_diagonal(den, 1.0)
    h = num / den
    if h.min() < _H_FLOOR:
        raise SelfIntersectionError(f"chord ratio fell to {h.min():.3e}")
    return h


def contract(values: np.ndarray, alpha: float) -> np.ndarray:
    """Row-dot of every target row of values against the circulant weights."""
    return np.einsum("ij,ij->i", values, _circulant_weights(values.shape[1], alpha))


def s_phi_dense(bnd: FourierBoundary, alpha: float, grid: UnitGrid) -> np.ndarray:
    """S(phi) on the grid, every row of phi' H^(-a) formed at once."""
    w, phi, dphi = grid.nodes, eval_map(bnd, grid), eval_deriv(bnd, grid)
    h = chord_ratio(phi, w, dphi)
    return conv_constant(alpha) * w * contract(dphi[None, :] * h ** (-alpha), alpha)


def sqg_layer_dense(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """Subtracted critical potential, the row contraction of (p_j - p_i) / H, p = w phi'."""
    w, phi, dphi = grid.nodes, eval_map(bnd, grid), eval_deriv(bnd, grid)
    p = w * dphi
    numer = (p[None, :] - p[:, None]) / chord_ratio(phi, w, dphi)
    return -(2.0 / math.pi) * w * np.conj(w) * contract(numer, 1.0)


def functional_G_sqg_dense(omega: float, bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """Residual samples of functional_G_sqg from the whole-matrix potential."""
    w, phi, dphi = grid.nodes, eval_map(bnd, grid), eval_deriv(bnd, grid)
    t_vals = sqg_layer_dense(bnd, grid)
    return np.imag((omega * phi - t_vals) * np.conj(w) * np.conj(dphi))

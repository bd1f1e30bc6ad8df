"""Whole-matrix product quadrature: a reference for the blocked pass in `gsqg.kernels`.

Every target row is formed at once, as a full N x N factor: the chord ratio
from complex differences and two absolute values, H^(-a) as a power, and
the row contraction as one einsum against whole-matrix circulant weights.
The weights are built here, in the form the package used before its one
gap-ladder row: the shifted moments mu_|k+1| = gamma(1-a) / gamma^2(1-a/2)
(a/2)_p / (1-a/2)_p, p = |k+1|, attached to phi' for a < 1, and the
odd-harmonic sums sigma_|k| at a = 1, attached to the subtracted numerator.
The blocked pass forms H^2 from real differences and H^(-a) through log/exp,
one block of rows at a time, from the gap-ladder row; the two share no
quadrature code.  `eval_map_at` and `eval_deriv_at` are the point-evaluation
reference for the grid's FFT path: Horner recurrences in conj(w).
"""

import math

import numpy as np

from gsqg.geometry import FourierBoundary, UnitGrid, eval_deriv, eval_map
from gsqg.kernels import _H_FLOOR, SelfIntersectionError


def eval_map_at(bnd: FourierBoundary, w: np.ndarray) -> np.ndarray:
    """phi at arbitrary unit-circle points, by Horner recurrence in conj(w)."""
    w = np.asarray(w, dtype=complex)
    wb = np.conj(w)
    acc = np.zeros_like(w)
    for b in bnd.coeffs[::-1]:
        acc = acc * wb + b
    return bnd.lead * w + acc


def eval_deriv_at(bnd: FourierBoundary, w: np.ndarray) -> np.ndarray:
    """phi'(w) = lead - sum_n n b_n conj(w)^(n+1) at arbitrary points."""
    w = np.asarray(w, dtype=complex)
    wb = np.conj(w)
    acc = np.zeros_like(w)
    for k in range(bnd.order, 0, -1):
        acc = (acc + k * bnd.coeffs[k]) * wb
    return bnd.lead - acc * wb


def conv_constant(alpha: float) -> float:
    """gamma(a/2) / (2^(1-a) gamma(1 - a/2))."""
    return math.gamma(alpha / 2.0) / (2.0 ** (1.0 - alpha) * math.gamma(1.0 - alpha / 2.0))


def weights(size: int, alpha: float) -> np.ndarray:
    """W[i, j] = ifft(mu)[(i - j) mod size], mu in fftfreq layout."""
    k = np.fft.fftfreq(size, d=1.0 / size)
    if alpha == 1.0:
        sigma = np.concatenate([[0.0], np.cumsum(1.0 / (2.0 * np.arange(size // 2) + 1.0))])
        mu = sigma[np.abs(k).astype(int)]
    else:
        p = np.abs(k + 1.0).astype(int)
        j = np.arange(p.max())
        ratios = np.concatenate([[1.0], np.cumprod((alpha / 2.0 + j) / (1.0 - alpha / 2.0 + j))])
        mu = math.gamma(1.0 - alpha) / math.gamma(1.0 - alpha / 2.0) ** 2 * ratios[p]
    row = np.fft.ifft(mu)
    i = np.arange(size)
    return row[(i[:, None] - i[None, :]) % size]


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
    return np.einsum("ij,ij->i", values, weights(values.shape[1], alpha))


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


def critical_residual_dense(omega: float, bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """Residual samples of functional_G at alpha = 1 from the whole-matrix potential."""
    w, phi, dphi = grid.nodes, eval_map(bnd, grid), eval_deriv(bnd, grid)
    t_vals = sqg_layer_dense(bnd, grid)
    return np.imag((omega * phi - t_vals) * np.conj(w) * np.conj(dphi))

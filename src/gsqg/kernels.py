"""Singular boundary integrals of the rotating-patch functional.

The nonlinear functional whose zeros are rotating patches is

    G(omega, phi)(w) = Im{ (omega*phi(w) - S(phi)(w)) * conj(w) * conj(phi'(w)) }

with S(phi) the power-law layer potential of the boundary.  All integrals
here are evaluated by product quadrature: the kernel is split as
|phi(w)-phi(tau)|^(-a) = |w-tau|^(-a) * H(w,tau)^(-a) with H smooth and
bounded below, the smooth part is expanded in a discrete Fourier series in
tau, and each mode is contracted against the exact circle moments of
|w-tau|^(-a).  The singular factor is therefore integrated exactly; the only
error is truncation of the smooth expansion.

The critical case a = 1 uses the subtracted numerator tau*phi'(tau) -
w*phi'(w), which vanishes on the diagonal, together with exact subtracted
moments, so no divergent constant ever appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (FourierBoundary, UnitGrid, default_grid, eval_deriv,
                       eval_deriv_at, eval_map, eval_map_at)
from .specfun import conv_constant, gamma_fn, pochhammer_ratio

_H_FLOOR = 1e-8


class SelfIntersectionError(RuntimeError):
    """Boundary chord ratio collapsed; the curve is close to self-contact."""


def _moment_prefactor(alpha: float) -> float:
    """gamma(1-a) / gamma^2(1-a/2), the common scale of the circle moments."""
    return gamma_fn(1.0 - alpha) / gamma_fn(1.0 - alpha / 2.0) ** 2


def _poch_ratio_ladder(alpha: float, p_max: int) -> np.ndarray:
    """(a/2)_p / (1-a/2)_p for p = 0..p_max, by cumulative products."""
    out = np.empty(p_max + 1)
    out[0] = 1.0
    a, b = alpha / 2.0, 1.0 - alpha / 2.0
    acc = 1.0
    for p in range(1, p_max + 1):
        acc *= (a + p - 1.0) / (b + p - 1.0)
        out[p] = acc
    return out


def singular_moment_I(alpha: float, n: int) -> float:
    """Scalar factor of the n-th power moment of |w-tau|^(-a) on the circle.

    The full contour mean of tau^n / |tau-w|^a equals this factor times
    w^(n+1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("moments need alpha in (0, 1)")
    if n < 0:
        raise ValueError("moment order must be >= 0")
    return _moment_prefactor(alpha) * pochhammer_ratio(alpha / 2.0, 1.0 - alpha / 2.0, n + 1)


def singular_moment_J(alpha: float, n: int) -> float:
    """Factor of the chord-difference moment; the full integral is factor * w^(n+2)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("moments need alpha in (0, 1)")
    if n < 0:
        raise ValueError("moment order must be >= 0")
    pref = (1.0 + alpha / 2.0) * _moment_prefactor(alpha) / (2.0 - alpha)
    return pref * (1.0 - pochhammer_ratio(2.0 + alpha / 2.0, 2.0 - alpha / 2.0, n))


def singular_moment_Z(alpha: float, n: int) -> float:
    """Factor of the conjugate-difference moment; the full integral is factor * conj(w)^n.

    The rising-factorial ratio with the negative base reduces to minus the
    ratio shifted by one, which is what gets evaluated here.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("moments need alpha in (0, 1)")
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if n == 0:
        return 0.0
    # (a/2)_n / (-a/2)_n = -(1+a/2)_{n-1} / (1-a/2)_{n-1} for n >= 1
    ratio = -pochhammer_ratio(1.0 + alpha / 2.0, 1.0 - alpha / 2.0, n - 1)
    return -0.5 * _moment_prefactor(alpha) * (1.0 - ratio)


def sqg_moment_1(n: int) -> float:
    """Subtracted first moment of the critical kernel: -(2/pi) sum_{k<n} 1/(2k+1)."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return -(2.0 / math.pi) * sum(1.0 / (2 * k + 1) for k in range(n))


def sqg_moment_2(n: int) -> float:
    """Squared-chord moment of the critical kernel: (2/pi) sum_{k=1..n} 1/(2k+1)."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return (2.0 / math.pi) * sum(1.0 / (2 * k + 1) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# product-quadrature machinery


def _chord_ratio(phi: np.ndarray, w: np.ndarray, dphi: np.ndarray,
                 n_rows: int | None = None) -> np.ndarray:
    """H[i, j] = |phi(w_i)-phi(w_j)| / |w_i-w_j| with the diagonal limit |phi'|.

    Only the first n_rows target rows (default: all) are formed.
    """
    n_rows = len(w) if n_rows is None else n_rows
    num = np.abs(phi[:n_rows, None] - phi[None, :])
    den = np.abs(w[:n_rows, None] - w[None, :])
    np.fill_diagonal(num, np.abs(dphi[:n_rows]))
    np.fill_diagonal(den, 1.0)
    h = num / den
    if h.min() < _H_FLOOR:
        raise SelfIntersectionError(f"chord ratio fell to {h.min():.3e}")
    return h


@lru_cache(maxsize=32)
def _circulant_weights(size: int, alpha: float) -> np.ndarray:
    """Read-only view W[i, j] = K[(i - j) mod size] of one product-quadrature row.

    K = ifft(mu) in fftfreq layout, with mu_k the exact |w-tau|^(-a) moment
    attached to the tau^k mode (the odd-harmonic sigma_|k| ladder at a = 1).
    Contracting a grid-sampled smooth factor f[i, :] against row i of W
    gives sum_k c_k mu_k w_i^k, with c_k the tau-Fourier coefficients of
    f[i, :]: the product-integration sum without a per-row expansion, for
    any grid shift.  The view reads a 2*size-1 vector; no size x size
    matrix is stored.
    """
    k = np.fft.fftfreq(size, d=1.0 / size)
    if alpha == 1.0:
        mu = _odd_harmonic_ladder(size // 2 + 1)[np.abs(k).astype(int)]
    else:
        p = np.abs(k + 1.0).astype(int)
        mu = _moment_prefactor(alpha) * _poch_ratio_ladder(alpha, int(p.max()))[p]
    row = np.fft.ifft(mu)
    # ext[u] = K[(size-1-u) mod size], so row i of W is ext[size-1-i : 2*size-1-i]
    ext = np.concatenate([row[::-1], row[:0:-1]])
    return sliding_window_view(ext, size)[::-1]


def _contract(values: np.ndarray, alpha: float) -> np.ndarray:
    """Row-dot of the first len(values) target rows against the circulant weights."""
    weights = _circulant_weights(values.shape[1], alpha)[:len(values)]
    return np.einsum("ij,ij->i", values, weights)


def _sector_rows(bnd: FourierBoundary, size: int, directions=()) -> int:
    """Target rows that determine every other row of an equivariant boundary.

    With f = gcd(size, n+1 over every nonzero b_n), rotating the grid by
    2*pi/f maps the boundary onto itself, so the chord ratio H and
    phi'(tau) are invariant under the joint index shift (i, j) -> (i + size/f,
    j + size/f); every contraction row repeats with period size/f.  The
    self-intersection check over those rows covers all rows for the same
    reason.  A derivative along directions w^(-n) keeps that period only
    when each n+1 is a multiple of f too, so those n join the gcd.
    """
    orders = np.flatnonzero(bnd.coeffs) + 1
    return size // math.gcd(size, *orders.tolist(), *(int(n) + 1 for n in directions))


def s_phi(bnd: FourierBoundary, alpha: float, grid: UnitGrid | None = None) -> np.ndarray:
    """Layer potential S(phi)(w_j) = C_a * mean of phi'(tau) / |phi(w)-phi(tau)|^a.

    Product quadrature: smooth factor phi'(tau) H^(-a) sampled per target,
    contracted against exact moments.  For the identity map this returns
    theta_alpha * w exactly (to rounding).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("s_phi needs alpha in (0, 1); the critical case has its own form")
    grid = default_grid(bnd.order + 1) if grid is None else grid
    w = grid.nodes
    phi = eval_map(bnd, grid)
    dphi = eval_deriv(bnd, grid)
    n_rows = _sector_rows(bnd, grid.size)
    h = _chord_ratio(phi, w, dphi, n_rows)
    sector = _contract(dphi[None, :] * h ** (-alpha), alpha)
    return conv_constant(alpha) * w * np.tile(sector, grid.size // n_rows)


def s_phi_trapezoid(bnd: FourierBoundary, alpha: float, targets: np.ndarray,
                    n_sources: int = 8192) -> np.ndarray:
    """Reference evaluation of S(phi) at arbitrary unit-circle targets.

    Midpoint-offset trapezoid with the constant mode of the singular weight
    subtracted and restored through its exact integral, so only the smooth
    remainder is sampled.  Deliberately independent of the spectral path.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("s_phi_trapezoid needs alpha in (0, 1)")
    targets = np.asarray(targets, dtype=complex)
    src = UnitGrid.half_offset(n_sources)
    tau = src.nodes
    phi_s = eval_map(bnd, src)
    dphi_s = eval_deriv(bnd, src)
    phi_t = eval_map_at(bnd, targets)
    dphi_t = eval_deriv_at(bnd, targets)
    theta_t = np.angle(targets)
    out = np.empty(len(targets), dtype=complex)
    r = _moment_prefactor(alpha)
    h_step = 2.0 * np.pi / n_sources
    for i, (wt, pt, dpt, th) in enumerate(zip(targets, phi_t, dphi_t, theta_t)):
        chord = np.abs(pt - phi_s) / np.abs(wt - tau)
        if chord.min() < _H_FLOOR:
            raise SelfIntersectionError(f"chord ratio fell to {chord.min():.3e}")
        g = dphi_s * tau * chord ** (-alpha)
        g0 = dpt * wt * np.abs(dpt) ** (-alpha)
        kern = np.abs(2.0 * np.sin((src.angles - th) / 2.0)) ** (-alpha)
        if not np.all(np.isfinite(kern)):
            raise ValueError("target coincides with a source node; use targets "
                             "off the half-offset source grid")
        out[i] = (h_step / (2.0 * np.pi)) * np.sum((g - g0) * kern) + g0 * r
    return conv_constant(alpha) * out


@dataclass(frozen=True)
class ResidualField:
    """Pointwise residual of the patch functional plus its sine expansion."""

    grid: UnitGrid
    values: np.ndarray       # real samples at the grid nodes
    sine_coeffs: np.ndarray  # g_n of i*sum g_n (w^n - conj(w)^n), n = 1..len
    cosine_residue: float    # largest even-mode leak, ~0 for admissible data

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.sine_coeffs)))

    def sine_coeff(self, n: int) -> float:
        if not 1 <= n <= len(self.sine_coeffs):
            raise IndexError(f"sine mode {n} outside stored range")
        return float(self.sine_coeffs[n - 1])


def _field_from_values(values: np.ndarray, grid: UnitGrid) -> ResidualField:
    vals = np.ascontiguousarray(values.real if np.iscomplexobj(values) else values)
    return ResidualField(grid=grid, values=vals,
                         sine_coeffs=grid.sine_coeffs(vals),
                         cosine_residue=grid.cosine_residue(vals))


def functional_G(omega: float, bnd: FourierBoundary, alpha: float,
                 grid: UnitGrid | None = None) -> ResidualField:
    """Residual of the rotating-patch equation at angular velocity omega.

    Identically zero (to rounding) for the disc at any omega; a converged
    m-fold solution drives every sine coefficient below the solver tolerance.
    """
    grid = default_grid(bnd.order + 1) if grid is None else grid
    w = grid.nodes
    phi = eval_map(bnd, grid)
    dphi = eval_deriv(bnd, grid)
    s_vals = s_phi(bnd, alpha, grid)
    vals = np.imag((omega * phi - s_vals) * np.conj(w) * np.conj(dphi))
    return _field_from_values(vals, grid)


def functional_G_sqg(omega: float, bnd: FourierBoundary,
                     grid: UnitGrid | None = None) -> ResidualField:
    """Critical-case residual with the tangentially subtracted kernel.

    The integrand's numerator tau*phi'(tau) - w*phi'(w) vanishes on the
    diagonal, so the smooth expansion has zero mean against the divergent
    constant mode and the subtracted odd-harmonic moments apply directly.
    """
    grid = default_grid(bnd.order + 1) if grid is None else grid
    w = grid.nodes
    phi = eval_map(bnd, grid)
    dphi = eval_deriv(bnd, grid)
    n_rows = _sector_rows(bnd, grid.size)
    h = _chord_ratio(phi, w, dphi, n_rows)
    p = w * dphi
    numer = (p[None, :] - p[:n_rows, None]) / h
    # p(w) turns with w under the symmetry, so the sector repeats as t / w
    sector = np.conj(w[:n_rows]) * _contract(numer, 1.0)
    t_vals = -(2.0 / math.pi) * w * np.tile(sector, grid.size // n_rows)
    vals = np.imag((omega * phi - t_vals) * np.conj(w) * np.conj(dphi))
    return _field_from_values(vals, grid)


def _odd_harmonic_ladder(p_max: int) -> np.ndarray:
    """sigma_p = sum_{k=0}^{p-1} 1/(2k+1) for p = 0..p_max-1."""
    sig = np.zeros(p_max)
    acc = 0.0
    for p_val in range(1, p_max):
        acc += 1.0 / (2 * (p_val - 1) + 1)
        sig[p_val] = acc
    return sig


def ellipse_fourth_coefficient(omega: float, q: float, alpha: float,
                               grid: UnitGrid | None = None) -> float:
    """Fourth sine coefficient of the residual at the ellipse with ratio q.

    Nonzero for every omega when alpha != 1, which is exactly why ellipses
    never rotate rigidly under this flow; the omega dependence lives only in
    mode 2, so the value is omega-independent.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("ellipse ratio q must lie in (0, 1)")
    bnd = FourierBoundary.ellipse(q)
    grid = UnitGrid(256) if grid is None else grid
    return functional_G(omega, bnd, alpha, grid).sine_coeff(4)


def ellipse_moment_ratio(alpha: float) -> float:
    """Closed-form a2/a0 moment ratio (2+a)(4+a) / ((4-a)(6-a))."""
    return (2.0 + alpha) * (4.0 + alpha) / ((4.0 - alpha) * (6.0 - alpha))

"""Linearization of the patch functional and its spectral diagnostics.

At the disc the derivative acts diagonally on Fourier modes: perturbing
coefficient b_n moves only the sine mode n+1, with multiplier
(n+1)(omega - omega_{n+1})/2 (and omega/2 for the translation mode b_0).
Away from the disc the directional derivative is assembled from the same
product quadrature as the nonlinear functional; finite differences of the
functional provide a fully independent cross-check and the discrete
Jacobian used for kernel and transversality diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (AliasingWarning, FourierBoundary, UnitGrid, default_grid,
                       eval_deriv, eval_map)
from .kernels import (_H_FLOOR, SelfIntersectionError, _circulant_weights,
                      _field_from_values, _sector_rows, functional_G,
                      functional_G_sqg)
from .specfun import conv_constant, omega_dispersion


@dataclass(frozen=True)
class MultiplierSpectrum:
    """Fourier multipliers of the disc linearization, modes 0..N."""

    alpha: float
    omega: float
    N: int
    mult: np.ndarray

    def zero_modes(self, atol: float = 1e-12) -> list[int]:
        return [n for n in range(1, self.N + 1) if abs(self.mult[n]) < atol]


def multiplier_at_disc(alpha: float, omega: float, n_max: int) -> MultiplierSpectrum:
    """Exact multipliers: mult[0] = omega/2, mult[n] = (n+1)(omega - omega_{n+1})/2."""
    if n_max < 2:
        raise ValueError("need at least modes up to n = 2")
    mult = np.empty(n_max + 1)
    mult[0] = omega / 2.0
    for n in range(1, n_max + 1):
        mult[n] = (n + 1) * (omega - omega_dispersion(alpha, n + 1)) / 2.0
    return MultiplierSpectrum(alpha=alpha, omega=omega, N=n_max, mult=mult)


_ROW_BLOCK = 64   # target rows per pass; bounds every temporary at 64 x M


def _chord_rows(vals: np.ndarray, w: np.ndarray, diag: np.ndarray,
                start: int, stop: int) -> np.ndarray:
    """(vals_i - vals_j) / (w_i - w_j) for target rows start..stop-1, diagonal diag_i."""
    rows = np.arange(start, stop)
    den = w[start:stop, None] - w[None, :]
    den[rows - start, rows] = 1.0
    out = (vals[start:stop, None] - vals[None, :]) / den
    out[rows - start, rows] = diag[start:stop]
    return out


def _chord_sums(terms: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """sum_{r=1..n} terms[:, r] for each n in modes; for n = -1 the sum is -terms[:, 0].

    Both cases are prefix[n+1] - terms[:, 0] with prefix[k] = sum_{r<k}.
    """
    prefix = np.zeros((len(terms), terms.shape[1] + 1), dtype=complex)
    np.cumsum(terms, axis=1, out=prefix[:, 1:])
    return prefix[:, modes + 1] - terms[:, :1]


def monomial_derivatives(bnd: FourierBoundary, modes, omega: float, alpha: float,
                         grid: UnitGrid) -> np.ndarray:
    """Directional derivatives of the functional at bnd along h = w^(-n), n in modes.

    Row k holds the grid values of dG(omega, phi)[w^(-modes[k])]: n >= 1 is
    the coefficient b_n, n = 0 the translation b_0 and n = -1 the leading
    coefficient (h = w).  Every direction shares one pass over the target
    rows: per block of rows the chord ratio, H^(-a) W and phi' H^(-a-2) W
    are formed once, with W the circulant weight rows.  On the circle

        (w_i^(-n) - w_j^(-n)) / (w_i - w_j) = -sum_{q<n} w_i^(-q-1) w_j^(q-n),

    so the chord-difference integrals of all directions come from two
    products with the Vandermonde block [w_j^r] (and its conjugate) and a
    prefix sum over r; the layer-potential term is one more product with
    the direction derivatives.  When the boundary and every direction are
    f-fold symmetric, only size/f target rows are formed.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("analytic derivative implemented for alpha in (0, 1)")
    modes = np.asarray(modes, dtype=int)
    if modes.size and modes.min() < -1:
        raise ValueError("directions are w^(-n) with n >= -1")
    n_max = max(int(modes.max(initial=0)), 0)
    if grid.size < 2 * (n_max + 1):
        warnings.warn(f"grid of size {grid.size} under-resolves the direction b_{n_max}",
                      AliasingWarning, stacklevel=2)
    w, theta = grid.nodes, grid.angles
    phi = eval_map(bnd, grid)
    dphi = eval_deriv(bnd, grid)
    inv = np.exp(-1j * np.outer(theta, modes + 1))      # w^(-n-1) = h / w
    dhv = -modes * inv                                   # h' = -n w^(-n-1)
    vand = np.exp(1j * np.outer(theta, np.arange(n_max + 1)))   # w_j^r, r = 0..n_max
    vand_conj = np.conj(vand)
    dirs = np.column_stack([dphi, dhv])
    weights = _circulant_weights(grid.size, alpha)
    n_rows = _sector_rows(bnd, grid.size, modes)
    sing = np.empty((n_rows, modes.size), dtype=complex)
    for start in range(0, n_rows, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n_rows)
        ratio = _chord_rows(phi, w, dphi, start, stop)
        hmat = np.abs(ratio)
        if hmat.min() < _H_FLOOR:
            raise SelfIntersectionError(f"chord ratio fell to {hmat.min():.3e}")
        kern = hmat ** (-alpha) * weights[start:stop]
        layer = kern @ dirs                     # [S / (C_a w), a-terms]
        pw = kern * (dphi[None, :] / (hmat * hmat))
        # the two chord-difference integrals over w_i, summed: chord sums of
        # w_i^(-r) [(ratio pw) vand]_r and of w_i^r [(conj(ratio) pw) conj(vand)]_r,
        # turned by w_i^(n+1) and w_i^(-n-1)
        sum_b = _chord_sums(vand_conj[start:stop] * ((ratio * pw) @ vand), modes)
        sum_c = _chord_sums(vand[start:stop] * ((np.conj(ratio) * pw) @ vand_conj), modes)
        rows_inv = inv[start:stop]
        chord = -(np.conj(rows_inv) * sum_b + rows_inv * sum_c)
        sing[start:stop] = (layer[:, :1] * np.conj(dhv[start:stop])
                            + np.conj(dphi[start:stop, None])
                            * (layer[:, 1:] - 0.5 * alpha * chord))
    quad = omega * (phi[:n_rows, None] * np.conj(w[:n_rows, None] * dhv[:n_rows])
                    + inv[:n_rows] * np.conj(dphi[:n_rows, None]))
    vals = np.imag(quad - conv_constant(alpha) * sing)
    return np.tile(vals, (grid.size // n_rows, 1)).T


def gateaux_derivative(bnd: FourierBoundary, h: FourierBoundary, omega: float,
                       alpha: float, grid: UnitGrid | None = None):
    """Directional derivative of the functional at bnd in the direction h.

    The derivative is linear in h, so it is the coefficient-weighted sum of
    the monomial derivatives over the nonzero b_n of h (plus the leading
    direction when h.lead != 1).  Agrees with multiplier_at_disc at the
    identity and with central finite differences of functional_G elsewhere.
    """
    order = max(bnd.order, h.order)
    grid = default_grid(order + 1) if grid is None else grid
    modes = np.flatnonzero(h.coeffs)
    amps = h.coeffs[modes]
    if h.lead != 1.0:
        modes = np.append(modes, -1)
        amps = np.append(amps, h.lead - 1.0)
    fields = monomial_derivatives(bnd, modes, omega, alpha, grid)
    return _field_from_values(amps @ fields, grid)


@dataclass(frozen=True)
class JacobianMatrix:
    """Finite-difference Jacobian in the mode basis, rows = sine modes 1..K."""

    entries: np.ndarray        # entries[k-1, n]: response of sine mode k to b_n
    omega_column: np.ndarray   # mixed omega-derivative column (see builder)
    alpha: float
    omega: float
    eps: float


def _residual(omega: float, bnd: FourierBoundary, alpha: float, grid: UnitGrid):
    if alpha == 1.0:
        return functional_G_sqg(omega, bnd, grid)
    return functional_G(omega, bnd, alpha, grid)


def _perturbed(bnd: FourierBoundary, mode: int, eps: float, width: int) -> FourierBoundary:
    coeffs = np.zeros(max(bnd.order, width - 1, mode) + 1)
    coeffs[:bnd.order + 1] = bnd.coeffs
    coeffs[mode] += eps
    return FourierBoundary(coeffs, lead=bnd.lead)


def fd_column(bnd: FourierBoundary, mode: int, omega: float, alpha: float,
              grid: UnitGrid, eps: float, n_rows: int) -> np.ndarray:
    """Sine coefficients of the central difference in the direction b_mode."""
    fp = _residual(omega, _perturbed(bnd, mode, +eps, n_rows), alpha, grid)
    fm = _residual(omega, _perturbed(bnd, mode, -eps, n_rows), alpha, grid)
    return (fp.sine_coeffs[:n_rows] - fm.sine_coeffs[:n_rows]) / (2.0 * eps)


def mixed_omega_column(bnd: FourierBoundary, mode: int, alpha: float,
                       grid: UnitGrid, eps: float, n_rows: int) -> np.ndarray:
    """Mixed derivative d/domega of the Jacobian column for b_mode.

    The functional is affine in omega, so one central difference in omega of
    the direction column is exact.  At the disc this reproduces
    (m/2) * i(w^m - conj(w)^m) for the direction b_{m-1}.
    """
    col_hi = fd_column(bnd, mode, 0.5, alpha, grid, eps, n_rows)
    col_lo = fd_column(bnd, mode, -0.5, alpha, grid, eps, n_rows)
    return col_hi - col_lo


def numerical_jacobian(bnd: FourierBoundary, omega: float, alpha: float,
                       grid: UnitGrid | None = None, eps: float = 1e-6,
                       n_modes: int = 16, mixed_mode: int | None = None,
                       check_conditioning: bool = True) -> JacobianMatrix:
    """Central-difference Jacobian over the modes b_0 .. b_{n_modes-1}.

    Square by construction: sine modes 1..n_modes as rows, so at the disc
    the matrix is diagonal with entry (n+1)(omega - omega_{n+1})/2 at
    position (n, n).  omega_column carries the mixed omega-derivative in the
    direction b_{mixed_mode} (default: the last mode, n_modes - 1).
    """
    if not 1e-8 <= eps <= 1e-4:
        raise ValueError("finite-difference step outside [1e-8, 1e-4]")
    grid = default_grid(n_modes + 1) if grid is None else grid
    cols = [fd_column(bnd, n, omega, alpha, grid, eps, n_modes)
            for n in range(n_modes)]
    entries = np.column_stack(cols)
    if check_conditioning:
        probe = n_modes // 2
        again = fd_column(bnd, probe, omega, alpha, grid, eps / 2.0, n_modes)
        drift = float(np.max(np.abs(again - entries[:, probe])))
        if drift > 1e-5:
            warnings.warn(f"finite-difference columns drift by {drift:.2e} "
                          "under step halving", RuntimeWarning, stacklevel=2)
    mode = n_modes - 1 if mixed_mode is None else mixed_mode
    omega_col = mixed_omega_column(bnd, mode, alpha, grid, eps, n_modes)
    return JacobianMatrix(entries=entries, omega_column=omega_col,
                          alpha=alpha, omega=omega, eps=eps)


class BracketError(ValueError):
    """Scan window does not bracket a sign change of the target multiplier."""


def bifurcation_scan(alpha: float, m: int, omega_window: tuple[float, float],
                     grid: UnitGrid | None = None, tol: float = 1e-10,
                     eps: float = 1e-6) -> float:
    """Locate the angular velocity where the mode-(m-1) column vanishes.

    Bisection on the (m, m-1) entry of the quadrature-assembled disc
    Jacobian; the result must land on the closed-form dispersion value, and
    doing so checks the whole product-quadrature pipeline at once.
    """
    grid = default_grid(m + 1) if grid is None else grid
    disc = FourierBoundary.identity()

    def entry(om: float) -> float:
        return fd_column(disc, m - 1, om, alpha, grid, eps, m)[m - 1]

    lo, hi = omega_window
    f_lo, f_hi = entry(lo), entry(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(f"no sign change of mode-{m - 1} multiplier in {omega_window}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = entry(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def kernel_diagnostics(alpha: float, m: int, omega: float,
                       grid: UnitGrid | None = None, n_modes: int = 16,
                       eps: float = 1e-6) -> dict:
    """Singular-value picture of the disc Jacobian at a candidate bifurcation.

    Reports the number of near-zero singular values, the mass the critical
    right singular vector carries on mode m-1, and the conditioning of the
    complement with the b_{m-1} column removed.
    """
    n_modes = max(n_modes, m + 4)
    grid = default_grid(n_modes + 1) if grid is None else grid
    jac = numerical_jacobian(FourierBoundary.identity(), omega, alpha, grid,
                             eps=eps, n_modes=n_modes, mixed_mode=m - 1,
                             check_conditioning=False)
    u_mat, sv, vt = np.linalg.svd(jac.entries)
    scale = sv[0]
    n_small = int(np.sum(sv < 1e-9 * scale))
    v_min = vt[-1]
    mass = float(v_min[m - 1] ** 2 / np.dot(v_min, v_min))
    keep = [n for n in range(n_modes) if n != m - 1]
    rows = [k for k in range(n_modes) if k != m - 1]
    reduced = jac.entries[np.ix_(rows, keep)]
    cond = float(np.linalg.cond(reduced))
    return {"singular_values": sv, "n_small": n_small, "kernel_mass": mass,
            "cokernel": u_mat[:, -1], "omega_column": jac.omega_column,
            "reduced_condition": cond}


def transversality_check(alpha: float, m: int, grid: UnitGrid | None = None,
                         tol: float = 1e-3, column: np.ndarray | None = None) -> bool:
    """True when the mixed omega-derivative column leaves the Jacobian range.

    Projects that column (or a caller-supplied replacement, for negative
    controls) onto the numerically computed cokernel of the disc Jacobian at
    the bifurcation value; crossing with nonzero speed means a nonzero
    projection.
    """
    omega = omega_dispersion(alpha, m)
    diag = kernel_diagnostics(alpha, m, omega, grid=grid)
    col = diag["omega_column"] if column is None else np.asarray(column, dtype=float)
    norm = np.linalg.norm(col)
    if norm == 0.0:
        return False
    return bool(abs(np.dot(diag["cokernel"], col)) / norm > tol)

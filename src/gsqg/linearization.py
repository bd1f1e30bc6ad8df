"""Linearization of the patch functional and its spectral diagnostics.

At the disc the derivative acts diagonally on Fourier modes: perturbing
coefficient b_n moves only the sine mode n+1, with multiplier
(n+1)(omega - omega_{n+1})/2 (and omega/2 for the translation mode b_0).
Away from the disc, and at every alpha in (0, 1], the directional
derivative is assembled from the same product quadrature as the nonlinear
functional.  The disc Jacobian behind the kernel, transversality and
bifurcation diagnostics is that analytic derivative; it rebuilds the
multipliers from the quadrature pipeline rather than from their closed form,
in one cached pass at omega = 0 per alpha, and only their omega slope
(n+1)/2, which involves no quadrature, is taken in closed form.

The functional is rotation equivariant, so a derivative along directions
whose Fourier orders n+1 share the boundary's m-fold period repeats with
it: the rung directions of a Newton step are formed on half a sector, and
the disc Jacobian, whose directions include the translation b_0, forms half
the grid.  The direction monomials w^(-n) of a pass depend on the grid and
the modes only, and are formed once for every Jacobian that shares them.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .geometry import (AliasingWarning, FourierBoundary, UnitGrid, _map_samples, _read_only,
                       default_grid)
from .kernels import _field_from_values, _formed_rows, _inverse_chords, _kernel_blocks
from .specfun import _omega_ladder, omega_dispersion

_DISC_MODES = 16    # modes of the disc Jacobian that bifurcation_scan and kernel_diagnostics share


def multiplier_at_disc(alpha: float, omega: float, n_max: int) -> np.ndarray:
    """Exact multipliers of the disc linearization, modes 0..n_max:
    mult[0] = omega/2, mult[n] = (n+1)(omega - omega_{n+1})/2."""
    if n_max < 2:
        raise ValueError("need at least modes up to n = 2")
    omegas = _omega_ladder(alpha, n_max + 1)
    n = np.arange(1, n_max + 1)
    return np.concatenate([[omega / 2.0], (n + 1) * (omega - omegas) / 2.0])


def _mixed_slope(phi, dphi, w, inv, dhv) -> np.ndarray:
    """Derivative along h of the omega slope Im(phi conj(w) conj(phi')) of G,
    Im(phi conj(w h') + (h/w) conj(phi')).

    inv = h/w and dhv = h' broadcast against the boundary samples phi, dphi, w.
    """
    return np.imag(phi * np.conj(w * dhv) + inv * np.conj(dphi))


def monomial_derivatives(bnd: FourierBoundary, modes, omega: float, alpha: float,
                         grid: UnitGrid) -> np.ndarray:
    """Directional derivatives of the functional at bnd along h = w^(-n), n in modes.

    Row k holds the grid values of dG(omega, phi)[w^(-modes[k])]: n >= 1 is
    the coefficient b_n, n = 0 the translation b_0 and n = -1 the leading
    coefficient (h = w).  Every direction shares one pass over the target
    rows of half the common period P of the boundary and the orders n+1
    (see _formed_fields).  G is equivariant, G(T phi)(w) = G(phi)(e^(i beta) w)
    for T phi(w) = e^(-i beta) phi(e^(i beta) w), and T maps h to
    e^(-i (n+1) beta) h; at beta = 2 pi P / size T fixes the boundary and
    every h, so each field repeats with period P.  Under the mirror it
    changes sign.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("analytic derivative implemented for alpha in (0, 1]")
    modes = np.asarray(modes, dtype=int)
    if modes.size and modes.min() < -1:
        raise ValueError("directions are w^(-n) with n >= -1")
    n_max = max(int(modes.max(initial=0)), 0)
    if grid.size < 2 * (n_max + 1):
        warnings.warn(f"grid of size {grid.size} under-resolves the direction b_{n_max}",
                      AliasingWarning, stacklevel=2)
    formed = _formed_rows(bnd, grid, modes + 1)
    fields = _formed_fields(bnd, modes, omega, alpha, grid, formed.count)
    return formed.unfold(fields, -1).T


@lru_cache(maxsize=8)
def _monomials(grid: UnitGrid, modes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """h / w, h' and conj(h) of the directions h = w^(-n), n in modes, one
    column each on grid; formed once per (grid, modes), read-only."""
    n = np.array(modes, dtype=int)
    inv = np.exp(-1j * np.outer(grid.angles, n + 1))    # w^(-n-1) = h / w
    dhv = -n * inv                                       # h' = -n w^(-n-1)
    h_bar = np.conj(grid.nodes[:, None] * inv)           # conj(h) = w^n
    return tuple(_read_only(a) for a in (inv, dhv, h_bar))


def _formed_fields(bnd: FourierBoundary, modes: np.ndarray, omega: float, alpha: float,
                   grid: UnitGrid, n_rows: int) -> np.ndarray:
    """Target rows 0..n_rows-1 of F_h = dG[h] along h = w^(-n), for n in
    modes, one column each.

    Each block of H^2 and H^(-a) W (W the circulant weight rows) from
    kernels._kernel_blocks gives the real block H^(-a-2) W |R|^2, where
    |R|^2_(i-j) = 1 / |w_i - w_j|^2 on the circle is the circulant behind
    H^2.  With D = (phi_i - phi_j) H^(-a-2) W |R|^2 and p = w phi', the
    chord-difference integrals of every direction are

        sum_b = sum_j D_ij p_j (conj(h_i) - conj(h_j)),
        sum_c = sum_j conj(D_ij) p_j (h_i - h_j),

    so one product of D with the columns [p, p conj(h), conj(p),
    conj(p) conj(h)] gives both, one column per direction and term; the
    diagonal adds nothing.  The layer-potential term is one real product of
    H^(-a) W with [p, q], q = w h', split into real and imaginary parts.  The
    weight row carries C_a and its sign for every alpha in (0, 1], so
    alpha = 1 is the same pass; the diagonal term it leaves out adds a real
    multiple of |p|^2 to G and nothing to the derivative.
    """
    w = grid.nodes
    phi, dphi = _map_samples(bnd, grid)
    inv, dhv, h_bar = _monomials(grid, tuple(modes.tolist()))
    dirs = w[:, None] * np.column_stack([dphi, dhv])     # [p, q] = w [phi', h']
    dirs_pair = dirs.view(float)                         # Re and Im of each column
    p, k = dirs[:, :1], modes.size
    chord_cols = np.hstack([p, p * h_bar, np.conj(p), np.conj(p) * h_bar])
    inv_sq = _inverse_chords(len(w))
    sing = np.empty((n_rows, k), dtype=complex)
    for start, stop, h2, kern in _kernel_blocks(phi, dphi, w, alpha, n_rows):
        layer = (kern @ dirs_pair).view(complex)        # the row sums of p and q
        quot = np.divide(kern, h2, out=h2)              # in the H^2 buffer, free until next block
        quot *= inv_sq[start:stop]                      # H^(-a-2) W |R|^2
        chords = np.empty_like(quot, dtype=complex)
        chords[:] = phi                                 # then phi_i - phi_j in place
        cross = np.multiply(np.subtract(phi[start:stop, None], chords, out=chords), quot,
                            out=chords) @ chord_cols   # D @ columns
        sum_b = h_bar[start:stop] * cross[:, :1] - cross[:, 1:k + 1]
        sum_c = np.conj(h_bar[start:stop] * cross[:, k + 1:k + 2] - cross[:, k + 2:])
        p_bar, q_bar = np.conj(dirs[start:stop, :1]), np.conj(dirs[start:stop, 1:])
        chord = sum_b + sum_c
        sing[start:stop] = layer[:, :1] * q_bar + p_bar * (layer[:, 1:] - 0.5 * alpha * chord)
    rows = slice(0, n_rows)
    slope = _mixed_slope(phi[rows, None], dphi[rows, None], w[rows, None], inv[rows], dhv[rows])
    return omega * slope - np.imag(sing)


def gateaux_derivative(bnd: FourierBoundary, h: FourierBoundary, omega: float,
                       alpha: float, grid: UnitGrid):
    """Directional derivative of the functional at bnd in the direction h.

    The derivative is linear in h, so it is the coefficient-weighted sum of
    the monomial derivatives over the nonzero b_n of h (plus the leading
    direction when h.lead != 1).  Agrees with multiplier_at_disc at the
    identity and with central finite differences of functional_G elsewhere.
    """
    modes = np.flatnonzero(h.coeffs)
    amps = h.coeffs[modes]
    if h.lead != 1.0:
        modes = np.append(modes, -1)
        amps = np.append(amps, h.lead - 1.0)
    fields = monomial_derivatives(bnd, modes, omega, alpha, grid)
    return _field_from_values(amps @ fields, grid)


@lru_cache(maxsize=32)
def _disc_at_rest(alpha: float, n_modes: int, grid: UnitGrid) -> np.ndarray:
    """Read-only disc Jacobian at omega = 0 over b_0 .. b_{n_modes-1}, from one
    monomial_derivatives pass on grid."""
    fields = monomial_derivatives(FourierBoundary.identity(), range(n_modes), 0.0, alpha, grid)
    entries = grid.sine_coeffs(fields, n_modes).T
    entries.flags.writeable = False
    return entries


def disc_jacobian(alpha: float, omega: float, n_modes: int,
                  grid: UnitGrid | None = None) -> np.ndarray:
    """Analytic Jacobian at the disc over the modes b_0 .. b_{n_modes-1}.

    Square: entries[k-1, n] is the response of sine mode k to b_n, so the
    matrix is diagonal with entry (n+1)(omega - omega_{n+1})/2 at (n, n) up
    to quadrature rounding.  G is affine in omega: the matrix at omega = 0
    comes from one monomial_derivatives pass, cached per (alpha, n_modes,
    grid), and the omega part is its closed form omega (n+1)/2 on the
    diagonal.  At the disc _mixed_slope is the pointwise
    -(n+1) sin((n+1) theta), so no singular integral leaves the pass.
    """
    grid = default_grid(n_modes + 1) if grid is None else grid
    slope = np.arange(1, n_modes + 1) / 2.0
    return _disc_at_rest(alpha, n_modes, grid) + np.diag(omega * slope)


class BracketError(ValueError):
    """Scan window does not bracket a sign change of the target multiplier."""


def bifurcation_scan(alpha: float, m: int, omega_window: tuple[float, float]) -> float:
    """Locate the angular velocity where the mode-(m-1) column vanishes.

    The functional is affine in omega, so the (m, m-1) entry of the
    quadrature-assembled disc Jacobian is e(omega) = A + omega m/2: A is read
    off the cached pass at omega = 0 on kernel_diagnostics' grid, which the
    diagnostics at the root then share, and m/2 is the omega slope of the
    multiplier m(omega - omega_m)/2.  Its root -A/(m/2) must land on the
    closed-form dispersion value, and doing so checks the whole
    product-quadrature pipeline at once.  BracketError when e keeps its
    sign over the window.
    """
    # kernel_diagnostics' default modes, so both read one cached pass
    entry_0 = disc_jacobian(alpha, 0.0, max(_DISC_MODES, m + 4))[m - 1, m - 1]
    slope = m / 2.0
    lo, hi = omega_window
    if (entry_0 + lo * slope) * (entry_0 + hi * slope) > 0.0:
        raise BracketError(f"no sign change of mode-{m - 1} multiplier in {omega_window}")
    return float(-entry_0 / slope)


def kernel_diagnostics(alpha: float, m: int, omega: float, n_modes: int = _DISC_MODES) -> dict:
    """Singular-value picture of the disc Jacobian at a candidate bifurcation.

    Reports the number of near-zero singular values, the mass the critical
    right singular vector carries on mode m-1, the conditioning of the
    complement with the b_{m-1} column removed, and transversality.  The
    omega column, the mixed derivative along b_{m-1}, is its closed form
    (m/2) e_{m-1}: only sine mode m moves, with the omega slope of the
    multiplier.  Its normalised projection onto the cokernel u (the last
    left singular vector) is |u[m-1]|, and the branch crosses with nonzero
    speed when that exceeds 1e-3.  The matrix is the cached pass at omega = 0
    plus its closed-form omega diagonal (see disc_jacobian).
    """
    n_modes = max(n_modes, m + 4)
    entries = disc_jacobian(alpha, omega, n_modes)
    u_mat, sv, vt = np.linalg.svd(entries)
    scale = sv[0]
    n_small = int(np.sum(sv < 1e-9 * scale))
    v_min = vt[-1]
    mass = float(v_min[m - 1] ** 2 / np.dot(v_min, v_min))
    keep = [n for n in range(n_modes) if n != m - 1]
    reduced = entries[np.ix_(keep, keep)]
    cond = float(np.linalg.cond(reduced))
    return {"singular_values": sv, "n_small": n_small, "kernel_mass": mass,
            "reduced_condition": cond, "transversal": bool(abs(u_mat[m - 1, -1]) > 1e-3)}


def transversality_check(alpha: float, m: int) -> bool:
    """True when the mixed omega-derivative column leaves the range of the disc
    Jacobian at the closed-form omega_m (see kernel_diagnostics)."""
    return kernel_diagnostics(alpha, m, omega_dispersion(alpha, m))["transversal"]

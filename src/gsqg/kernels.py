"""Singular boundary integrals of the rotating-patch functional.

The nonlinear functional whose zeros are rotating patches is

    G(omega, phi)(w) = Im{ (omega*phi(w) - S(phi)(w)) * conj(w) * conj(phi'(w)) }

with S(phi) the power-law layer potential of the boundary.  All integrals
here are evaluated by product quadrature: the kernel is split as
|phi(w)-phi(tau)|^(-a) = |w-tau|^(-a) * H(w,tau)^(-a) with H smooth and
bounded below, the smooth part is expanded in a discrete Fourier series in
tau, and each mode is contracted against the exact circle moments of
|w-tau|^(-a).  The singular factor is therefore integrated exactly; the only
error is truncation of the smooth expansion.  The circle moments are rungs
of the ladders in specfun: the power and conjugate moments I and Z read the
ratio ladder, the chord moment J and the weight row the gap ladder.

One real weight row serves every a in (0, 1]: the moment gaps
C_a (mu_|k| - mu_0), a gap ladder contracted against p = w phi', which tend
to the critical moments -(2/pi) sigma_|k| as a -> 1 while mu_0 diverges.  A
constant shift of the row moves only its diagonal, whose share of G is a
real multiple of |p|^2; s_phi adds the diagonal term back.

One generator, _kernel_blocks, forms H^2 and H^(-a) W, W the circulant
weight rows, in blocks of 2^16 entries (2^16 / size target rows, at least
64) held in two reused buffers.  The residual contracts each block with p;
the directional derivatives in linearization add the chord differences
phi_i - phi_j, divided by H^2 and multiplied by the cached real circulant
|R|^2_(i-j) = 1 / |w_i - w_j|^2 that H^2 is built from.  Whatever depends
only on the grid size and alpha (the weight row, s_phi's diagonal weight,
|R|^2) or on the period of a pass (its formed rows) is formed once, cached
and read-only; a residual forms only its boundary's samples, blocks and
transforms.

Every boundary has real coefficients, so it is symmetric about the real
axis, and an m-fold one is also invariant under rotation by 2 pi/m.  A pass
forms the target rows of half the common period of its boundary and its
directions and unfolds the rest: the reflection w -> conj(w) maps a row to
the conjugate of its mirror row, and the rotation repeats each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import FourierBoundary, UnitGrid, _map_samples, _read_only
from .specfun import _ratio_ladder, conv_constant, gap_ladder, gamma_fn, odd_harmonic_ladder

_H_FLOOR = 1e-8


class SelfIntersectionError(RuntimeError):
    """Boundary chord ratio collapsed; the curve is close to self-contact."""


def _moment_prefactor(alpha: float) -> float:
    """gamma(1-a) / gamma^2(1-a/2), the common scale of the circle moments."""
    return gamma_fn(1.0 - alpha) / gamma_fn(1.0 - alpha / 2.0) ** 2


def _check_moment_args(alpha: float, n) -> int:
    """Validate alpha and the orders n (one or an array); return the top order."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("moments need alpha in (0, 1)")
    top = int(np.max(n))
    if np.min(n) < 0:
        raise ValueError("moment order must be >= 0")
    return top


def _rungs(ladder: np.ndarray, n):
    """ladder[n]: a float for one order, an array for an array of orders."""
    return float(ladder[n]) if np.ndim(n) == 0 else ladder[np.asarray(n)]


def singular_moment_I(alpha: float, n):
    """Scalar factor of the n-th power moment of |w-tau|^(-a) on the circle.

    The full contour mean of tau^n / |tau-w|^a equals this factor times
    w^(n+1).  n may be an array of orders, all read off one ladder.
    """
    top = _check_moment_args(alpha, n)
    ladder = _ratio_ladder(alpha / 2.0, 1.0 - alpha / 2.0, top + 1)
    return _moment_prefactor(alpha) * _rungs(ladder, np.add(n, 1))


def singular_moment_J(alpha: float, n):
    """Factor of the chord-difference moment; the full integral is factor * w^(n+2).

    n may be an array of orders, all read off one ladder.
    """
    top = _check_moment_args(alpha, n)
    pref = (1.0 + alpha / 2.0) * _moment_prefactor(alpha) / (2.0 - alpha)
    # 1 - (2 + a/2)_n / (2 - a/2)_n = -a L_n, with no cancellation as a -> 0
    return -alpha * pref * _rungs(gap_ladder(2.0 + alpha / 2.0, 2.0 - alpha / 2.0, top), n)


def singular_moment_Z(alpha: float, n):
    """Factor of the conjugate-difference moment; the full integral is factor * conj(w)^n.

    The rising-factorial ratio with the negative base reduces to minus the
    ratio shifted by one, which is what gets evaluated here.  n may be an
    array of orders, all read off one ladder.
    """
    top = _check_moment_args(alpha, n)
    # (a/2)_n / (-a/2)_n = -(1+a/2)_{n-1} / (1-a/2)_{n-1} for n >= 1; 1 at n = 0
    ladder = -_ratio_ladder(1.0 + alpha / 2.0, 1.0 - alpha / 2.0, max(top - 1, 0))
    ratio = _rungs(np.concatenate([[1.0], ladder]), n)
    return 0.5 * _moment_prefactor(alpha) * (ratio - 1.0)


def sqg_moment_1(n):
    """Subtracted first moment of the critical kernel: -(2/pi) sigma_n; n may be an array."""
    if np.min(n) < 1:
        raise ValueError("needs n >= 1")
    return -(2.0 / math.pi) * _rungs(odd_harmonic_ladder(int(np.max(n))), n)


def sqg_moment_2(n):
    """Squared-chord moment of the critical kernel: (2/pi) (sigma_{n+1} - sigma_1), sigma_1 = 1;
    n may be an array."""
    if np.min(n) < 1:
        raise ValueError("needs n >= 1")
    return (2.0 / math.pi) * (_rungs(odd_harmonic_ladder(int(np.max(n)) + 1), np.add(n, 1)) - 1.0)


# ---------------------------------------------------------------------------
# product-quadrature machinery


_BLOCK_ENTRIES = 2 ** 16   # entries per block of target rows
_ROW_BLOCK = 64            # fewest rows per block: temporaries stay 64 x size from grid 1024 up


def _circulant(row: np.ndarray) -> np.ndarray:
    """Read-only view C[i, j] = row[(i - j) mod size], reading 2*size-1 values."""
    # ext[u] = row[(size-1-u) mod size], so row i of C is ext[size-1-i : 2*size-1-i]
    ext = np.concatenate([row[::-1], row[:0:-1]])
    return sliding_window_view(ext, len(row))[::-1]


@lru_cache(maxsize=32)
def _circulant_weights(size: int, alpha: float) -> tuple[np.ndarray, float]:
    """Read-only view W[i, j] = K[(i - j) mod size] of the one weight row, and K[0].

    K = ifft(C_a (mu_|k| - mu_0)) is real and even, with mu_k the exact
    |w-tau|^(-a) moment of the tau^k mode; the gaps are
    -C_a gamma(2-a) / gamma^2(1-a/2) L_|k|(a/2, 1-a/2), -(2/pi) sigma_|k| at a = 1.
    Row i of W against a grid-sampled smooth factor f[i, :] gives
    C_a sum_k c_k (mu_|k| - mu_0) w_i^k - K[0] f[i, i], c_k the tau-Fourier
    coefficients of f[i, :].  W is zero on its diagonal:
    K[0] (about -2/a as a -> 0) would put its rounding into G, which sees only
    a real multiple of |p_i|^2 there.
    """
    scale = conv_constant(alpha) * gamma_fn(2.0 - alpha) / gamma_fn(1.0 - alpha / 2.0) ** 2
    row = np.fft.irfft(-scale * gap_ladder(alpha / 2.0, 1.0 - alpha / 2.0, size // 2), size)
    diagonal, row[0] = row[0], 0.0
    return _circulant(row), float(diagonal)


@lru_cache(maxsize=32)
def _diagonal_weight(size: int, alpha: float) -> float:
    """C_a mu_0 + K[0], the weight of the diagonal term that s_phi adds back
    for alpha in (0, 1); mu_0 diverges at alpha = 1."""
    return conv_constant(alpha) * _moment_prefactor(alpha) + _circulant_weights(size, alpha)[1]


@lru_cache(maxsize=32)
def _inverse_chords(size: int) -> np.ndarray:
    """Read-only view |R|^2, 1 on the diagonal, with 1 / |w_i - w_j|^2 = |R|^2[i, j] off it.

    |R|^2[i, j] = 1 / (4 sin^2(pi k / size)), k = (i - j) mod size.
    """
    row = np.ones(size)
    k = np.arange(1, size // 2 + 1)
    row[k] = 0.25 / np.sin(np.pi * k / size) ** 2
    # |R|^2 is even in k, from the angle below pi/2: near pi, sin loses digits
    row[size - k] = row[k]
    return _circulant(row)


def _kernel_blocks(phi: np.ndarray, dphi: np.ndarray, w: np.ndarray, alpha: float, count: int):
    """Yield (start, stop, H^2, H^(-a) W) for each block of target rows 0..count-1.

    A block holds _BLOCK_ENTRIES / size rows, at least _ROW_BLOCK: 1024
    rows on grid 64 and 128 on grid 512, so small passes form in one block,
    and 64 rows from grid 1024 up, which bounds the buffers at 64 x size.

    H^2 = |phi_i - phi_j|^2 |w_i - w_j|^(-2) comes from real coordinate
    differences, |phi'_i|^2 on the diagonal, and is floor-checked before any
    logarithm; over the formed rows that covers every row, since H is
    invariant under the moves _formed_rows unfolds.  Both blocks are views
    of two buffers that the next block overwrites.
    """
    x, y = phi.real.copy(), phi.imag.copy()
    weights, inv_sq = _circulant_weights(len(w), alpha)[0], _inverse_chords(len(w))
    rows = max(_ROW_BLOCK, _BLOCK_ENTRIES // len(w))
    h2_buf, kern_buf = np.empty((2, min(rows, count), len(w)))
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        h2, kern = h2_buf[:stop - start], kern_buf[:stop - start]
        # x_j - x_i from a copy of the row, which numpy forms faster than the
        # broadcast difference x_i - x_j; the square is the same
        h2[:], kern[:] = x, y
        np.square(np.subtract(h2, x[start:stop, None], out=h2), out=h2)
        h2 += np.square(np.subtract(kern, y[start:stop, None], out=kern), out=kern)
        h2 *= inv_sq[start:stop]
        h2.reshape(-1)[start::len(w) + 1] = np.abs(dphi[start:stop]) ** 2   # the diagonal
        if (low := h2.min()) < _H_FLOOR ** 2:
            raise SelfIntersectionError(f"chord ratio fell to {math.sqrt(low):.3e}")
        np.log(h2, out=kern)
        kern *= -0.5 * alpha
        np.multiply(np.exp(kern, out=kern), weights[start:stop], out=kern)
        yield start, stop, h2, kern


def _sector_rows(bnd: FourierBoundary, size: int, orders=()) -> int:
    """Period of the target rows of a pass along directions of the given Fourier orders.

    With f = gcd(size, n+1 over every nonzero b_n), rotating the grid by
    2*pi/f maps the boundary onto itself, so the chord ratio H and
    phi'(tau) are invariant under the joint index shift (i, j) -> (i + size/f,
    j + size/f); every contraction row repeats with period size/f.  A
    derivative along w^(-n) keeps that period only when its order n+1 is a
    multiple of f too, so the orders join the gcd.  _formed_rows halves the
    period again by the mirror symmetry.
    """
    bnd_orders = np.flatnonzero(bnd.coeffs) + 1
    return size // math.gcd(size, *bnd_orders.tolist(), *map(int, orders))


class _FormedRows(NamedTuple):
    """Target rows 0..count-1 that a pass forms, and how every grid row follows.

    Grid row i repeats formed row source[i]; where mirrored[i], it is that
    row conjugated and multiplied by the field's parity under the mirror.
    """

    count: int
    source: np.ndarray
    mirrored: np.ndarray

    def unfold(self, formed: np.ndarray, parity: int) -> np.ndarray:
        """All grid rows of a field from its formed rows (leading axis)."""
        out = formed[self.source]
        out[self.mirrored] = parity * np.conj(out[self.mirrored])
        return out


def _formed_rows(bnd: FourierBoundary, grid: UnitGrid, orders=()) -> _FormedRows:
    """The rows a pass along directions of the given orders forms over their common period P.

    Real coefficients make w -> conj(w) map phi to its conjugate.  conj(w_i)
    is the node w_(-i), so row i and row -i mod size are mirror images:
    q = conj(w) * (row sums) is conjugated (parity +1), and G and its
    derivative along a real direction change sign (parity -1).  A pass
    forms rows 0..P/2.
    """
    period = _sector_rows(bnd, grid.size, orders)
    return _period_rows(period, grid.size)


@lru_cache(maxsize=32)
def _period_rows(period: int, size: int) -> _FormedRows:
    """_formed_rows of one period P on a grid of size nodes, formed once; read-only."""
    rows = np.arange(size) % period
    count = period // 2 + 1
    mirrored = rows >= count
    rows = np.where(mirrored, -rows, rows) % period
    return _FormedRows(count, _read_only(rows), _read_only(mirrored))


def _layer_potential(phi: np.ndarray, dphi: np.ndarray, w: np.ndarray, alpha: float,
                     rows: _FormedRows) -> np.ndarray:
    """sum_j W[i, j] H_ij^(-a) p_j with p = w phi' on every node: S(phi) less its diagonal term."""
    p_pair = (w * dphi).view(float).reshape(-1, 2)     # columns Re p, Im p
    sums = np.empty(rows.count, dtype=complex)
    for start, stop, _, kern in _kernel_blocks(phi, dphi, w, alpha, rows.count):
        sums[start:stop] = (kern @ p_pair).view(complex)[:, 0]
    # p turns with w under the rotation, so the rows unfold as sums / w
    return w * rows.unfold(np.conj(w[:rows.count]) * sums, 1)


def s_phi(bnd: FourierBoundary, alpha: float, grid: UnitGrid,
          phi: np.ndarray | None = None, dphi: np.ndarray | None = None) -> np.ndarray:
    """Layer potential S(phi)(w_j) = C_a * mean of phi'(tau) / |phi(w)-phi(tau)|^a.

    Product quadrature: the smooth factor w phi'(tau) H^(-a) sampled per target,
    contracted against the weight rows, plus the diagonal term they leave out,
    which diverges at alpha = 1.  For the identity map this returns
    theta_alpha * w exactly (to rounding).  phi, dphi: the map's samples on grid, if
    known; both are formed when either is missing.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("s_phi needs alpha in (0, 1); mu_0 diverges at alpha = 1")
    if phi is None or dphi is None:
        phi, dphi = _map_samples(bnd, grid)
    layer = _layer_potential(phi, dphi, grid.nodes, alpha, _formed_rows(bnd, grid))
    # the diagonal term the weight rows leave out: (C_a mu_0 + K[0]) H_ii^(-a) p_i
    return layer + _diagonal_weight(grid.size, alpha) * np.abs(dphi) ** -alpha * grid.nodes * dphi


@dataclass(frozen=True)
class ResidualField:
    """Pointwise residual of the patch functional plus its sine expansion."""

    grid: UnitGrid
    values: np.ndarray       # real samples at the grid nodes
    sine_coeffs: np.ndarray  # g_n of i*sum g_n (w^n - conj(w)^n), n = 1..len

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.sine_coeffs)))

    def sine_coeff(self, n: int) -> float:
        if not 1 <= n <= len(self.sine_coeffs):
            raise IndexError(f"sine mode {n} outside stored range")
        return float(self.sine_coeffs[n - 1])


def _field_from_values(values: np.ndarray, grid: UnitGrid) -> ResidualField:
    vals = np.ascontiguousarray(values)
    return ResidualField(grid=grid, values=vals, sine_coeffs=grid.sine_coeffs(vals))


def functional_G(omega: float, bnd: FourierBoundary, alpha: float,
                 grid: UnitGrid) -> ResidualField:
    """Residual of the rotating-patch equation at angular velocity omega.

    Identically zero (to rounding) for the disc at any omega; a converged
    m-fold solution drives every sine coefficient below the solver tolerance.
    At the critical exponent alpha = 1 the weight row holds the
    odd-harmonic moments less the divergent constant mode, which would only
    add a real multiple of |w phi'(w)|^2 to the imaginary part: as if the
    numerator tau*phi'(tau) - w*phi'(w) vanished on the diagonal.
    """
    w = grid.nodes
    phi, dphi = _map_samples(bnd, grid)
    layer = (_layer_potential(phi, dphi, w, 1.0, _formed_rows(bnd, grid)) if alpha == 1.0
             else s_phi(bnd, alpha, grid, phi, dphi))
    vals = np.imag((omega * phi - layer) * np.conj(w) * np.conj(dphi))
    return _field_from_values(vals, grid)


def ellipse_fourth_coefficient(omega: float, q: float, alpha: float) -> float:
    """Fourth sine coefficient of the residual at the ellipse with ratio q, on 256 nodes.

    Nonzero for every omega when alpha != 1, which is exactly why ellipses
    never rotate rigidly under this flow; the omega dependence lives only in
    mode 2, so the value is omega-independent.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("ellipse ratio q must lie in (0, 1)")
    return functional_G(omega, FourierBoundary.ellipse(q), alpha, UnitGrid(256)).sine_coeff(4)


def ellipse_moment_ratio(alpha: float) -> float:
    """Closed-form a2/a0 moment ratio (2+a)(4+a) / ((4-a)(6-a))."""
    return (2.0 + alpha) * (4.0 + alpha) / ((4.0 - alpha) * (6.0 - alpha))

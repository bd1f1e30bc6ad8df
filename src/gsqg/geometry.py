"""Boundary curves as exterior conformal-map Fourier coefficients.

A patch boundary is stored as the real coefficient vector (b_0 .. b_N) of
the map ``phi(w) = lead*w + sum_n b_n / w^n`` restricted to the unit circle,
where ``lead`` is 1 except for dilated copies.  Real coefficients encode the
reflection symmetry of the patch about the horizontal axis; m-fold symmetric
patches populate only the arithmetic progression n = m-1, 2m-1, ...

Boundaries and grids are immutable values; all evaluation is vectorized
over the grid nodes.  A grid is its size: the nodes exp(2 pi i j / size),
whose mirror images conj(w_j) = w_(-j) are nodes too.  It forms its nodes
and angles once and keeps them read-only.  phi and phi' are the rows of one
stacked FFT of b_n and n b_n (_map_samples), of which eval_map and
eval_deriv are the one-row forms.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


class AliasingWarning(UserWarning):
    """Grid too small for the highest order w^(-n) it samples."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class UnitGrid:
    """Equispaced nodes exp(2 pi i j / size) on the unit circle."""

    size: int

    def __post_init__(self):
        if self.size < 2 or self.size % 2:
            raise ValueError("grid size must be even and >= 2")

    @cached_property
    def angles(self) -> np.ndarray:
        """Node angles, formed once per grid; read-only."""
        return _read_only(2.0 * np.pi * np.arange(self.size) / self.size)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Nodes exp(i angles), formed once per grid; read-only."""
        return _read_only(np.exp(1j * self.angles))

    def mode_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients c_k of values = sum_k c_k e^(i k theta).

        In fftfreq layout.  Leading axes of values are kept: each row along
        the last axis is one field.
        """
        return np.fft.fft(np.asarray(values)) / self.size

    def sine_coeffs(self, values: np.ndarray, n_max: int | None = None) -> np.ndarray:
        """Coefficients g_n of sum_n g_n * i(w^n - conj(w)^n), n = 1..n_max."""
        n_max = self.size // 2 - 1 if n_max is None else n_max
        if n_max > self.size // 2 - 1:
            raise ValueError("requested modes beyond the grid resolution")
        c = self.mode_coeffs(values)
        return c[..., 1:n_max + 1].imag.copy()


@lru_cache(maxsize=32)
def default_grid(n_coeffs: int) -> UnitGrid:
    """Over-resolved grid for n_coeffs coefficients: 8 nodes each, at least 64.

    The trapezoidal part of the product quadrature converges geometrically
    for the analytic periodic factors of a resolved boundary, so the
    truncation in the coefficients sets the error, not the grid.  Along
    m = 2, 3, 4 branches for alpha from 0.05 to 1, continued to their ends,
    every point whose residual on 32 nodes per coefficient is below 1e-11
    solves on this grid to within 1e-13 of its solve on 16 nodes per
    coefficient, in omega and in every coefficient (mostly within 1e-15;
    the largest gaps, at s = 0.01 near alpha = 1, are rounding divided by
    the O(s) omega column, and move as much between finer grids).  At the
    disc the Jacobian is exact on any grid of at least 2(n + 1) nodes.
    One grid per size, so its nodes are formed once for every solve on it.
    """
    return UnitGrid(max(8 * n_coeffs, 64))


@dataclass(frozen=True)
class FourierBoundary:
    """Truncated exterior conformal map with real coefficients."""

    coeffs: np.ndarray  # b_0 .. b_N
    lead: float = 1.0   # leading coefficient, 1 except for dilated copies

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if not (np.all(np.isfinite(arr)) and np.isfinite(self.lead)):
            raise ValueError("boundary coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def identity(cls) -> "FourierBoundary":
        """The disc: phi(w) = w."""
        return cls(np.zeros(1))

    @classmethod
    def ellipse(cls, q: float) -> "FourierBoundary":
        """Map w + q * conj(w); q = (a-b)/(a+b) for semi-axes a >= b."""
        return cls(np.array([0.0, q]))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _warn(message: str, category: type[Warning]) -> None:
    """Warn at the caller's line: the first frame outside the package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _check_alias(order: int, grid: UnitGrid) -> None:
    """Warn when the grid under-resolves the terms w^(-n), n <= order."""
    if grid.size < 2 * (order + 1):
        _warn(f"grid of size {grid.size} under-resolves order {order}", AliasingWarning)


def _conj_power_series(coeffs: np.ndarray, grid: UnitGrid) -> np.ndarray:
    """sum_n c_n conj(w_j)^n on the grid for each row c of coeffs, as one FFT.

    conj(w_j)^n = e^(-2 pi i n j / size), so orders n >= size fold onto
    n mod size.
    """
    n, size = coeffs.shape[-1], grid.size
    if n > size:
        folded = np.zeros((len(coeffs), -(-n // size) * size), dtype=complex)
        folded[:, :n] = coeffs
        coeffs = folded.reshape(len(coeffs), -1, size).sum(axis=1)
    return np.fft.fft(coeffs, n=size)


def _map_samples(bnd: FourierBoundary, grid: UnitGrid, derivs=(0, 1)) -> list[np.ndarray]:
    """phi (d = 0) and phi' (d = 1) on the grid for each d in derivs, from one
    stacked FFT of the rows b_n and n b_n:

        phi(w_j)  = lead w_j + fft(b_n)_j,
        phi'(w_j) = lead - conj(w_j) fft(n b_n)_j.
    """
    _check_alias(bnd.order, grid)
    weighted = [np.arange(bnd.order + 1) * bnd.coeffs if d else bnd.coeffs for d in derivs]
    series = _conj_power_series(np.stack(weighted), grid)
    w = grid.nodes
    return [bnd.lead - np.conj(w) * row if d else bnd.lead * w + row
            for d, row in zip(derivs, series)]


def eval_map(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """phi(w_j) on the grid: the one-row form of _map_samples."""
    return _map_samples(bnd, grid, (0,))[0]


def eval_deriv(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """phi'(w_j) on the grid: the one-row form of _map_samples."""
    return _map_samples(bnd, grid, (1,))[0]


def univalence_margin(bnd: FourierBoundary) -> float:
    """min |phi'| over a 4096-node grid; must stay positive for an embedded curve."""
    return float(np.min(np.abs(eval_deriv(bnd, UnitGrid(4096)))))


def dilate(bnd: FourierBoundary, lam: float, alpha: float) -> tuple[FourierBoundary, float]:
    """Scale the patch by lam; returns the new boundary and the factor lam^(-alpha)
    that must multiply any angular velocity attached to it."""
    if lam <= 0.0:
        raise ValueError("dilation factor must be positive")
    scaled = FourierBoundary(lam * bnd.coeffs, lead=lam * bnd.lead)
    return scaled, lam ** (-alpha)


@dataclass(frozen=True)
class MFoldBoundary:
    """Reduced coefficients (a_{m-1}, a_{2m-1}, ...) of an m-fold boundary."""

    m: int
    reduced: np.ndarray

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m-fold symmetry needs m >= 2")
        arr = np.atleast_1d(np.asarray(self.reduced, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError("reduced coefficients must be finite")
        object.__setattr__(self, "reduced", arr)


def embed_mfold(red: MFoldBoundary) -> FourierBoundary:
    """Full coefficient vector with b_{km-1} = reduced[k-1], zeros elsewhere."""
    coeffs = np.zeros(red.m * len(red.reduced))
    coeffs[red.m - 1::red.m] = red.reduced
    return FourierBoundary(coeffs)

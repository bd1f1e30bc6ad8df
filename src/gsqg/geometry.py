"""Boundary curves as exterior conformal-map Fourier coefficients.

A patch boundary is stored as the real coefficient vector (b_0 .. b_N) of
the map ``phi(w) = lead*w + sum_n b_n / w^n`` restricted to the unit circle,
where ``lead`` is 1 except for dilated copies.  Real coefficients encode the
reflection symmetry of the patch about the horizontal axis; m-fold symmetric
patches populate only the arithmetic progression n = m-1, 2m-1, ...

Boundaries and grids are immutable values; all evaluation is vectorized
over the grid nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class AliasingWarning(UserWarning):
    """Grid too small for the boundary's coefficient count."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class UnitGrid:
    """Equispaced nodes exp(i(2 pi j / size + shift)) on the unit circle."""

    size: int
    shift: float = 0.0

    def __post_init__(self):
        if self.size < 2 or self.size % 2:
            raise ValueError("grid size must be even and >= 2")

    @classmethod
    def half_offset(cls, size: int) -> "UnitGrid":
        """Nodes halfway between the default ones; keeps kernels off targets."""
        return cls(size=size, shift=np.pi / size)

    @cached_property
    def angles(self) -> np.ndarray:
        """Node angles, formed once per grid; read-only."""
        return _read_only(2.0 * np.pi * np.arange(self.size) / self.size + self.shift)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Nodes exp(i angles), formed once per grid; read-only."""
        return _read_only(np.exp(1j * self.angles))

    def mode_coeffs(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fourier coefficients c_k of values = sum_k c_k e^(i k theta).

        Returns (freqs, coeffs) in fftfreq layout, shift-corrected so the
        coefficients refer to the absolute angle theta.  Leading axes of
        values are kept: each row along the last axis is one field.
        """
        m = self.size
        c = np.fft.fft(np.asarray(values)) / m
        k = np.fft.fftfreq(m, d=1.0 / m)
        return k, c * np.exp(-1j * k * self.shift)

    def sine_coeffs(self, values: np.ndarray, n_max: int | None = None) -> np.ndarray:
        """Coefficients g_n of sum_n g_n * i(w^n - conj(w)^n), n = 1..n_max."""
        n_max = self.size // 2 - 1 if n_max is None else n_max
        if n_max > self.size // 2 - 1:
            raise ValueError("requested modes beyond the grid resolution")
        _, c = self.mode_coeffs(values)
        return c[..., 1:n_max + 1].imag.copy()

    def cosine_residue(self, values: np.ndarray) -> float:
        """Largest even-part coefficient; vanishes for pure sine fields."""
        c = self.mode_coeffs(values)[1]
        half = self.size // 2
        return float(max(np.max(np.abs(c[:half].real)), abs(c[0])))


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
    def identity(cls, n: int = 0) -> "FourierBoundary":
        return cls(np.zeros(n + 1))

    @classmethod
    def ellipse(cls, q: float) -> "FourierBoundary":
        """Map w + q * conj(w); q = (a-b)/(a+b) for semi-axes a >= b."""
        return cls(np.array([0.0, q]))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1



def _check_alias(bnd: FourierBoundary, grid: UnitGrid) -> None:
    if grid.size < 2 * (bnd.order + 1):
        warnings.warn(
            f"grid of size {grid.size} under-resolves {bnd.order + 1} coefficients",
            AliasingWarning, stacklevel=3)


def _conj_power_series(coeffs: np.ndarray, grid: UnitGrid) -> np.ndarray:
    """sum_n c_n conj(w_j)^n on the grid as one FFT of c_n e^(-i n shift).

    conj(w_j)^n = e^(-i n shift) e^(-2 pi i n j / size), so orders n >= size
    fold onto n mod size.
    """
    c = coeffs * np.exp(-1j * grid.shift * np.arange(len(coeffs)))
    folded = np.zeros(-(-len(c) // grid.size) * grid.size, dtype=complex)
    folded[:len(c)] = c
    return np.fft.fft(folded.reshape(-1, grid.size).sum(axis=0))


def eval_map(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """phi(w_j) on the grid: lead w_j + fft(b_n e^(-i n shift))_j."""
    _check_alias(bnd, grid)
    return bnd.lead * grid.nodes + _conj_power_series(bnd.coeffs, grid)


def eval_deriv(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """phi'(w_j) on the grid: lead - conj(w_j) fft(n b_n e^(-i n shift))_j."""
    _check_alias(bnd, grid)
    series = _conj_power_series(np.arange(bnd.order + 1) * bnd.coeffs, grid)
    return bnd.lead - np.conj(grid.nodes) * series


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

    @property
    def n_modes(self) -> int:
        return len(self.reduced)


def embed_mfold(red: MFoldBoundary, n: int | None = None) -> FourierBoundary:
    """Full coefficient vector with b_{km-1} = reduced[k-1], zeros elsewhere."""
    need = red.m * red.n_modes - 1
    n = need if n is None else n
    if n < need:
        raise ValueError(f"truncation N = {n} cannot hold mode {need}")
    coeffs = np.zeros(n + 1)
    for k in range(red.n_modes):
        coeffs[(k + 1) * red.m - 1] = red.reduced[k]
    return FourierBoundary(coeffs)

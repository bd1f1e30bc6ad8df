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

import json
import warnings
from dataclasses import dataclass, field

import numpy as np


class AliasingWarning(UserWarning):
    """Grid too small for the boundary's coefficient count."""


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

    @property
    def is_offset(self) -> bool:
        return self.shift != 0.0

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size + self.shift

    @property
    def nodes(self) -> np.ndarray:
        return np.exp(1j * self.angles)

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
        k, c = self.mode_coeffs(values)
        half = self.size // 2
        return float(max(np.max(np.abs(c[:half].real)), abs(c[0])))


def default_grid(n_coeffs: int, factor: int = 16) -> UnitGrid:
    """Over-resolved grid for a boundary with n_coeffs coefficients."""
    size = max(factor * n_coeffs, 64)
    if size % 2:
        size += 1
    return UnitGrid(size)


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
    def ellipse(cls, q: float, n: int = 1) -> "FourierBoundary":
        """Map w + q * conj(w); q = (a-b)/(a+b) for semi-axes a >= b."""
        c = np.zeros(max(n, 1) + 1)
        c[1] = q
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def to_json_dict(self) -> dict:
        d = {"alpha_independent": True, "N": self.order,
             "coeffs": [float(c) for c in self.coeffs]}
        if self.lead != 1.0:
            d["lead"] = float(self.lead)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FourierBoundary":
        coeffs = np.asarray(d["coeffs"], dtype=float)
        if len(coeffs) != d["N"] + 1:
            raise ValueError("coefficient count does not match N")
        return cls(coeffs, lead=float(d.get("lead", 1.0)))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "FourierBoundary":
        return cls.from_json_dict(json.loads(text))


def _check_alias(bnd: FourierBoundary, grid: UnitGrid) -> None:
    if grid.size < 2 * (bnd.order + 1):
        warnings.warn(
            f"grid of size {grid.size} under-resolves {bnd.order + 1} coefficients",
            AliasingWarning, stacklevel=3)


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


def eval_map(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """phi(w_j) on the grid."""
    _check_alias(bnd, grid)
    return eval_map_at(bnd, grid.nodes)


def eval_deriv(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """phi'(w_j) on the grid."""
    _check_alias(bnd, grid)
    return eval_deriv_at(bnd, grid.nodes)


def conj_deriv(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """Derivative of conj(phi) via the real-coefficient identity.

    For maps with real coefficients, d/dw of conj(phi) equals
    -conj(phi'(w)) / w^2 on the circle.
    """
    w = grid.nodes
    return -np.conj(eval_deriv(bnd, grid)) / (w * w)


def univalence_margin(bnd: FourierBoundary, n_check: int = 4096) -> float:
    """min |phi'| over a fine grid; must stay positive for an embedded curve."""
    g = UnitGrid(n_check)
    return float(np.min(np.abs(eval_deriv(bnd, g))))


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


def project_mfold(bnd: FourierBoundary, m: int,
                  strict: bool = False) -> tuple[MFoldBoundary, float]:
    """Keep the m-fold coefficient ladder; returns the discarded off-symmetry
    energy (sup norm) alongside.  Raises if strict and that energy > 1e-12."""
    n = bnd.order
    keep = np.arange(m - 1, n + 1, m)
    mask = np.zeros(n + 1, dtype=bool)
    mask[keep] = True
    discarded = float(np.max(np.abs(bnd.coeffs[~mask]))) if (~mask).any() else 0.0
    if strict and discarded > 1e-12:
        raise ValueError(f"boundary is not {m}-fold: off-symmetry energy {discarded:.3e}")
    return MFoldBoundary(m=m, reduced=bnd.coeffs[keep].copy()), discarded


def coeffs_from_values(values: np.ndarray, grid: UnitGrid, n: int) -> np.ndarray:
    """Recover (b_0 .. b_n) from samples of phi on the grid.

    Inverse of eval_map for lead = 1: the conj(w)^n coefficients sit at
    negative frequencies of phi(w) - w.
    """
    k, c = grid.mode_coeffs(values - grid.nodes)
    out = np.zeros(n + 1)
    out[0] = c[0].real
    for j in range(1, n + 1):
        out[j] = c[-j].real
    return out

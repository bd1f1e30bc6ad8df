"""Closed-form constants and the dispersion relation of the rotating-patch problem.

Every rising-factorial ratio (a)_p / (b)_p in the package is a rung of the
one ratio ladder defined here, and every odd-harmonic sum
sigma_p = sum_{k<p} 1/(2k+1) a rung of the odd-harmonic ladder.  One minus a
ratio is the gap ladder (b - a) L_p(a, b), a sum of positive terms that
keeps its digits however close a is to b and is a harmonic-type sum at
a = b: the dispersion relation and the product-quadrature weights of every
alpha in [0, 1] are gap ladders, with no endpoint branch.  The gamma
function is math.gamma with its poles typed.  On top of them sit the kernel
normalization constant, the angular velocities ``omega_m`` at which m-fold
patch branches bifurcate from the disc, and their large-m asymptotics.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


class GammaOverflowError(GammaPoleError):
    """Gamma too large for a float: x beyond ~171.6 or next to a pole."""


def gamma_fn(x: float) -> float:
    """Gamma function for real x: math.gamma with its failures typed.

    Raises GammaPoleError at the poles 0, -1, -2, ..., where math.gamma
    raises a bare ValueError, and GammaOverflowError where it raises a bare
    OverflowError.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise GammaPoleError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise GammaOverflowError(f"gamma overflows at x={x!r}") from None


def _ratio_ladder(a: float, b: float, n: int) -> np.ndarray:
    """(a)_p / (b)_p for p = 0..n, factor by factor, so the rungs stay finite
    for n in the thousands, where the rising factorials would overflow.

    A factor (a+k)/(b+k) = 1 + x with x = (a-b)/(b+k) >= -1/2 enters as
    log1p(x) in a cumulative sum, which keeps its digits as a -> b, where
    every factor tends to 1.  A factor with x < -1/2 enters as the quotient
    in a cumulative product: log1p loses digits as x -> -1 (the first factor
    (a/2)/(1 - a/2) of the power moments as a -> 0).
    """
    if n < 0:
        raise ValueError("a ladder needs n >= 0")
    k = np.arange(n, dtype=float)
    x = (a - b) / (b + k)
    direct = x < -0.5
    out = np.ones(n + 1)
    np.cumprod(np.where(direct, (a + k) / (b + k), 1.0), out=out[1:])
    out[1:] *= np.exp(np.cumsum(np.log1p(np.where(direct, 0.0, x))))
    return out


def odd_harmonic_ladder(n: int) -> np.ndarray:
    """sigma_p = sum_{k<p} 1/(2k+1) for p = 0..n: L_p(1/2, 1/2) / 2."""
    return 0.5 * gap_ladder(0.5, 0.5, n)


def gap_ladder(a: float, b: float, n: int) -> np.ndarray:
    """L_p(a, b) = sum_{j<p} [(a)_j / (b)_j] / (b + j) for p = 0..n.

    Equals (1 - (a)_p / (b)_p) / (b - a) for a != b and tends to
    sum_{j<p} 1/(b + j) as a -> b.  For positive a and b every term is
    positive, so nothing cancels on either side of a = b.
    """
    out = np.zeros(n + 1)
    np.cumsum(_ratio_ladder(a, b, n)[:-1] / (b + np.arange(n, dtype=float)), out=out[1:])
    return out


def _dispersion_scale(alpha: float) -> float:
    """theta_alpha (1 - alpha), finite on [0, 1]: 1/2 at alpha = 0 and 1/pi at alpha = 1.

    2^alpha gamma(1+alpha/2) gamma(2-alpha) / ((2-alpha) gamma^3(1-alpha/2)).
    """
    num = 2.0 ** alpha * gamma_fn(1.0 + alpha / 2.0) * gamma_fn(2.0 - alpha)
    return num / ((2.0 - alpha) * gamma_fn(1.0 - alpha / 2.0) ** 3)


def conv_constant(alpha: float) -> float:
    """Normalization constant of the fractional-inverse-Laplacian kernel.

    Equals gamma(alpha/2) / (2^(1-alpha) gamma(1 - alpha/2)); diverges like
    2/alpha as alpha -> 0 and equals 1 at alpha = 1.
    """
    if alpha <= 0.0:
        raise ValueError("conv_constant needs alpha > 0")
    return gamma_fn(alpha / 2.0) / (2.0 ** (1.0 - alpha) * gamma_fn(1.0 - alpha / 2.0))


def theta_alpha(alpha: float) -> float:
    """Supremum of the dispersion set: all omega_m lie below this value.

    2^alpha gamma(1+alpha/2) gamma(1-alpha) / ((2-alpha) gamma^3(1-alpha/2)),
    defined for alpha in (0, 1); tends to 1/2 as alpha -> 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("theta_alpha needs alpha in (0, 1)")
    return _dispersion_scale(alpha) / (1.0 - alpha)


def omega_sqg(m: int) -> float:
    """Critical-case (alpha = 1) angular velocity: (2/pi) sum_{k=1}^{m-1} 1/(2k+1)."""
    if m < 1:
        raise ValueError("omega_sqg needs m >= 1")
    return (2.0 / math.pi) * (float(odd_harmonic_ladder(m)[m]) - 1.0)


def _check_dispersion_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:     # NaN fails too
        raise ValueError("the dispersion relation needs alpha in [0, 1]")


def _omega_ladder(alpha: float, m_max: int) -> np.ndarray:
    """omega_m for m = 2..m_max from one ladder pass:
    theta_alpha (1 - alpha) L_(m-1)(1 + alpha/2, 2 - alpha/2)."""
    _check_dispersion_alpha(alpha)
    ladder = gap_ladder(1.0 + alpha / 2.0, 2.0 - alpha / 2.0, m_max - 1)
    return _dispersion_scale(alpha) * ladder[1:]


def omega_dispersion(alpha: float, m: int, form: str = "pochhammer") -> float:
    """Angular velocity omega_m at which the m-fold branch leaves the disc.

    * ``form="pochhammer"`` (default): theta_alpha (1 - alpha) times the gap
      ladder L_{m-1}(1 + alpha/2, 2 - alpha/2), one expression on [0, 1]
      that is (m-1)/(2m) at alpha = 0 and the odd harmonic sum at alpha = 1.
    * ``form="gamma"``: the direct gamma-function expression, and the closed
      forms at the endpoints; raises GammaOverflowError for m beyond ~170 and
      is kept as an independent cross-check.
    """
    _check_dispersion_alpha(alpha)
    if m < 2:
        raise ValueError("omega_dispersion needs mode m >= 2")
    if form == "pochhammer":
        return float(_omega_ladder(alpha, m)[-1])
    if form != "gamma":
        raise ValueError(f"unknown form {form!r}")
    if alpha == 0.0:
        return (m - 1.0) / (2.0 * m)
    if alpha == 1.0:
        return omega_sqg(m)
    pref = gamma_fn(1.0 - alpha) / (2.0 ** (1.0 - alpha) * gamma_fn(1.0 - alpha / 2.0) ** 2)
    head = gamma_fn(1.0 + alpha / 2.0) / gamma_fn(2.0 - alpha / 2.0)
    tail = gamma_fn(m + alpha / 2.0) / gamma_fn(m + 1.0 - alpha / 2.0)
    return pref * (head - tail)


def omega_asymptotic(alpha: float, n: int) -> float:
    """Large-mode approximation of omega_n for alpha in (0, 1).

    theta - theta gamma(2 - alpha/2) / (gamma(1 + alpha/2) n^(1-alpha)), the
    leading term of the gamma-ratio tail of omega_dispersion; the defect
    against omega_dispersion decays at least like n^(alpha-2).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("omega_asymptotic needs alpha in (0, 1)")
    if n < 2:
        raise ValueError("omega_asymptotic needs n >= 2")
    th = theta_alpha(alpha)
    amp = th * gamma_fn(2.0 - alpha / 2.0) / gamma_fn(1.0 + alpha / 2.0)
    return th - amp / n ** (1.0 - alpha)


@dataclass(frozen=True)
class DispersionTable:
    """Mode-indexed angular velocities omega_m for one fixed alpha."""

    alpha: float
    values: dict[int, float] = field(default_factory=dict)

    @classmethod
    def build(cls, alpha: float, m_max: int) -> "DispersionTable":
        """Tabulate omega_m for m = 2..m_max from one ladder pass."""
        if m_max < 2:
            raise ValueError("m_max must be >= 2")
        vals = _omega_ladder(alpha, m_max)
        return cls(alpha=alpha, values=dict(zip(range(2, m_max + 1), vals.tolist())))

"""Adaptive-quadrature references for the closed-form circle moments.

Each function integrates the *defining* contour integral directly with
QUADPACK, so these values share no code path with the rising-factorial
closed forms they are compared against.  Against a 30-digit mpmath
reference (n <= 16) they are within 1e-12 relative for alpha in [0.05, 0.99]
and 6e-12 at 0.999, where QUADPACK's extrapolation toward the singular
endpoint meets rounding and says so with an IntegrationWarning.
"""

from __future__ import annotations

import cmath
import math

from scipy.integrate import quad

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=400)


def _mean_integral(fn) -> float:
    """(1/2pi) * integral over (0, 2pi) of a complex integrand, as (1/pi) * (0, pi).

    Every moment is real and t -> 2pi - t conjugates tau, so the real part is
    even about pi; the half period folds the singular endpoint 2pi onto 0.
    """
    re, _ = quad(lambda t: fn(t).real, 0.0, math.pi, **_QUAD_OPTS)
    return re / math.pi


def moment_I_quad(alpha: float, n: int) -> float:
    """Contour mean of tau^n / |tau - 1|^alpha."""
    def f(t):
        return cmath.exp(1j * (n + 1) * t) / abs(2.0 * math.sin(t / 2.0)) ** alpha
    return _mean_integral(f)


def moment_J_quad(alpha: float, n: int) -> float:
    """Contour mean of (1 - tau)(1 - tau^n) / |1 - tau|^(alpha + 2)."""
    def f(t):
        z = cmath.exp(1j * t)
        return (1.0 - z) * (1.0 - z ** n) * z / abs(2.0 * math.sin(t / 2.0)) ** (alpha + 2.0)
    return _mean_integral(f)


def moment_Z_quad(alpha: float, n: int) -> float:
    """Contour mean of (1 - conj(tau))(1 - conj(tau)^n) / |1 - tau|^(alpha + 2)."""
    def f(t):
        zc = cmath.exp(-1j * t)
        return (1.0 - zc) * (1.0 - zc ** n) * cmath.exp(1j * t) \
            / abs(2.0 * math.sin(t / 2.0)) ** (alpha + 2.0)
    return _mean_integral(f)


def sqg_moment_1_quad(n: int) -> float:
    """Contour mean of (tau^n - 1) / (|1 - tau| tau)."""
    def f(t):
        return (cmath.exp(1j * n * t) - 1.0) / abs(2.0 * math.sin(t / 2.0))
    return _mean_integral(f)


def sqg_moment_2_quad(n: int) -> float:
    """Contour mean of (tau - 1)^2 (tau^n - 1) / (|1 - tau|^3 tau)."""
    def f(t):
        z = cmath.exp(1j * t)
        return (z - 1.0) ** 2 * (z ** n - 1.0) / abs(2.0 * math.sin(t / 2.0)) ** 3
    return _mean_integral(f)

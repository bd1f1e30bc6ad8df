"""Adaptive-quadrature references for the closed-form circle moments.

Each function integrates the *defining* contour integral directly with
QUADPACK, so these values share no code path with the rising-factorial
closed forms they are compared against.  Accuracy is limited by the
endpoint singularity handling of the adaptive rule; 1e-10 absolute is
typical, comfortably below the 1e-8 comparison tolerance.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=400)


def _mean_integral(fn) -> float:
    """(1/2pi) * integral over (0, 2pi) of the real part of a complex integrand.

    Every moment is real: the imaginary part is odd about pi and integrates
    to zero, so it is not integrated.
    """
    with warnings.catch_warnings():
        # the endpoint singularity makes QUADPACK report its (accurate)
        # result as below the requested tolerance; that is expected here
        warnings.simplefilter("ignore", IntegrationWarning)
        re, _ = quad(lambda t: fn(t).real, 0.0, 2.0 * np.pi,
                     points=[np.pi], **_QUAD_OPTS)
    return re / (2.0 * np.pi)


def moment_I_quad(alpha: float, n: int) -> float:
    """Contour mean of tau^n / |tau - 1|^alpha."""
    def f(t):
        return np.exp(1j * (n + 1) * t) / np.abs(2.0 * np.sin(t / 2.0)) ** alpha
    return _mean_integral(f)


def moment_J_quad(alpha: float, n: int) -> float:
    """Contour mean of (1 - tau)(1 - tau^n) / |1 - tau|^(alpha + 2)."""
    def f(t):
        z = np.exp(1j * t)
        return (1.0 - z) * (1.0 - z ** n) * z / np.abs(2.0 * np.sin(t / 2.0)) ** (alpha + 2.0)
    return _mean_integral(f)


def moment_Z_quad(alpha: float, n: int) -> float:
    """Contour mean of (1 - conj(tau))(1 - conj(tau)^n) / |1 - tau|^(alpha + 2)."""
    def f(t):
        zc = np.exp(-1j * t)
        return (1.0 - zc) * (1.0 - zc ** n) * np.exp(1j * t) \
            / np.abs(2.0 * np.sin(t / 2.0)) ** (alpha + 2.0)
    return _mean_integral(f)


def sqg_moment_1_quad(n: int) -> float:
    """Contour mean of (tau^n - 1) / (|1 - tau| tau)."""
    def f(t):
        return (np.exp(1j * n * t) - 1.0) / np.abs(2.0 * np.sin(t / 2.0))
    return _mean_integral(f)


def sqg_moment_2_quad(n: int) -> float:
    """Contour mean of (tau - 1)^2 (tau^n - 1) / (|1 - tau|^3 tau)."""
    def f(t):
        z = np.exp(1j * t)
        return (z - 1.0) ** 2 * (z ** n - 1.0) / np.abs(2.0 * np.sin(t / 2.0)) ** 3
    return _mean_integral(f)

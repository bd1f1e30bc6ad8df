"""Gauss–Jacobi references for the closed-form circle moments.

Each function evaluates the *defining* contour integral directly, so these
values share no code path with the rising-factorial closed forms they are
compared against.  The only singularity of the I, J and Z integrands is the
algebraic endpoint factor t^(-alpha) at t = 0.  A Gauss–Jacobi rule carries
that factor exactly in its weights, and its nodes come from one symmetric
tridiagonal eigenproblem (Golub & Welsch, Math. Comp. 1969).  The bounded
critical integrands use the same rule at alpha = 0, which is Gauss–Legendre.
Each integrand is evaluated once, on the rule's node vector.

With at least 32 + 3n/2 nodes for order n, against a 30-digit mpmath
reference (n <= 16) the values are within 3e-14 relative for alpha in
[0.3, 0.999], 5e-13 at alpha = 0.05 and 2e-12 at 0.01.  The integrands
sum O(1) terms to I_n ~ alpha / (2(n + 1)), so the relative error grows
like 4e-14 / alpha at small alpha (4e-10 at alpha = 1e-4, 3e-8 at 1e-6,
for n <= 16).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _node_count(n: int) -> int:
    """Rule size for order n: at least 32 + 3n/2 nodes, since the integrands
    oscillate like exp(i n t), rounded up to a power of two so that one rule
    per alpha serves many orders (two for every n <= 16)."""
    size = 32
    while size < 32 + 3 * n // 2:
        size *= 2
    return size


@lru_cache(maxsize=64)
def _rule(alpha: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t on (0, pi) and weights w with w @ f(t) = (1/pi) * integral
    over (0, pi) of f, exact for f = t^(-alpha) * (polynomial of degree < 2 size).

    Golub–Welsch: the eigenvalues x of the Jacobi matrix of P^(0, -alpha)
    are the nodes on (-1, 1) for the weight (1 + x)^(-alpha), and the squared
    first eigenvector components carry the weights.  On u = (1 + x)/2 = t/pi
    that weight is u^(-alpha), of mass 1/(1 - alpha); the weights here also
    hold u^alpha, so they apply to f itself.
    """
    b = -alpha
    k = np.arange(1, size)
    s = 2.0 * k + b
    # the k = 0 entry b^2 / (b (b + 2)) is written b / (b + 2), which is 0,
    # not 0/0, at alpha = 0
    diag = np.concatenate([[b / (b + 2.0)], b * b / (s * (s + 2.0))])
    off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    u = (1.0 + x) / 2.0
    nodes = np.pi * u
    weights = vecs[0] ** 2 * u ** alpha / (1.0 - alpha)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _mean_integral(fn, alpha: float, n: int) -> float:
    """(1/2pi) * integral over (0, 2pi) of a complex integrand, as (1/pi) * (0, pi).

    Every moment is real and t -> 2pi - t conjugates tau, so the real part is
    even about pi; the half period folds the singular endpoint 2pi onto 0.
    fn is called once, on the node vector of the order-n rule for t^(-alpha).
    """
    t, w = _rule(alpha, _node_count(n))
    return float(w @ fn(t).real)


def moment_I_quad(alpha: float, n: int) -> float:
    """Contour mean of tau^n / |tau - 1|^alpha."""
    def f(t):
        return np.exp(1j * (n + 1) * t) / np.abs(2.0 * np.sin(t / 2.0)) ** alpha
    return _mean_integral(f, alpha, n)


def moment_J_quad(alpha: float, n: int) -> float:
    """Contour mean of (1 - tau)(1 - tau^n) / |1 - tau|^(alpha + 2)."""
    def f(t):
        z = np.exp(1j * t)
        return (1.0 - z) * (1.0 - z ** n) * z / np.abs(2.0 * np.sin(t / 2.0)) ** (alpha + 2.0)
    return _mean_integral(f, alpha, n)


def moment_Z_quad(alpha: float, n: int) -> float:
    """Contour mean of (1 - conj(tau))(1 - conj(tau)^n) / |1 - tau|^(alpha + 2)."""
    def f(t):
        zc = np.exp(-1j * t)
        return (1.0 - zc) * (1.0 - zc ** n) * np.exp(1j * t) \
            / np.abs(2.0 * np.sin(t / 2.0)) ** (alpha + 2.0)
    return _mean_integral(f, alpha, n)


def sqg_moment_1_quad(n: int) -> float:
    """Contour mean of (tau^n - 1) / (|1 - tau| tau)."""
    def f(t):
        return (np.exp(1j * n * t) - 1.0) / np.abs(2.0 * np.sin(t / 2.0))
    return _mean_integral(f, 0.0, n)


def sqg_moment_2_quad(n: int) -> float:
    """Contour mean of (tau - 1)^2 (tau^n - 1) / (|1 - tau|^3 tau)."""
    def f(t):
        z = np.exp(1j * t)
        return (z - 1.0) ** 2 * (z ** n - 1.0) / np.abs(2.0 * np.sin(t / 2.0)) ** 3
    return _mean_integral(f, 0.0, n)

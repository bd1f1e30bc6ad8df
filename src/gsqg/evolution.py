"""Contour dynamics for patch boundaries.

The boundary velocity is the power-law layer integral of the tangent
vector.  Discretization is deliberately independent of the spectral
machinery used by the solver: the trapezoid rule over every node but the
target, plus two local zeta-function terms at the target node that account
for the integrable singularity |s - sigma|^(-alpha) (Navot's generalized
Euler-Maclaurin formula), which makes the rule converge like h^(5-alpha).

Nodes move with the normal velocity plus a tangential velocity that keeps
the arclength spacing equal (after Hou, Lowengrub & Shelley, JCP 1994).
Only the normal velocity moves the curve, and on a rotating patch it is far
smaller than the node speed, so the step comes from stability instead.  The
stiff part of the motion, its linearization about the equal-area disc,
turns each boundary mode k at the rate k Omega_k R^(-alpha) of the
dispersion relation; `step_normal` integrates that part exactly
(integrating-factor RK4) and leaves RK4 only the rest.  The velocity filter
keeps the modes up to k_c = N/3 of N nodes (the 2/3 rule), and the step is
sized for mode k_c, the fastest one the stages still carry.

States are immutable snapshots; stepping returns new states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

# the scipy functions are imported inside the one function that calls each,
# so that `import gsqg` and the commands that never step a contour load none

from .geometry import FourierBoundary, UnitGrid, _read_only, eval_map
from .specfun import _omega_ladder, conv_constant, omega_dispersion

_WINDOW = 3  # neighbours on each side of a node that the near-approach guard ignores
_TILE = 128  # rows per pair-kernel strip; 64 ties at 512 nodes, 256 is ~10% slower
# normal-velocity filter exp(-_FILTER_DECAY (|k|/k_c)^_FILTER_ORDER) with the
# cutoff k_c of `_filter_cutoff` (Hou & Li, JCP 2007): the decay takes mode
# k_c to e^-36 ~ 2e-16, machine precision; the order keeps every mode below
# 0.8 k_c within 1.2% of 1, so only the top fifth of the kept band is damped
_FILTER_DECAY = 36.0
_FILTER_ORDER = 36
# fraction of the RK4 stability reach (2 sqrt 2 on the imaginary axis) used
# by `stability_step`: the disc-mode estimate of the top frequency ignores the
# shape and the quadrature, so the step keeps a 20% margin
_STABILITY_SAFETY = 0.8
# `stability_step` grows that step by _TILT_REACH / max|sin theta|, between 1
# and _TILT_CAP.  Over alpha 0.35, 0.97, m 2-4, s 0.03-0.1 at 256 and 512
# nodes the first unstable step came at 0.38-0.85 / max|sin theta| times the
# plain RK4 step, 2.0-4.5 times the rule's, at alpha = 0.97 only: at
# alpha = 0.35 nothing but the quarter-spacing guard failed; both constants
# keep 1.5x from the first unstable step
_TILT_REACH = 0.19
_TILT_CAP = 8.0
# share of the quarter-spacing bound taken by `normal_step_bounds`, so that
# the first step clears the guard `step_normal` re-checks on the node velocity
_GUARD_MARGIN = 0.95
# relative slack in the step count of a horizon: far above the rounding of
# t_final / dt, far below one step in any run
_STEP_SLACK = 1e-9
# fine-grid factor and Newton steps of `redistribute` and `hausdorff_distance`
_FINE = 16
_NEWTON_STEPS = 3
_GAUSS = 0.5 + np.array([[-0.5], [0.5]]) / math.sqrt(3.0)  # two-point Gauss nodes on [0, 1]


class ContourError(RuntimeError):
    """Self-intersection or step-size violation during evolution."""


@dataclass(frozen=True)
class ContourState:
    """Closed boundary as nodes z_j at sigma_j = 2 pi j / N, positively oriented."""

    nodes: np.ndarray
    time: float
    alpha: float

    def __post_init__(self):
        arr = np.asarray(self.nodes, dtype=complex)
        if not (np.all(np.isfinite(arr)) and np.isfinite(self.time)):
            raise ValueError("contour nodes and time must be finite")
        object.__setattr__(self, "nodes", arr)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("contour dynamics covers alpha in (0, 1]")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """FFT of the nodes, formed once per state."""
        return fft(self.nodes)

    @cached_property
    def derivatives(self) -> np.ndarray:
        """d^k(gamma)/d(sigma)^k at the nodes for k = 1, 2, 3, rows of one
        stacked inverse transform by spectral differentiation."""
        return ifft(_tables(self.size).derivative[1:] * self.spectrum)

    @property
    def tangent(self) -> np.ndarray:
        """d(gamma)/d(sigma) at the nodes."""
        return self.derivatives[0]

    @classmethod
    def from_spectrum(cls, spectrum: np.ndarray, time: float,
                      alpha: float) -> "ContourState":
        """The state whose nodes have the FFT `spectrum`.  The nodes and
        their derivatives come from one stacked inverse transform and fill
        the caches."""
        rows = ifft(_tables(len(spectrum)).derivative * spectrum)
        state = cls(nodes=rows[0], time=time, alpha=alpha)
        state.__dict__.update(spectrum=spectrum, derivatives=rows[1:])
        return state

    @classmethod
    def from_boundary(cls, bnd: FourierBoundary, n_nodes: int,
                      alpha: float) -> "ContourState":
        return cls(nodes=eval_map(bnd, UnitGrid(n_nodes)), time=0.0, alpha=alpha)

    @classmethod
    def disc(cls, n_nodes: int, alpha: float) -> "ContourState":
        return cls(nodes=UnitGrid(n_nodes).nodes.copy(), time=0.0, alpha=alpha)


def _filter_cutoff(m: int) -> int:
    """k_c = m // 3 for m nodes, the top mode the 2/3 rule keeps (Orszag,
    J. Atmos. Sci. 1971): the cutoff of the velocity filter and the mode
    whose rate sets `stability_step`."""
    return m // 3


class _Tables(NamedTuple):
    """The spectral tables of m nodes, indexed like the FFT of z (`_tables`).

    FFT index j of z holds mode j - 1 of w = z e^(-i sigma).  For even m
    the Nyquist index m/2 holds an unmatched mode (odd m has none): the
    wavenumbers, and so the derivative and antiderivative factors and the
    share, zero it.  The filter reads the raw wavenumbers instead, so that
    w's Nyquist mode, at index m/2 + 1, is filtered to 0.
    """

    wavenumbers: np.ndarray     # integer k, 0 at an even m's Nyquist index
    derivative: np.ndarray      # rows 1, ik, -k^2, -ik^3: gamma and its first three derivatives
    antiderivative: np.ndarray  # 1/(ik) on the rfft modes, 0 at k = 0: zero-mean antiderivative
    filter: np.ndarray          # the velocity filter in the basis of w = z e^(-i sigma)
    mirror: np.ndarray          # index of mode -k of w
    share: np.ndarray           # (1 - 1/k) / 2 for mode k of w (see `_DiscFlow`)


@lru_cache(maxsize=16)
def _tables(m: int) -> _Tables:
    """The tables of m nodes, formed once and read-only."""
    raw = np.fft.fftfreq(m, d=1.0 / m)
    k = raw.copy()
    if m % 2 == 0:
        k[m // 2] = 0.0
    half = k[:m // 2 + 1]
    w_k = np.roll(k, 1)
    tables = _Tables(
        wavenumbers=k,
        derivative=np.stack([np.ones(m), 1j * k, -k ** 2, -1j * k ** 3]),
        antiderivative=np.divide(1.0, 1j * half, out=np.zeros(len(half), dtype=complex),
                                 where=half != 0),
        filter=np.exp(-_FILTER_DECAY * (np.abs(np.roll(raw, 1)) / _filter_cutoff(m))
                      ** _FILTER_ORDER),
        mirror=(2 - np.arange(m)) % m,
        share=0.5 - 0.5 / np.where(w_k == 0, 1.0, w_k))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _mean_spacing(z: np.ndarray) -> float:
    return (float(np.sum(np.abs(np.diff(z)))) + abs(z[0] - z[-1])) / len(z)


def _guard_step(z: np.ndarray, velocity: np.ndarray) -> float:
    """The quarter-spacing bound: the step at which the fastest node moves a
    quarter of the mean spacing (inf for a field at rest)."""
    top = float(np.max(np.abs(velocity)))
    return _mean_spacing(z) / (4.0 * top) if top > 0.0 else math.inf


@lru_cache(maxsize=32)
def _zeta_pair(alpha: float) -> tuple[float, float]:
    """(zeta(alpha), zeta(alpha - 2)), the weights of the node corrections
    of `velocity_contour`; zeta(1) is its pole, inf."""
    from scipy.special import zeta
    return float(zeta(alpha)), float(zeta(alpha - 2.0))


def _pair_kernel_products(z: np.ndarray, alpha: float, vec: np.ndarray) -> np.ndarray:
    """K @ vec for the pair kernel K[i, j] = |z_i - z_j|^(-alpha), K[i, i] = 0.

    K is symmetric, so it is built in strips of _TILE rows i0:i1 against
    the columns j >= i0: one cdist of squared distances, then d^(-alpha) as
    exp(-alpha/2 * log d^2) in place.  Each strip serves its own rows and,
    transposed, the rows below it; the working set is one strip buffer.
    Raises ContourError if non-adjacent nodes (more than _WINDOW apart) are
    closer than a quarter of the mean node spacing.  The neighbours can
    only lower a strip's plain minimum, so the minimum without them is taken
    only when the plain one falls below that floor.
    """
    from scipy.spatial.distance import cdist
    m = len(z)
    pts = np.column_stack([z.real, z.imag])
    floor_sq = (_mean_spacing(z) / 4.0) ** 2
    out = np.zeros((m, vec.shape[1]))
    buf = np.empty(min(_TILE, m) * m)
    for i0 in range(0, m, _TILE):
        i1 = min(i0 + _TILE, m)
        size = (i1 - i0) * (m - i0)
        d2 = buf[:size].reshape(i1 - i0, m - i0)
        cdist(pts[i0:i1], pts[i0:], "sqeuclidean", out=d2)
        np.fill_diagonal(d2, np.inf)
        nearest_sq = d2.min()
        if nearest_sq < floor_sq:
            # the cyclic gap j - i mod m: within _WINDOW either way is a neighbour
            gap = (np.arange(i0, m) - np.arange(i0, i1)[:, None]) % m
            nearest_sq = np.where((gap > _WINDOW) & (gap < m - _WINDOW), d2, np.inf).min()
            if nearest_sq < floor_sq:
                raise ContourError(
                    f"non-adjacent nodes at distance {math.sqrt(nearest_sq):.3e} "
                    f"< spacing/4 = {math.sqrt(floor_sq):.3e}")
        # d^(-alpha) = exp(-alpha/2 * log d^2) in place; the diagonal's inf gives 0
        np.log(d2, out=d2)
        d2 *= -0.5 * alpha
        kern = np.exp(d2, out=d2)
        out[i0:i1] += kern @ vec[i0:]
        out[i1:] += kern[:, i1 - i0:].T @ vec[i0:i1]
    return out


def _subtracted_layer(state: ContourState) -> tuple[np.ndarray, ...]:
    """(S, K 1, s(0), b) from one pass over the pair-kernel strips.

    At node i the tangentially subtracted layer integral is
    int |x|^(-alpha) f_i(x) dx over a period, with the smooth factor
    f_i(x) = (gamma'(sigma_i + x) - gamma'_i) s_i(x) and
    s_i(x) = (|gamma(sigma_i + x) - gamma_i| / |x|)^(-alpha).  The punctured
    trapezoid sum over the nodes j != i exceeds it by 2 zeta(alpha)
    h^(1-alpha) f_i(0) + zeta(alpha-2) h^(3-alpha) f_i''(0) + O(h^(5-alpha))
    (Navot's generalized Euler-Maclaurin formula; a periodic f leaves no end
    terms, Sidi & Israeli 1988), and both terms are closed-form in the first
    three sigma-derivatives of gamma at the node.  f_i(0) is zero, so S, the
    sum less the zeta(alpha-2) term, is finite on (0, 1].  K 1 holds the row
    sums of K[i, j] = |gamma_j - gamma_i|^(-alpha), and s(0) and b are the
    node expansion's terms below.  Raises ContourError if non-adjacent nodes
    approach within a quarter of the node spacing.
    """
    alpha = state.alpha
    m = state.size
    h = 2.0 * np.pi / m
    gp, gpp, gppp = state.derivatives

    # one pass over the pair-kernel strips gives the convolution with gamma'
    # and the row sum
    vec = np.column_stack([gp.real, gp.imag, np.ones(m)])
    acc = _pair_kernel_products(state.nodes, alpha, vec)
    conv = acc[:, 0] + 1j * acc[:, 1]
    # |gamma(sigma_i + x) - gamma_i|^2 / x^2 = a (1 + b x + c x^2 + ...), so
    # s_i(x) = a^(-alpha/2) (1 + p1 x + p2 x^2 + ...) with p1 = -alpha b / 2,
    # and f_i''(0) / 2 = a^(-alpha/2) (gamma'''/2 + p1 gamma'')
    a = gp.real ** 2 + gp.imag ** 2
    b = (gp.real * gpp.real + gp.imag * gpp.imag) / a
    scale = a ** (-0.5 * alpha)
    half_bend = 0.5 * gppp - (0.5 * alpha) * b * gpp
    total = h * (conv - gp * acc[:, 2])
    total -= (2.0 * _zeta_pair(alpha)[1] * h ** (3.0 - alpha)) * scale * half_bend
    return total, acc[:, 2], scale, b


def velocity_contour(state: ContourState) -> np.ndarray:
    """Boundary velocity C_alpha/(2 pi) (S + R gamma') at every node.

    The layer integral of gamma' is S (`_subtracted_layer`) plus gamma'_i
    times R_i = int |x|^(-alpha) s_i(x) dx, taken by the same rule: the
    punctured sum h sum_(j != i) |gamma_j - gamma_i|^(-alpha) less
    2 zeta(alpha) h^(1-alpha) s_i(0) + zeta(alpha-2) h^(3-alpha) s_i''(0).
    R gamma' is tangential.  At alpha = 1, R diverges (zeta(1) is a pole)
    and the velocity is C_alpha/(2 pi) S, with the same normal part.
    Raises ContourError if non-adjacent nodes approach within a quarter of
    the node spacing.
    """
    alpha = state.alpha
    total, rows, scale, b = _subtracted_layer(state)
    if alpha < 1.0:
        h = 2.0 * np.pi / state.size
        gp, gpp, gppp = state.derivatives
        # s_i''(0) / 2 = a^(-alpha/2) p2, p2 = -alpha c / 2 + alpha (alpha + 2) b^2 / 8
        a = gp.real ** 2 + gp.imag ** 2
        c = (0.25 * (gpp.real ** 2 + gpp.imag ** 2)
             + (gp.real * gppp.real + gp.imag * gppp.imag) / 3.0) / a
        p2 = alpha * (alpha + 2.0) / 8.0 * b ** 2 - 0.5 * alpha * c
        zeta_0, zeta_2 = _zeta_pair(alpha)
        node = 2.0 * zeta_0 * h ** (1.0 - alpha) + 2.0 * zeta_2 * h ** (3.0 - alpha) * p2
        total += gp * (h * rows - node * scale)
    return conv_constant(alpha) / (2.0 * np.pi) * total


def _normal_speed(state: ContourState, tangent: np.ndarray) -> np.ndarray:
    """U_n = Re(u conj(n)) at the nodes, n = -i t for the unit tangent t.

    U_n comes from S alone: R gamma' of `velocity_contour` is tangential,
    and forming it would only add rounding that grows like 1/(1 - alpha).
    """
    total = _subtracted_layer(state)[0]
    return (conv_constant(state.alpha) / (2.0 * np.pi) * total * 1j * np.conj(tangent)).real


@lru_cache(maxsize=16)
def _turning_rates(alpha: float, m: int) -> np.ndarray:
    """The unit-radius turning rate k F_k Omega_|k|(alpha) of each mode k of
    w for m nodes (zero for |k| <= 1 and at the Nyquist mode of w); read-only."""
    tables = _tables(m)
    k = np.roll(tables.wavenumbers, 1)
    omega = np.concatenate([[0.0, 0.0], _omega_ladder(alpha, m // 2)])
    return _read_only(k * tables.filter * omega[np.abs(k).astype(int)])


@dataclass(frozen=True)
class _DiscFlow:
    """The normal-velocity motion linearized about the equal-area disc.

    In w = z e^(-i sigma_j), r = Re w is the normal and q = Im w the
    tangential displacement.  About a disc of radius R, mode k of r turns
    at lam_k = k c_k, c_k = F_k Omega_|k| R^(-alpha), and the equal-arclength
    tangential velocity follows it: r_k' = -i lam_k r_k, q_k' = c_k r_k.  So
    L w_k = -i lam_k (1 - 1/k) r_k, and the exact flow is
    E(t) w_k = w_k + (exp(-i lam_k t) - 1)(1 - 1/k) r_k,
    with r_k = (w_k + conj(w_-k)) / 2.  Translations (|k| = 1) and the mean
    are neutral.  F is even in k, so it filters r and q alike and
    commutes with E.  Both act on FFTs, rows of a stack alike.
    """

    tables: _Tables
    rate: np.ndarray

    @classmethod
    def about(cls, state: ContourState) -> "_DiscFlow":
        rate = _turning_rates(state.alpha, state.size)
        return cls(_tables(state.size), rate * (_area(state) / math.pi) ** (-0.5 * state.alpha))

    def _moving_part(self, spec: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """gain (1 - 1/k) r_k from the FFT of v."""
        return gain * self.tables.share * (spec + np.conj(spec[..., self.tables.mirror]))

    def turn(self, t: float):
        """E(t) as a map of FFTs; its phases are formed once."""
        gain = np.expm1(-1j * t * self.rate)
        return lambda spec: spec + self._moving_part(spec, gain)

    def linear(self, spec: np.ndarray) -> np.ndarray:
        """The FFT of L v from the FFT of v."""
        return self._moving_part(spec, -1j * self.rate)


def _normal_velocity_spectrum(state: ContourState) -> np.ndarray:
    """FFT of `normal_node_velocity`, the velocity `step_normal` takes."""
    zs = state.tangent
    speed = np.abs(zs)
    tangent = zs / speed
    un = _normal_speed(state, tangent)
    # kappa |z_sigma| = Im(conj(z_sigma) z_sigma_sigma) / |z_sigma|^2
    stretch = un * (np.conj(zs) * state.derivatives[1]).imag / speed ** 2
    # dT/dsigma = <stretch> - stretch; the antiderivative factors drop the mean
    tang = -irfft(rfft(stretch) * _tables(state.size).antiderivative, n=state.size)
    return fft((tang - 1j * un) * tangent) * _tables(state.size).filter


def normal_node_velocity(state: ContourState) -> np.ndarray:
    """Node velocity U_n n + T t of the equal-arclength formulation, filtered.

    U_n is the normal component of `velocity_contour` (`_normal_speed`); n
    is the outward normal and t the unit tangent.  T is the zero-mean
    solution of dT/dsigma = <kappa U_n |z_sigma|> - kappa U_n |z_sigma|,
    which makes d|z_sigma|/dt the same at every node, so equal spacing
    stays equal.
    The velocity passes through the fixed spectral filter
    exp(-36 (|k|/k_c)^36), k_c = N/3 (`_filter_cutoff`), in the basis of
    w = z e^(-i sigma), where mode k of w is mode k + 1 of z, so that it
    filters the normal and the tangential displacement alike (see
    `_DiscFlow`).
    """
    return ifft(_normal_velocity_spectrum(state))


def step_normal(state: ContourState, dt: float) -> ContourState:
    """One integrating-factor (Lawson) RK4 step with the nodes moving at
    `normal_node_velocity`.

    The stages run on the FFT of the nodes: the disc's linear part L
    (`_DiscFlow`) is integrated exactly by its flow E(t), the stages see
    only the rest, velocity - L z, and each stage state is built from its
    spectrum.  Enforces dt * max node speed < node spacing / 4 before
    committing the step.
    """
    flow = _DiscFlow.about(state)
    turn = flow.turn(0.5 * dt)

    def rest(spec, t):
        stage = ContourState.from_spectrum(spec, state.time + t, state.alpha)
        return _normal_velocity_spectrum(stage) - flow.linear(spec)

    k1 = _normal_velocity_spectrum(state)
    bound = _guard_step(state.nodes, ifft(k1))
    if dt >= bound:
        raise ContourError(f"dt = {dt:.3e} violates the quarter-spacing bound {bound:.3e}")
    # E is linear, so E(dt/2)(z + dt/2 k1) = E(dt/2) z + dt/2 E(dt/2) k1, and
    # E(dt) = E(dt/2) E(dt/2)
    half, k1 = turn(np.stack([state.spectrum, k1 - flow.linear(state.spectrum)]))
    k2 = rest(half + 0.5 * dt * k1, 0.5 * dt)
    k3 = rest(half + 0.5 * dt * k2, 0.5 * dt)
    k4 = rest(turn(half + dt * k3), dt)
    z1, k1, k2, k3 = turn(np.stack([half, k1, k2, k3]))
    return ContourState.from_spectrum(z1 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                                      state.time + dt, state.alpha)


def stability_step(state: ContourState) -> float:
    """Stability bound on the step of `step_normal`.

    On a disc of radius R mode k turns at the rate k Omega_k(alpha)
    R^(-alpha).  The velocity filter leaves no mode above k_c = N/3
    (`_filter_cutoff`) of N nodes, and plain RK4 keeps that top mode inside
    its reach 2 sqrt 2 on the imaginary axis with dt_0 = 0.8 * 2 sqrt 2
    N ds / (2 pi k_c Omega_{k_c} R^(1-alpha)), where ds is the mean node
    spacing (2 pi R / N on the disc) and R = sqrt(area / pi).  The
    integrating factor turns the disc's modes exactly; what the stages
    still see comes from the tilt theta_j of the tangent against the disc's
    tangent i e^(i sigma_j), because the shape's normal displacement is
    r cos theta + q sin theta: the top modes keep rates of about
    |sin theta| times the disc's.  The bound is
    dt_0 * min(_TILT_CAP, max(1, _TILT_REACH / max |sin theta_j|)), and
    under z -> lambda z it scales as lambda^alpha, like the clock.
    """
    m = state.size
    radius = math.sqrt(_area(state) / math.pi)
    cutoff = _filter_cutoff(m)
    top = cutoff * omega_dispersion(state.alpha, cutoff)
    base = (_STABILITY_SAFETY * 2.0 * math.sqrt(2.0) * m * _mean_spacing(state.nodes)
            / (2.0 * math.pi * top * radius ** (1.0 - state.alpha)))
    zs = state.tangent
    # sin theta_j = -Re(z_sigma e^(-i sigma_j)) / |z_sigma|
    tilt = float(np.max(np.abs((zs * np.exp(-2j * np.pi * np.arange(m) / m)).real)
                        / np.abs(zs)))
    if tilt * _TILT_CAP <= _TILT_REACH:
        return base * _TILT_CAP
    return base * max(1.0, _TILT_REACH / tilt)


def normal_step_bounds(state: ContourState) -> tuple[float, float]:
    """(dt_stability, dt_guard) for `step_normal` runs from `state`.

    dt_stability is `stability_step`; dt_guard is 0.95 of the quarter-spacing
    bound that `step_normal` enforces, on the node velocity at `state`.  A
    run steps at the smaller of the two.
    """
    guard = _guard_step(state.nodes, normal_node_velocity(state))
    return stability_step(state), _GUARD_MARGIN * guard


def redistribute(state: ContourState) -> ContourState:
    """Resample the nodes to equal arclength on their trigonometric interpolant.

    `step_normal` keeps the node spacing as it finds it, so a run from equal
    spacing starts here.  Each node takes Newton steps on the arclength past
    the fine point below it (two-point Gauss on the Taylor polynomial there),
    so the curve moves only by that polynomial's error.
    """
    fine = _fine_curve(state.nodes)
    speed = np.abs(fine[1])
    n, total = len(speed), 2.0 * np.pi * speed.mean()
    # arclength at the fine points, offset by its value at sigma = 0: the mean
    # speed's share plus the spectral zero-mean antiderivative of the rest
    arc = total * np.arange(n) / n + irfft(rfft(speed) * _tables(n).antiderivative, n=n)
    target = arc[0] + total * np.arange(state.size) / state.size
    j = np.searchsorted(arc, target, side="right") - 1
    rest = target - arc[j]
    t = rest / speed[j]
    for _ in range(_NEWTON_STEPS):
        length = 0.5 * t * np.abs(_taylor(fine, j, _GAUSS * t)[1]).sum(axis=0)
        t -= (length - rest) / np.abs(_taylor(fine, j, t)[1])
    return ContourState(nodes=_taylor(fine, j, t)[0], time=state.time, alpha=state.alpha)


def _steps(t_final: float, dt: float) -> tuple[int, float]:
    if t_final <= 0.0 or dt <= 0.0:
        raise ValueError("need positive horizon and step")
    # the fewest equal steps no longer than dt; the slack keeps a dt of
    # t_final / n at n steps despite rounding in the ratio
    n_steps = max(1, math.ceil(t_final / dt * (1.0 - _STEP_SLACK)))
    return n_steps, t_final / n_steps


def evolve(state: ContourState, t_final: float, dt: float) -> ContourState:
    """March to t_final in the fewest equal `step_normal` steps no longer
    than dt."""
    n_steps, dt = _steps(t_final, dt)
    cur = state
    for _ in range(n_steps):
        cur = step_normal(cur, dt)
    return cur


def _area(state: ContourState) -> float:
    """Area 1/2 oint Im(conj(z) z') of the trigonometric interpolant."""
    return math.pi / state.size * float(np.vdot(state.nodes, state.tangent).imag)


def conserved_diagnostics(state: ContourState) -> tuple[float, complex]:
    """(area, centroid) of the trigonometric interpolant of the nodes.

    area = 1/2 oint Im(conj(z) z') and the first moment
    int z dA = 1/3 oint z Im(conj(z) z'), by the trapezoid rule with the
    spectral z'.  Unlike the polygon (shoelace) values these do not move
    when nodes only slide along the curve.
    """
    z = state.nodes
    flux = (np.conj(z) * state.tangent).imag
    total = float(np.sum(flux))
    area = np.pi / state.size * total
    return area, complex(2.0 / 3.0 * np.sum(z * flux) / total)


def _fine_curve(z: np.ndarray) -> np.ndarray:
    """gamma and its first three sigma-derivatives on the _FINE-times finer
    grid: one stacked zero-padded transform of the nodes' trigonometric
    interpolant, with an even count's Nyquist mode split between +-m/2."""
    m, half = len(z), len(z) // 2
    big = np.zeros((4, _FINE * m), dtype=complex)
    big[:, np.fft.fftfreq(m, 1.0 / m).astype(int)] = _tables(m).derivative * fft(z)
    if m % 2 == 0:
        big[:, half] = big[:, -half] = 0.5 * big[:, -half]
    return ifft(big) * _FINE


def _taylor(fine: np.ndarray, j: np.ndarray, t: np.ndarray):
    """gamma, gamma' and gamma'' at sigma_j + t from the cubic Taylor
    polynomial of the fine curve at its points j."""
    g0, g1, g2, g3 = fine[:, j]
    return (g0 + t * (g1 + t * (0.5 * g2 + t / 6.0 * g3)),
            g1 + t * (g2 + 0.5 * t * g3), g2 + t * g3)


def _foot_gap(points: np.ndarray, fine: np.ndarray) -> float:
    """max over `points` of the distance to their foot points on the fine
    curve: Newton on the Taylor polynomial at the nearest fine point."""
    from scipy.spatial import cKDTree
    j = cKDTree(np.column_stack([fine[0].real, fine[0].imag])).query(
        np.column_stack([points.real, points.imag]))[1]
    t = np.zeros(len(points))
    for _ in range(_NEWTON_STEPS):
        p, dp, ddp = _taylor(fine, j, t)
        gap = np.conj(p - points)
        t -= (gap * dp).real / ((gap * ddp).real + np.abs(dp) ** 2)
    return float(np.abs(_taylor(fine, j, t)[0] - points).max())


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two closed node curves.

    Each curve is its nodes' trigonometric interpolant: its samples at 16
    times the nodes are measured to their foot points on the other curve, so
    a reparametrization or a second sampling of one curve reads rounding.
    """
    fa, fb = _fine_curve(a), _fine_curve(b)
    return max(_foot_gap(fa[0], fb), _foot_gap(fb[0], fa))


def normal_velocity_residual(state: ContourState, omega: float) -> float:
    """Largest mismatch between the computed and rigid-rotation normal speeds.

    For a true rotating patch the boundary velocity agrees with i*omega*z in
    the normal direction; tangential components are parametrization slack.
    """
    tangent = state.tangent / np.abs(state.tangent)
    # the normal speed of i omega z, with conj(n) = i conj(t)
    rigid = -omega * (state.nodes * np.conj(tangent)).real
    return float(np.max(np.abs(_normal_speed(state, tangent) - rigid)))

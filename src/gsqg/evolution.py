"""Lagrangian contour dynamics for patch boundaries.

The boundary velocity is the power-law layer integral of the tangent
vector.  Discretization is deliberately independent of the spectral
machinery used by the solver: plain trapezoid over the Lagrangian nodes,
with the integrable singularity handled by product integration of
|s - sigma|^(-alpha) against a piecewise-linear interpolant of the smooth
factor on a few cells around the target node.  Leading quadrature error is
tangential, so shapes evolve more accurately than node positions.

States are immutable snapshots; stepping returns new states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .geometry import FourierBoundary, UnitGrid, eval_map
from .specfun import conv_constant

_WINDOW = 3  # cells on each side of the singular node handled by product integration
_TILE = 128  # rows per pair-kernel strip; 64 ties at 512 nodes, 256 is ~10% slower


class ContourError(RuntimeError):
    """Self-intersection or step-size violation during evolution."""


@dataclass(frozen=True)
class ContourState:
    """Closed boundary as Lagrangian nodes, positively oriented."""

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

    @classmethod
    def from_boundary(cls, bnd: FourierBoundary, n_nodes: int, alpha: float,
                      time: float = 0.0) -> "ContourState":
        grid = UnitGrid(n_nodes)
        return cls(nodes=eval_map(bnd, grid), time=time, alpha=alpha)

    @classmethod
    def disc(cls, n_nodes: int, alpha: float, radius: float = 1.0) -> "ContourState":
        grid = UnitGrid(n_nodes)
        return cls(nodes=radius * grid.nodes, time=0.0, alpha=alpha)


def _spectral_tangent(nodes: np.ndarray) -> np.ndarray:
    """d(gamma)/d(sigma) for the uniform Lagrangian parameter, via FFT."""
    m = len(nodes)
    k = np.fft.fftfreq(m, d=1.0 / m)
    k[m // 2] = 0.0   # drop the unmatched Nyquist mode of the derivative
    return np.fft.ifft(1j * k * np.fft.fft(nodes))


@lru_cache(maxsize=32)
def _hat_weights(alpha: float, h: float, p: int) -> tuple:
    """Product-integration weights of |s|^(-alpha) against hat functions.

    Returns w[0..p]; w[d] multiplies the smooth-factor sample at parameter
    offset d*h (weights are symmetric in d).  At alpha = 1 the center weight
    is dropped: it only ever multiplies a sample that vanishes there.
    """
    w = np.zeros(p + 1)
    for k in range(p):
        a_lo, a_hi = k * h, (k + 1) * h
        if alpha == 1.0:
            full = math.log((k + 1) / k) if k else math.inf
            lin = 1.0 - k * full if k else 1.0
        else:
            full = (a_hi ** (1.0 - alpha) - a_lo ** (1.0 - alpha)) / (1.0 - alpha)
            lin = ((a_hi ** (2.0 - alpha) - a_lo ** (2.0 - alpha)) / (2.0 - alpha)
                   - a_lo * full) / h
        if k == 0 and alpha == 1.0:
            w[1] += lin        # center sample is zero; only the linear part acts
        else:
            w[k] += full - lin
            w[k + 1] += lin
    return tuple(2.0 * wi if d == 0 else wi for d, wi in enumerate(w))


@lru_cache(maxsize=64)
def _off_band(m: int, i0: int) -> np.ndarray:
    """Mask of the strip rows i0.. against columns j >= i0 that lie off the
    band |i - j| <= _WINDOW (mod m)."""
    gap = np.abs(np.arange(i0, min(i0 + _TILE, m))[:, None] - np.arange(i0, m)[None, :])
    off = np.minimum(gap, m - gap) > _WINDOW
    off.flags.writeable = False
    return off


def _pair_kernel_products(z: np.ndarray, alpha: float, vec: np.ndarray) -> np.ndarray:
    """K @ vec for the pair kernel K[i, j] = |z_i - z_j|^(-alpha), K[i, i] = 0.

    K is symmetric, so it is built in strips of _TILE rows i0:i1 against the
    columns j >= i0: one cdist of squared distances, then d^(-alpha) as
    exp(-alpha/2 * log d^2) in place.
    Each strip serves its own rows and, transposed, the rows below it; the
    working set is one strip buffer.  Raises ContourError if non-adjacent
    nodes (outside the product-integration band) are closer than a quarter
    of the mean node spacing.  The band can only lower a strip's plain
    minimum, so the masked off-band minimum is taken only when the plain
    one falls below that floor.
    """
    m = len(z)
    pts = np.column_stack([z.real, z.imag])
    floor_sq = (float(np.mean(np.abs(np.roll(z, -1) - z))) / 4.0) ** 2
    out = np.zeros((m, vec.shape[1]))
    buf = np.empty(min(_TILE, m) * m)
    for i0 in range(0, m, _TILE):
        i1 = min(i0 + _TILE, m)
        d2 = buf[:(i1 - i0) * (m - i0)].reshape(i1 - i0, m - i0)
        cdist(pts[i0:i1], pts[i0:], "sqeuclidean", out=d2)
        np.fill_diagonal(d2, np.inf)
        nearest_sq = d2.min()
        if nearest_sq < floor_sq:
            nearest_sq = d2.min(where=_off_band(m, i0), initial=np.inf)
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


def velocity_contour(state: ContourState, subtract: bool | None = None) -> np.ndarray:
    """Boundary velocity at every node.

    subtract=None picks the plain kernel for alpha < 0.95 and the
    tangentially subtracted one (mandatory at alpha = 1, harmless
    elsewhere) beyond that.  Raises ContourError if non-adjacent nodes
    approach within a quarter of the node spacing.
    """
    alpha = state.alpha
    if subtract is None:
        subtract = alpha >= 0.95
    if alpha == 1.0 and not subtract:
        raise ValueError("the unsubtracted kernel is not integrable at alpha = 1")
    z = state.nodes
    m = state.size
    h = 2.0 * np.pi / m
    gp = _spectral_tangent(z)
    rows = np.arange(m)

    # one pass over the pair-kernel strips gives the convolution with gamma'
    # and the row sum
    vec = np.column_stack([gp.real, gp.imag, np.ones(m)])
    acc = _pair_kernel_products(z, alpha, vec)
    conv = acc[:, 0] + 1j * acc[:, 1]
    if subtract:
        # integrand (gamma'(s) - gamma'(sigma_i)) |gamma_i - gamma(s)|^(-alpha)
        total = h * (conv - gp * acc[:, 2])
    else:
        total = h * conv

    # swap the trapezoid contribution of the window nodes for product
    # integration of the singular weight against a linear interpolant of the
    # smooth factor; the window-edge nodes keep half their trapezoid weight
    weights = _hat_weights(alpha, h, _WINDOW)
    for d in range(-_WINDOW, _WINDOW + 1):
        idx = (rows + d) % m
        if d == 0:
            smooth = np.zeros(m, dtype=complex) if subtract \
                else gp * np.abs(gp) ** (-alpha)
        else:
            dd = np.abs(z[idx] - z)
            raw = (gp[idx] - gp) if subtract else gp[idx]
            smooth = raw * (abs(d) * h / dd) ** alpha
            frac = 0.5 if abs(d) == _WINDOW else 1.0
            total -= frac * h * raw * dd ** (-alpha)
        total += weights[abs(d)] * smooth
    return conv_constant(alpha) / (2.0 * np.pi) * total


def _advance(state: ContourState, new_nodes: np.ndarray, dt: float) -> ContourState:
    return ContourState(nodes=new_nodes, time=state.time + dt, alpha=state.alpha)


def step_rk4(state: ContourState, dt: float,
             subtract: bool | None = None) -> ContourState:
    """One classical four-stage step of the contour equation.

    Enforces dt * max speed < node spacing / 4 before committing the step.
    """
    z = state.nodes
    k1 = velocity_contour(state, subtract)
    spacing = float(np.mean(np.abs(np.roll(z, -1) - z)))
    if dt * float(np.max(np.abs(k1))) >= spacing / 4.0:
        raise ContourError(f"dt = {dt:.3e} violates the quarter-spacing bound "
                           f"{spacing / (4.0 * float(np.max(np.abs(k1)))):.3e}")
    k2 = velocity_contour(_advance(state, z + 0.5 * dt * k1, 0.5 * dt), subtract)
    k3 = velocity_contour(_advance(state, z + 0.5 * dt * k2, 0.5 * dt), subtract)
    k4 = velocity_contour(_advance(state, z + dt * k3, dt), subtract)
    return _advance(state, z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), dt)


def redistribute(state: ContourState) -> ContourState:
    """Resample the nodes to equal arclength through a periodic cubic spline.

    Counters the tangential drift of the Lagrangian parametrization, which
    otherwise clusters nodes; the curve itself moves only by the spline
    interpolation error.
    """
    z = state.nodes
    m = state.size
    closed = np.append(z, z[0])
    seg = np.abs(np.diff(closed))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    spline = CubicSpline(cum, np.column_stack([closed.real, closed.imag]),
                         bc_type="periodic")
    targets = cum[-1] * np.arange(m) / m
    xy = spline(targets)
    return ContourState(nodes=xy[:, 0] + 1j * xy[:, 1], time=state.time,
                        alpha=state.alpha)


def evolve(state: ContourState, t_final: float, dt: float,
           subtract: bool | None = None, redistribute_every: int = 20) -> ContourState:
    """March to t_final in uniform steps, resampling periodically."""
    if t_final <= 0.0 or dt <= 0.0:
        raise ValueError("need positive horizon and step")
    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    cur = state
    for k in range(1, n_steps + 1):
        cur = step_rk4(cur, dt, subtract)
        if redistribute_every and k % redistribute_every == 0 and k < n_steps:
            cur = redistribute(cur)
    return cur


def conserved_diagnostics(state: ContourState) -> tuple[float, complex]:
    """(area, centroid) of the node polygon via the shoelace formulas."""
    z = state.nodes
    x, y = z.real, z.imag
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    cross = x * y1 - x1 * y
    area = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + x1) * cross)) / (6.0 * area)
    cy = float(np.sum((y + y1) * cross)) / (6.0 * area)
    return area, cx + 1j * cy


def _trig_upsample(z: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation of a periodic node sequence."""
    m = len(z)
    spec = np.fft.fft(z)
    big = np.zeros(m * factor, dtype=complex)
    half = m // 2
    big[:half] = spec[:half]
    big[-half + 1:] = spec[half + 1:]
    big[half] = 0.5 * spec[half]
    big[-half] = 0.5 * spec[half]
    return np.fft.ifft(big) * factor


def _to_polyline_gap(za: np.ndarray, zb: np.ndarray) -> float:
    """max over points of za of the distance to the closed polyline zb."""
    pa = np.column_stack([za.real, za.imag])
    pb = np.column_stack([zb.real, zb.imag])
    nearest = cKDTree(pb).query(pa)[1]
    m = len(zb)
    best = np.full(len(za), np.inf)
    for off in (-1, 0):
        i0 = (nearest + off) % m
        i1 = (i0 + 1) % m
        p0, p1 = pb[i0], pb[i1]
        seg = p1 - p0
        seg_len2 = np.einsum("ij,ij->i", seg, seg)
        t = np.einsum("ij,ij->i", pa - p0, seg) / np.where(seg_len2 > 0, seg_len2, 1.0)
        t = np.clip(t, 0.0, 1.0)
        foot = p0 + t[:, None] * seg
        best = np.minimum(best, np.linalg.norm(pa - foot, axis=1))
    return float(best.max())


def hausdorff_distance(a: np.ndarray, b: np.ndarray, upsample: int = 16) -> float:
    """Symmetric Hausdorff distance between two closed node curves.

    Both sequences are trig-interpolated and compared point-to-polyline, so
    purely tangential reparametrization (which moves nodes along the curve
    without moving the curve) does not register; the residual measurement
    bias is the chord sag of the upsampled polyline.
    """
    za = _trig_upsample(np.asarray(a, dtype=complex), upsample)
    zb = _trig_upsample(np.asarray(b, dtype=complex), upsample)
    return max(_to_polyline_gap(za, zb), _to_polyline_gap(zb, za))


def normal_velocity_residual(state: ContourState, omega: float,
                             subtract: bool | None = None) -> float:
    """Largest mismatch between the computed and rigid-rotation normal speeds.

    For a true rotating patch the boundary velocity agrees with i*omega*z in
    the normal direction; tangential components are parametrization slack.
    """
    u = velocity_contour(state, subtract)
    tangent = _spectral_tangent(state.nodes)
    normal = -1j * tangent / np.abs(tangent)
    mismatch = (u - 1j * omega * state.nodes) * np.conj(normal)
    return float(np.max(np.abs(mismatch.real)))

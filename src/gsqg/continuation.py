"""Newton solver and amplitude continuation for m-fold patch branches.

Near the bifurcation value the branch is a graph over the leading
coefficient, so the amplitude s = a_{m-1} is pinned and the unknowns are
the angular velocity together with the higher rungs a_{2m-1}, ..., a_{Km-1}.
The equations are the sine coefficients of the residual at the symmetric
modes m, 2m, ..., Km, giving a square system.  The translation coefficient
b_0 stays at zero throughout: the rotation center is the center of mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (FourierBoundary, UnitGrid, _map_samples, _warn, default_grid,
                       dilate, embed_mfold)
from .kernels import SelfIntersectionError, functional_G
from .linearization import monomial_derivatives
from .specfun import omega_dispersion


_MAX_ITER = 30      # Newton steps per solve
_MAX_BUILDS = 6     # Jacobian builds per solve; converging solves build at most 4


class NonConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class FoldError(RuntimeError):
    """Reduced Jacobian became singular; likely a fold in the branch."""


@dataclass(frozen=True)
class VStateSolution:
    """One converged rotating patch on an m-fold branch."""

    alpha: float
    m: int
    s: float
    omega: float
    reduced: np.ndarray          # the rungs a_{m-1}, a_{2m-1}, ..., a_{Km-1}
    residual_norm: float
    grid_size: int
    residual_evals: int = 0      # residual evaluations the solve made
    jacobian_builds: int = 0     # Jacobians it built; 0 when the start's was enough
    # the last chord Jacobian (None if the starting iterate met tol); a solve
    # given this solution as its start steps with it first
    jacobian: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def full_boundary(self) -> FourierBoundary:
        return embed_mfold(self.m, self.reduced)


@dataclass
class BranchTable:
    """Solutions along one branch, ordered by increasing amplitude."""

    alpha: float
    m: int
    solutions: list[VStateSolution] = field(default_factory=list)
    failure: str | None = None

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([sol.s for sol in self.solutions])

    @property
    def omegas(self) -> np.ndarray:
        return np.array([sol.omega for sol in self.solutions])

    def extrapolate_omega(self) -> float:
        """Angular velocity at zero amplitude from the two smallest steps.

        The branch is even in s, so fitting omega = omega0 + c s^2 through
        the first two points leaves an O(s^4) defect.
        """
        if len(self.solutions) < 2:
            raise ValueError("need at least two branch points to extrapolate")
        s1, s2 = self.amplitudes[:2]
        o1, o2 = self.omegas[:2]
        return float((s2 ** 2 * o1 - s1 ** 2 * o2) / (s2 ** 2 - s1 ** 2))


def _sine_rows(m: int, k_modes: int) -> np.ndarray:
    """Rows of the sine modes m, 2m, ..., Km in a sine_coeffs vector."""
    return m * np.arange(1, k_modes + 1) - 1


def _equations(omega: float, reduced: np.ndarray, alpha: float, m: int,
               grid: UnitGrid, k_modes: int) -> np.ndarray:
    fld = functional_G(omega, embed_mfold(m, reduced), alpha, grid)
    return fld.sine_coeffs[_sine_rows(m, k_modes)]


def _omega_column(bnd: FourierBoundary, m: int, grid: UnitGrid, k_modes: int) -> np.ndarray:
    """Omega column of the reduced Jacobian at bnd.

    The functional is affine in omega, so the column is the sine expansion
    of its slope Im(phi conj(w) conj(phi')) and depends on the boundary only.
    """
    phi, dphi = _map_samples(bnd, grid)
    slope = np.imag(phi * np.conj(grid.nodes) * np.conj(dphi))
    return grid.sine_coeffs(slope)[_sine_rows(m, k_modes)]


def _mfold_jacobian(omega: float, reduced: np.ndarray, alpha: float, m: int,
                    grid: UnitGrid, k_modes: int) -> np.ndarray:
    """Analytic Jacobian of _equations in (omega, a_{2m-1}, ..., a_{Km-1}).

    Column 0 is _omega_column; the rung columns are the Gateaux derivatives
    along b_{2m-1}, ..., b_{Km-1}, all from one pass.  Coefficient b_{km-1}
    and sine mode km share the index km - 1, so the rungs are rows[1:].
    """
    bnd = embed_mfold(m, reduced)
    rows = _sine_rows(m, k_modes)
    fields = monomial_derivatives(bnd, rows[1:], omega, alpha, grid)
    return np.column_stack([_omega_column(bnd, m, grid, k_modes),
                            grid.sine_coeffs(fields)[:, rows].T])


def solve_vstate(alpha: float, m: int, s: float, start: VStateSolution | None = None,
                 tol: float = 1e-11, k_modes: int = 16) -> VStateSolution:
    """Newton-solve the m-fold branch point at pinned amplitude s.

    start is a neighbouring solution with k_modes rungs (and a k_modes x
    k_modes Jacobian, if any), such as the previous point of a branch or the
    point at the same s and a nearby alpha.  The
    solve starts from its omega and higher rungs and, when it has one, its
    chord Jacobian, whose omega column is replaced by the exact one at the
    starting iterate; that matrix is rebuilt when the chord stalls.  By
    default the solve starts from the disc (dispersion omega, zero rungs),
    which is inside the Newton basin for small s, and its first step builds a
    Jacobian; at s = 0 the disc meets tol after one residual evaluation and
    nothing is built.  The Newton Jacobian is analytic at every alpha in
    (0, 1], the subtracted kernel of alpha = 1 included.  Raises
    NonConvergenceError, FoldError, or a self-intersection error from the
    kernel layer.
    """
    if m < 2:
        raise ValueError("m-fold branches need m >= 2")
    if alpha == 1.0:
        _warn("critical-case branch solving is experimental: no bifurcation theorem backs it",
              RuntimeWarning)
    grid = default_grid(k_modes * m)

    def reduced_of(x_vec: np.ndarray) -> np.ndarray:
        return np.concatenate([[s], x_vec[1:]])

    x, jacobian = np.zeros(k_modes), None
    if start is None:
        x[0] = omega_dispersion(alpha, m)
    else:
        if len(start.reduced) != k_modes:
            raise ValueError(f"start has {len(start.reduced)} rungs, not {k_modes}")
        x = np.concatenate([[start.omega], start.reduced[1:]])
        if start.jacobian is not None:
            if start.jacobian.shape != (k_modes, k_modes):
                raise ValueError(f"start jacobian shape {start.jacobian.shape}, "
                                 f"not {(k_modes, k_modes)}")
            jacobian = start.jacobian.copy()
            # the omega column is zero at the disc and O(s) along the branch,
            # so it is always refreshed; the rung columns move by O(ds) only
            at_start = embed_mfold(m, reduced_of(x))
            jacobian[:, 0] = _omega_column(at_start, m, grid, k_modes)

    evals = 0

    def res_of(x_vec: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += 1
        return _equations(x_vec[0], reduced_of(x_vec), alpha, m, grid, k_modes)

    def jac_of(x_vec: np.ndarray) -> np.ndarray:
        return _mfold_jacobian(x_vec[0], reduced_of(x_vec), alpha, m, grid, k_modes)

    sol_x, norm, jac, builds = _chord_newton(x, res_of, jac_of, tol, s, jacobian)
    return VStateSolution(alpha=alpha, m=m, s=s, omega=float(sol_x[0]),
                          reduced=reduced_of(sol_x), residual_norm=norm, grid_size=grid.size,
                          residual_evals=evals, jacobian_builds=builds, jacobian=jac)


def _chord_newton(x: np.ndarray, res_of, jac_of, tol: float, s: float,
                  jac: np.ndarray | None = None
                  ) -> tuple[np.ndarray, float, np.ndarray | None, int]:
    """Damped Newton with Jacobian reuse; returns (x, residual norm, Jacobian, builds).

    The Jacobian is kept across steps (a chord iteration) and rebuilt at the
    current iterate when a chord step stalls under damping or contracts
    slowly.  A Jacobian counts as fresh only for the step taken right after
    it was built, so a start matrix passed as jac is stale from the first
    step on; without one the first step builds.  A solve that would build
    more than _MAX_BUILDS Jacobians raises NonConvergenceError: wandering
    that long marks an under-resolved point, not a slow one.  The returned
    Jacobian is the last one stepped with (None if x already met tol).
    """
    res = res_of(x)
    res_norm = float(np.max(np.abs(res)))
    rebuild = jac is None
    builds = 0
    for _ in range(_MAX_ITER):
        if res_norm < tol:
            break
        fresh = rebuild
        if fresh:
            if builds == _MAX_BUILDS:
                raise NonConvergenceError(f"{builds} Jacobian builds at s={s} without "
                                          f"convergence, residual {res_norm:.3e}")
            jac = jac_of(x)
            builds += 1
            rebuild = False
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            if not fresh:
                rebuild = True      # a singular start matrix says nothing of x
                continue
            raise FoldError(f"singular reduced Jacobian at s={s}") from exc
        lam = 1.0
        accepted = False
        for _ in range(6):
            x_new = x + lam * delta
            res_new = res_of(x_new)
            norm_new = float(np.max(np.abs(res_new)))
            if norm_new < res_norm or norm_new < tol:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if not fresh:
                rebuild = True      # stale chord Jacobian; rebuild and retry
                continue
            raise NonConvergenceError(f"damping stalled at s={s}, residual {res_norm:.3e}")
        # slow linear contraction also signals a stale Jacobian
        if not fresh and norm_new > 0.3 * res_norm:
            rebuild = True
        x, res, res_norm = x_new, res_new, norm_new
    if res_norm >= tol:
        raise NonConvergenceError(f"no convergence at s={s}: residual {res_norm:.3e} "
                                  f"after {_MAX_ITER} iterations")
    return x, res_norm, jac, builds


def continue_branch(alpha: float, m: int, s_max: float, ds: float,
                    tol: float = 1e-11, k_modes: int = 16) -> BranchTable:
    """March the branch in amplitude steps, seeding each solve with the last.

    Each solve takes the previous point as its start, with its coefficients
    and its last chord Jacobian (omega column refreshed), so a leg of small
    steps builds about one Jacobian; a solve rebuilds only when the carried
    matrix stalls or contracts slowly.  Stops cleanly at the first failed step and records
    why; everything already converged stays in the table.
    """
    if ds <= 0.0 or s_max < ds:
        raise ValueError("need 0 < ds <= s_max")
    table = BranchTable(alpha=alpha, m=m)
    k = 1
    while k * ds <= s_max * (1.0 + 1e-12):
        s = k * ds   # not accumulated, so the k-th amplitude is exactly k * ds
        start = table.solutions[-1] if table.solutions else None
        try:
            sol = solve_vstate(alpha, m, s, start=start, tol=tol, k_modes=k_modes)
        except (NonConvergenceError, FoldError, SelfIntersectionError) as exc:
            table.failure = f"s={s:.6g}: {type(exc).__name__}: {exc}"
            break
        table.solutions.append(sol)
        k += 1
    return table


def verify_dilation_law(sol: VStateSolution, lam: float,
                        omega_exponent: float | None = None) -> float:
    """Residual norm of the lam-dilated patch spun at omega * lam^(-alpha).

    Must stay within a small factor (the residual itself rescales by
    lam^(2-alpha)) of the original solve tolerance.  Passing
    omega_exponent=1.0 deliberately applies the wrong rescaling omega/lam
    and serves as the negative control.
    """
    expo = sol.alpha if omega_exponent is None else omega_exponent
    scaled, factor = dilate(sol.full_boundary, lam, expo)
    return functional_G(sol.omega * factor, scaled, sol.alpha, UnitGrid(sol.grid_size)).sup_norm

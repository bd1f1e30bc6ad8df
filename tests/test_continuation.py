import dataclasses
import re

import numpy as np
import pytest

import gsqg.continuation as cont
from gsqg.continuation import (BranchTable, FoldError, NonConvergenceError, VStateSolution,
                               continue_branch, solve_vstate, verify_dilation_law)
from gsqg.geometry import MFoldBoundary, UnitGrid, default_grid, embed_mfold
from gsqg.kernels import SelfIntersectionError, functional_G
from gsqg.specfun import omega_dispersion

from fd_oracle import fd_jacobian


class TestSolve:
    def test_zero_amplitude_is_disc(self):
        # the disc meets the tolerance at once: no Newton step, no Jacobian
        sol = solve_vstate(0.5, 3, 0.0)
        assert sol.omega == omega_dispersion(0.5, 3)
        assert sol.residual_norm < 1e-15
        assert sol.jacobian_builds == 0
        assert np.all(sol.boundary.reduced == 0.0)

    def test_small_amplitude(self):
        sol = solve_vstate(0.5, 3, 1e-4, k_modes=8)
        assert sol.residual_norm < 1e-11
        # omega sits within O(s^2) of the bifurcation value
        assert abs(sol.omega - omega_dispersion(0.5, 3)) < 10.0 * 1e-8

    def test_second_rung_is_quadratic(self):
        # a_{2m-1}(s)/s must vanish linearly in s
        r1 = solve_vstate(0.5, 3, 0.01, k_modes=8).boundary.reduced[1] / 0.01
        r2 = solve_vstate(0.5, 3, 0.02, k_modes=8).boundary.reduced[1] / 0.02
        assert r2 / r1 == pytest.approx(2.0, rel=0.05)

    def test_grid_refinement(self):
        sol = solve_vstate(0.5, 2, 0.03, tol=1e-11)
        fine = functional_G(sol.omega, sol.full_boundary, sol.alpha,
                            UnitGrid(4 * sol.grid_size)).sup_norm
        assert fine < 10.0 * 1e-11

    @pytest.mark.filterwarnings("ignore:critical-case branch solving")
    @pytest.mark.parametrize("m, s", [(2, 0.1), (3, 0.1), (4, 0.05)])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999, 1.0])
    def test_default_grid_is_converged(self, alpha, m, s, monkeypatch):
        # halving the node spacing moves no digit of a resolved mid-branch point
        sol = solve_vstate(alpha, m, s)
        monkeypatch.setattr(cont, "default_grid", lambda n: UnitGrid(2 * default_grid(n).size))
        fine = solve_vstate(alpha, m, s)
        assert fine.grid_size == 2 * sol.grid_size
        assert abs(fine.omega - sol.omega) <= 1e-13
        assert np.max(np.abs(fine.boundary.reduced - sol.boundary.reduced)) <= 1e-13

    def test_mfold_purity(self):
        sol = solve_vstate(0.5, 3, 0.02, k_modes=8)
        full = sol.full_boundary.coeffs
        sym = np.zeros_like(full, dtype=bool)
        sym[2::3] = True
        assert np.all(full[~sym] == 0.0)

    def test_critical_case_flagged_experimental(self):
        with pytest.warns(RuntimeWarning, match="experimental"):
            sol = solve_vstate(1.0, 3, 1e-3, k_modes=6)
        assert sol.residual_norm < 1e-11

    def test_guess_size_mismatch(self):
        start = solve_vstate(0.5, 3, 0.01, k_modes=6)
        with pytest.raises(ValueError, match="start has 6 rungs"):
            solve_vstate(0.5, 3, 0.02, start=start, k_modes=8)

    def test_jacobian_shape_mismatch(self):
        start = solve_vstate(0.5, 3, 0.01, k_modes=8)
        bad = dataclasses.replace(start, jacobian=np.eye(7))
        with pytest.raises(ValueError, match="jacobian shape"):
            solve_vstate(0.5, 3, 0.02, start=bad, k_modes=8)

    def test_carried_jacobian_gets_exact_omega_column(self, monkeypatch):
        # the rung columns of the carried matrix are kept, its omega column
        # is the exact one at the starting iterate
        k_modes, grid = 8, default_grid(8 * 3)
        first = solve_vstate(0.5, 3, 0.01, k_modes=k_modes)
        seen = []

        def record(x, res_of, jac_of, tol, s, jac=None):
            seen.append(jac)
            return x, 0.0, jac, 0
        start = np.concatenate([[0.02], first.boundary.reduced[1:]])
        exact = cont._mfold_jacobian(first.omega, start, 0.5, 3, grid, k_modes)
        monkeypatch.setattr(cont, "_chord_newton", record)
        solve_vstate(0.5, 3, 0.02, start=first, k_modes=k_modes)
        assert np.array_equal(seen[0][:, 0], exact[:, 0])
        assert np.array_equal(seen[0][:, 1:], first.jacobian[:, 1:])
        assert first.jacobian[0, 0] != exact[0, 0]

    def test_records_solver_work(self):
        # the analytic Jacobian costs no residual evaluation, at alpha = 1 too;
        # central differences would cost two per unknown
        sol = solve_vstate(0.5, 3, 0.02, k_modes=8)
        assert sol.jacobian_builds >= 1
        assert 2 <= sol.residual_evals < 2 * 8
        with pytest.warns(RuntimeWarning, match="experimental"):
            crit = solve_vstate(1.0, 3, 1e-3, k_modes=6)
        assert crit.jacobian_builds >= 1
        assert 2 <= crit.residual_evals < 2 * 6

    def test_critical_solve_is_analytic(self):
        with pytest.warns(RuntimeWarning, match="experimental"):
            sol = solve_vstate(1.0, 3, 0.03)
        assert sol.residual_norm < 1e-11
        assert sol.residual_evals <= 6


class TestJacobian:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_analytic_matches_finite_differences(self, m):
        alpha, s, k_modes = 0.5, 0.02, 16
        grid = default_grid(k_modes * m)
        sol = solve_vstate(alpha, m, s, k_modes=k_modes)
        converged = np.concatenate([[sol.omega], sol.boundary.reduced[1:]])
        disc_guess = np.zeros(k_modes)
        disc_guess[0] = omega_dispersion(alpha, m)
        for x in (converged, disc_guess):
            reduced = np.concatenate([[s], x[1:]])
            fd = fd_jacobian(x, lambda v: cont._equations(
                v[0], np.concatenate([[s], v[1:]]), alpha, m, grid, k_modes))
            jac = cont._mfold_jacobian(x[0], reduced, alpha, m, grid, k_modes)
            assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(fd))

    def test_critical_analytic_matches_finite_differences(self):
        m, k_modes = 3, 8
        grid = default_grid(k_modes * m)
        x = np.array([0.33, 1e-3, -2e-4, 1e-5, 0.0, 0.0, 0.0, 0.0])
        reduced = np.concatenate([[0.03], x[1:]])
        fd = fd_jacobian(x, lambda v: cont._equations(
            v[0], np.concatenate([[0.03], v[1:]]), 1.0, m, grid, k_modes))
        jac = cont._mfold_jacobian(x[0], reduced, 1.0, m, grid, k_modes)
        assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(fd))


class TestChordNewton:
    @pytest.mark.parametrize("res_of, jac_of, x0, start", [
        # chord steps with the x = 2 slope contract by 12/13 near the root
        (lambda x: x ** 3 + x, lambda x: np.diag(3 * x ** 2 + 1), 2.0, None),
        # the first step crosses the fold at x = -1, so the old slope points uphill
        (lambda x: x ** 3 - 3 * x - 1.9, lambda x: np.diag(3 * x ** 2 - 3), 0.6, None),
        # a start matrix carried from x = -1.5: its slope has the wrong sign at x = 0.6
        (lambda x: x ** 3 - 3 * x - 1.9, lambda x: np.diag(3 * x ** 2 - 3), 0.6,
         np.array([[3.75]])),
        # a singular start matrix says nothing of the iterate
        (lambda x: x ** 3 - 3 * x - 1.9, lambda x: np.diag(3 * x ** 2 - 3), 0.6,
         np.zeros((1, 1))),
    ], ids=["slow-contraction", "damping-stall", "stale-start", "singular-start"])
    def test_rebuilds_stale_jacobian(self, res_of, jac_of, x0, start):
        x, norm, jac, builds = cont._chord_newton(np.array([x0]), res_of, jac_of,
                                                  1e-11, 0.1, start)
        assert norm < 1e-11 and abs(res_of(x)[0]) < 1e-11
        # at least one rebuild after the first matrix, built or passed in
        assert builds >= (2 if start is None else 1)
        assert jac is not start

    def test_rebuild_cap_raises(self):
        # at the double root of x^2 Newton only halves x, so every chord step
        # contracts slowly and the next step rebuilds, past the cap
        with pytest.raises(NonConvergenceError, match=f"{cont._MAX_BUILDS} Jacobian builds"):
            cont._chord_newton(np.array([1.0]), lambda x: x ** 2,
                               lambda x: np.diag(2 * x), 1e-11, 0.1)

    def test_fresh_jacobian_stall_raises(self):
        # a Newton direction that is uphill at a fresh Jacobian is a real failure
        with pytest.raises(NonConvergenceError, match="damping stalled"):
            cont._chord_newton(np.array([1.0]), lambda x: x ** 2 + 1.0,
                               lambda x: -np.diag(2 * x), 1e-11, 0.1)


@pytest.fixture(scope="module")
def branch_m2():
    return continue_branch(0.5, 2, 0.05, 0.01, k_modes=12)


class TestBranch:
    def test_completes(self, branch_m2):
        assert branch_m2.failure is None
        assert len(branch_m2.solutions) == 5

    def test_omega_continuity(self, branch_m2):
        om0 = omega_dispersion(0.5, 2)
        gaps = np.abs(branch_m2.omegas - om0)
        assert gaps[0] < gaps[4]        # omega(ds) closer than omega(5 ds)
        steps = np.abs(np.diff(branch_m2.omegas))
        assert np.all(steps < 5e-3)

    def test_extrapolates_to_dispersion(self, branch_m2):
        assert abs(branch_m2.extrapolate_omega() - omega_dispersion(0.5, 2)) < 1e-6

    def test_sorted_by_amplitude(self, branch_m2):
        assert np.all(np.diff(branch_m2.amplitudes) > 0)

    def test_truncation_robustness(self):
        lo = solve_vstate(0.5, 2, 0.02, k_modes=8)
        hi = solve_vstate(0.5, 2, 0.02, k_modes=16)
        assert abs(lo.omega - hi.omega) < 1e-8

    def test_amplitudes_are_exact_multiples(self, monkeypatch):
        # accumulating s += 0.05 gives 0.39999999999999997 at the 8th step
        def fake_solve(alpha, m, s, start=None, **kwargs):
            return VStateSolution(alpha=alpha, m=m, s=s, omega=0.0,
                                  boundary=MFoldBoundary(m=m, reduced=[s, 0.0]),
                                  residual_norm=0.0, grid_size=64)
        monkeypatch.setattr(cont, "solve_vstate", fake_solve)
        table = continue_branch(0.5, 3, 0.4, 0.05)
        k = np.arange(1, 9)
        assert np.array_equal(table.amplitudes, k * 0.05)
        assert table.amplitudes[-1] == 0.4

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            continue_branch(0.5, 2, 0.01, -0.01)


def fresh_jacobian_branch(alpha, m, s_max, ds):
    """Reference continuation in which every solve builds its own Jacobian.

    Returns the solutions and the typed failure that stopped it, or None.
    """
    sols, start = [], None
    for k in range(1, int(round(s_max / ds)) + 1):
        try:
            sol = solve_vstate(alpha, m, k * ds, start=start)
        except (NonConvergenceError, FoldError, SelfIntersectionError) as exc:
            return sols, exc
        sols.append(sol)
        start = dataclasses.replace(sol, jacobian=None)
    return sols, None


class TestCarriedJacobian:
    # the legs of the branch benchmark round
    @pytest.mark.parametrize("m, s_max, ds", [
        (2, 0.03, 0.01), (3, 0.03, 0.01), (4, 0.03, 0.01), (3, 0.2, 0.05)])
    def test_matches_fresh_jacobian_solves(self, m, s_max, ds):
        table = continue_branch(0.5, m, s_max, ds)
        ref, failure = fresh_jacobian_branch(0.5, m, s_max, ds)
        assert table.failure is None and failure is None
        assert table.amplitudes.tolist() == [sol.s for sol in ref]
        for sol, want in zip(table.solutions, ref):
            assert abs(sol.omega - want.omega) <= 1e-10 * abs(want.omega)
            assert np.max(np.abs(sol.boundary.reduced - want.boundary.reduced)) <= 1e-10
        builds = [sol.jacobian_builds for sol in table.solutions]
        assert builds[0] >= 1
        if ds == 0.01:
            # one Jacobian for the leg; fresh solves build one per point
            assert sum(builds) == 1

    @pytest.mark.parametrize("alpha0, alpha, m, s", [(0.5, 0.52, 3, 0.05), (0.5, 0.55, 2, 0.1)])
    def test_start_at_a_neighbouring_alpha(self, alpha0, alpha, m, s):
        # the point at the same amplitude and a nearby alpha seeds a solve as
        # the previous point of a branch does, with its chord Jacobian
        cold = solve_vstate(alpha, m, s)
        seeded = solve_vstate(alpha, m, s, start=solve_vstate(alpha0, m, s))
        assert abs(seeded.omega - cold.omega) <= 1e-10
        assert np.max(np.abs(seeded.boundary.reduced - cold.boundary.reduced)) <= 1e-10
        assert seeded.jacobian_builds <= 1

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_long_branch_matches_fresh_jacobian_solves(self, m):
        s_max, ds = 0.6, 0.01
        table = continue_branch(0.5, m, s_max, ds)
        ref, _ = fresh_jacobian_branch(0.5, m, s_max, ds)
        # the under-resolved tail may move the stop by one step
        assert abs(len(table.solutions) - len(ref)) <= 1
        for sol, want in zip(table.solutions, ref):
            assert abs(sol.omega - want.omega) <= 1e-9 * abs(want.omega)
        if table.failure is None:
            assert table.amplitudes[-1] == pytest.approx(s_max)
        else:
            assert re.search(r": (NonConvergenceError|FoldError|SelfIntersectionError): ",
                             table.failure)


class TestDilation:
    def test_identity_factor(self, vstate_053):
        assert verify_dilation_law(vstate_053, 1.0) == pytest.approx(
            vstate_053.residual_norm, rel=1e-6)

    def test_scaling_law(self, vstate_053):
        # residual rescales by lam^(2-alpha); must stay within 10x
        assert verify_dilation_law(vstate_053, 2.0) <= 10.0 * max(
            vstate_053.residual_norm, 1e-12)

    def test_wrong_exponent_blows_up(self, vstate_053):
        good = verify_dilation_law(vstate_053, 2.0)
        bad = verify_dilation_law(vstate_053, 2.0, omega_exponent=1.0)
        assert bad > 100.0 * max(good, vstate_053.residual_norm)

    def test_domain(self, vstate_053):
        with pytest.raises(ValueError):
            verify_dilation_law(vstate_053, 0.0)

    def test_critical_case(self):
        with pytest.warns(RuntimeWarning, match="experimental"):
            sol = solve_vstate(1.0, 3, 1e-3, k_modes=6)
        good = verify_dilation_law(sol, 2.0)
        assert good <= 10.0 * max(sol.residual_norm, 1e-12)
        # omega * lam^(-1/2) is the wrong rescaling at alpha = 1
        bad = verify_dilation_law(sol, 2.0, omega_exponent=0.5)
        assert bad > 100.0 * max(good, sol.residual_norm)

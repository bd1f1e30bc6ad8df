import numpy as np
import pytest

import gsqg.continuation as cont
from gsqg.continuation import (BranchTable, NonConvergenceError, VStateSolution,
                               continue_branch, residual_on_grid, solve_vstate,
                               verify_dilation_law)
from gsqg.geometry import MFoldBoundary, UnitGrid, default_grid, embed_mfold
from gsqg.kernels import functional_G
from gsqg.specfun import omega_dispersion


class TestSolve:
    def test_zero_amplitude_is_disc(self):
        sol = solve_vstate(0.5, 3, 0.0)
        assert sol.omega == pytest.approx(omega_dispersion(0.5, 3))
        assert sol.residual_norm == 0.0
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
        fine = residual_on_grid(sol, UnitGrid(4 * sol.grid_size))
        assert fine < 10.0 * 1e-11

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
        with pytest.raises(ValueError):
            solve_vstate(0.5, 3, 0.01, initial_guess=(0.3, np.zeros(3)), k_modes=8)

    def test_records_solver_work(self):
        # the analytic Jacobian costs no residual evaluation; central
        # differences at alpha = 1 cost two per unknown
        sol = solve_vstate(0.5, 3, 0.02, k_modes=8)
        assert sol.jacobian_builds >= 1
        assert 2 <= sol.residual_evals < 2 * 8
        with pytest.warns(RuntimeWarning, match="experimental"):
            crit = solve_vstate(1.0, 3, 1e-3, k_modes=6)
        assert crit.residual_evals >= 2 * 6 * crit.jacobian_builds


class TestJacobian:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_analytic_matches_finite_differences(self, m):
        alpha, s, k_modes = 0.5, 0.02, 16
        grid = default_grid(k_modes * m)
        sol = solve_vstate(alpha, m, s, k_modes=k_modes, grid=grid)
        converged = np.concatenate([[sol.omega], sol.boundary.reduced[1:]])
        disc_guess = np.zeros(k_modes)
        disc_guess[0] = omega_dispersion(alpha, m)
        for x in (converged, disc_guess):
            reduced = np.concatenate([[s], x[1:]])
            fd = cont._fd_jacobian(x, lambda v: cont._equations(
                v[0], np.concatenate([[s], v[1:]]), alpha, m, grid, k_modes))
            jac = cont._mfold_jacobian(x[0], reduced, alpha, m, grid, k_modes)
            assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(fd))


class TestChordNewton:
    @pytest.mark.parametrize("res_of, jac_of, x0", [
        # chord steps with the x = 2 slope contract by 12/13 near the root
        (lambda x: x ** 3 + x, lambda x: np.diag(3 * x ** 2 + 1), 2.0),
        # the first step crosses the fold at x = -1, so the old slope points uphill
        (lambda x: x ** 3 - 3 * x - 1.9, lambda x: np.diag(3 * x ** 2 - 3), 0.6),
    ], ids=["slow-contraction", "damping-stall"])
    def test_rebuilds_stale_jacobian(self, res_of, jac_of, x0):
        x, norm, builds = cont._chord_newton(np.array([x0]), res_of, jac_of,
                                             1e-11, 30, 0.1)
        assert norm < 1e-11 and abs(res_of(x)[0]) < 1e-11
        assert builds >= 2

    def test_fresh_jacobian_stall_raises(self):
        # a Newton direction that is uphill at a fresh Jacobian is a real failure
        with pytest.raises(NonConvergenceError, match="damping stalled"):
            cont._chord_newton(np.array([1.0]), lambda x: x ** 2 + 1.0,
                               lambda x: -np.diag(2 * x), 1e-11, 30, 0.1)


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

    def test_symmetry_equivariance(self, branch_m2):
        # rotating the evaluation grid by the symmetry angle leaves the
        # residual invariant
        sol = branch_m2.solutions[2]
        base = functional_G(sol.omega, sol.full_boundary, 0.5,
                            UnitGrid(sol.grid_size))
        turned = functional_G(sol.omega, sol.full_boundary, 0.5,
                              UnitGrid(sol.grid_size, shift=2 * np.pi / sol.m))
        assert abs(base.sup_norm - turned.sup_norm) < 1e-12

    def test_amplitudes_are_exact_multiples(self, monkeypatch):
        # accumulating s += 0.05 gives 0.39999999999999997 at the 8th step
        def fake_solve(alpha, m, s, initial_guess=None, **kwargs):
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

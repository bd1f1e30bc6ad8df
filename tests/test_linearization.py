import numpy as np
import pytest

import gsqg.linearization as lin
from gsqg.geometry import (AliasingWarning, FourierBoundary, MFoldBoundary, UnitGrid,
                           embed_mfold, eval_deriv, eval_map)
from gsqg.kernels import _chord_ratio, _contract, _field_from_values, functional_G
from gsqg.linearization import (BracketError, bifurcation_scan, fd_column,
                                gateaux_derivative, kernel_diagnostics,
                                mixed_omega_column, monomial_derivatives,
                                multiplier_at_disc, numerical_jacobian,
                                transversality_check)
from gsqg.specfun import conv_constant, omega_dispersion, omega_sqg, theta_alpha


def direction(mode: int, amp: float = 1.0) -> FourierBoundary:
    coeffs = np.zeros(mode + 1)
    coeffs[mode] = amp
    return FourierBoundary(coeffs)


def _ratio_matrix(vals, w, diag):
    num = vals[:, None] - vals[None, :]
    den = w[:, None] - w[None, :]
    np.fill_diagonal(den, 1.0)
    out = num / den
    np.fill_diagonal(out, diag)
    return out


def gateaux_dense(bnd, h, omega, alpha, grid):
    """Reference Gateaux derivative: every N x N factor formed for the whole h."""
    w = grid.nodes
    phi = eval_map(bnd, grid)
    dphi = eval_deriv(bnd, grid)
    hv = eval_map(h, grid) - w
    dhv = eval_deriv(h, grid) - 1.0
    hmat = _chord_ratio(phi, w, dphi)
    kern = hmat ** (-alpha)
    s_bare = w * _contract(dphi[None, :] * kern, alpha)
    a_vals = w * _contract(dhv[None, :] * kern, alpha)
    phi_ratio = _ratio_matrix(phi, w, dphi)
    h_ratio = _ratio_matrix(hv, w, dhv)
    hpow = hmat ** (-(alpha + 2.0))
    b_vals = w * _contract(phi_ratio * np.conj(h_ratio) * dphi[None, :] * hpow, alpha)
    c_vals = w * _contract(np.conj(phi_ratio) * h_ratio * dphi[None, :] * hpow, alpha)
    wb = np.conj(w)
    quad_part = omega * (phi * wb * np.conj(dhv) + hv * wb * np.conj(dphi))
    sing_part = conv_constant(alpha) * (
        s_bare * wb * np.conj(dhv)
        + wb * np.conj(dphi) * (a_vals - 0.5 * alpha * (b_vals + c_vals)))
    return _field_from_values(np.imag(quad_part - sing_part), grid)


def _random_boundary(rng, n=6, norm=0.05):
    coeffs = rng.uniform(-1.0, 1.0, n)
    return FourierBoundary(coeffs * norm / max(1.0, np.abs(coeffs).sum()))


class TestMultipliers:
    def test_zero_mode_locations(self):
        a = 0.5
        spec = multiplier_at_disc(a, omega_dispersion(a, 3), 16)
        assert spec.zero_modes() == [2]
        assert all(abs(spec.mult[n]) > 1e-4 for n in range(1, 17) if n != 2)

    def test_critical_case(self):
        spec = multiplier_at_disc(1.0, 2.0 / (3.0 * np.pi), 8)
        assert abs(spec.mult[1]) < 1e-15

    def test_omega_zero_all_negative(self):
        spec = multiplier_at_disc(0.5, 0.0, 12)
        assert all(spec.mult[n] < 0 for n in range(1, 13))
        assert spec.mult[0] == 0.0

    def test_asymptotic_slope(self):
        # mult[n]/(n+1) -> (omega - theta)/2, approached like n^(alpha-1)
        a, om = 0.5, 0.2
        spec = multiplier_at_disc(a, om, 4000)
        limit = (om - theta_alpha(a)) / 2.0
        err1 = abs(spec.mult[999] / 1000.0 - limit)
        err4 = abs(spec.mult[3999] / 4000.0 - limit)
        assert err4 < 0.01
        assert err4 / err1 == pytest.approx(0.5, rel=0.1)

    def test_critical_log_slope(self):
        # omega_n at alpha = 1 grows like ln(n)/pi
        ns = np.arange(50, 2001)
        om = np.array([omega_sqg(int(n)) for n in ns])
        slope = np.polyfit(np.log(ns), om, 1)[0]
        assert abs(slope - 1.0 / np.pi) < 0.02 / np.pi


class TestGateaux:
    def test_disc_single_mode(self):
        a, om = 0.5, 0.3
        g = UnitGrid(128)
        fld = gateaux_derivative(FourierBoundary.identity(), direction(2), om, a, g)
        expect = 3.0 * (om - omega_dispersion(a, 3)) / 2.0
        assert fld.sine_coeff(3) == pytest.approx(expect, rel=1e-12)
        others = [abs(fld.sine_coeffs[k]) for k in range(12) if k != 2]
        assert max(others) < 1e-14

    def test_disc_translation_mode(self):
        fld = gateaux_derivative(FourierBoundary.identity(), direction(0), 0.3, 0.5,
                                 UnitGrid(64))
        assert fld.sine_coeff(1) == pytest.approx(0.15, rel=1e-13)

    def test_matches_finite_differences_on_ellipse(self):
        a, om, eps = 0.5, 0.3, 1e-6
        g = UnitGrid(256)
        bnd = FourierBoundary(np.array([0.0, 0.2, 0.0]))
        fld = gateaux_derivative(bnd, direction(2), om, a, g)
        up = FourierBoundary(np.array([0.0, 0.2, eps]))
        dn = FourierBoundary(np.array([0.0, 0.2, -eps]))
        fd = (functional_G(om, up, a, g).sine_coeffs
              - functional_G(om, dn, a, g).sine_coeffs) / (2.0 * eps)
        assert np.max(np.abs(fld.sine_coeffs[:16] - fd[:16])) < 1e-7

    def test_matches_finite_differences_random(self, rng):
        # five random boundaries with coefficient norm <= 0.05
        a, om, eps = 0.5, 0.25, 1e-6
        g = UnitGrid(256)
        for _ in range(5):
            coeffs = rng.uniform(-1.0, 1.0, 6)
            coeffs *= 0.05 / max(1.0, np.abs(coeffs).sum())
            bnd = FourierBoundary(coeffs)
            mode = int(rng.integers(0, 5))
            fld = gateaux_derivative(bnd, direction(mode), om, a, g)
            up_c = coeffs.copy(); up_c[mode] += eps
            dn_c = coeffs.copy(); dn_c[mode] -= eps
            fd = (functional_G(om, FourierBoundary(up_c), a, g).sine_coeffs
                  - functional_G(om, FourierBoundary(dn_c), a, g).sine_coeffs) / (2 * eps)
            scale = max(np.max(np.abs(fd[:16])), 1e-12)
            assert np.max(np.abs(fld.sine_coeffs[:16] - fd[:16])) / scale < 1e-6


    def test_matches_dense_oracle(self, rng):
        # single and mixed directions, b_0, a non-unit lead, plain and offset grids
        directions = [direction(3), direction(0), FourierBoundary(rng.uniform(-1, 1, 5)),
                      FourierBoundary(np.array([0.0, 0.4]), lead=1.3),
                      FourierBoundary.identity(2)]
        for grid in (UnitGrid(128), UnitGrid.half_offset(128)):
            for alpha in (0.3, 0.5, 0.9):
                bnd = _random_boundary(rng)
                for h in directions:
                    ref = gateaux_dense(bnd, h, 0.27, alpha, grid)
                    got = gateaux_derivative(bnd, h, 0.27, alpha, grid)
                    scale = max(np.max(np.abs(ref.values)), 1e-12)
                    assert np.max(np.abs(got.values - ref.values)) <= 1e-12 * scale

    def test_linear_in_direction(self, rng):
        a, om, g = 0.5, 0.3, UnitGrid(128)
        bnd = _random_boundary(rng)
        both = gateaux_derivative(bnd, FourierBoundary(np.array([0.0, 0.7, 0.0, -1.2])),
                                  om, a, g)
        one = gateaux_derivative(bnd, direction(1, 0.7), om, a, g)
        three = gateaux_derivative(bnd, direction(3, -1.2), om, a, g)
        assert np.max(np.abs(both.values - one.values - three.values)) < 1e-13

    def test_lead_direction_matches_finite_differences(self, rng):
        a, om, eps, g = 0.5, 0.3, 1e-6, UnitGrid(256)
        bnd = _random_boundary(rng)
        # h = 2w moves phi by w: the derivative in the leading coefficient
        fld = gateaux_derivative(bnd, FourierBoundary(np.zeros(1), lead=2.0), om, a, g)
        up = FourierBoundary(bnd.coeffs, lead=1.0 + eps)
        dn = FourierBoundary(bnd.coeffs, lead=1.0 - eps)
        fd = (functional_G(om, up, a, g).sine_coeffs
              - functional_G(om, dn, a, g).sine_coeffs) / (2.0 * eps)
        assert np.max(np.abs(fld.sine_coeffs[:16] - fd[:16])) < 1e-7 * np.max(np.abs(fd))

    def test_sector_rows_match_all_rows(self, monkeypatch):
        # 3-fold boundary and 3-fold directions: 768 / 3 target rows suffice
        bnd = embed_mfold(MFoldBoundary(m=3, reduced=np.array([0.05, 0.004, -0.001])))
        modes = [-1, 2, 5, 8, 11]
        grid = UnitGrid(768)
        assert lin._sector_rows(bnd, grid.size, modes) == 256
        reduced = monomial_derivatives(bnd, modes, 0.34, 0.5, grid)
        monkeypatch.setattr(lin, "_sector_rows", lambda bnd, size, directions: size)
        full = monomial_derivatives(bnd, modes, 0.34, 0.5, grid)
        assert np.max(np.abs(reduced - full)) <= 1e-13 * np.max(np.abs(full))

    def test_off_ladder_direction_uses_all_rows(self):
        bnd = embed_mfold(MFoldBoundary(m=3, reduced=np.array([0.05])))
        assert lin._sector_rows(bnd, 768, [1]) == 768
        assert lin._sector_rows(bnd, 768, [0]) == 768

    def test_unresolved_direction_warns(self):
        with pytest.warns(AliasingWarning):
            gateaux_derivative(FourierBoundary.identity(), direction(40), 0.3, 0.5,
                               UnitGrid(64))

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            monomial_derivatives(FourierBoundary.identity(), [1], 0.3, 1.0, UnitGrid(64))
        with pytest.raises(ValueError):
            monomial_derivatives(FourierBoundary.identity(), [-2], 0.3, 0.5, UnitGrid(64))


class TestJacobian:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_disc_diagonal_matches_multipliers(self, alpha):
        for om in (0.0, omega_dispersion(alpha, 2), 0.9 * theta_alpha(alpha)):
            jac = numerical_jacobian(FourierBoundary.identity(), om, alpha,
                                     n_modes=12, check_conditioning=False)
            spec = multiplier_at_disc(alpha, om, 12)
            assert np.max(np.abs(np.diag(jac.entries) - spec.mult[:12])) < 1e-7
            off = jac.entries - np.diag(np.diag(jac.entries))
            assert np.max(np.abs(off)) < 1e-7

    def test_wide_truncation_agreement(self):
        # same agreement holds out to 32 modes
        alpha, om = 0.5, omega_dispersion(0.5, 2)
        jac = numerical_jacobian(FourierBoundary.identity(), om, alpha,
                                 n_modes=32, check_conditioning=False)
        spec = multiplier_at_disc(alpha, om, 32)
        assert np.max(np.abs(np.diag(jac.entries) - spec.mult[:32])) < 1e-7

    def test_critical_diagonal_matches_multipliers(self):
        om = omega_sqg(2)
        jac = numerical_jacobian(FourierBoundary.identity(), om, 1.0,
                                 n_modes=8, check_conditioning=False)
        spec = multiplier_at_disc(1.0, om, 8)
        assert np.max(np.abs(np.diag(jac.entries) - spec.mult[:8])) < 1e-7

    def test_mixed_omega_column_at_disc(self):
        # direction b_{m-1} responds in sine mode m with weight m/2
        for m in (2, 3, 5):
            col = mixed_omega_column(FourierBoundary.identity(), m - 1, 0.5,
                                     UnitGrid(128), 1e-6, 8)
            expect = np.zeros(8)
            expect[m - 1] = m / 2.0
            assert np.max(np.abs(col - expect)) < 1e-9

    def test_mfold_rows_decouple(self):
        m = 3
        bnd = embed_mfold(MFoldBoundary(m=m, reduced=np.array([0.04, 0.001])), 11)
        jac = numerical_jacobian(bnd, 0.3, 0.5, n_modes=12,
                                 check_conditioning=False)
        for col in range(12):
            if (col + 1) % m == 0:
                continue   # symmetric directions may hit symmetric rows
            for row_mode in (m, 2 * m, 3 * m):
                assert abs(jac.entries[row_mode - 1, col]) < 1e-10

    def test_step_domain(self):
        with pytest.raises(ValueError):
            numerical_jacobian(FourierBoundary.identity(), 0.3, 0.5, eps=1e-2)


class TestBifurcationScan:
    def test_locates_dispersion_value(self):
        a, m = 0.5, 2
        om = omega_dispersion(a, m)
        found = bifurcation_scan(a, m, (om - 0.05, om + 0.05))
        assert abs(found - om) < 1e-8

    def test_high_alpha_mode5(self):
        a, m = 0.9, 5
        om = omega_dispersion(a, m)
        found = bifurcation_scan(a, m, (om - 0.03, om + 0.03))
        assert abs(found - om) < 1e-7

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            bifurcation_scan(0.5, 2, (0.9, 1.0))

    def test_kernel_is_one_dimensional(self):
        a, m = 0.5, 3
        om = omega_dispersion(a, m)
        diag = kernel_diagnostics(a, m, om, n_modes=16)
        assert diag["n_small"] == 1
        assert diag["kernel_mass"] > 0.999999
        # removing the free column must leave a well-conditioned complement
        assert diag["reduced_condition"] < 1e4


class TestTransversality:
    def test_holds_for_subcritical(self):
        assert transversality_check(0.5, 3) is True

    def test_holds_for_critical(self):
        assert transversality_check(1.0, 2) is True

    def test_in_range_vector_fails(self):
        # a vector supported on a non-critical sine mode lies in the range
        fake = np.zeros(16)
        fake[0] = 1.0
        assert transversality_check(0.5, 3, column=fake) is False

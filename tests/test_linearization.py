import numpy as np
import pytest

import gsqg.linearization as lin
from gsqg import kernels
from gsqg.geometry import (AliasingWarning, FourierBoundary, MFoldBoundary, UnitGrid,
                           default_grid, embed_mfold, eval_deriv, eval_map)
from gsqg.kernels import _field_from_values, functional_G
from gsqg.linearization import (BracketError, bifurcation_scan, disc_jacobian,
                                gateaux_derivative, kernel_diagnostics,
                                monomial_derivatives, multiplier_at_disc,
                                transversality_check)
from gsqg.specfun import omega_dispersion, omega_sqg, theta_alpha

from dense_oracle import chord_ratio, contract, conv_constant
from fd_oracle import fd_column, fd_jacobian_matrix


def direction(mode: int, amp: float = 1.0) -> FourierBoundary:
    coeffs = np.zeros(mode + 1)
    coeffs[mode] = amp
    return FourierBoundary(coeffs)


def pass_omega_slope(bnd: FourierBoundary, mode: int, alpha: float, grid: UnitGrid,
                     n_rows: int) -> np.ndarray:
    """d/domega of the pass's b_mode column: G is affine in omega."""
    cols = [grid.sine_coeffs(monomial_derivatives(bnd, [mode], om, alpha, grid), n_rows)[0]
            for om in (1.0, 0.0)]
    return cols[0] - cols[1]


def _ratio_matrix(vals, w, diag):
    num = vals[:, None] - vals[None, :]
    den = w[:, None] - w[None, :]
    np.fill_diagonal(den, 1.0)
    out = num / den
    np.fill_diagonal(out, diag)
    return out


def gateaux_dense(bnd, h, omega, alpha, grid):
    """Reference Gateaux derivative: every N x N factor formed for the whole h.

    h is a FourierBoundary whose map less w is the direction, or the grid
    samples (h, h') of a direction, which may be complex.
    """
    w = grid.nodes
    phi = eval_map(bnd, grid)
    dphi = eval_deriv(bnd, grid)
    if isinstance(h, FourierBoundary):
        hv, dhv = eval_map(h, grid) - w, eval_deriv(h, grid) - 1.0
    else:
        hv, dhv = h
    hmat = chord_ratio(phi, w, dphi)
    kern = hmat ** (-alpha)
    s_bare = w * contract(dphi[None, :] * kern, alpha)
    a_vals = w * contract(dhv[None, :] * kern, alpha)
    phi_ratio = _ratio_matrix(phi, w, dphi)
    h_ratio = _ratio_matrix(hv, w, dhv)
    hpow = hmat ** (-(alpha + 2.0))
    b_vals = w * contract(phi_ratio * np.conj(h_ratio) * dphi[None, :] * hpow, alpha)
    c_vals = w * contract(np.conj(phi_ratio) * h_ratio * dphi[None, :] * hpow, alpha)
    wb = np.conj(w)
    quad_part = omega * (phi * wb * np.conj(dhv) + hv * wb * np.conj(dphi))
    sing_part = conv_constant(alpha) * (
        s_bare * wb * np.conj(dhv)
        + wb * np.conj(dphi) * (a_vals - 0.5 * alpha * (b_vals + c_vals)))
    return _field_from_values(np.imag(quad_part - sing_part), grid)


def every_row(size):
    """A _FormedRows that forms every target row and unfolds nothing."""
    return kernels._FormedRows(size, np.arange(size), np.zeros(size, dtype=bool))


def all_rows(bnd, modes, omega, alpha, grid):
    """The pass's F_h along h = w^(-n), every target row formed, one row per direction."""
    return lin._formed_fields(bnd, np.asarray(modes), omega, alpha, grid, grid.size).T


def _random_boundary(rng, n=6, norm=0.05):
    coeffs = rng.uniform(-1.0, 1.0, n)
    return FourierBoundary(coeffs * norm / max(1.0, np.abs(coeffs).sum()))


class TestMultipliers:
    def test_zero_mode_locations(self):
        a = 0.5
        mult = multiplier_at_disc(a, omega_dispersion(a, 3), 16)
        assert abs(mult[2]) < 1e-12
        assert all(abs(mult[n]) > 1e-4 for n in range(1, 17) if n != 2)

    def test_critical_case(self):
        mult = multiplier_at_disc(1.0, 2.0 / (3.0 * np.pi), 8)
        assert abs(mult[1]) < 1e-15

    def test_omega_zero_all_negative(self):
        mult = multiplier_at_disc(0.5, 0.0, 12)
        assert all(mult[n] < 0 for n in range(1, 13))
        assert mult[0] == 0.0

    def test_asymptotic_slope(self):
        # mult[n]/(n+1) -> (omega - theta)/2, approached like n^(alpha-1)
        a, om = 0.5, 0.2
        mult = multiplier_at_disc(a, om, 4000)
        limit = (om - theta_alpha(a)) / 2.0
        err1 = abs(mult[999] / 1000.0 - limit)
        err4 = abs(mult[3999] / 4000.0 - limit)
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
        # single and mixed directions, b_0, a non-unit lead; the pass unfolds
        # half the rows by the mirror
        directions = [direction(3), direction(0), FourierBoundary(rng.uniform(-1, 1, 5)),
                      FourierBoundary(np.array([0.0, 0.4]), lead=1.3),
                      FourierBoundary(np.zeros(3))]
        grid = UnitGrid(128)
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
        orders = np.array(modes) + 1
        # and the mirror halves them again
        grid = UnitGrid(768)
        assert kernels._sector_rows(bnd, grid.size, orders) == 256
        assert kernels._formed_rows(bnd, grid, orders).count == 129
        reduced = monomial_derivatives(bnd, modes, 0.34, 0.5, grid)
        monkeypatch.setattr(lin, "_formed_rows", lambda bnd, grid, orders: every_row(grid.size))
        full = monomial_derivatives(bnd, modes, 0.34, 0.5, grid)
        assert np.max(np.abs(reduced - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("alpha", [0.5, 0.999, 1.0])
    @pytest.mark.parametrize("grid", [UnitGrid(192)], ids=["plain"])
    def test_rotation_unfold_matches_all_rows(self, grid, alpha):
        # directions off the 3-fold ladder have no period but the grid's: the
        # pass forms half the rows (97 of 192) and mirrors the rest
        bnd = embed_mfold(MFoldBoundary(m=3, reduced=np.array([0.05, 0.004, -0.001])))
        modes = [-1, 0, 1, 2, 4, 7]
        assert kernels._formed_rows(bnd, grid, np.array(modes) + 1).count == 97
        got = monomial_derivatives(bnd, modes, 0.34, alpha, grid)
        ref = all_rows(bnd, modes, 0.34, alpha, grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [UnitGrid(64)], ids=["plain"])
    def test_aliased_directions_match_dense_oracle(self, grid, rng):
        # w^(-n) with n >= size/2 aliases on the grid, but the pass must still
        # return the derivative along the sampled h and h' = -n w^(-n-1), on
        # the mirror-unfolded rows too
        modes = [-1, 0, 32, 33, 50, 63, 64, 70]
        bnd = _random_boundary(rng)
        for alpha in (0.3, 0.9):
            with pytest.warns(AliasingWarning):
                fields = monomial_derivatives(bnd, modes, 0.27, alpha, grid)
            for n, got in zip(modes, fields):
                h = grid.nodes ** float(-n)
                ref = gateaux_dense(bnd, (h, -n * h / grid.nodes), 0.27, alpha, grid)
                scale = max(np.max(np.abs(ref.values)), 1e-12)
                assert np.max(np.abs(got - ref.values)) <= 1e-12 * scale, n

    def test_unresolved_direction_warns(self):
        with pytest.warns(AliasingWarning):
            gateaux_derivative(FourierBoundary.identity(), direction(40), 0.3, 0.5,
                               UnitGrid(64))

    def test_alpha_domain(self):
        # alpha = 1 is the subtracted kernel; alpha <= 0 and alpha > 1 have no functional
        disc = FourierBoundary.identity()
        assert monomial_derivatives(disc, [1], 0.3, 1.0, UnitGrid(64)).shape == (1, 64)
        for alpha in (0.0, -0.5, 1.0 + 1e-12, 1.5):
            with pytest.raises(ValueError):
                monomial_derivatives(disc, [1], 0.3, alpha, UnitGrid(64))
        with pytest.raises(ValueError):
            monomial_derivatives(disc, [-2], 0.3, 0.5, UnitGrid(64))

    @pytest.mark.parametrize("coeffs", [[0.0], [0.0, 0.04, -0.01, 0.005, 0.002, -0.001]],
                             ids=["disc", "perturbed"])
    def test_critical_matches_finite_differences(self, coeffs):
        # alpha = 1: the derivative of the subtracted kernel against central
        # differences of functional_G, leading coefficient included
        bnd, grid, modes = FourierBoundary(np.array(coeffs)), UnitGrid(128), [-1, 0, 1, 2, 4]
        got = grid.sine_coeffs(monomial_derivatives(bnd, modes, 0.3, 1.0, grid), 12)
        for row, mode in zip(got, modes):
            assert np.max(np.abs(row - fd_column(bnd, mode, 0.3, 1.0, grid, 1e-6, 12))) < 1e-10


class TestJacobian:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_disc_diagonal_matches_multipliers(self, alpha, monkeypatch):
        # on a grid twice the default one, so the match is no grid's accident
        grid = UnitGrid(208)
        monkeypatch.setattr(lin, "default_grid", lambda n: grid)
        for om in (0.0, omega_dispersion(alpha, 2), 0.9 * theta_alpha(alpha)):
            jac = disc_jacobian(alpha, om, 12)
            mult = multiplier_at_disc(alpha, om, 12)
            assert np.max(np.abs(jac - np.diag(mult[:12]))) < 1e-12
            fd = fd_jacobian_matrix(FourierBoundary.identity(), om, alpha, grid, 12)
            assert np.max(np.abs(jac - fd)) < 1e-7

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_disc_off_diagonals_are_rounding(self, alpha):
        # the pass forms 165 of the 328 rows at 40 modes; what leaks off the
        # diagonal reads 5.9e-14 of the largest entry at alpha = 0.05 and
        # below 4e-15 at 0.5 and 1
        jac = disc_jacobian(alpha, 0.0, 40)
        off = jac - np.diag(np.diag(jac))
        assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(np.diag(jac)))

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_cached_pass_plus_slope_matches_a_pass_at_omega(self, alpha):
        # the omega part of the disc Jacobian is the closed form omega (n+1)/2
        # on the diagonal; a pass at omega forms it through _mixed_slope
        n_modes = 12
        grid = default_grid(n_modes + 1)
        for om in (-1.0, 0.3, 5.0):
            fields = monomial_derivatives(FourierBoundary.identity(), range(n_modes), om,
                                          alpha, grid)
            ref = grid.sine_coeffs(fields, n_modes).T
            jac = disc_jacobian(alpha, om, n_modes)
            assert np.max(np.abs(jac - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cached_pass_stays_unchanged(self):
        first = disc_jacobian(0.5, 0.3, 8)
        kept = first.copy()
        first[:] = 7.0      # the caller's own array
        assert np.array_equal(disc_jacobian(0.5, 0.3, 8), kept)
        cached = lin._disc_at_rest(0.5, 8, default_grid(9))
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0

    def test_direction_monomials_are_cached_and_read_only(self):
        # formed once per (grid, modes) and shared by every Newton Jacobian on
        # that grid, so a caller must not be able to write into them
        grid, modes = UnitGrid(96), (-1, 0, 2, 5)
        inv, dhv, h_bar = lin._monomials(grid, modes)
        assert lin._monomials(UnitGrid(96), modes)[0] is inv
        n = np.array(modes)
        w = grid.nodes[:, None]
        assert np.max(np.abs(inv - w ** -(n + 1))) <= 1e-14
        assert np.max(np.abs(dhv + n * w ** -(n + 1))) <= 1e-13
        assert np.max(np.abs(h_bar - np.conj(w) ** -n)) <= 1e-14
        for arr in (inv, dhv, h_bar):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    @pytest.mark.parametrize("alpha", [1.0 - 1e-5, 1.0 - 1e-6, 1.0 - 1e-7])
    def test_disc_diagonal_near_the_critical_exponent(self, alpha):
        # moments formed as differences lost digits like 1e-16 / (1 - alpha):
        # 1.0e-8 off at 1 - 1e-7
        jac = disc_jacobian(alpha, 0.3, 8)
        assert np.max(np.abs(jac - np.diag(multiplier_at_disc(alpha, 0.3, 8)[:8]))) <= 1e-14

    def test_derivative_tends_to_the_critical_one_linearly(self):
        # (D(1 - eps) - D(1)) / eps is one slope down to eps = 1e-11: alpha = 1
        # is the limit of the same pass, not a branch
        bnd = embed_mfold(MFoldBoundary(m=3, reduced=np.array([0.05, -0.004, 3e-4])))
        grid = UnitGrid(256)
        at_one = monomial_derivatives(bnd, [2, 5], 0.3, 1.0, grid)
        slopes = [(monomial_derivatives(bnd, [2, 5], 0.3, 1.0 - eps, grid) - at_one) / eps
                  for eps in (1e-5, 1e-7, 1e-9, 1e-11)]
        scale = np.max(np.abs(slopes[0]))
        assert scale > 0.1
        for slope in slopes[1:]:
            assert np.max(np.abs(slope - slopes[0])) <= 0.01 * scale

    def test_wide_truncation_agreement(self):
        # same agreement holds out to 32 modes
        alpha, om = 0.5, omega_dispersion(0.5, 2)
        jac = disc_jacobian(alpha, om, 32)
        mult = multiplier_at_disc(alpha, om, 32)
        assert np.max(np.abs(np.diag(jac) - mult[:32])) < 1e-11

    def test_critical_diagonal_matches_multipliers(self, monkeypatch):
        om, grid = omega_sqg(2), UnitGrid(144)
        monkeypatch.setattr(lin, "default_grid", lambda n: grid)
        jac = disc_jacobian(1.0, om, 8)
        mult = multiplier_at_disc(1.0, om, 8)
        assert np.max(np.abs(jac - np.diag(mult[:8]))) < 1e-12
        fd = fd_jacobian_matrix(FourierBoundary.identity(), om, 1.0, grid, 8)
        assert np.max(np.abs(jac - fd)) < 1e-7

    def test_omega_column_at_disc(self):
        # the pass's omega slope along b_(m-1) is the closed form (m/2) e_(m-1)
        # that bifurcation_scan and kernel_diagnostics take: sine mode m alone
        n_modes = 16
        grid = default_grid(n_modes + 1)
        for alpha in (0.3, 0.5, 1.0):
            for m in (2, 3, 5):
                slope = pass_omega_slope(FourierBoundary.identity(), m - 1, alpha, grid, n_modes)
                closed = np.zeros(n_modes)
                closed[m - 1] = m / 2.0
                assert np.max(np.abs(slope - closed)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_mixed_slope_matches_finite_differences(self, alpha):
        # G is affine in omega: one central difference in omega of the
        # finite-difference direction column is the mixed derivative
        grid = UnitGrid(128)
        for bnd in (FourierBoundary.identity(),
                    FourierBoundary([0.0, 0.04, -0.01, 0.005, 0.002, -0.001])):
            for mode in (1, 2, 4):
                fd = (fd_column(bnd, mode, 0.5, alpha, grid, 1e-6, 12)
                      - fd_column(bnd, mode, -0.5, alpha, grid, 1e-6, 12))
                col = pass_omega_slope(bnd, mode, alpha, grid, 12)
                assert np.max(np.abs(col - fd)) < 1e-9

    def test_mfold_rows_decouple(self):
        m, grid = 3, UnitGrid(208)
        # b_0 .. b_11, zero-padded past the m-fold modes
        coeffs = embed_mfold(MFoldBoundary(m=m, reduced=[0.04, 0.001])).coeffs
        bnd = FourierBoundary(np.pad(coeffs, (0, 12 - len(coeffs))))
        jac = grid.sine_coeffs(monomial_derivatives(bnd, range(12), 0.3, 0.5, grid), 12).T
        assert np.max(np.abs(jac - fd_jacobian_matrix(bnd, 0.3, 0.5, grid, 12))) < 1e-7
        for col in range(12):
            if (col + 1) % m == 0:
                continue   # symmetric directions may hit symmetric rows
            for row_mode in (m, 2 * m, 3 * m):
                assert abs(jac[row_mode - 1, col]) < 1e-10


class TestBifurcationScan:
    def test_locates_dispersion_value(self):
        # the root of the affine entry lands on the closed form to rounding
        for a, m in ((0.5, 2), (0.5, 3), (0.5, 4), (0.5, 5), (1.0, 3)):
            om = omega_dispersion(a, m)
            found = bifurcation_scan(a, m, (om - 0.05, om + 0.05))
            assert abs(found - om) < 1e-14

    def test_high_alpha_mode5(self):
        a, m = 0.9, 5
        om = omega_dispersion(a, m)
        found = bifurcation_scan(a, m, (om - 0.03, om + 0.03))
        assert abs(found - om) < 1e-13

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            bifurcation_scan(0.5, 2, (0.9, 1.0))

    def test_kernel_is_one_dimensional(self):
        a, m = 0.5, 3
        om = omega_dispersion(a, m)
        diag = kernel_diagnostics(a, m, om, n_modes=16)
        assert diag["n_small"] == 1
        assert diag["kernel_mass"] > 0.999999
        # the kernel is one-dimensional with room to spare: the next singular
        # value stays well clear of zero
        sv = diag["singular_values"]
        assert sv[-2] >= 1e-4 * sv[0]


class TestTransversality:
    def test_holds_for_subcritical(self):
        assert transversality_check(0.5, 3) is True

    def test_holds_for_critical(self):
        assert transversality_check(1.0, 2) is True

    def test_in_range_vector_fails(self):
        # negative control: at omega_(m+1) the kernel is simple but sits on
        # b_m, so the omega column (m/2) e_(m-1) along b_(m-1) lies in the range
        for alpha in (0.05, 0.5, 1.0):
            for m in (2, 3, 5):
                diag = kernel_diagnostics(alpha, m, omega_dispersion(alpha, m + 1))
                assert diag["n_small"] == 1
                assert diag["transversal"] is False

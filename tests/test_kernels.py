import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from gsqg import continuation, kernels, linearization, oracles
from gsqg.geometry import FourierBoundary, UnitGrid, embed_mfold, eval_deriv, eval_map
from gsqg.kernels import (SelfIntersectionError, ellipse_fourth_coefficient,
                          ellipse_moment_ratio, functional_G, s_phi,
                          singular_moment_I, singular_moment_J, singular_moment_Z,
                          sqg_moment_1, sqg_moment_2)
from gsqg.linearization import monomial_derivatives
from gsqg.specfun import _ratio_ladder, conv_constant, gamma_fn, theta_alpha

from dense_oracle import (critical_residual_dense, eval_deriv_at, eval_map_at, s_phi_dense,
                          sqg_layer_dense)

R_HALF = gamma_fn(0.5) / gamma_fn(0.75) ** 2   # moment prefactor at alpha = 1/2


def s_phi_trapezoid(bnd: FourierBoundary, alpha: float, targets: np.ndarray,
                    n_sources: int = 8192) -> np.ndarray:
    """Reference S(phi) at unit-circle targets, independent of the spectral path.

    Midpoint-offset trapezoid with the constant mode of the singular weight
    subtracted and restored through its exact integral
    gamma(1-a) / gamma^2(1-a/2), so only the smooth remainder is sampled.
    """
    tau = np.exp(2j * np.pi * (np.arange(n_sources) + 0.5) / n_sources)
    phi_s, dphi_s = eval_map_at(bnd, tau), eval_deriv_at(bnd, tau)
    phi_t, dphi_t = eval_map_at(bnd, targets), eval_deriv_at(bnd, targets)
    restore = gamma_fn(1.0 - alpha) / gamma_fn(1.0 - alpha / 2.0) ** 2
    out = np.empty(len(targets), dtype=complex)
    for i, (wt, pt, dpt) in enumerate(zip(targets, phi_t, dphi_t)):
        chord = np.abs(pt - phi_s) / np.abs(wt - tau)
        g = dphi_s * tau * chord ** (-alpha)
        g0 = dpt * wt * np.abs(dpt) ** (-alpha)
        kern = np.abs(wt - tau) ** (-alpha)
        out[i] = np.mean((g - g0) * kern) + g0 * restore
    return conv_constant(alpha) * out


class TestMomentsClosedForm:
    def test_I0_value(self):
        # prefactor * (a/2)_1/(1-a/2)_1 = prefactor * a/(2-a)
        a = 0.5
        assert singular_moment_I(a, 0) == pytest.approx(R_HALF * a / (2.0 - a), rel=1e-14)

    def test_I_vanishes_with_alpha(self):
        # constant kernel integrates powers of tau to zero over the circle
        for n in range(4):
            assert abs(singular_moment_I(1e-9, n)) < 1e-8

    def test_I_ratio_recurrence(self):
        a = 0.35
        for n in range(31):
            got = singular_moment_I(a, n + 1) / singular_moment_I(a, n)
            expect = (a / 2.0 + n + 1) / (1.0 - a / 2.0 + n + 1)
            assert got == pytest.approx(expect, rel=1e-13)

    def test_J0_zero(self):
        for a in (0.25, 0.5, 0.75):
            assert singular_moment_J(a, 0) == 0.0

    def test_Z1_value(self):
        for a in (0.25, 0.5, 0.75):
            pref = gamma_fn(1.0 - a) / gamma_fn(1.0 - a / 2.0) ** 2
            assert singular_moment_Z(a, 1) == pytest.approx(-pref, rel=1e-14)


class TestMomentsVsMpmath:
    # J's gap 1 - (2 + a/2)_n / (2 - a/2)_n is -a L_n, a sum of positive terms;
    # formed as a difference it read 8.6e-14 at alpha = 0.01 and 4.0e-12 at 1e-4.
    # I's first ratio factor (a/2)/(1 - a/2) tends to 0 with a: as exp(log1p)
    # it read 3.8e-11 off at a = 1e-6, as a direct quotient 1.8e-15
    @pytest.mark.parametrize("alpha", [1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.5, 0.999])
    def test_chord_moment_keeps_its_digits(self, alpha):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.mpf(alpha)
            pref = mp.gamma(1 - a) / mp.gamma(1 - a / 2) ** 2
            for n in range(17):
                exact = pref * mp.rf(a / 2, n + 1) / mp.rf(1 - a / 2, n + 1)
                assert abs(singular_moment_I(alpha, n) - exact) <= 4e-15 * abs(exact), n
                if n == 0:
                    continue
                exact = -pref / 2 * (1 - mp.rf(a / 2, n) / mp.rf(-a / 2, n))
                assert abs(singular_moment_Z(alpha, n) - exact) <= 4e-15 * abs(exact), n
                exact = (pref * (1 + a / 2) / (2 - a)
                         * (1 - mp.rf(2 + a / 2, n) / mp.rf(2 - a / 2, n)))
                assert abs(singular_moment_J(alpha, n) - exact) <= 2e-15 * abs(exact), n


class TestMomentsVsQuadrature:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_power_moments(self, alpha):
        for n in range(17):
            ref = oracles.moment_I_quad(alpha, n)
            assert abs(singular_moment_I(alpha, n) - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_chord_moments(self, alpha):
        for n in range(17):
            ref = oracles.moment_J_quad(alpha, n)
            assert abs(singular_moment_J(alpha, n) - ref) <= 1e-8 * max(abs(ref), 1.0)
            ref = oracles.moment_Z_quad(alpha, n)
            assert abs(singular_moment_Z(alpha, n) - ref) <= 1e-8 * max(abs(ref), 1.0)

    def test_single_point_oracle(self):
        assert singular_moment_I(0.5, 0) == pytest.approx(
            oracles.moment_I_quad(0.5, 0), abs=1e-10)

    def test_critical_moments(self):
        assert sqg_moment_1(1) == pytest.approx(-2.0 / np.pi, rel=1e-15)
        assert sqg_moment_2(1) == pytest.approx(2.0 / (3.0 * np.pi), rel=1e-15)
        for n in range(1, 17):
            assert sqg_moment_1(n) == pytest.approx(oracles.sqg_moment_1_quad(n), abs=1e-10)
            assert sqg_moment_2(n) == pytest.approx(oracles.sqg_moment_2_quad(n), abs=1e-10)


def _complex_mean(fn) -> complex:
    """The moment oracles' former mean: real and imaginary parts by separate passes."""
    parts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for part in (np.real, np.imag):
            val, _ = quad(lambda t: part(fn(t)), 0.0, 2.0 * np.pi, points=[np.pi],
                          epsabs=1e-12, epsrel=1e-12, limit=400)
            parts.append(val)
    return (parts[0] + 1j * parts[1]) / (2.0 * np.pi)


MOMENT_ORACLES = {
    "I": lambda a, n: oracles.moment_I_quad(a, n),
    "J": lambda a, n: oracles.moment_J_quad(a, n),
    "Z": lambda a, n: oracles.moment_Z_quad(a, n),
    "sqg1": lambda a, n: oracles.sqg_moment_1_quad(n),
    "sqg2": lambda a, n: oracles.sqg_moment_2_quad(n),
}


class TestMomentOracles:
    def test_one_quadrature_pass_per_value(self, monkeypatch):
        # each value is one integrand call, on the whole node vector of its rule
        calls = []
        original = oracles._mean_integral

        def recording(fn, alpha, n):
            return original(lambda t: calls.append(len(t)) or fn(t), alpha, n)
        monkeypatch.setattr(oracles, "_mean_integral", recording)
        for oracle in MOMENT_ORACLES.values():
            calls.clear()
            oracle(0.4321, 3)
            assert calls == [oracles._node_count(3)]

    @pytest.mark.parametrize("alpha, n", [(0.25, 1), (0.4321, 5), (0.75, 16)])
    def test_imaginary_part_is_rounding(self, monkeypatch, alpha, n):
        # the half period relies on every moment being real: over the full
        # period the imaginary part integrates to rounding
        imag = []

        def complex_form(fn, *_):
            val = _complex_mean(fn)
            imag.append(val.imag)
            return val.real
        monkeypatch.setattr(oracles, "_mean_integral", complex_form)
        for oracle in MOMENT_ORACLES.values():
            oracle(alpha, n)
        assert len(imag) == len(MOMENT_ORACLES)
        assert max(map(abs, imag)) < 1e-12

    # every warning fails the test, RuntimeWarning included
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99,
                                       0.999, 0.999999])
    def test_quadpack_raises_no_warning(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run_every_oracle(alpha)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999])
    def test_doubling_the_nodes_moves_no_value(self, monkeypatch, alpha):
        # every rule has converged: twice the nodes moves each value by
        # rounding only, measured against the mean of |integrand|.  That
        # rounding reads up to 1.5e-14 (J and Z at alpha = 0.999, n >= 117)
        gaps = []
        original = oracles._mean_integral

        def doubled(fn, a, n):
            value = original(fn, a, n)
            t, w = oracles._rule(a, 2 * oracles._node_count(n))
            f = fn(t)
            gaps.append((abs(w @ f.real - value), w @ np.abs(f)))
            return value
        monkeypatch.setattr(oracles, "_mean_integral", doubled)
        for n in range(129):
            for oracle in MOMENT_ORACLES.values():
                oracle(alpha, n)
        assert len(gaps) == 129 * len(MOMENT_ORACLES)
        for gap, scale in gaps:
            assert gap <= 3e-14 * scale


def _run_every_oracle(alpha: float) -> None:
    """Every oracle at every n <= 16 it is defined for (n >= 1 at alpha = 1)."""
    for name, oracle in MOMENT_ORACLES.items():
        for n in range(0 if name in ("I", "J", "Z") else 1, 17):
            oracle(alpha, n)


MPMATH_ALPHAS = [0.05, 0.3, 0.5, 0.7, 0.95, 0.999]


@functools.lru_cache(maxsize=None)
def _mp_node(alpha: float, u):
    """exp(it), 2 sin(t/2) and the weight (2 sin(t/2))^(-alpha) dt/du at t = pi u^p."""
    mp = pytest.importorskip("mpmath")
    a = mp.mpf(alpha)
    p = 1 / (1 - a)
    t = mp.pi * u ** p
    chord = 2 * mp.sin(t / 2)
    return mp.expj(t), chord, chord ** -a * p * u ** (p - 1)


def mpmath_moment(name: str, alpha: float, n: int):
    """30-digit contour mean of the defining integrand of oracle `name`.

    The mean is (1/pi) * integral over (0, pi) of the real part.  For I, J
    and Z the substitution t = pi u^(1/(1-alpha)) absorbs the t^(-alpha)
    endpoint singularity into a smooth integrand in u; a plain tanh-sinh
    pass over (0, pi) is 2.1e-2 off for I at alpha = 0.95.  The critical
    integrands are bounded and need no substitution.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        if name in ("sqg1", "sqg2"):
            def f(t):
                z, chord = mp.expj(t), 2 * mp.sin(t / 2)
                if name == "sqg1":
                    return mp.re((z ** n - 1) / chord)
                return mp.re((z - 1) ** 2 * (z ** n - 1) / chord ** 3)
            return mp.quad(f, [0, mp.pi]) / mp.pi

        def g(u):
            z, chord, weight = _mp_node(alpha, u)
            if name == "I":
                val = z ** (n + 1)
            elif name == "J":
                val = (1 - z) * (1 - z ** n) * z / chord ** 2
            else:
                zc = mp.conj(z)
                val = (1 - zc) * (1 - zc ** n) * z / chord ** 2
            return mp.re(val) * weight
        return mp.quad(g, [0, 1])


@pytest.mark.slow
class TestMomentOraclesVsMpmath:
    """Each oracle against a second, 30-digit evaluation of the same integral (~3 s)."""

    @pytest.mark.parametrize("alpha", MPMATH_ALPHAS)
    def test_power_and_chord_moments(self, alpha):
        # the oracles read at most 2.9e-13 at alpha = 0.05, 2.4e-14 at 0.3
        # and 1.9e-15 at 0.999
        tol = 1e-12
        for name in ("I", "J", "Z"):
            for n in (0, 1, 3, 16):
                ref = mpmath_moment(name, alpha, n)
                got = MOMENT_ORACLES[name](alpha, n)
                assert abs(got - ref) <= tol * abs(ref), (name, n)

    def test_critical_moments(self):
        for name in ("sqg1", "sqg2"):
            for n in (1, 3, 16):
                ref = mpmath_moment(name, 1.0, n)
                assert abs(MOMENT_ORACLES[name](1.0, n) - ref) <= 1e-12 * abs(ref), (name, n)


class TestLayerPotential:
    def test_disc_value(self):
        # S(Id) = theta_alpha * w exactly
        for a in (0.2, 0.5, 0.8):
            g = UnitGrid(64)
            vals = s_phi(FourierBoundary.identity(), a, g)
            assert np.max(np.abs(vals - theta_alpha(a) * g.nodes)) < 1e-13

    def test_spectral_vs_trapezoid(self):
        bnd = FourierBoundary.ellipse(0.3)
        g = UnitGrid(512)
        spectral = s_phi(bnd, 0.5, g)
        pick = [3, 57, 200, 401]
        fallback = s_phi_trapezoid(bnd, 0.5, g.nodes[pick], n_sources=8192)
        assert np.max(np.abs(fallback - spectral[pick])) < 1e-6

    def test_real_fourier_coefficients(self, rng):
        # coefficients of conj(w) * S(phi) are real for real-coefficient maps
        bnd = FourierBoundary(0.03 * rng.standard_normal(5))
        g = UnitGrid(256)
        vals = np.conj(g.nodes) * s_phi(bnd, 0.5, g)
        coeffs = g.mode_coeffs(vals)
        assert np.max(np.abs(coeffs.imag)) < 1e-12

    def test_near_self_intersection_raises(self):
        # a nearly degenerate ellipse collapses the chord ratio across the slit
        bnd = FourierBoundary.ellipse(1.0 - 2e-9)
        with pytest.raises(SelfIntersectionError):
            s_phi(bnd, 0.5, UnitGrid(64))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("consumer", ["functional_G", "monomial_derivatives"])
    def test_near_self_intersection_is_typed_before_any_log(self, consumer, alpha):
        # a log(0) or overflow warning would surface as an error, not a NaN
        bnd = FourierBoundary.ellipse(1.0 - 2e-9)
        grid = UnitGrid(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SelfIntersectionError, match="chord ratio fell to"):
                if consumer == "functional_G":
                    functional_G(0.3, bnd, alpha, grid)
                else:
                    monomial_derivatives(bnd, [1, 3], 0.3, alpha, grid)


class TestFunctional:
    def test_disc_annihilation(self):
        g = UnitGrid(128)
        disc = FourierBoundary.identity()
        for a in np.linspace(0.1, 0.9, 9):
            for om in (-1.0, -0.3, 0.0, 0.4, 1.0):
                assert functional_G(om, disc, float(a), g).sup_norm < 1e-12

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6])
    def test_disc_annihilation_near_the_euler_end(self, alpha):
        # the weight row's diagonal is about -2/alpha; left in the row sums its
        # rounding read 9.5e-12 at alpha = 1e-6 (5.2e-14 with it held apart)
        g = UnitGrid(128)
        for om in (-0.5, 0.3):
            assert functional_G(om, FourierBoundary.identity(), alpha, g).sup_norm < 1e-12

    def test_residual_is_pure_sine(self, rng):
        # G is odd by the mirror of the grid, which unfolds half the rows
        bnd = FourierBoundary(0.03 * rng.standard_normal(6))
        grid = UnitGrid(256)
        fld = functional_G(0.4, bnd, 0.5, grid)
        assert np.max(np.abs(grid.mode_coeffs(fld.values).real)) < 1e-12
        # sine expansion reproduces the sampled values
        theta = fld.grid.angles
        rebuilt = sum(-2.0 * gn * np.sin((k + 1) * theta)
                      for k, gn in enumerate(fld.sine_coeffs))
        assert np.max(np.abs(rebuilt - fld.values)) < 1e-12

    def test_ellipse_mode4_obstruction(self):
        vals = [ellipse_fourth_coefficient(om, 0.3, 0.5) for om in np.linspace(-1.0, 1.0, 11)]
        # omega-independent and bounded away from zero
        assert np.ptp(vals) < 1e-14
        assert min(abs(v) for v in vals) > 2.0e-3   # regression floor, first run 2.2275e-3

    def test_ellipse_mode4_all_alphas(self):
        for a in (0.25, 0.75):
            assert abs(ellipse_fourth_coefficient(0.1, 0.3, a)) > 1e-4

    def test_disc_reduces_to_zero_coefficient(self):
        assert ellipse_fourth_coefficient(0.3, 1e-12, 0.5) == pytest.approx(0.0, abs=1e-13)

    def test_moment_ratio_closed_form(self):
        assert ellipse_moment_ratio(0.5) == pytest.approx(
            (2.5 * 4.5) / (3.5 * 5.5), rel=1e-15)
        assert ellipse_moment_ratio(0.5) == pytest.approx(0.5844155844, abs=1e-9)
        # alpha = 1 is the only degenerate value where the obstruction closes
        assert ellipse_moment_ratio(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_moment_ratio_vs_quadrature(self):
        for a in (0.25, 0.5, 0.75):
            quad_ratio = oracles.moment_I_quad(a, 2) / oracles.moment_I_quad(a, 0)
            assert ellipse_moment_ratio(a) == pytest.approx(quad_ratio, abs=1e-10)


class TestCriticalFunctional:
    def test_disc_annihilation(self):
        g = UnitGrid(128)
        for om in (-0.5, 0.0, 0.7):
            assert functional_G(om, FourierBoundary.identity(), 1.0, g).sup_norm < 1e-13

    def test_ellipse_mode4_obstruction(self):
        g = UnitGrid(256)
        vals = [functional_G(om, FourierBoundary.ellipse(0.3), 1.0, g).sine_coeff(4)
                for om in np.linspace(-1.0, 1.0, 9)]
        assert np.ptp(vals) < 1e-13
        assert min(abs(v) for v in vals) > 1e-3

    def test_residual_is_pure_sine(self):
        bnd = embed_mfold(2, np.array([0.05, 0.002]))
        grid = UnitGrid(256)
        values = functional_G(0.3, bnd, 1.0, grid).values
        assert np.max(np.abs(grid.mode_coeffs(values).real)) < 1e-12


# ---------------------------------------------------------------------------
# Reference product quadrature by FFT rows: every target row of the smooth
# factor is expanded in tau by its own FFT and each mode is summed against the
# exact moment times w_i^(k+1) through an explicit N x N phase matrix, over all
# rows.  It shares no contraction code with the circulant weights in kernels.


def _oracle_rows(values, grid, ladder, power_shift):
    m = grid.size
    k = np.fft.fftfreq(m, d=1.0 / m)
    coeffs = np.fft.fft(values, axis=-1) / m
    phase = np.exp(1j * np.outer(grid.angles, k + power_shift))
    return np.einsum("ik,ik,k->i", coeffs, phase, ladder(k))


def _oracle_chord(bnd, grid):
    w, phi, dphi = grid.nodes, eval_map(bnd, grid), eval_deriv(bnd, grid)
    num = np.abs(phi[:, None] - phi[None, :])
    den = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(num, np.abs(dphi))
    np.fill_diagonal(den, 1.0)
    return w, phi, dphi, num / den


def oracle_s_phi(bnd, alpha, grid):
    w, phi, dphi, h = _oracle_chord(bnd, grid)
    pref = gamma_fn(1.0 - alpha) / gamma_fn(1.0 - alpha / 2.0) ** 2
    p_max = grid.size // 2 + 1
    ratios = _ratio_ladder(alpha / 2.0, 1.0 - alpha / 2.0, p_max)
    ladder = lambda k: pref * ratios[np.abs(k + 1.0).astype(int)]
    return conv_constant(alpha) * _oracle_rows(dphi[None, :] * h ** (-alpha),
                                               grid, ladder, 1.0)


def oracle_residual(omega, bnd, alpha, grid):
    """Residual samples of functional_G: plain moments (alpha < 1) or subtracted (alpha = 1)."""
    w, phi, dphi, h = _oracle_chord(bnd, grid)
    if alpha == 1.0:
        p = w * dphi
        sig = np.concatenate([[0.0], np.cumsum(1.0 / (2.0 * np.arange(grid.size // 2) + 1.0))])
        ladder = lambda k: sig[np.abs(k).astype(int)]
        s_vals = -(2.0 / math.pi) * _oracle_rows((p[None, :] - p[:, None]) / h,
                                                 grid, ladder, 0.0)
    else:
        s_vals = oracle_s_phi(bnd, alpha, grid)
    return np.imag((omega * phi - s_vals) * np.conj(w) * np.conj(dphi))


def _oracle_boundary(kind, rng):
    if kind == "asym":
        return FourierBoundary(0.03 * rng.standard_normal(7))
    return embed_mfold(kind, [0.05, -0.004, 3e-4])


class TestCirculantQuadrature:
    @pytest.mark.parametrize("size", [64, 256, 272, 768, 1024])
    @pytest.mark.parametrize("kind", ["asym", 2, 3, 4])
    def test_matches_fft_row_oracle(self, size, kind, rng):
        bnd = _oracle_boundary(kind, rng)
        grid = UnitGrid(size)
        for alpha in (0.3, 0.5, 0.9, 1.0):
            ref = oracle_residual(0.3, bnd, alpha, grid)
            fld = functional_G(0.3, bnd, alpha, grid)
            assert np.max(np.abs(fld.sine_coeffs - grid.sine_coeffs(ref))) <= 1e-13
            # and the cosine parts, which the oracle forms from every row
            assert np.max(np.abs(grid.mode_coeffs(fld.values - ref).real)) <= 1e-13
            if alpha < 1.0:
                assert np.max(np.abs(s_phi(bnd, alpha, grid)
                                     - oracle_s_phi(bnd, alpha, grid))) <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("grid", [UnitGrid(256), UnitGrid(258)], ids=["plain", "258"])
    @pytest.mark.parametrize("kind", ["asym", 4])
    def test_chord_ratio_matches_extended_precision(self, kind, grid, rng):
        # (phi_i - phi_j) |R|^2_ij, the chord quotient of the derivative pass,
        # against the samples' difference over |w_i - w_j|^2 at the exact node
        # angles, in long double; the circulant reads within 6.2e-16, the
        # division by |w_i - w_j|^2 of rounded nodes 6.7e-14 to 9.0e-14
        bnd = _oracle_boundary(kind, rng)
        pi = 4 * np.arctan(np.longdouble(1))
        theta = 2 * pi * np.arange(grid.size, dtype=np.longdouble) / grid.size
        w = np.cos(theta) + 1j * np.sin(theta)
        phi = eval_map(bnd, grid)
        exact = phi.astype(np.clongdouble)
        ref = (exact[:, None] - exact) / (np.abs(w[:, None] - w) ** 2 + np.eye(grid.size))
        got = np.subtract(phi[:, None], phi) * kernels._inverse_chords(grid.size)
        off = ~np.eye(grid.size, dtype=bool)
        assert np.max(np.abs(got - ref)[off] / np.abs(ref)[off]) <= 1e-15

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("size", [256, 1024])
    def test_inverse_chord_squares_match_extended_precision(self, size):
        # |R_k|^2 = 1 / (4 sin^2(pi k / size)) from the angle below pi/2 reads
        # within 4.7e-16; from the angle near pi it read 1.3e-14 (256) and
        # 1.1e-13 (1024) off for k near size
        pi = 4 * np.arctan(np.longdouble(1))
        k = np.arange(1, size, dtype=np.longdouble)
        ref = 0.25 / np.sin(pi * k / size) ** 2
        got = kernels._inverse_chords(size)[1:, 0]      # column 0 of the circulant is the row
        assert np.max(np.abs(got - ref) / ref) <= 5e-16

    def test_cached_rows_and_weights_are_read_only(self):
        # formed once per period and per (grid size, alpha) and shared by every
        # later pass, so a caller must not be able to write into them
        bnd, grid = embed_mfold(3, [0.05, -0.004]), UnitGrid(384)
        formed = kernels._formed_rows(bnd, grid)
        assert formed is kernels._formed_rows(bnd, grid)
        for arr in (formed.source, formed.mirrored):
            with pytest.raises(ValueError):
                arr[0] = 1
        weights, k_0 = kernels._circulant_weights(384, 0.5)
        with pytest.raises(ValueError):
            weights[0, 1] = 0.0
        diagonal = kernels._diagonal_weight(384, 0.5)
        assert isinstance(diagonal, float)
        assert diagonal == conv_constant(0.5) * kernels._moment_prefactor(0.5) + k_0

    def test_sector_rows_follow_the_coefficient_ladder(self):
        bnd = embed_mfold(3, [0.05, -0.004, 3e-4])
        assert kernels._sector_rows(bnd, 768) == 256
        assert kernels._sector_rows(bnd, 768, [0, 3, 6, 12]) == 256    # the lead and rungs
        assert kernels._sector_rows(bnd, 1024) == 1024     # 3 does not divide 1024
        assert kernels._sector_rows(FourierBoundary.identity(), 64) == 1
        assert kernels._sector_rows(FourierBoundary.identity(), 64, [4, 8]) == 16
        assert kernels._sector_rows(FourierBoundary.ellipse(0.3), 64) == 32
        assert kernels._sector_rows(FourierBoundary.ellipse(0.3), 64, [4]) == 32

    def test_off_ladder_coefficient_falls_back_to_all_rows(self):
        rungs = embed_mfold(4, [0.05, -0.004, 3e-4])
        coeffs = rungs.coeffs.copy()
        coeffs[4] = 1e-14      # n + 1 = 5 breaks the 4-fold ladder
        bnd = FourierBoundary(coeffs)
        grid = UnitGrid(256)
        assert kernels._sector_rows(bnd, grid.size) == grid.size
        assert np.max(np.abs(s_phi(bnd, 0.5, grid) - oracle_s_phi(bnd, 0.5, grid))) <= 1e-13
        # and so does a direction off the ladder, w^(-4) of order 5
        assert kernels._sector_rows(rungs, grid.size, [4, 8]) == 64
        assert kernels._sector_rows(rungs, grid.size, [4, 5]) == grid.size


@pytest.fixture
def formed_rows(monkeypatch):
    """The row count of every kernel block a pass forms, in order."""
    counts = []
    blocks = kernels._kernel_blocks

    def counting(*args):
        for start, stop, h2, kern in blocks(*args):
            counts.append(stop - start)
            yield start, stop, h2, kern

    monkeypatch.setattr(kernels, "_kernel_blocks", counting)
    monkeypatch.setattr(linearization, "_kernel_blocks", counting)
    return counts


class TestBlockedPass:
    """The blocked pass against the whole-matrix formulas of dense_oracle."""

    # grid 200 forms 101 (asym) or 26 (m = 4) rows, and grid 1024 forms 513 =
    # 8 x 64 + 1 or 129 = 2 x 64 + 1 rows in 64-row blocks, a partial last
    # block
    @pytest.mark.parametrize("grid", [UnitGrid(200), UnitGrid(512), UnitGrid(1024)],
                             ids=["200", "512", "1024"])
    @pytest.mark.parametrize("kind", ["asym", 4])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.97, 1.0])
    def test_matches_dense_reference(self, alpha, kind, grid, rng):
        bnd = _oracle_boundary(kind, rng)
        if alpha == 1.0:
            layer = sqg_layer_dense(bnd, grid)
            got = functional_G(0.3, bnd, 1.0, grid).values
            ref = critical_residual_dense(0.3, bnd, grid)
        else:
            layer = got = s_phi(bnd, alpha, grid)
            ref = s_phi_dense(bnd, alpha, grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(layer))

    def test_row_count_off_the_block_size(self, formed_rows):
        bnd = _oracle_boundary("asym", np.random.default_rng(1))
        assert kernels._sector_rows(bnd, 200) == 200
        assert kernels._sector_rows(_oracle_boundary(4, None), 200) == 50
        assert kernels._formed_rows(bnd, UnitGrid(200)).count == 101
        assert kernels._formed_rows(_oracle_boundary(4, None), UnitGrid(200)).count == 26
        # a direction of another order takes the pass to the common period
        assert kernels._formed_rows(_oracle_boundary(4, None), UnitGrid(200), [2]).count == 51
        # blocks are sized by entries: a small pass is one block, and grid
        # 1024 keeps 64-row blocks, whose last one is partial
        for size, rows in ((200, [101]), (256, [129]), (1024, [64] * 8 + [1])):
            formed_rows.clear()
            functional_G(0.3, bnd, 0.5, UnitGrid(size))
            assert formed_rows == rows

    def test_traced_peak_stays_blocked(self):
        # the whole-matrix residual pass peaked at 8.75 MB here; 64-row blocks
        # stay near 2.5 MB.  The Jacobian pass over 15 rung directions stays
        # near 7.5 MB, below one complex 1024 x 1024 temporary (16.8 MB)
        bnd = _oracle_boundary(4, None)
        grid = UnitGrid(1024)
        assert kernels._sector_rows(bnd, grid.size, 4 * np.arange(2, 17)) == 256
        reduced = np.array([0.05, -0.004, 3e-4] + [0.0] * 13)
        passes = ((lambda: functional_G(0.3, bnd, 0.5, grid), 4e6),
                  (lambda: continuation._mfold_jacobian(0.3, reduced, 0.5, 4, grid, 16), 12e6))
        for run, bound in passes:
            run()       # fill the cached weight and chord views
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestMirroredRows:
    """The mirrored sector: the rows the kernel blocks form, the
    identity that unfolds the rest, and a sector of odd period."""

    # grids of 256 nodes per fold: each sector holds 256 rows
    @pytest.mark.parametrize("m, size", [(2, 512), (3, 768), (4, 1024)])
    def test_residual_and_jacobian_form_half_the_sector(self, m, size, formed_rows):
        reduced, grid = np.array([0.03, 1e-3, 1e-4]), UnitGrid(size)
        continuation._equations(0.3, reduced, 0.5, m, grid, 16)
        assert sum(formed_rows) == 129
        formed_rows.clear()
        continuation._mfold_jacobian(0.3, reduced, 0.5, m, grid, 16)
        assert sum(formed_rows) == 129

    def test_disc_jacobian_forms_one_block(self, formed_rows):
        # the translation b_0 has order 1, so the disc's 16 columns have the
        # grid's period and form 69 of its 136 rows, in one block; rung
        # directions of a 3-fold boundary share its sector
        linearization._disc_at_rest.cache_clear()
        linearization.disc_jacobian(0.5, 0.3, 16)
        assert formed_rows == [69]
        formed_rows.clear()
        continuation._mfold_jacobian(0.3, np.array([0.03, 1e-3, 1e-4]), 0.5, 3,
                                     UnitGrid(768), 16)
        assert sum(formed_rows) == 129

    def test_pass_forms_the_common_period(self, formed_rows):
        # 3-fold boundary on 192 nodes: rung directions keep its sector of 64
        # rows and form 33; one direction off the ladder, w^(-4) of order 5,
        # leaves only the grid's period and forms 97
        bnd = embed_mfold(3, [0.05, 0.004, -0.001])
        for modes, rows in (([-1, 2, 5, 8], 33), ([-1, 2, 4, 5, 8], 97)):
            formed_rows.clear()
            monomial_derivatives(bnd, modes, 0.3, 0.5, UnitGrid(192))
            assert formed_rows == [rows]
        # the solver's residual and Jacobian on the branch grids, 128 nodes per fold
        reduced = np.array([0.03, 1e-3, 1e-4])
        for m, size in ((2, 256), (3, 384), (4, 512)):
            for build in (continuation._equations, continuation._mfold_jacobian):
                formed_rows.clear()
                build(0.3, reduced, 0.5, m, UnitGrid(size), 16)
                assert formed_rows == [65]

    @pytest.mark.parametrize("kind", ["asym", 2, 3, 4])
    @pytest.mark.parametrize("grid", [UnitGrid(256)], ids=["plain"])
    def test_unfolded_rows_are_mirror_images(self, grid, kind, rng):
        # row i and row -i mod size of the dense reference: q = conj(w) S is
        # conjugated and G changes sign
        bnd = _oracle_boundary(kind, rng)
        mirror = -np.arange(grid.size) % grid.size
        w, layer = grid.nodes, s_phi_dense(bnd, 0.5, grid)
        q = np.conj(w) * layer
        g = np.imag((0.3 * eval_map(bnd, grid) - layer) * np.conj(w * eval_deriv(bnd, grid)))
        assert np.max(np.abs(q[mirror] - np.conj(q))) <= 1e-14
        assert np.max(np.abs(g[mirror] + g)) <= 1e-15

    @pytest.mark.parametrize("grid, rows", [(UnitGrid(202), 51)], ids=["plain"])
    def test_odd_period_matches_dense(self, grid, rows):
        # m = 2 on 202 nodes: a sector of 101 rows; the pass forms rows 0..50
        # and mirrors the rest about row 0
        bnd = _oracle_boundary(2, None)
        assert kernels._formed_rows(bnd, grid).count == rows
        ref = s_phi_dense(bnd, 0.5, grid)
        assert np.max(np.abs(s_phi(bnd, 0.5, grid) - ref)) <= 1e-13 * np.max(np.abs(ref))

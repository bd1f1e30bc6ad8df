import math

import numpy as np
import pytest

from scipy.special import digamma, zeta

from gsqg.linearization import multiplier_at_disc
from gsqg.specfun import (DispersionTable, GammaOverflowError, GammaPoleError,
                          _ratio_ladder, conv_constant, gamma_fn, gap_ladder,
                          odd_harmonic_ladder, omega_asymptotic,
                          omega_dispersion, omega_sqg, theta_alpha)

SQRT_PI = 1.7724538509055159


class TestGamma:
    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_negative_half(self):
        # recurrence: gamma(0.5) = (-0.5) * gamma(-0.5)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)

    def test_accuracy_over_range(self):
        xs = np.concatenate([np.linspace(-9.97, -0.03, 301),
                             np.linspace(0.03, 30.0, 400)])
        for x in xs:
            if abs(x - round(x)) < 1e-9 and x <= 0:
                continue
            assert gamma_fn(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-13)

    def test_pole(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(GammaPoleError):
                gamma_fn(x)

    @pytest.mark.parametrize("x", [172.0, 5e-324])
    def test_overflow_is_typed(self, x):
        # beyond ~171.6 and next to the pole at 0 math.gamma overflows
        with pytest.raises(GammaOverflowError):
            gamma_fn(x)

    def test_gamma_form_overflow_is_typed(self):
        with pytest.raises(GammaOverflowError):
            omega_dispersion(0.5, 175, form="gamma")


class TestPochhammer:
    def test_empty_product(self):
        assert np.array_equal(_ratio_ladder(3.7, 1.2, 0), [1.0])
        with pytest.raises(ValueError):
            _ratio_ladder(3.7, 1.2, -1)

    def test_small(self):
        # (2)_p / (1)_p = (p+1)! / p! = p + 1
        assert _ratio_ladder(2.0, 1.0, 3) == pytest.approx([1.0, 2.0, 3.0, 4.0], rel=1e-15)

    def test_gamma_identity(self):
        # (a)_n / (b)_n = gamma(a + n) gamma(b) / (gamma(a) gamma(b + n))
        assert _ratio_ladder(0.25, 1.75, 5)[-1] == pytest.approx(
            gamma_fn(5.25) * gamma_fn(1.75) / (gamma_fn(0.25) * gamma_fn(6.75)), rel=1e-13)

    def test_recurrences(self, rng):
        # shifting both bases: (a)_n / (b)_n = (a/b) (a+1)_{n-1} / (b+1)_{n-1}
        for _ in range(200):
            a, b = rng.uniform(0.05, 5.0, 2)
            n = int(rng.integers(1, 21))
            assert _ratio_ladder(a, b, n)[-1] == pytest.approx(
                a / b * _ratio_ladder(a + 1.0, b + 1.0, n - 1)[-1], rel=1e-12)

    def test_ratio_matches_direct(self):
        k = range(7)
        direct = math.prod(1.25 + j for j in k) / math.prod(1.75 + j for j in k)
        assert _ratio_ladder(1.25, 1.75, 7)[-1] == pytest.approx(direct, rel=1e-13)


class TestConvConstant:
    def test_critical_value(self):
        assert conv_constant(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half(self):
        expect = gamma_fn(0.25) / (2.0 ** 0.5 * gamma_fn(0.75))
        assert conv_constant(0.5) == pytest.approx(expect, rel=1e-14)

    def test_small_alpha_divergence(self):
        # gamma(alpha/2) ~ 2/alpha while the denominator tends to 2,
        # so conv_constant ~ 1/alpha near zero
        a = 1e-6
        assert conv_constant(a) * a == pytest.approx(1.0, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            conv_constant(0.0)


class TestDispersion:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_two_forms_agree(self, alpha):
        for m in range(2, 65):
            a = omega_dispersion(alpha, m)
            b = omega_dispersion(alpha, m, form="gamma")
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_euler_endpoint(self):
        assert omega_dispersion(0.0, 2) == 0.25
        assert omega_dispersion(0.0, 4) == 0.375

    def test_critical_endpoint(self):
        assert omega_dispersion(1.0, 2) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-15)
        assert omega_sqg(3) == pytest.approx(2.0 / (3.0 * math.pi) + 2.0 / (5.0 * math.pi),
                                             rel=1e-15)

    def test_monotone_in_mode(self):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            vals = [omega_dispersion(alpha, m) for m in range(2, 40)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_continuity_at_endpoints(self):
        for m in range(2, 11):
            assert abs(omega_dispersion(1e-4, m) - (m - 1) / (2.0 * m)) < 1e-3
            assert abs(omega_dispersion(1.0 - 1e-4, m) - omega_sqg(m)) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            omega_dispersion(1.5, 3)
        with pytest.raises(ValueError):
            omega_dispersion(0.5, 1)

    def test_table_domain(self):
        # both used to return finite numbers (or NaN) for any alpha
        for alpha in (-0.5, 1.5, math.nan):
            with pytest.raises(ValueError):
                DispersionTable.build(alpha, 5)
            with pytest.raises(ValueError):
                multiplier_at_disc(alpha, 0.3, 4)
        for alpha in (0.0, 1.0):
            assert list(DispersionTable.build(alpha, 5).values) == [2, 3, 4, 5]
            assert np.all(np.isfinite(multiplier_at_disc(alpha, 0.3, 4)))

    def test_table_matches_scalar(self):
        tab = DispersionTable.build(0.37, 50)
        assert list(tab.values) == list(range(2, 51))
        vals = np.array(list(tab.values.values()))
        # positive, below theta and strictly increasing in m
        assert np.all(vals > 0.0) and np.all(vals < theta_alpha(0.37))
        assert np.all(np.diff(vals) > 0.0)
        for m in (2, 17, 50):
            assert tab.values[m] == pytest.approx(omega_dispersion(0.37, m), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.97, 1.0 - 1e-4, 1.0 - 1e-7])
    def test_near_the_critical_exponent(self, alpha):
        # the 40-digit gamma form; 1 - ratio formed as a difference lost
        # digits like 1e-16 / (1 - alpha): 1.6e-9 to 7.3e-9 at 1 - 1e-7
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            pref = mpmath.gamma(1 - a) / (2 ** (1 - a) * mpmath.gamma(1 - a / 2) ** 2)
            head = mpmath.gamma(1 + a / 2) / mpmath.gamma(2 - a / 2)
            tab = DispersionTable.build(alpha, 64)
            for m in (2, 4, 64):
                exact = pref * (head - mpmath.gamma(m + a / 2) / mpmath.gamma(m + 1 - a / 2))
                for value in (omega_dispersion(alpha, m), tab.values[m]):
                    assert abs(value - exact) <= 2e-15 * abs(exact)


class TestTheta:
    def test_limit_alpha_zero(self):
        # consistent with (m-1)/(2m) -> 1/2
        assert theta_alpha(1e-8) == pytest.approx(0.5, rel=1e-6)

    def test_lower_bracket_is_m2(self):
        # the first dispersion value sits exactly at theta*(1-a)/(2-a/2)
        for a in (0.2, 0.5, 0.8):
            expect = theta_alpha(a) * (1.0 - a) / (2.0 - a / 2.0)
            assert omega_dispersion(a, 2) == pytest.approx(expect, rel=1e-13)

    def test_upper_bound_and_approach(self):
        a = 0.5
        th = theta_alpha(a)
        tab = DispersionTable.build(a, 200)
        vals = [tab.values[m] for m in range(2, 201)]
        assert all(v < th for v in vals)
        assert th - vals[-1] < th - vals[-100]
        # deficit at m = 200 sits near theta * 1.014 / sqrt(200)
        assert th - vals[-1] < 0.08 * th

    def test_domain(self):
        for a in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                theta_alpha(a)


def zeta_series_amplitude(a):
    """(1 - a/2) exp(a euler_gamma + c(a)), c the odd-zeta power series
    2 sum_{j=1}^{60} zeta(2j+1) (a/2)^(2j+1) / (2j+1): the large-mode amplitude
    of omega_asymptotic (over theta) by a route that shares no gamma call."""
    p = 2.0 * np.arange(1, 61) + 1.0
    c = float(np.sum(2.0 * zeta(p) * (a / 2.0) ** p / p))
    return (1.0 - a / 2.0) * math.exp(a * np.euler_gamma + c)


class TestAsymptotics:
    def test_constant_pinned_by_gamma_identity(self):
        # (1 - a/2) exp(a*gamma + c) = gamma(2 - a/2)/gamma(1 + a/2)
        for a in (0.1, 0.5, 0.9):
            rhs = gamma_fn(2.0 - a / 2.0) / gamma_fn(1.0 + a / 2.0)
            assert zeta_series_amplitude(a) == pytest.approx(rhs, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.9, 0.99])
    def test_amplitude_matches_zeta_series(self, alpha):
        th = theta_alpha(alpha)
        for n in (2, 10, 1000, 20000):
            ref = th - th * zeta_series_amplitude(alpha) / n ** (1.0 - alpha)
            assert abs(omega_asymptotic(alpha, n) - ref) <= 1e-14

    def test_matches_dispersion_at_large_mode(self):
        assert abs(omega_asymptotic(0.5, 1000) - omega_dispersion(0.5, 1000)) < 5e-6

    def test_error_ratio_per_doubling(self):
        # observed decay is ~2^-2.5 per doubling, beating the O(n^(a-2)) bound
        errs = {n: abs(omega_asymptotic(0.5, n) - omega_dispersion(0.5, n))
                for n in (100, 200, 400)}
        assert errs[200] / errs[100] <= 2.0 ** -1.4
        assert errs[400] / errs[200] <= 2.0 ** -1.4

    def test_scaled_error_bounded(self):
        a = 0.5
        tab = DispersionTable.build(a, 2000)
        scaled = np.array([n ** (2.0 - a) * abs(omega_asymptotic(a, n) - tab.values[n])
                           for n in range(50, 2001)])
        assert scaled[975:].max() <= scaled[:975].max()


class TestGapLadder:
    def test_is_one_minus_the_ratio(self):
        for a, b in ((0.3, 0.7), (1.25, 1.75), (2.1, 2.0), (0.05, 0.95)):
            ratios = np.cumprod([1.0] + [(a + k) / (b + k) for k in range(40)])
            assert gap_ladder(a, b, 40) == pytest.approx((1.0 - ratios) / (b - a),
                                                         rel=1e-13, abs=1e-15)

    def test_equal_bases_give_the_harmonic_sum(self):
        assert np.array_equal(gap_ladder(0.5, 0.5, 50), 2.0 * odd_harmonic_ladder(50))
        assert gap_ladder(2.0, 2.0, 3) == pytest.approx([0.0, 0.5, 0.5 + 1 / 3, 0.5 + 1 / 3 + 0.25])

    def test_continuous_at_equal_bases(self):
        near = gap_ladder(1.5 + 1e-9, 1.5, 100)
        assert near == pytest.approx(gap_ladder(1.5, 1.5, 100), rel=1e-8)

    def test_empty_and_domain(self):
        assert np.array_equal(gap_ladder(0.3, 0.7, 0), [0.0])
        with pytest.raises(ValueError):
            gap_ladder(0.3, 0.7, -1)

    def test_table_endpoints_are_values_of_the_ladder(self):
        euler = DispersionTable.build(0.0, 40).values
        sqg = DispersionTable.build(1.0, 40).values
        for m in range(2, 41):
            assert euler[m] == pytest.approx((m - 1) / (2.0 * m), rel=1e-15)
            assert sqg[m] == pytest.approx(omega_sqg(m), rel=1e-14)
            assert omega_dispersion(1.0, m) == pytest.approx(omega_dispersion(1.0, m, "gamma"),
                                                             rel=1e-14)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-2, 0.3, 0.7, 0.99, 1.0 - 1e-7, 1.0])
    def test_table_against_mpmath(self, alpha):
        # measured <= 2.3e-15 over these alphas and m <= 512
        mp = pytest.importorskip("mpmath")
        tab = DispersionTable.build(alpha, 512).values
        with mp.workdps(40):
            a = mp.mpf(alpha)
            for m in (2, 3, 7, 64, 200, 512):
                if alpha == 1.0:
                    exact = 2 / mp.pi * mp.fsum(mp.mpf(1) / (2 * k + 1) for k in range(1, m))
                else:
                    pref = mp.gamma(1 - a) / (2 ** (1 - a) * mp.gamma(1 - a / 2) ** 2)
                    exact = pref * (mp.gamma(1 + a / 2) / mp.gamma(2 - a / 2)
                                    - mp.gamma(m + a / 2) / mp.gamma(m + 1 - a / 2))
                assert abs(tab[m] - exact) <= 4e-15 * exact, m


class TestDigamma:
    # sigma_p = (digamma(p + 1/2) + euler_gamma + 2 ln 2) / 2
    def test_n0(self):
        assert np.array_equal(odd_harmonic_ladder(0), [0.0])

    def test_n1(self):
        assert np.array_equal(odd_harmonic_ladder(1), [0.0, 1.0])

    def test_against_scipy(self):
        p = np.arange(20)
        expect = (digamma(p + 0.5) + np.euler_gamma + 2.0 * math.log(2.0)) / 2.0
        assert odd_harmonic_ladder(19) == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_reproduces_critical_dispersion(self):
        # omega_m at alpha=1 equals -(digamma(3/2) - digamma(m+1/2))/pi
        for m in range(2, 12):
            expect = -(digamma(1.5) - digamma(m + 0.5)) / math.pi
            assert omega_dispersion(1.0, m) == pytest.approx(expect, rel=1e-13)

    def test_harmonic_odd(self):
        # omega_sqg(m) = (2/pi) (sigma_m - 1), empty for m = 1
        assert omega_sqg(1) == 0.0
        assert omega_sqg(3) == pytest.approx(2.0 / math.pi * (1.0 / 3.0 + 1.0 / 5.0),
                                             rel=1e-15)
        with pytest.raises(ValueError):
            omega_sqg(0)

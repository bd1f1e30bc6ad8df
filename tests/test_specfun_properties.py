"""Property tests of the closed-form layer over random inputs (needs hypothesis)."""

import math

import numpy as np
import pytest
from scipy.special import digamma

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gsqg.specfun import (DispersionTable, GammaOverflowError,  # noqa: E402
                          GammaPoleError, _ratio_ladder, gamma_fn,
                          odd_harmonic_ladder, omega_dispersion)

SETTINGS = settings(max_examples=60, deadline=None)
bases = st.floats(min_value=0.01, max_value=50.0)


@SETTINGS
@given(a=bases, b=bases, n=st.integers(min_value=0, max_value=300))
def test_ratio_ladder_matches_log_gamma(a, b, n):
    p = np.arange(n + 1)
    expect = np.exp([math.lgamma(a + q) - math.lgamma(a) - math.lgamma(b + q) + math.lgamma(b)
                     for q in p])
    assert _ratio_ladder(a, b, n) == pytest.approx(expect, rel=1e-10)


@SETTINGS
@given(n=st.integers(min_value=0, max_value=5000))
def test_odd_harmonic_ladder_matches_digamma(n):
    p = np.arange(n + 1)
    expect = (digamma(p + 0.5) + np.euler_gamma + 2.0 * math.log(2.0)) / 2.0
    assert odd_harmonic_ladder(n) == pytest.approx(expect, rel=1e-13, abs=1e-14)


@SETTINGS
@given(alpha=st.one_of(st.just(0.0), st.just(1.0),
                       st.floats(min_value=0.001, max_value=0.999)),
       m_max=st.integers(min_value=2, max_value=400))
def test_dispersion_table_matches_scalar(alpha, m_max):
    tab = DispersionTable.build(alpha, m_max)
    assert list(tab.values) == list(range(2, m_max + 1))
    for m in {2, (m_max + 2) // 2, m_max}:
        assert tab.values[m] == pytest.approx(omega_dispersion(alpha, m), rel=1e-13)


@SETTINGS
@given(n=st.integers(min_value=0, max_value=400))
def test_gamma_poles_are_typed(n):
    with pytest.raises(GammaPoleError):
        gamma_fn(-float(n))


@SETTINGS
@given(x=st.floats(min_value=-60.0, max_value=170.0))
def test_gamma_is_math_gamma_off_the_poles(x):
    if x <= 0.0 and x == math.floor(x):
        return
    try:
        expect = math.gamma(x)
    except OverflowError:       # next to a pole, e.g. x = 5e-324
        with pytest.raises(GammaOverflowError):
            gamma_fn(x)
        return
    assert gamma_fn(x) == expect

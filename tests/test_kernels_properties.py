"""Property tests of the patch functional over random inputs (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gsqg.geometry import (FourierBoundary, MFoldBoundary, UnitGrid,  # noqa: E402
                           dilate, embed_mfold)
from gsqg.kernels import functional_G  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None)
# the critical exponent and the plain range below it; G's digits leak like
# 1e-16 / (1 - alpha) through s_phi's diagonal term as alpha -> 1, and like
# 1e-16 / alpha as alpha -> 0, so the range stops short of either end
alphas = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=0.99))
omegas = st.floats(min_value=-1.0, max_value=1.0)
folds = st.integers(min_value=2, max_value=5)
reduced = st.lists(st.floats(min_value=-0.03, max_value=0.03), min_size=1, max_size=3)
GRID = UnitGrid(128)


def mfold(m, coeffs) -> FourierBoundary:
    return embed_mfold(MFoldBoundary(m=m, reduced=np.array(coeffs)))


@SETTINGS
@given(alpha=alphas, omega=omegas)
def test_disc_is_annihilated_at_any_omega(alpha, omega):
    assert functional_G(omega, FourierBoundary.identity(), alpha, GRID).sup_norm <= 1e-12


@SETTINGS
@given(alpha=alphas, omega=omegas,
       coeffs=st.lists(st.floats(min_value=-0.02, max_value=0.02), min_size=1, max_size=6))
@example(alpha=1.0, omega=0.0, coeffs=[0.0, 0.0, 0.0, 0.015625, 0.01953125, 0.01953125])
def test_residual_is_pure_sine(alpha, omega, coeffs):
    # real coefficients make the patch symmetric about the real axis; GRID
    # imposes that by its mirror, the shifted grid forms every row, so its
    # cosine part is the quadrature error, which grows with the degree: a
    # degree-5 boundary reads 1.7e-11 on 128 nodes and 3e-16 from 256 on.
    # The shifted grid has 64 nodes per degree, at least 128.
    shifted = UnitGrid(max(128, 64 * (len(coeffs) - 1)), shift=0.1)
    for grid in (GRID, shifted):
        assert functional_G(omega, FourierBoundary(np.array(coeffs)), alpha, grid).cosine_residue <= 1e-12


@SETTINGS
@given(alpha=alphas, omega=omegas, m=folds, coeffs=reduced)
def test_sector_rows_match_all_rows(alpha, omega, m, coeffs):
    bnd = mfold(m, coeffs)
    forced = np.zeros(max(bnd.order, m) + 1)
    forced[:bnd.order + 1] = bnd.coeffs
    forced[m] = 1e-300        # n + 1 = m + 1 is off the m-fold ladder: every row is formed
    ref = functional_G(omega, FourierBoundary(forced), alpha, GRID)
    got = functional_G(omega, bnd, alpha, GRID)
    # the sine coefficients, which average the independent rounding of each
    # formed row (about 1e-16 / alpha per value) over the grid
    assert np.max(np.abs(got.sine_coeffs - ref.sine_coeffs)) <= 1e-13
    assert got.cosine_residue <= 1e-12 and ref.cosine_residue <= 1e-12


@SETTINGS
@given(alpha=alphas, omega=omegas, m=folds, coeffs=reduced,
       lam=st.floats(min_value=0.5, max_value=2.0))
def test_dilation_law(alpha, omega, m, coeffs, lam):
    # G(omega lam^(-alpha), lam phi) = lam^(2 - alpha) G(omega, phi)
    bnd = mfold(m, coeffs)
    scaled, spin = dilate(bnd, lam, alpha)
    ref = functional_G(omega, bnd, alpha, GRID).values
    got = functional_G(omega * spin, scaled, alpha, GRID).values / lam ** (2.0 - alpha)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


@SETTINGS
@given(alpha=alphas, omega=omegas, m=folds, coeffs=reduced)
def test_mfold_equivariance(alpha, omega, m, coeffs):
    # rotating the nodes by 2 pi/m maps the boundary onto itself, so G is the
    # same on the shifted grid, which forms the whole sector with no mirror
    bnd = mfold(m, coeffs)
    size = 120                   # a multiple of every m drawn
    ref = functional_G(omega, bnd, alpha, UnitGrid(size))
    got = functional_G(omega, bnd, alpha, UnitGrid(size, shift=2.0 * np.pi / m))
    # plus the pointwise rounding of the small-alpha leak, measured up to
    # 1.2e-13 at alpha = 1e-3 against 1e-14 from alpha = 0.05 to 1
    assert np.max(np.abs(got.values - ref.values)) <= 1e-13 + 1e-15 / alpha

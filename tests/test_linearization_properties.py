"""Property tests of the analytic disc Jacobian over random inputs (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import gsqg.linearization as lin  # noqa: E402
from gsqg.geometry import (FourierBoundary, MFoldBoundary, UnitGrid,  # noqa: E402
                           default_grid, embed_mfold)
from gsqg.linearization import (disc_jacobian, monomial_derivatives,  # noqa: E402
                                multiplier_at_disc)

SETTINGS = settings(max_examples=40, deadline=None)
# the subtracted kernel at alpha = 1 and the plain one below it; the plain
# quadrature loses digits like 1e-16 / (1 - alpha) as alpha -> 1 and like
# 1e-16 / alpha as alpha -> 0, so its range stops 1e-3 short of either end
alphas = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=0.999))
omegas = st.floats(min_value=-1.0, max_value=1.0)


@SETTINGS
@given(alpha=alphas, omega=omegas, n_modes=st.integers(min_value=2, max_value=12))
def test_disc_jacobian_is_the_multiplier_diagonal(alpha, omega, n_modes):
    jac = disc_jacobian(alpha, omega, n_modes)
    mult = multiplier_at_disc(alpha, omega, n_modes)[:n_modes]
    assert np.max(np.abs(jac - np.diag(mult))) < 1e-10


@SETTINGS
@given(alpha=alphas, omega=omegas, mode=st.integers(min_value=0, max_value=11))
def test_disc_column_is_affine_in_omega(alpha, omega, mode):
    # e(omega) = e(0) + omega ((mode + 1)/2) e_mode: the identity bifurcation_scan solves
    disc, grid = FourierBoundary.identity(), default_grid(13)
    column = [grid.sine_coeffs(monomial_derivatives(disc, [mode], om, alpha, grid), 12)[0]
              for om in (omega, 0.0)]
    slope = np.zeros(12)
    slope[mode] = (mode + 1) / 2.0
    assert np.max(np.abs(column[0] - column[1] - omega * slope)) < 1e-12


@SETTINGS
@given(alpha=alphas, omega=omegas, m=st.integers(min_value=2, max_value=5),
       reduced=st.lists(st.floats(min_value=-0.03, max_value=0.03), min_size=1, max_size=3),
       amps=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8))
def test_monomial_derivatives_linear_in_direction(alpha, omega, m, reduced, amps):
    # directions w^(-n), n = -1 (the lead) .. 6: one pass over all of them,
    # over their common period, against a pass per direction over its own
    bnd = embed_mfold(MFoldBoundary(m=m, reduced=np.array(reduced)))
    grid, amps = UnitGrid(128), np.array(amps)
    modes = np.arange(len(amps)) - 1
    joint = amps @ monomial_derivatives(bnd, modes, omega, alpha, grid)
    apart = sum(a * monomial_derivatives(bnd, [n], omega, alpha, grid)[0]
                for a, n in zip(amps, modes))
    # the C_a ~ 2/a terms cancel to O(1) as alpha -> 0: measured up to 1.9e-12
    # at alpha = 1e-3 and 3e-14 from alpha = 0.05 to 1
    tol = 1e-13 + 1e-14 / alpha
    assert np.max(np.abs(joint - apart)) <= tol * max(np.max(np.abs(apart)), 1.0)


@SETTINGS
@given(alpha=alphas, omega=omegas, m=st.integers(min_value=2, max_value=5),
       reduced=st.lists(st.floats(min_value=-0.03, max_value=0.03), min_size=1, max_size=3),
       modes=st.lists(st.integers(min_value=-1, max_value=10), min_size=1, max_size=6,
                      unique=True))
def test_rotation_unfold_matches_all_rows(alpha, omega, m, reduced, modes):
    # half the common period of the boundary and the directions, repeated
    # and mirrored onto every row, against the same pass forming every row;
    # 120 is a multiple of every m drawn
    bnd, grid = embed_mfold(MFoldBoundary(m=m, reduced=np.array(reduced))), UnitGrid(120)
    got = monomial_derivatives(bnd, modes, omega, alpha, grid)
    ref = lin._formed_fields(bnd, np.array(modes), omega, alpha, grid, grid.size).T
    # a mirrored row carries the rounding of its source row, not its own
    tol = 1e-13 + 3e-14 / alpha
    assert np.max(np.abs(got - ref)) <= tol * max(np.max(np.abs(ref)), 1.0)

import warnings
from dataclasses import fields

import numpy as np
import pytest

from gsqg.geometry import (AliasingWarning, FourierBoundary, UnitGrid, _map_samples,
                           default_grid, dilate, embed_mfold, eval_deriv, eval_map,
                           univalence_margin)

from dense_oracle import eval_deriv_at, eval_map_at


def conj_deriv(bnd: FourierBoundary, grid: UnitGrid) -> np.ndarray:
    """d/dw of conj(phi) on the circle: -conj(phi'(w)) / w^2 for real coefficients."""
    w = grid.nodes
    return -np.conj(eval_deriv(bnd, grid)) / (w * w)


def project_mfold(bnd: FourierBoundary, m: int,
                  strict: bool = False) -> tuple[np.ndarray, float]:
    """The m-fold rungs of bnd and the discarded off-symmetry
    energy (sup norm); raises if strict and that energy exceeds 1e-12."""
    keep = np.zeros(bnd.order + 1, dtype=bool)
    keep[m - 1::m] = True
    discarded = float(np.max(np.abs(bnd.coeffs[~keep]), initial=0.0))
    if strict and discarded > 1e-12:
        raise ValueError(f"boundary is not {m}-fold: off-symmetry energy {discarded:.3e}")
    return bnd.coeffs[keep].copy(), discarded


def coeffs_from_values(values: np.ndarray, grid: UnitGrid, n: int) -> np.ndarray:
    """(b_0 .. b_n) from samples of phi (lead 1): the conj(w)^j coefficients
    sit at the negative frequencies of phi(w) - w."""
    c = grid.mode_coeffs(values - grid.nodes)
    return np.array([c[0].real] + [c[-j].real for j in range(1, n + 1)])


class TestEvalMap:
    def test_identity(self):
        g = UnitGrid(64)
        assert np.allclose(eval_map(FourierBoundary.identity(), g), g.nodes,
                           rtol=0, atol=1e-15)

    def test_ellipse(self):
        g = UnitGrid(64)
        q = 0.3
        vals = eval_map(FourierBoundary.ellipse(q), g)
        assert np.allclose(vals, g.nodes + q * np.conj(g.nodes), atol=1e-15)

    def test_mfold_rotation_relation(self, rng):
        m = 4
        bnd = embed_mfold(m, 0.02 * rng.standard_normal(5))
        g = UnitGrid(256)
        rot = np.exp(2j * np.pi / m)
        phi = eval_map(bnd, g)
        # rot * w_j is the node w_(j + 256/m): the FFT does not impose the relation
        lhs = np.roll(phi, -256 // m)     # phi(rot * z)
        rhs = rot * phi                   # rot * phi(z)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_aliasing_warning(self):
        bnd = FourierBoundary(np.zeros(40))
        with pytest.warns(AliasingWarning):
            eval_map(bnd, UnitGrid(64))

    @pytest.mark.parametrize("order", [7, 40, 80], ids=["resolved", "aliased", "folded"])
    @pytest.mark.parametrize("grid", [UnitGrid(64)], ids=["plain"])
    def test_grid_fft_matches_point_horner(self, order, grid, rng):
        # 80 > 64 folds orders n >= size onto n mod size in the grid path
        n = np.arange(order + 1)
        bnd = FourierBoundary(0.05 * 0.6 ** n * rng.uniform(-1.0, 1.0, order + 1), lead=1.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingWarning)
            phi, dphi = eval_map(bnd, grid), eval_deriv(bnd, grid)
            stacked = _map_samples(bnd, grid)
        assert np.max(np.abs(phi - eval_map_at(bnd, grid.nodes))) <= 1e-15
        assert np.max(np.abs(dphi - eval_deriv_at(bnd, grid.nodes))) <= 1e-15
        # the stacked transform is bit for bit its one-row forms
        assert stacked[0].tobytes() == phi.tobytes()
        assert stacked[1].tobytes() == dphi.tobytes()


class TestUnitGrid:
    def test_nodes_and_angles_are_cached_and_read_only(self):
        g = UnitGrid(64)
        assert [f.name for f in fields(UnitGrid)] == ["size"]    # a grid is its size
        assert g.nodes is g.nodes and g.angles is g.angles
        assert np.array_equal(g.nodes, np.exp(1j * (2.0 * np.pi * np.arange(64) / 64)))
        for arr in (g.nodes, g.angles):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the cache is not part of the value
        assert g == UnitGrid(64) and hash(g) == hash(UnitGrid(64))

    def test_plain_grid_applies_no_phase(self):
        # the nodes start at w_0 = 1, so the mode coefficients are the bare FFT
        g = UnitGrid(64)
        vals = np.random.default_rng(3).standard_normal(64)
        assert g.mode_coeffs(vals).tobytes() == (np.fft.fft(vals) / 64).tobytes()


class TestEvalDeriv:
    def test_identity(self):
        g = UnitGrid(32)
        assert np.allclose(eval_deriv(FourierBoundary.identity(), g), 1.0, atol=1e-15)

    def test_ellipse(self):
        g = UnitGrid(32)
        q = 0.25
        vals = eval_deriv(FourierBoundary.ellipse(q), g)
        assert np.allclose(vals, 1.0 - q * np.conj(g.nodes) ** 2, atol=1e-15)

    def test_real_coefficient_symmetry(self, rng):
        # conj(phi'(w)) equals phi' evaluated at conj(w) when coefficients are real
        bnd = FourierBoundary(0.05 * rng.standard_normal(6))
        g = UnitGrid(64)
        vals = eval_deriv(bnd, g)
        # conj grid = reversed node order (w_k -> conj(w_k) = w_{M-k})
        idx = (-np.arange(64)) % 64
        assert np.max(np.abs(np.conj(vals) - vals[idx])) < 1e-14

    def test_conj_deriv_identity(self, rng):
        bnd = FourierBoundary(0.05 * rng.standard_normal(5))
        g = UnitGrid(128)
        w = g.nodes
        # derivative of conj(phi) - conj(w) should equal -conj(phi' - 1)/w^2;
        # check the full map via spectral differentiation of conj(phi) samples
        vals = np.conj(eval_map(bnd, g))
        k = np.fft.fftfreq(128, d=1.0 / 128)
        dvals = np.fft.ifft(1j * k * np.fft.fft(vals)) / (1j * w)  # d/dw = d/dtheta / (iw)
        assert np.max(np.abs(dvals - conj_deriv(bnd, g))) < 1e-12


class TestUnivalence:
    def test_margin_disc(self):
        assert univalence_margin(FourierBoundary.identity()) == pytest.approx(1.0)

    def test_margin_ellipse(self):
        assert univalence_margin(FourierBoundary.ellipse(0.3)) == pytest.approx(0.7, abs=1e-6)


class TestDilate:
    def test_identity_factor(self):
        bnd = FourierBoundary.ellipse(0.2)
        scaled, factor = dilate(bnd, 1.0, 0.5)
        assert factor == 1.0
        assert np.allclose(scaled.coeffs, bnd.coeffs)

    def test_angular_velocity_factor(self):
        _, factor = dilate(FourierBoundary.identity(), 2.0, 0.5)
        assert factor == pytest.approx(2.0 ** -0.5, rel=1e-15)

    def test_map_scales(self):
        bnd = FourierBoundary.ellipse(0.2)
        scaled, _ = dilate(bnd, 3.0, 0.5)
        g = UnitGrid(32)
        assert np.allclose(eval_map(scaled, g), 3.0 * eval_map(bnd, g), atol=1e-14)


class TestMFold:
    def test_embed_places_ladder(self):
        assert np.array_equal(embed_mfold(3, [0.1, -0.02]).coeffs,
                              [0.0, 0.0, 0.1, 0.0, 0.0, -0.02])

    def test_round_trip(self, rng):
        for m in (2, 3, 5):
            red = rng.standard_normal(4)
            back, discarded = project_mfold(embed_mfold(m, red), m)
            assert discarded == 0.0
            assert np.array_equal(back, red)

    def test_strict_rejects_asymmetric(self):
        bnd = FourierBoundary(np.array([0.0, 0.1, 0.2]))
        with pytest.raises(ValueError):
            project_mfold(bnd, 3, strict=True)
        _, discarded = project_mfold(bnd, 3, strict=False)
        assert discarded == pytest.approx(0.1)

    @pytest.mark.parametrize("m", [0, 1])
    def test_embed_refuses_fewer_than_two_folds(self, m):
        with pytest.raises(ValueError, match="m >= 2"):
            embed_mfold(m, [0.1, -0.02])


class TestFiniteData:
    def test_fourier_boundary_rejects_nan(self):
        with pytest.raises(ValueError):
            FourierBoundary(np.array([0.0, 0.1, np.nan]))

    def test_mfold_boundary_rejects_inf(self):
        with pytest.raises(ValueError):
            embed_mfold(3, [0.1, np.inf])


class TestTransforms:
    def test_parseval_recovery(self, rng):
        n = 9
        coeffs = 0.05 * rng.standard_normal(n + 1)
        bnd = FourierBoundary(coeffs)
        g = UnitGrid(2 * (n + 1) + 4)
        rec = coeffs_from_values(eval_map(bnd, g), g, n)
        assert np.max(np.abs(rec - coeffs)) < 1e-12

    def test_sine_coeffs_round_trip(self, rng):
        g = UnitGrid(64)
        gn = rng.standard_normal(10)
        theta = g.angles
        vals = sum(-2.0 * gn[k] * np.sin((k + 1) * theta) for k in range(10))
        got = g.sine_coeffs(vals, n_max=10)
        assert np.max(np.abs(got - gn)) < 1e-13
        assert np.max(np.abs(g.mode_coeffs(vals).real)) < 1e-13

    def test_default_grid_size(self):
        g = default_grid(10)
        assert g.size == 80 and g.size % 2 == 0
        # one grid per size, so every solve on it shares its nodes
        assert default_grid(10) is g and default_grid(10).nodes is g.nodes

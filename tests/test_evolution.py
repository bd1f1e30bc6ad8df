import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform
from scipy.special import zeta

import gsqg.evolution as ev
from gsqg.continuation import solve_vstate
from gsqg.evolution import (ContourError, ContourState, conserved_diagnostics,
                            evolve, hausdorff_distance, normal_node_velocity,
                            normal_step_bounds, normal_velocity_residual,
                            redistribute, stability_step, step_normal,
                            velocity_contour)
from gsqg.geometry import FourierBoundary, MFoldBoundary, embed_mfold
from gsqg.specfun import conv_constant, theta_alpha


def sampled_ellipse(m: int, a: float = 1.3) -> tuple[np.ndarray, np.ndarray]:
    """m nodes of the ellipse a cos t + i sin t / a, and the exact dz/dt there."""
    t = 2.0 * np.pi * np.arange(m) / m
    return a * np.cos(t) + 1j * np.sin(t) / a, -a * np.sin(t) + 1j * np.cos(t) / a


def normal_part(state: ContourState, u: np.ndarray) -> np.ndarray:
    """The outward normal component of a field u at the nodes."""
    return (u * 1j * np.conj(state.tangent)).real / np.abs(state.tangent)


def integrator_speed(state: ContourState) -> np.ndarray:
    """U_n as the integrator takes it, from the subtracted sum alone."""
    return ev._normal_speed(state, state.tangent / np.abs(state.tangent))


def node_terms(state: ContourState, subtract: bool) -> np.ndarray:
    """-2 zeta(alpha) h^(1-alpha) f(0) - zeta(alpha-2) h^(3-alpha) f''(0) at
    every node, with the smooth factor f(x) = g(x) q(x)^(-alpha/2), where
    q(x) = |gamma(sigma+x) - gamma(sigma)|^2 / x^2 and g is gamma' (plain)
    or gamma' - gamma'(sigma) (subtracted), differentiated by the chain rule
    from q(0) = |g1|^2, q'(0) = Re(g1 conj g2), q''(0) = |g2|^2/2 +
    2 Re(g1 conj g3)/3."""
    alpha, m = state.alpha, state.size
    h = 2.0 * np.pi / m
    k = np.fft.fftfreq(m, d=1.0 / m)
    if m % 2 == 0:
        k[m // 2] = 0.0
    g1, g2, g3 = (np.fft.ifft((1j * k) ** p * np.fft.fft(state.nodes)) for p in (1, 2, 3))
    q0 = np.abs(g1) ** 2
    q1 = (g1 * np.conj(g2)).real
    q2 = 0.5 * np.abs(g2) ** 2 + 2.0 / 3.0 * (g1 * np.conj(g3)).real
    e = -0.5 * alpha
    w0 = q0 ** e
    w1 = e * q0 ** (e - 1.0) * q1
    w2 = e * (e - 1.0) * q0 ** (e - 2.0) * q1 ** 2 + e * q0 ** (e - 1.0) * q2
    f2 = g3 * w0 + 2.0 * g2 * w1
    terms = -zeta(alpha - 2.0) * h ** (3.0 - alpha) * (f2 if subtract else f2 + g1 * w2)
    if not subtract:
        terms -= 2.0 * zeta(alpha) * h ** (1.0 - alpha) * g1 * w0
    return terms


def dense_trapezoid(state: ContourState, subtract: bool) -> np.ndarray:
    """The trapezoid sum over every node but the target, from the dense
    pair kernel."""
    z, gp = state.nodes, state.tangent
    kern = squareform(pdist(np.column_stack([z.real, z.imag])) ** (-state.alpha))
    return 2.0 * np.pi / state.size * (kern @ gp - (gp * kern.sum(axis=1) if subtract else 0.0))


def dense_velocity(state: ContourState, subtract: bool) -> np.ndarray:
    """`velocity_contour` as `dense_trapezoid` plus `node_terms`."""
    total = dense_trapezoid(state, subtract) + node_terms(state, subtract)
    return conv_constant(state.alpha) / (2.0 * np.pi) * total


def hat_weights(alpha: float, h: float, p: int) -> tuple:
    """Product-integration weights of |s|^(-alpha) against hat functions.

    Returns w[0..p]; w[d] multiplies the smooth-factor sample at parameter
    offset d*h (weights are symmetric in d).  At alpha = 1 the center weight
    is dropped: it only ever multiplies a sample that vanishes there.
    """
    w = np.zeros(p + 1)
    for k in range(p):
        a_lo, a_hi = k * h, (k + 1) * h
        if alpha == 1.0:
            full = math.log((k + 1) / k) if k else math.inf
            lin = 1.0 - k * full if k else 1.0
        else:
            full = (a_hi ** (1.0 - alpha) - a_lo ** (1.0 - alpha)) / (1.0 - alpha)
            lin = ((a_hi ** (2.0 - alpha) - a_lo ** (2.0 - alpha)) / (2.0 - alpha)
                   - a_lo * full) / h
        if k == 0 and alpha == 1.0:
            w[1] += lin        # center sample is zero; only the linear part acts
        else:
            w[k] += full - lin
            w[k + 1] += lin
    return tuple(2.0 * wi if d == 0 else wi for d, wi in enumerate(w))


def hat_window_velocity(state: ContourState, subtract: bool) -> np.ndarray:
    """The product-integration rule, converging like h^2 in U_n:
    `dense_trapezoid`, then for each node at offset 1 <= |d| <= 3 its
    trapezoid term (half of it at |d| = 3) swapped for the hat weight against
    the smooth factor, and the node itself."""
    alpha, z, m, gp = state.alpha, state.nodes, state.size, state.tangent
    h = 2.0 * np.pi / m
    total = dense_trapezoid(state, subtract)
    weights = hat_weights(alpha, h, 3)
    rows = np.arange(m)
    for d in range(-3, 4):
        if d == 0:
            if not subtract:
                total += weights[0] * gp * np.abs(gp) ** (-alpha)
            continue
        idx = (rows + d) % m
        dd = np.abs(z[idx] - z)
        raw = (gp[idx] - gp) if subtract else gp[idx]
        frac = 0.5 if abs(d) == 3 else 1.0
        total += raw * (weights[abs(d)] * (abs(d) * h / dd) ** alpha - frac * h * dd ** (-alpha))
    return conv_constant(alpha) / (2.0 * np.pi) * total


def lagrangian_evolve(state: ContourState, t_final: float, dt: float) -> ContourState:
    """The Lagrangian motion: classical RK4 with the nodes at the full
    `velocity_contour`, in the fewest equal steps no longer than dt, with a
    `redistribute` every 20 steps against the clustering of the nodes
    (without it the ellipse test below measures 8.1e-7 instead of 5.5e-7)."""
    n_steps, dt = ev._steps(t_final, dt)
    cur = state

    def velocity(nodes):
        return velocity_contour(ContourState(nodes=nodes, time=0.0, alpha=state.alpha))

    for k in range(1, n_steps + 1):
        z = cur.nodes
        k1 = velocity(z)
        k2 = velocity(z + 0.5 * dt * k1)
        k3 = velocity(z + 0.5 * dt * k2)
        k4 = velocity(z + dt * k3)
        cur = ContourState(nodes=z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                           time=cur.time + dt, alpha=state.alpha)
        if k % 20 == 0 and k < n_steps:
            cur = redistribute(cur)
    return cur


class TestVelocity:
    def test_disc_velocity_is_tangential(self):
        for a in (0.25, 0.5, 0.75):
            st = ContourState.disc(256, a)
            u = velocity_contour(st)
            radial = np.abs((u * np.conj(st.nodes)).real)
            assert radial.max() < 1e-8

    def test_disc_rotation_rate(self):
        # the disc parametrization spins at theta_alpha: measured 2.4e-13 off,
        # where the product-integration band missed by 5.9e-4
        st = ContourState.disc(512, 0.5)
        u = velocity_contour(st)
        tang = (u * np.conj(1j * st.nodes)).real
        assert np.abs(tang - theta_alpha(0.5)).max() < 5e-12

    def test_resolution_convergence_order(self):
        # the U_n error against a 2048-node reference on an ellipse falls like
        # h^(5 - alpha): measured 15.9-24.8 per doubling from 64 to 256
        # nodes, where the product-integration band gave 3.9-5.6
        bnd = FourierBoundary.ellipse(0.3)
        for alpha in (0.35, 0.5, 0.97, 1.0):
            states = [ContourState.from_boundary(bnd, m, alpha) for m in (64, 128, 256, 2048)]
            speeds = [normal_part(st, velocity_contour(st)) for st in states]
            errors = np.array([np.abs(u - speeds[-1][::2048 // len(u)]).max()
                               for u in speeds[:-1]])
            assert np.all(errors[:-1] / errors[1:] >= 2.0 ** 3.5)

    def test_subtracted_kernel_changes_only_tangent(self):
        # the integrator's U_n comes from S alone; the velocity adds R gamma'
        st = ContourState.from_boundary(FourierBoundary.ellipse(0.2), 512, 0.5)
        u = velocity_contour(st)
        sub = conv_constant(0.5) / (2.0 * np.pi) * ev._subtracted_layer(st)[0]
        assert np.abs(normal_part(st, u) - integrator_speed(st)).max() < 1e-12
        assert np.abs(u - sub).max() > 1e-2   # tangential parts do differ

    def test_critical_case_needs_subtraction(self):
        st = ContourState.disc(128, 1.0)
        u = velocity_contour(st)
        assert np.abs((u * np.conj(st.nodes)).real).max() < 1e-8

    def test_near_contact_raises(self):
        # a very flat ellipse brings opposite arcs within a quarter spacing
        theta = 2.0 * np.pi * np.arange(256) / 256
        nodes = np.cos(theta) + 1e-4j * np.sin(theta)
        with pytest.raises(ContourError):
            velocity_contour(ContourState(nodes=nodes, time=0.0, alpha=0.5))

    def test_adjacent_cluster_inside_band_passes(self):
        # adjacent nodes closer than the floor lie in the band of neighbours
        # that the near-approach guard ignores
        nodes = ContourState.disc(256, 0.5).nodes
        nodes[5] = nodes[4] + 0.05 * (nodes[5] - nodes[4])
        u = velocity_contour(ContourState(nodes=nodes, time=0.0, alpha=0.5))
        assert np.all(np.isfinite(u))

    @pytest.mark.parametrize("n_nodes, moved, anchor, raises", [
        (256, 255, 0, False),                   # node N - 1 next to node 0
        (512, 128, 127, False),                 # neighbours in adjacent strips
        (256, 10 + ev._WINDOW, 10, False),      # the farthest ignored neighbour
        (256, 11 + ev._WINDOW, 10, True),       # the nearest node the guard sees
    ], ids=["wrap-around", "strip-boundary", "gap-window", "gap-window-plus-one"])
    def test_band_edges(self, n_nodes, moved, anchor, raises):
        # the moved node comes within 2% of its gap to the anchor, far below the floor
        nodes = ContourState.disc(n_nodes, 0.5).nodes
        nodes[moved] = nodes[anchor] + 0.02 * (nodes[moved] - nodes[anchor])
        state = ContourState(nodes=nodes, time=0.0, alpha=0.5)
        if raises:
            with pytest.raises(ContourError, match="non-adjacent"):
                velocity_contour(state)
        else:
            assert np.all(np.isfinite(velocity_contour(state)))

    def test_near_contact_past_first_strip_raises(self):
        # nodes 300 and 305 are non-adjacent and both lie in the third strip
        nodes = ContourState.disc(512, 0.5).nodes
        nodes[300] = nodes[305] + 1e-5
        with pytest.raises(ContourError, match="non-adjacent"):
            velocity_contour(ContourState(nodes=nodes, time=0.0, alpha=0.5))

    @pytest.mark.parametrize("n_nodes", [64, 130, 200, 512, 1024])
    def test_tiled_pair_kernel_matches_dense(self, n_nodes):
        # 130 and 200 are not multiples of the strip height; 130 leaves a
        # last strip of 2 rows
        bnd = embed_mfold(MFoldBoundary(m=3, reduced=[0.05, -0.004, 3e-4]))
        for alpha in (0.35, 0.5, 0.97, 1.0):
            st = ContourState.from_boundary(bnd, n_nodes, alpha)
            dense = dense_velocity(st, subtract=alpha == 1.0)
            assert np.max(np.abs(velocity_contour(st) - dense)) <= 1e-13 * np.max(np.abs(dense))
            sub = dense_velocity(st, subtract=True)
            assert np.max(np.abs(integrator_speed(st) - normal_part(st, sub))) <= \
                1e-13 * np.max(np.abs(sub))

    def test_six_nodes_match_dense(self):
        # at 6 nodes the guard's neighbours at offsets 3 and -3 are the same
        # node, and every other node is one of them
        for alpha in (0.5, 1.0):
            st = ContourState(nodes=sampled_ellipse(6)[0], time=0.0, alpha=alpha)
            dense = dense_velocity(st, subtract=alpha == 1.0)
            assert np.max(np.abs(velocity_contour(st) - dense)) <= \
                1e-13 * np.max(np.abs(dense))
            sub = dense_velocity(st, subtract=True)
            assert np.max(np.abs(integrator_speed(st) - normal_part(st, sub))) <= \
                1e-13 * np.max(np.abs(sub))

    @pytest.mark.parametrize("alpha", [0.95, 0.97, 0.999])
    def test_physical_velocity_near_the_critical_exponent(self, alpha):
        # below alpha = 1 the velocity carries its whole tangential part,
        # which grows like 1 / (1 - alpha)
        bnd = embed_mfold(MFoldBoundary(m=3, reduced=[0.05, -0.004, 3e-4]))
        st = ContourState.from_boundary(bnd, 256, alpha)
        dense = dense_velocity(st, subtract=False)
        assert np.max(np.abs(velocity_contour(st) - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_non_finite_nodes_rejected(self):
        nodes = ContourState.disc(64, 0.5).nodes
        nodes[5] = np.nan
        with pytest.raises(ValueError):
            ContourState(nodes=nodes, time=0.0, alpha=0.5)

    def test_vstate_normal_velocity(self, vstate_053):
        # measured 1.2e-11 at 256 nodes and 4.7e-12 at 512, where the Newton
        # solve's own floor is 4.4e-12
        st = ContourState.from_boundary(vstate_053.full_boundary, 256, 0.5)
        assert normal_velocity_residual(st, vstate_053.omega) < 6e-11
        st2 = ContourState.from_boundary(vstate_053.full_boundary, 512, 0.5)
        assert normal_velocity_residual(st2, vstate_053.omega) < 2.5e-11

    def test_agrees_with_the_hat_window_rule(self):
        # the product-integration band this rule replaced, at its own error:
        # on this shape the gap at 512 nodes is at most 1.4e-5 in U_n and
        # 6.2e-4 in the full velocity, and the U_n gap falls 4.1-6.3 times
        # from 256 nodes, like that rule's error.  At 0.97 the rule takes the
        # subtracted form, so only the normal parts compare
        bnd = embed_mfold(MFoldBoundary(m=3, reduced=[0.05, -0.004, 3e-4]))
        for alpha, subtract in ((0.35, False), (0.5, False), (0.97, True), (1.0, True)):
            gaps = []
            for n_nodes in (256, 512):
                st = ContourState.from_boundary(bnd, n_nodes, alpha)
                gap = velocity_contour(st) - hat_window_velocity(st, subtract)
                gaps.append(np.abs(normal_part(st, gap)).max())
            if subtract == (alpha == 1.0):
                assert np.abs(gap).max() < 2e-3
            assert gaps[1] < 5e-5 and gaps[0] > 3.0 * gaps[1]

    def test_zeta_values(self):
        # scipy's zeta against mpmath on both sides of zeta's pole at 1
        mpmath = pytest.importorskip("mpmath")
        for alpha in (0.05, 0.35, 0.5, 0.97, 0.999):
            zeta_0, zeta_2 = ev._zeta_pair(alpha)
            assert zeta_0 == pytest.approx(float(mpmath.zeta(alpha)), rel=1e-13)
            assert zeta_2 == pytest.approx(float(mpmath.zeta(alpha - 2.0)), rel=1e-13)
        assert ev._zeta_pair(1.0)[1] == pytest.approx(-1.0 / 12.0, rel=1e-14)


class TestStepping:
    def test_zero_velocity_field_is_identity(self, monkeypatch):
        # the disc's modes are neutral under the linear part, so with the
        # field at rest only the clock moves; the FFT round trip leaves rounding
        st = ContourState.disc(64, 0.5)
        calls = Counter()

        def at_rest(state, tangent):
            calls["speed"] += 1
            return np.zeros(state.size)

        monkeypatch.setattr(ev, "_normal_speed", at_rest)
        out = step_normal(st, 0.1)
        assert calls["speed"] == 4
        assert np.abs(out.nodes - st.nodes).max() <= 1e-15
        assert out.time == pytest.approx(0.1)

    def test_cfl_guard(self):
        st = ContourState.from_boundary(FourierBoundary.ellipse(0.3), 64, 0.5)
        with pytest.raises(ContourError):
            step_normal(st, 1.0)

    def test_disc_is_stationary(self):
        st0 = ContourState.disc(256, 0.5)
        st1 = evolve(st0, 1.0, 2e-3)
        assert hausdorff_distance(st1.nodes, st0.nodes) < 1e-6

    def test_conservation_on_ellipse(self):
        st0 = ContourState.from_boundary(FourierBoundary.ellipse(0.3), 512, 0.5)
        st1 = evolve(st0, 1.0, 2e-3)
        a0, c0 = conserved_diagnostics(st0)
        a1, c1 = conserved_diagnostics(st1)
        assert abs(a1 - a0) / a0 < 1e-5
        assert abs(c1 - c0) < 1e-5

    def test_redistribute_keeps_curve(self):
        # the nodes stay on the ellipse (x/1.3)^2 + (y/0.7)^2 = 1: |F| / |grad F|
        # is their distance to it up to its square; 9e-13 measured, 1.3e-8
        # with the periodic cubic spline
        st = ContourState.from_boundary(FourierBoundary.ellipse(0.3), 256, 0.5)
        rd = redistribute(st)
        seg = np.abs(np.diff(np.append(rd.nodes, rd.nodes[0])))
        assert seg.std() / seg.mean() < 1e-3
        x, y = rd.nodes.real / 1.3, rd.nodes.imag / 0.7
        off = np.abs(x ** 2 + y ** 2 - 1.0) / (2.0 * np.hypot(x / 1.3, y / 0.7))
        assert off.max() <= 1e-11

    def test_redistribute_keeps_a_vstate_spectral(self):
        # the 256-node (0.35, 4, 0.1) V-state: the raw nodes hold 3e-17 above
        # 0.8 N/2; the trigonometric resampling leaves 9.8e-14 there and moves
        # the curve by 2.5e-12 (the periodic cubic spline: 1.5e-9 and 4.7e-8)
        state0 = ContourState.from_boundary(solve_vstate(0.35, 4, 0.1).full_boundary, 256, 0.35)
        start = redistribute(state0)
        top = np.abs(np.fft.fftfreq(256, d=1.0 / 256)) > 0.8 * 128
        assert np.abs(np.fft.fft(start.nodes) / 256)[top].max() <= 1e-12
        assert hausdorff_distance(start.nodes, state0.nodes) <= 1e-11

    def test_dilation_clock_rescaling(self):
        # evolving the doubled patch for 2^alpha * T matches doubling the
        # evolved original
        a, t_short = 0.5, 0.15
        bnd = FourierBoundary.ellipse(0.3)
        small = evolve(ContourState.from_boundary(bnd, 256, a), t_short, 1e-3)
        big0 = ContourState(nodes=2.0 * ContourState.from_boundary(bnd, 256, a).nodes,
                            time=0.0, alpha=a)
        big = evolve(big0, 2.0 ** a * t_short, 1e-3)
        assert hausdorff_distance(big.nodes, 2.0 * small.nodes) < 1e-5


class TestNormalStepping:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.97, 1.0])
    def test_disc_is_a_fixed_point(self, alpha):
        assert np.abs(normal_node_velocity(ContourState.disc(256, alpha))).max() <= 1e-13

    def test_keeps_equal_spacing(self):
        start = redistribute(ContourState.from_boundary(FourierBoundary.ellipse(0.3), 256, 0.5))
        end = evolve(start, 0.5, stability_step(start))
        seg = np.abs(np.diff(np.append(end.nodes, end.nodes[0])))
        assert seg.std() / seg.mean() < 1e-4

    def test_agrees_with_lagrangian_on_ellipse(self):
        # a non-steady shape: the two node motions trace the same curve; the
        # measured gap is 5.5e-7, against 5.1e-9 between Lagrangian steps of
        # 2e-3 and 1e-3
        st0 = ContourState.from_boundary(FourierBoundary.ellipse(0.3), 256, 0.5)
        lagrangian = lagrangian_evolve(st0, 0.5, 2e-3)
        start = redistribute(st0)
        normal = evolve(start, 0.5, stability_step(start))
        assert normal.time == pytest.approx(0.5)
        assert hausdorff_distance(lagrangian.nodes, normal.nodes) < 1e-5

    def test_converges_at_the_critical_exponent(self):
        # alpha = 1 runs the subtracted kernel; the 512-node run lands 1.0e-7
        # from the 1024-node one
        bnd = FourierBoundary.ellipse(0.3)
        coarse, fine = (evolve(ContourState.from_boundary(bnd, n, 1.0), 0.3, 2e-3)
                        for n in (512, 1024))
        assert hausdorff_distance(coarse.nodes, fine.nodes) < 1e-5

    @pytest.mark.parametrize("lam", [0.3, 2.0])
    def test_stability_step_follows_the_dilation_clock(self, lam):
        # z -> lam z rescales time by lam^alpha (test_dilation_clock_rescaling)
        a = 0.5
        st = ContourState.from_boundary(FourierBoundary.ellipse(0.3), 256, a)
        big = ContourState(nodes=lam * st.nodes, time=0.0, alpha=a)
        assert stability_step(big) / stability_step(st) == pytest.approx(lam ** a, rel=1e-12)

    def test_unstable_step_fails_typed(self):
        # three times the rule's step on the (0.97, 2, 0.1) V-state, where the
        # first failure is at 2.6 times the rule and the guard at 5.4 times:
        # high modes grow until the step guard trips (step 113), before any
        # node turns non-finite.  (At the (0.5, 3, 0.03) V-state the stepper
        # is stable up to the guard, which would trip on the first step.)
        sol = solve_vstate(0.97, 2, 0.1)
        start = redistribute(ContourState.from_boundary(sol.full_boundary, 256, 0.97))
        dt = 3.0 * stability_step(start)
        cur = start
        with pytest.raises(ContourError):
            for _ in range(200):
                cur = step_normal(cur, dt)
                assert np.all(np.isfinite(cur.nodes))

    def test_filter_holds_the_top_modes(self, vstate_053):
        # the top fifth of the kept band, the modes above 0.8 k_c, holds
        # 9.3e-15 at the start and 1.9e-14 after 160 steps at the rule's step
        # (1.9e-11 with the third derivative's sign flipped); unfiltered, the
        # same step trips the guard at step 12
        start = redistribute(ContourState.from_boundary(vstate_053.full_boundary, 256, 0.5))
        dt = stability_step(start)
        cur = start
        for _ in range(160):
            cur = step_normal(cur, dt)
        top = np.abs(np.fft.fftfreq(256, d=1.0 / 256)) > 0.8 * ev._filter_cutoff(256)
        assert np.abs(np.fft.fft(cur.nodes) / 256)[top].max() < 1e-12

    def test_guard_bound_is_the_step_guard(self):
        # dt_guard sits 5% inside the bound `step_normal` enforces
        start = redistribute(ContourState.from_boundary(FourierBoundary.ellipse(0.3), 128, 0.5))
        _, dt_guard = normal_step_bounds(start)
        step_normal(start, dt_guard)
        with pytest.raises(ContourError, match="quarter-spacing"):
            step_normal(start, 1.001 * dt_guard / ev._GUARD_MARGIN)

    @pytest.mark.parametrize("alpha", [0.35, 0.97])
    def test_disc_stays_fixed_under_the_step(self, alpha):
        disc = ContourState.disc(256, alpha)
        dt = min(normal_step_bounds(disc))
        cur = disc
        for _ in range(20):
            cur = step_normal(cur, dt)
        assert np.abs(cur.nodes - disc.nodes).max() <= 1e-13

    def test_shares_the_step_guard(self, monkeypatch):
        st = ContourState.disc(64, 0.5)
        monkeypatch.setattr(ev, "_normal_velocity_spectrum",
                            lambda state: np.fft.fft(np.full(state.size, 10.0 + 0j)))
        with pytest.raises(ContourError, match="quarter-spacing"):
            step_normal(st, 0.1)


    def test_step_makes_four_velocity_passes_and_few_transforms(self, monkeypatch):
        # work counts of one 512-node step from a state with no cached
        # spectrum: four pair-kernel passes, and 19 transforms (2 for the
        # fresh state's spectrum and derivatives, 3 per stage velocity, 1 for
        # the guard's node velocity, 1 per stage state and for the result;
        # 36 when E and L ran on the nodes)
        start = redistribute(ContourState.from_boundary(FourierBoundary.ellipse(0.3), 512, 0.5))
        dt = stability_step(start)
        fresh = ContourState(nodes=start.nodes, time=0.0, alpha=0.5)
        calls = Counter()

        def counted(kind, fn):
            def wrapped(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(ev, "_subtracted_layer", counted("velocity", ev._subtracted_layer))
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(ev, name, counted("transform", getattr(ev, name)))
            monkeypatch.setattr(np.fft, name, counted("transform", getattr(np.fft, name)))
        step_normal(fresh, dt)
        assert calls["velocity"] == 4
        assert calls["transform"] <= 20


# (alpha, m, s) points behind `stability_step`'s constants, each run at 256
# nodes at the rule's step and at 1.5 times it, capped by dt_guard; the
# margin also runs at 512 nodes for (0.97, 2, 0.1) and (0.97, 3, 0.1), which
# first fail at 2.3 times the rule, well inside their guard (6.2 and 3.4
# times)
RULE_SWEEP = [(a, m, s) for a in (0.35, 0.97) for m in (2, 3, 4) for s in (0.03, 0.1)]
RULE_CASES = ([pytest.param(a, m, s, 256, 1.0, id=f"{a}-{m}-{s}") for a, m, s in RULE_SWEEP]
              + [pytest.param(a, m, s, 256, 1.5, id=f"{a}-{m}-{s}-x1.5")
                 for a, m, s in RULE_SWEEP]
              + [pytest.param(0.97, m, 0.1, 512, 1.5, id=f"0.97-{m}-0.1-512-x1.5")
                 for m in (2, 3)])


def top_mode_growth(start: ContourState, end: ContourState) -> float:
    """Largest gain of |FFT| / N over the modes above 0.8 k_c, the top fifth
    of the band the velocity filter keeps.  A rigid rotation, and a shift of
    the nodes along the curve, keep every |FFT|, so a stable run gains only
    rounding there whatever the start holds (the 256-node (0.35, 4, 0.1)
    V-state holds 4.8e-10 of its own)."""
    nodes = start.size
    top = np.abs(np.fft.fftfreq(nodes, d=1.0 / nodes)) > 0.8 * ev._filter_cutoff(nodes)
    gain = np.abs(np.fft.fft(end.nodes)) - np.abs(np.fft.fft(start.nodes))
    return float(gain[top].max()) / nodes


@pytest.mark.slow
@pytest.mark.parametrize("alpha, m, s, nodes, factor", RULE_CASES)
def test_step_rule_passes_a_quarter_period(alpha, m, s, nodes, factor):
    sol = solve_vstate(alpha, m, s)
    state0 = ContourState.from_boundary(sol.full_boundary, nodes, alpha)
    start = redistribute(state0)
    quarter = np.pi / (2.0 * sol.omega)
    dt_rule, dt_guard = normal_step_bounds(start)
    n_steps = int(np.ceil(quarter / min(factor * dt_rule, dt_guard)))
    end = evolve(start, quarter, quarter / n_steps)
    rotated = np.exp(1j * sol.omega * quarter) * state0.nodes
    area0, cent0 = conserved_diagnostics(state0)
    area1, cent1 = conserved_diagnostics(end)
    assert hausdorff_distance(end.nodes, rotated) < 1e-3
    assert abs(area1 - area0) / area0 < 1e-5
    assert abs(cent1 - cent0) < 1e-5
    assert top_mode_growth(start, end) < 1e-9


class TestDiscFlow:
    """The linear part that `step_normal` integrates exactly, on FFTs; the
    gaps are measured on the nodes."""

    def test_is_a_one_parameter_group(self, vstate_053, rng):
        st = redistribute(ContourState.from_boundary(vstate_053.full_boundary, 256, 0.5))
        flow = ev._DiscFlow.about(st)
        v = np.fft.fft(rng.standard_normal(256) + 1j * rng.standard_normal(256))

        def gap(a, b):
            return np.abs(np.fft.ifft(a - b)).max()

        assert gap(flow.turn(0.0)(v), v) <= 1e-14
        # the phase rounding grows like |lam_top t| eps, so t stays near a step
        for t, u in ((0.01, 0.02), (0.05, -0.02), (0.3, 0.2)):
            assert gap(flow.turn(t)(flow.turn(u)(v)), flow.turn(t + u)(v)) <= 1e-14
        # and L generates it
        eps = 1e-6
        rate = (flow.turn(eps)(v) - flow.turn(-eps)(v)) / (2.0 * eps)
        lin = flow.linear(v)
        assert gap(rate, lin) <= 1e-8 * np.abs(np.fft.ifft(lin)).max()

    @pytest.mark.parametrize("alpha", [0.35, 0.97])
    def test_is_the_linearization_at_the_disc(self, alpha):
        # central differences of the node velocity against L, normal (r) and
        # tangential (q) displacements of modes k <= 10; the worst gap is at
        # k = 10: 0.02% (alpha 0.35) and 0.2% (alpha 0.97) of |L r_k|.  The
        # radius is not 1, so that the R^(-alpha) of the rates is checked too
        disc = ContourState(1.5 * ContourState.disc(512, alpha).nodes, 0.0, alpha)
        flow = ev._DiscFlow.about(disc)
        sigma = 2.0 * np.pi * np.arange(512) / 512

        def linear(dz):
            return np.fft.ifft(flow.linear(np.fft.fft(dz)))

        floor = np.abs(linear(np.cos(2.0 * sigma) * np.exp(1j * sigma))).max()
        eps = 1e-6
        for k in range(11):
            normal = np.cos(k * sigma) * np.exp(1j * sigma)
            scale = max(floor, np.abs(linear(normal)).max())
            for shape in (np.cos(k * sigma), 1j * np.sin(k * sigma)):
                dz = shape * np.exp(1j * sigma)
                plus = normal_node_velocity(ContourState(disc.nodes + eps * dz, 0.0, alpha))
                minus = normal_node_velocity(ContourState(disc.nodes - eps * dz, 0.0, alpha))
                gap = np.abs((plus - minus) / (2.0 * eps) - linear(dz)).max()
                assert gap <= 5e-3 * scale


class TestSpectralState:
    def test_matches_the_state_of_its_nodes(self):
        st = ContourState.from_boundary(FourierBoundary.ellipse(0.3), 512, 0.5)
        built = ContourState.from_spectrum(st.spectrum.copy(), 0.0, 0.5)
        for name in ("nodes", "spectrum", "derivatives"):
            ref = getattr(st, name)
            assert np.abs(getattr(built, name) - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        spec = ContourState.disc(64, 0.5).spectrum.copy()
        spec[3] = bad
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            ContourState.from_spectrum(spec, 0.0, 0.5)


class TestStepCount:
    def test_step_never_exceeds_the_request(self):
        # rounding 2.5 took 2 steps of 0.5
        n_steps, dt = ev._steps(1.0, 0.4)
        assert n_steps == 3 and dt <= 0.4

    @pytest.mark.parametrize("horizon", [1.0, np.pi / (2.0 * 0.2854), 3.7e-3])
    def test_an_even_division_keeps_its_count(self, horizon):
        for n in range(1, 3001):
            assert ev._steps(horizon, horizon / n)[0] == n


class TestOddNodeCounts:
    @pytest.mark.parametrize("m", [7, 255])
    def test_tangent_of_odd_ellipse(self, m):
        z, dz = sampled_ellipse(m)
        assert np.abs(ContourState(nodes=z, time=0.0, alpha=0.5).tangent - dz).max() < 1e-12

    def test_tangent_keeps_top_odd_mode(self):
        # mode 3 is the top mode of 7 nodes, not a Nyquist mode
        t = 2.0 * np.pi * np.arange(7) / 7
        z = np.exp(1j * t) + 0.2 * np.exp(3j * t)
        exact = 1j * np.exp(1j * t) + 0.6j * np.exp(3j * t)
        assert np.abs(ContourState(nodes=z, time=0.0, alpha=0.5).tangent - exact).max() < 1e-14

    @pytest.mark.parametrize("m", [128, 255, 257, 512])
    def test_hausdorff_odd_against_even(self, m):
        # the same ellipse at m and 256 nodes reads 2e-14, or 3e-13 at 128
        # nodes, where the Taylor polynomials between the 16x points err by up
        # to the fourth derivative times (pi / 2048)^4 / 24 (the chord sag of a
        # 16x polyline read 3.7e-7 to 1.5e-6)
        assert hausdorff_distance(sampled_ellipse(m)[0], sampled_ellipse(256)[0]) <= 1e-12


class TestDiagnostics:
    def test_unit_disc(self):
        area, cent = conserved_diagnostics(ContourState.disc(4096, 0.5))
        assert area == pytest.approx(np.pi, rel=1e-6)
        assert abs(cent) < 1e-14

    def test_unit_area_ellipse(self):
        # semi-axes 1.3 and 1/1.3 enclose area pi
        theta = 2.0 * np.pi * np.arange(4096) / 4096
        nodes = 1.3 * np.cos(theta) + 1j * np.sin(theta) / 1.3
        area, _ = conserved_diagnostics(ContourState(nodes=nodes, time=0.0, alpha=0.5))
        assert area == pytest.approx(np.pi, rel=1e-5)

    def test_area_ignores_redistribution(self):
        # nodes that only slide along the curve keep the spectral area; the
        # polygon area moved by 1.1e-5 here
        sol = solve_vstate(0.5, 3, 0.2)
        st = ContourState.from_boundary(sol.full_boundary, 512, 0.5)
        a0, c0 = conserved_diagnostics(st)
        a1, c1 = conserved_diagnostics(redistribute(st))
        assert abs(a1 - a0) / a0 < 1e-8
        assert abs(c1 - c0) < 1e-8

    def test_hausdorff_detects_radial_motion(self):
        z = ContourState.disc(256, 0.5).nodes
        assert hausdorff_distance(z, 1.0001 * z) == pytest.approx(1e-4, rel=1e-2)

    def test_hausdorff_ignores_reparametrization(self):
        z = ContourState.disc(256, 0.5).nodes
        assert hausdorff_distance(z, np.exp(0.37j) * z) <= 1e-13


def test_imports_nothing_from_the_spectral_solver():
    # contour dynamics is the independent check on the solver, so it may not
    # share the solver's code
    tree = ast.parse(Path(ev.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert not imported & {"kernels", "linearization", "continuation"}


@pytest.mark.parametrize("m", [8, 130, 512])
def test_tables_nyquist_convention(m):
    tables = ev._tables(m)
    half = m // 2
    # FFT index j of z holds mode j - 1 of w: w's Nyquist mode is filtered out
    assert tables.filter[half + 1] == 0.0
    assert tables.filter[1] == 1.0
    # the unmatched Nyquist wavenumber of z has no derivative or antiderivative
    assert np.all(tables.derivative[1:, half] == 0.0)
    assert tables.antiderivative[half] == 0.0
    k = np.arange(1, half)
    assert np.max(np.abs(tables.antiderivative[1:half] * 1j * k - 1.0)) <= 1e-15
    assert all(not arr.flags.writeable for arr in tables)
    assert ev._tables(m) is tables

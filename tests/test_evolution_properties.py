"""Property tests of the contour-dynamics velocity over random inputs (needs hypothesis).

Node counts run from 32 to 300, so the last pair-kernel strip is usually
ragged, and the shapes are random star-shaped perturbations of the disc.
The exponent stays above 0.05: the boundary integral of the tangent
vanishes at alpha = 0, so the velocity is a cancellation of O(1) terms to
O(alpha) and rounding grows like 1/alpha (about 1e-12 at alpha = 1e-3).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gsqg.evolution import ContourState, velocity_contour  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None)
REL = 1e-12


@st.composite
def contours(draw):
    """(nodes, alpha) for a smooth star-shaped patch."""
    m = draw(st.integers(min_value=32, max_value=300))
    alpha = draw(st.floats(min_value=0.05, max_value=1.0))
    amps = draw(st.lists(st.floats(min_value=-0.05, max_value=0.05), min_size=1, max_size=4))
    phases = draw(st.lists(st.floats(min_value=0.0, max_value=2.0 * np.pi),
                           min_size=len(amps), max_size=len(amps)))
    theta = 2.0 * np.pi * np.arange(m) / m
    radius = 1.0 + sum(a * np.cos((k + 2) * theta + p)
                       for k, (a, p) in enumerate(zip(amps, phases)))
    return radius * np.exp(1j * theta), alpha


def _velocity(nodes, alpha):
    return velocity_contour(ContourState(nodes=nodes, time=0.0, alpha=alpha))


def _close(a, b):
    return np.max(np.abs(a - b)) <= REL * np.max(np.abs(b))


@SETTINGS
@given(c=contours(), angle=st.floats(min_value=-np.pi, max_value=np.pi))
def test_rotation_equivariance(c, angle):
    nodes, alpha = c
    turn = np.exp(1j * angle)
    assert _close(_velocity(turn * nodes, alpha),
                  turn * _velocity(nodes, alpha))


@SETTINGS
@given(c=contours(), shift=st.integers(min_value=1, max_value=299))
def test_cyclic_shift_equivariance(c, shift):
    nodes, alpha = c
    assert _close(_velocity(np.roll(nodes, shift), alpha),
                  np.roll(_velocity(nodes, alpha), shift))


@SETTINGS
@given(c=contours(), scale=st.floats(min_value=0.1, max_value=10.0))
def test_dilation_law(c, scale):
    # the kernel is homogeneous of degree -alpha, the tangent of degree 1
    nodes, alpha = c
    assert _close(_velocity(scale * nodes, alpha),
                  scale ** (1.0 - alpha) * _velocity(nodes, alpha))

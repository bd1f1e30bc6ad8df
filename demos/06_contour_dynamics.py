"""Does the computed patch actually rotate?  Ask a different discretization.

The branch solver works spectrally on conformal coefficients.  Contour
dynamics knows nothing about any of that: it moves boundary nodes with the
normal component of the layer-potential velocity (trapezoid plus two
zeta-function terms at the singular node) and a tangential velocity that keeps
their spacing, taking the stiff disc modes exactly.  If the solver is
right, the evolved boundary must coincide with a rigid rotation of the
initial one, and area and centroid must stay put.  A quarter period at
modest resolution settles it in a few seconds.
"""

from pathlib import Path

import numpy as np

from gsqg import (ContourState, conserved_diagnostics, evolve,
                  hausdorff_distance, normal_step_bounds,
                  normal_velocity_residual, solve_vstate)
from gsqg.output import write_curves_svg

print(__doc__)

alpha, m, s = 0.5, 3, 0.03
sol = solve_vstate(alpha, m, s)
print(f"solved branch point: m={m}, s={s}, omega = {sol.omega:.10f}")

state0 = ContourState.from_boundary(sol.full_boundary, 512, alpha)
print(f"normal velocity vs rigid rotation at 512 nodes: "
      f"{normal_velocity_residual(state0, sol.omega):.2e}")

quarter = np.pi / (2.0 * sol.omega)
# the step: the stability rule of the top mode the filter keeps, or the
# node-spacing guard; evolve takes the fewest equal steps no longer than it
dt = min(normal_step_bounds(state0))
print(f"marching a quarter period T = {quarter:.3f} in steps of at most {dt:.2e} ...")
state1 = evolve(state0, quarter, dt)

rotated = np.exp(1j * sol.omega * quarter) * state0.nodes
print(f"hausdorff distance to the rotated start: "
      f"{hausdorff_distance(state1.nodes, rotated):.2e}")

a0, c0 = conserved_diagnostics(state0)
a1, c1 = conserved_diagnostics(state1)
print(f"area drift {abs(a1 - a0) / a0:.2e}, centroid drift {abs(c1 - c0):.2e}")

out = Path(__file__).with_name("06_contour_dynamics_quarter_turn.svg")
write_curves_svg(out, [state0.nodes, state1.nodes], ["t = 0", "quarter period"])
print(f"wrote start/end boundaries to {out.name}")

"""Following a branch of rotating patches away from the disc.

Amplitude continuation: pin the leading m-fold coefficient at s, solve the
symmetric sine modes for the angular velocity and the higher rungs, march s
upward reusing each solution as the next predictor.  The angular velocity
extrapolates back to the dispersion value as s -> 0, the higher rungs decay
quadratically, and the converged shapes land in an SVG next to this script.
"""

from pathlib import Path

import numpy as np

from gsqg import UnitGrid, continue_branch, eval_map, omega_dispersion
from gsqg.output import write_curves_svg

print(__doc__)

alpha, m = 0.5, 4
table = continue_branch(alpha, m, s_max=0.04, ds=0.01)
print(f"branch alpha={alpha}, m={m}:")
print(f"{'s':>6} {'omega':>14} {'residual':>10} {'a_(2m-1)':>12}")
for sol in table.solutions:
    print(f"{sol.s:6.3f} {sol.omega:14.10f} {sol.residual_norm:10.1e} "
          f"{sol.reduced[1]:+12.3e}")

om0 = omega_dispersion(alpha, m)
print(f"\nextrapolated omega(s->0): {table.extrapolate_omega():.10f}")
print(f"dispersion value        : {om0:.10f}")
print(f"gap {abs(table.extrapolate_omega() - om0):.2e}")

r1 = table.solutions[0].reduced[1] / table.solutions[0].s
r4 = table.solutions[-1].reduced[1] / table.solutions[-1].s
print(f"\nsecond rung per unit amplitude grows linearly in s: "
      f"{r1:.3e} at s=0.01 vs {r4:.3e} at s=0.04")

out = Path(__file__).with_name("05_vstate_branch_boundaries.svg")
curves = [eval_map(sol.full_boundary, UnitGrid(512)) for sol in table.solutions]
write_curves_svg(out, curves, [f"s={sol.s:g}" for sol in table.solutions])
print(f"\nwrote boundary shapes to {out.name}")

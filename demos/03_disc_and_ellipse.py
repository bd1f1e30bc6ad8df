"""Discs always rotate; ellipses never do (except at the critical exponent).

Plugging a boundary into the patch functional leaves a residual whose sine
coefficients must all vanish for a rotating solution.  The disc kills the
residual identically, at every angular velocity.  The ellipse cannot: its
fourth sine coefficient is independent of omega and bounded away from zero,
because the moment ratio a2/a0 = (2+a)(4+a)/((4-a)(6-a)) differs from 1 for
every exponent a except a = 1.
"""

import numpy as np

from gsqg import (FourierBoundary, UnitGrid, ellipse_fourth_coefficient,
                  ellipse_moment_ratio, functional_G)

print(__doc__)

grid = UnitGrid(256)
disc = FourierBoundary.identity()
print("disc residual sup-norm over omega and alpha:")
worst = max(functional_G(om, disc, a, grid).sup_norm
            for om in np.linspace(-1, 1, 9) for a in (0.1, 0.5, 0.9))
print(f"  max = {worst:.2e}  (zero to rounding)")

alpha, q = 0.5, 0.3
print(f"\nellipse Q={q}, alpha={alpha}: fourth sine coefficient vs omega:")
for om in (-1.0, -0.5, 0.0, 0.5, 1.0):
    print(f"  omega={om:+.1f}:  g4 = {ellipse_fourth_coefficient(om, q, alpha):+.10f}")
print("  (identical: the omega dependence lives entirely in mode 2)")

print("\nmoment ratio a2/a0 across alpha (obstruction closes only at 1):")
for a in (0.25, 0.5, 0.75, 1.0):
    print(f"  alpha={a}:  {ellipse_moment_ratio(a):.10f}")

print("\nthe critical-case functional still obstructs the ellipse:")
for om in (-0.5, 0.5):
    fld = functional_G(om, FourierBoundary.ellipse(q), 1.0, grid)
    print(f"  omega={om:+.1f}:  g4 = {fld.sine_coeff(4):+.10f}")
print("\n(the ratio degenerates at alpha = 1, but higher-order terms keep the"
      "\nfourth coefficient nonzero there too)")

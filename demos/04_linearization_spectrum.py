"""The linearized operator at the disc, three independent ways.

Analytically the derivative acts as a Fourier multiplier: perturbing
coefficient b_n responds only in sine mode n+1, with weight
(n+1)(omega - omega_{n+1})/2.  We rebuild the same matrix from the product
quadrature of the nonlinear functional's directional derivative, watch the
two agree, then solve the affine (m, m-1) entry of the assembled Jacobian
for the bifurcation point and confirm the kernel is one-dimensional and
crossed transversally.
"""

import numpy as np

from gsqg import (bifurcation_scan, disc_jacobian, kernel_diagnostics,
                  multiplier_at_disc, omega_dispersion, transversality_check)

print(__doc__)

alpha, m = 0.5, 3
omega = omega_dispersion(alpha, m)
print(f"multipliers at omega = omega_{m} = {omega:.10f} (alpha = {alpha}):")
mult = multiplier_at_disc(alpha, omega, 8)
jac = disc_jacobian(alpha, omega, 8)
diag = np.diag(jac)
print(f"{'n':>3} {'analytic':>15} {'quadrature':>15} {'gap':>9}")
for n in range(8):
    print(f"{n:3d} {mult[n]:15.10f} {diag[n]:15.10f} "
          f"{abs(mult[n] - diag[n]):9.1e}")
print(f"  -> mode {m - 1} sits on the kernel; everything else is invertible")

off = np.max(np.abs(jac - np.diag(diag)))
print(f"\nlargest off-diagonal entry: {off:.2e} (diagonal to rounding)")

window = (omega - 0.05, omega + 0.05)
found = bifurcation_scan(alpha, m, window)
print(f"\nroot of the assembled (m, m-1) entry {found:.12f}")
print(f"closed form                         {omega:.12f}")
print(f"gap {abs(found - omega):.2e}")

info = kernel_diagnostics(alpha, m, found)
print(f"\nsingular values near the crossing: smallest {info['singular_values'][-1]:.2e}, "
      f"next {info['singular_values'][-2]:.2e}")
print(f"kernel mass on mode {m - 1}: {info['kernel_mass']:.9f}")
print(f"transversality holds: {transversality_check(alpha, m)}")

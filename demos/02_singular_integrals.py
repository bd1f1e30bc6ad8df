"""The exact circle moments that make the singular quadrature exact.

Every integral operator in the package reduces to contour means of powers
against |w - tau|^(-alpha) kernels.  These have closed forms in rising
factorials; here we pit them against blind quadrature of the defining
integrals.  The rule (Gauss–Jacobi) knows only the kernel's t^(-alpha)
endpoint singularity, not that the answers are hypergeometric.
"""

from gsqg import (oracles, singular_moment_I, singular_moment_J,
                  singular_moment_Z, sqg_moment_1, sqg_moment_2)

print(__doc__)

alpha = 0.5
print(f"power moments at alpha = {alpha} (closed form | quadrature | gap):")
for n in range(0, 9, 2):
    cf = singular_moment_I(alpha, n)
    qd = oracles.moment_I_quad(alpha, n)
    print(f"  n={n}:  {cf:+.12f} | {qd:+.12f} | {abs(cf - qd):.1e}")

print("\nchord and conjugate moments, which check the gap ladder behind the weight row (J)"
      "\nand the ratio ladder (Z):")
for n in (1, 4, 8):
    cj, qj = singular_moment_J(alpha, n), oracles.moment_J_quad(alpha, n)
    cz, qz = singular_moment_Z(alpha, n), oracles.moment_Z_quad(alpha, n)
    print(f"  n={n}:  J {cj:+.10f} (gap {abs(cj - qj):.1e})   "
          f"Z {cz:+.10f} (gap {abs(cz - qz):.1e})")

print("\ncritical-case moments are rational multiples of 1/pi:")
for n in (1, 2, 4):
    c1, q1 = sqg_moment_1(n), oracles.sqg_moment_1_quad(n)
    c2, q2 = sqg_moment_2(n), oracles.sqg_moment_2_quad(n)
    print(f"  n={n}:  {c1:+.12f} (gap {abs(c1 - q1):.1e})   "
          f"{c2:+.12f} (gap {abs(c2 - q2):.1e})")

print("\nEverything agrees to ~1e-15 here, and still within 3e-15 (relative)"
      "\nat alpha = 0.999, where the rule's weights carry the endpoint singularity."
      "\nAt small alpha the quadrature sums O(1) terms to moments of size O(alpha),"
      "\nso its relative error grows like 4e-14 / alpha (4e-10 at alpha = 1e-4).")

"""Boundary forms at the singular origin.

Shows the symplectic form between the patched multipliers, the limit
identities that classify the self-adjoint boundary conditions, and a
Green-identity defect over a compact interval.
"""

import numpy as np

from bessel4 import forms as F
from bessel4.solutions import Params, SolutionHandle, SolutionKind

P = Params(1.0)
one = F.SeriesBundle.monomial(0)
xsq = F.SeriesBundle.monomial(2)

print("the symplectic form [1, x^2](x) = 16 + 16 x^2 / M:")
for x in (0.5, 0.1, 0.01, 0.001):
    print(f"  x = {x:6.3f}: {F.symplectic_form(one, xsq, x, P):.12f}")

print("\n[1, x](x) has no 0+ limit (grows like 9/x):")
for x in (0.1, 0.01, 0.001):
    print(f"  x = {x:6.3f}: {F.symplectic_form(one, F.SeriesBundle.monomial(1), x, P):12.3f}")

print("\nboundary data of the regular solutions (read from the series at 0):")
for kind in (SolutionKind.jtype, SolutionKind.itype):
    h = F.SolutionBundle(SolutionHandle(kind, 1.0, P))
    b = F.boundary_data(h, P)
    print(f"  {kind.value}: f(0) = {b.f0:+.10f}   f''(0) = {b.f2:+.10f}"
          f"   (closed form -M L/16 = {-9.0 / 16.0:+.10f})")

print("\nlimit identities on the jtype bundle (Richardson on the forms):")
h = F.SolutionBundle(SolutionHandle(SolutionKind.jtype, 1.0, P))
b = F.boundary_data(h, P)
grid = 1e-2 / 2.0 ** np.arange(5)
s1 = F._ladder(F.symplectic_form(h, one, grid, P))
s2 = F._ladder(F.symplectic_form(h, xsq, grid, P))
print(f"  [f, 1](0+)   = {s1:+.10f}   vs -8 f''(0) = {-8 * b.f2:+.10f}")
print(f"  [f, x^2](0+) = {s2:+.10f}   vs 16 f(0)   = {16 * b.f0:+.10f}")

print("\nGreen identity defect for (jtype, ktype) on [0.5, 3]:")
hj = SolutionHandle(SolutionKind.jtype, 1.0, P)
hk = SolutionHandle(SolutionKind.ktype, 1.0, P)
print(f"  {F.greens_check(hj, hk, 0.5, 3.0, P, tol=1e-10):.3e}")

print("\nenergy identity on a zero-boundary test function "
      "(x^4 e^{-x^2/2}):")
f = F.PolyGaussBundle([0, 0, 0, 0, 1.0], 0.5)
total, tail = F.dirichlet_integral(f, P, upper=30.0)
print(f"  Dirichlet integral = {total:.10f} (tail estimate {tail:.1e})")

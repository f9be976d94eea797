"""Series structure at the regular singular origin.

One engine, mechanically driven by the Laurent data of the equation,
yields the indicial roots of the fourth-, sixth-, and eighth-order
equations, the pure-power solution at the top root, and the logarithmic
basis at the lower roots.
"""

import numpy as np

from bessel4.equation import equation_op
from bessel4.frobenius import (indicial_roots, leading_constant_report,
                               log_case_basis, substitution_residual, y4_series)
from bessel4.solutions import Params

P = Params(1.0)
for order in (4, 6, 8):
    roots = indicial_roots(equation_op(order, P, 1.0))
    print(f"order {order}: indicial roots {roots}")

print("\npure-power solution at the top root (M = 1, L = 1):")
fs = y4_series(1.0, P, N=16)
for n, c in enumerate(fs.coeffs):
    if c:
        print(f"  x^{4 + n}: {c:+.12g}")
print(f"  substitution residual at x = 0.1: "
      f"{substitution_residual(fs, 1.0, P, 0.1):.1e}")

print("\nlogarithmic basis (leading terms; unit leading coefficient,")
print("reduced modulo the higher-root solutions):")
for fs in log_case_basis(1.0, P, N=16):
    logs = sorted(fs.log_blocks)[:2]
    print(f"  root {fs.root:+d}: leading x^{fs.root}, first log blocks "
          + ", ".join(f"x^{p} ln^{d} (coeff {c:+.4g})" for p, d, c in logs))
    print(f"           substitution residual at 0.05: "
          f"{substitution_residual(fs, 1.0, P, 0.05):.1e}")

print("\npublished-table comparison (normalization-dependent, informational):")
for root, row in leading_constant_report().items():
    print(f"  root {root:+d}: published/ours = {row['ratio']:.4g}")

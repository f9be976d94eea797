"""Generate the Chebyshev tables of the J/Y modulus-phase functions on [8, 17).

For x >= 8 the order-0 and order-1 Bessel functions are written as

    J_nu(x) = sqrt(2/(pi x)) (P_nu(x) cos w - Q_nu(x) sin w),
    Y_nu(x) = sqrt(2/(pi x)) (P_nu(x) sin w + Q_nu(x) cos w),

with w = x - (2 nu + 1) pi/4.  P and Q are smooth and do not oscillate.  On
[8, 17) ``bessel4.classical`` evaluates them from truncated Chebyshev series
in u = (272/x - 25)/9, which is linear in 1/x and maps x = 8 to u = 1 and
x = 17 to u = -1.

This script computes the coefficients from 40-digit mpmath values of J and Y
at Chebyshev nodes (a discrete cosine transform on NODES points, truncated
at DEGREE) and prints the literal tables that ``classical.py`` holds:

    python tools/gen_jy_tables.py

It needs mpmath only.  ``tests/test_classical.py`` recomputes the tables
and checks them against the checked-in ones.
"""

import mpmath as mp

DIGITS = 40
DEGREE = 12
NODES = 64
NAMES = ("_P0_CHEB", "_Q0_CHEB", "_P1_CHEB", "_Q1_CHEB")


def modulus_phase_pq(nu, x):
    """P_nu(x), Q_nu(x) from J and Y: P = (J cos w + Y sin w)/amp, etc."""
    w = x - (2 * nu + 1) * mp.pi / 4
    amp = mp.sqrt(2 / (mp.pi * x))
    j, y = mp.besselj(nu, x), mp.bessely(nu, x)
    c, s = mp.cos(w), mp.sin(w)
    return (j * c + y * s) / amp, (y * c - j * s) / amp


def chebyshev_tables(digits=DIGITS, degree=DEGREE, nodes=NODES):
    """{table name: tuple of float64 coefficients, lowest degree first}."""
    with mp.workdps(digits):
        angles = [mp.pi * (k + mp.mpf(1) / 2) / nodes for k in range(nodes)]
        xs = [272 / (9 * mp.cos(a) + 25) for a in angles]
        tables = {}
        for nu in (0, 1):
            vals = [modulus_phase_pq(nu, x) for x in xs]
            for part in (0, 1):
                coef = []
                for j in range(degree + 1):
                    c = 2 * mp.fsum(v[part] * mp.cos(j * a)
                                    for v, a in zip(vals, angles)) / nodes
                    coef.append(float(c / 2 if j == 0 else c))
                tables[NAMES[2 * nu + part]] = tuple(coef)
    return tables


def format_tables(tables, per_line=3):
    lines = []
    for name, coef in tables.items():
        lines.append(f"{name} = (")
        for i in range(0, len(coef), per_line):
            lines.append("    " + " ".join(f"{c!r}," for c in coef[i:i + per_line]))
        lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_tables(chebyshev_tables()))

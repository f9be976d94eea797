"""Generate every Chebyshev table of the classical kernels in bessel4.classical.

Each table holds one smooth form of a kernel on one region as a truncated
Chebyshev series in a variable t that maps the region onto [-1, 1]:

    region     t              forms
    [0, 8)     x^2/32 - 1     (J0 - 1)(1 + x^2/4)/x^2, J1/x,
                              Y0 - (2/pi) ln(x/2) J0,
                              [Y1 - (2/pi)(ln(x/2) J1 - 1/x)]/x,
                              (e^(-x^2/12) I0 - 1)/x^2, e^(-x^2/12) I1/x
    [8, 705]   16/x - 1       e^(-x) sqrt(x) I0, e^(-x) sqrt(x) I1
    (0, 2]     x^2/2 - 1      K0 + ln(x/2) I0, x K1 - x ln(x/2) I1
    (2, inf)   4/x - 1        e^x sqrt(x) K0, e^x sqrt(x) K1
    [8, inf)   128/x^2 - 1    P0, x Q0, P1, x Q1

The last row is the modulus-phase form of J and Y,

    J_nu(x) = sqrt(2/(pi x)) (P_nu(x) cos w - Q_nu(x) sin w),
    Y_nu(x) = sqrt(2/(pi x)) (P_nu(x) sin w + Q_nu(x) cos w),

with w = x - (2 nu + 1) pi/4, where P and x Q are power series in 1/x^2 at
infinity (DLMF 10.17.3).  The forms below 8 are entire in x^2 (the
logarithms and the pole of Y1 are taken out), and the scaled I and K have
no exponential growth, so every table is short.  The forms of J0 and I0
leave out their value 1 at x = 0, so that it is exact: J0 is
1 + x^2/(1 + x^2/4) T, where the factor keeps T near -1/4 up to 8, and
I0 is e^(x^2/12) (1 + x^2 T).

The coefficients come from mpmath values of the forms at Chebyshev nodes of
the first kind (a discrete cosine transform, truncated at the table's
degree).  The P and x Q tables are printed a second time, in powers of
s = t + 1 = 128/x^2 (the ``_MONO`` tables, for the Filon panels of the
forward transform): each is the rounded Chebyshev row, expanded exactly in
rational arithmetic and rounded once, so both forms describe one
polynomial.  The script prints the literal tables that ``classical.py``
holds:

    python tools/gen_kernel_tables.py

It needs mpmath only.  ``tests/test_classical.py`` recomputes the tables
and checks them against the checked-in ones.
"""

from fractions import Fraction

import mpmath as mp

DIGITS = 40


def modulus_phase_pq(nu, x):
    """P_nu(x), x Q_nu(x) from J and Y: P = (J cos w + Y sin w)/amp, etc."""
    w = x - (2 * nu + 1) * mp.pi / 4
    amp = mp.sqrt(2 / (mp.pi * x))
    j, y = mp.besselj(nu, x), mp.bessely(nu, x)
    c, s = mp.cos(w), mp.sin(w)
    return (j * c + y * s) / amp, x * (y * c - j * s) / amp


def _jy_small(x):
    ell = 2 / mp.pi * mp.log(x / 2)
    j0, j1 = mp.besselj(0, x), mp.besselj(1, x)
    return ((j0 - 1) * (1 + x * x / 4) / (x * x), j1 / x,
            mp.bessely(0, x) - ell * j0,
            (mp.bessely(1, x) - ell * j1 + 2 / (mp.pi * x)) / x)


def _i_small(x):
    w = mp.exp(-x * x / 12)
    return (w * mp.besseli(0, x) - 1) / (x * x), w * mp.besseli(1, x) / x


def _k_small(x):
    ell = mp.log(x / 2)
    return (mp.besselk(0, x) + ell * mp.besseli(0, x),
            x * (mp.besselk(1, x) - ell * mp.besseli(1, x)))


def _scaled(x, fn, sign):
    w = mp.exp(sign * x) * mp.sqrt(x)
    return w * fn(0, x), w * fn(1, x)


# (table names, x as a function of t, degree, nodes, forms at x); each
# degree keeps every coefficient above 1e-17 of the table's largest one,
# except that P and x Q keep degree 12 (the first dropped coefficient is
# below 2.7e-17), so that J and Y from 8 on stay as they were
TABLES = (
    (("_J0_CHEB", "_J1_CHEB", "_Y0_CHEB", "_Y1_CHEB"),
     lambda t: mp.sqrt(32 * (1 + t)), 16, 64, _jy_small),
    (("_I0_CHEB", "_I1_CHEB"), lambda t: mp.sqrt(32 * (1 + t)), 19, 64, _i_small),
    (("_I0E_CHEB", "_I1E_CHEB"), lambda t: 16 / (1 + t), 24, 64,
     lambda x: _scaled(x, mp.besseli, -1)),
    (("_K0_CHEB", "_K1_CHEB"), lambda t: mp.sqrt(2 * (1 + t)), 9, 64, _k_small),
    (("_K0E_CHEB", "_K1E_CHEB"), lambda t: 4 / (1 + t), 23, 64,
     lambda x: _scaled(x, mp.besselk, 1)),
    (("_P0_CHEB", "_XQ0_CHEB", "_P1_CHEB", "_XQ1_CHEB"),
     lambda t: mp.sqrt(128 / (1 + t)), 12, 48,
     lambda x: modulus_phase_pq(0, x) + modulus_phase_pq(1, x)),
)


def chebyshev_tables(digits=DIGITS):
    """{table name: tuple of float64 coefficients, lowest degree first}."""
    tables = {}
    with mp.workdps(digits):
        for names, x_of_t, degree, nodes, forms in TABLES:
            angles = [mp.pi * (k + mp.mpf(1) / 2) / nodes for k in range(nodes)]
            vals = [forms(x_of_t(mp.cos(a))) for a in angles]
            for part, name in enumerate(names):
                coef = []
                for j in range(degree + 1):
                    c = 2 * mp.fsum(v[part] * mp.cos(j * a)
                                    for v, a in zip(vals, angles)) / nodes
                    coef.append(float(c / 2 if j == 0 else c))
                tables[name] = tuple(coef)
    return tables


# the modulus-phase rows, printed again in powers of s = t + 1
MONOMIAL = {"_P0_CHEB": "_P0_MONO", "_XQ0_CHEB": "_XQ0_MONO",
            "_P1_CHEB": "_P1_MONO", "_XQ1_CHEB": "_XQ1_MONO"}


def shifted_monomials(coef):
    """The coefficients in powers of s of sum_j coef[j] T_j(s - 1), lowest
    degree first: T_j(s - 1) has integer coefficients in s, so the sum is
    exact in rationals and each coefficient is rounded once."""
    polys = [[1], [-1, 1]]
    while len(polys) < len(coef):
        a, b = polys[-1], polys[-2]
        nxt = [0] * (len(a) + 1)  # 2 (s - 1) a - b
        for i, c in enumerate(a):
            nxt[i + 1] += 2 * c
            nxt[i] -= 2 * c
        for i, c in enumerate(b):
            nxt[i] -= c
        polys.append(nxt)
    out = [Fraction(0)] * len(coef)
    for c, poly in zip(coef, polys):
        for i, v in enumerate(poly):
            out[i] += Fraction(c) * v
    return tuple(float(v) for v in out)


def monomial_tables(tables):
    """{monomial table name: coefficients} from the Chebyshev rows of P
    and x Q in ``tables``."""
    return {mono: shifted_monomials(tables[cheb])
            for cheb, mono in MONOMIAL.items()}


def format_tables(tables, per_line=3):
    lines = []
    for name, coef in tables.items():
        lines.append(f"{name} = (")
        for i in range(0, len(coef), per_line):
            lines.append("    " + " ".join(f"{c!r}," for c in coef[i:i + per_line]))
        lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    tables = chebyshev_tables()
    print(format_tables(tables))
    print(format_tables(monomial_tables(tables)))

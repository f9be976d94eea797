"""Double-precision kernels for J0, J1, Y0, Y1, I0, I1, K0, K1.

All eight kernels are implemented in-house (power series, large-argument
expansions, and an exponentially convergent cosh-integral rule for the
K middle band) so the accuracy budget is fully under local control.

Region layout, validated against 40-digit mpmath references:

* J/Y families: plain float64 Maclaurin-type series for x < 8 (error
  up to ~1e-13 of the envelope sqrt(2/(pi x)), worst for y0 near 8).  For
  x >= 8 one modulus-phase form, J = sqrt(2/(pi x)) (P cos w - Q sin w)
  and Y = sqrt(2/(pi x)) (P sin w + Q cos w) with w = x - (2 nu + 1) pi/4,
  where P and Q come from Chebyshev tables in 1/x on [8, 17) and from the
  Hankel expansion beyond, and cos w, sin w are built from cos x, sin x of
  the exact x.  Against 40-digit mpmath its error stays below 6e-16 of the
  envelope from 8 to at least 1.3e5.
* I family: all-positive series (condition number 1) up to x = 30,
  large-argument expansion beyond, overflow signalled past x = 705.
* K family: logarithmic series up to x = 2, trapezoid rule on
  K_n(x) = integral of exp(-x cosh t) cosh(nt) over t >= 0 for
  2 < x < 20 (error ~exp(-pi^2/h) with h = pi^2/66, one 28-node rule
  for the whole band), expansion beyond.

Everything is vectorized over numpy arrays; scalars in give floats out.
All functions are pure and safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np

_OSC_SWITCH = 17.0   # J/Y P, Q: Chebyshev tables <-> Hankel expansion
_OSC_PLAIN = 8.0     # J/Y series <-> modulus-phase form; below this the
                     # series cancellation is mild enough (condition
                     # number < ~1e3) for plain float64
_I_SWITCH = 30.0     # I series <-> asymptotic
_K_SERIES_MAX = 2.0  # K log-series above this -> cosh integral
_K_ASYM_MIN = 20.0   # K cosh integral above this -> asymptotic
_I_OVERFLOW = 705.0

_EG = np.euler_gamma


# ---------------------------------------------------------------------------
# series kernels (small argument)

def _series_terms(x, slack):
    return slack + int(2.0 * float(np.max(x, initial=0.0)))


def _j_series_f64(x, order):
    """Plain-series J0/J1 for x < 8 (cancellation below ~1e3)."""
    nterms = _series_terms(x, 12)
    u4 = (x * x) / 4.0
    t = np.ones_like(x)
    s = np.ones_like(x)
    for k in range(1, nterms + 1):
        den = -(k * k) if order == 0 else -(k * (k + 1))
        t = t * u4 / den
        s = s + t
    return s * (x / 2.0) if order == 1 else s


def _y0_series_f64(x):
    nterms = _series_terms(x, 12)
    u4 = (x * x) / 4.0
    t = np.ones_like(x)
    j0v = np.ones_like(x)
    s = np.zeros_like(x)
    h = 0.0
    for k in range(1, nterms + 1):
        t = t * u4 / (-(k * k))
        j0v = j0v + t
        h += 1.0 / k
        s = s + h * t
    ell = np.log(x / 2.0) + _EG
    return (2.0 / np.pi) * (ell * j0v - s)


def _y1_series_f64(x):
    nterms = _series_terms(x, 12)
    u4 = (x * x) / 4.0
    t = np.ones_like(x)
    j1sum = np.ones_like(x)
    s = np.ones_like(x)
    h = 0.0
    for k in range(1, nterms + 1):
        t = t * u4 / (-(k * (k + 1)))
        j1sum = j1sum + t
        h += 1.0 / k
        s = s + (2.0 * h + 1.0 / (k + 1.0)) * t
    ell = np.log(x / 2.0) + _EG
    return (2.0 / np.pi) * ell * (x / 2.0) * j1sum - 2.0 / (np.pi * x) \
        - (x / (2.0 * np.pi)) * s


def _i_series(x, order, nterms=None):
    if nterms is None:
        nterms = _series_terms(x, 14)
    u4 = (x * x) / 4.0
    t = np.ones_like(x)
    s = np.ones_like(x)
    for k in range(1, nterms + 1):
        den = (k * k) if order == 0 else (k * (k + 1))
        t = t * u4 / den
        s = s + t
    if order == 1:
        s = s * (x / 2.0)
    return s


def _k_series(x, order, nterms=26):
    """K0/K1 for x <= 2 via the logarithmic series."""
    u4 = (x * x) / 4.0
    ell = np.log(x / 2.0) + _EG
    if order == 0:
        t = np.ones_like(x)
        i0 = np.ones_like(x)
        s = np.zeros_like(x)
        h = 0.0
        for k in range(1, nterms + 1):
            t = t * u4 / (k * k)
            i0 = i0 + t
            h += 1.0 / k
            s = s + h * t
        return -ell * i0 + s
    t = np.ones_like(x)
    i1sum = np.ones_like(x)
    s = np.ones_like(x)  # H_0 + H_1 = 1 at k = 0
    h = 0.0
    for k in range(1, nterms + 1):
        t = t * u4 / (k * (k + 1))
        i1sum = i1sum + t
        h += 1.0 / k
        s = s + (2.0 * h + 1.0 / (k + 1.0)) * t
    i1 = i1sum * (x / 2.0)
    return 1.0 / x + ell * i1 - (x / 4.0) * s


# ---------------------------------------------------------------------------
# large-argument kernels

def _ak_table(nu, count):
    """Coefficients a_k(nu) of the Hankel expansion, a_0 = 1."""
    a = [1.0]
    for k in range(count - 1):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k + 1) ** 2) / (8.0 * (k + 1)))
    return a


_AK0 = _ak_table(0, 30)
_AK1 = _ak_table(1, 30)


def _asym_pq(x, nu, kmax=13):
    a = _AK0 if nu == 0 else _AK1
    w = 1.0 / (x * x)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for k in range(kmax, -1, -1):
        sign = 1.0 if k % 2 == 0 else -1.0
        p = p * w + sign * a[2 * k]
        q = q * w + sign * a[2 * k + 1]
    return p, q / x


# Chebyshev coefficients of P and Q on [8, 17) in u = (272/x - 25)/9, which
# maps x = 8 to 1 and x = 17 to -1; printed by tools/gen_jy_tables.py from
# 40-digit mpmath values.
_P0_CHEB = (
    0.9993780607924774, -0.0004158918828121599, -3.563171180561891e-05,
    3.0641256503356833e-07, 9.113671151533628e-09, -3.900443264602596e-10,
    1.82715851827781e-12, 4.752549957083253e-13, -2.440406016464322e-14,
    2.3867002523249066e-16, 4.893703686662478e-17, -4.0097510385673196e-18,
    1.322639691536098e-19,
)
_Q0_CHEB = (
    -0.01142333780396027, -0.004075521736177065, 1.015693655136548e-05,
    5.197179081420954e-07, -1.0569851233740858e-08, -1.2970244864210732e-10,
    1.4362594133522799e-11, -3.4284239340245394e-13, -1.0377255662386703e-14,
    1.2937216973893865e-15, -5.0748295436955174e-17, -4.548676099378012e-19,
    2.057030714492082e-19,
)
_P1_CHEB = (
    1.0010405166644667, 0.0006975545743572447, 6.0444283556685374e-05,
    -4.0021030042363414e-07, -1.2388462261496365e-08, 4.74565215930374e-10,
    -1.5006344300821124e-12, -5.697293200732168e-13, 2.752834717173996e-14,
    -2.1660872278077307e-16, -5.676755822868139e-17, 4.429587338397121e-18,
    -1.3798258717842577e-19,
)
_Q1_CHEB = (
    0.03437463174532504, 0.012322881042135072, -1.4371466567823566e-05,
    -7.511715080900478e-07, 1.3202878171618267e-08, 1.7964418473929515e-10,
    -1.7231963647470497e-11, 3.785016302401709e-13, 1.2943471930928171e-14,
    -1.4729828263302043e-15, 5.4837990668347246e-17, 6.581493807843432e-19,
    -2.313735574401473e-19,
)


def _chebyshev(coef, u):
    """Clenshaw sum of coef[k] T_k(u)."""
    b1 = np.zeros_like(u)
    b2 = np.zeros_like(u)
    u2 = 2.0 * u
    for c in coef[:0:-1]:
        b1, b2 = u2 * b1 - b2 + c, b1
    return u * b1 - b2 + coef[0]


def _cheb_pq(x, nu):
    u = (272.0 / x - 25.0) / 9.0
    p, q = (_P0_CHEB, _Q0_CHEB) if nu == 0 else (_P1_CHEB, _Q1_CHEB)
    return _chebyshev(p, u), _chebyshev(q, u)


def _pq01(z):
    """(P0, Q0, P1, Q1) at z >= 8 from the same tables as the J/Y kernels:
    Chebyshev on [8, 17), the Hankel expansion beyond."""
    z = np.asarray(z, dtype=float)
    out = [np.empty_like(z) for _ in range(4)]
    band = z < _OSC_SWITCH
    for mask, pq in ((band, _cheb_pq), (~band, _asym_pq)):
        if np.any(mask):
            v = z[mask]
            for o, val in zip(out, pq(v, 0) + pq(v, 1)):
                o[mask] = val
    return tuple(out)


def _jy_modphase(x, nu, kind, pq):
    """J_nu or Y_nu = sqrt(2/(pi x)) times the P, Q combination at phase w.

    w = x - (2 nu + 1) pi/4 is never rounded: sqrt(2) cos w and sqrt(2) sin w
    come from cos x and sin x of the exact double x, which keeps the phase
    error at the rounding of cos and sin however large x is.
    """
    p, q = pq(x, nu)
    c, s = np.cos(x), np.sin(x)
    c, s = c + s, s - c  # now sqrt(2) cos w, sqrt(2) sin w for w = x - pi/4
    if nu == 1:          # w = x - 3 pi/4, one quarter turn further
        c, s = s, -c
    amp = 1.0 / np.sqrt(np.pi * x)
    if kind == "J":
        return amp * (p * c - q * s)
    return amp * (p * s + q * c)


def _i_asym(x, nu, kmax=25):
    a = _AK0 if nu == 0 else _AK1
    s = np.zeros_like(x)
    for k in range(kmax, 0, -1):
        sign = 1.0 if k % 2 == 0 else -1.0
        s = (s + sign * a[k]) / x
    s = s + 1.0
    return np.exp(x) / np.sqrt(2.0 * np.pi * x) * s


def _k_asym(x, nu, kmax=20):
    a = _AK0 if nu == 0 else _AK1
    s = np.zeros_like(x)
    for k in range(kmax, 0, -1):
        s = (s + a[k]) / x
    s = s + 1.0
    return np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * s


def _k_cosh_rule(x, order):
    """K_n(x) = integral over t >= 0 of exp(-x cosh t) cosh(nt).

    The integrand extends evenly to the real line and is analytic in a
    strip of width ~pi/2, so the trapezoid rule converges like
    exp(-pi^2/h) in absolute terms; measured against the e^(-x) scale of
    K itself that costs a factor e^x.  Step and cutoff are sized for the
    ends of the band (h from x = 20, the cutoff from x = 2), so every x
    gets the same 28 nodes whatever array it arrives in.
    """
    h = np.pi * np.pi / (46.0 + _K_ASYM_MIN)
    tmax = np.arccosh(1.0 + 48.0 / _K_SERIES_MAX)
    n = int(np.ceil(tmax / h)) + 1
    t = h * np.arange(n)
    g = np.exp(-np.outer(x, np.cosh(t)))
    if order == 1:
        g = g * np.cosh(t)
    g[:, 0] *= 0.5
    return h * g.sum(axis=1)


# ---------------------------------------------------------------------------
# public kernels

def _prepare(x, strict_positive):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    if strict_positive:
        if np.any(arr <= 0.0):
            raise ValueError("argument must be positive for Y and K kernels")
    elif np.any(arr < 0.0):
        raise ValueError("argument must be nonnegative")
    return arr, scalar


def _finish(out, scalar):
    return float(out[0]) if scalar else out


def _piecewise(x, regions):
    out = np.empty_like(x)
    for mask, fn in regions:
        if np.any(mask):
            out[mask] = fn(x[mask])
    return out


_JY_SERIES = {
    ("J", 0): lambda v: _j_series_f64(v, 0),
    ("J", 1): lambda v: _j_series_f64(v, 1),
    ("Y", 0): _y0_series_f64,
    ("Y", 1): _y1_series_f64,
}


def _jy(x, nu, kind):
    x, scalar = _prepare(x, strict_positive=kind == "Y")
    tiny = x < _OSC_PLAIN
    mid = ~tiny & (x < _OSC_SWITCH)
    far = x == np.inf  # the limit 0; cos and sin of inf are nan
    out = _piecewise(x, [
        (tiny, _JY_SERIES[(kind, nu)]),
        (mid, lambda v: _jy_modphase(v, nu, kind, _cheb_pq)),
        (~tiny & ~mid & ~far, lambda v: _jy_modphase(v, nu, kind, _asym_pq)),
        (far, np.zeros_like),
    ])
    return _finish(out, scalar)


def j0(x):
    """Bessel function of the first kind, order 0."""
    return _jy(x, 0, "J")


def j1(x):
    """Bessel function of the first kind, order 1."""
    return _jy(x, 1, "J")


def y0(x):
    """Bessel function of the second kind, order 0 (x > 0)."""
    return _jy(x, 0, "Y")


def y1(x):
    """Bessel function of the second kind, order 1 (x > 0)."""
    return _jy(x, 1, "Y")


def i0(x):
    """Modified Bessel function of the first kind, order 0."""
    x, scalar = _prepare(x, strict_positive=False)
    if np.any(x > _I_OVERFLOW):
        raise OverflowError("i0 overflows double precision for x > 705")
    small = x < _I_SWITCH
    out = _piecewise(x, [
        (small, lambda v: _i_series(v, 0)),
        (~small, lambda v: _i_asym(v, 0)),
    ])
    return _finish(out, scalar)


def i1(x):
    """Modified Bessel function of the first kind, order 1."""
    x, scalar = _prepare(x, strict_positive=False)
    if np.any(x > _I_OVERFLOW):
        raise OverflowError("i1 overflows double precision for x > 705")
    small = x < _I_SWITCH
    out = _piecewise(x, [
        (small, lambda v: _i_series(v, 1)),
        (~small, lambda v: _i_asym(v, 1)),
    ])
    return _finish(out, scalar)


def k0(x):
    """Modified Bessel function of the second kind, order 0 (x > 0)."""
    x, scalar = _prepare(x, strict_positive=True)
    lo = x <= _K_SERIES_MAX
    hi = x >= _K_ASYM_MIN
    out = _piecewise(x, [
        (lo, lambda v: _k_series(v, 0)),
        (~lo & ~hi, lambda v: _k_cosh_rule(v, 0)),
        (hi, lambda v: _k_asym(v, 0)),
    ])
    return _finish(out, scalar)


def k1(x):
    """Modified Bessel function of the second kind, order 1 (x > 0)."""
    x, scalar = _prepare(x, strict_positive=True)
    lo = x <= _K_SERIES_MAX
    hi = x >= _K_ASYM_MIN
    out = _piecewise(x, [
        (lo, lambda v: _k_series(v, 1)),
        (~lo & ~hi, lambda v: _k_cosh_rule(v, 1)),
        (hi, lambda v: _k_asym(v, 1)),
    ])
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# kind-based dispatch and derivatives

@dataclass(frozen=True)
class BesselKind:
    """One of the eight kernels: family J/Y/I/K at order 0 or 1."""

    family: str
    order: int

    def __post_init__(self):
        if self.family not in ("J", "Y", "I", "K"):
            raise ValueError(f"unknown Bessel family {self.family!r}")
        if self.order not in (0, 1):
            raise ValueError("only orders 0 and 1 are provided")


_EVAL = {
    ("J", 0): j0, ("J", 1): j1,
    ("Y", 0): y0, ("Y", 1): y1,
    ("I", 0): i0, ("I", 1): i1,
    ("K", 0): k0, ("K", 1): k1,
}


def eval_bessel(kind: BesselKind, x):
    """Evaluate the kernel named by ``kind`` at ``x``."""
    return _EVAL[(kind.family, kind.order)](x)


def eval_bessel_derivative(kind: BesselKind, x):
    """First derivative of the kernel, via the exact order-0/1 recurrences.

    J0' = -J1, J1' = J0 - J1/x, I0' = I1, I1' = I0 - I1/x,
    K0' = -K1, K1' = -K0 - K1/x, and the Y family follows J.
    """
    fam, order = kind.family, kind.order
    if order == 0:
        if fam == "J":
            return -j1(x)
        if fam == "Y":
            return -y1(x)
        if fam == "I":
            return i1(x)
        return -k1(x)
    # order 1: the x = 0 limit of C1/x is 1/2 for J and I
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if fam in ("J", "I"):
        zero = arr == 0.0
        out = np.empty_like(arr)
        if np.any(zero):
            out[zero] = 0.5
        pos = ~zero
        if np.any(pos):
            v = arr[pos]
            if fam == "J":
                out[pos] = j0(v) - j1(v) / v
            else:
                out[pos] = i0(v) - i1(v) / v
        return _finish(out, scalar)
    if fam == "Y":
        v = arr
        out = y0(v) - y1(v) / v
        return _finish(np.atleast_1d(out), scalar)
    v = arr
    out = -k0(v) - k1(v) / v
    return _finish(np.atleast_1d(out), scalar)

"""Double-precision kernels for J0, J1, Y0, Y1, I0, I1, K0, K1.

All eight kernels are implemented in-house (power series, large-argument
expansions, and an exponentially convergent cosh-integral rule for the
K middle band) so the accuracy budget is fully under local control.

Region layout, validated against 40-digit mpmath references:

* J/Y families: plain float64 Maclaurin-type series for x < 8 (error
  up to ~1e-13 of the envelope sqrt(2/(pi x)), worst for y0 near 8).  For
  x >= 8 one modulus-phase form, J = sqrt(2/(pi x)) (P cos w - Q sin w)
  and Y = sqrt(2/(pi x)) (P sin w + Q cos w) with w = x - (2 nu + 1) pi/4,
  where P and x Q are power series in 1/x^2 and come from one Chebyshev
  table each, of degree 12 in t = 128/x^2 - 1 (which maps [8, inf) onto
  (-1, 1]), and cos w, sin w are built from cos x, sin x of the exact x.
  Against 40-digit mpmath its error stays below 4.3e-16 of the envelope
  from 8 to 1e9.  ``j01`` and ``y01`` return both orders from one pass.
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


# Chebyshev coefficients of the modulus-phase amplitudes P0, x Q0, P1, x Q1
# on [8, inf) in t = 128/x^2 - 1, which maps x = 8 to 1 and x -> inf to -1;
# printed by tools/gen_jy_tables.py from 40-digit mpmath values.
_P0_CHEB = (
    0.9994603493475187, -0.0005365220468132117, 3.0751847875194745e-06,
    -5.1705945376060975e-08, 1.6306464635151382e-09, -7.86409137723707e-11,
    5.168262387349193e-12, -4.3045788699253914e-13, 4.3265957431549404e-14,
    -5.069034095935236e-15, 6.748072215733873e-16, -1.0011513723467786e-16,
    1.6305919233744186e-17,
)
_XQ0_CHEB = (
    -0.12444683684269607, 0.0005470815954089319, -5.9315987288485175e-06,
    1.4377965798375193e-07, -5.817532749493056e-09, 3.376097523734991e-10,
    -2.565397936797308e-11, 2.404916100281365e-12, -2.6690625482579414e-13,
    3.4041800321963686e-14, -4.87994410531204e-15, 7.729703176242605e-16,
    -1.3348852171502517e-16,
)
_P1_CHEB = (
    1.0009030408600137, 0.0008989898330859408, -3.987284300488908e-06,
    6.177633960644299e-08, -1.8718907491063067e-09, 8.816898659582339e-11,
    -5.704863640395645e-12, 4.699195515230542e-13, -4.6842237839904895e-14,
    5.452674896044717e-15, -7.221180842274018e-16, 1.0667689114335412e-16,
    -1.7312313216116335e-17,
)
_XQ1_CHEB = (
    0.3742222965562826, -0.0007702178839325664, 7.3108922063643636e-06,
    -1.676782510726674e-07, 6.583354662120443e-09, -3.749090950541556e-10,
    2.8121750359748866e-11, -2.61145253946232e-12, 2.8774212663332235e-13,
    -3.649001916061838e-14, 5.206626366226707e-15, -8.215318025458595e-16,
    1.4141084390211833e-16,
)
_PQ_CHEB = np.array([_P0_CHEB, _XQ0_CHEB, _P1_CHEB, _XQ1_CHEB])


def _amplitudes(x, rows):
    """The amplitudes of ``rows`` (indices into _PQ_CHEB) at x >= 8, one per
    leading row.  One Clenshaw pass serves all rows, in place on four
    buffers."""
    coef = _PQ_CHEB[rows, :, None]
    t2 = np.tile(256.0 / (x.ravel() ** 2) - 2.0, (len(rows), 1))  # 2t, exactly
    b1 = np.repeat(coef[:, -1], t2.shape[1], axis=1)
    b2 = np.zeros_like(t2)
    tmp = np.empty_like(t2)
    for k in range(coef.shape[1] - 2, 0, -1):
        np.multiply(b1, t2, out=tmp)
        tmp -= b2
        tmp += coef[:, k]
        b1, b2, tmp = tmp, b1, b2
    t2 *= 0.5
    np.multiply(b1, t2, out=tmp)
    tmp -= b2
    tmp += coef[:, 0]
    return tmp.reshape((len(rows),) + x.shape)


def _pq01(z):
    """(P0, Q0, P1, Q1) at z >= 8 from the table of the J/Y kernels."""
    z = np.asarray(z, dtype=float)
    p0, xq0, p1, xq1 = _amplitudes(z, [0, 1, 2, 3])
    return p0, xq0 / z, p1, xq1 / z


def _jy_modphase(x, kind, orders):
    """J_nu or Y_nu for each nu in ``orders`` at x >= 8, as
    sqrt(2/(pi x)) times the P, Q combination at phase w.

    w = x - (2 nu + 1) pi/4 is never rounded: sqrt(2) cos w and sqrt(2) sin w
    come from cos x and sin x of the exact double x, which keeps the phase
    error at the rounding of cos and sin however large x is.  One sqrt, cos
    and sin per point serve every order.
    """
    pq = _amplitudes(x, [r for nu in orders for r in (2 * nu, 2 * nu + 1)])
    c, s = np.cos(x), np.sin(x)
    c, s = c + s, s - c  # now sqrt(2) cos w, sqrt(2) sin w for w = x - pi/4
    amp = 1.0 / np.sqrt(np.pi * x)
    out = []
    for p, xq, nu in zip(pq[::2], pq[1::2], orders):
        q = xq / x
        cw, sw = (c, s) if nu == 0 else (s, -c)  # nu = 1: a quarter turn on
        out.append(amp * (p * cw - q * sw) if kind == "J"
                   else amp * (p * sw + q * cw))
    return out


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


def _jy(x, kind, orders):
    """The tuple of C_nu(x) for nu in orders, C = J or Y: the series below 8,
    the modulus-phase form from 8 on, and the limit 0 at +inf (cos and sin
    of inf are nan).  Every order shares the one mask and modulus-phase
    pass."""
    x, scalar = _prepare(x, strict_positive=kind == "Y")
    out = np.empty((len(orders),) + x.shape)
    tiny = x < _OSC_PLAIN
    far = x == np.inf
    osc = ~tiny & ~far
    if np.any(tiny):
        v = x[tiny]
        for row, nu in zip(out, orders):
            row[tiny] = _JY_SERIES[(kind, nu)](v)
    if np.any(osc):
        for row, val in zip(out, _jy_modphase(x[osc], kind, orders)):
            row[osc] = val
    out[:, far] = 0.0
    return tuple(_finish(row, scalar) for row in out)


def _i(x, nu):
    x, scalar = _prepare(x, strict_positive=False)
    if np.any(x > _I_OVERFLOW):
        raise OverflowError(f"i{nu} overflows double precision for x > 705")
    small = x < _I_SWITCH
    out = _piecewise(x, [
        (small, lambda v: _i_series(v, nu)),
        (~small, lambda v: _i_asym(v, nu)),
    ])
    return _finish(out, scalar)


def _k(x, nu):
    x, scalar = _prepare(x, strict_positive=True)
    lo = x <= _K_SERIES_MAX
    hi = x >= _K_ASYM_MIN
    out = _piecewise(x, [
        (lo, lambda v: _k_series(v, nu)),
        (~lo & ~hi, lambda v: _k_cosh_rule(v, nu)),
        (hi, lambda v: _k_asym(v, nu)),
    ])
    return _finish(out, scalar)


def j0(x):
    """Bessel function of the first kind, order 0."""
    return _jy(x, "J", (0,))[0]


def j1(x):
    """Bessel function of the first kind, order 1."""
    return _jy(x, "J", (1,))[0]


def j01(x):
    """(J0(x), J1(x)) from one pass, equal bit for bit to (j0(x), j1(x))."""
    return _jy(x, "J", (0, 1))


def y0(x):
    """Bessel function of the second kind, order 0 (x > 0)."""
    return _jy(x, "Y", (0,))[0]


def y1(x):
    """Bessel function of the second kind, order 1 (x > 0)."""
    return _jy(x, "Y", (1,))[0]


def y01(x):
    """(Y0(x), Y1(x)) from one pass, equal bit for bit to (y0(x), y1(x))."""
    return _jy(x, "Y", (0, 1))


def i0(x):
    """Modified Bessel function of the first kind, order 0."""
    return _i(x, 0)


def i1(x):
    """Modified Bessel function of the first kind, order 1."""
    return _i(x, 1)


def k0(x):
    """Modified Bessel function of the second kind, order 0 (x > 0)."""
    return _k(x, 0)


def k1(x):
    """Modified Bessel function of the second kind, order 1 (x > 0)."""
    return _k(x, 1)


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


# x -> (C0(x), C1(x)) per family
_PAIRS = {
    "J": j01, "Y": y01,
    "I": lambda x: (i0(x), i1(x)), "K": lambda x: (k0(x), k1(x)),
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
        return (1.0 if fam == "I" else -1.0) * _EVAL[(fam, 1)](x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full_like(arr, 0.5)  # the x = 0 limit of C1/x for J and I
    pos = arr != 0.0 if fam in ("J", "I") else np.ones(arr.shape, bool)
    if np.any(pos):
        v = arr[pos]
        c0, c1 = _PAIRS[fam](v)
        out[pos] = (-c0 if fam == "K" else c0) - c1 / v
    return _finish(out, np.ndim(x) == 0)

"""The fourth-order Bessel-type solution family J/Y/I/K at parameter (lambda, M).

The equation (x y'')'' - ((9/x + 8x/M) y')' = Lambda x y on (0, inf) has,
for Lambda = lambda^2 (lambda^2 + 8/M), the four-solution basis

    jtype(x) =  d J0(lam x) - 2 M (lam/2)^2 (lam x)^-1 J1(lam x)
    ytype(x) =  d Y0(lam x) - 2 M (lam/2)^2 (lam x)^-1 Y1(lam x)
    itype(x) = -d I0(c x)   + (c M / 2) x^-1 I1(c x)
    ktype(x) =  d K0(c x)   + (c M / 2) x^-1 K1(c x)

with c = sqrt(lambda^2 + 8/M) and d = 1 + M (lambda/2)^2.  jtype and itype
extend to x = 0 with value 1.

Each solution takes a small-argument series below a switch in z = scale*x
and the direct formula from it on.  Derivatives are analytic on both: the
series is differentiated termwise, and the pair u = C0(z), v = C1(z)/z is
closed under differentiation, so the n-th derivative of the direct formula
is a Laurent recurrence in u, v, summed in ascending powers from one table
of the powers of z (Horner's rule and folding A p_u + B p_v into one
polynomial both measured less accurate against mpmath).

jtype and itype are power series in x^2 (A&S 9.1.10, 9.6.10).  Their one
evaluator, ``_regular_derivs``, broadcasts lambda against x and returns
the rows d^0..d^n for the handles, ``eval_jtype_outer`` and the transforms:
below z = 4, one long-double coefficient table for the distinct lambdas
there and one Horner pass in x^2 for all orders; from 4 on, the direct
formula.  Worst relative error of orders 0-4 against 40-digit mpmath on 9
(lambda, M) from (0.1, 0.1) to (10, 10): the direct path errs by 5.6e-13
at z = 1.01, 1.3e-14 at 2.01 and at most 2.9e-15 at 3.99-4.01; the 18-term
series by at most 1.5e-14 through z = 4 (order 1 at z = 3, lambda = M =
10, where d = 251) and 1.7e-11 at z = 6.

ytype and ktype keep their log-power series below z = 1, built by one
long-double generator, ``_log_series``; the boundary-form calculus reads
their x^-2 and ln x parts exactly.  Their direct path is about as
accurate there (within 4.7e-15 on z in [1e-3, 3]), but dearer for orders
0-4 on 16384 points below z = 1: ytype 3.0 -> 5.2 ms, ktype 4.0 -> 5.5.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import classical
from .equation import _EQUATIONS
from .logseries import LogPowerSeries, _horner

_SERIES_SWITCH = 1.0    # ytype, ktype: the log series for z = scale*x below this
_REGULAR_SWITCH = 4.0   # jtype, itype: the power series for z below this
_SERIES_TERMS = 18
# c of the M-term c x/M in p_1 of the fourth-order equation (c = 8): the
# spectral value is lambda^2 (lambda^2 + c/M)
_MTERM_C = _EQUATIONS[4][1]


class SolutionKind(str, Enum):
    jtype = "jtype"
    ytype = "ytype"
    itype = "itype"
    ktype = "ktype"


_REGULAR = (SolutionKind.jtype, SolutionKind.itype)


@dataclass(frozen=True)
class Params:
    """Model parameter M > 0; gamma = c/M = 8/M is derived, never set."""

    M: float

    def __post_init__(self):
        if not (0.0 < self.M < math.inf):
            raise ValueError("M must be positive and finite")

    @property
    def gamma(self) -> float:
        return _MTERM_C / self.M


@dataclass(frozen=True)
class CDPair:
    c: float
    d: float


def spectral_value(lam: float, params: Params) -> float:
    """Spectral reparametrization Lambda = lambda^2 (lambda^2 + 8/M)."""
    return lam * lam * (lam * lam + _MTERM_C / params.M)


def _spectral_slope(lam, params: Params):
    """d/dlambda of ``spectral_value``: 4 lambda^3 + 2 c lambda/M."""
    return 4.0 * lam ** 3 + 2 * _MTERM_C * lam / params.M


def cd_params(lam: float, params: Params) -> CDPair:
    """c = sqrt(lambda^2 + 8/M) (principal root) and d = 1 + M(lambda/2)^2."""
    return CDPair(c=math.sqrt(lam * lam + _MTERM_C / params.M),
                  d=1.0 + params.M * (lam / 2.0) ** 2)


@dataclass(frozen=True)
class SolutionHandle:
    """One closed-form solution: immutable, safe to share across threads."""

    kind: SolutionKind
    lam: float
    params: Params

    def __post_init__(self):
        kind = SolutionKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if not (0.0 <= self.lam < math.inf):
            raise ValueError("lambda must be a finite nonnegative real here")
        if kind is SolutionKind.ytype and self.lam == 0.0:
            raise ValueError("ytype degenerates at lambda = 0")

    @property
    def Lambda(self) -> float:
        return spectral_value(self.lam, self.params)


# ---------------------------------------------------------------------------
# structural data per kind

_KERNELS = {
    SolutionKind.jtype: (classical.j0, classical.j1),
    SolutionKind.ytype: (classical.y0, classical.y1),
    SolutionKind.itype: (classical.i0, classical.i1),
    SolutionKind.ktype: (classical.k0, classical.k1),
}

# u' = su * z * v  and  v' = sv * u/z - 2 v/z for u = C0(z), v = C1(z)/z
_SIGNS = {
    SolutionKind.jtype: (-1, 1),
    SolutionKind.ytype: (-1, 1),
    SolutionKind.itype: (1, 1),
    SolutionKind.ktype: (-1, -1),
}


def _structure(kind: SolutionKind, lam, params: Params):
    """Scale a and (A, B), elementwise in lam: sol = A*C0(z) + B*C1(z)/z, z = a x."""
    mq = params.M * (lam / 2.0) ** 2
    d = 1.0 + mq
    if kind in (SolutionKind.jtype, SolutionKind.ytype):
        return lam, d, -2.0 * mq
    c = np.sqrt(lam * lam + _MTERM_C / params.M)
    big = c * c * params.M / 2.0
    if kind is SolutionKind.itype:
        return c, -d, big
    return c, d, big


# ---------------------------------------------------------------------------
# small-argument series

_LD_EG = np.longdouble("0.57721566490153286060651209008240243")
_LD_2_PI = 2 / np.arccos(np.longdouble(-1))
# (k0, k1, tau, sigma) of ``_log_series`` per kind
_LOG_KINDS = {SolutionKind.ytype: (_LD_2_PI, _LD_2_PI, -1, -1),
              SolutionKind.ktype: (-1, 1, 1, 1)}


def _log_series(kind: SolutionKind, a: float, M: float) -> LogPowerSeries:
    """Series of A C0(z) + B C1(z)/z at z = a x, q = M a^2/4, for C = Y with
    (A, B) = (1 + q, -2 q) or K with (q - 1, 2 q), formed in long double and
    rounded once.  With t_k = (sigma z^2/4)^k / (k!)^2, H_k the harmonic
    numbers and s_k = H_k + H_(k+1) - 2 gamma (A&S 9.1.11, 9.1.13, 9.6.11,
    9.6.13), C0(z) = k0 [ln(z/2) sum t_k + sum (gamma - H_k) t_k] and
    C1(z)/z = k1 [ln(z/2) sum t_k / (2 (k + 1)) + tau z^-2 - sum s_k t_k /
    (4 (k + 1))]: a log part, an entire part and a pole."""
    k0, k1, tau, sigma = _LOG_KINDS[kind]
    a = np.longdouble(a)
    q = M * a * a / 4
    A, B = (1 + q, -2 * q) if kind is SolutionKind.ytype else (q - 1, 2 * q)
    k = np.arange(_SERIES_TERMS, dtype=np.longdouble)
    t = np.cumprod(np.r_[1, sigma * a * a / 4 / k[1:] ** 2])
    h = np.cumsum(np.r_[0, 1 / k[1:]])
    ell = np.log(a / 2)
    rows = {1: t * (k0 * A + k1 * B / (2 * (k + 1))),
            0: t * (k0 * A * (ell + _LD_EG - h) + k1 * B
                    * (2 * ell - 2 * h - 1 / (k + 1) + 2 * _LD_EG) / (4 * (k + 1)))}
    terms = {(2 * j, d): float(c) for d, row in rows.items()
             for j, c in enumerate(row) if c}
    terms[(-2, 0)] = float(k1 * B * tau / (a * a))
    return LogPowerSeries(terms)


def ktype_scale_series(a: float, M: float) -> LogPowerSeries:
    """Series of d K0(a x) + (a M/2) x^-1 K1(a x) with d = M a^2/4 - 1.

    This parametrizes the exponentially decaying solutions directly by
    their decay rate a > 0, covering both real lambda (a = c) and the
    negative-spectral-value branch where lambda is imaginary.  The x^-2
    coefficient is M/2 and the ln x coefficient is 1 for every a (each
    rounded once from long double), which is what makes differences of
    two such solutions regular at 0.
    """
    return _log_series(SolutionKind.ktype, a, M)


def _regular_coeffs(kind: SolutionKind, lams, M: float, nterms: int):
    """Coefficients of x^0, x^2, ..., x^(2 nterms - 2) of jtype or itype,
    one row per lam: t_k b_k with t_0 = 1, t_k / t_(k-1) = r / k^2, and for
    q = lam^2/4 (the itype b_k is -d + (M q + 2)/(k + 1), uncancelled)
        jtype: r = -q,             b_k = ((k + 1) + k M q) / (k + 1)
        itype: r = q + 2/M = c^2/4, b_k = ((1 - k) - k M q) / (k + 1)
    Formed in long double and rounded once, so within about half an ulp
    where long double is wider than double (80-bit on x86-64)."""
    q = np.asarray(lams, dtype=np.longdouble)[:, None] ** 2 / 4
    M = np.longdouble(M)
    k = np.arange(nterms, dtype=np.longdouble)
    if kind is SolutionKind.jtype:
        r, bracket = -q, (k + 1) + k * (M * q)
    else:
        r, bracket = q + 2 / M, (1 - k) - k * (M * q)
    ratio = np.ones((q.shape[0], nterms), dtype=np.longdouble)
    ratio[:, 1:] = r / k[1:] ** 2
    t = np.cumprod(ratio, axis=1)
    return (t * bracket / (k + 1)).astype(float)


# bounded: a stream of fresh (lam, M) never hits the memo, and a larger
# one would only hold memory
@lru_cache(maxsize=128)
def _series_cached(kind: SolutionKind, lam: float, M: float):
    if kind in _REGULAR:
        row = _regular_coeffs(kind, [lam], M, _SERIES_TERMS)[0]
        return LogPowerSeries({(2 * k, 0): float(c) for k, c in enumerate(row) if c})
    return _log_series(kind, float(_structure(kind, lam, Params(M))[0]), M)


def solution_series(handle: SolutionHandle) -> LogPowerSeries:
    """Small-argument log-power series of the solution, in powers of x."""
    return _series_cached(handle.kind, float(handle.lam), float(handle.params.M))


def series_radius(handle: SolutionHandle) -> float:
    """x below which the series path is used (and is highly accurate)."""
    a, _, _ = _structure(handle.kind, handle.lam, handle.params)
    switch = _REGULAR_SWITCH if handle.kind in _REGULAR else _SERIES_SWITCH
    return np.inf if a == 0.0 else switch / a


# ---------------------------------------------------------------------------
# direct path and derivative recurrence

@lru_cache(maxsize=512)
def _deriv_polys(kind: SolutionKind, order: int):
    """(p_n, q_n) with d^n/dz^n [A u + B v] = p_n u + q_n v, A/B folded later.

    u = C0(z) and v = C1(z)/z obey u' = su z v and v' = sv u/z - 2 v/z, so
    p_(n+1) = p_n' + sv q_n/z and q_(n+1) = q_n' - 2 q_n/z + su z p_n, run
    on coefficient arrays over the powers -order..1.  Returns (ps, qs) for
    the pure-u and the pure-v seed: per n, the ascending (power, coeff)
    terms.
    """
    su, sv = _SIGNS[kind]
    e = np.arange(-order, 2.0)
    out = []
    for seed in (0, 1):
        p, q = np.zeros(e.size), np.zeros(e.size)
        (q if seed else p)[order] = 1.0
        ps, qs = [p], [q]
        for _ in range(order):
            pn, qn = np.zeros(e.size), np.zeros(e.size)
            # d/dz and 1/z move a coefficient one power down, z one power up
            pn[:-1] = (e * p + sv * q)[1:]
            qn[:-1] = ((e - 2.0) * q)[1:]
            qn[1:] += su * p[:-1]
            p, q = pn, qn
            ps.append(p)
            qs.append(q)
        out.append(tuple(tuple(tuple((int(e[k]), float(c[k])) for k in np.flatnonzero(c))
                               for c in seq) for seq in (ps, qs)))
    return out


def ktype_scale_derivs(a: float, M: float, x, max_order: int = 4):
    """Derivative stack of the scale-a decaying solution (see the series)."""
    a2 = a * a
    return _direct_derivs_scaled(SolutionKind.ktype, a, M * a2 / 4.0 - 1.0,
                                 a2 * M / 2.0, np.atleast_1d(np.asarray(x, float)),
                                 max_order)


def _direct_derivs_scaled(kind, a, A, B, x, max_order):
    z = a * x
    c0, c1 = _KERNELS[kind]
    u = c0(z)
    v = c1(z) / z
    (pu, qu), (pv, qv) = _deriv_polys(kind, max_order)
    powers = {e: z ** e for seq in (pu, qu, pv, qv) for terms in seq
              for e, _ in terms if e}

    def laurent(terms):  # ascending powers, each read from the table
        return sum(c * powers[e] if e else c for e, c in terms)

    def fold(*pairs):  # sum of coeff * laurent(terms), skipping 0 and the factor 1
        parts = [coeff if terms == ((0, 1.0),) else coeff * laurent(terms)
                 for coeff, terms in pairs if terms]
        return sum(parts[1:], parts[0])

    rows = []
    for n in range(max_order + 1):
        row = fold((A, pu[n]), (B, pv[n])) * u + fold((A, qu[n]), (B, qv[n])) * v
        rows.append(row if n == 0 else a ** n * row)
    return np.vstack(rows)


def _derivative_table(coef, max_order):
    """(nterms, max_order + 1, lams) table: [j, n] is the coefficient of
    x^(2 j + n % 2) in the n-th derivative of the series with coefficients
    coef (x^0, x^2, ... per lam), zero past its last term; each derivative
    multiplies x^p by p, in ``LogPowerSeries.derivative``'s order."""
    nterms = coef.shape[1]
    power = 2.0 * np.arange(nterms)[:, None]
    c = coef.T
    table = np.zeros((nterms, max_order + 1, coef.shape[0]))
    table[:, 0] = c
    for n in range(1, max_order + 1):
        c = (power - (n - 1)) * c
        drop = (n + 1) // 2  # the terms the derivatives have dropped
        table[:nterms - drop, n] = c[drop:]
    return table


def _two_paths(z, switch, series, direct, max_order):
    """Rows d^0..d^max_order: series(mask) where z < switch, direct(mask)
    elsewhere (mask slice(None) when one path takes every point), stored row
    by row: numpy's 1-d mask store is far cheaper than the 2-d one."""
    small = z < switch
    n_small = np.count_nonzero(small)
    if n_small in (0, z.size):
        return np.asarray((series if n_small else direct)(slice(None)))
    out = np.empty((max_order + 1, z.size))
    for mask, path in ((small, series), (~small, direct)):
        for row, vals in zip(out, path(mask)):
            row[mask] = vals
    return out


def _regular_derivs(kind, lams, xs, params: Params, max_order: int):
    """Rows d^0..d^max_order of jtype or itype at lams broadcast against xs,
    shape (max_order + 1,) + the broadcast shape (see the module docstring;
    odd orders of the series are x times a polynomial in x^2)."""
    lams, xs = np.asarray(lams, dtype=float), np.asarray(xs, dtype=float)
    if (lams < 0.0).any():
        raise ValueError("lambda must be a nonnegative real here")
    if (xs < 0.0).any():
        raise ValueError("x must be nonnegative")
    shape = (max_order + 1,) + np.broadcast(lams, xs).shape
    if lams.size == 1 or xs.size == 1:  # a single lam or x broadcasts
        lams, xs = lams.ravel(), xs.ravel()
    else:
        lams, xs = (v.ravel() for v in np.broadcast_arrays(lams, xs))
    a, A, B = _structure(kind, lams, params)

    def part(v, mask):
        return v if v.size == 1 else v[mask]

    def series(mask):
        need, pick = part(lams, mask), slice(0, 1)
        if need.size > 1:
            need, pick = np.unique(need, return_inverse=True)
        coef = _regular_coeffs(kind, need, float(params.M), _SERIES_TERMS)
        x = part(xs, mask)
        rows = _horner(_derivative_table(coef, max_order)[..., pick], x ** 2)
        rows[1::2] *= x
        return rows

    def direct(mask):
        return _direct_derivs_scaled(kind, part(a, mask), part(A, mask),
                                     part(B, mask), part(xs, mask), max_order)

    out = _two_paths(a * xs, _REGULAR_SWITCH, series, direct, max_order)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# public evaluation

def _derivs(handle, x, max_order):
    """(rows d^0..d^max_order of the solution at x, whether x is a scalar)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    kind = handle.kind
    if kind in _REGULAR:  # _regular_derivs checks x
        return _regular_derivs(kind, handle.lam, arr, handle.params, max_order), scalar
    if np.any(arr <= 0.0):
        raise ValueError(f"{kind.value} is defined on x > 0 only")
    a, A, B = _structure(kind, handle.lam, handle.params)

    def series(mask):
        stack = solution_series(handle).derivatives(max_order)
        return [s.evaluate(arr[mask]) for s in stack]

    return _two_paths(a * arr, _SERIES_SWITCH, series,
                      lambda m: _direct_derivs_scaled(kind, a, A, B, arr[m], max_order),
                      max_order), scalar


def eval_solution(handle: SolutionHandle, x):
    """Value of the solution at x (vectorized; scalar in, float out)."""
    out, scalar = _derivs(handle, x, 0)
    return float(out[0, 0]) if scalar else out[0]


def eval_jtype_outer(lams, xs, params: Params):
    """J_lam(x) with lams broadcast against xs: pass lams[:, None] and
    xs[None, :] for the outer grid, or two arrays of one shape for
    (lam, x) pairs.  Order 0 of ``_regular_derivs``, so each entry is
    ``eval_solution`` on the handle (jtype, lam) bit for bit."""
    return _regular_derivs(SolutionKind.jtype, lams, xs, params, 0)[0]


def eval_solution_derivs(handle: SolutionHandle, x, max_order: int = 4):
    """Derivatives d^0..d^max_order at x, analytic throughout.

    Returns shape (max_order+1,) for scalar x, else (max_order+1, len(x)).
    """
    if not (0 <= max_order <= 4):
        raise ValueError("max_order must lie in 0..4")
    out, scalar = _derivs(handle, x, max_order)
    return out[:, 0] if scalar else out

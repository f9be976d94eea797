"""The fourth-order Bessel-type solution family J/Y/I/K at parameter (lambda, M).

The equation (x y'')'' - ((9/x + 8x/M) y')' = Lambda x y on (0, inf) has,
for Lambda = lambda^2 (lambda^2 + 8/M), the four-solution basis

    jtype(x) =  d J0(lam x) - 2 M (lam/2)^2 (lam x)^-1 J1(lam x)
    ytype(x) =  d Y0(lam x) - 2 M (lam/2)^2 (lam x)^-1 Y1(lam x)
    itype(x) = -d I0(c x)   + (c M / 2) x^-1 I1(c x)
    ktype(x) =  d K0(c x)   + (c M / 2) x^-1 K1(c x)

with c = sqrt(lambda^2 + 8/M) and d = 1 + M (lambda/2)^2.  jtype and itype
extend to x = 0 with value 1.

Each solution is evaluated through two mutually checked paths: the direct
formula above for z = (scale)*x beyond a switch radius, and the combined
log-power series below it.  The combination j/i-type subtracts two pieces
that both tend to d as x -> 0, and the boundary-form calculus needs exact
bookkeeping of the x^-2 and ln x parts of y/k-type, so the series path is
what makes values, derivatives, and near-origin residuals trustworthy.

Derivatives are analytic: the series is differentiated termwise below the
switch, and above it the pair u = C0(z), v = C1(z)/z is closed under
differentiation (u' and v' are Laurent-polynomial combinations of u, v),
so the n-th derivative is a Laurent recurrence evaluated at kernel values.
No numerical differentiation is used anywhere.

Below the switch the series and its derivatives run the compiled Horner
plan of ``LogPowerSeries.evaluate`` (one pass in x^2 per log degree).
Above it the Laurent polynomials p_n, q_n are summed term by term in
ascending powers from one table of the powers of z per call: Horner's
rule and folding A p_u + B p_v into one polynomial both measured less
accurate there against mpmath (jtype, where a derivative nears a zero).
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import classical
from .logseries import LogPowerSeries, _horner

_EG = np.euler_gamma
_SERIES_SWITCH = 1.0   # use the series path for z = scale*x below this
_SERIES_TERMS = 18


class SolutionKind(str, Enum):
    jtype = "jtype"
    ytype = "ytype"
    itype = "itype"
    ktype = "ktype"


@dataclass(frozen=True)
class Params:
    """Model parameter M > 0; gamma = 8/M is derived, never set."""

    M: float

    def __post_init__(self):
        if not (0.0 < self.M < math.inf):
            raise ValueError("M must be positive and finite")

    @property
    def gamma(self) -> float:
        return 8.0 / self.M


@dataclass(frozen=True)
class CDPair:
    c: float
    d: float


def spectral_value(lam: float, params: Params) -> float:
    """Spectral reparametrization Lambda = lambda^2 (lambda^2 + 8/M)."""
    return lam * lam * (lam * lam + 8.0 / params.M)


def cd_params(lam: float, params: Params) -> CDPair:
    """c = sqrt(lambda^2 + 8/M) (principal root) and d = 1 + M(lambda/2)^2."""
    return CDPair(c=math.sqrt(lam * lam + 8.0 / params.M),
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


def _structure(kind: SolutionKind, lam: float, params: Params):
    """Scale a and coefficients (A, B) with sol = A*C0(z) + B*C1(z)/z, z = a x."""
    mq = params.M * (lam / 2.0) ** 2
    d = 1.0 + mq
    if kind in (SolutionKind.jtype, SolutionKind.ytype):
        return lam, d, -2.0 * mq
    c = math.sqrt(lam * lam + 8.0 / params.M)
    big = c * c * params.M / 2.0
    if kind is SolutionKind.itype:
        return c, -d, big
    return c, d, big


# ---------------------------------------------------------------------------
# small-argument series

def _harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def ktype_scale_series(a: float, M: float, nterms: int = _SERIES_TERMS) -> LogPowerSeries:
    """Series of d K0(a x) + (a M/2) x^-1 K1(a x) with d = M a^2/4 - 1.

    This parametrizes the exponentially decaying solutions directly by
    their decay rate a > 0, covering both real lambda (a = c) and the
    negative-spectral-value branch where lambda is imaginary.  The x^-2
    coefficient is M/2 and the ln x coefficient is exactly 1 for every a,
    which is what makes differences of two such solutions regular at 0.
    """
    a2 = a * a
    d = M * a2 / 4.0 - 1.0
    e_big = a2 * M / 2.0
    ell = math.log(a / 2.0)
    terms = {(-2, 0): M / 2.0}
    for k in range(nterms):
        fk = math.factorial(k)
        fk1 = math.factorial(k + 1)
        hk = _harmonic(k)
        sk = hk + _harmonic(k + 1) - 2.0 * _EG
        base = (a2 / 4.0) ** k
        blog = 1.0 if k == 0 else base * (-d / fk ** 2 + (e_big / 2.0) / (fk * fk1))
        areg = base * (-d * (ell + _EG - hk) / fk ** 2
                       + e_big * (ell / 2.0 - sk / 4.0) / (fk * fk1))
        if blog != 0.0:
            terms[(2 * k, 1)] = blog
        if areg != 0.0:
            terms[(2 * k, 0)] = areg
    return LogPowerSeries(terms)


def _jtype_coeffs(lams, M: float, nterms: int):
    """Coefficients of x^0, x^2, ..., x^(2 nterms - 2) in the jtype series,
    one row per lam: t_k ((k + 1) + k M q) / (k + 1), q = lam^2/4, with
    t_0 = 1 and t_k / t_(k-1) = -q / k^2.  Formed in long double and
    rounded once, so within about half an ulp where long double is wider
    than double (the 80-bit format on x86-64)."""
    q = np.asarray(lams, dtype=np.longdouble)[:, None] ** 2 / 4
    k = np.arange(nterms, dtype=np.longdouble)
    ratio = np.ones((q.shape[0], nterms), dtype=np.longdouble)
    ratio[:, 1:] = -q / k[1:] ** 2
    t = np.cumprod(ratio, axis=1)
    return (t * ((k + 1) + k * (np.longdouble(M) * q)) / (k + 1)).astype(float)


@lru_cache(maxsize=512)
def _series_cached(kind: SolutionKind, lam: float, M: float, nterms: int):
    mq = M * (lam / 2.0) ** 2
    d = 1.0 + mq
    terms = {}
    if kind is SolutionKind.jtype:
        for k, c in enumerate(_jtype_coeffs([lam], M, nterms)[0]):
            terms[(2 * k, 0)] = float(c)
    elif kind is SolutionKind.itype:
        c2 = lam * lam + 8.0 / M
        for k in range(nterms):
            base = (c2 / 4.0) ** k / math.factorial(k) ** 2
            # -d + (mq + 2)/(k + 1), without the cancellation of that form
            coeff = base * ((1.0 - k) - k * mq) / (k + 1.0)
            if coeff != 0.0:
                terms[(2 * k, 0)] = coeff  # k = 0: exactly 1, the value at 0
    elif kind is SolutionKind.ktype:
        return ktype_scale_series(math.sqrt(lam * lam + 8.0 / M), M, nterms)
    else:  # ytype
        ell = math.log(lam / 2.0)
        terms[(-2, 0)] = M / np.pi
        for k in range(nterms):
            fk = math.factorial(k)
            fk1 = math.factorial(k + 1)
            hk = _harmonic(k)
            sk = hk + _harmonic(k + 1) - 2.0 * _EG
            base = (2.0 / np.pi) * (-1.0) ** k * (lam * lam / 4.0) ** k
            blog = 2.0 / np.pi if k == 0 else base * (d / fk ** 2 - mq / (fk * fk1))
            areg = base * ((ell + _EG) * d / fk ** 2 - d * hk / fk ** 2
                           - mq * ell / (fk * fk1) + (mq / 2.0) * sk / (fk * fk1))
            if blog != 0.0:
                terms[(2 * k, 1)] = blog
            if areg != 0.0:
                terms[(2 * k, 0)] = areg
    return LogPowerSeries(terms)


def solution_series(handle: SolutionHandle, nterms: int = _SERIES_TERMS) -> LogPowerSeries:
    """Small-argument log-power series of the solution, in powers of x."""
    return _series_cached(handle.kind, float(handle.lam), float(handle.params.M), nterms)


def series_radius(handle: SolutionHandle) -> float:
    """x below which the series path is used (and is highly accurate)."""
    a, _, _ = _structure(handle.kind, handle.lam, handle.params)
    return np.inf if a == 0.0 else _SERIES_SWITCH / a


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


def _direct_derivs(kind, lam, params, x, max_order):
    a, A, B = _structure(kind, lam, params)
    return _direct_derivs_scaled(kind, a, A, B, x, max_order)


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
    powers = {e: z ** e for e in range(-max_order, 2)}

    def laurent(terms):  # ascending powers, each read from the table
        return sum(c * powers[e] for e, c in terms)

    (pu, qu), (pv, qv) = _deriv_polys(kind, max_order)
    rows = []
    for n in range(max_order + 1):
        pn = A * laurent(pu[n]) + B * laurent(pv[n])
        qn = A * laurent(qu[n]) + B * laurent(qv[n])
        rows.append(a ** n * (pn * u + qn * v))
    return np.vstack(rows)


def _series_derivs(handle, x, max_order):
    series = solution_series(handle)
    rows = [s.evaluate(x) for s in series.derivatives(max_order)]
    return np.vstack([np.atleast_1d(r) for r in rows])


# ---------------------------------------------------------------------------
# public evaluation

def _validate_x(handle, x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if handle.kind in (SolutionKind.ytype, SolutionKind.ktype):
        if np.any(arr <= 0.0):
            raise ValueError(f"{handle.kind.value} is defined on x > 0 only")
    elif np.any(arr < 0.0):
        raise ValueError("x must be nonnegative")
    return arr, scalar


def eval_solution(handle: SolutionHandle, x):
    """Value of the solution at x (vectorized; scalar in, float out)."""
    arr, scalar = _validate_x(handle, x)
    a, _, _ = _structure(handle.kind, handle.lam, handle.params)
    z = a * arr
    small = z < _SERIES_SWITCH
    out = np.empty_like(arr)
    if np.any(small):
        out[small] = solution_series(handle).evaluate(arr[small])
    if np.any(~small):
        out[~small] = _direct_derivs(handle.kind, handle.lam, handle.params,
                                     arr[~small], 0)[0]
    return float(out[0]) if scalar else out


def eval_jtype_outer(lams, xs, params: Params):
    """J_lam(x) with lams broadcast against xs: pass lams[:, None] and
    xs[None, :] for the outer grid, or two arrays of one shape for
    (lam, x) pairs.

    Each entry takes the same path and arithmetic as ``eval_solution`` on
    the handle (jtype, lam): below the switch, Horner in x^2 on the series
    coefficients, which one ``_jtype_coeffs`` call builds for every
    distinct lam that needs them (the ``_series_cached`` memo would only
    churn on a stream of quadrature lams); above it, A*J0(z) + B*J1(z)/z
    with one J0 and one J1 call.
    """
    lams, xs = np.broadcast_arrays(np.asarray(lams, dtype=float),
                                   np.asarray(xs, dtype=float))
    if np.any(lams < 0.0):
        raise ValueError("lambda must be a nonnegative real here")
    if np.any(xs < 0.0):
        raise ValueError("x must be nonnegative")
    z = lams * xs
    out = np.empty_like(z)
    small = z < _SERIES_SWITCH
    if np.any(small):
        need, row_of = np.unique(lams[small], return_inverse=True)
        coef = _jtype_coeffs(need, float(params.M), _SERIES_TERMS)
        out[small] = _horner(np.take(coef.T, row_of, axis=1), xs[small] ** 2)
    big = ~small
    if np.any(big):
        mq = params.M * (lams[big] / 2.0) ** 2
        zb = z[big]
        out[big] = (1.0 + mq) * classical.j0(zb) \
            + (-2.0 * mq) * (classical.j1(zb) / zb)
    return out


def eval_solution_derivs(handle: SolutionHandle, x, max_order: int = 4):
    """Derivatives d^0..d^max_order at x, analytic throughout.

    Returns shape (max_order+1,) for scalar x, else (max_order+1, len(x)).
    """
    if not (0 <= max_order <= 4):
        raise ValueError("max_order must lie in 0..4")
    arr, scalar = _validate_x(handle, x)
    a, _, _ = _structure(handle.kind, handle.lam, handle.params)
    z = a * arr
    small = z < _SERIES_SWITCH
    out = np.empty((max_order + 1, arr.size))
    if np.any(small):
        out[:, small] = _series_derivs(handle, arr[small], max_order)
    if np.any(~small):
        out[:, ~small] = _direct_derivs(handle.kind, handle.lam, handle.params,
                                        arr[~small], max_order)
    return out[:, 0] if scalar else out

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

All four kinds have one evaluator, ``_solution_derivs``, which broadcasts
lambda against x for the handles, ``eval_jtype_outer`` and the transforms.
Below the switch it sums the rows of one long-double generator,
``_series_rows``: pole x^-2 + sum e_j x^(2j) + ln x sum l_j x^(2j), the
Frobenius log case at the origin (DLMF 10.8, 10.31).  jtype and itype are
the e row alone; the ytype log row is 2/pi times the jtype row and the
ktype log row is the itype row.  ``_series_derivs`` evaluates all orders
in one Horner pass in x^2 (the decaying candidate of ``spectral`` runs it
too); ``solution_series`` turns the same rows into a memoized
``LogPowerSeries`` for the exact algebra of ``forms``.

The switch is z = 4 for jtype and itype.  Worst relative error of orders
0-4 against 40-digit mpmath on 9 (lambda, M) from (0.1, 0.1) to (10, 10):
the direct path errs by 5.6e-13 at z = 1.01, 1.3e-14 at 2.01 and at most
2.9e-15 at 3.99-4.01; the 18-term series by at most 1.5e-14 through z = 4
(order 1 at z = 3, lambda = M = 10, where d = 251) and 1.7e-11 at z = 6.
ytype and ktype switch at z = 1: their direct path is about as accurate
below it (within 4.7e-15 on z in [1e-3, 3]), but dearer for orders 0-4 on
16384 points there (ytype 3.0 -> 5.2 ms, ktype 4.0 -> 5.5).
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
# per kind: nu, s and whether a log part and a pole come in (``_series_rows``)
_ROWS = {SolutionKind.jtype: (0, 1, False), SolutionKind.itype: (2, -1, False),
         SolutionKind.ytype: (0, 2 / np.arccos(np.longdouble(-1)), True),
         SolutionKind.ktype: (2, -1, True)}
# q-free row factors: j, j^2, j + 1, H_j, (H_j + H_(j+1))/(2 (j + 1))
_LD_K = np.arange(_SERIES_TERMS, dtype=np.longdouble)
_LD_K2, _LD_K1 = _LD_K[1:] ** 2, _LD_K + 1
_LD_H = np.concatenate([[0], np.cumsum(1 / _LD_K[1:])])
_LD_HH = (2 * _LD_H + 1 / _LD_K1) / (2 * _LD_K1)


def _series_rows(kind: SolutionKind, q, M: float):
    """(pole, e, l): the series pole x^-2 + sum e_j x^(2j) + ln x sum l_j
    x^(2j), j < 18, of the kind at q = lam^2/4, a long-double column with
    one row per lam (q = a^2/4 - 2/M < 0 for the decaying candidate of
    ``spectral`` at rate a), formed in long double and rounded once.

    With r = -q (J, Y) or q + 2/M (I, K), t_j = r^j/(j!)^2 and nu = 0
    (J, Y) or 2 (I, K), the row g_j = t_j ((j + 1 - nu) + j M q)/(j + 1)
    times s = 1 (jtype) or -1 (itype) is the whole series of the regular
    pair (A&S 9.1.10, 9.6.10); pole and l are None there.  By the log
    terms of Y0, Y1, K0 and K1 (A&S 9.1.11, 9.1.13, 9.6.11, 9.6.13), ytype
    and ktype are ln x times s g (s = 2/pi or -1: the jtype or itype row),
    plus e_j = (ln|r|/2 + gamma) l_j - s t_j [(1 + M q) H_j - (M q + nu)
    (H_j + H_(j+1))/(2 (j + 1))] with H_j the harmonic numbers, plus the
    pole |s| M/2 (M/pi or M/2)."""
    nu, s, log = _ROWS[kind]
    M = np.longdouble(M)
    Mq = M * q
    r = -q if nu == 0 else q + 2 / M
    ratio = np.ones((q.shape[0], _SERIES_TERMS), dtype=np.longdouble)
    ratio[:, 1:] = r / _LD_K2
    t = s * np.cumprod(ratio, axis=1)
    row = t * ((_LD_K1 - nu) + _LD_K * Mq) / _LD_K1
    if not log:
        return None, row.astype(float), None
    e = (np.log(np.abs(r)) / 2 + _LD_EG) * row \
        - t * ((1 + Mq) * _LD_H - (Mq + nu) * _LD_HH)
    pole = np.full(q.shape[0], float(abs(s) * M / 2))
    return pole, e.astype(float), row.astype(float)


def _log_power_series(rows):
    """The ``LogPowerSeries`` of the first lam of ``_series_rows``' rows."""
    pole, e, l = rows
    terms = {(2 * j, d): c for d, row in enumerate((e, l)) if row is not None
             for j, c in enumerate(row[0].tolist()) if c}
    if pole is not None and pole[0]:
        terms[(-2, 0)] = float(pole[0])
    return LogPowerSeries(terms)


# for the exact algebra of ``forms`` only; bounded, as a stream of fresh
# (lam, M) never hits the memo and a larger one would only hold memory
@lru_cache(maxsize=128)
def _series_cached(kind: SolutionKind, lam: float, M: float):
    q = np.array([[lam]], dtype=np.longdouble) ** 2 / 4
    return _log_power_series(_series_rows(kind, q, M))


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


def _series_derivs(rows, x, max_order, pick=slice(None)):
    """Rows d^0..d^max_order at x of the series (pole, e, l) of
    ``_series_rows``, reading lam row pick[i] at x[i] (pick broadcasts).

    Each derivative runs ``LogPowerSeries.derivative`` on the coefficient
    arrays (x^p ln x -> p x^(p-1) ln x + x^(p-1); the pole is p = -2), so
    the pole and the Leibniz terms of ln x fold into the Laurent
    coefficients of the power part before one Horner pass in x^2 over all
    orders of both parts (adding them after it loses digits next to a zero
    of a derivative).  A log part comes with the pole's slot (0 for the
    candidate), so order n is x^(-2 - n) times a polynomial in x^2, plus
    x^(n % 2) ln x times one; without either, x^(n % 2) times one."""
    pole, e, l = rows
    logs = int(pole is not None)  # the pole's slot, and the ln x part
    size, orders = logs + e.shape[1], max_order + 1
    c0 = np.vstack([pole, e.T]) if logs else e.T
    c1 = np.vstack([0 * pole, l.T]) if logs else None
    power = 2.0 * np.arange(-logs, e.shape[1])[:, None]
    table = np.zeros((size, (1 + logs) * orders, e.shape[0]))
    for n in range(orders):
        if n:
            f = power - (n - 1)
            c0, c1 = (f * c0 + c1, f * c1) if logs else (f * c0, None)
        # the derivatives drop x^0..x^(n-1) of both parts, but for the pole
        # and the Leibniz terms in the power part
        drop = (n + 1) // 2
        d0 = 0 if logs else drop
        table[:size - d0, n] = c0[d0:]
        if logs:
            table[:size - drop - 1, orders + n] = c1[drop + 1:]
    acc = _horner(table[..., pick], x ** 2)
    if not logs:
        acc[1::2] *= x
        return acc
    for n in range(orders):
        acc[n] *= x ** (-2 - n)
    acc[orders + 1::2] *= x
    return acc[:orders] + acc[orders:] * np.log(x)


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


def _solution_derivs(kind, lams, xs, params: Params, max_order: int):
    """Rows d^0..d^max_order of the kind at lams broadcast against xs,
    shape (max_order + 1,) + the broadcast shape: ``_series_derivs`` of the
    rows of the distinct lams below the switch in z (see the module
    docstring), the direct formula from it on."""
    lams, xs = np.asarray(lams, dtype=float), np.asarray(xs, dtype=float)
    if (lams < 0.0).any():
        raise ValueError("lambda must be a nonnegative real here")
    if kind in _REGULAR:
        if (xs < 0.0).any():
            raise ValueError("x must be nonnegative")
    elif (xs <= 0.0).any():
        raise ValueError(f"{kind.value} is defined on x > 0 only")
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
        q = need.astype(np.longdouble)[:, None] ** 2 / 4
        return _series_derivs(_series_rows(kind, q, params.M), part(xs, mask),
                              max_order, pick)

    def direct(mask):
        return _direct_derivs_scaled(kind, part(a, mask), part(A, mask),
                                     part(B, mask), part(xs, mask), max_order)

    switch = _REGULAR_SWITCH if kind in _REGULAR else _SERIES_SWITCH
    out = _two_paths(a * xs, switch, series, direct, max_order)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# public evaluation

def eval_solution(handle: SolutionHandle, x):
    """Value of the solution at x (vectorized; scalar in, float out)."""
    out = _solution_derivs(handle.kind, handle.lam, x, handle.params, 0)[0]
    return float(out) if np.ndim(x) == 0 else out


def eval_jtype_outer(lams, xs, params: Params):
    """J_lam(x) with lams broadcast against xs: pass lams[:, None] and
    xs[None, :] for the outer grid, or two arrays of one shape for
    (lam, x) pairs.  Order 0 of ``_solution_derivs``, so each entry is
    ``eval_solution`` on the handle (jtype, lam) bit for bit."""
    return _solution_derivs(SolutionKind.jtype, lams, xs, params, 0)[0]


def eval_solution_derivs(handle: SolutionHandle, x, max_order: int = 4):
    """Derivatives d^0..d^max_order at x, analytic throughout.

    Returns shape (max_order+1,) for scalar x, else (max_order+1, len(x)).
    """
    if not (0 <= max_order <= 4):
        raise ValueError("max_order must lie in 0..4")
    return _solution_derivs(handle.kind, handle.lam, x, handle.params, max_order)

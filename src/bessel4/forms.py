"""The fourth-order expression, its boundary forms, and endpoint limits.

Central objects:

* ``apply_expression`` ((x f'')'' - ((9/x + 8x/M) f')'),
  ``residual_expression`` and ``apply_higher_order`` (orders 6 and 8):
  the operators of ``equation.equation_op``, applied to analytic
  derivative bundles by one private applier.  Near the origin it works
  by exact symbolic application on a local log-power series, because
  the expanded form cancels x^-5-sized pieces down to O(1) there and
  float evaluation would drown the residual in rounding noise; elsewhere
  it reads the derivative stack.
* the symplectic form [f, g](x) from the Green identity and the Dirichlet
  form [f, g]_D(x), with interval checkers for both integral identities.
* ``boundary_data``: the limits f(0), f''(0), read exactly as c(0, 0) and
  2 c(2, 0) of the local log-power series at 0 (or from ``boundary_exact``)
  once no term below x^4 but 1 and x^2 puts f outside the maximal domain.
  ``_ladder``, Richardson extrapolation on a ratio-2 grid, serves checks of
  the limit identities [f,1](0+) = -8 f''(0) and [f,x^2](0+) = 16 f(0).
* ``apply_jump_operator``: the operator of the jump space, equal to
  -8 f''(0)/k at the origin and x^-1 (expression) elsewhere.

All bundles are immutable views; everything here is pure.
"""

from dataclasses import dataclass

import numpy as np

from .equation import boundary_form, equation_op, weight
from .logseries import DiffOp, LogPowerSeries
from .quadrature import ConvergenceError, adaptive_quad
from .solutions import (Params, SolutionHandle, eval_solution_derivs,
                        series_radius, solution_series)

# ---------------------------------------------------------------------------
# function bundles


class FnBundle:
    """Value-and-derivatives view of a function on (0, inf).

    Subclasses provide ``derivs(x, order)`` returning rows d^0..d^order on
    the points x, and may expose a local log-power series near 0 through
    ``_series()`` plus the radius ``series_valid_below`` where it is valid.
    """

    series_valid_below = 0.0

    def derivs(self, x, order=4):
        raise NotImplementedError

    def _series(self):
        return None

    def local_series(self, x=0.0):
        """The local log-power series if it is valid at every x, else None."""
        if np.all(np.atleast_1d(x) < self.series_valid_below):
            return self._series()
        return None

    def value(self, x):
        return self.derivs(x, 0)[0]

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.derivs(arr, 0)[0]
        return float(out[0]) if np.ndim(x) == 0 else out


class SolutionBundle(FnBundle):
    """Bundle over one of the four closed-form solutions."""

    def __init__(self, handle: SolutionHandle):
        self.handle = handle
        self.series_valid_below = series_radius(handle)

    def derivs(self, x, order=4):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        return np.atleast_2d(eval_solution_derivs(self.handle, arr, order))

    def _series(self):
        return solution_series(self.handle)


class SeriesBundle(FnBundle):
    """Exact log-power series valid on all of (0, inf).

    This is how the patched multipliers 1, x, x^2 and the Frobenius basis
    enter the boundary-form calculus: their near-origin behaviour is the
    whole point, and the patching region far from 0 never matters for
    0+ limits.
    """

    def __init__(self, series: LogPowerSeries, label=""):
        self.series = series
        self.label = label
        self.series_valid_below = np.inf

    @classmethod
    def monomial(cls, power, coeff=1.0):
        return cls(LogPowerSeries.monomial(power, coeff), label=f"x^{power}")

    def derivs(self, x, order=4):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        stack = self.series.derivatives(order)
        return np.vstack([np.atleast_1d(s.evaluate(arr)) for s in stack])

    def _series(self):
        return self.series


class PolyGaussBundle(FnBundle):
    """p(x) * exp(-sigma x^2), with polynomial p given by coefficients.

    Derivatives are polynomial algebra, hence exact; these bundles build
    the smooth minimal-domain test family (leading power >= 4 keeps
    x^-1 * expression square-integrable near 0).
    """

    def __init__(self, coeffs, sigma=0.5):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.sigma = float(sigma)
        self._polys = [np.polynomial.Polynomial(self.coeffs)]

    def _poly(self, n):
        while len(self._polys) <= n:
            p = self._polys[-1]
            # (p e^{-s x^2})' = (p' - 2 s x p) e^{-s x^2}
            self._polys.append(p.deriv() - 2.0 * self.sigma
                               * p * np.polynomial.Polynomial([0.0, 1.0]))
        return self._polys[n]

    def derivs(self, x, order=4):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        damp = np.exp(-self.sigma * arr * arr)
        return np.vstack([self._poly(n)(arr) * damp for n in range(order + 1)])

    def boundary_exact(self):
        """(f(0), f''(0)); an x or x^3 term puts f outside the maximal domain."""
        c = np.zeros(4)
        c[:self.coeffs.size] = self.coeffs[:4]
        if c[1] or c[3]:
            raise NotInMaximalDomain(f"p has an x or x^3 term: {c}")
        return c[0], 2.0 * c[2] - 2.0 * self.sigma * c[0]


class ProductBundle(FnBundle):
    """Pointwise product of two bundles, derivatives by the Leibniz rule.

    The main use is smooth cutoffs: solution * (plateau that is 1 near 0
    and vanishes beyond a finite radius) keeps the boundary data of the
    solution while forcing square-integrability at infinity.
    """

    def __init__(self, left: FnBundle, right: FnBundle):
        self.left = left
        self.right = right
        # below a plateau's flat region the product IS the left factor,
        # so the left near-origin series stays valid there
        self.series_valid_below = min(left.series_valid_below,
                                      getattr(right, "flat_until", 0.0))

    def derivs(self, x, order=4):
        import math as _math
        dl = self.left.derivs(x, order)
        dr = self.right.derivs(x, order)
        rows = []
        for n in range(order + 1):
            acc = None
            for i in range(n + 1):
                term = _math.comb(n, i) * dl[i] * dr[n - i]
                acc = term if acc is None else acc + term
            rows.append(acc)
        return np.vstack(rows)

    def _series(self):
        return self.left._series()


class PlateauBundle(FnBundle):
    """Smooth plateau: exactly 1 on [0, a], exactly 0 on [b, inf).

    The ramp is the degree-9 polynomial smoothstep (C^4 at both
    junctions), so every derivative used here is an exact polynomial;
    multiplying by the plateau changes nothing near the origin and
    forces square-integrability at infinity.
    """

    _STEP = np.polynomial.Polynomial([0, 0, 0, 0, 0, 126, -420, 540, -315, 70])

    def __init__(self, a=1.0, b=3.0):
        if not 0.0 < a < b:
            raise ValueError("need 0 < a < b")
        self.a, self.b = float(a), float(b)
        self.series_valid_below = 0.0
        self.flat_until = self.a
        self._polys = [self._STEP]

    def _poly(self, n):
        while len(self._polys) <= n:
            self._polys.append(self._polys[-1].deriv())
        return self._polys[n]

    def derivs(self, x, order=4):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        width = self.b - self.a
        s = np.clip((x - self.a) / width, 0.0, 1.0)
        ramp = (x > self.a) & (x < self.b)
        rows = [np.where(x <= self.a, 1.0, np.where(ramp, 1.0 - self._STEP(s), 0.0))]
        for n in range(1, order + 1):
            dv = np.where(ramp, -self._poly(n)(s) / width ** n, 0.0)
            rows.append(dv)
        return np.vstack(rows)


class LinComboBundle(FnBundle):
    def __init__(self, weights, bundles):
        self.weights = list(map(float, weights))
        self.bundles = list(bundles)
        self.series_valid_below = min(b.series_valid_below for b in bundles)

    def derivs(self, x, order=4):
        out = None
        for w, b in zip(self.weights, self.bundles):
            d = w * b.derivs(x, order)
            out = d if out is None else out + d
        return out

    def _series(self):
        acc = LogPowerSeries()
        for w, b in zip(self.weights, self.bundles):
            s = b._series()
            if s is None:
                return None
            acc = acc + s.scale(w)
        return acc


def as_bundle(obj) -> FnBundle:
    if isinstance(obj, FnBundle):
        return obj
    if isinstance(obj, SolutionHandle):
        return SolutionBundle(obj)
    if isinstance(obj, LogPowerSeries):
        return SeriesBundle(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a function bundle")


# ---------------------------------------------------------------------------
# the expressions

def _apply(f, op: DiffOp, x):
    """(op[f], f) on the points x, as arrays: exact symbolic application
    on f's local series below its radius (where the expanded form would
    cancel x^-5-sized pieces down to O(1) in floats), the derivative
    stack elsewhere."""
    f = as_bundle(f)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out, val = np.empty_like(arr), np.empty_like(arr)
    small = arr < f.series_valid_below
    if np.any(small):
        series = f.local_series(arr[small])
        if series is not None:
            out[small] = np.atleast_1d(op.apply(series).evaluate(arr[small]))
            val[small] = np.atleast_1d(series.evaluate(arr[small]))
        else:
            small = np.zeros_like(small)
    if np.any(~small):
        d = f.derivs(arr[~small], max(j for _, j, _ in op.ops))
        out[~small] = op.evaluate_on(d, arr[~small])
        val[~small] = d[0]
    return out, val


def apply_expression(f, x, params: Params):
    """(x f'')'' - ((9/x + 8x/M) f')' at the points x."""
    out, _ = _apply(f, equation_op(4, params), x)
    return float(out[0]) if np.ndim(x) == 0 else out


def residual_expression(f, Lambda, grid, params: Params):
    """max over the grid of |expression[f] - Lambda x f| / (1 + |Lambda x f|)."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    res, val = _apply(f, equation_op(4, params, Lambda), grid)
    return float(np.max(np.abs(res) / (1.0 + np.abs(Lambda * grid * val))))


def apply_higher_order(order, f, x, params: Params):
    """The sixth- or eighth-order Lagrange-symmetric expression at x.

    Needs derivative data to the matching order; accepts an FnBundle whose
    ``derivs`` honours order 6 or 8, or a LogPowerSeries bundle.
    """
    if order not in (6, 8):
        raise ValueError("order must be 6 or 8")
    out, _ = _apply(f, equation_op(order, params), x)
    return float(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# boundary forms

def symplectic_form(f, g, x, params: Params):
    """[f, g](x) = g (x f'')' - (x g'')' f - x (g' f'' - g'' f')
    - (9/x + 8x/M) (g f' - g' f), for real-valued bundles."""
    f, g = as_bundle(f), as_bundle(g)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    val = boundary_form(f.derivs(arr, 3), g.derivs(arr, 3), arr, params.M)
    return float(val[0]) if np.ndim(x) == 0 else val


def dirichlet_form(f, g, x, params: Params):
    """[f, g]_D(x) = -g (x f'')' + g' x f'' + g (9/x + 8x/M) f'."""
    f, g = as_bundle(f), as_bundle(g)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    df = f.derivs(arr, 3)
    dg = g.derivs(arr, 1)
    val = (-dg[0] * (arr * df[3] + df[2]) + dg[1] * arr * df[2]
           + dg[0] * weight(arr, params.M) * df[1])
    return float(val[0]) if np.ndim(x) == 0 else val


def greens_check(f, g, a, b, params: Params, tol=1e-9):
    """Defect of the Green identity on [a, b]; small for smooth bundles,
    inf if the integral does not converge to tol."""
    f, g = as_bundle(f), as_bundle(g)

    def integrand(x):
        return (g.derivs(x, 0)[0] * apply_expression(f, x, params)
                - f.derivs(x, 0)[0] * apply_expression(g, x, params))

    quad = adaptive_quad(integrand, a, b, tol=tol)
    if not quad.converged:
        return np.inf
    boundary = symplectic_form(f, g, b, params) - symplectic_form(f, g, a, params)
    return abs(quad.value - boundary)


def _quad_to_floor(fn, a, b, tol):
    """adaptive_quad of fn on [a, b] to tol, or to 4 ulp of the size of the
    integral where that is larger: below it rounding, not the rule, sets
    the error, and bisection would only spend evaluations."""
    size = abs(adaptive_quad(fn, a, b, tol=np.inf).value)
    floor = 4.0 * np.finfo(float).eps * size
    return adaptive_quad(fn, a, b, tol=max(tol, floor))


def dirichlet_check(f, g, a, b, params: Params, tol=1e-9):
    """Defect of the Dirichlet identity on [a, b]; inf if either integral
    does not converge to tol (or to its rounding floor, see
    ``_quad_to_floor``)."""
    f, g = as_bundle(f), as_bundle(g)

    def energy(x):
        df = f.derivs(x, 2)
        dg = g.derivs(x, 2)
        return x * df[2] * dg[2] + weight(x, params.M) * df[1] * dg[1]

    def rhs_int(x):
        return apply_expression(f, x, params) * g.derivs(x, 0)[0]

    lhs = _quad_to_floor(energy, a, b, tol)
    rhs = _quad_to_floor(rhs_int, a, b, tol)
    if not (lhs.converged and rhs.converged):
        return np.inf
    boundary = dirichlet_form(f, g, b, params) - dirichlet_form(f, g, a, params)
    return abs(lhs.value - boundary - rhs.value)


# ---------------------------------------------------------------------------
# boundary limits at 0+

@dataclass(frozen=True)
class BoundaryData:
    f0: float
    f2: float


class NotInMaximalDomain(ValueError):
    """f has a term near 0 that puts it outside the maximal domain."""


def _ladder(values, exponents=(2, 2, 4, 4)):
    """Richardson on a ratio-2 grid; values ordered largest step first.

    The doubled exponents eliminate the h^2 and h^4 blocks twice each,
    which absorbs h^(2k) ln h corrections alongside the pure powers.
    """
    seq = list(map(float, values))
    for e in exponents:
        fac = 2.0 ** e
        seq = [(fac * seq[i + 1] - seq[i]) / (fac - 1.0)
               for i in range(len(seq) - 1)]
        if len(seq) == 1:
            break
    return seq[-1]


def boundary_data(f, params: Params) -> BoundaryData:
    """The limits f(0+), f''(0+) of a maximal-domain function, exactly.

    Read from ``f.boundary_exact()`` where the bundle has it, else from its
    local log-power series at 0 as c(0, 0) and 2 c(2, 0).  The expression
    takes x^p ln^d x to x^(p-3) times logs, so below p = 4 only the
    indicial terms 1 and x^2 keep f and x^-1 (expression) square-integrable
    for x dx near 0: any other term there with c != 0 (x^-2, ln x, x, x^2
    ln x, x^3, ...) raises NotInMaximalDomain.  A bundle with neither a
    series nor ``boundary_exact`` gets a ValueError.  The limits do not
    depend on ``params``.
    """
    f = as_bundle(f)
    exact = getattr(f, "boundary_exact", None)
    if exact is not None:
        return BoundaryData(*map(float, exact()))
    series = f.local_series(0.0)
    if series is None:
        raise ValueError(f"{type(f).__name__} has neither a local series at 0 "
                         "nor boundary_exact, so no boundary data")
    outside = sorted(key for key, c in series.items()
                     if c and key[0] < 4 and key not in ((0, 0), (2, 0)))
    if outside:
        raise NotInMaximalDomain("the series at 0 has terms x^p ln(x)^d "
                                 f"outside the maximal domain at (p, d) in {outside}")
    return BoundaryData(f0=float(series.coeff(0, 0)),
                        f2=2.0 * float(series.coeff(2, 0)))


# ---------------------------------------------------------------------------
# jump-space operator and higher-order expressions

def apply_jump_operator(f, k, x, params: Params):
    """Value of the jump-space operator at x (x = 0 uses -8 f''(0) / k, with
    f''(0) from ``boundary_data``)."""
    if k <= 0.0:
        raise ValueError("k must be positive")
    f = as_bundle(f)
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    zero = arr == 0.0
    if np.any(zero):
        # [f, 1](0+) = -8 f''(0), the 9/x term's -9 plus 1 (not c)
        out[zero] = -8.0 / k * boundary_data(f, params).f2
    if np.any(~zero):
        xs = arr[~zero]
        out[~zero] = apply_expression(f, xs, params) / xs
    return float(out[0]) if scalar else out


def dirichlet_integral(f, params: Params, upper=40.0, tol=1e-9):
    """integral over (0, upper) of x f''^2 + (9/x + 8x/M) f'^2,
    with the [upper, 2*upper] segment returned as a tail estimate;
    ConvergenceError when either misses tol."""
    f = as_bundle(f)

    def energy(x):
        d = f.derivs(x, 2)
        return x * d[2] ** 2 + weight(x, params.M) * d[1] ** 2

    main = adaptive_quad(energy, 0.0, upper, tol=tol)
    tail = adaptive_quad(energy, upper, 2.0 * upper, tol=tol)
    if not (main.converged and tail.converged):
        raise ConvergenceError(f"the Dirichlet integral missed tol={tol}",
                               best=main.value + tail.value, error=main.error + tail.error)
    return main.value + tail.value, abs(tail.value)

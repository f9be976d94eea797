"""Adaptive and oscillatory quadrature engines.

Two engines cover every integral in the library:

* ``adaptive_quad``: nested Gauss rules (10/20 points) with interval
  bisection, honest per-panel error estimates, and cube-root endpoint
  substitutions for flagged integrable singularities (log or x^(-1/2)).
* ``oscillatory_semi_infinite``: integrates bracket by bracket along the
  asymptotically regular sign changes and accelerates the partial sums
  with Wynn's epsilon algorithm; this is what makes the conditionally
  convergent spectral-side integrals computable.

Both are stateless and evaluate their integrand on arrays of nodes, so
callers may parallelize freely; results do not depend on evaluation order.
"""

import heapq
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when an integral fails to reach the requested tolerance."""

    def __init__(self, message, best=None, error=None):
        super().__init__(message)
        self.best = best
        self.error = error


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    converged: bool
    neval: int


_NODES = {}


def _gauss(n):
    if n not in _NODES:
        _NODES[n] = np.polynomial.legendre.leggauss(n)
    return _NODES[n]


def _panel_pair(f, a, b):
    """(coarse, fine) Gauss estimates on [a, b] with one integrand call.

    Non-finite estimates (divergent or overflowing integrands) come back
    as a zero value with an effectively infinite error so the caller
    keeps subdividing and ultimately reports non-convergence.
    """
    x10, w10 = _gauss(10)
    x20, w20 = _gauss(20)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = np.concatenate([mid + half * x10, mid + half * x20])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _values(f, nodes)
        coarse = half * np.dot(w10, vals[:10])
        fine = half * np.dot(w20, vals[10:])
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        return 1e300, 0.0  # panel value 0, panel error 1e300
    return coarse, fine


def adaptive_quad(f, a, b, tol=1e-8, singular=(), max_panels=4000):
    """Integrate f over [a, b] to absolute accuracy ~tol.

    f is called on arrays of nodes inside [a, b] and must return an array
    of values of the same shape.

    ``singular`` may contain "left" and/or "right" to flag integrable
    endpoint singularities; those ends are regularized with the map
    x = end +/- u^3 (the transformed integrand is continuous, taken as 0
    at the endpoint itself).

    Returns QuadResult(value, err_est, converged, neval).
    """
    if a == b:
        return QuadResult(0.0, 0.0, True, 0)
    if b < a:
        r = adaptive_quad(f, b, a, tol, singular, max_panels)
        return QuadResult(-r.value, r.error, r.converged, r.neval)
    if "left" in singular and "right" in singular:
        mid = 0.5 * (a + b)
        r1 = adaptive_quad(f, a, mid, tol / 2, ("left",), max_panels // 2)
        r2 = adaptive_quad(f, mid, b, tol / 2, ("right",), max_panels // 2)
        return QuadResult(r1.value + r2.value, r1.error + r2.error,
                          r1.converged and r2.converged, r1.neval + r2.neval)
    if "left" in singular:
        w = (b - a) ** (1.0 / 3.0)
        def g(u):
            u = np.asarray(u)
            return np.where(u > 0.0, 3.0 * u * u * _values(f, a + u ** 3), 0.0)
        return _adaptive_core(g, 0.0, w, tol, max_panels)
    if "right" in singular:
        w = (b - a) ** (1.0 / 3.0)
        def g(u):
            u = np.asarray(u)
            return np.where(u > 0.0, 3.0 * u * u * _values(f, b - u ** 3), 0.0)
        return _adaptive_core(g, 0.0, w, tol, max_panels)
    return _adaptive_core(f, a, b, tol, max_panels)


def _values(f, x):
    """f at the array x; every integrand maps an array of nodes to an array
    of values of the same shape, anything else raises ValueError."""
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != np.shape(x):
        raise ValueError("the integrand must map an array of nodes to an "
                         "array of values of the same shape")
    return vals


def _adaptive_core(f, a, b, tol, max_panels):
    coarse, fine = _panel_pair(f, a, b)
    # heap of (-err, a, b, fine_estimate)
    heap = [(-abs(fine - coarse), a, b, fine)]
    total_err = abs(fine - coarse)
    neval = 30
    panels = 1
    while total_err > tol and panels < max_panels:
        negerr, pa, pb, _pval = heapq.heappop(heap)
        err = -negerr
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:  # interval exhausted at float resolution
            heapq.heappush(heap, (0.0, pa, pb, _pval))
            total_err -= err
            continue
        c1, f1 = _panel_pair(f, pa, mid)
        c2, f2 = _panel_pair(f, mid, pb)
        neval += 60
        panels += 1
        heapq.heappush(heap, (-abs(f1 - c1), pa, mid, f1))
        heapq.heappush(heap, (-abs(f2 - c2), mid, pb, f2))
        total_err += abs(f1 - c1) + abs(f2 - c2) - err
    value = float(sum(item[3] for item in heap))
    total_err = float(sum(-item[0] for item in heap))
    return QuadResult(value, total_err, total_err <= tol, neval)


# ---------------------------------------------------------------------------
# oscillatory semi-infinite integrals

@dataclass(frozen=True)
class OscResult:
    value: float
    error: float
    converged: bool
    brackets: int


def wynn_epsilon(partial_sums):
    """Limit estimate of a sequence via Wynn's epsilon table.

    Returns (estimate, stability) where stability is the spread of the
    last few even-column entries; np.inf when the table is too short.
    """
    s = [float(v) for v in partial_sums]
    n = len(s)
    if n == 1:
        return s[0], np.inf
    huge = 1e300
    eps_prev = [0.0] * (n + 1)
    eps_curr = list(s)
    best = s[-1]
    history = [best]
    col = 0
    while len(eps_curr) >= 2:
        nxt = []
        for i in range(len(eps_curr) - 1):
            diff = eps_curr[i + 1] - eps_curr[i]
            # a vanishing difference means the column has converged; the
            # conventional huge reciprocal makes the next even column
            # reproduce the converged value instead of corrupting it
            inv = 1.0 / diff if diff != 0.0 else huge
            if not np.isfinite(inv):
                inv = huge
            nxt.append(eps_prev[i + 1] + inv)
        col += 1
        eps_prev, eps_curr = eps_curr, nxt
        if col % 2 == 0 and eps_curr:
            candidate = eps_curr[-1]
            if np.isfinite(candidate) and abs(candidate) < huge:
                best = candidate
                history.append(best)
    if len(history) >= 3:
        tail = history[-3:]
        stability = max(tail) - min(tail)
    else:
        stability = abs(history[-1] - history[0]) if len(history) > 1 else np.inf
    return best, stability


def oscillatory_semi_infinite(f, zero_spacing_hint, tol=1e-6, start=None,
                              max_brackets=140, head_tol=None):
    """Integral of f over (0, inf) for eventually oscillatory f.

    The axis is split at ``start`` (default: one spacing) into a head,
    integrated adaptively, and a bracket train of width
    ``zero_spacing_hint``; the bracket partial sums are accelerated with
    the epsilon algorithm until two consecutive estimates agree to tol.
    """
    h = float(zero_spacing_hint)
    if h <= 0.0:
        raise ValueError("zero_spacing_hint must be positive")
    x0 = h if start is None else float(start)
    head = adaptive_quad(f, 0.0, x0, tol=(head_tol or tol * 0.05))
    xg, wg = _gauss(16)
    sums = []
    total = head.value
    estimates = []
    chunk = 8
    k = 0
    while k < max_brackets:
        lo = x0 + h * (k + np.arange(chunk))
        mids = lo + 0.5 * h
        nodes = (mids[:, None] + 0.5 * h * xg[None, :]).ravel()
        vals = _values(f, nodes).reshape(chunk, -1)
        segs = 0.5 * h * vals.dot(wg)
        for s in segs:
            total += s
            sums.append(total)
        k += chunk
        # an integrand that has already died converges by decay alone
        if len(sums) >= 16 and np.max(np.abs(segs)) < 0.02 * tol:
            err = float(3.0 * np.max(np.abs(segs)))
            return OscResult(float(total), err, True, k)
        if len(sums) >= 8:
            est, stab = wynn_epsilon(sums)
            estimates.append(est)
            if len(estimates) >= 2:
                drift = abs(estimates[-1] - estimates[-2])
                if drift < tol and stab < 10 * tol:
                    return OscResult(float(est), float(max(drift, stab)), True, k)
    est, stab = wynn_epsilon(sums)
    return OscResult(float(est), float(stab), False, k)

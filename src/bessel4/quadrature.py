"""Adaptive and oscillatory quadrature engines.

Two engines cover every integral in the library:

* ``adaptive_quad``: the 10-point Gauss rule and its 21-point Kronrod
  extension (QUADPACK's G10/K21 pair, 21 nodes per panel) with interval
  bisection, per-panel error estimates |K21 - G10|, and cube-root
  endpoint substitutions for flagged integrable singularities (log or
  x^(-1/2)).  The first round evaluates the panels between given edges
  (``adaptive_quad`` gives [a, b] alone; a caller that knows where its
  integrand needs small panels gives a partition that starts there).
  Each later round bisects the worst panels, as many as it takes for the
  error left in the others to meet the tolerance, and evaluates the
  nodes of all their halves in one integrand call.
* ``oscillatory_semi_infinite``: integrates bracket by bracket along the
  asymptotically regular sign changes, with the 10-point Gauss rule on
  each bracket (half an oscillation, where G10 is exact to degree 19),
  and accelerates the partial sums with Wynn's epsilon algorithm; this is
  what makes the conditionally convergent spectral-side integrals
  computable.

Each engine is written as steps: a generator (``_adaptive_steps``, which
takes the edges of its first round, and ``_oscillatory_steps``) that
yields the nodes of its next round and is sent their values, and returns
its result.  One driver, ``_lockstep``, runs any number of such
integrals side by side and makes a single integrand call per round on
the nodes of every integral still running; the two public engines are
its one-integral case.  An operation that needs several integrals of one
integrand (the inverse transform on an x grid, an integral split at a
point) then pays one integrand call per round instead of one per
integral per round.

Integrands must be pointwise: the value at a node may not depend on the
other nodes of the call, whose number and grouping are the engine's
choice.  That is what makes lockstep exact: each integral keeps its own
panels, heap, bracket sums and epsilon table and sees the same values
at the same nodes as when it runs alone, so its result is the same to
the last bit.  Both engines are stateless, so callers may parallelize
freely.
"""

import heapq
import math
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

    def checked(self, what, tol):
        """The value; ConvergenceError naming ``what`` if it missed tol."""
        if not self.converged:
            raise ConvergenceError(f"{what} did not reach tol={tol}",
                                   best=self.value, error=self.error)
        return self.value


_NODES = {}


def _gauss(n):
    if n not in _NODES:
        _NODES[n] = np.polynomial.legendre.leggauss(n)
    return _NODES[n]


# The 21-point Kronrod extension of the 10-point Gauss-Legendre rule on
# [-1, 1], nodes ascending: the Gauss nodes are the odd entries, and the
# centre node is 0.  K21 is exact to degree 31, G10 to degree 19.
# Printed by tools/gen_kronrod_table.py (50-digit mpmath).
_K21_X = np.array([
    -0.9956571630258081, -0.9739065285171717, -0.9301574913557082,
    -0.8650633666889845, -0.7808177265864169, -0.6794095682990244,
    -0.5627571346686047, -0.4333953941292472, -0.2943928627014602,
    -0.14887433898163122, 0.0, 0.14887433898163122,
    0.2943928627014602, 0.4333953941292472, 0.5627571346686047,
    0.6794095682990244, 0.7808177265864169, 0.8650633666889845,
    0.9301574913557082, 0.9739065285171717, 0.9956571630258081,
])
_K21_W = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169, 0.14773910490133849,
    0.14277593857706009, 0.13470921731147334, 0.12349197626206584,
    0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
    0.054755896574351995, 0.032558162307964725, 0.011694638867371874,
])
_G10_W = np.array([
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287, 0.29552422471475287,
    0.26926671930999635, 0.21908636251598204, 0.1494513491505806,
    0.06667134430868814,
])
_G10_X = _K21_X[1::2]
_PANEL_NODES = _K21_X.size


def _values(f, x):
    """f at the array x; every integrand maps an array of nodes to an array
    of values of the same shape, anything else raises ValueError."""
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != np.shape(x):
        raise ValueError("the integrand must map an array of nodes to an "
                         "array of values of the same shape")
    return vals


def _lockstep(f, steps):
    """The results of the integrals ``steps`` (step generators), run side
    by side.

    Each round makes one call f(nodes, which) on the nodes that every
    unfinished integral asks for, laid end to end; which[j] is the index
    in ``steps`` of the integral that asked for nodes[j].  f must return
    an array of values shaped like nodes, each depending on its own node
    and integral only.  Every call, and every step's arithmetic on the
    values, runs with overflow and invalid operations quiet: the engines
    read non-finite values as a failed panel or a bracket train that does
    not converge.
    """
    results = [None] * len(steps)
    asks = {}  # integral -> the nodes it asks for in this round

    def advance(i, vals):
        try:
            asks[i] = steps[i].send(vals)
        except StopIteration as stop:
            results[i] = stop.value

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(steps)):
            advance(i, None)
        while asks:
            order = list(asks)
            wants = [asks.pop(i) for i in order]
            sizes = [w.size for w in wants]
            which = np.repeat(order, sizes)
            vals = _values(lambda x: f(x, which),
                           np.concatenate([w.ravel() for w in wants]))
            for i, w, part in zip(order, wants,
                                  np.split(vals, np.cumsum(sizes)[:-1])):
                advance(i, part.reshape(w.shape))
    return results


def _single(f, steps):
    """The result of one integral of f: ``_lockstep``'s one-integral case."""
    return _lockstep(lambda x, which: f(x), [steps])[0]


def _panel_pairs(a, b):
    """Steps: (G10, K21) estimates on the panels [a_i, b_i], from one round
    on all of their nodes, shaped (panels, 21); G10 reads the odd ones.

    Non-finite estimates (divergent or overflowing integrands) come back
    as a zero value with an effectively infinite error so the caller
    keeps subdividing and ultimately reports non-convergence.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = yield mid[:, None] + half[:, None] * _K21_X
    coarse = half * (vals[:, 1::2] @ _G10_W)
    fine = half * (vals @ _K21_W)
    bad = ~(np.isfinite(coarse) & np.isfinite(fine))
    coarse[bad], fine[bad] = 1e300, 0.0  # panel value 0, panel error 1e300
    return coarse, fine


_MAX_PANELS = 4000  # adaptive_quad's default panel budget


def adaptive_quad(f, a, b, tol=1e-8, singular=(), max_panels=_MAX_PANELS):
    """Integrate f over [a, b] to absolute accuracy ~tol.

    f is called on 1-D arrays of nodes inside [a, b] and must return an
    array of values of the same shape, each depending on its own node
    only: every round of bisections evaluates all of its new panels
    (21 nodes each) in one call.  A panel's value is its K21 sum and its
    error |K21 - G10|.

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
        return _single(g, _adaptive_steps([0.0, w], tol, max_panels))
    if "right" in singular:
        w = (b - a) ** (1.0 / 3.0)
        def g(u):
            u = np.asarray(u)
            return np.where(u > 0.0, 3.0 * u * u * _values(f, b - u ** 3), 0.0)
        return _single(g, _adaptive_steps([0.0, w], tol, max_panels))
    return _single(f, _adaptive_steps([a, b], tol, max_panels))


def _adaptive_steps(edges, tol, max_panels):
    """Steps of ``adaptive_quad`` on [edges[0], edges[-1]] (edges
    ascending, no singular end): the first round asks for the nodes of
    every panel [edges[i], edges[i + 1]], each later round for those of
    the panels it bisects; returns the QuadResult.

    The error left is re-summed over the heap after every round, so that
    a failed panel's 1e300 leaves it once its halves replace it.
    """
    heap = []  # (-err, a, b, fine estimate) of every panel
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    _push_panels(heap, lo, hi, *(yield from _panel_pairs(lo, hi)))
    neval, panels = _PANEL_NODES * lo.size, lo.size
    total_err = _error_left(heap)
    while total_err > tol and panels < max_panels:
        # the worst panels, until the error left in the heap would meet tol
        split, err_sum = [], 0.0
        while (heap and heap[0][0] < 0.0 and err_sum <= total_err - tol
               and panels + len(split) < max_panels):
            negerr, pa, pb, pval = heapq.heappop(heap)
            mid = 0.5 * (pa + pb)
            if mid <= pa or mid >= pb:  # interval exhausted at float resolution
                heapq.heappush(heap, (0.0, pa, pb, pval))
                total_err += negerr
                continue
            split.append((pa, mid, pb))
            err_sum -= negerr
        if not split:
            break
        pa, mid, pb = np.array(split).T
        lo, hi = np.concatenate([pa, mid]), np.concatenate([mid, pb])
        _push_panels(heap, lo, hi, *(yield from _panel_pairs(lo, hi)))
        neval += 2 * _PANEL_NODES * len(split)
        panels += len(split)
        total_err = _error_left(heap)
    value = float(sum(item[3] for item in heap))
    total_err = _error_left(heap)
    return QuadResult(value, total_err, total_err <= tol, neval)


def _push_panels(heap, lo, hi, coarse, fine):
    """Push the panels [lo_i, hi_i] onto the heap."""
    errs = np.abs(fine - coarse)
    for item in zip((-errs).tolist(), lo.tolist(), hi.tolist(), fine.tolist()):
        heapq.heappush(heap, item)


def _error_left(heap):
    """The summed error of the panels in the heap."""
    return math.fsum(-item[0] for item in heap)


# ---------------------------------------------------------------------------
# oscillatory semi-infinite integrals

# No exit of oscillatory_semi_infinite reads fewer bracket sums: the decay
# exit waits for them, and the epsilon exit compares the estimates of two
# rounds of _MIN_SUMS // 2 brackets.
_MIN_SUMS = 16
_MAX_BRACKETS = 140  # oscillatory_semi_infinite's default bracket budget


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
                              max_brackets=_MAX_BRACKETS, head_tol=None):
    """Integral of f over (0, inf) for eventually oscillatory f.

    The axis is split at ``start`` > 0 (default: one spacing) into a head,
    integrated adaptively, and a bracket train of width
    ``zero_spacing_hint``; the bracket partial sums are accelerated with
    the epsilon algorithm until two consecutive estimates agree to tol.
    """
    return _single(f, _oscillatory_steps(zero_spacing_hint, tol, start,
                                         max_brackets, head_tol))


def _oscillatory_steps(zero_spacing_hint, tol=1e-6, start=None,
                       max_brackets=_MAX_BRACKETS, head_tol=None):
    """Steps of ``oscillatory_semi_infinite``; returns the OscResult.

    The first round asks for the head's first panel and brackets
    0 .. _MIN_SUMS - 1 together.  The head then runs to its end before any
    bracket sum is formed, since every sum includes its value; later
    rounds ask for _MIN_SUMS // 2 brackets each.
    """
    h = float(zero_spacing_hint)
    if h <= 0.0:
        raise ValueError("zero_spacing_hint must be positive")
    x0 = h if start is None else float(start)
    if not x0 > 0.0:
        raise ValueError("start must be positive")
    chunk = _MIN_SUMS // 2

    def brackets(k, n):
        mids = x0 + h * (k + np.arange(n)) + 0.5 * h
        return mids[:, None] + 0.5 * h * _G10_X[None, :]

    first = brackets(0, min(_MIN_SUMS, chunk * -(-max_brackets // chunk)))
    head = _adaptive_steps([0.0, x0], head_tol or tol * 0.05, _MAX_PANELS)
    nodes = next(head)
    vals = yield np.concatenate([nodes.ravel(), first.ravel()])
    rows = vals[nodes.size:].reshape(first.shape)
    vals = vals[:nodes.size].reshape(nodes.shape)
    while True:
        try:
            vals = yield head.send(vals)
        except StopIteration as stop:
            total = stop.value.value
            break
    sums = []
    estimates = []
    k = 0
    while k < max_brackets:
        if k >= len(first):
            rows = yield brackets(k, chunk)
        segs = 0.5 * h * rows[:chunk].dot(_G10_W)
        rows = rows[chunk:]
        for s in segs:
            total += s
            sums.append(total)
        k += chunk
        # an integrand that has already died converges by decay alone
        if len(sums) >= _MIN_SUMS and np.max(np.abs(segs)) < 0.02 * tol:
            err = float(3.0 * np.max(np.abs(segs)))
            return OscResult(float(total), err, True, k)
        est, stab = wynn_epsilon(sums)
        estimates.append(est)
        if len(estimates) >= 2:
            drift = abs(estimates[-1] - estimates[-2])
            if drift < tol and stab < 10 * tol:
                return OscResult(float(est), float(max(drift, stab)), True, k)
    est, stab = wynn_epsilon(sums)
    return OscResult(float(est), float(stab), False, k)

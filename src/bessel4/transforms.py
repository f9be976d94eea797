"""Classical and generalized Hankel transforms, and delta-family kernels.

The generalized pair maps the jump space (weight x plus the point mass
M/2 at 0) onto the spectral-side space with density
lam (1 + M (lam/2)^2)^(-2):

    forward:  g(lam) = (M/2) f(0) + integral x J_lam(x) f(x) dx
    inverse:  f(x)   = integral J_lam(x) g(lam) dn(lam),  f(0) = integral g dn

with J_lam the regular fourth-order solution normalized to 1 at the
origin.  The classical order-zero pair is the member with kernel
J0(lam x), weight x on both sides and no atom, so one engine runs both
pairs, each given by its kernel and the measures of its two sides.

The forward integral over [0, X] (X escalating through 25, 50, 100, 200,
or fixed) runs on whole lam arrays, each lam on one of two grids:

* a composite Gauss grid on [0, X] with panels sized to lam (2.5 rad
  each), read through the kernel matrix K(lam_i, x_j), formed in row
  chunks of at most 2^16 entries;
* for lam in the octave [2^k, 2^(k+1)), the same Gauss grid on [0, 8/2^k]
  and Filon panels beyond it, where lam x >= 8 and K = A J0(lam x) +
  B J1(lam x)/(lam x) is Re[exp(i lam x) a(x)] with a slowly varying
  amplitude a built from the modulus-phase P0, Q0, P1, Q1 (A = 1, B = 0
  for the classical pair).  Each panel fits x f a at 16 Gauss nodes by a
  Legendre series and integrates it against exp(i lam x) exactly.  The
  panels are sized to f alone: geometric by 1.5 from 8/2^k to 1.5, 0.75
  wide beyond, bisected where f is not resolved.  Their count grows only
  like log(lam).

A lam takes the Filon grid when it has fewer nodes than the Gauss grid,
so at X = 40 for lam > 4: 1056 nodes at lam = 320 against 65536.
Against the closed forms of exp(-x) and exp(-x^2) at X = 40, lam in
[8, 320], the forward is within 1.5e-13 (generalized pair, M <= 2) and
1.1e-16 (classical) absolute, as the Gauss grid was.  The inverse is an
adaptive head on lam in [0, 8] plus brackets of spacing
pi/x summed with epsilon acceleration; at x = 0 it is the lam-measure
integral of g.  When g oscillates on its own (f ends sharply at some E),
the brackets follow the beat x + E, at x = 0 too.

The truncated orthogonality kernels are evaluated in closed form through
the Green identity: the boundary term at 0 of two regular solutions
exactly cancels the M/2 atom, leaving

    kernel(lam, mu, X) = weight(lam) * [J_lam, J_mu](X) / (L(lam) - L(mu)),

an O(1) expression in kernel evaluations at X.  A quadrature route is
kept for cross-checks.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import classical
from .measures import (AtomDensityMeasure, inner_product, lebesgue_x,
                       spectral_measure)
from .quadrature import adaptive_quad, oscillatory_semi_infinite
from .solutions import (Params, SolutionHandle, SolutionKind,
                        _direct_derivs_scaled, eval_jtype_outer, eval_solution,
                        spectral_value)


# grid nodes per row chunk of a lam group (kernel-matrix entries, or
# Filon nodes times lams)
_CHUNK_POINTS = 1 << 16


@dataclass
class TransformResult:
    grid: np.ndarray
    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def jtype_derivs_multi(lams, x, params: Params, order=3):
    """x-derivative stack of J_lam at fixed x, vectorized over lam.

    Valid on the direct-formula region (lam * x above the series switch);
    the delta-family kernels only call it with large X.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(lams * x < 0.5):
        raise ValueError("jtype_derivs_multi needs lam*x >= 0.5")
    mq = params.M * (lams / 2.0) ** 2
    return _direct_derivs_scaled(SolutionKind.jtype, lams, 1.0 + mq, -2.0 * mq,
                                 x, order)


# ---------------------------------------------------------------------------
# the pair engine

@dataclass(frozen=True)
class _Pair:
    """A Hankel-type pair: kernel(lams, xs) on the outer grid, equal to 1
    at x = 0 and equal to A J0(lam x) + B J1(lam x)/(lam x) with
    (A, B) = coeffs(lams) where lam x >= 8; the x side is weight x plus an
    atom x_atom at the origin, the lam side is lam_measure.  lam_cap bounds
    the lam at which the inverse at x = 0 reads g (see
    ``_measure_integral``)."""

    kernel: Callable
    coeffs: Callable
    x_atom: float
    lam_measure: AtomDensityMeasure
    lam_cap: float = np.inf


def _j0_outer(lams, xs):
    return classical.j0(np.multiply.outer(np.atleast_1d(lams), np.atleast_1d(xs)))


def _j0_coeffs(lams):
    return np.ones_like(lams), np.zeros_like(lams)


# the classical order-zero pair: kernel J0(lam x), weight x on both sides
_CLASSICAL = _Pair(_j0_outer, _j0_coeffs, 0.0, lebesgue_x(), lam_cap=1000.0)


def _generalized_pair(params: Params) -> _Pair:
    """Kernel J_lam(x), the jump space's atom M/2 and the spectral measure."""
    def coeffs(lams):
        mq = params.M * (lams / 2.0) ** 2
        return 1.0 + mq, -2.0 * mq

    return _Pair(lambda lams, xs: eval_jtype_outer(lams, xs, params), coeffs,
                 params.M / 2.0, spectral_measure(params.M))


def _origin(pair: _Pair, f, f0):
    """(f(0), the x side's atom times f(0)); f is read at 0 only under
    an atom, so the classical pair takes profiles singular there."""
    if not pair.x_atom:
        return f0, 0.0
    f0 = float(f(0.0)) if f0 is None else float(f0)
    return f0, pair.x_atom * f0


# ---------------------------------------------------------------------------
# forward quadrature: Gauss grids and Filon panels

# Filon panels hold 16 Gauss-Legendre nodes each.  From the end 8/2^k of
# the Gauss head up to _FILON_BEND they grow geometrically by at most
# _FILON_RATIO, beyond it they are uniform and at most _FILON_WIDTH wide,
# so every panel's centre lies at least 5 half-widths from the origin,
# where the amplitude's sqrt(x) and the 1/x^2 of P and Q are
# singular.  Panels where the fit of x f misses _FILON_FIT_TOL are
# bisected down to _FILON_MIN_HALF (see ``_fit_panels``).
_FILON_WIDTH = 0.75
_FILON_RATIO = 1.5
_FILON_BEND = 2.0 * _FILON_WIDTH
_FILON_FIT_TOL = 1e-14
_FILON_MIN_HALF = 1e-6
_FILON_T, _FILON_W = np.polynomial.legendre.leggauss(16)
# _FILON_FIT[k, j] = (k + 1/2) w_j P_k(t_j): the Legendre coefficients of
# the degree-15 interpolant are _FILON_FIT @ (values at the nodes)
_FILON_FIT = (np.arange(16)[:, None] + 0.5) * _FILON_W \
    * np.polynomial.legendre.legvander(_FILON_T, 15).T
_TWO_I_POW = np.array([2.0, 2.0j, -2.0, -2.0j] * 4)


def _legendre_moments(omega):
    """integral over [-1, 1] of P_k(t) exp(i omega t) dt = 2 i^k j_k(omega)
    for k = 0..15, shape omega.shape + (16,), for omega >= 1e-3.

    The spherical Bessel values j_k come from Miller's downward recurrence,
    started where j_k has become negligible next to j_0..j_15 and scaled
    to whichever of j_0 = sin w / w and j_1 is larger.  From omega = 32 on
    the upward recurrence from j_0, j_1 is stable for every k < 16 (its
    characteristic roots stay on the unit circle while 2k + 1 <= omega),
    so the cost does not grow with omega.
    """
    omega = np.asarray(omega, dtype=float)
    n = _TWO_I_POW.size
    out = np.empty(omega.shape + (n,))
    w = omega.ravel()
    jk = out.reshape(-1, n)
    s, c = np.sin(w), np.cos(w)
    j0, j1 = s / w, (s / w - c) / w
    up = w >= 2.0 * n
    if np.any(up):
        wu = w[up]
        rows = np.empty((wu.size, n))
        rows[:, 0], rows[:, 1] = j0[up], j1[up]
        for k in range(1, n - 1):
            rows[:, k + 1] = (2 * k + 1) / wu * rows[:, k] - rows[:, k - 1]
        jk[up] = rows
    down = ~up
    if np.any(down):
        wd = w[down]
        start = (n + 20 + wd + 4.0 * np.cbrt(wd)).astype(int)
        rows = np.empty((wd.size, n))
        hi = np.zeros_like(wd)   # j_(k+1), unnormalized
        cur = np.zeros_like(wd)  # j_k
        for k in range(int(start.max()), 0, -1):
            cur = np.where(start == k, 1e-30, cur)
            hi, cur = cur, (2 * k + 1) / wd * cur - hi
            if k <= n:
                rows[:, k - 1] = cur
        use0 = np.abs(j0[down]) >= np.abs(j1[down])
        scale = np.where(use0, j0[down] / rows[:, 0], j1[down] / rows[:, 1])
        jk[down] = rows * scale[:, None]
    return out * _TWO_I_POW


def _panel_count(x_cut, freq):
    """Gauss panels on [0, x_cut], a power of two: they resolve both the
    kernel oscillation (2.5 rad per panel) and the profile of f itself
    (panel width at most 0.75)."""
    per_panel = 2.5
    need = max(4, math.ceil(x_cut / 0.75),
               math.ceil(x_cut * max(freq, 1e-9) / per_panel))
    return 1 << (need - 1).bit_length()


def _gauss_panels(f, x_cut, npanels):
    """Composite 8-point Gauss-Legendre nodes on [0, x_cut] and their
    weights times x f(x)."""
    xg, wg = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, x_cut, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * xg[None, :]).ravel()
    wts = np.tile(half * wg, npanels)
    fx = np.asarray(f(nodes), dtype=float) * nodes
    return nodes, wts * fx


def _filon_edges(x0, x_cut):
    """Filon panel edges on [x0, x_cut] (see _FILON_RATIO)."""
    bend = min(max(x0, _FILON_BEND), x_cut)
    parts = [[x0]]
    if bend > x0:
        n = int(np.ceil(np.log(bend / x0) / np.log(_FILON_RATIO)))
        parts.append(x0 * (bend / x0) ** (np.arange(1, n) / n))
        parts.append([bend])
    if x_cut > bend:
        n = int(np.ceil((x_cut - bend) / _FILON_WIDTH))
        parts.append(np.linspace(bend, x_cut, n + 1)[1:])
    return np.concatenate(parts)


def _fit_panels(f, edges):
    """(centres, half-widths, nodes, x f at the nodes) of the Filon panels:
    the panels between edges, bisected until the degree-15 interpolant of
    x f on each has its last two Legendre coefficients below
    _FILON_FIT_TOL of max |x f| (where f has a kink or ends, as at the
    edge of a compact support), down to _FILON_MIN_HALF."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    done, scale = [], None
    while mid.size:
        x = mid[:, None] + half[:, None] * _FILON_T
        xf = x * np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        if scale is None:
            scale = np.max(np.abs(xf))
        tail = np.max(np.abs(xf @ _FILON_FIT[-2:].T), axis=1)
        split = (tail > _FILON_FIT_TOL * scale) & (half > _FILON_MIN_HALF)
        done.append((mid[~split], half[~split], x[~split], xf[~split]))
        mid = np.concatenate([mid[split] - 0.5 * half[split],
                              mid[split] + 0.5 * half[split]])
        half = np.tile(0.5 * half[split], 2)
    return tuple(np.concatenate(parts) for parts in zip(*done))


@dataclass(frozen=True)
class _FilonGrid:
    """The forward grid of one octave lam in [2^k, 2^(k+1)): a Gauss head
    on [0, 8/2^k] read through the kernel, Filon panels beyond it."""

    level: int
    head: tuple      # (nodes, weights times x f) of the Gauss head
    x: np.ndarray    # (panels, 16) Filon nodes
    xf: np.ndarray   # x f(x) at the Filon nodes
    mid: np.ndarray  # panel centres
    half: np.ndarray  # panel half-widths
    widths: np.ndarray  # the distinct half-widths ...
    which: np.ndarray   # ... and which one each panel has

    @property
    def size(self):
        return self.head[0].size + self.x.size


def _filon_sum(grid: _FilonGrid, lams, A, B):
    """integral over the Filon panels of
    x f(x) [A J0(lam x) + B J1(lam x)/(lam x)] dx for each lam.

    With z = lam x >= 8 the bracket is Re[exp(i lam x) a(x)], where
    a = sqrt(2/(pi z)) exp(-i pi/4) [A (P0 + i Q0) - i B (P1 + i Q1)/z]
    varies slowly.  On each panel x f a is replaced by its degree-15
    interpolant at the Gauss nodes, a Legendre series, which is
    integrated against exp(i lam x) exactly (``_legendre_moments``).
    """
    z = lams[:, None, None] * grid.x
    p0, q0, p1, q1 = classical._pq01(z)
    amp = grid.xf * np.sqrt(2.0 / (np.pi * z))
    A = A[:, None, None]
    Bz = B[:, None, None] / z
    h = amp * ((A * p0 + Bz * q1) + 1j * (A * q0 - Bz * p1))
    moments = _legendre_moments(lams[:, None] * grid.widths)
    weights = np.einsum("...k,kj->...j", moments, _FILON_FIT)
    panels = np.sum(h * weights[:, grid.which], axis=-1)
    phase = np.exp(1j * (lams[:, None] * grid.mid))
    total = np.sum(grid.half * phase * panels, axis=-1)
    return (total * np.exp(-0.25j * np.pi)).real


class _PanelCache:
    """The forward grids on [0, x_cut] with the profile weighted by x (the
    x-side density of every pair) pre-evaluated: composite Gauss-Legendre
    grids whose panel count, a power of two, is sized to the kernel's
    frequency, and one Filon grid per octave of lam."""

    def __init__(self, f, x_cut):
        self.f = f
        self.x_cut = float(x_cut)
        self._grids = {}
        self._filon = {}

    def grid(self, freq):
        npanels = _panel_count(self.x_cut, freq)
        if npanels not in self._grids:
            self._grids[npanels] = _gauss_panels(self.f, self.x_cut, npanels)
        return self._grids[npanels]

    def filon(self, lam):
        """The Filon grid of lam's octave if it has fewer nodes than the
        Gauss grid of lam, else None."""
        if not lam > 0.0:
            return None
        level = math.frexp(lam)[1] - 1
        if level not in self._filon:
            self._filon[level] = self._filon_grid(level)
        grid = self._filon[level]
        if grid is None or grid.size >= 8 * _panel_count(self.x_cut, lam):
            return None
        return grid

    def _filon_grid(self, level):
        x0 = math.ldexp(classical._OSC_PLAIN, -level)
        if x0 >= self.x_cut:
            return None
        # the head's Gauss grid is sized for the top of the octave
        head = _gauss_panels(self.f, x0,
                             _panel_count(x0, math.ldexp(1.0, level + 1)))
        mid, half, x, xf = _fit_panels(self.f, _filon_edges(x0, self.x_cut))
        widths, which = np.unique(half, return_inverse=True)
        return _FilonGrid(level, head, x, xf, mid, half, widths, which)


def _forward_batch(cache: _PanelCache, lams, pair: _Pair, atom=0.0):
    """atom + integral over [0, x_cut] of x K(lam, x) f(x) dx for each lam.

    Each lam takes the Filon grid of its octave when that has fewer nodes
    than its Gauss grid, else the Gauss grid.  The lams are grouped by
    grid; each group is one kernel matrix K(lam_i, x_j) over the Gauss
    nodes times the weighted profile, plus the Filon panel sum, formed in
    row chunks of at most _CHUNK_POINTS nodes so memory stays flat.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    out = np.empty_like(lams)
    groups = {}
    for i, lam in enumerate(lams):
        filon = cache.filon(lam)
        if filon is None:
            nodes, wfx = cache.grid(lam)
            key = nodes.size
        else:
            (nodes, wfx), key = filon.head, ("filon", filon.level)
        groups.setdefault(key, (nodes, wfx, filon, []))[3].append(i)
    for nodes, wfx, filon, idx in groups.values():
        idx = np.asarray(idx)
        size = nodes.size if filon is None else filon.size
        rows = max(1, _CHUNK_POINTS // size)
        for start in range(0, idx.size, rows):
            sel = idx[start:start + rows]
            out[sel] = atom + pair.kernel(lams[sel], nodes) @ wfx
            if filon is not None:
                out[sel] += _filon_sum(filon, lams[sel],
                                       *pair.coeffs(lams[sel]))
    return out


def _forward(pair: _Pair, f, lams, f0, tol, x_cut) -> TransformResult:
    """The forward transform of f on lams (see ``generalized_forward``)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    f0, atom = _origin(pair, f, f0)
    diag = {"f0": f0}

    def truncated(X):
        return _forward_batch(_PanelCache(f, X), lams, pair, atom)

    if x_cut is not None:
        diag["x_cut"] = float(x_cut)
        return TransformResult(grid=lams, values=truncated(x_cut), diagnostics=diag)
    prev = None
    for X in (25.0, 50.0, 100.0, 200.0):
        vals = truncated(X)
        if prev is not None:
            deltas = np.abs(vals - prev)
            change = float(np.max(deltas))
            if change < tol:
                diag.update({"x_cut": X, "change": change, "converged": True,
                             "points": [{"lam": float(l), "error": float(d)}
                                        for l, d in zip(lams, deltas)]})
                return TransformResult(grid=lams, values=vals, diagnostics=diag)
        prev = vals
    diag.update({"x_cut": X, "converged": False})
    return TransformResult(grid=lams, values=prev, diagnostics=diag)


class _ForwardEvaluator:
    """Memoized g(lam) of one pair for use inside lambda-side quadratures."""

    def __init__(self, f, pair: _Pair, f0=None, x_cut=40.0):
        self.pair = pair
        self.f0, self.atom = _origin(pair, f, f0)
        self.cache = {}
        self.panels = _PanelCache(f, x_cut)

    def __call__(self, lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        keys = [float(lam) for lam in lams]
        misses = list(dict.fromkeys(k for k in keys if k not in self.cache))
        if misses:
            vals = _forward_batch(self.panels, misses, self.pair, self.atom)
            self.cache.update(zip(misses, vals.tolist()))
        return np.array([self.cache[k] for k in keys], dtype=float)


def _ring(panels: _PanelCache, tol):
    """The frequency at which the forward g oscillates on its own.

    That is the end E of the support of f in [0, x_cut] (Paley-Wiener):
    the first node of the coarsest panel grid past the last nonzero value
    of f, or x_cut.  It counts only if f ends there sharply, with x |f|
    above tol within one panel below E; 0 otherwise (f has decayed).
    """
    nodes, _ = panels.grid(0.0)
    xf = np.abs(nodes * np.asarray(panels.f(nodes), dtype=float))
    live = np.flatnonzero(xf)
    if live.size == 0:
        return 0.0
    end = nodes[live[-1] + 1] if live[-1] + 1 < nodes.size else panels.x_cut
    width = 8.0 * panels.x_cut / nodes.size
    return float(end) if xf[nodes > end - width].max() > tol else 0.0


def _measure_integral(pair: _Pair, g, tol):
    """The integral of g over the lam measure: the inverse at x = 0.

    The classical density lam grows, so inner_product's u = 1/lam tail
    map would scale the forward's rounding by lam^3 and read g at ever
    larger lam; there g is read up to lam_cap and continued beyond it
    like lam^-3, the decay of the transform of every smooth profile.
    """
    cap = pair.lam_cap
    if cap < np.inf:
        g_in, g_cap = g, float(g([cap])[0])
        g = lambda lam: np.where(lam < cap, g_in(np.minimum(lam, cap)),
                                 g_cap * (cap / np.maximum(lam, cap)) ** 3)
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    return inner_product(g, one, pair.lam_measure, tol=tol)


def _inverse(pair: _Pair, g, x_grid, tol, lam_tail_start=8.0,
             ring=0.0) -> TransformResult:
    """The inverse transform of g on x_grid (see ``generalized_inverse``).

    ``ring`` is the frequency at which g oscillates on its own (see
    ``_ring``); the brackets then resolve the fastest beat x + ring, and
    x = 0 runs on brackets too, since the measure integral's tail closure
    fails on an oscillating g.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    density = pair.lam_measure.density
    vals = np.empty_like(x_grid)
    diag = []
    for i, x in enumerate(x_grid):
        if x == 0.0 and not ring:
            vals[i] = _measure_integral(pair, g, tol * 1e-2)
            diag.append({"x": 0.0, "mode": "measure-integral"})
            continue

        def integrand(lam):
            lam = np.asarray(lam, dtype=float)
            return pair.kernel(lam, float(x))[:, 0] \
                * np.asarray(g(lam), dtype=float) * density(lam)

        head = adaptive_quad(integrand, 0.0, lam_tail_start, tol=tol * 1e-2)
        r = oscillatory_semi_infinite(
            lambda lam: integrand(lam + lam_tail_start),
            np.pi / (x + ring), tol=tol, head_tol=tol * 1e-2)
        vals[i] = head.value + r.value
        diag.append({"x": float(x), "head_err": head.error, "tail_err": r.error,
                     "converged": head.converged and r.converged,
                     "brackets": r.brackets})
    return TransformResult(grid=x_grid, values=vals, diagnostics={"points": diag})


def _roundtrip(pair: _Pair, f, x_points, f0, tol, x_cut) -> TransformResult:
    """The inverse of the forward of f (truncated at x_cut) on x_points.
    The inverse's brackets follow the oscillation of g itself (see
    ``_ring``)."""
    gev = _ForwardEvaluator(f, pair, f0=f0, x_cut=x_cut)
    return _inverse(pair, gev, x_points, tol, ring=_ring(gev.panels, tol))


def _parseval(pair: _Pair, f, f0, tol, lam_max, x_cut):
    """(integral of |g|^2 over the lam measure up to lam_max, the x-side
    atom times f(0)^2 plus integral x |f|^2 dx up to x = 60)."""
    gev = _ForwardEvaluator(f, pair, f0=f0, x_cut=x_cut)
    density = pair.lam_measure.density

    def gsq_density(lam):
        lam = np.asarray(lam, dtype=float)
        gv = gev(lam)
        return gv * gv * density(lam)

    lam_side = adaptive_quad(gsq_density, 0.0, lam_max, tol=tol,
                             max_panels=400).value
    x_side = adaptive_quad(lambda x: np.asarray(x) * np.asarray(f(x)) ** 2,
                           0.0, 60.0, tol=tol * 1e-2).value
    if pair.x_atom:
        x_side = pair.x_atom * gev.f0 ** 2 + x_side
    return lam_side, x_side


# ---------------------------------------------------------------------------
# classical Hankel transform (order zero)

def hankel_forward(f, s_grid, tol=1e-8) -> TransformResult:
    """g(s) = integral xi J0(s xi) f(xi) d xi on the grid, truncated as in
    ``generalized_forward`` without ``x_cut``.

    f must have decayed by x = 200: beyond that the tail is dropped, the
    values are those of the X = 200 truncation, and tol is not met
    (``diagnostics["converged"]`` is False).
    """
    return _forward(_CLASSICAL, f, s_grid, None, tol, None)


def hankel_parseval(f, s_max=60.0, tol=1e-7):
    """(integral x f^2 dx, integral s g^2 ds) for the classical transform,
    with g computed from f truncated at x = 40."""
    s_side, x_side = _parseval(_CLASSICAL, f, None, tol, s_max, x_cut=40.0)
    return x_side, s_side


def hankel_roundtrip(f, x_point, *, tol=1e-6, x_cut=36.0) -> float:
    """The iterated transform evaluated at x_point (0 allowed).

    Equals the mean of the one-sided limits of f at points of bounded
    variation.  The inner transform is truncated at x_cut; the outer
    integral is the shared inverse (see ``_roundtrip``).
    """
    r = _roundtrip(_CLASSICAL, f, x_point, None, tol, x_cut)
    return float(r.values[0])


# ---------------------------------------------------------------------------
# generalized transform pair

def generalized_forward(f, params: Params, lambda_grid, f0=None,
                        tol=1e-8, x_cut=None) -> TransformResult:
    """The forward transform on a lambda grid.

    The transform is the truncation limit of integrals over [0, X]; here
    X escalates through 25, 50, 100, 200 until the grid values move less
    than tol, unless a fixed ``x_cut`` is supplied (appropriate when the
    decay length of f is known).  With a fixed ``x_cut``, ``tol`` is
    unused and no error estimate is produced.  Within each truncation the
    integral is a composite Gauss rule with panels sized to the
    oscillation of J_lam.
    """
    return _forward(_generalized_pair(params), f, lambda_grid, f0, tol, x_cut)


def generalized_inverse(g, params: Params, x_grid, tol=1e-6,
                        lam_tail_start=8.0) -> TransformResult:
    """The inverse transform on an x grid (0 allowed).

    f(0) is the plain spectral-measure integral of g; for x > 0 the
    lambda integrand oscillates with spacing ~pi/x under an O(lam^-3/2)
    envelope, integrated with the oscillatory accelerator after an
    adaptive head.
    """
    return _inverse(_generalized_pair(params), g, x_grid, tol, lam_tail_start)


def generalized_parseval(f, params: Params, f0=None, tol=1e-6,
                         lam_max=60.0, x_cut=40.0):
    """(integral |g|^2 dn, (M/2)|f(0)|^2 + integral x |f|^2 dx)."""
    return _parseval(_generalized_pair(params), f, f0, tol, lam_max, x_cut)


def moment_identity_defect(f, params: Params, f0=None, tol=1e-6,
                           lam_max=80.0, x_cut=40.0):
    """| integral g dn - f(0) |: the transform's origin-recovery identity."""
    gev = _ForwardEvaluator(f, _generalized_pair(params), f0=f0, x_cut=x_cut)
    density = gev.pair.lam_measure.density

    def g_density(lam):
        lam = np.asarray(lam, dtype=float)
        return gev(lam) * density(lam)

    total = adaptive_quad(g_density, 0.0, lam_max, tol=tol, max_panels=400).value
    # the integrand falls off like lam^-4; close with the analytic-shape tail
    tail = adaptive_quad(g_density, lam_max, 4.0 * lam_max, tol=tol,
                         max_panels=200).value
    return abs(total + tail - gev.f0)


def generalized_roundtrip(f, params: Params, x_points, f0=None,
                          tol=1e-6, x_cut=40.0) -> TransformResult:
    """inverse(forward(f)) evaluated at x_points (0 allowed), with the
    inverse's brackets following the oscillation of g itself (see
    ``_roundtrip``)."""
    return _roundtrip(_generalized_pair(params), f, x_points, f0, tol, x_cut)


# ---------------------------------------------------------------------------
# vanishing moment and delta-family kernels

def vanishing_moment(eta: float, params: Params, tol=1e-7) -> float:
    """integral of J_lam(eta) over the spectral measure; ~0 for eta > 0.

    The integrand decays only like lam^(-3/2) with oscillation spacing
    pi/eta, so the bracket accelerator does the tail; a plain tail
    substitution cannot see the cancellation.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive (the total mass 2/M is the "
                         "eta -> 0 limit, not 0)")
    n_measure = spectral_measure(params.M)

    def integrand(lam):
        lam = np.asarray(lam, dtype=float)
        return eval_jtype_outer(lam, eta, params)[:, 0] * n_measure.density(lam)

    start = 6.0 / eta if eta < 3 else 4.0
    head = adaptive_quad(integrand, 0.0, start, tol=tol * 0.1)
    r = oscillatory_semi_infinite(lambda lam: integrand(lam + start),
                                  np.pi / eta, tol=tol)
    return head.value + r.value


def ortho_kernel_classical(lmb, mu, X, method="closed"):
    """lam * integral_0^X x J0(lam x) J0(mu x) dx (truncated delta kernel)."""
    if method == "quad":
        val = adaptive_quad(
            lambda x: np.asarray(x) * classical.j0(lmb * np.asarray(x))
            * classical.j0(mu * np.asarray(x)), 0.0, X, tol=1e-10).value
        return lmb * val
    lmb_arr = np.atleast_1d(np.asarray(lmb, dtype=float))
    mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
    lmb_arr, mu_arr = np.broadcast_arrays(lmb_arr, mu_arr)
    num = X * (lmb_arr * classical.j1(lmb_arr * X) * classical.j0(mu_arr * X)
               - mu_arr * classical.j0(lmb_arr * X) * classical.j1(mu_arr * X))
    out = lmb_arr * num / (lmb_arr ** 2 - mu_arr ** 2)
    scalar = np.ndim(lmb) == 0 and np.ndim(mu) == 0 and np.ndim(X) == 0
    return float(out[0]) if scalar else out


def ortho_kernel_generalized(lmb, mu, params: Params, X, method="closed"):
    """weight(lam) * { integral_0^X x J_lam J_mu dx + (M/2) J_lam(0) J_mu(0) }.

    The closed route uses the Green identity: the truncated integral is
    [J_lam, J_mu](X)/(L(lam)-L(mu)) minus the boundary term at 0, and the
    0-term is exactly -(M/2)(L(lam)-L(mu)), cancelling the atom.
    """
    M = params.M
    weight = spectral_measure(M).density(lmb)
    if method == "quad":
        hl = SolutionHandle(SolutionKind.jtype, float(lmb), params)
        hm = SolutionHandle(SolutionKind.jtype, float(mu), params)
        val = adaptive_quad(
            lambda x: np.asarray(x) * eval_solution(hl, np.asarray(x))
            * eval_solution(hm, np.asarray(x)), 0.0, X, tol=1e-10,
            max_panels=20000).value
        return weight * (val + M / 2.0)
    mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
    dl = jtype_derivs_multi(np.full_like(mu_arr, lmb), X, params, order=3)
    dm = jtype_derivs_multi(mu_arr, X, params, order=3)
    w = 9.0 / X + 8.0 * X / M
    sym = (dm[0] * (X * dl[3] + dl[2]) - (X * dm[3] + dm[2]) * dl[0]
           - X * (dm[1] * dl[2] - dm[2] * dl[1])
           - w * (dm[0] * dl[1] - dm[1] * dl[0]))
    dL = spectral_value(lmb, params) - np.array(
        [spectral_value(m, params) for m in mu_arr])
    out = weight * sym / dL
    return float(out[0]) if np.ndim(mu) == 0 else out


def smooth_bump(t):
    """exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside; equals 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        body = np.exp(1.0 - 1.0 / np.where(inside, 1.0 - t * t, 1.0))
    out[inside] = body[inside]
    return out


def weak_delta_probe(kind, lam0, X, params: Params = None, half_width=0.5,
                     tol=2e-4):
    """integral of kernel(lam0, mu, X) phi(mu) d mu against a smooth bump.

    Converges to phi(lam0) = 1 as X grows; the O(1/X) rate is the
    distributional identity made quantitative.
    """
    def phi(mu):
        return smooth_bump((np.asarray(mu, dtype=float) - lam0) / half_width)

    if kind == "classical":
        fn = lambda mu: ortho_kernel_classical(lam0, mu, X) * phi(mu)
    elif kind == "generalized":
        fn = lambda mu: ortho_kernel_generalized(lam0, mu, params, X) * phi(mu)
    else:
        raise ValueError("kind must be 'classical' or 'generalized'")
    r = adaptive_quad(fn, lam0 - half_width, lam0 + half_width, tol=tol,
                      max_panels=20000)
    return r.value

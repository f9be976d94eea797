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
or fixed) is a matrix-vector product on whole lam arrays: lams are
grouped by the panel count of their Gauss grid, and each group forms its
kernel matrix K(lam_i, x_j) in row chunks of at most 2^16 entries.  The
inverse is an adaptive head on lam in [0, 8] plus brackets of spacing
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


# entries per kernel-matrix chunk; the widest panel grid (x_cut 40 at the
# moment tail's lam <= 320) is 65536 nodes, one lam per chunk
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
    at x = 0; the x side is weight x plus an atom x_atom at the origin,
    the lam side is lam_measure.  lam_cap bounds the lam at which the
    inverse at x = 0 reads g (see ``_measure_integral``)."""

    kernel: Callable
    x_atom: float
    lam_measure: AtomDensityMeasure
    lam_cap: float = np.inf


def _j0_outer(lams, xs):
    return classical.j0(np.multiply.outer(np.atleast_1d(lams), np.atleast_1d(xs)))


# the classical order-zero pair: kernel J0(lam x), weight x on both sides
_CLASSICAL = _Pair(_j0_outer, 0.0, lebesgue_x(), lam_cap=1000.0)


def _generalized_pair(params: Params) -> _Pair:
    """Kernel J_lam(x), the jump space's atom M/2 and the spectral measure."""
    return _Pair(lambda lams, xs: eval_jtype_outer(lams, xs, params),
                 params.M / 2.0, spectral_measure(params.M))


def _origin(pair: _Pair, f, f0):
    """(f(0), the x side's atom times f(0)); f is read at 0 only under
    an atom, so the classical pair takes profiles singular there."""
    if not pair.x_atom:
        return f0, 0.0
    f0 = float(f(0.0)) if f0 is None else float(f0)
    return f0, pair.x_atom * f0


class _PanelCache:
    """Composite Gauss-Legendre nodes on [0, x_cut], panel count a power
    of two sized to the oscillation frequency, with the profile weighted
    by x (the x-side density of every pair) pre-evaluated."""

    def __init__(self, f, x_cut):
        self.f = f
        self.x_cut = float(x_cut)
        self._grids = {}

    def grid(self, freq):
        # panels resolve both the kernel oscillation (2.5 rad per panel)
        # and the profile of f itself (panel width at most 0.75)
        per_panel = 2.5
        need = max(4, int(np.ceil(self.x_cut / 0.75)),
                   int(np.ceil(self.x_cut * max(freq, 1e-9) / per_panel)))
        npanels = 1 << int(np.ceil(np.log2(need)))
        if npanels not in self._grids:
            xg, wg = np.polynomial.legendre.leggauss(8)
            edges = np.linspace(0.0, self.x_cut, npanels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1] - edges[0])
            nodes = (mid[:, None] + half * xg[None, :]).ravel()
            wts = np.tile(half * wg, npanels)
            fx = np.asarray(self.f(nodes), dtype=float) * nodes
            self._grids[npanels] = (nodes, wts * fx)
        return self._grids[npanels]


def _forward_batch(cache: _PanelCache, lams, kernel, atom=0.0):
    """atom + integral over [0, x_cut] of x K(lam, x) f(x) dx for each lam.

    The lams are grouped by the panel grid they need; each group is one
    kernel matrix K(lam_i, x_j) times the weighted profile, formed in row
    chunks of at most _CHUNK_POINTS entries so memory stays flat.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    out = np.empty_like(lams)
    groups = {}
    for i, lam in enumerate(lams):
        nodes, wfx = cache.grid(lam)
        groups.setdefault(nodes.size, (nodes, wfx, []))[2].append(i)
    for nodes, wfx, idx in groups.values():
        idx = np.asarray(idx)
        rows = max(1, _CHUNK_POINTS // nodes.size)
        for start in range(0, idx.size, rows):
            sel = idx[start:start + rows]
            out[sel] = atom + kernel(lams[sel], nodes) @ wfx
    return out


def _forward(pair: _Pair, f, lams, f0, tol, x_cut) -> TransformResult:
    """The forward transform of f on lams (see ``generalized_forward``)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    f0, atom = _origin(pair, f, f0)
    diag = {"f0": f0}

    def truncated(X):
        return _forward_batch(_PanelCache(f, X), lams, pair.kernel, atom)

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
            vals = _forward_batch(self.panels, misses, self.pair.kernel, self.atom)
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
    variation.  The inner transform is a fixed Gauss grid over [0, x_cut]
    with frequency-sized panels; the outer integral is the shared inverse.
    The inverse's brackets follow the oscillation of g itself (see
    ``_ring``).
    """
    gev = _ForwardEvaluator(f, _CLASSICAL, x_cut=x_cut)
    ring = _ring(gev.panels, tol)
    return float(_inverse(_CLASSICAL, gev, x_point, tol, ring=ring).values[0])


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
    """inverse(forward(f)) evaluated at x_points (0 allowed)."""
    gev = _ForwardEvaluator(f, _generalized_pair(params), f0=f0, x_cut=x_cut)
    return generalized_inverse(gev, params, x_points, tol=tol)


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
    return float(out[0]) if np.ndim(lmb) == 0 and np.ndim(mu) == 0 else out


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

"""Classical and generalized Hankel transforms, and delta-family kernels.

The generalized pair maps the jump space (weight x plus the point mass
M/2 at 0) onto the spectral-side space with density
lam (1 + M (lam/2)^2)^(-2):

    forward:  g(lam) = (M/2) f(0) + integral x J_lam(x) f(x) dx
    inverse:  f(x)   = integral J_lam(x) g(lam) dn(lam),  f(0) = integral g dn

with J_lam the regular fourth-order solution normalized to 1 at the
origin.  The x-side integrals are conditionally convergent at best, so
they are evaluated bracket-by-bracket along the oscillation with
epsilon acceleration; for the decaying test suite the bracket train
terminates itself once the integrand dies.

Both forward transforms (kernel J0 for the classical pair, J_lam for the
generalized one) run as matrix-vector products on whole lam arrays: the
lams are grouped by the panel count of their Gauss grid, and each group
forms its kernel matrix K(lam_i, x_j) in row chunks of at most 2^16
entries, so one kernel call covers many lams while memory stays flat.

The truncated orthogonality kernels are evaluated in closed form through
the Green identity: the boundary term at 0 of two regular solutions
exactly cancels the M/2 atom, leaving

    kernel(lam, mu, X) = weight(lam) * [J_lam, J_mu](X) / (L(lam) - L(mu)),

an O(1) expression in kernel evaluations at X.  A quadrature route is
kept for cross-checks.
"""

from dataclasses import dataclass, field

import numpy as np

from . import classical
from .measures import inner_product, spectral_measure
from .quadrature import adaptive_quad, oscillatory_semi_infinite
from .solutions import (Params, SolutionHandle, SolutionKind, _deriv_polys,
                        eval_jtype_outer, eval_solution, spectral_value)


# entries per kernel-matrix chunk; the widest panel grid (x_cut 40 at the
# moment tail's lam <= 320) is 65536 nodes, one lam per chunk
_CHUNK_POINTS = 1 << 16


@dataclass
class TransformResult:
    grid: np.ndarray
    values: np.ndarray
    parseval_lhs: float = None
    parseval_rhs: float = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# vectorized-in-lambda evaluation of the regular solution

def jtype_eval_multi(lams, x, params: Params):
    """J_lam(x) for an array of lam at fixed x >= 0."""
    return eval_jtype_outer(lams, x, params)[:, 0]


def jtype_derivs_multi(lams, x, params: Params, order=3):
    """x-derivative stack of J_lam at fixed x, vectorized over lam.

    Valid on the direct-formula region (lam * x above the series switch);
    the delta-family kernels only call it with large X.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    z = lams * x
    if np.any(z < 0.5):
        raise ValueError("jtype_derivs_multi needs lam*x >= 0.5")
    mq = params.M * (lams / 2.0) ** 2
    A = 1.0 + mq
    B = -2.0 * mq
    u = classical.j0(z)
    v = classical.j1(z) / z
    (pu, qu), (pv, qv) = _deriv_polys(SolutionKind.jtype, order)

    def lau(poly, zz):
        acc = np.zeros_like(zz)
        for e, c in poly:
            acc = acc + c * zz ** e
        return acc

    rows = []
    for n in range(order + 1):
        pn = A * lau(pu[n], z) + B * lau(pv[n], z)
        qn = A * lau(qu[n], z) + B * lau(qv[n], z)
        rows.append(lams ** n * (pn * u + qn * v))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# classical Hankel transform (order zero)

def hankel_forward(f, s_grid, tol=1e-8) -> TransformResult:
    """g(s) = integral xi J0(s xi) f(xi) d xi on the grid (f decaying)."""
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    vals = np.empty_like(s_grid)
    diag = []
    for i, s in enumerate(s_grid):
        spacing = np.pi / max(s, 0.05)

        def integrand(xi):
            xi = np.asarray(xi, dtype=float)
            return xi * classical.j0(s * xi) * np.asarray(f(xi), dtype=float)

        r = oscillatory_semi_infinite(integrand, spacing, tol=tol)
        vals[i] = r.value
        diag.append({"s": float(s), "error": r.error, "converged": r.converged,
                     "brackets": r.brackets})
    return TransformResult(grid=s_grid, values=vals, diagnostics={"points": diag})


def hankel_parseval(f, s_max=60.0, tol=1e-7):
    """(integral x f^2 dx, integral s g^2 ds) for the classical transform."""
    lhs = adaptive_quad(lambda x: np.asarray(x) * np.asarray(f(x)) ** 2,
                        0.0, 60.0, tol=tol).value

    def g_sq(s_arr):
        s_arr = np.atleast_1d(np.asarray(s_arr, dtype=float))
        g = hankel_forward(f, s_arr, tol=tol).values
        return s_arr * g * g

    rhs = adaptive_quad(g_sq, 0.0, s_max, tol=100 * tol, max_panels=200).value
    return lhs, rhs


class _PanelCache:
    """Composite Gauss-Legendre nodes on [0, x_cut], panel count a power
    of two sized to the oscillation frequency, with f pre-evaluated."""

    def __init__(self, f, x_cut, weight_x=True):
        self.f = f
        self.x_cut = float(x_cut)
        self.weight_x = weight_x
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
            fv = np.asarray(self.f(nodes), dtype=float)
            if self.weight_x:
                fv = fv * nodes
            self._grids[npanels] = (nodes, wts * fv)
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


def hankel_roundtrip(f, x_point, char_scale=1.0, tol=1e-6, x_cut=36.0) -> float:
    """The iterated transform evaluated at x_point.

    Equals the mean of the one-sided limits of f at points of bounded
    variation.  The inner transform is a fixed Gauss grid over the decay
    length of f with frequency-sized panels; the outer integral is
    accelerated with brackets sized to the fastest beat frequency
    x_point + char_scale.
    """
    cache = _PanelCache(f, x_cut)

    def outer(s_arr):
        s_arr = np.atleast_1d(np.asarray(s_arr, dtype=float))
        g = _forward_batch(
            cache, s_arr, lambda s, xs: classical.j0(np.multiply.outer(s, xs)))
        return s_arr * classical.j0(x_point * s_arr) * g

    spacing = np.pi / (x_point + char_scale)
    r = oscillatory_semi_infinite(outer, spacing, tol=tol, max_brackets=220)
    return r.value


# ---------------------------------------------------------------------------
# generalized transform pair

def _generalized_batch(cache: _PanelCache, lams, params: Params, f0):
    """The generalized forward (M/2) f(0) + integral x J_lam f dx on lams."""
    return _forward_batch(cache, lams,
                          lambda l, xs: eval_jtype_outer(l, xs, params),
                          atom=params.M / 2.0 * f0)


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
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if f0 is None:
        f0 = float(f(0.0))
    diag = {"f0": f0}
    if x_cut is not None:
        vals = _generalized_batch(_PanelCache(f, x_cut), lambda_grid, params, f0)
        diag["x_cut"] = float(x_cut)
        return TransformResult(grid=lambda_grid, values=vals, diagnostics=diag)
    prev = None
    for X in (25.0, 50.0, 100.0, 200.0):
        vals = _generalized_batch(_PanelCache(f, X), lambda_grid, params, f0)
        if prev is not None:
            deltas = np.abs(vals - prev)
            change = float(np.max(deltas))
            if change < tol:
                diag.update({"x_cut": X, "change": change, "converged": True,
                             "points": [{"lam": float(l), "error": float(d)}
                                        for l, d in zip(lambda_grid, deltas)]})
                return TransformResult(grid=lambda_grid, values=vals,
                                       diagnostics=diag)
        prev = vals
    diag.update({"x_cut": 200.0, "converged": False})
    return TransformResult(grid=lambda_grid, values=prev, diagnostics=diag)


class _ForwardEvaluator:
    """Memoized g(lam) for use inside lambda-side quadratures."""

    def __init__(self, f, params, f0=None, x_cut=40.0):
        self.f = f
        self.params = params
        self.f0 = float(f(0.0)) if f0 is None else float(f0)
        self.cache = {}
        self.panels = _PanelCache(f, x_cut)

    def __call__(self, lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        keys = [float(lam) for lam in lams]
        misses = list(dict.fromkeys(k for k in keys if k not in self.cache))
        if misses:
            vals = _generalized_batch(self.panels, misses, self.params, self.f0)
            self.cache.update(zip(misses, vals.tolist()))
        return np.array([self.cache[k] for k in keys], dtype=float)


def generalized_inverse(g, params: Params, x_grid, tol=1e-6,
                        lam_tail_start=8.0) -> TransformResult:
    """The inverse transform on an x grid (0 allowed).

    f(0) is the plain spectral-measure integral of g; for x > 0 the
    lambda integrand oscillates with spacing ~pi/x under an O(lam^-3/2)
    envelope, integrated with the oscillatory accelerator after an
    adaptive head.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    n_measure = spectral_measure(params.M)
    vals = np.empty_like(x_grid)
    diag = []
    for i, x in enumerate(x_grid):
        if x == 0.0:
            one = lambda t: np.ones_like(np.asarray(t, dtype=float))
            vals[i] = inner_product(g, one, n_measure, tol=tol * 1e-2)
            diag.append({"x": 0.0, "mode": "measure-integral"})
            continue

        def integrand(lam):
            lam = np.asarray(lam, dtype=float)
            return jtype_eval_multi(lam, float(x), params) \
                * np.asarray(g(lam), dtype=float) * n_measure.density(lam)

        head = adaptive_quad(integrand, 0.0, lam_tail_start, tol=tol * 1e-2)
        r = oscillatory_semi_infinite(
            lambda lam: integrand(lam + lam_tail_start),
            np.pi / x, tol=tol, head_tol=tol * 1e-2)
        vals[i] = head.value + r.value
        diag.append({"x": float(x), "head_err": head.error, "tail_err": r.error,
                     "converged": head.converged and r.converged,
                     "brackets": r.brackets})
    return TransformResult(grid=x_grid, values=vals, diagnostics={"points": diag})


def generalized_parseval(f, params: Params, f0=None, tol=1e-6,
                         lam_max=60.0, x_cut=40.0):
    """(integral |g|^2 dn, (M/2)|f(0)|^2 + integral x |f|^2 dx)."""
    gev = _ForwardEvaluator(f, params, f0=f0, x_cut=x_cut)
    n_measure = spectral_measure(params.M)

    def gsq_density(lam):
        lam = np.asarray(lam, dtype=float)
        gv = gev(lam)
        return gv * gv * n_measure.density(lam)

    lhs = adaptive_quad(gsq_density, 0.0, lam_max, tol=tol, max_panels=400).value
    rhs_int = adaptive_quad(lambda x: np.asarray(x) * np.asarray(f(x)) ** 2,
                            0.0, 60.0, tol=tol * 1e-2).value
    rhs = params.M / 2.0 * gev.f0 ** 2 + rhs_int
    return lhs, rhs


def moment_identity_defect(f, params: Params, f0=None, tol=1e-6,
                           lam_max=80.0, x_cut=40.0):
    """| integral g dn - f(0) |: the transform's origin-recovery identity."""
    gev = _ForwardEvaluator(f, params, f0=f0, x_cut=x_cut)
    n_measure = spectral_measure(params.M)

    def g_density(lam):
        lam = np.asarray(lam, dtype=float)
        return gev(lam) * n_measure.density(lam)

    total = adaptive_quad(g_density, 0.0, lam_max, tol=tol, max_panels=400).value
    # the integrand falls off like lam^-4; close with the analytic-shape tail
    tail = adaptive_quad(g_density, lam_max, 4.0 * lam_max, tol=tol,
                         max_panels=200).value
    return abs(total + tail - gev.f0)


def generalized_roundtrip(f, params: Params, x_points, f0=None,
                          tol=1e-6, x_cut=40.0) -> TransformResult:
    """inverse(forward(f)) evaluated at x_points (0 allowed)."""
    gev = _ForwardEvaluator(f, params, f0=f0, x_cut=x_cut)
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
        return jtype_eval_multi(lam, eta, params) * n_measure.density(lam)

    head = adaptive_quad(integrand, 0.0, 6.0 / eta if eta < 3 else 4.0,
                         tol=tol * 0.1)
    start = 6.0 / eta if eta < 3 else 4.0
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


def _weight(lam, M):
    return lam / (1.0 + M * (lam / 2.0) ** 2) ** 2


def ortho_kernel_generalized(lmb, mu, params: Params, X, method="closed"):
    """weight(lam) * { integral_0^X x J_lam J_mu dx + (M/2) J_lam(0) J_mu(0) }.

    The closed route uses the Green identity: the truncated integral is
    [J_lam, J_mu](X)/(L(lam)-L(mu)) minus the boundary term at 0, and the
    0-term is exactly -(M/2)(L(lam)-L(mu)), cancelling the atom.
    """
    M = params.M
    if method == "quad":
        hl = SolutionHandle(SolutionKind.jtype, float(lmb), params)
        hm = SolutionHandle(SolutionKind.jtype, float(mu), params)
        val = adaptive_quad(
            lambda x: np.asarray(x) * eval_solution(hl, np.asarray(x))
            * eval_solution(hm, np.asarray(x)), 0.0, X, tol=1e-10,
            max_panels=20000).value
        return _weight(lmb, M) * (val + M / 2.0)
    mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
    dl = jtype_derivs_multi(np.full_like(mu_arr, lmb), X, params, order=3)
    dm = jtype_derivs_multi(mu_arr, X, params, order=3)
    w = 9.0 / X + 8.0 * X / M
    sym = (dm[0] * (X * dl[3] + dl[2]) - (X * dm[3] + dm[2]) * dl[0]
           - X * (dm[1] * dl[2] - dm[2] * dl[1])
           - w * (dm[0] * dl[1] - dm[1] * dl[0]))
    dL = spectral_value(lmb, params) - np.array(
        [spectral_value(m, params) for m in mu_arr])
    out = _weight(lmb, M) * sym / dL
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

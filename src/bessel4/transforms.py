"""Classical and generalized Hankel transforms, and delta-family kernels.

The generalized pair maps the jump space (weight x plus the point mass
M/2 at 0) onto the spectral-side space with density
lam (1 + M (lam/2)^2)^(-2):

    forward:  g(lam) = (M/2) f(0) + integral x J_lam(x) f(x) dx
    inverse:  f(x)   = integral J_lam(x) g(lam) dn(lam),  f(0) = integral g dn

with J_lam the regular fourth-order solution normalized to 1 at the
origin, from the one jtype evaluator of ``solutions`` (its power series
below lam x = 4).  The classical order-zero pair is the member with kernel
J0(lam x), weight x on both sides and no atom, so one engine runs both
pairs, each given by its kernel and the measures of its two sides.

The forward integral over [0, X] (X escalating through 25, 50, 100, 200,
or fixed) runs on whole lam arrays, each lam on one of two grids:

* a composite Gauss grid on [0, X] with panels sized to lam (2.5 rad
  each), bisected where x f is not resolved (at a jump of f);
* for lam in the octave [2^k, 2^(k+1)), a Gauss head on [0, 8/2^k] and
  Filon panels beyond it, where lam x >= 8 and K = A J0(lam x) +
  B J1(lam x)/(lam x) is Re[exp(i lam x) a(x)] with a slowly varying
  amplitude a built from the modulus-phase P0, Q0, P1, Q1 (A = 1, B = 0
  for the classical pair).  Each panel fits x f a at 16 Gauss nodes by a
  Legendre series and integrates it against exp(i lam x) exactly.  The
  panels are sized to f alone: two equal panels in each octave of x,
  bisected where f is not resolved, so every half-width is a power of
  two and one panel set serves every octave of lam.  Their count grows
  only like log(lam).  P and x Q are polynomials in 128/(lam x)^2, so
  x f a = sum over n = 0..26 of C_n(lam) x^(1/2 - n) f(x): the panel set
  holds, built once with it, the Legendre coefficients of the 27
  functions x^(1/2 - n) f, and a lam's fit on a panel is its 27
  coefficients C_n contracted with them.  That is the same degree-15
  interpolant, summed in another order, with no kernel call per node.

A lam takes its head and the Filon panels when the head alone has fewer
nodes than the Gauss grid, so at X = 40 for lam >= 1/2: 64 kernel nodes
and 23 Filon panels at lam = 320 against 65536 kernel nodes.  The lams go
in row chunks of about 2^16 nodes, a Filon panel counted as its 16;
each chunk makes one kernel call on the (lam, node) pairs of its Gauss
grids and heads and one Filon pass.  Against the closed forms of exp(-x)
and exp(-x^2) at X = 40, on 60 lams log-spaced in [8, 320], the forward
is within 1.2e-13 (generalized pair, M <= 2) and 4.5e-17 (classical)
absolute, the Gauss grid's level.  The inverse is an adaptive head on
lam in [0, 8] plus brackets of spacing pi/x summed with epsilon
acceleration; at x = 0 it is the lam-measure integral of g.  The
integrals of every x of a grid, x = 0 included, run in lockstep (one
call of g per round).  When g oscillates on its own (f ends sharply at
some E), the brackets follow the beat x + E, at x = 0 too.

Every node of a lam-side integral costs a forward, so the ones that
start at lam = 0 (the inverse's head and its x = 0 core on [0, 10],
Parseval's lam side, the moment identity's body) start on the graded
edges 0, b/2^K, ..., b/2, b of ``measures._graded_edges``: the dyadic
partition toward 0, where the spectral measure has its knee
lam = 2/sqrt(M), that bisecting [0, b] ends on.  Their first round is
then one forward call, and no nodes go to parent panels that a
bisection would discard.

The truncated orthogonality kernels are evaluated in closed form through
the Green identity: the boundary term at 0 of two regular solutions
exactly cancels the M/2 atom, leaving

    kernel(lam, mu, X) = weight(lam) * [J_lam, J_mu](X) / (L(lam) - L(mu)),

an O(1) expression in derivatives 0-3 of J_lam and J_mu at X, at any
lam X.  On and near the diagonal mu == lam they take their limit, which
for the generalized kernel reads d/dlam J_lam.  A quadrature route is
kept for cross-checks.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import classical
from .equation import boundary_form
from .measures import (AtomDensityMeasure, _graded_edges, _split_steps,
                       _split_total, _split_values, lebesgue_x,
                       spectral_measure)
from .quadrature import (_MAX_PANELS, ConvergenceError, _adaptive_steps,
                         _gauss, _lockstep, _oscillatory_steps, _single,
                         adaptive_quad, oscillatory_semi_infinite)
from .solutions import (_REGULAR_SWITCH, Params, SolutionHandle, SolutionKind,
                        _direct_derivs_scaled, _solution_derivs,
                        _spectral_slope, _structure, eval_jtype_outer,
                        eval_solution, spectral_value)


# grid nodes (kernel and Filon) per row chunk of lams: a lam whose nodes
# start past a multiple of this starts a new chunk
_CHUNK_POINTS = 1 << 16


@dataclass
class TransformResult:
    grid: np.ndarray
    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the pair engine

@dataclass(frozen=True)
class _Pair:
    """A Hankel-type pair: kernel(lams, xs) with lams broadcast against
    xs, equal to 1 at x = 0 and equal to A J0(lam x) + B J1(lam x)/(lam x)
    with (A, B) = coeffs(lams) where lam x >= 8; the x side is weight x
    plus an atom x_atom at the origin, the lam side is lam_measure.
    lam_cap bounds the lam at which the inverse at x = 0 reads g (see
    ``_inverse``)."""

    kernel: Callable
    coeffs: Callable
    x_atom: float
    lam_measure: AtomDensityMeasure
    lam_cap: float = np.inf


# the classical order-zero pair: kernel J0(lam x), weight x on both sides
_CLASSICAL = _Pair(lambda lams, xs: classical.j0(np.multiply(lams, xs)),
                   lambda lams: (np.ones_like(lams), np.zeros_like(lams)),
                   0.0, lebesgue_x(), lam_cap=1000.0)


def _generalized_pair(params: Params) -> _Pair:
    """Kernel J_lam(x), the jump space's atom M/2 and the spectral measure."""
    return _Pair(lambda lams, xs: eval_jtype_outer(lams, xs, params),
                 lambda lams: _structure(SolutionKind.jtype, lams, params)[1:],
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

# Filon panels hold 16 Gauss-Legendre nodes each.  Two equal panels cover
# each octave [2^j, 2^(j+1)) of x, the last one clipped at x_cut, so every
# half-width is a power of two, one panel set serves every octave of lam,
# and every panel's centre lies at least 5 half-widths from the origin,
# where the amplitude's sqrt(x) and the 1/x^2 of P and Q are singular.
# Panels where the fit of x f misses _FILON_FIT_TOL are bisected down to
# _FILON_MIN_HALF (see ``_fit_panels``).
_FILON_FIT_TOL = 1e-14
_FILON_MIN_HALF = 1e-6
_FILON_T, _FILON_W = _gauss(16)
# _FILON_FIT[k, j] = (k + 1/2) w_j P_k(t_j): the Legendre coefficients of
# the degree-15 interpolant are _FILON_FIT @ (values at the nodes)
_FILON_FIT = (np.arange(16)[:, None] + 0.5) * _FILON_W \
    * np.polynomial.legendre.legvander(_FILON_T, 15).T
_TWO_I_POW = np.array([2.0, 2.0j, -2.0, -2.0j] * 4)

# The Filon bracket as a series in 1/z.  With s = 128/z^2 and p0, q0, p1,
# q1 the coefficients in s of P0, z Q0, P1, z Q1 (classical's _MONO
# tables), A J0(z) + B J1(z)/z = Re[exp(i (z - pi/4)) a(z)] for z >= 8 with
#
#     a(z) sqrt(z) / sqrt(2/pi) = sum over n = 0..26 of gamma_n z^-n,
#
# gamma_2m = A p0_m 128^m + B q1_(m-1) 128^(m-1) (real) and gamma_(2m+1) =
# i (A q0_m - B p1_m) 128^m.  Rows 0 and 1 of _GAMMA_EVEN[:, m] and
# _GAMMA_ODD[:, m] are the A and B parts of gamma_2m and gamma_(2m+1)/i;
# the tables are scaled by powers of two only, so they are exact.
_POW128 = 128.0 ** np.arange(13)
_GAMMA_EVEN = np.array([np.append(_POW128 * classical._P0_MONO, 0.0),
                        np.insert(_POW128 * classical._XQ1_MONO, 0, 0.0)])
_GAMMA_ODD = np.array([_POW128 * classical._XQ0_MONO,
                       -_POW128 * classical._P1_MONO])
# x f(x) a(lam x) = sqrt(2/pi) sum_n gamma_n lam^-(n + 1/2) x^(1/2 - n) f(x)
_AMP_POWERS = np.arange(_GAMMA_EVEN.shape[1] + _GAMMA_ODD.shape[1]) + 0.5


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
    """Gauss panels on [0, x_cut] for each kernel frequency in freq, a
    power of two: they resolve both the kernel oscillation (2.5 rad per
    panel) and the profile of f itself (panel width at most 0.75)."""
    need = np.maximum(np.maximum(4.0, np.ceil(x_cut / 0.75)),
                      np.ceil(x_cut * np.maximum(freq, 1e-9) / 2.5))
    # 2^bit_length(need - 1), the power of two at or above need
    return np.ldexp(1.0, np.frexp(need - 1.0)[1]).astype(int)


def _gauss_panels(f, x_end, npanels, scale):
    """Composite 8-point Gauss-Legendre nodes on [0, x_end] and their
    weights times x f(x): npanels equal panels, bisected where x f is not
    resolved relative to scale, as the Filon panels are (see
    ``_fit_panels``), so that no panel straddles a jump of f."""
    xg, wg = _gauss(8)
    mid, half, _, _ = _fit_panels(f, np.linspace(0.0, x_end, npanels + 1), scale)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    fx = np.asarray(f(nodes), dtype=float) * nodes
    return nodes, (half[:, None] * wg[None, :]).ravel() * fx


def _filon_edges(x0, x_end):
    """Filon panel edges on [x0, x_end], x0 a power of two: two equal
    panels per octave of x, the last one clipped at x_end."""
    octaves = np.ldexp(x0, np.arange(math.ceil(math.log2(x_end / x0))))
    edges = np.ravel([octaves, 1.5 * octaves], order="F")
    return np.append(edges[edges < x_end], x_end)


def _fit_panels(f, edges, scale):
    """(centres, half-widths, nodes, x f at the 16 nodes) of the panels
    between edges, sorted by position, bisected until the
    degree-15 interpolant of x f on each has its last two Legendre
    coefficients below _FILON_FIT_TOL of scale (where f has a kink or
    ends, as at the edge of a compact support), down to _FILON_MIN_HALF."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    done = []
    while mid.size:
        x = mid[:, None] + half[:, None] * _FILON_T
        xf = x * np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        tail = np.max(np.abs(xf @ _FILON_FIT[-2:].T), axis=1)
        split = (tail > _FILON_FIT_TOL * scale) & (half > _FILON_MIN_HALF)
        done.append((mid[~split], half[~split], x[~split], xf[~split]))
        mid = np.concatenate([mid[split] - 0.5 * half[split],
                              mid[split] + 0.5 * half[split]])
        half = np.tile(0.5 * half[split], 2)
    mid, half, x, xf = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(mid)
    return mid[order], half[order], x[order], xf[order]


def _legendre_table(x, xf):
    """L[n, p, k]: the k-th Legendre coefficient, on panel p, of the
    degree-15 interpolant at its nodes x of x^(1/2 - n) f(x), n = 0..26,
    given x f at the nodes.  einsum sums every element in one fixed order,
    so a panel's coefficients do not depend on the other panels."""
    return np.einsum("npj,kj->npk", xf * x ** -_AMP_POWERS[:, None, None],
                     _FILON_FIT)


@dataclass(frozen=True)
class _FilonPanels:
    """Filon panels on [lo, x_cut], sorted by position; a lam in the
    octave [2^k, 2^(k+1)) takes those past 8/2^k."""

    lo: float
    mid: np.ndarray       # panel centres
    half: np.ndarray      # panel half-widths
    legendre: np.ndarray  # (27, panels, 16): ``_legendre_table``
    widths: np.ndarray    # the distinct half-widths ...
    which: np.ndarray     # ... and which one each panel has


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's product,
    with Veltkamp's split of each factor into 26 + 27 bits)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _split(a):
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _runs(first, count):
    """(where each run starts, the runs first[i] .. first[i] + count[i] - 1
    laid end to end), for gathering a ragged set of rows in one pass."""
    start = np.cumsum(count) - count
    return start, np.arange(count.sum()) + np.repeat(first - start, count)


def _amplitude_coeffs(lams, A, B):
    """(C_n(lam) for even n, C_n(lam)/i for odd n), shapes (lams, 14) and
    (lams, 13): C_n = sqrt(2/pi) gamma_n lam^-(n + 1/2), the coefficient
    of x^(1/2 - n) f(x) in x f(x) a(lam x) (see _GAMMA_EVEN)."""
    scale = np.sqrt(2.0 / np.pi) * lams[:, None] ** -_AMP_POWERS
    A, B = A[:, None], B[:, None]
    return ((A * _GAMMA_EVEN[0] + B * _GAMMA_EVEN[1]) * scale[:, 0::2],
            (A * _GAMMA_ODD[0] + B * _GAMMA_ODD[1]) * scale[:, 1::2])


def _filon_sum(panels: _FilonPanels, lams, count, A, B):
    """integral over the last count[i] Filon panels of
    x f(x) [A J0(lam x) + B J1(lam x)/(lam x)] dx for each lam, in one
    call for every (lam, panel) pair.

    With z = lam x >= 8 the bracket is Re[exp(i (lam x - pi/4)) a(z)],
    where a varies slowly, and x f a = sum_n C_n(lam) x^(1/2 - n) f(x)
    (see _GAMMA_EVEN).  On each panel x f a is replaced by its degree-15
    interpolant at the Gauss nodes, a Legendre series, whose coefficients
    are the 27 C_n(lam) contracted with the panels' table of the
    x^(1/2 - n) f (``_legendre_table``, built with the panels), and the
    series is integrated against exp(i lam x) exactly
    (``_legendre_moments``, once per distinct lam times half-width).  The
    lams of one octave read the same panels and contract in one einsum,
    which sums every element in one fixed order: BLAS would make a lam's
    value depend on its batch.
    """
    npanels = panels.mid.size
    start, col = _runs(npanels - count, count)
    row = np.repeat(np.arange(lams.size), count)
    even, odd = _amplitude_coeffs(lams, A, B)
    # series[pair, k]: the k-th Legendre coefficient of x f a on the pair's
    # panel
    series = np.empty((col.size, _FILON_T.size), dtype=complex)
    for c in np.unique(count):
        rows = np.flatnonzero(count == c)
        at = (start[rows, None] + np.arange(c)).ravel()
        table = panels.legendre[:, npanels - c:]
        for part, coeffs, terms in ((series.real, even, table[0::2]),
                                    (series.imag, odd, table[1::2])):
            part[at] = np.einsum("rn,npk->rpk", coeffs[rows],
                                 terms).reshape(at.size, -1)
    width = panels.which[col]
    pairs, pair_of = np.unique(row * panels.widths.size + width,
                               return_inverse=True)
    moments = _legendre_moments(lams[pairs // panels.widths.size]
                                * panels.widths[pairs % panels.widths.size])
    # the temporary on the left: numpy multiplies a large temporary in
    # place, and on the right it would swap the factors, which a complex
    # product with FMA rounds differently, so a lam's value would depend
    # on the size of its batch
    vals = np.sum(moments[pair_of] * series, axis=-1)
    lam = lams[row]
    # lam c rounds by up to an ulp of itself (1e-12 at lam c ~ 1e4); its
    # rounding error e enters as exp(i (p + e)) = exp(i p) (1 + i e)
    p, e = _two_product(lam, panels.mid[col])
    phase = np.exp(1j * p) * (1.0 + 1j * e)
    total = np.add.reduceat(panels.half[col] * phase * vals, start)
    return (total * np.exp(-0.25j * np.pi)).real


class _PanelCache:
    """The forward grids on [0, x_cut] with the profile weighted by x (the
    x-side density of every pair) pre-evaluated: composite Gauss-Legendre
    grids whose panel count, a power of two, is sized to the kernel's
    frequency; for the octave [2^k, 2^(k+1)) of lam a Gauss head on
    [0, 8/2^k]; and one set of Filon panels, grown down by octaves of x
    as the lams asked for grow."""

    def __init__(self, f, x_cut):
        self.f = f
        self.x_cut = float(x_cut)
        self._grids = {}
        self._heads = {}
        self._filon = None
        # (nodes, |x f|) on the coarsest Gauss grid, before any bisection;
        # every panel is bisected relative to the largest |x f| there, so a
        # panel does not depend on the lams asked for
        nodes, _ = _gauss_panels(f, self.x_cut, int(_panel_count(self.x_cut, 0.0)),
                                 np.inf)
        self.coarse = nodes, np.abs(nodes * np.asarray(f(nodes), dtype=float))
        self.scale = np.max(self.coarse[1], initial=0.0)

    def grid(self, freq):
        npanels = int(_panel_count(self.x_cut, freq))
        if npanels not in self._grids:
            self._grids[npanels] = _gauss_panels(self.f, self.x_cut, npanels,
                                                 self.scale)
        return self._grids[npanels]

    def head(self, level):
        """The Gauss head of lam's octave [2^level, 2^(level+1)), on
        [0, 8/2^level] and sized for the top of the octave."""
        if level not in self._heads:
            x0 = math.ldexp(classical._OSC_PLAIN, -level)
            self._heads[level] = _gauss_panels(
                self.f, x0, int(_panel_count(x0, math.ldexp(2.0, level))),
                self.scale)
        return self._heads[level]

    def filon(self, x0):
        """The Filon panels, covering [x0, x_cut] at least (x0 a power of
        two below x_cut)."""
        old = self._filon
        lo = self.x_cut if old is None else old.lo
        if x0 < lo:
            mid, half, x, xf = _fit_panels(self.f, _filon_edges(x0, lo),
                                           self.scale)
            # the new panels lie below the old ones; the old keep their rows
            table = _legendre_table(x, xf)
            if old is not None:
                mid = np.concatenate([mid, old.mid])
                half = np.concatenate([half, old.half])
                table = np.concatenate([table, old.legendre], axis=1)
            widths, which = np.unique(half, return_inverse=True)
            self._filon = _FilonPanels(x0, mid, half, table, widths, which)
        return self._filon


def _routes(cache: _PanelCache, lams):
    """The grid of each lam: (the Gauss grids and heads, which one each
    lam reads through the kernel, how many Filon panels it adds, the
    Filon panels).

    A lam in the octave [2^k, 2^(k+1)) takes the head of its octave and
    the Filon panels past 8/2^k when the head alone has fewer nodes than
    its Gauss grid, else the Gauss grid and no Filon panel: a Filon panel
    costs a lam no kernel call, only its share of one contraction.
    """
    npanels = _panel_count(cache.x_cut, lams)
    level = np.frexp(lams)[1] - 1
    x0 = np.ldexp(classical._OSC_PLAIN, -level)
    filon = (lams > 0.0) & (x0 < cache.x_cut)
    grids, key = [], np.zeros(lams.size, dtype=int)
    count = np.zeros(lams.size, dtype=int)
    panels = None
    if np.any(filon):
        panels = cache.filon(np.min(x0[filon]))
        count[filon] = panels.mid.size - np.searchsorted(panels.mid, x0[filon])
        levels, key[filon] = np.unique(level[filon], return_inverse=True)
        grids = [cache.head(int(k)) for k in levels]
        head = np.array([nodes.size for nodes, _ in grids])[key]
        filon &= head < 8 * npanels
        count[~filon] = 0
    gauss = np.flatnonzero(~filon)
    _, first, which = np.unique(npanels[gauss], return_index=True,
                                return_inverse=True)
    key[gauss] = len(grids) + which
    grids += [cache.grid(lam) for lam in lams[gauss[first]]]
    return grids, key, count, panels


def _forward_batch(cache: _PanelCache, lams, pair: _Pair, atom=0.0):
    """atom + integral over [0, x_cut] of x K(lam, x) f(x) dx for each lam.

    Each lam takes a Gauss grid, or a Gauss head and Filon panels (see
    ``_routes``).  The lams go in row chunks of about _CHUNK_POINTS nodes,
    so memory stays flat; each chunk makes one kernel call on every
    (lam, node) pair of its Gauss grids and heads, summed per lam, and one
    ``_filon_sum`` pass over its Filon panels.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda must be finite")
    out = np.empty_like(lams)
    if lams.size == 0:
        return out
    grids, key, count, panels = _routes(cache, lams)
    sizes = np.array([nodes.size for nodes, _ in grids])
    offset = np.cumsum(sizes) - sizes
    nodes = np.concatenate([nodes for nodes, _ in grids])
    wfx = np.concatenate([w for _, w in grids])
    size = sizes[key]
    total = size + _FILON_T.size * count
    chunk = (np.cumsum(total) - total) // _CHUNK_POINTS
    for rows in np.split(np.arange(lams.size),
                         np.flatnonzero(np.diff(chunk)) + 1):
        start, idx = _runs(offset[key[rows]], size[rows])
        k = pair.kernel(np.repeat(lams[rows], size[rows]), nodes[idx])
        out[rows] = atom + np.add.reduceat(k * wfx[idx], start)
        rows = rows[count[rows] > 0]
        if rows.size:
            out[rows] += _filon_sum(panels, lams[rows], count[rows],
                                    *pair.coeffs(lams[rows]))
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
    """g(lam) of one pair for use inside lambda-side quadratures."""

    def __init__(self, f, pair: _Pair, f0=None, x_cut=40.0):
        self.pair = pair
        self.f0, self.atom = _origin(pair, f, f0)
        self.panels = _PanelCache(f, x_cut)

    def __call__(self, lams):
        return _forward_batch(self.panels, lams, self.pair, self.atom)


def _ring(panels: _PanelCache, tol):
    """The frequency at which the forward g oscillates on its own.

    That is the end E of the support of f in [0, x_cut] (Paley-Wiener):
    the point where f turns to 0 for good, bisected down to adjacent
    doubles between the last node of the coarsest panel grid with a nonzero
    value and the next node, or x_cut.  It counts only if f ends there
    sharply, with x |f| above tol within one panel below E; 0 otherwise
    (f has decayed).
    """
    nodes, xf = panels.coarse
    live = np.flatnonzero(xf)
    if live.size == 0:
        return 0.0
    end = panels.x_cut
    if live[-1] + 1 < nodes.size:
        lo, end = nodes[live[-1]], nodes[live[-1] + 1]
        mid = 0.5 * (lo + end)
        while lo < mid < end:
            if np.asarray(panels.f(np.array([mid])), dtype=float)[0] != 0.0:
                lo = mid
            else:
                end = mid
            mid = 0.5 * (lo + end)
    width = 8.0 * panels.x_cut / nodes.size
    return float(end) if xf[nodes > end - width].max() > tol else 0.0


# where the inverse's adaptive head on lam ends and its brackets begin
_LAM_TAIL_START = 8.0


def _inverse(pair: _Pair, g, x_grid, tol, ring=0.0) -> TransformResult:
    """The inverse transform of g on the 1-d array x_grid (see
    ``generalized_inverse``).

    Each x > 0 takes two lam integrals, an adaptive head on
    [0, _LAM_TAIL_START], from its graded edges, and a bracket train
    beyond it.  x = 0 takes the two integrals of g over the lam measure
    that ``inner_product`` runs, on [0, 10] and in u = 1/lam beyond (the
    lam measures have no atom).
    The integrals of every x run in lockstep: one call of g per round on
    the lams of all of them.  Each integral converges on its own, so the
    values are those of one x at a time, bit for bit.

    The classical density lam grows, so the u = 1/lam map would scale the
    forward's rounding by lam^3 and read g at ever larger lam; there g is
    read up to lam_cap and continued beyond it like lam^-3, the decay of
    the transform of every smooth profile.  ``ring`` is the frequency at
    which g oscillates on its own (see ``_ring``); the brackets then
    resolve the fastest beat x + ring, and x = 0 runs on brackets too,
    since the measure integral's tail closure fails on an oscillating g.
    """
    density, cap = pair.lam_measure.density, pair.lam_cap
    origin = (x_grid == 0.0) & (ring == 0.0)
    # per integral: its x, the shift of its nodes, and whether its nodes u
    # stand for lam = 1/u; integrals 2j and 2j + 1 belong to x_grid[j]
    steps, shift, tail = [], [], []
    for x, at_origin in zip(x_grid, origin):
        if at_origin:
            steps += _split_steps(tol * 1e-2)
            shift += [0.0, 0.0]
            tail += [False, True]
        else:
            steps += [_adaptive_steps(_graded_edges(_LAM_TAIL_START),
                                      tol * 1e-2, _MAX_PANELS),
                      _oscillatory_steps(np.pi / (x + ring), tol,
                                         head_tol=tol * 1e-2)]
            shift += [0.0, _LAM_TAIL_START]
            tail += [False, False]
    xs, shift, tail = np.repeat(x_grid, 2), np.array(shift), np.array(tail)

    def integrand(nodes, which):
        x, on_tail = xs[which], tail[which]

        def body(lam):
            lam = lam + shift[which]
            big = on_tail & (lam > cap)
            gv = np.asarray(g(np.where(big, cap, lam)), dtype=float)
            gv = np.where(big, gv * (cap / lam) ** 3, gv)
            kern = np.ones_like(lam)  # the kernel is 1 at x = 0
            live = x > 0.0
            kern[live] = pair.kernel(lam[live], x[live])
            return kern * gv * density(lam)

        return _split_values(body, nodes, on_tail)

    results = _lockstep(integrand, steps)
    vals = np.empty_like(x_grid)
    diag = []
    for i, (first, second) in enumerate(zip(results[::2], results[1::2])):
        if origin[i]:
            vals[i] = _split_total(first, second, pair.lam_measure.label,
                                   tol * 1e-2)
            diag.append({"x": 0.0, "mode": "measure-integral"})
            continue
        vals[i] = first.value + second.value
        diag.append({"x": float(x_grid[i]), "head_err": first.error,
                     "tail_err": second.error,
                     "converged": first.converged and second.converged,
                     "brackets": second.brackets})
    return TransformResult(grid=x_grid, values=vals, diagnostics={"points": diag})


def _x_points(x, name):
    """x as a 1-d array, or ValueError naming it if an x < 0 or is not finite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError(f"{name} must be finite and nonnegative")
    return x


def _roundtrip(pair: _Pair, f, x_points, f0, tol, x_cut) -> TransformResult:
    """The inverse of the forward of f (truncated at x_cut) on x_points.
    The inverse's brackets follow the oscillation of g itself (see
    ``_ring``)."""
    gev = _ForwardEvaluator(f, pair, f0=f0, x_cut=x_cut)
    return _inverse(pair, gev, x_points, tol, ring=_ring(gev.panels, tol))


def _parseval(pair: _Pair, f, f0, tol, lam_max, x_cut):
    """(integral of |g|^2 over the lam measure up to lam_max, the x-side
    atom times f(0)^2 plus integral x |f|^2 dx up to x = 60).  The lam
    side starts on the graded edges of [0, lam_max]; ConvergenceError
    when it misses tol or the x side misses tol/100."""
    gev = _ForwardEvaluator(f, pair, f0=f0, x_cut=x_cut)
    density = pair.lam_measure.density

    def gsq_density(lam):
        lam = np.asarray(lam, dtype=float)
        gv = gev(lam)
        return gv * gv * density(lam)

    lam_side = _single(gsq_density, _adaptive_steps(
        _graded_edges(lam_max), tol, 400)).checked("Parseval's lam side", tol)
    x_side = adaptive_quad(lambda x: np.asarray(x) * np.asarray(f(x)) ** 2,
                           0.0, 60.0, tol=tol * 1e-2)
    value = x_side.value
    if pair.x_atom:
        value = pair.x_atom * gev.f0 ** 2 + value
    if not x_side.converged:
        raise ConvergenceError(
            f"Parseval's x side did not reach tol={tol * 1e-2}",
            best=value, error=x_side.error)
    return lam_side, value


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
    with g computed from f truncated at x = 40; raises ConvergenceError
    when either side misses its tolerance (see ``_parseval``)."""
    s_side, x_side = _parseval(_CLASSICAL, f, None, tol, s_max, x_cut=40.0)
    return x_side, s_side


def hankel_roundtrip(f, x_point, *, tol=1e-6, x_cut=36.0) -> float:
    """The iterated transform evaluated at x_point (0 allowed; ValueError
    on a negative or non-finite x).

    Equals the mean of the one-sided limits of f at points of bounded
    variation.  The inner transform is truncated at x_cut; the outer
    integral is the shared inverse (see ``_roundtrip``).
    """
    r = _roundtrip(_CLASSICAL, f, _x_points(x_point, "x_point"), None, tol, x_cut)
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


def generalized_inverse(g, params: Params, x_grid, tol=1e-6) -> TransformResult:
    """The inverse transform on an x grid (0 allowed; ValueError on a
    negative or non-finite x).

    f(0) is the plain spectral-measure integral of g; for x > 0 the
    lambda integrand oscillates with spacing ~pi/x under an O(lam^-3/2)
    envelope, integrated with the oscillatory accelerator after an
    adaptive head on [0, 8].  The integrals of all x > 0 run
    in lockstep, so g is called once per round on the lambdas of every x:
    a grid costs as many calls of g as its slowest x alone, and each value
    equals that of a one-x call bit for bit.
    """
    return _inverse(_generalized_pair(params), g, _x_points(x_grid, "x_grid"),
                    tol)


def generalized_parseval(f, params: Params, f0=None, tol=1e-6,
                         lam_max=60.0, x_cut=40.0):
    """(integral |g|^2 dn, (M/2)|f(0)|^2 + integral x |f|^2 dx); raises
    ConvergenceError when either side misses its tolerance (see
    ``_parseval``)."""
    return _parseval(_generalized_pair(params), f, f0, tol, lam_max, x_cut)


def moment_identity_defect(f, params: Params, f0=None, tol=1e-6,
                           lam_max=80.0, x_cut=40.0):
    """| integral g dn - f(0) |: the transform's origin-recovery identity.

    The body on [0, lam_max] starts on its graded edges; raises
    ConvergenceError when the body or the tail misses tol."""
    gev = _ForwardEvaluator(f, _generalized_pair(params), f0=f0, x_cut=x_cut)
    density = gev.pair.lam_measure.density

    def g_density(lam):
        lam = np.asarray(lam, dtype=float)
        return gev(lam) * density(lam)

    # the integrand falls off like lam^-4; close with the analytic-shape
    # tail, in lockstep with the body
    total, tail = _lockstep(lambda lam, which: g_density(lam),
                            [_adaptive_steps(_graded_edges(lam_max), tol, 400),
                             _adaptive_steps([lam_max, 4.0 * lam_max], tol,
                                             200)])
    defect = abs(total.value + tail.value - gev.f0)
    if not (total.converged and tail.converged):
        raise ConvergenceError(
            f"the moment identity's lam integrals did not reach tol={tol}",
            best=defect, error=total.error + tail.error)
    return defect


def generalized_roundtrip(f, params: Params, x_points, f0=None,
                          tol=1e-6, x_cut=40.0) -> TransformResult:
    """inverse(forward(f)) evaluated at x_points (0 allowed; ValueError on
    a negative or non-finite x), with the inverse's brackets following the
    oscillation of g itself (see ``_roundtrip``)."""
    return _roundtrip(_generalized_pair(params), f,
                      _x_points(x_points, "x_points"), f0, tol, x_cut)


# ---------------------------------------------------------------------------
# vanishing moment and delta-family kernels

def vanishing_moment(eta: float, params: Params, tol=1e-7) -> float:
    """integral of J_lam(eta) over the spectral measure; ~0 for eta > 0.

    The integrand decays only like lam^(-3/2) with oscillation spacing
    pi/eta, so the bracket accelerator does the tail; a plain tail
    substitution cannot see the cancellation.  Raises ConvergenceError
    when the head misses tol/10 or the tail misses tol.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive (the total mass 2/M is the "
                         "eta -> 0 limit, not 0)")
    n_measure = spectral_measure(params.M)

    def integrand(lam):
        lam = np.asarray(lam, dtype=float)
        return eval_jtype_outer(lam, eta, params) * n_measure.density(lam)

    start = 6.0 / eta if eta < 3 else 4.0
    head = adaptive_quad(integrand, 0.0, start, tol=tol * 0.1)
    r = oscillatory_semi_infinite(lambda lam: integrand(lam + start),
                                  np.pi / eta, tol=tol)
    if not (head.converged and r.converged):
        raise ConvergenceError(f"vanishing_moment missed tol={tol}",
                               best=head.value + r.value, error=head.error + r.error)
    return head.value + r.value


def _classical_side(lam, X):
    """(J0(lam X), J1(lam X)): what the classical delta kernel reads at
    one of its two spectral points."""
    z = np.multiply(lam, X)
    return classical.j0(z), classical.j1(z)


# Within this relative distance of the diagonal mu == lam, the delta
# kernels take their value on it: the closed forms divide a difference
# that cancels like |mu - lam| by another, and at a relative distance d
# err by about 1e-16/d, while the diagonal value errs by about d.  At
# d = 1e-8 both err by at most 2e-8.
_NEAR_DIAGONAL = 1e-8


def _near_diagonal(lam, mu):
    return np.abs(mu - lam) <= _NEAR_DIAGONAL * lam


def _classical_kernel(lam, side, mu, X):
    """The closed form of ``ortho_kernel_classical`` at the arrays lam and
    mu, with lam's ``_classical_side`` given; near mu == lam (see
    ``_NEAR_DIAGONAL``), its limit lam X^2/2 (J0(lam X)^2 + J1(lam X)^2)."""
    jl0, jl1 = side
    jm0, jm1 = _classical_side(mu, X)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = lam * (X * (lam * jl1 * jm0 - mu * jl0 * jm1)) / (lam ** 2 - mu ** 2)
    diag = _near_diagonal(lam, mu)
    if np.any(diag):
        out = np.where(diag, lam * X * X / 2.0 * (jl0 * jl0 + jl1 * jl1), out)
    return out


def ortho_kernel_classical(lmb, mu, X, method="closed"):
    """lam * integral_0^X x J0(lam x) J0(mu x) dx (truncated delta kernel).
    The quad route raises ConvergenceError when it misses 1e-10."""
    if method == "quad":
        val = adaptive_quad(
            lambda x: np.asarray(x) * classical.j0(lmb * np.asarray(x))
            * classical.j0(mu * np.asarray(x)), 0.0, X, tol=1e-10)
        return lmb * val.checked("the classical kernel's quad route", 1e-10)
    lmb_arr = np.atleast_1d(np.asarray(lmb, dtype=float))
    mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
    # the lam side once, broadcast against every mu
    out = _classical_kernel(lmb_arr, _classical_side(lmb_arr, X), mu_arr, X)
    scalar = np.ndim(lmb) == 0 and np.ndim(mu) == 0 and np.ndim(X) == 0
    return float(out[0]) if scalar else out


def _generalized_side(lam, params: Params, X, order=3):
    """What the generalized delta kernel reads at one of its two spectral
    points: J_lam and its x-derivatives 1-order at X, and L(lam).  The
    kernel's lam side needs order 4 for the diagonal."""
    return _solution_derivs(SolutionKind.jtype, lam, X, params, order), \
        spectral_value(lam, params)


def _generalized_diagonal(lam, side, weight, params: Params, X):
    """``ortho_kernel_generalized`` at mu == lam, the limit of the closed
    form: -weight [J_lam, d/dlam J_lam](X) / L'(lam), with L'(lam) =
    4 lam^3 + 2 c lam/M (c = 8) and d/dlam J_lam(x) = (x/lam) J_lam'(x) -
    (M lam/2) J2(lam x), given lam's ``_generalized_side`` at order 4.
    Below lam X = 4, where J2 = 2 J1/z - J0 cancels, the quad route."""
    M = params.M
    if lam * X < _REGULAR_SWITCH:
        return ortho_kernel_generalized(lam, lam, params, X, method="quad")
    dl = side[0]
    j2 = _direct_derivs_scaled(SolutionKind.jtype, lam, -1.0, 2.0, X, 3)[:, 0]
    # x-derivative n of d/dlam J_lam: (n J^(n) + x J^(n+1))/lam minus
    # (M lam/2) times that of J2(lam x)
    dlam = ((np.arange(4) * dl[:4] + X * dl[1:]) / lam
            - (M * lam / 2.0) * j2)
    return -weight * boundary_form(dl, dlam, X, M) / _spectral_slope(lam, params)


def _generalized_kernel(lam, side, weight, mu, params: Params, X):
    """The closed form of ``ortho_kernel_generalized`` at the scalar lam
    and the array mu, with lam's ``_generalized_side`` at order 4 and its
    density weight given; near mu == lam (see ``_NEAR_DIAGONAL``), the
    diagonal value."""
    dl, L = side
    dm, Lm = _generalized_side(mu, params, X)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = weight * boundary_form(dl, dm, X, params.M) / (L - Lm)
    diag = _near_diagonal(lam, mu)
    if np.any(diag):
        out[diag] = _generalized_diagonal(lam, side, weight, params, X)
    return out


def ortho_kernel_generalized(lmb, mu, params: Params, X, method="closed"):
    """weight(lam) * { integral_0^X x J_lam J_mu dx + (M/2) J_lam(0) J_mu(0) }.

    The closed route uses the Green identity: the truncated integral is
    [J_lam, J_mu](X)/(L(lam)-L(mu)) minus the boundary term at 0, and the
    0-term is exactly -(M/2)(L(lam)-L(mu)), cancelling the atom.  On and
    near the diagonal mu == lam, where that quotient reads 0/0, it takes
    its limit (see ``_generalized_diagonal``).  The quad route raises
    ConvergenceError when it misses 1e-10.
    """
    M = params.M
    weight = spectral_measure(M).density(lmb)
    if method == "quad":
        hl = SolutionHandle(SolutionKind.jtype, float(lmb), params)
        hm = SolutionHandle(SolutionKind.jtype, float(mu), params)
        val = adaptive_quad(
            lambda x: np.asarray(x) * eval_solution(hl, np.asarray(x))
            * eval_solution(hm, np.asarray(x)), 0.0, X, tol=1e-10,
            max_panels=20000).checked("the generalized kernel's quad route", 1e-10)
        return weight * (val + M / 2.0)
    mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
    # the lam side once, broadcast against every mu
    out = _generalized_kernel(lmb, _generalized_side(lmb, params, X, 4),
                              weight, mu_arr, params, X)
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
    distributional identity made quantitative.  Raises ConvergenceError
    when the integral misses tol.
    """
    def phi(mu):
        return smooth_bump((np.asarray(mu, dtype=float) - lam0) / half_width)

    # the lam0 side of the kernel once per probe, not in every round
    if kind == "classical":
        side = _classical_side(lam0, X)
        fn = lambda mu: _classical_kernel(lam0, side, mu, X) * phi(mu)
    elif kind == "generalized":
        side = _generalized_side(lam0, params, X, 4)
        weight = spectral_measure(params.M).density(lam0)
        fn = lambda mu: _generalized_kernel(lam0, side, weight, mu, params, X) \
            * phi(mu)
    else:
        raise ValueError("kind must be 'classical' or 'generalized'")
    r = adaptive_quad(fn, lam0 - half_width, lam0 + half_width, tol=tol,
                      max_panels=20000)
    return r.checked(f"the {kind} delta probe", tol)

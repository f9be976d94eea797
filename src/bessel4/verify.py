"""The invariant suite behind ``bessel4 verify`` and the acceptance gate.

``CHECKS`` is the one registry of checks: one entry per stable ID, with
its description, its threshold, the comparison ``op`` and the function
that measures the defect.  ``run_suite()`` runs the registry in order.
``bessel4 verify`` prints one row per check, and the acceptance tests
grade ACCEPT-01..12 by reading the rows of one such run, each criterion
being a set of check IDs; no check is written twice.  A check whose
outcome is a yes/no condition measures 0.0 when it holds and 1.0 when
it does not, against threshold 0.0.  The suite is deterministic: fixed
grids, fixed escalation ladders, no randomness.
"""

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classical as cb
from . import forms as F
from . import frobenius as fr
from . import plum
from . import spectral as sp
from . import transforms as tr
from .fixtures import load_suite
from .measures import inner_product, jump_measure, lebesgue_x, spectral_measure
from .quadrature import adaptive_quad, oscillatory_semi_infinite
from .solutions import (Params, SolutionHandle, SolutionKind, eval_solution,
                        eval_solution_derivs, spectral_value)


@dataclass(frozen=True)
class Check:
    check_id: str
    description: str
    threshold: float
    op: str          # "<=" or ">="
    measure: Callable[[], float]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    measured: float
    threshold: float
    op: str
    passed: bool
    seconds: float


CHECKS = []


def check(check_id, description, threshold, op="<="):
    """Register the decorated function as the measure of one check."""
    def register(measure):
        CHECKS.append(Check(check_id, description, threshold, op, measure))
        return measure
    return register


def _run(c):
    t0 = time.perf_counter()
    measured = float(c.measure())
    dt = time.perf_counter() - t0
    passed = measured <= c.threshold if c.op == "<=" else measured >= c.threshold
    return CheckResult(c.check_id, c.description, measured, c.threshold, c.op,
                       bool(passed), dt)


def run_suite():
    """Run every registered check in order; returns the list of CheckResult."""
    return [_run(c) for c in CHECKS]


_P1 = Params(1.0)
_KERNEL_XS = np.geomspace(1e-3, 50.0, 60)
_LM_GRID = [(lam, M) for lam in (0.5, 1.0, 2.0) for M in (0.5, 1.0, 4.0)]
_ONE = F.SeriesBundle.monomial(0)
_XSQ = F.SeriesBundle.monomial(2)
_LADDER = 1e-2 / 2.0 ** np.arange(5)
_EIGEN_MUS = -np.geomspace(15.0, 1e-3, 20)
_TR_M_VALUES = (0.5, 1.0, 2.0)


@check("CB-WRONSKIAN", "J0 Y0' - Y0 J0' = 2/(pi x), relative", 1e-10)
def _wronskian():
    xs = _KERNEL_XS
    (j0, j1), (y0, y1) = cb.j01(xs), cb.y01(xs)
    lhs = j0 * (-y1) - y0 * (-j1)
    return np.max(np.abs(lhs - 2.0 / (np.pi * xs)) / (2.0 / (np.pi * xs)))


@check("CB-ODE", "order-0/1 kernel equation residual via recurrences, "
       "relative", 1e-8)
def _kernel_ode_residual():
    # second derivatives via one more recurrence application:
    # u'' = s u - u'/x + n^2 u / x^2, s = -1 for J/Y and +1 for I/K
    xs = _KERNEL_XS
    worst = 0.0
    for fam in "JYIK":
        s = -1.0 if fam in "JY" else 1.0
        for order in (0, 1):
            kind = cb.BesselKind(fam, order)
            u = cb.eval_bessel(kind, xs)
            up = cb.eval_bessel_derivative(kind, xs)
            upp = s * u - up / xs + order * order * u / xs ** 2
            res = xs ** 2 * upp + xs * up - (s * xs ** 2 + order ** 2) * u
            scale = np.abs(xs ** 2 * upp) + np.abs(xs * up) \
                + np.abs((s * xs ** 2 + order ** 2) * u) + 1e-300
            worst = max(worst, float(np.max(np.abs(res) / scale)))
    return worst


@check("CB-K-DECAY", "K0 strictly positive and strictly decreasing", 0.0)
def _k0_monotone():
    v = cb.k0(_KERNEL_XS)
    return 0.0 if np.all(v > 0.0) and np.all(np.diff(v) < 0.0) else 1.0


@check("BT-NORM", "value 1 at the origin for the regular pair", 1e-10)
def _normalization():
    worst = 0.0
    for lam, M in _LM_GRID:
        for kind in (SolutionKind.jtype, SolutionKind.itype):
            h = SolutionHandle(kind, lam, Params(M))
            worst = max(worst, abs(eval_solution(h, 0.0) - 1.0))
    return worst


@check("BT-RESIDUAL", "fourth-order equation residual, all four solutions, "
       "40 log points in [0.01, 30]", 1e-6)
def _solution_residual():
    grid = np.geomspace(0.01, 30.0, 40)
    worst = 0.0
    for lam, M in _LM_GRID:
        P = Params(M)
        L = spectral_value(lam, P)
        for kind in SolutionKind:
            h = SolutionHandle(kind, lam, P)
            worst = max(worst, F.residual_expression(h, L, grid, P))
    return worst


@check("BT-CLASSICAL", "strictly monotone approach to J0 as M drops to "
       "0.001, on 60 and on 80 points of [0.1, 10]", 5e-3)
def _classical_limit():
    worst = 0.0
    for n in (60, 80):
        xs = np.linspace(0.1, 10.0, n)
        devs = []
        for M in (1.0, 0.1, 0.01, 0.001):
            h = SolutionHandle(SolutionKind.jtype, 1.0, Params(M))
            devs.append(float(np.max(np.abs(eval_solution(h, xs) - cb.j0(xs)))))
        if any(b >= a for a, b in zip(devs, devs[1:])):
            return 1.0
        worst = max(worst, devs[-1])
    return worst


@check("BT-BASIS", "row-scaled determinant of the basis Wronskian block at "
       "x=1", 1e-12, op=">=")
def _basis_det():
    rows = [eval_solution_derivs(SolutionHandle(kind, 1.0, _P1), 1.0, 3)
            for kind in SolutionKind]
    m = np.array(rows)
    m = m / np.abs(m).max(axis=1, keepdims=True)
    return abs(float(np.linalg.det(m)))


@check("BT-K-DECAY", "ktype decays faster than exp(-cx/2)", 1e-10)
def _ktype_decay():
    h = SolutionHandle(SolutionKind.ktype, 1.0, _P1)
    c = 3.0
    return float(max(abs(eval_solution(h, x)) * np.exp(c * x / 2.0)
                     for x in (20.0, 40.0, 80.0)))


@check("FR-ROOTS", "indicial roots of orders 4, 6, 8, exact and "
       "parameter-independent", 0.0)
def _indicial_roots():
    want = {4: [4, 2, 0, -2], 6: [6, 4, 2, 0, -2, -4],
            8: [8, 6, 4, 2, 0, -2, -4, -6]}
    for order in (4, 6, 8):
        for Lam, M in ((0.0, 1.0), (1.0, 0.1), (-5.0, 10.0)):
            spec = fr.OdeSpec.build(order, Params(M), Lam)
            if fr.indicial_roots(spec) != want[order]:
                return 1.0
    return 0.0


@check("FR-Y4", "pure-power solution: leading coefficients and "
       "substitution residual", 1e-12)
def _y4_series():
    worst = 0.0
    for M in (0.5, 1.0, 3.0):
        fs = fr.y4_series(1.0, Params(M), N=20)
        worst = max(worst, abs(fs.coeffs[0] - 1.0),
                    abs(fs.coeffs[2] * 3.0 * M - 1.0),
                    float(np.max(np.abs(fs.coeffs[1::2]))))
    worst = max(worst, float(fr.substitution_residual(
        fr.y4_series(1.0, _P1, N=20), 1.0, _P1, 0.1)))
    return worst


@check("FR-Y4-LEAD", "pure-power solution: c0 == 1 exactly and "
       "|3M c2 - 1| < 5e-15 for M in {0.5, 1, 3}", 0.0)
def _y4_leading():
    for M in (0.5, 1.0, 3.0):
        c = fr.y4_series(1.0, Params(M), N=20).coeffs
        if not (c[0] == 1.0 and abs(c[2] * 3.0 * M - 1.0) < 5e-15):
            return 1.0
    return 0.0


@check("FR-LOG", "log-case basis structure and substitution residual at "
       "0.05", 1e-8)
def _log_structure():
    basis = fr.log_case_basis(1.0, _P1, N=24)
    ok = (basis[0].root == 2 and basis[1].root == 0 and basis[2].root == -2)
    ok &= min(p for (p, d, c) in basis[0].log_blocks) == 4
    ok &= min(p for (p, d, c) in basis[1].log_blocks) == 4
    ok &= min(p for (p, d, c) in basis[2].log_blocks) == 0
    worst = 0.0 if ok else 1.0
    for fs in basis:
        worst = max(worst, float(fr.substitution_residual(fs, 1.0, _P1, 0.05)))
    return worst


@check("FR-INDEP", "independence of the four series solutions at x=0.5",
       1e-12, op=">=")
def _series_independence():
    series = [fr.y4_series(1.0, _P1, 20).series] \
        + [fs.series for fs in fr.log_case_basis(1.0, _P1, 20)]
    rows = []
    for s in series:
        stack = s.derivatives(3)
        rows.append([float(np.atleast_1d(d.evaluate(0.5))[0]) for d in stack])
    m = np.array(rows)
    m = m / np.abs(m).max(axis=1, keepdims=True)
    return abs(float(np.linalg.det(m)))


@check("FR-FIT", "each closed-form solution fits the series basis near 0, "
       "relative residual", 1e-6)
def _change_of_basis():
    lam = 1.0
    L = spectral_value(lam, _P1)
    series = [fr.y4_series(L, _P1, 16).series] \
        + [fs.series for fs in fr.log_case_basis(L, _P1, 16)]
    xs = np.array([0.01, 0.02, 0.04])
    cols = []
    for s in series:
        stack = s.derivatives(1)
        cols.append(np.concatenate([np.atleast_1d(d.evaluate(xs))
                                    for d in stack]))
    A = np.array(cols).T
    worst = 0.0
    for kind in SolutionKind:
        d = eval_solution_derivs(SolutionHandle(kind, lam, _P1), xs, 1)
        b = np.concatenate([d[0], d[1]])
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        resid = np.linalg.norm(A @ coef - b) / np.linalg.norm(b)
        worst = max(worst, float(resid))
    return worst


@check("MQ-QUAD", "adaptive quadrature on the analytic trio", 1e-8)
def _quad_suite():
    worst = abs(adaptive_quad(lambda x: x, 0, 1).value - 0.5)
    worst = max(worst, abs(adaptive_quad(np.sin, 0, np.pi).value - 2.0))
    worst = max(worst, abs(adaptive_quad(np.log, 0, 1,
                                         singular=("left",)).value + 1.0))
    return worst


@check("MQ-OSC", "accelerated oscillatory integrals (Dirichlet, J0)", 1e-6)
def _osc_suite():
    def sinc(x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 1.0, np.sin(safe) / safe)
    worst = abs(oscillatory_semi_infinite(sinc, np.pi, tol=1e-8).value
                - np.pi / 2.0)
    worst = max(worst, abs(oscillatory_semi_infinite(
        cb.j0, np.pi, tol=1e-6).value - 1.0))
    return worst


@check("MQ-MK", "jump measure equals weight-x measure plus the atom", 1e-14)
def _mk_consistency():
    f = lambda x: np.exp(-np.asarray(x, dtype=float))
    a = inner_product(f, f, jump_measure(0.7))
    b = inner_product(f, f, lebesgue_x())
    return abs(a - 0.7 - b)


@check("MQ-N-MASS", "spectral measure total mass 2/M for M in "
       "{0.5, 1, 2, 4}", 1e-8)
def _n_mass():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    worst = 0.0
    for M in (0.5, 1.0, 2.0, 4.0):
        v = inner_product(one, one, spectral_measure(M))
        worst = max(worst, abs(v - 2.0 / M))
    return worst


@check("FO-SYMPL16", "|[1, x^2](0+)| = 16 and antisymmetry", 1e-6)
def _sympl16():
    v = F._ladder(F.symplectic_form(_ONE, _XSQ, _LADDER, _P1))
    anti = abs(F.symplectic_form(_XSQ, _ONE, 0.01, _P1)
               + F.symplectic_form(_ONE, _XSQ, 0.01, _P1))
    return max(abs(abs(v) - 16.0), anti)


@check("FO-LIMIT-BC", "[f,1](0+) = -8 f''(0) and [f,x^2](0+) = 16 f(0) on "
       "solution bundles", 1e-5)
def _boundary_limit_identities():
    worst = 0.0
    for lam, M in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (1.0, 4.0)):
        Pm = Params(M)
        for kind in (SolutionKind.jtype, SolutionKind.itype):
            h = F.SolutionBundle(SolutionHandle(kind, lam, Pm))
            b = F.boundary_data(h, Pm)
            s1 = F._ladder(F.symplectic_form(h, _ONE, _LADDER, Pm))
            s2 = F._ladder(F.symplectic_form(h, _XSQ, _LADDER, Pm))
            worst = max(worst,
                        abs(s1 + 8.0 * b.f2) / (1.0 + abs(8.0 * b.f2)),
                        abs(s2 - 16.0 * b.f0) / (1.0 + abs(16.0 * b.f0)))
    return worst


@check("FO-LIMIT-PAIR", "[f,g](0+) = 8(f(0)g''(0) - f''(0)g(0))", 1e-5)
def _pair_identity():
    hj = F.SolutionBundle(SolutionHandle(SolutionKind.jtype, 1.0, _P1))
    hi = F.SolutionBundle(SolutionHandle(SolutionKind.itype, 1.0, _P1))
    bj = F.boundary_data(hj, _P1)
    bi = F.boundary_data(hi, _P1)
    s = F._ladder(F.symplectic_form(hj, hi, _LADDER, _P1))
    want = 8.0 * (bj.f0 * bi.f2 - bj.f2 * bi.f0)
    return abs(s - want) / (1.0 + abs(want))


@check("FO-GREEN", "Green identity defect on [0.5, 3]", 1e-7)
def _green():
    hj = SolutionHandle(SolutionKind.jtype, 1.0, _P1)
    hk = SolutionHandle(SolutionKind.ktype, 1.0, _P1)
    return F.greens_check(hj, hk, 0.5, 3.0, _P1, tol=1e-10)


@check("FO-DIRICHLET", "Dirichlet identity defect on [0.5, 2] and on "
       "[0.5, 3]", 1e-7)
def _dirichlet():
    hi = SolutionHandle(SolutionKind.itype, 1.0, _P1)
    return max(F.dirichlet_check(hi, hi, 0.5, b, _P1, tol=1e-10)
               for b in (2.0, 3.0))


@check("FO-GREEN-CONST", "equal-spectral-value symplectic form constant in "
       "x", 1e-7)
def _green_const():
    hj = SolutionHandle(SolutionKind.jtype, 1.0, _P1)
    hy = SolutionHandle(SolutionKind.ytype, 1.0, _P1)
    vals = F.symplectic_form(hj, hy, np.linspace(0.2, 10.0, 25), _P1)
    return float((vals.max() - vals.min()) / abs(vals.mean()))


def _positivity_suite():
    polys = ([0, 0, 0, 0, 1.0], [0, 0, 0, 0, 0, 1.0], [0, 0, 0, 0, 0, 0, 1.0],
             [0, 0, 0, 0, 1.0, 0, 0.5], [0, 0, 0, 0, 2.0, 1.0])
    return [F.PolyGaussBundle(c, s) for c in polys for s in (0.5, 1.0)]


def _energy_body(f):
    return adaptive_quad(
        lambda x: F.apply_expression(f, x, _P1) * f.derivs(x, 0)[0],
        0.0, 30.0, tol=1e-9).value


@check("FO-POS-T0", "energy form nonnegative on the zero-boundary suite",
       1e-8)
def _t0_positivity():
    vals = []
    for f in _positivity_suite():
        d, _tail = F.dirichlet_integral(f, _P1, upper=30.0, tol=1e-9)
        vals.append(min(d, _energy_body(f)))
    return -min(vals)


@check("FO-POS-SK", "jump-space quadratic form nonnegative on the suite",
       1e-8)
def _sk_positivity():
    worst = -np.inf
    for k in (0.5, 0.5 * _P1.M):
        for f in _positivity_suite():
            b = F.BoundaryData(*f.boundary_exact())
            atom = k * F.apply_jump_operator(f, k, 0.0, _P1, boundary=b) \
                * f.derivs(np.array([0.0]), 0)[0][0]
            worst = max(worst, -(atom + _energy_body(f)))
    return worst


@check("SP-EXT", "eigenvalue-to-extension map: residuals, min distance "
       "> 1e-6, |alpha| > 1e-6 on 20 points", 1e-6)
def _eigen_map():
    pairs = []
    worst = 0.0
    grid = np.geomspace(0.02, 20.0, 25)
    for mu in _EIGEN_MUS:
        cand = sp.decaying_regular_solution(float(mu), _P1)
        worst = max(worst, F.residual_expression(cand.fn, float(mu), grid, _P1))
        e = sp.extension_for_eigenvalue(float(mu), _P1)
        if abs(e.alpha) <= 1e-6:
            return 1.0
        pairs.append((e.alpha, e.beta))
    arr = np.array(pairs)
    d = np.sqrt(((arr[:, None, :] - arr[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 1.0)
    if d.min() <= 1e-6:
        return 1.0
    return worst


@check("SP-EXT-BC", "decaying candidate meets its extension's boundary "
       "condition on 20 points", 1e-8)
def _extension_bc():
    worst = 0.0
    for mu in _EIGEN_MUS:
        cand = sp.decaying_regular_solution(float(mu), _P1)
        e = sp.extension_for_eigenvalue(float(mu), _P1)
        worst = max(worst, abs(sp.extension_boundary_condition(
            e, cand.boundary)))
    return worst


@check("SP-SK-SCAN", "jump-operator eigenvalue defect floor across the "
       "window", 1e-3, op=">=")
def _sk_scan():
    mus = -np.geomspace(10.0, 0.01, 10)
    rep = sp.sk_no_eigenvalue_scan(0.5, _P1, mus)
    rep += sp.sk_no_eigenvalue_scan(1.0, _P1, mus)
    return min(r["defect"] for r in rep if r["tested"])


@check("SP-OSC", "oscillation floor of the bounded pair at large x "
       "(continuous spectrum shadow)", 0.05, op=">=")
def _oscillation_floor():
    return min(sp.oscillation_floor(L, _P1) for L in (1.0, 4.0, 25.0))


@check("TR-PARSEVAL", "transform-pair Parseval identity, relative", 1e-4)
def _parseval():
    worst = 0.0
    for fx in load_suite():
        for M in _TR_M_VALUES:
            lhs, rhs = tr.generalized_parseval(fx, Params(M), x_cut=fx.x_cut)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


@check("TR-MOMENT", "origin-recovery moment identity", 1e-4)
def _moment():
    worst = 0.0
    for fx in load_suite():
        for M in _TR_M_VALUES:
            worst = max(worst, tr.moment_identity_defect(
                fx, Params(M), x_cut=fx.x_cut))
    return worst


@check("TR-ROUNDTRIP", "inverse(forward(f)) = f at continuity points and at "
       "0", 1e-3)
def _roundtrip():
    worst = 0.0
    pts = [0.0, 0.5, 1.0, 2.0]
    for fx in load_suite():
        for M in _TR_M_VALUES:
            r = tr.generalized_roundtrip(fx, Params(M), pts, x_cut=fx.x_cut)
            expect = np.array([float(np.atleast_1d(fx(p))[0]) for p in pts])
            worst = max(worst, float(np.max(np.abs(r.values - expect))))
    return worst


@check("TR-VANISH", "vanishing spectral moment of the regular solution", 1e-5)
def _vanish():
    worst = 0.0
    for eta in (0.5, 1.0, 5.0):
        for M in (0.5, 1.0, 2.0):
            worst = max(worst, abs(tr.vanishing_moment(eta, Params(M))))
    return worst


@check("TR-DELTA-CL", "classical truncated kernel against a bump at X=200",
       2e-2)
def _delta_classical():
    return abs(tr.weak_delta_probe("classical", 1.0, 200.0) - 1.0)


@check("TR-DELTA-GEN", "generalized truncated kernel against a bump at "
       "X=200", 2e-2)
def _delta_generalized():
    return abs(tr.weak_delta_probe("generalized", 1.0, 200.0, params=_P1) - 1.0)


@check("TR-M-LIMIT", "generalized kernel approaches the classical kernel as "
       "M drops", 1e-3)
def _kernel_m_limit():
    kc = tr.ortho_kernel_classical(1.0, 2.0, 50.0)
    prev = None
    for M in (1.0, 0.1, 0.01):
        dev = abs(tr.ortho_kernel_generalized(1.0, 2.0, Params(M), 50.0) - kc)
        if prev is not None and dev >= prev:
            return 1.0
        prev = dev
    return prev


@check("PL-SEP", "planar expression equals the spectral multiple on "
       "separated solutions", 1e-5)
def _separation():
    r_grid = np.linspace(0.2, 5.0, 10)
    t_grid = np.linspace(0.0, np.pi, 8, endpoint=False)
    worst = 0.0
    for kind in (SolutionKind.jtype, SolutionKind.ktype):
        u = plum.SeparatedSolution.from_handle(SolutionHandle(kind, 1.0, _P1),
                                               A=0.8, B=0.6)
        worst = max(worst, plum.plum_residual(u, r_grid, t_grid))
    return worst


@check("PL-CRIT", "separation constant 4 is the unique critical choice", 0.0)
def _criticality():
    ok = plum.angular_criticality_check(4.0) \
        and not plum.angular_criticality_check(1.0) \
        and not plum.angular_criticality_check(0.0)
    return 0.0 if ok else 1.0

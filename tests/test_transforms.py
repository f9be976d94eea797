"""Transforms: classical pair, generalized pair, kernels, fixtures."""

import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

from bessel4 import classical, measures, quadrature, transforms as tr
from bessel4.fixtures import load_suite, parse_suite
from bessel4.solutions import Params, spectral_value

P1 = Params(1.0)


def expfn(x):
    return np.exp(-np.asarray(x, dtype=float))


def test_hankel_forward_exponential_closed_form():
    r = tr.hankel_forward(expfn, [0.5, 1.0, 2.0])
    # own derivation: integral x J0(sx) e^-x dx = (1 + s^2)^(-3/2)
    expect = (1.0 + r.grid ** 2) ** (-1.5)
    assert np.max(np.abs(r.values - expect)) < 1e-6
    # integral x J0(sx) e^(-x^2) dx = e^(-s^2/4) / 2
    gauss = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    r = tr.hankel_forward(gauss, _BATCH_LAMS)
    assert r.diagnostics["converged"]
    assert np.max(np.abs(r.values - np.exp(-_BATCH_LAMS ** 2 / 4.0) / 2.0)) < 1e-12


def test_hankel_forward_zero_function():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    r = tr.hankel_forward(zero, [0.5, 1.5])
    assert np.all(r.values == 0.0)


def test_hankel_parseval():
    lhs, rhs = tr.hankel_parseval(expfn)
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_hankel_roundtrip_smooth():
    v = tr.hankel_roundtrip(expfn, 1.0)
    assert v == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_hankel_roundtrip_indicator():
    from scipy import special
    ind = lambda x: np.where(np.asarray(x, dtype=float) <= 1.0, 1.0, 0.0)
    assert tr.hankel_roundtrip(ind, 0.5, x_cut=1.0) == pytest.approx(1.0, abs=1e-3)
    assert tr.hankel_roundtrip(ind, 1.0, x_cut=1.0) == pytest.approx(0.5, abs=1e-2)
    # at the default cut the jump at 1 falls inside a panel of the uniform
    # Gauss grid of lam < 1/2 unless that panel is bisected (g then errs by
    # 0.034 and the roundtrip by 0.004, flagged converged), and the nodes of
    # the coarse grid alone put the end of the support at 1.068
    assert tr._ring(tr._PanelCache(ind, 36.0), 1e-6) == pytest.approx(1.0, abs=1e-15)
    s = np.array([0.01, 0.3, 0.49, 2.0])
    g = tr._forward(tr._CLASSICAL, ind, s, None, 0.0, 36.0).values
    assert np.max(np.abs(g - special.j1(s) / s)) < 1e-6
    for x, expect in ((0.0, 1.0), (0.5, 1.0), (1.5, 0.0)):
        assert tr.hankel_roundtrip(ind, x) == pytest.approx(expect, abs=1e-6)


def test_hankel_roundtrip_at_and_near_origin():
    # x = 0 reads g by the capped measure integral (smooth profiles) or,
    # when g oscillates at the end of the support of f, by brackets
    assert tr.hankel_roundtrip(expfn, 0.0) == pytest.approx(1.0, abs=1e-6)
    ind = lambda x: np.where(np.asarray(x, dtype=float) <= 1.0, 1.0, 0.0)
    for x in (0.0, 0.05, 0.1):
        assert tr.hankel_roundtrip(ind, x, x_cut=1.0) == pytest.approx(1.0, abs=1e-6)
    # support [0, 2] inside the default cut; the forward limits it to ~7e-6
    bump = lambda x: tr.smooth_bump(np.asarray(x, dtype=float) / 2.0)
    assert tr.hankel_roundtrip(bump, 0.0) == pytest.approx(1.0, abs=1e-4)


def test_hankel_forward_algebraic_decay_is_truncated():
    # integral x J0(sx) (1 + x^2)^(-3/2) dx = e^-s; the x^-3 tail beyond
    # the last truncation X = 200 is ~1e-6, so tol = 1e-8 is not met
    alg = lambda x: (1.0 + np.asarray(x, dtype=float) ** 2) ** -1.5
    r = tr.hankel_forward(alg, [0.5, 1.0, 2.0])
    assert not r.diagnostics["converged"]
    assert r.diagnostics["x_cut"] == 200.0
    assert np.max(np.abs(r.values - np.exp(-r.grid))) < 1e-5


def test_generalized_forward_zero_and_escalation():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    r = tr.generalized_forward(zero, P1, [0.5, 1.0], f0=0.0)
    assert np.all(r.values == 0.0)
    g_ = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    fixed = tr.generalized_forward(g_, P1, [0.7, 2.0], x_cut=9.0)
    auto = tr.generalized_forward(g_, P1, [0.7, 2.0], tol=1e-9)
    assert auto.diagnostics["converged"]
    assert np.max(np.abs(fixed.values - auto.values)) < 1e-8


def test_generalized_forward_matches_direct_quadrature():
    # dual route: one lambda point against plain adaptive quadrature
    from bessel4.quadrature import adaptive_quad
    from bessel4.solutions import SolutionHandle, SolutionKind, eval_solution
    lam = 1.3
    h = SolutionHandle(SolutionKind.jtype, lam, P1)
    g_ = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    direct = adaptive_quad(
        lambda x: np.asarray(x) * eval_solution(h, np.asarray(x)) * g_(x),
        0.0, 9.0, tol=1e-11).value + P1.M / 2.0
    r = tr.generalized_forward(g_, P1, [lam], x_cut=9.0)
    assert r.values[0] == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_parseval_gaussian(M):
    g_ = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    lhs, rhs = tr.generalized_parseval(g_, Params(M), x_cut=9.0)
    assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_moment_identity_gaussian():
    g_ = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    assert tr.moment_identity_defect(g_, P1, x_cut=9.0) < 1e-4


def test_roundtrip_gaussian_including_origin():
    g_ = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    pts = [0.0, 0.5, 1.0, 2.0]
    r = tr.generalized_roundtrip(g_, P1, pts, x_cut=9.0)
    expect = np.array([1.0, np.exp(-0.25), np.exp(-1.0), np.exp(-4.0)])
    assert np.max(np.abs(r.values - expect)) < 1e-3


@pytest.mark.parametrize("eta,M", [(1.0, 1.0), (5.0, 0.5), (0.5, 2.0)])
def test_vanishing_moment(eta, M):
    assert abs(tr.vanishing_moment(eta, Params(M))) < 1e-5


def test_vanishing_moment_rejects_origin():
    with pytest.raises(ValueError):
        tr.vanishing_moment(0.0, P1)


def test_classical_kernel_closed_form_vs_quadrature():
    closed = tr.ortho_kernel_classical(1.0, 2.0, 50.0)
    quad = tr.ortho_kernel_classical(1.0, 2.0, 50.0, method="quad")
    assert closed == pytest.approx(quad, abs=1e-8)


def test_classical_kernel_cesaro_average_off_diagonal():
    from bessel4.quadrature import adaptive_quad
    avg = adaptive_quad(
        lambda X: tr.ortho_kernel_classical(1.0, 2.0, X), 50.0, 100.0,
        tol=1e-6).value / 50.0
    assert abs(avg) < 1e-2


def test_classical_kernel_keeps_every_x_of_an_array():
    X = np.array([50.0, 60.0])
    out = tr.ortho_kernel_classical(1.0, 2.0, X)
    assert out.shape == (2,)
    assert list(out) == [tr.ortho_kernel_classical(1.0, 2.0, x) for x in X]
    assert type(tr.ortho_kernel_classical(1.0, 2.0, 50.0)) is float


@pytest.mark.parametrize("lam0, X", [(0.6, 20.0), (1.3, 50.0), (2.9, 200.0)])
def test_delta_kernels_are_pointwise_in_mu(lam0, X):
    # adaptive_quad hands a whole round of panels to one call, so each
    # mu's value may not depend on the other mu in the array
    mu = np.linspace(lam0 - 0.5, lam0 + 0.5, 61)[1::2]
    out = tr.ortho_kernel_classical(lam0, mu, X)
    assert list(out) == [tr.ortho_kernel_classical(lam0, m, X) for m in mu]
    for M in (0.5, 1.0, 2.0):
        out = tr.ortho_kernel_generalized(lam0, mu, Params(M), X)
        assert list(out) == [tr.ortho_kernel_generalized(lam0, m, Params(M), X)
                             for m in mu]


def test_two_product_is_exact():
    from fractions import Fraction
    rng = np.random.default_rng(3)
    a, b = rng.uniform(0.0, 1e3, 500), rng.uniform(0.0, 40.0, 500)
    p, e = tr._two_product(a, b)
    assert np.array_equal(p, a * b)
    assert all(Fraction(x) * Fraction(y) == Fraction(u) + Fraction(v)
               for x, y, u, v in zip(a, b, p, e))


def test_classical_kernel_diagonal_grows():
    k1 = tr.ortho_kernel_classical(1.0, 1.0 + 1e-9, 50.0)
    k2 = tr.ortho_kernel_classical(1.0, 1.0 + 1e-9, 100.0)
    assert k2 > k1 > 1.0


def test_generalized_kernel_closed_form_vs_quadrature():
    closed = tr.ortho_kernel_generalized(1.0, 2.0, P1, 50.0)
    quad = tr.ortho_kernel_generalized(1.0, 2.0, P1, 50.0, method="quad")
    assert closed == pytest.approx(quad, abs=1e-7)


@pytest.mark.parametrize("X", [2.0, 0.3])
def test_generalized_kernel_closed_form_at_small_X(X):
    # lam X = 0.3 lies below the old direct-only guard at 0.5
    closed = tr.ortho_kernel_generalized(1.0, 2.0, P1, X)
    quad = tr.ortho_kernel_generalized(1.0, 2.0, P1, X, method="quad")
    assert closed == pytest.approx(quad, rel=1e-13)


def test_generalized_kernel_continuous_near_diagonal():
    vals = [tr.ortho_kernel_generalized(1.0, 1.0 + d, P1, 20.0)
            for d in (1e-3, 5e-4, 2.5e-4)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) + 1e-3


def test_generalized_kernel_m_to_zero_limit():
    kc = tr.ortho_kernel_classical(1.0, 2.0, 50.0)
    prev = None
    for M in (1.0, 0.1, 0.01):
        dev = abs(tr.ortho_kernel_generalized(1.0, 2.0, Params(M), 50.0) - kc)
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 1e-3


def test_weak_delta_probes():
    assert tr.weak_delta_probe("classical", 1.0, 200.0) == \
        pytest.approx(1.0, abs=2e-2)
    assert tr.weak_delta_probe("generalized", 1.0, 200.0, params=P1) == \
        pytest.approx(1.0, abs=2e-2)
    with pytest.raises(ValueError):
        tr.weak_delta_probe("nope", 1.0, 200.0)


def test_delta_probes_evaluate_the_lam0_side_once(monkeypatch):
    # the lam0 side of each kernel does not depend on mu, so a probe reads
    # it once, not in each of its integrand calls
    lam0, X = 1.0, 200.0
    seen = {"j0": 0, "derivs": 0, "calls": 0}
    j0, derivs, quad = classical.j0, tr._solution_derivs, tr.adaptive_quad

    def counted_j0(x):
        seen["j0"] += bool(np.all(np.asarray(x) == lam0 * X))
        return j0(x)

    def counted_derivs(kind, lams, *args):
        seen["derivs"] += bool(np.all(np.asarray(lams) == lam0))
        return derivs(kind, lams, *args)

    def counted_quad(f, *args, **kwargs):
        def g(mu):
            seen["calls"] += 1
            return f(mu)
        return quad(g, *args, **kwargs)

    monkeypatch.setattr(classical, "j0", counted_j0)
    monkeypatch.setattr(tr, "_solution_derivs", counted_derivs)
    monkeypatch.setattr(tr, "adaptive_quad", counted_quad)
    tr.weak_delta_probe("classical", lam0, X)
    assert seen["j0"] == 1 and seen["calls"] > 1
    seen["calls"] = 0
    tr.weak_delta_probe("generalized", lam0, X, params=P1)
    assert seen["derivs"] == 1 and seen["calls"] > 1


@pytest.mark.parametrize("lam, X", [(1.3, 200.0), (0.4, 30.0)])
def test_delta_kernels_on_the_diagonal(lam, X):
    # mu == lam reads 0/0 in both closed forms, but the kernels are finite
    # there: the classical limit is lam X^2/2 (J0(lam X)^2 + J1(lam X)^2),
    # and both must agree with their quad route
    closed = lam * X * X / 2.0 * (classical.j0(lam * X) ** 2
                                  + classical.j1(lam * X) ** 2)
    quad = tr.ortho_kernel_classical(lam, lam, X, method="quad")
    assert quad == pytest.approx(closed, rel=1e-8)
    mu = np.array([lam - 0.1, lam, lam + 0.1])
    for got in (tr.ortho_kernel_classical(lam, lam, X),
                tr.ortho_kernel_classical(lam, mu, X)[1]):
        assert got == pytest.approx(quad, rel=1e-8)
    assert np.all(np.isfinite(tr.ortho_kernel_classical(lam, mu, X)))
    quad = tr.ortho_kernel_generalized(lam, lam, P1, X, method="quad")
    for got in (tr.ortho_kernel_generalized(lam, lam, P1, X),
                tr.ortho_kernel_generalized(lam, mu, P1, X)[1]):
        assert got == pytest.approx(quad, rel=1e-8)
    # near it the closed forms divide two differences that cancel like
    # |mu - lam|; within 1e-8 of lam (relative) both kernels take their
    # diagonal value, so from one ulp off the diagonal out they stay within
    # 3e-8 of the quad route, for scalars and inside arrays
    mus = np.concatenate([[np.nextafter(lam, np.inf)],
                          lam * (1.0 + np.array([1e-15, 1e-13, 1e-11, 1e-9,
                                                 1e-7]))])
    kernels = (lambda mu, **kw: tr.ortho_kernel_classical(lam, mu, X, **kw),
               lambda mu, **kw: tr.ortho_kernel_generalized(lam, mu, P1, X,
                                                            **kw))
    for kernel in kernels:
        quad = np.array([kernel(mu, method="quad") for mu in mus])
        assert kernel(mus) == pytest.approx(quad, rel=3e-8)
        assert [kernel(mu) for mu in mus] == pytest.approx(quad, rel=3e-8)


def test_fixture_suite_contents():
    suite = load_suite()
    names = [fx.name for fx in suite]
    assert names == ["gaussian", "bump", "expdamp"]
    gaussian = suite[0]
    assert gaussian(0.0) == 1.0
    assert suite[1](np.array([0.0, 2.0, 3.0]))[1:] == pytest.approx([0.0, 0.0])
    with pytest.raises(ValueError):
        parse_suite("bad | exp(-x) | unknown_class")
    with pytest.raises(ValueError):
        parse_suite("too | few")


def test_jtype_multi_evaluators_match_handles():
    from bessel4.solutions import SolutionHandle, SolutionKind, \
        _solution_derivs, eval_jtype_outer, eval_solution, eval_solution_derivs
    lams = np.array([0.3, 1.0, 2.5])
    x = 7.0
    multi = eval_jtype_outer(lams[:, None], x, P1)[:, 0]
    single = [eval_solution(SolutionHandle(SolutionKind.jtype, l, P1), x)
              for l in lams]
    assert np.allclose(multi, single, rtol=1e-13)
    # lam * x runs from 0.125 to 2, below the series switch at 4, where
    # the direct formula loses digits to cancellation
    P2 = Params(2.0)
    near = np.array([25.0, 60.0, 150.0, 400.0])
    multi = eval_jtype_outer(near[:, None], 0.005, P2)[:, 0]
    single = [eval_solution(SolutionHandle(SolutionKind.jtype, l, P2), 0.005)
              for l in near]
    assert np.allclose(multi, single, rtol=1e-13, atol=0.0)
    # (lam, x) pairs, in any order, read the entries of the outer grid
    xs = np.array([0.0, 0.2, 3.0, 7.0, 40.0])
    outer = eval_jtype_outer(near[:, None], xs[None, :], P2)
    pair_lams, pair_xs = np.meshgrid(near, xs, indexing="ij")
    flip = slice(None, None, -1)
    assert np.array_equal(eval_jtype_outer(pair_lams.ravel()[flip],
                                           pair_xs.ravel()[flip], P2),
                          outer.ravel()[flip])
    # the derivative stack of the orthogonality kernels, over lam at fixed
    # x, lam x from 0.01 (below the old direct-only guard at 0.5) to 17.5
    for x in (7.0, 0.05):
        multi_lams = np.concatenate([lams, [0.2, 0.05]])
        dm = _solution_derivs(SolutionKind.jtype, multi_lams, x, P1, 3)
        for i, l in enumerate(multi_lams):
            ds = eval_solution_derivs(SolutionHandle(SolutionKind.jtype, l, P1),
                                      x, 3)
            assert np.allclose(dm[:, i], ds, rtol=1e-12, atol=0.0)


def test_generalized_inverse_of_zero_is_zero():
    zero = lambda lam: np.zeros_like(np.asarray(lam, dtype=float))
    r = tr.generalized_inverse(zero, P1, [0.0, 0.5, 2.0])
    assert np.all(r.values == 0.0)


def test_inverse_grid_runs_its_integrals_in_lockstep():
    # the lam integrals of every x share each call of g: the grid's values
    # are those of one x at a time, bit for bit, and g is called no more
    # often than for the x that takes the most rounds alone
    M = 1.3
    calls = []

    def g(lam):
        calls.append(np.size(lam))
        lam = np.asarray(lam, dtype=float)
        return np.exp(-lam * lam / 4.0) * ((1.0 + M * lam * lam / 4.0) / 2.0
                                           + M / 2.0)

    xs = [0.3, 1.1, 2.4]
    grid = tr.generalized_inverse(g, Params(M), xs)
    rounds, alone = len(calls), []
    for i, x in enumerate(xs):
        calls.clear()
        r = tr.generalized_inverse(g, Params(M), [x])
        assert r.values.tobytes() == grid.values[i:i + 1].tobytes()
        assert r.diagnostics["points"] == grid.diagnostics["points"][i:i + 1]
        alone.append(len(calls))
    assert rounds <= max(alone)
    assert np.allclose(grid.values, np.exp(-np.square(xs)), atol=1e-5)


@pytest.mark.parametrize("lam, M, X", [(1.3, 1.0, 200.0), (0.4, 1.0, 30.0),
                                       (2.7, 0.6, 200.0), (0.8, 1.9, 50.0)])
def test_generalized_kernel_diagonal_in_closed_form(lam, M, X, monkeypatch):
    # -weight [J_lam, d/dlam J_lam](X) / L'(lam) where lam X >= 4: no
    # quadrature, and the quad route's value to rounding
    quad = tr.ortho_kernel_generalized(lam, lam, Params(M), X, method="quad")

    def no_quad(*args, **kwargs):
        raise AssertionError("the diagonal took the quad route")

    monkeypatch.setattr(tr, "adaptive_quad", no_quad)
    got = tr.ortho_kernel_generalized(lam, lam, Params(M), X)
    assert got == pytest.approx(quad, rel=1e-13)


def test_inverse_at_the_origin_joins_the_grid_drive():
    # x = 0 runs the measure integral's core and u = 1/lam tail in the
    # same lockstep drive as the other x, each from its graded edges: g is
    # called once on [0] and once on [0, 0.5, 2] (one drive after the
    # other read 4 and 7; one-panel starts 3 and 3), and the origin's
    # value is inner_product's, bit for bit
    from bessel4.measures import inner_product, spectral_measure
    M = 1.0
    calls = []

    def g(lam):
        calls.append(np.size(lam))
        lam = np.asarray(lam, dtype=float)
        return np.exp(-lam * lam / 4.0) * ((1.0 + M * lam * lam / 4.0) / 2.0
                                           + M / 2.0)

    origin = tr.generalized_inverse(g, Params(M), [0.0])
    assert len(calls) == 1
    calls.clear()
    grid = tr.generalized_inverse(g, Params(M), [0.0, 0.5, 2.0])
    assert len(calls) == 1
    assert grid.values[0] == origin.values[0]
    assert grid.diagnostics["points"][0] == {"x": 0.0,
                                             "mode": "measure-integral"}
    one = lambda lam: np.ones_like(np.asarray(lam, dtype=float))
    assert origin.values[0] == inner_product(g, one, spectral_measure(M),
                                             tol=1e-8)
    assert np.allclose(grid.values, np.exp(-np.square([0.0, 0.5, 2.0])),
                       atol=1e-6)


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_graded_starts_agree_with_one_panel_starts(M, monkeypatch):
    # the lam-side integrals from 0 start on their graded edges; started
    # on the one panel [0, b] instead they agree within each call's tol
    P = Params(M)

    def run(fx):
        return (tr.generalized_parseval(fx, P, x_cut=fx.x_cut)[0],
                tr.moment_identity_defect(fx, P, x_cut=fx.x_cut),
                tr.generalized_roundtrip(fx, P, [0.0, 0.7, 1.9],
                                         x_cut=fx.x_cut).values)

    suite = load_suite()
    graded = [run(fx) for fx in suite]
    one_panel = lambda b: np.array([0.0, b])
    monkeypatch.setattr(tr, "_graded_edges", one_panel)
    monkeypatch.setattr(measures, "_graded_edges", one_panel)
    for fx, (parseval, moment, inverse) in zip(suite, graded):
        p1, m1, i1 = run(fx)
        assert parseval == pytest.approx(p1, abs=1e-6)
        assert moment == pytest.approx(m1, abs=1e-6)
        assert np.max(np.abs(inverse - i1)) < 1e-6


def _nan_on_one_panel(monkeypatch):
    """Make the forward evaluator return nan for lam in [3, 3.5]: no panel
    there ever converges."""
    call = tr._ForwardEvaluator.__call__

    def patched(self, lams):
        vals = np.asarray(call(self, lams), dtype=float)
        lams = np.asarray(lams, dtype=float)
        return np.where((lams >= 3.0) & (lams <= 3.5), np.nan, vals)

    monkeypatch.setattr(tr._ForwardEvaluator, "__call__", patched)


def test_parseval_raises_when_its_lam_side_misses_tol(monkeypatch):
    gauss = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    _nan_on_one_panel(monkeypatch)
    with pytest.raises(quadrature.ConvergenceError) as err:
        tr.generalized_parseval(gauss, P1, x_cut=9.0)
    assert np.isfinite(err.value.best) and err.value.error > 1e-6


def _spike_past_40(x):
    """0 up to x = 40, 1/sqrt(x - 40) beyond: the forward (truncated at
    40) reads 0, while x f^2 has a pole at 40 that no panel resolves."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 40.0, 1.0 / np.sqrt(np.abs(x - 40.0)), 0.0)


@pytest.mark.parametrize("parseval", [
    lambda f: tr.generalized_parseval(f, P1), tr.hankel_parseval],
    ids=["generalized", "classical"])
def test_parseval_raises_when_its_x_side_misses_tol(parseval):
    with pytest.raises(quadrature.ConvergenceError, match="x side") as err:
        parseval(_spike_past_40)
    assert np.isfinite(err.value.best) and err.value.error > 1e-6


def test_moment_identity_raises_when_an_integral_misses_tol(monkeypatch):
    gauss = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    _nan_on_one_panel(monkeypatch)
    with pytest.raises(quadrature.ConvergenceError) as err:
        tr.moment_identity_defect(gauss, P1, x_cut=9.0)
    assert np.isfinite(err.value.best) and err.value.error > 1e-6


@pytest.mark.parametrize("call", [
    lambda: tr.vanishing_moment(1.0, P1, tol=1e-300),
    lambda: tr.weak_delta_probe("classical", 1.0, 200.0, tol=1e-300),
    lambda: tr.weak_delta_probe("generalized", 1.0, 200.0, params=P1,
                                tol=1e-300)],
    ids=["vanishing_moment", "delta_classical", "delta_generalized"])
def test_moment_and_delta_probes_raise_when_an_integral_misses_tol(call):
    # no rule reaches tol = 1e-300; the best value still reaches the caller
    with pytest.raises(quadrature.ConvergenceError) as err:
        call()
    assert np.isfinite(err.value.best) and err.value.error > 0.0


@pytest.mark.parametrize("lam, M", [(0.05, 0.3), (0.9, 1.0), (3.7, 7.0)])
def test_diagonal_spectral_slope_matches_spectral_value(lam, M):
    # the diagonal kernel divides by L'(lam); it must be the derivative of
    # the spectral value L that the off-diagonal kernel differences
    P = Params(M)
    h = 1e-5 * lam
    diff = (spectral_value(lam + h, P) - spectral_value(lam - h, P)) / (2 * h)
    assert tr._spectral_slope(lam, P) == pytest.approx(diff, rel=1e-9)


def test_ten_node_brackets_match_sixteen_node_brackets():
    # a bracket spans half an oscillation of the inverse integrand, where
    # G10 (exact to degree 19) gives the 16-node sums: the partial sums of
    # the inverse integral (the head on [0, 8], then 16 brackets of width
    # pi/(x + ring)) agree within 1e-13 of their size, for every fixture
    x16, w16 = quadrature._gauss(16)
    for fx in load_suite():
        for x, M in ((0.5, 1.0), (1.0, 0.7), (2.0, 1.6)):
            pair = tr._generalized_pair(Params(M))
            gev = tr._ForwardEvaluator(fx, pair, x_cut=fx.x_cut)
            h = np.pi / (x + tr._ring(gev.panels, 1e-6))

            def f(lam):
                return pair.kernel(lam, x) * gev(lam) \
                    * pair.lam_measure.density(lam)

            head = tr.adaptive_quad(f, 0.0, 8.0, tol=1e-10).value
            mids = 8.0 + h * (np.arange(16) + 0.5)

            def sums(nodes, weights):
                lam = mids[:, None] + 0.5 * h * nodes
                return head + np.cumsum(0.5 * h * f(lam.ravel())
                                        .reshape(lam.shape) @ weights)

            ten = sums(quadrature._G10_X, quadrature._G10_W)
            sixteen = sums(x16, w16)
            scale = np.max(np.abs(sixteen))
            assert np.max(np.abs(ten - sixteen)) <= 1e-13 * scale


def test_quad_cost_tool_runs_at_small_size(capsys):
    # the tool wraps the private quadrature driver where the library binds
    # it, so a rename there fails here rather than going unnoticed
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "quad_cost.py"
    spec = importlib.util.spec_from_file_location("quad_cost", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["1"])
    assert quadrature._lockstep is tr._lockstep
    assert "counted" not in quadrature._lockstep.__qualname__
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(tool.SITES)
    rows = {line[:29].strip(): [float(c) for c in line[29:].split()]
            for line in lines[1:]}
    assert list(rows) == [site for site, _ in tool.SITES]
    assert all(len(r) == 4 and min(r) > 0.0 for r in rows.values())
    # the inverse runs two integrals per x, all x in lockstep
    one, three = rows["generalized_inverse 1 x"], rows["generalized_inverse 3 x"]
    assert one[0] == 2.0 and three[0] == 6.0 and three[1] < 3 * one[1]


def test_forward_cost_tool_runs(capsys):
    # the tool wraps the forward's kernel and Filon sum where the library
    # binds them, so a rename there fails here rather than going unnoticed
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "forward_cost.py"
    spec = importlib.util.spec_from_file_location("forward_cost", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.REPEATS = 1
    tool.main()
    assert "counted" not in tr._filon_sum.__qualname__
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(tool.X_CUTS) * len(tool.LAMS)
    rows = [line.split() for line in lines[1:]]
    for cells in rows:
        # kernel nodes and Filon pairs of each pair, the same routes
        kern_cl, filon_cl, kern_gen, filon_gen = map(int, cells[2:6])
        assert kern_cl == kern_gen > 0 and filon_cl == filon_gen >= 0
        assert min(float(cells[6]), float(cells[7])) > 0.0
        # measured when this test was changed: at most 1.5e-13
        assert max(float(cells[8]), float(cells[9])) < 1e-12
    # at x_cut 40 every lam takes Filon panels, and their count grows
    # only like log(lam)
    filon = [int(cells[3]) for cells in rows if cells[0] == "40.0"]
    assert 0 < filon[0] and filon == sorted(filon) and filon[-1] < 32


# unsorted, with duplicates; at x_cut 40 their Gauss grids have 512,
# 1024, 2048 and 4096 nodes, the first holding more lams than one chunk,
# but only the lams below 1/2 take theirs, the rest the Filon panels of
# six octaves; the smallest ones put every node on the series path
_BATCH_LAMS = np.concatenate([
    np.linspace(3.9, 0.0, 150), [1e-3, 0.02, 0.02, 5.5, 7.9, 5.5, 12.0, 30.0,
                                 16.5, 0.7, 30.0, 1e-3]])


# lam >= 8 at x_cut 40: the Filon grids of six octaves
_FILON_LAMS = np.array([8.0, 12.0, 30.0, 60.0, 120.0, 160.0, 320.0])


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_batched_forward_closed_forms(M):
    lam = np.concatenate([_BATCH_LAMS, _FILON_LAMS])
    gauss = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    panels = tr._PanelCache(gauss, 40.0)
    sizes = [panels.grid(l)[0].size for l in _BATCH_LAMS]
    assert len(set(sizes)) >= 4
    assert sizes.count(min(sizes)) > tr._CHUNK_POINTS // min(sizes)
    assert np.all(tr._routes(panels, _FILON_LAMS)[2] > 0)
    q = M * lam ** 2 / 4.0
    expect_gauss = np.exp(-lam ** 2 / 4.0) * ((1.0 + q) / 2.0 + M / 2.0)
    expect_expx = (1.0 + q) * (1.0 + lam ** 2) ** -1.5 \
        + M / 2.0 * (1.0 + lam ** 2) ** -0.5
    for f, expect in ((gauss, expect_gauss), (expx, expect_expx)):
        r = tr.generalized_forward(f, Params(M), lam, x_cut=40.0)
        assert np.max(np.abs(r.values - expect)) < 1e-12
    # the classical pair on the Filon panels: A = 1, B = 0
    lam = _FILON_LAMS
    for f, expect in ((gauss, np.exp(-lam ** 2 / 4.0) / 2.0),
                      (expx, (1.0 + lam ** 2) ** -1.5)):
        r = tr._forward(tr._CLASSICAL, f, lam, None, 0.0, 40.0)
        assert np.max(np.abs(r.values - expect)) < 1e-14


def test_forward_evaluator_batch_equals_elementwise():
    # a lam's value does not depend on its batch, bit for bit: exp(-x) and
    # the suite fixtures, on both pairs; one at a time the Filon panels
    # grow as the lams do
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    lam = np.concatenate([_BATCH_LAMS, _FILON_LAMS])
    profiles = [(expx, 40.0)] + [(fx, fx.x_cut) for fx in load_suite()]
    for f, x_cut in profiles:
        for pair in (tr._generalized_pair(P1), tr._CLASSICAL):
            batch = tr._ForwardEvaluator(f, pair, x_cut=x_cut)(lam)
            single = tr._ForwardEvaluator(f, pair, x_cut=x_cut)
            one_by_one = np.array([single(l)[0] for l in lam])
            assert np.array_equal(batch, one_by_one), (f, pair.x_atom)


def test_filon_table_is_built_once_per_panel_set(monkeypatch):
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    build, built = tr._legendre_table, []

    def counted(x, xf):
        built.append(x.shape[0])
        return build(x, xf)

    monkeypatch.setattr(tr, "_legendre_table", counted)
    gev = tr._ForwardEvaluator(expx, tr._generalized_pair(P1))
    gev(np.array([8.0, 12.0]))
    panels = gev.panels._filon
    gev(np.array([9.0, 15.0]))  # the same octave: the same panels
    assert built == [panels.mid.size] and gev.panels._filon is panels
    assert panels.legendre.shape == (27, panels.mid.size, 16)
    # a higher octave grows the panels down: a table for the new panels,
    # held with the old rows by the new panel set
    gev(np.array([40.0]))
    grown = gev.panels._filon
    assert grown is not panels and len(built) == 2
    assert grown.legendre.shape == (27, grown.mid.size, 16)
    assert built[1] == grown.mid.size - panels.mid.size > 0
    assert np.array_equal(grown.legendre[:, built[1]:], panels.legendre)
    # the same table as panels built at once
    whole = tr._PanelCache(expx, 40.0).filon(grown.lo)
    assert np.array_equal(whole.legendre, grown.legendre)


def test_filon_series_reproduces_the_kernel_bracket():
    # at x = 1 and f = 1 the coefficients C_n are the series of the
    # amplitude a itself: Re[exp(i (z - pi/4)) a(z)] gives back j0(z)
    # (A = 1) and j1(z)/z (B = 1) to their rounding
    rng = np.random.default_rng(11)
    z = np.concatenate([[8.0, 16.9999, 17.0001],
                        8.0 * (1e9 / 8.0) ** rng.uniform(0.0, 1.0, 120)])
    one, zero = np.ones_like(z), np.zeros_like(z)
    env = np.sqrt(2.0 / (np.pi * z))
    for A, B, expect, scale in ((one, zero, classical.j0(z), env),
                                (zero, one, classical.j1(z) / z, env / z)):
        even, odd = tr._amplitude_coeffs(z, A, B)
        a = even.sum(axis=1) + 1j * odd.sum(axis=1)
        got = (np.exp(1j * z) * a * np.exp(-0.25j * np.pi)).real
        assert np.all(np.abs(got - expect) <= 1e-15 * scale)


@pytest.mark.parametrize("lam", [1e6, 1e8])
def test_filon_forward_at_large_lambda_warns_nothing(lam):
    # the panels reach down to x = 8/lam, where x^(1/2 - n) of the table
    # is largest; no power overflows, and the value keeps the closed form
    # (to 1.6e-4 at 1e8, where A = 2.5e15 and x |f K| has mass 1.8e11)
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tr.generalized_forward(expx, P1, [lam], x_cut=40.0).values[0]
    expect = (1.0 + lam ** 2 / 4.0) * (1.0 + lam ** 2) ** -1.5 \
        + 0.5 * (1.0 + lam ** 2) ** -0.5
    assert abs(got - expect) < 1e-3 * expect


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_forward_rejects_non_finite_lambda(lam):
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    with pytest.raises(ValueError):
        tr.generalized_forward(expx, P1, [1.0, lam], x_cut=40.0)


def test_forward_batch_one_kernel_call_and_one_filon_pass_per_chunk(
        monkeypatch):
    gauss = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    lam = np.concatenate([_BATCH_LAMS, _FILON_LAMS])
    kernel, filon_sum = tr.eval_jtype_outer, tr._filon_sum
    calls = {"kernel": [], "filon": [], "lams": []}

    def counted_kernel(lams, xs, params):
        calls["kernel"].append(np.broadcast(lams, xs).size)
        return kernel(lams, xs, params)

    def counted_filon(panels, lams, count, A, B):
        calls["lams"].extend(lams)
        calls["filon"].append(panels.legendre.shape[2] * int(np.sum(count)))
        return filon_sum(panels, lams, count, A, B)

    monkeypatch.setattr(tr, "eval_jtype_outer", counted_kernel)
    monkeypatch.setattr(tr, "_filon_sum", counted_filon)
    whole = tr.generalized_forward(gauss, P1, lam, x_cut=40.0).values
    points = sum(calls["kernel"]) + sum(calls["filon"])
    # one chunk: its Gauss grids and heads in one kernel call, the Filon
    # lams of ten octaves in one pass
    assert points <= tr._CHUNK_POINTS
    assert len(calls["kernel"]) == len(calls["filon"]) == 1
    assert set(_FILON_LAMS) <= set(calls["lams"])
    assert len(np.unique(np.floor(np.log2(calls["lams"])))) == 10
    # a sixteenth of the chunk: one kernel call and at most one Filon pass
    # per chunk, and the same values
    for key in calls:
        calls[key].clear()
    monkeypatch.setattr(tr, "_CHUNK_POINTS", tr._CHUNK_POINTS // 16)
    chunked = tr.generalized_forward(gauss, P1, lam, x_cut=40.0).values
    assert 8 <= len(calls["kernel"]) <= -(-points // tr._CHUNK_POINTS)
    assert 1 <= len(calls["filon"]) <= len(calls["kernel"])
    assert np.max(np.abs(chunked - whole)) <= 1e-15


def test_filon_panels_are_shared_and_octave_aligned():
    gauss = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    whole = tr._PanelCache(gauss, 40.0)
    tr._routes(whole, _FILON_LAMS)
    grown = tr._PanelCache(gauss, 40.0)
    for lam in _FILON_LAMS:  # lowest octave first: the panels grow down
        _, _, count, panels = tr._routes(grown, np.array([lam]))
        edges = panels.mid[-count[0]:] - panels.half[-count[0]:]
        assert edges[0] == 8.0 / 2.0 ** np.floor(np.log2(lam))
        assert np.array_equal(edges, (whole._filon.mid - whole._filon.half)
                              [-count[0]:])
    assert np.array_equal(grown._filon.legendre, whole._filon.legendre)
    half = whole._filon.half
    assert whole._filon.mid[-1] + half[-1] == 40.0
    assert np.all(np.log2(half[:-1]) == np.round(np.log2(half[:-1])))


@pytest.mark.parametrize("omega", [1e-3, 0.3, 3.0, 30.0, 31.9, 32.0, 300.0])
def test_legendre_moments_against_mpmath(omega):
    # integral of P_k(t) exp(i omega t) over [-1, 1] is 2 i^k j_k(omega);
    # 31.9 and 32.0 sit on either side of the Miller/upward switch
    import mpmath as mp
    with mp.workdps(30):
        expect = [complex(2 * mp.mpc(0, 1) ** k * mp.sqrt(mp.pi / (2 * omega))
                          * mp.besselj(k + 0.5, omega)) for k in range(16)]
    got = tr._legendre_moments(np.array([omega]))[0]
    assert np.all(np.abs(got - expect) <= 1e-14 * np.abs(expect))


def test_filon_forward_compact_support():
    # the bump ends at x = 2 with all derivatives zero but no analytic
    # continuation; the Filon panels there are bisected until the fit holds
    from scipy import integrate, special
    bump = lambda x: tr.smooth_bump(np.asarray(x, dtype=float) / 2.0)
    lam = np.array([60.0, 200.0, 320.0])
    got = tr._forward(tr._CLASSICAL, bump, lam, None, 0.0, 2.5).values
    cuts = np.linspace(0.0, 2.0, 41)
    for l, g in zip(lam, got):
        ref = sum(integrate.quad(lambda x: x * bump(x) * special.j0(l * x),
                                 a, b, epsabs=1e-16, limit=200)[0]
                  for a, b in zip(cuts[:-1], cuts[1:]))
        assert abs(g - ref) < 1e-14


def _count_forward_nodes(monkeypatch):
    """Wrap the forward's two evaluators; returns the running node count."""
    count = [0]
    kernel, filon_sum = tr.eval_jtype_outer, tr._filon_sum

    def counted_kernel(lams, xs, params):
        count[0] += np.broadcast(lams, xs).size
        return kernel(lams, xs, params)

    def counted_filon(panels, lams, panel_count, A, B):
        count[0] += panels.legendre.shape[2] * int(np.sum(panel_count))
        return filon_sum(panels, lams, panel_count, A, B)

    monkeypatch.setattr(tr, "eval_jtype_outer", counted_kernel)
    monkeypatch.setattr(tr, "_filon_sum", counted_filon)
    return count


def test_filon_forward_cost_is_flat_in_lambda(monkeypatch):
    count = _count_forward_nodes(monkeypatch)
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    nodes = {}
    for lam in (30.0, 320.0):
        count[0] = 0
        tr.generalized_forward(expx, P1, [lam], x_cut=40.0)
        nodes[lam] = count[0]
    # the Gauss grids had 4096 and 65536 nodes
    assert nodes[320.0] <= 4096
    assert nodes[320.0] <= 4 * nodes[30.0]


def test_roundtrip_cost_near_origin(monkeypatch):
    # the brackets of spacing pi/x reach lam ~ 1e3 at x = 0.06; with the
    # forward's cost flat in lam that costs about what x = 0.5 does
    count = _count_forward_nodes(monkeypatch)
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    nodes = {}
    for x in (0.06, 0.5):
        count[0] = 0
        r = tr.generalized_roundtrip(expx, P1, [x], x_cut=40.0)
        assert r.values[0] == pytest.approx(np.exp(-x), abs=1e-6)
        nodes[x] = count[0]
    assert nodes[0.06] <= 2 * nodes[0.5]


def test_generalized_roundtrip_indicator_near_origin():
    # g of the indicator of [0, 1] rings at frequency 1; without ring-sized
    # brackets the inverse returned 1.0755 at x = 0.05, flagged converged
    ind = lambda x: np.where(np.asarray(x, dtype=float) <= 1.0, 1.0, 0.0)
    r = tr.generalized_roundtrip(ind, P1, [0.05, 0.5], x_cut=1.0)
    assert all(p["converged"] for p in r.diagnostics["points"])
    assert np.max(np.abs(r.values - 1.0)) < 1e-6


@pytest.mark.parametrize("route", ["classical", "generalized"])
def test_ortho_kernel_quad_routes_raise_when_they_miss_tol(route, monkeypatch):
    def unconverged(*args, **kwargs):
        r = quadrature.adaptive_quad(*args, **kwargs)
        return quadrature.QuadResult(r.value, 1.0, False, r.neval)

    monkeypatch.setattr(tr, "adaptive_quad", unconverged)
    with pytest.raises(quadrature.ConvergenceError, match=route) as err:
        if route == "classical":
            tr.ortho_kernel_classical(1.0, 1.2, 5.0, method="quad")
        else:
            tr.ortho_kernel_generalized(1.0, 1.2, P1, 5.0, method="quad")
    assert np.isfinite(err.value.best) and err.value.error == 1.0


@pytest.mark.parametrize("x", [-1.0, np.nan, np.inf])
def test_inverse_and_roundtrips_reject_bad_x(x):
    gauss = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2)
    with pytest.raises(ValueError, match="x_grid"):
        tr.generalized_inverse(gauss, P1, [0.5, x])
    with pytest.raises(ValueError, match="x_points"):
        tr.generalized_roundtrip(gauss, P1, [x])
    with pytest.raises(ValueError, match="x_point "):
        tr.hankel_roundtrip(gauss, x)

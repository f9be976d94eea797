"""Transforms: classical pair, generalized pair, kernels, fixtures."""

import numpy as np
import pytest

from bessel4 import transforms as tr
from bessel4.fixtures import load_suite, parse_suite
from bessel4.solutions import Params

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
    ind = lambda x: np.where(np.asarray(x, dtype=float) <= 1.0, 1.0, 0.0)
    assert tr.hankel_roundtrip(ind, 0.5, x_cut=1.0) == pytest.approx(1.0, abs=1e-3)
    assert tr.hankel_roundtrip(ind, 1.0, x_cut=1.0) == pytest.approx(0.5, abs=1e-2)


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


def test_classical_kernel_diagonal_grows():
    k1 = tr.ortho_kernel_classical(1.0, 1.0 + 1e-9, 50.0)
    k2 = tr.ortho_kernel_classical(1.0, 1.0 + 1e-9, 100.0)
    assert k2 > k1 > 1.0


def test_generalized_kernel_closed_form_vs_quadrature():
    closed = tr.ortho_kernel_generalized(1.0, 2.0, P1, 50.0)
    quad = tr.ortho_kernel_generalized(1.0, 2.0, P1, 50.0, method="quad")
    assert closed == pytest.approx(quad, abs=1e-7)


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
        eval_jtype_outer, eval_solution, eval_solution_derivs
    lams = np.array([0.3, 1.0, 2.5])
    x = 7.0
    multi = eval_jtype_outer(lams, x, P1)[:, 0]
    single = [eval_solution(SolutionHandle(SolutionKind.jtype, l, P1), x)
              for l in lams]
    assert np.allclose(multi, single, rtol=1e-13)
    # lam * x runs from 0.125 to 2 across the series switch at 1; below
    # the switch the direct formula loses digits to cancellation
    P2 = Params(2.0)
    near = np.array([25.0, 60.0, 150.0, 400.0])
    multi = eval_jtype_outer(near, 0.005, P2)[:, 0]
    single = [eval_solution(SolutionHandle(SolutionKind.jtype, l, P2), 0.005)
              for l in near]
    assert np.allclose(multi, single, rtol=1e-13, atol=0.0)
    dm = tr.jtype_derivs_multi(lams, x, P1, order=3)
    for i, l in enumerate(lams):
        ds = eval_solution_derivs(SolutionHandle(SolutionKind.jtype, l, P1),
                                  x, 3)
        assert np.allclose(dm[:, i], ds, rtol=1e-12)


def test_generalized_inverse_of_zero_is_zero():
    zero = lambda lam: np.zeros_like(np.asarray(lam, dtype=float))
    r = tr.generalized_inverse(zero, P1, [0.0, 0.5, 2.0])
    assert np.all(r.values == 0.0)


# unsorted, with duplicates; at x_cut 40 the lams fall in the 512, 1024,
# 2048 and 4096-node grids, the first holding more lams than one chunk,
# and the smallest ones put every node on the series path
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
    assert all(panels.filon(l) is not None for l in _FILON_LAMS)
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
    expx = lambda x: np.exp(-np.asarray(x, dtype=float))
    batch = tr._ForwardEvaluator(expx, tr._generalized_pair(P1))(_BATCH_LAMS)
    single = tr._ForwardEvaluator(expx, tr._generalized_pair(P1))
    one_by_one = np.array([single(l)[0] for l in _BATCH_LAMS])
    assert np.max(np.abs(batch - one_by_one)) <= 1e-15


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
        count[0] += np.size(lams) * np.size(xs)
        return kernel(lams, xs, params)

    def counted_filon(grid, lams, A, B):
        count[0] += grid.x.size * np.size(lams)
        return filon_sum(grid, lams, A, B)

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

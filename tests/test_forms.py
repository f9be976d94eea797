"""Differential expression, boundary forms, endpoint limits, jump operator."""

import math

import numpy as np
import pytest

from bessel4 import forms as F
from bessel4.equation import equation_op
from bessel4.frobenius import y4_series
from bessel4.quadrature import ConvergenceError
from bessel4.solutions import (Params, SolutionHandle, SolutionKind,
                               spectral_value)

P1 = Params(1.0)
ONE = F.SeriesBundle.monomial(0)
X1 = F.SeriesBundle.monomial(1)
XSQ = F.SeriesBundle.monomial(2)


def test_expression_on_constants_and_squares():
    assert F.apply_expression(ONE, 1.3, P1) == 0.0
    # symbolic oracle: (x (x^2)'')'' - ((9/x + 8x/M)(x^2)')' = -32 x / M
    for M in (1.0, 2.5):
        for x in (0.3, 1.7):
            assert F.apply_expression(XSQ, x, Params(M)) == \
                pytest.approx(-32.0 * x / M, rel=1e-13)


def test_solution_satisfies_equation_pointwise():
    h = SolutionHandle(SolutionKind.jtype, 1.0, P1)
    hb = F.SolutionBundle(h)
    for x in (0.05, 0.7, 4.0):
        lhs = F.apply_expression(hb, x, P1)
        rhs = h.Lambda * x * hb.derivs(np.array([x]), 0)[0][0]
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_residual_checker_not_vacuous():
    grid = np.linspace(0.5, 3, 7)
    r = F.residual_expression(XSQ, 0.0, grid, P1)
    assert r > 1.0  # |{-32x/M}| / 1 on the grid


@pytest.mark.parametrize("lam,M", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5),
                                   (1.0, 4.0)])
@pytest.mark.parametrize("kind", list(SolutionKind))
def test_residual_small_on_acceptance_grid(kind, lam, M):
    P = Params(M)
    h = SolutionHandle(kind, lam, P)
    grid = np.geomspace(0.01, 30.0, 40)
    assert F.residual_expression(h, spectral_value(lam, P), grid, P) < 1e-6


def test_symplectic_form_antisymmetry_and_value():
    # [1, x^2](x) = 16 + 16 x^2 / M exactly
    for x in (1e-3, 0.02, 0.5):
        v = F.symplectic_form(ONE, XSQ, x, P1)
        assert v == pytest.approx(16.0 + 16.0 * x * x, rel=1e-12)
        assert F.symplectic_form(XSQ, ONE, x, P1) == pytest.approx(-v, rel=1e-12)
    assert F.symplectic_form(XSQ, XSQ, 0.01, P1) == 0.0


def test_symplectic_1_x_diverges():
    vals = [abs(F.symplectic_form(ONE, X1, x, P1)) for x in (1e-2, 1e-3, 1e-4)]
    assert vals[2] > vals[1] > vals[0]
    assert vals[2] == pytest.approx(9e4, rel=1e-3)  # 9/x growth rate


def test_green_constancy_same_spectral_value():
    hj = SolutionHandle(SolutionKind.jtype, 1.0, P1)
    hy = SolutionHandle(SolutionKind.ytype, 1.0, P1)
    xs = np.linspace(0.5, 5.0, 17)
    vals = F.symplectic_form(hj, hy, xs, P1)
    assert (vals.max() - vals.min()) / abs(vals.mean()) < 1e-8


def test_greens_identity_closed_form_case():
    # f = x^2, g = 1 on [1, 2]: both sides equal -48/M
    assert F.greens_check(XSQ, ONE, 1.0, 2.0, P1) < 1e-9
    assert F.greens_check(XSQ, XSQ, 1.0, 2.0, P1) < 1e-12


def test_greens_identity_solution_pair():
    hj = SolutionHandle(SolutionKind.jtype, 1.0, P1)
    hk = SolutionHandle(SolutionKind.ktype, 1.0, P1)
    assert F.greens_check(hj, hk, 0.5, 3.0, P1, tol=1e-10) < 1e-7


def test_dirichlet_identity_cases():
    hi = SolutionHandle(SolutionKind.itype, 1.0, P1)
    assert F.dirichlet_check(hi, hi, 0.5, 2.0, P1, tol=1e-10) < 1e-7
    # on [0.5, 3] the integrals reach 5.6e7, whose rounding floor lies
    # above 1e-10: the check integrates to the floor instead
    assert F.dirichlet_check(hi, hi, 0.5, 3.0, P1, tol=1e-10) < 1e-7
    assert F.dirichlet_check(XSQ, XSQ, 1.0, 2.0, P1) < 1e-9
    assert F.dirichlet_check(ONE, XSQ, 1.0, 2.0, P1) < 1e-12


def test_dirichlet_check_reports_nonconvergence():
    class NanBundle(F.FnBundle):
        def derivs(self, x, order=4):
            return np.full((order + 1, np.size(x)), np.nan)

    assert F.dirichlet_check(NanBundle(), XSQ, 1.0, 2.0, P1) == np.inf
    assert F.greens_check(NanBundle(), XSQ, 1.0, 2.0, P1) == np.inf
    with pytest.raises(ConvergenceError):
        F.dirichlet_integral(NanBundle(), P1)


def test_dirichlet_form_zero_cases():
    assert F.dirichlet_form(ONE, XSQ, 0.5, P1) == 0.0  # f constant
    hz = F.SeriesBundle(F.LogPowerSeries({}))
    assert F.dirichlet_form(XSQ, hz, 0.5, P1) == 0.0  # g = 0


def test_dirichlet_form_boundary_identity():
    # [f, g]_D(0+) = 8 f''(0) g(0) on regular solution pairs
    hj = F.SolutionBundle(SolutionHandle(SolutionKind.jtype, 1.0, P1))
    hi = F.SolutionBundle(SolutionHandle(SolutionKind.itype, 1.0, P1))
    grid = 1e-2 / 2.0 ** np.arange(5)
    bj = F.boundary_data(hj, P1)
    v = F._ladder(F.dirichlet_form(hj, hi, grid, P1))
    assert v == pytest.approx(8.0 * bj.f2 * 1.0, rel=1e-6)


# the operator-calculus box, lambda in [0.2, 3] and M in [0.5, 2]: its
# corners and seeded log-uniform draws
_RNG = np.random.default_rng(21)
_BOX = [(0.2, 0.5), (0.2, 2.0), (3.0, 0.5), (3.0, 2.0)] + [
    (round(float(np.exp(_RNG.uniform(np.log(0.2), np.log(3.0)))), 4),
     round(float(np.exp(_RNG.uniform(np.log(0.5), np.log(2.0)))), 4))
    for _ in range(12)]


@pytest.mark.parametrize("lam,M", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)] + _BOX)
@pytest.mark.parametrize("kind", [SolutionKind.jtype, SolutionKind.itype])
def test_boundary_data_regular_solutions(kind, lam, M):
    # read from the series at 0: f(0) is BT-NORM's exact 1
    P = Params(M)
    b = F.boundary_data(F.SolutionBundle(SolutionHandle(kind, lam, P)), P)
    assert b.f0 == 1.0
    L = spectral_value(lam, P)
    assert b.f2 == pytest.approx(-M * L / 16.0, rel=1e-15)


def _mp_candidate_boundary(mu, M):
    """(f(0), f''(0)) of the decaying candidate from mpmath's K0 and K1 at
    120 digits: f(1e-40), and 2 (f(x) - f(0))/x^2 at x = 1e-12, whose
    next term is O(x^2 ln x)."""
    import mpmath as mp
    with mp.workdps(120):
        M, mu = mp.mpf(M), mp.mpf(mu)
        s = mp.sqrt(16 / M ** 2 + mu)
        rates = ((1, mp.sqrt(4 / M - s)), (-1, mp.sqrt(4 / M + s)))

        def f(x):
            return sum(sign * ((M * a * a / 4 - 1) * mp.besselk(0, a * x)
                               + a * M / 2 / x * mp.besselk(1, a * x))
                       for sign, a in rates)

        f0, x = f(mp.mpf("1e-40")), mp.mpf("1e-12")
        return float(f0), float(2 * (f(x) - f0) / x ** 2)


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_boundary_data_decaying_candidate(M):
    from bessel4.spectral import DecayingCandidateBundle
    P = Params(M)
    for frac in (1e-3, 0.1, 0.5, 0.9, 0.99):
        mu = -(16.0 / M ** 2) * frac
        b = F.boundary_data(DecayingCandidateBundle(mu, P), P)
        f0, f2 = _mp_candidate_boundary(mu, M)
        assert b.f0 == pytest.approx(f0, rel=1e-12)
        assert b.f2 == pytest.approx(f2, rel=1e-12)


def test_boundary_data_pure_power_series():
    fs = y4_series(1.0, P1, N=20)
    b = F.boundary_data(F.SeriesBundle(fs.series), P1)
    assert abs(b.f0) < 1e-12 and abs(b.f2) < 1e-10


def test_boundary_cross_check_rejects_singular_function():
    # below x^4 only 1 and x^2 stay in the maximal domain; any other term,
    # at any size, rejects f: x^-2, ln x, x ln x, x^2 ln x, x and x^3
    terms = [(-2, 0), (0, 1), (1, 1), (2, 1), (1, 0), (3, 0)]
    outside = [F.SeriesBundle(F.LogPowerSeries(
        {(0, 0): 1.0, (2, 0): 1.0, (p, d): 1e-300})) for p, d in terms]
    outside += [SolutionHandle(SolutionKind.ytype, 1.0, P1),
                F.PolyGaussBundle([1.0, 0.0, 0.0, 1e-300]),
                F.PolyGaussBundle([0.0, 1.0])]
    for f in outside:
        with pytest.raises(F.NotInMaximalDomain):
            F.boundary_data(f, P1)
    ok = F.boundary_data(F.SeriesBundle(F.LogPowerSeries(
        {(0, 0): 1.0, (2, 0): 1.0, (4, 1): 1.0, (5, 0): 1.0})), P1)
    assert (ok.f0, ok.f2) == (1.0, 2.0)


def test_boundary_data_needs_a_series_or_exact_data():
    with pytest.raises(ValueError, match="neither a local series") as err:
        F.boundary_data(F.PlateauBundle(1.0, 3.0), P1)
    assert not isinstance(err.value, F.NotInMaximalDomain)


def test_jump_operator_values():
    # zero second derivative at 0 gives zero at the origin
    fs = F.SeriesBundle(y4_series(1.0, P1, N=16).series)
    assert F.apply_jump_operator(fs, 2.0, 0.0, P1) == pytest.approx(0.0, abs=1e-9)
    hi = F.SolutionBundle(SolutionHandle(SolutionKind.itype, 1.0, P1))
    b = F.boundary_data(hi, P1)
    v = F.apply_jump_operator(hi, 2.0, 0.0, P1)
    assert v == pytest.approx(-4.0 * b.f2, rel=1e-12)
    # x > 0 branch: expression / x
    x = 0.8
    v = F.apply_jump_operator(hi, 2.0, x, P1)
    assert v == pytest.approx(F.apply_expression(hi, x, P1) / x, rel=1e-13)


def test_higher_order_expressions():
    # constants are annihilated at both orders
    for order in (6, 8):
        assert F.apply_higher_order(order, ONE, 1.3, P1) == 0.0
    # order 6 on x^2: symbolic expansion oracle
    M = P1.M
    x = 1.2
    op = equation_op(6, P1)
    stack = XSQ.derivs(np.array([x]), 6)
    got = op.evaluate_on(stack, np.array([x]))[0]
    # independent hand expansion: (225/x + 96 x^3/M)(2x) = 450 + 192 x^4 / M,
    # derivative 768 x^3 / M, so the expression equals -768 x^3 / M
    assert got == pytest.approx(-768.0 * x ** 3 / M, rel=1e-12)
    assert F.apply_higher_order(6, XSQ, x, P1) == pytest.approx(got, rel=1e-12)


@pytest.mark.parametrize("order,nu", [(6, 1), (8, 2)])
def test_higher_order_sturm_liouville_limit(order, nu):
    # f = J_nu(lam x)/x^nu solves -(x^w f')' = lam^2 x^w f, w = 2 nu + 1 =
    # order - 3; multiplying the order-n identity by M must recover it as
    # M -> 0.  f is the 40-term power series, so the derivatives are exact.
    from bessel4.frobenius import spectral_value_higher
    lam = 1.3
    f = F.SeriesBundle(F.LogPowerSeries({
        (2 * k, 0): (-1) ** k * (lam / 2.0) ** (2 * k + nu)
        / (math.factorial(k) * math.factorial(k + nu)) for k in range(40)}))
    xs = np.array([0.7, 1.9])
    devs = []
    for M in (1.0, 0.1, 0.01):
        P = Params(M)
        op = equation_op(order, P)
        lhs = M * op.evaluate_on(f.derivs(xs, order), xs)
        rhs = M * spectral_value_higher(order, lam, P) * xs ** (order - 3) \
            * f.derivs(xs, 0)[0]
        devs.append(np.max(np.abs(lhs - rhs)))
    # the defect of the scaled identity vanishes linearly in M
    assert devs[1] == pytest.approx(devs[0] / 10.0, rel=1e-3)
    assert devs[2] == pytest.approx(devs[0] / 100.0, rel=1e-3)


def test_dirichlet_integral_converges_for_decaying_candidates():
    from bessel4.spectral import decaying_regular_solution
    cand = decaying_regular_solution(-1.0, P1)
    total, tail = F.dirichlet_integral(cand.fn, P1, upper=40.0)
    assert np.isfinite(total) and tail < 1e-10


def test_energy_identity_and_minimal_positivity():
    # (T1 f, f) = 8 f''(0) f(0) + Dirichlet integral; >= 0 when the
    # boundary data vanishes
    from bessel4.quadrature import adaptive_quad
    suite = [F.PolyGaussBundle([0, 0, 0, 0, 1.0], 0.5),
             F.PolyGaussBundle([0, 0, 0, 0, 0, 1.0], 1.0),
             F.PolyGaussBundle([0, 0, 0, 0, 2.0, 0, 0.3], 0.5)]
    for f in suite:
        d, _ = F.dirichlet_integral(f, P1, upper=30.0)
        direct = adaptive_quad(
            lambda x: F.apply_expression(f, x, P1) * f.derivs(x, 0)[0],
            0.0, 30.0, tol=1e-10).value
        f0, f2 = f.boundary_exact()
        assert direct == pytest.approx(8.0 * f2 * f0 + d, rel=1e-5, abs=1e-8)
        assert d >= -1e-8 and direct >= -1e-8


def test_plateau_bundle_is_exact_plateau():
    p = F.PlateauBundle(1.0, 3.0)
    xs = np.array([0.2, 1.0, 2.0, 3.0, 4.0])
    d = p.derivs(xs, 4)
    assert d[0][0] == 1.0 and d[0][1] == 1.0 and d[0][3] == 0.0 and d[0][4] == 0.0
    assert np.all(d[1:, [0, 1, 3, 4]] == 0.0)
    assert 0.0 < d[0][2] < 1.0
    # ramp derivatives agree with finite differences of the value
    f = lambda x: p.derivs(np.atleast_1d(x), 0)[0]
    for x0 in (1.5, 2.0, 2.5):
        fd = (f(x0 - 2e-5) - 8 * f(x0 - 1e-5) + 8 * f(x0 + 1e-5)
              - f(x0 + 2e-5)) / (12e-5)
        assert d_ratio(p.derivs(np.atleast_1d(x0), 1)[1][0], fd[0]) < 1e-8


def d_ratio(a, b):
    return abs(a - b) / (abs(b) + 1e-12)


def test_product_bundle_leibniz_against_finite_differences():
    h = F.SolutionBundle(SolutionHandle(SolutionKind.jtype, 1.0, P1))
    g = F.PolyGaussBundle([1.0], 0.5)
    prod = F.ProductBundle(h, g)
    f = lambda x: prod.derivs(np.atleast_1d(x), 0)[0][0]
    x0 = 1.3
    fd1 = (f(x0 - 2e-4) - 8 * f(x0 - 1e-4) + 8 * f(x0 + 1e-4)
           - f(x0 + 2e-4)) / (12e-4)
    d = prod.derivs(np.atleast_1d(x0), 2)
    assert d_ratio(d[1][0], fd1) < 1e-8


def test_jump_form_positivity_on_cutoff_solution_combinations():
    # f = (a jtype + b itype) * plateau stays in the maximal domain with
    # f(0) = a + b; the atom of the jump form exactly cancels the
    # boundary term of the energy identity, leaving the Dirichlet
    # integral, which is nonnegative
    from bessel4.quadrature import adaptive_quad
    plateau = F.PlateauBundle(0.8, 2.5)
    for (a, b) in ((1.0, 0.0), (0.5, 0.5), (1.0, -2.0)):
        combo = F.LinComboBundle(
            [a, b],
            [F.SolutionBundle(SolutionHandle(SolutionKind.jtype, 1.0, P1)),
             F.SolutionBundle(SolutionHandle(SolutionKind.itype, 1.0, P1))])
        f = F.ProductBundle(combo, plateau)
        bdata = F.boundary_data(f, P1)
        assert bdata.f0 == pytest.approx(a + b, rel=1e-6, abs=1e-9)
        L = spectral_value(1.0, P1)
        assert bdata.f2 == pytest.approx(-(a + b) * L / 16.0, rel=1e-5,
                                         abs=1e-8)
        for k in (0.5, P1.M / 2.0):
            atom = k * F.apply_jump_operator(f, k, 0.0, P1) \
                * bdata.f0
            # absolute tolerances sized to the O(1e3) integrand magnitude
            body = adaptive_quad(
                lambda x: F.apply_expression(f, x, P1) * f.derivs(x, 0)[0],
                0.0, 3.0, tol=1e-4).value
            dirichlet, _ = F.dirichlet_integral(f, P1, upper=3.0, tol=1e-4)
            total = atom + body
            assert total >= -1e-8
            assert total == pytest.approx(dirichlet, rel=2e-5, abs=1e-3)


def test_positivity_of_frobenius_based_cutoff_functions():
    # the pure-power solution times a gaussian has vanishing boundary
    # data; its energy form must be nonnegative
    from bessel4.quadrature import adaptive_quad
    fs = y4_series(1.0, P1, N=16)
    f = F.ProductBundle(F.SeriesBundle(fs.series), F.PolyGaussBundle([1.0], 0.5))
    val = adaptive_quad(
        lambda x: F.apply_expression(f, x, P1) * f.derivs(x, 0)[0],
        0.0, 30.0, tol=1e-9).value
    d, _ = F.dirichlet_integral(f, P1, upper=30.0)
    assert val >= -1e-8 and d >= -1e-8
    assert val == pytest.approx(d, rel=1e-5)

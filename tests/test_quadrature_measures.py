"""Quadrature engines and the atom-plus-density measures."""

import warnings

import numpy as np
import pytest

from bessel4 import classical as cb
from bessel4 import quadrature
from bessel4.measures import (_graded_edges, inner_product, jump_measure,
                              lebesgue_x, spectral_measure,
                              spectral_total_mass)
from bessel4.quadrature import (_adaptive_steps, _lockstep,
                                _oscillatory_steps, adaptive_quad,
                                oscillatory_semi_infinite, wynn_epsilon)


def test_polynomial_and_sine():
    assert adaptive_quad(lambda x: x, 0, 1).value == pytest.approx(0.5, abs=1e-14)
    assert adaptive_quad(np.sin, 0, np.pi).value == pytest.approx(2.0, abs=1e-12)


def test_log_endpoint_singularity():
    r = adaptive_quad(np.log, 0, 1, singular=("left",))
    assert r.value == pytest.approx(-1.0, abs=1e-9)
    assert r.converged


def test_inverse_sqrt_singularity_both_sides():
    f = lambda x: 1.0 / np.sqrt(x * (1 - x))
    r = adaptive_quad(f, 0, 1, singular=("left", "right"))
    assert r.value == pytest.approx(np.pi, abs=1e-7)


def test_reversed_interval_and_empty():
    assert adaptive_quad(np.sin, np.pi, 0).value == pytest.approx(-2.0, abs=1e-12)
    assert adaptive_quad(np.sin, 1.0, 1.0).value == 0.0


HONESTY_CASES = [
    (lambda x: x ** 3, 0, 2, 4.0),
    (np.cos, 0, 1, np.sin(1.0)),
    (lambda x: np.exp(-x), 0, 5, 1 - np.exp(-5.0)),
    (lambda x: 1 / (1 + x * x), 0, 1, np.pi / 4),
    (lambda x: np.sin(10 * x), 0, np.pi, (1 - np.cos(10 * np.pi)) / 10.0),
    (lambda x: x ** 7 - 3 * x ** 2, -1, 1, -2.0),
    (lambda x: np.sqrt(np.abs(x)) * x * x, 0, 1, 2.0 / 7.0),
    (lambda x: np.cosh(x), 0, 2, np.sinh(2.0)),
    (lambda x: np.exp(x) * np.sin(3 * x),
     0, 2, (np.exp(2) * (np.sin(6) - 3 * np.cos(6)) + 3) / 10.0),
    (lambda x: 1 / np.sqrt(4 - x * x), 0, 1, np.arcsin(0.5)),
    (lambda x: np.log1p(x), 0, 3, 4 * np.log(4.0) - 3),
    (lambda x: x * np.exp(-x * x), 0, 4, 0.5 * (1 - np.exp(-16.0))),
    (lambda x: np.sin(x) ** 2, 0, np.pi, np.pi / 2),
    (lambda x: x ** 10, 0, 1, 1.0 / 11.0),
    (lambda x: np.tanh(x), 0, 1, np.log(np.cosh(1.0))),
    (lambda x: 1 / (2 + np.cos(x)), 0, 2 * np.pi, 2 * np.pi / np.sqrt(3.0)),
    (lambda x: np.abs(x - 0.3), 0, 1, 0.5 * (0.09 + 0.49)),
    (lambda x: np.exp(-3 * x) * np.cos(x), 0, 10,
     (3 - np.exp(-30) * (3 * np.cos(10) - np.sin(10))) / 10.0),
    (lambda x: x ** 1.5, 0, 1, 0.4),
    (lambda x: np.cos(x) * np.cos(2 * x), 0, np.pi / 2,
     (np.sin(np.pi / 2) / 2 + np.sin(3 * np.pi / 2) / 6)),
]


def test_error_estimates_are_honest():
    for f, a, b, exact in HONESTY_CASES:
        r = adaptive_quad(f, a, b, tol=1e-9)
        true_err = abs(r.value - exact)
        assert true_err <= max(2.0 * r.error, 1e-12), (exact, r)


def test_dirichlet_integral():
    def sinc(x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 1.0, np.sin(safe) / safe)
    r = oscillatory_semi_infinite(sinc, np.pi, tol=1e-8)
    assert r.converged and r.value == pytest.approx(np.pi / 2.0, abs=1e-8)


def test_j0_full_line_integral():
    r = oscillatory_semi_infinite(cb.j0, np.pi, tol=1e-6)
    assert r.converged and r.value == pytest.approx(1.0, abs=1e-6)


def test_zero_integrand():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    r = oscillatory_semi_infinite(zero, 1.0, tol=1e-8)
    assert r.value == 0.0 and r.converged


def test_wynn_on_geometric_partial_sums():
    sums = np.cumsum([(-0.8) ** k for k in range(12)])
    est, stab = wynn_epsilon(sums)
    assert est == pytest.approx(1.0 / 1.8, abs=1e-12)


def test_wynn_on_constant_sequence():
    est, _ = wynn_epsilon([2.0] * 6)
    assert est == 2.0


def test_inner_product_exponential_against_jump_measure():
    f = lambda x: np.exp(-np.asarray(x, dtype=float))
    for k in (0.25, 1.0, 3.0):
        v = inner_product(f, f, jump_measure(k))
        assert v == pytest.approx(k + 0.25, abs=1e-10)


def test_zero_function_any_measure():
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    for mu in (jump_measure(1.0), lebesgue_x(), spectral_measure(1.0)):
        assert inner_product(z, z, mu) == 0.0


def test_spectral_measure_mass_and_consistency():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    for M in (0.5, 1.0, 4.0):
        v = inner_product(one, one, spectral_measure(M))
        assert v == pytest.approx(spectral_total_mass(M), abs=1e-8)
    f = lambda x: np.exp(-np.asarray(x, dtype=float))
    g = lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2)
    k = 0.7
    a = inner_product(f, g, jump_measure(k))
    b = inner_product(f, g, lebesgue_x())
    assert a - k * f(0.0) * g(0.0) == pytest.approx(b, abs=1e-14)


def test_measure_validation():
    with pytest.raises(ValueError):
        jump_measure(0.0)
    with pytest.raises(ValueError):
        spectral_measure(-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measures_reject_nonfinite_parameters(bad):
    with pytest.raises(ValueError):
        spectral_measure(bad)
    with pytest.raises(ValueError):
        jump_measure(bad)


def test_integrand_sees_only_arrays_inside_the_interval():
    calls = []

    def f(x):  # y0(x - 1) raises ValueError for x <= 1
        calls.append(np.array(x, dtype=float))
        return cb.y0(x - 1.0)

    ncalls = npairs = 0
    for singular in ((), ("left",), ("right",), ("left", "right")):
        calls.clear()
        r = adaptive_quad(f, 2.0, 3.0, tol=1e-10, singular=singular)
        assert r.converged
        assert r.value == pytest.approx(0.35487652652232226, abs=1e-9)
        # one call per round of bisections, on whole 21-node panels
        assert all(c.size % 21 == 0 for c in calls)
        assert sum(c.size for c in calls) == r.neval
        ncalls, npairs = ncalls + len(calls), npairs + r.neval // 21
        assert all(c.ndim == 1 and np.all((c > 2.0) & (c < 3.0)) for c in calls)
    assert ncalls < npairs
    calls.clear()
    oscillatory_semi_infinite(lambda x: f(x + 2.0), np.pi, tol=1e-6)
    assert calls and all(c.ndim == 1 and np.all(c > 2.0) for c in calls)


def test_first_bracket_call_holds_head_panel_and_sixteen_brackets():
    # no converged exit reads fewer than 16 bracket sums, so the first call
    # takes the head's first panel (21 nodes) and brackets 0-15 (10 Gauss
    # nodes each) together
    calls = []

    def f(x):
        calls.append(np.array(x, dtype=float))
        return cb.j0(x)

    h = np.pi
    r = oscillatory_semi_infinite(f, h, tol=1e-6)
    assert r.converged and r.value == pytest.approx(1.0, abs=1e-6)
    first = calls[0]
    assert first.size == 21 + 16 * 10
    head, brackets = first[:21], first[21:].reshape(16, 10)
    assert np.all((head > 0.0) & (head < h))
    lo = h + h * np.arange(16)
    assert np.all((brackets > lo[:, None]) & (brackets < lo[:, None] + h))
    # later calls: a round of the head's bisections, or 8 more brackets
    assert all(c.size % 42 == 0 or c.size == 8 * 10 for c in calls[1:])


@pytest.mark.parametrize("start", [0.0, -1.0, np.nan])
def test_oscillatory_head_must_have_positive_length(start):
    with pytest.raises(ValueError):
        oscillatory_semi_infinite(cb.j0, np.pi, start=start)


def test_integrand_overflow_is_quiet_in_every_call():
    # exp overflows from bracket 16 on (x > 680), past the first call;
    # every integrand call runs under the same floating-point state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = oscillatory_semi_infinite(np.exp, 40.0, max_brackets=24)
    assert not r.converged


def test_lockstep_integrals_match_one_at_a_time():
    # integrals run side by side share each integrand call, one per round
    # of the slowest, and each returns its lone result bit for bit
    rates = np.array([1.0, 30.0, 0.2, 3.0])
    calls = []

    def f(x, which):
        calls.append(x.size)
        return np.cos(rates[which] * x) * np.exp(-x)

    def steps():
        return [_adaptive_steps([0.0, 3.0], 1e-12, 4000),
                _oscillatory_steps(np.pi / 30.0, 1e-9, 0.5, 140, None),
                _adaptive_steps([-1.0, 2.0], 1e-10, 50),
                _adaptive_steps(_graded_edges(10.0), 1e-12, 4000)]

    together = _lockstep(f, steps())
    rounds, alone, alone_rounds = len(calls), [], []
    for i, s in enumerate(steps()):
        calls.clear()
        alone.append(_lockstep(lambda x, _: f(x, np.full(x.size, i)), [s])[0])
        alone_rounds.append(len(calls))
    assert together == alone
    assert rounds == max(alone_rounds) < sum(alone_rounds)


@pytest.mark.parametrize("b, edges", [
    (8.0, [0.0, 2.0, 4.0, 8.0]),
    (10.0, [0.0, 1.25, 2.5, 5.0, 10.0]),
    (60.0, [0.0, 1.875, 3.75, 7.5, 15.0, 30.0, 60.0]),
    (80.0, [0.0, 1.25, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0]),
    (1.5, [0.0, 1.5]),
])
def test_graded_edges_halve_toward_zero(b, edges):
    # dyadic toward 0 from b, with the smallest panel the first at or
    # below 2: the partition that bisecting [0, b] toward 0 ends on
    got = _graded_edges(b)
    assert got.tolist() == edges
    assert got[0] == 0.0 and got[-1] == b and got[1] <= 2.0
    assert np.all(got[2:] == 2.0 * got[1:-1])
    assert got.size == 2 or got[2] > 2.0


def test_graded_first_round_is_one_call():
    # every panel of the first round in one integrand call; [a, b] alone
    # is adaptive_quad, bit for bit
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x) * x

    r = quadrature._single(f, _adaptive_steps(_graded_edges(60.0), 1e-8, 400))
    assert calls[0] == 6 * 21 and r.neval == sum(calls)
    assert r.value == pytest.approx(1.0 - 61.0 * np.exp(-60.0), abs=1e-8)
    one = quadrature._single(f, _adaptive_steps([0.0, 60.0], 1e-8, 400))
    assert one == adaptive_quad(f, 0.0, 60.0, tol=1e-8, max_panels=400)


@pytest.mark.parametrize("f, a, b, singular, tol, exact", [
    (lambda x: x ** 19, 0.0, 1.0, (), 1e-14, 1.0 / 20.0),
    (np.sin, 0.0, np.pi, (), 1e-12, 2.0),
    (lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, (), 1e-10,
     200.0 * np.arctan(100.0)),
    (np.log, 0.0, 1.0, ("left",), 1e-8, -1.0),
])
def test_batched_core_meets_tol_on_exact_integrals(f, a, b, singular, tol, exact):
    r = adaptive_quad(f, a, b, tol=tol, singular=singular)
    assert r.converged and r.error <= tol
    assert abs(r.value - exact) <= tol


def test_degree_19_polynomial_takes_one_panel():
    # the 10-point rule is exact to degree 19, so G10 and K21 agree
    r = adaptive_quad(lambda x: x ** 19, 0.0, 1.0, tol=1e-14)
    assert r.neval == 21


def test_batched_core_splits_many_panels_per_call():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return 1.0 / (1e-4 + x * x)

    r = adaptive_quad(f, -1.0, 1.0, tol=1e-10)
    assert r.converged and sum(sizes) == r.neval
    assert all(n % 21 == 0 for n in sizes)
    assert len(sizes) < r.neval // 21


@pytest.mark.parametrize("max_panels", [1, 2, 4, 7, 50])
def test_max_panels_caps_bisections(max_panels):
    r = adaptive_quad(lambda x: np.sin(50.0 * x), 0.0, 20.0, tol=1e-12,
                      max_panels=max_panels)
    assert r.neval <= 21 + 42 * max_panels
    assert not r.converged


def test_jump_with_zero_tol_terminates():
    # the panel holding 1/3 is bisected down to float resolution, where
    # it is set aside; every other panel has a constant integrand
    r = adaptive_quad(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0,
                      tol=0.0)
    assert r.neval <= 21 + 42 * 4000
    assert r.value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_scalar_valued_integrand_raises():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: float(np.sum(x)), 0.0, 1.0, singular=("left",))
    with pytest.raises(ValueError):
        oscillatory_semi_infinite(lambda x: 0.0, 1.0)


def test_inner_product_signals_nonconvergence():
    from bessel4.quadrature import ConvergenceError
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    with pytest.raises(ConvergenceError):
        inner_product(one, one, lebesgue_x())  # integral of x dx diverges


def test_adaptive_quad_reports_exhaustion():
    # far too few panels for the oscillation: best estimate plus honest flag
    r = adaptive_quad(lambda x: np.sin(50.0 * x), 0.0, 20.0, tol=1e-12,
                      max_panels=4)
    assert not r.converged
    assert np.isfinite(r.value) and r.error > 1e-12


def test_kronrod_table_is_symmetric_nested_and_exact():
    mp = pytest.importorskip("mpmath")
    x, wk, wg = quadrature._K21_X, quadrature._K21_W, quadrature._G10_W
    assert x.size == wk.size == 21 and wg.size == 10
    assert np.array_equal(x, -x[::-1]) and x[10] == 0.0
    assert np.array_equal(wk, wk[::-1]) and np.array_equal(wg, wg[::-1])
    assert np.all(np.diff(x) > 0.0) and np.all(wk > 0.0) and np.all(wg > 0.0)
    # G10 is nested: its nodes are K21's odd ones
    gx = quadrature._gauss(10)[0]
    assert np.all(np.abs(x[1::2] - gx) <= np.spacing(np.abs(gx)))
    mp.mp.dps = 40
    try:
        def worst(nodes, weights, degree):
            nodes = [mp.mpf(float(v)) for v in nodes]
            weights = [mp.mpf(float(v)) for v in weights]
            return max(abs(mp.fsum(w * t ** k for t, w in zip(nodes, weights))
                           - (mp.mpf(2) / (k + 1) if k % 2 == 0 else 0))
                       for k in range(degree + 1))
        assert worst(x, wk, 31) <= 1e-15
        assert worst(x[1::2], wg, 19) <= 1e-15
        assert worst(x, wk, 32) > 1e-13  # and no further
    finally:
        mp.mp.dps = 15


def test_running_error_survives_a_non_finite_panel():
    # the first panel reads inf at one node and carries the error 1e300;
    # once its halves replace it, that error must leave the running total,
    # or the total cancels to about 0 and the loop stops after one round
    x0 = 1.5 + 1.5 * quadrature._K21_X[3]
    r = adaptive_quad(lambda x: np.where(x == x0, np.inf, np.cos(50.0 * x)),
                      0.0, 3.0, tol=1e-10)
    assert r.converged and r.neval > 21 + 42
    assert r.value == pytest.approx(np.sin(150.0) / 50.0, abs=1e-10)


def test_steps_at_seeded_positions_rarely_fail_silently():
    # a silent failure is a result flagged converged whose error exceeds
    # 10 max(tol, estimate); G10/K21 leaves 15 of 1000 at 1e-6 and 39 at
    # 1e-10 (the nested 10/20-point Gauss estimate left 683 and 920),
    # and a null-rule estimate is the step to none
    pos = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
    for tol, cap in ((1e-6, 20), (1e-10, 50)):
        silent = 0
        for s in pos:
            r = adaptive_quad(lambda x: (x > s).astype(float), 0.0, 1.0,
                              tol=tol)
            err = abs(r.value - (1.0 - s))
            silent += r.converged and err > 10.0 * max(tol, r.error)
        assert silent <= cap
    # the two jumps whose panels the 10/20-point estimate read as exact
    for s in (np.pi / 4.0, np.sqrt(2.0) - 1.0):
        r = adaptive_quad(lambda x: (x > s).astype(float), 0.0, 1.0, tol=1e-12)
        assert r.converged and abs(r.value - (1.0 - s)) <= max(1e-12, r.error)

"""Quadrature engines and the atom-plus-density measures."""

import numpy as np
import pytest

from bessel4 import classical as cb
from bessel4.measures import (inner_product, jump_measure, lebesgue_x,
                              spectral_measure, spectral_total_mass)
from bessel4.quadrature import (adaptive_quad, oscillatory_semi_infinite,
                                wynn_epsilon)


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

    for singular in ((), ("left",), ("right",), ("left", "right")):
        calls.clear()
        r = adaptive_quad(f, 2.0, 3.0, tol=1e-10, singular=singular)
        assert r.converged
        assert r.value == pytest.approx(0.35487652652232226, abs=1e-9)
        assert len(calls) == r.neval // 30  # one call per Gauss panel pair
        assert all(c.ndim == 1 and np.all((c > 2.0) & (c < 3.0)) for c in calls)
    calls.clear()
    oscillatory_semi_infinite(lambda x: f(x + 2.0), np.pi, tol=1e-6)
    assert calls and all(c.ndim == 1 and np.all(c > 2.0) for c in calls)


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

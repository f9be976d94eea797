"""Log-power series calculus and exact operator brackets."""

import mpmath as mp
import numpy as np
import pytest

from bessel4.logseries import (DiffOp, LogPowerSeries, frobenius_solve,
                               integer_roots)


def test_monomial_evaluate_and_derivative():
    s = LogPowerSeries.monomial(3, 2.0)
    assert s.evaluate(2.0) == 16.0
    d = s.derivative()
    assert d.coeff(2) == 6.0
    slog = LogPowerSeries({(2, 1): 1.0})
    d = slog.derivative()
    # (x^2 ln x)' = 2 x ln x + x
    assert d.coeff(1, 1) == 2.0 and d.coeff(1, 0) == 1.0
    x = 0.7
    assert slog.evaluate(x) == pytest.approx(x * x * np.log(x))


def test_indicial_bracket_annihilates_roots_exactly():
    # x D^4 + 2 D^3 - 9/x D^2 + 9/x^2 D has indicial roots 4, 2, 0, -2
    op = DiffOp([(1, 4, 1), (0, 3, 2), (-1, 2, -9), (-2, 1, 9)])
    for p in (4, 2, 0, -2):
        img = op.apply(LogPowerSeries.monomial(p))
        assert img.terms == {}, p
    img = op.apply(LogPowerSeries.monomial(3))
    assert img.coeff(0) == -15.0  # p(p-4)(p-2)(p+2) at 3


def test_indicial_polynomial_and_integer_roots():
    op = DiffOp([(1, 4, 1), (0, 3, 2), (-1, 2, -9), (-2, 1, 9)])
    coeffs = op.indicial_coeffs()
    # p^4 - 4p^3 - 4p^2 + 16p
    assert coeffs == [0, 16, -4, -4, 1]
    assert integer_roots(coeffs) == [4, 2, 0, -2]
    with pytest.raises(ValueError):
        integer_roots([1, 1, 1])  # no integer roots


def test_log_calculus_through_operator():
    # D^2 on x^2 ln x is 2 ln x + 3
    op = DiffOp([(0, 2, 1)])
    img = op.apply(LogPowerSeries({(2, 1): 1.0}))
    assert img.coeff(0, 1) == 2.0 and img.coeff(0, 0) == 3.0


def test_frobenius_solver_on_euler_equation():
    # x^2 y'' - 2 y = 0: exact solutions x^2 and x^-1
    op = DiffOp([(2, 2, 1), (0, 0, -2)])
    s = frobenius_solve(op, 2, 6)
    assert s.terms == {(2, 0): 1.0}
    s = frobenius_solve(op, -1, 6)
    assert s.terms == {(-1, 0): 1.0}


def test_frobenius_solver_forces_log_on_resonance():
    # x^2 y'' - x y' + y = 0: roots {1, 1} would need a double root; use
    # x^2 y'' + x y' - 1/4... instead take the equation with roots 2, 0:
    # x^2 y'' - x y' = 0 has roots {0, 2}; the root-0 solution is 1 (no log
    # forced because the recurrence never feeds power 2)
    op = DiffOp([(2, 2, 1), (1, 1, -1)])
    s = frobenius_solve(op, 0, 6)
    assert s.terms == {(0, 0): 1.0}


def test_operator_evaluate_on_derivative_stack():
    op = DiffOp([(1, 2, 1), (0, 0, -1.0)])
    xs = np.array([0.5, 2.0])
    # f = x^3: x f'' - f = 6x^2 - x^3
    stack = np.vstack([xs ** 3, 3 * xs ** 2, 6 * xs])
    out = op.evaluate_on(stack, xs)
    assert np.allclose(out, 6 * xs ** 2 - xs ** 3)


def _mp_sum(series, x):
    """Term-by-term sum at 40 digits, and the sum of the terms' magnitudes."""
    with mp.workdps(40):
        x = mp.mpf(float(x))
        terms = [mp.mpf(c) * x ** p * mp.log(x) ** d
                 for (p, d), c in series.items()]
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def _series_zoo():
    from bessel4 import frobenius as fr
    from bessel4.equation import equation_op
    from bessel4.solutions import Params
    P = Params(1.0)
    zoo = []
    for fs in fr.log_case_basis(1.0, P, N=24):
        zoo.extend(fs.series.derivatives(3))  # odd and negative powers
    # the order-8 member at root -6 carries ln^2 from x^-6 on
    zoo.append(frobenius_solve(equation_op(8, P, 1.0), -6, 20))
    # log degree 3, powers of gcd 1 and of gcd 3 in one series
    zoo.append(zoo[2] + LogPowerSeries({(-3, 3): 0.25, (0, 3): -1.5,
                                        (3, 3): 2.0, (9, 3): -0.125,
                                        (1, 2): 3.0, (2, 2): -0.5,
                                        (4, 2): 0.75}))
    return zoo


def test_evaluate_matches_mpmath_term_sum():
    # measured when this test was added: at most 5.6e-16 of the summed
    # term magnitudes (the ln^3 series), 3.6e-16 without log degree 3
    xs = np.geomspace(1e-3, 1.5, 9)
    for series in _series_zoo():
        got = series.evaluate(xs)
        for g, x in zip(got, xs):
            ref, mag = _mp_sum(series, x)
            assert abs(mp.mpf(float(g)) - ref) <= 1.2e-15 * mag, (series, x)


def test_evaluate_scalar_in_float_out():
    series = _series_zoo()[-1]
    v = series.evaluate(0.37)
    assert type(v) is float
    assert v == series.evaluate(np.array([0.37]))[0]
    assert LogPowerSeries().evaluate(0.5) == 0.0

"""The benchmark's oracles against the library and against mpmath.

Run with:  python3 -m pytest perfbench/tests -q
"""

import math

import mpmath
import numpy as np
import pytest

from bessel4 import Params, SolutionHandle, spectral_value
from bessel4 import forms, frobenius, spectral, transforms
from bessel4.fixtures import load_suite, parse_suite
from perfbench import oracles
from perfbench.workloads import WORKLOADS, Item

GAUSS = load_suite()[0]
EXPX = parse_suite("expx | exp(-x) | exp")[0]
LAMS = np.array([0.0, 0.3, 1.0, 2.5, 6.0, 11.0])


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_gaussian_closed_form_matches_library(M):
    lib = transforms.generalized_forward(GAUSS, Params(M), LAMS, x_cut=GAUSS.x_cut).values
    assert np.max(np.abs(lib - oracles.forward_gaussian(LAMS, M))) < 1e-13


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_expx_closed_form_matches_library(M):
    lib = transforms.generalized_forward(EXPX, Params(M), LAMS, x_cut=EXPX.x_cut).values
    assert np.max(np.abs(lib - oracles.forward_expx(LAMS, M))) < 1e-13


@pytest.mark.parametrize("fx,closed", [(GAUSS, oracles.forward_gaussian),
                                       (EXPX, oracles.forward_expx)])
def test_gauss_rule_reproduces_closed_forms(fx, closed):
    got = oracles.forward_quadrature(fx, LAMS, 1.3, fx.x_cut)
    assert np.max(np.abs(got - closed(LAMS, 1.3))) < 1e-13


@pytest.mark.parametrize("fx", [GAUSS, EXPX])
def test_parseval_mass_closed_form(fx):
    M = 0.7
    closed = oracles.parseval_mass(fx.name, fx, M, fx.x_cut)
    quad = oracles.parseval_mass("other", fx, M, fx.x_cut)
    assert closed == pytest.approx(M / 2.0 + 0.25, rel=1e-15)
    assert quad == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("kind", ["jtype", "ytype", "itype", "ktype"])
def test_solution_derivatives_against_mpmath(kind):
    lam, M = 1.3, 0.8
    a, A, B = oracles.solution_scale(kind, lam, M)
    c0, c1 = {"jtype": (mpmath.besselj, mpmath.besselj),
              "ytype": (mpmath.bessely, mpmath.bessely),
              "itype": (mpmath.besseli, mpmath.besseli),
              "ktype": (mpmath.besselk, mpmath.besselk)}[kind]
    zs = np.array([2e-3, 0.3, 4.0, 25.0])
    xs = zs / a
    vals, scales, logf = oracles.solution_derivs(kind, lam, M, zs)
    with mpmath.workdps(40):
        def f(x):
            z = a * x
            return A * c0(0, z) + B * c1(1, z) / z
        for j, x in enumerate(xs):
            for n in range(5):
                exact = float(mpmath.diff(f, mpmath.mpf(float(x)), n))
                got = vals[n, j] * math.exp(logf[j])
                assert abs(got - exact) <= 1e-13 * scales[n, j] * math.exp(logf[j])


@pytest.mark.parametrize("kind", ["jtype", "itype"])
@pytest.mark.parametrize("lam,M", [(0.5, 0.7), (2.0, 1.6)])
def test_regular_pair_boundary(kind, lam, M):
    P = Params(M)
    f0, f2 = oracles.regular_pair_boundary(kind, lam, M)
    assert f0 == 1.0
    assert f2 == pytest.approx(-M * spectral_value(lam, P) / 16.0, rel=1e-14)
    b = forms.boundary_data(SolutionHandle(kind, lam, P), P)
    assert b.f2 == pytest.approx(f2, rel=1e-6)


@pytest.mark.parametrize("mu,M", [(-0.01, 1.0), (-3.0, 1.0), (-12.0, 0.9), (-1.0, 2.0)])
def test_candidate_boundary(mu, M):
    P = Params(M)
    f0, f2 = oracles.candidate_boundary(mu, M)
    assert f0 == pytest.approx(spectral.candidate_value_at_zero(mu, P), rel=1e-13)
    b = spectral.decaying_regular_solution(mu, P).boundary
    assert b.f0 == pytest.approx(f0, rel=1e-8)
    assert b.f2 == pytest.approx(f2, rel=1e-6)
    e = spectral.extension_for_eigenvalue(mu, P)
    assert np.hypot(*(np.subtract((e.alpha, e.beta), oracles.extension_pair(mu, M)))) < 1e-6


def test_frobenius_residual_oracle_sees_a_wrong_coefficient():
    P = Params(1.0)
    L = spectral_value(0.8, P)
    xs = np.geomspace(0.02, 0.1, 5)
    for fs in frobenius.log_case_basis(L, P):
        terms = sorted(fs.series.items())
        assert oracles.fourth_order_residual(terms, L, 1.0, xs) < 1e-14
        # a relative error of 1e-6 in the first log block
        bent = [(k, c * (1.0 + 1e-6) if k == terms[1][0] else c) for k, c in terms]
        assert oracles.fourth_order_residual(bent, L, 1.0, xs) > 1e-12


def _check_fails_on_perturbed(name, i, perturb):
    w = WORKLOADS[name](7)
    inp = w.inputs(7, i)
    out = w.run(inp)
    assert all(it.ok for it in w.check(inp, out))
    assert not all(it.ok for it in w.check(inp, perturb(out)))


def test_eval_grid_check_catches_a_relative_error_of_1e_8():
    _check_fails_on_perturbed(
        "eval-grid", 0, lambda out: {k: v * (1.0 + 1e-8) for k, v in out.items()})


def test_transform_forward_check_catches_a_drift():
    _check_fails_on_perturbed(
        "transform-pair", -1, lambda out: (out[0] * (1.0 + 1e-3), out[1]))


def test_nonconverged_item_fails():
    assert not Item("x", 0.0, 1.0, converged=False).ok
    assert not Item("x", math.nan, 1.0).ok
    assert Item("x", 0.0, 0.0).ok

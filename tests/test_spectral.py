"""Extension calculus: boundary conditions, eigen candidates, scans."""

import numpy as np
import pytest

from bessel4 import spectral as sp
from bessel4.forms import BoundaryData, residual_expression
from bessel4.solutions import Params

P1 = Params(1.0)


def test_boundary_condition_evaluations():
    fried = sp.ExtensionParams.friedrichs()
    assert sp.extension_boundary_condition(fried, BoundaryData(0.0, 3.0)) == 0.0
    pure2 = sp.ExtensionParams.normalized(1.0, 0.0)
    assert sp.extension_boundary_condition(pure2, BoundaryData(5.0, 0.0)) == 0.0
    mixed = sp.ExtensionParams.normalized(1.0, 1.0)
    assert sp.extension_boundary_condition(mixed, BoundaryData(1.0, 2.0)) == \
        pytest.approx(0.0, abs=1e-15)


def test_normalization_conventions():
    e = sp.ExtensionParams.normalized(-2.0, 2.0)
    assert e.alpha == pytest.approx(np.sqrt(0.5)) and e.beta < 0
    assert np.hypot(e.alpha, e.beta) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sp.ExtensionParams.normalized(0.0, 0.0)


def test_decay_rates_window():
    a_minus, a_plus = sp.decay_rates(-1.0, P1)
    assert 0.0 < a_minus < a_plus
    # distinct strictly inside the window
    for mu in (-15.0, -1.0, -1e-3):
        am, ap = sp.decay_rates(mu, P1)
        assert ap - am > 0.0
    with pytest.raises(sp.DegenerateDecayError):
        sp.decay_rates(-16.0, P1)
    with pytest.raises(sp.DegenerateDecayError):
        sp.decay_rates(0.0, P1)
    # slow rate opens as mu -> 0-
    am, _ = sp.decay_rates(-1e-3, P1)
    assert am < 0.02


def test_candidate_is_regular_decaying_eigenfunction():
    cand = sp.decaying_regular_solution(-1.0, P1)
    assert np.isfinite(cand.boundary.f0) and np.isfinite(cand.boundary.f2)
    grid = np.geomspace(0.02, 15.0, 20)
    assert residual_expression(cand.fn, -1.0, grid, P1) < 1e-6
    # closed-form value at the origin
    assert cand.boundary.f0 == pytest.approx(
        sp.candidate_value_at_zero(-1.0, P1), rel=1e-6)


def test_candidate_series_vs_direct_seam():
    from bessel4.solutions import ktype_scale_derivs
    cand = sp.decaying_regular_solution(-2.0, P1)
    fn = cand.fn
    x = np.array([fn.series_valid_below * 0.98])
    series_side = fn.derivs(x, 3)
    direct_side = ktype_scale_derivs(fn.a_minus, 1.0, x, 3) \
        - ktype_scale_derivs(fn.a_plus, 1.0, x, 3)
    assert np.max(np.abs(series_side - direct_side)
                  / (np.abs(direct_side) + 1e-12)) < 1e-10
    # from order 5 on, x^4 ln x and x^6 ln x leave Laurent terms (24 l/x,
    # ...) that the series must keep; the direct difference cancels
    # digits further in, hence 1e-6
    x = fn.series_valid_below * np.array([0.3, 0.6, 0.98])
    series_side = fn.derivs(x, 6)
    direct_side = ktype_scale_derivs(fn.a_minus, 1.0, x, 6) \
        - ktype_scale_derivs(fn.a_plus, 1.0, x, 6)
    assert np.max(np.abs(series_side - direct_side)
                  / (np.abs(direct_side) + 1e-12)) < 1e-6


def test_extension_map_twenty_points():
    mus = -np.geomspace(15.0, 1e-3, 20)
    pairs = []
    for mu in mus:
        e = sp.extension_for_eigenvalue(float(mu), P1)
        assert abs(e.alpha) > 1e-6  # never the Friedrichs condition
        cand = sp.decaying_regular_solution(float(mu), P1)
        assert abs(sp.extension_boundary_condition(e, cand.boundary)) < 1e-8
        pairs.append((e.alpha, e.beta))
    arr = np.array(pairs)
    dist = np.sqrt(((arr[:, None, :] - arr[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, 1.0)
    assert dist.min() > 1e-6


def test_distinct_eigenvalues_distinct_extensions():
    e1 = sp.extension_for_eigenvalue(-1.0, P1)
    e2 = sp.extension_for_eigenvalue(-2.0, P1)
    assert np.hypot(e1.alpha - e2.alpha, e1.beta - e2.beta) > 1e-4


def test_sk_scan_no_eigenvalues():
    rep = sp.sk_no_eigenvalue_scan(1.0, P1, [-1.0])
    assert rep[0]["tested"] and rep[0]["defect"] > 1e-3
    rep = sp.sk_no_eigenvalue_scan(0.5, P1, -np.geomspace(10.0, 0.01, 10))
    assert all(r["defect"] > 1e-3 for r in rep if r["tested"])
    rep = sp.sk_no_eigenvalue_scan(1.0, P1, [-20.0])
    assert rep[0]["tested"] is False


def test_degenerate_window_reported():
    with pytest.raises(sp.DegenerateDecayError):
        sp.decaying_regular_solution(-17.0, P1)


@pytest.mark.parametrize("Lam", [1.0, 4.0, 25.0])
def test_oscillation_floor_positive_spectrum(Lam):
    assert sp.oscillation_floor(Lam, P1) > 0.05


def test_minimal_domain_positivity_random_combinations():
    # finite combinations with vanishing boundary data, cut off smoothly
    from bessel4.forms import PolyGaussBundle, dirichlet_integral
    combos = [([0, 0, 0, 0, 1.0], 0.5), ([0, 0, 0, 0, 0, 1.0], 0.5),
              ([0, 0, 0, 0, 1.0, -0.5], 1.0), ([0, 0, 0, 0, 0.5, 0, 1.0], 1.0)]
    for coeffs, sigma in combos:
        f = PolyGaussBundle(coeffs, sigma)
        d, _ = dirichlet_integral(f, P1, upper=30.0)
        assert d >= -1e-8

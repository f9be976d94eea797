"""Frobenius machinery: indicial roots, recurrences, log structure."""

import numpy as np
import pytest

from bessel4 import frobenius as fr
from bessel4.equation import equation_op
from bessel4.solutions import Params, SolutionHandle, SolutionKind, \
    eval_solution_derivs, spectral_value

EXPECTED_ROOTS = {4: [4, 2, 0, -2], 6: [6, 4, 2, 0, -2, -4],
                  8: [8, 6, 4, 2, 0, -2, -4, -6]}


@pytest.mark.parametrize("order", [4, 6, 8])
@pytest.mark.parametrize("Lam,M", [(0.0, 1.0), (1.0, 0.1), (-5.0, 10.0)])
def test_indicial_roots_exact_and_parameter_free(order, Lam, M):
    op = equation_op(order, Params(M), Lam)
    assert fr.indicial_roots(op) == EXPECTED_ROOTS[order]


def test_malformed_spec_is_rejected():
    with pytest.raises(ValueError):
        equation_op(5, Params(1.0))


@pytest.mark.parametrize("M", [0.5, 1.0, 3.0])
def test_pure_power_solution_leading_coefficients(M):
    fs = fr.y4_series(2.0, Params(M), N=20)
    assert fs.root == 4
    assert fs.coeffs[0] == 1.0
    assert fs.coeffs[2] * 3.0 * M == pytest.approx(1.0, rel=5e-15)
    assert np.all(fs.coeffs[1::2] == 0.0)
    assert not fs.log_blocks


def test_pure_power_substitution_residual():
    P = Params(1.0)
    fs = fr.y4_series(1.0, P, N=20)
    assert fr.substitution_residual(fs, 1.0, P, 0.1) < 1e-12
    with pytest.raises(ValueError):
        fr.y4_series(1.0, P, N=6)


def test_log_case_structure():
    P = Params(1.0)
    b2, b0, bm2 = fr.log_case_basis(1.0, P, N=24)
    assert (b2.root, b0.root, bm2.root) == (2, 0, -2)
    for fs in (b2, b0, bm2):
        assert fs.coeffs[0] == 1.0
    # leading log contributions: power 4 for roots 2 and 0, power 0 for -2
    assert min(p for (p, d, c) in b2.log_blocks) == 4
    assert min(p for (p, d, c) in b0.log_blocks) == 4
    assert min(p for (p, d, c) in bm2.log_blocks) == 0
    # value of the root-0 member at 0 is finite and nonzero
    assert b0.series.coeff(0, 0) == 1.0
    # x^2 * (root -2 member) tends to 1
    xs = np.array([1e-4, 1e-5])
    scaled = xs ** 2 * bm2.series.evaluate(xs)
    assert np.allclose(scaled, 1.0, atol=1e-6)


@pytest.mark.parametrize("root_index", [0, 1, 2])
def test_log_case_substitution_residual(root_index):
    P = Params(1.0)
    basis = fr.log_case_basis(1.0, P, N=24)
    assert fr.substitution_residual(basis[root_index], 1.0, P, 0.05) < 1e-8


def test_four_solutions_linearly_independent():
    P = Params(1.0)
    series = [fr.y4_series(1.0, P, 20).series] \
        + [fs.series for fs in fr.log_case_basis(1.0, P, 20)]
    rows = []
    for s in series:
        stack = s.derivatives(3)
        rows.append([float(np.atleast_1d(d.evaluate(0.5))[0]) for d in stack])
    m = np.array(rows)
    m /= np.abs(m).max(axis=1, keepdims=True)
    assert abs(np.linalg.det(m)) > 1e-12


def test_change_of_basis_fit_of_closed_forms():
    P = Params(1.0)
    lam = 1.0
    L = spectral_value(lam, P)
    series = [fr.y4_series(L, P, 16).series] \
        + [fs.series for fs in fr.log_case_basis(L, P, 16)]
    xs = np.array([0.01, 0.02, 0.04])
    cols = []
    for s in series:
        stack = s.derivatives(1)
        cols.append(np.concatenate([np.atleast_1d(d.evaluate(xs))
                                    for d in stack]))
    A = np.array(cols).T
    for kind in SolutionKind:
        h = SolutionHandle(kind, lam, P)
        d = eval_solution_derivs(h, xs, 1)
        b = np.concatenate([d[0], d[1]])
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.linalg.norm(A @ coef - b) / np.linalg.norm(b) < 1e-6


def test_published_leading_constants_best_effort():
    """The published leading constants of the log-case trio depend on an
    unspecified program normalization; with unit leading coefficients the
    ratios below are what our reduction produces.  Reported, not gated."""
    rep = fr.leading_constant_report()
    assert set(rep) == {2, 0, -2}
    for root, row in rep.items():
        assert np.isfinite(row["ratio"]) and row["ratio"] != 0.0
    ratios = [rep[r]["ratio"] for r in (2, 0, -2)]
    spread = max(abs(r) for r in ratios) / min(abs(r) for r in ratios)
    assert spread > 10.0  # no global rescaling reproduces the table


def test_higher_order_spectral_values():
    P = Params(1.0)
    assert fr.spectral_value_higher(6, 1.0, P) == pytest.approx(1.0 + 96.0)
    assert fr.spectral_value_higher(8, 1.0, P) == pytest.approx(1.0 + 1536.0)
    with pytest.raises(ValueError):
        fr.spectral_value_higher(10, 1.0, P)

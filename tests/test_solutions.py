"""The fourth-order solution family: maps, values, derivatives, series."""

import importlib.util
import pathlib

import mpmath as mp
import numpy as np
import pytest

from bessel4 import classical as cb
from bessel4 import solutions as S
from bessel4.solutions import (CDPair, Params, SolutionHandle, SolutionKind,
                               cd_params, eval_solution, eval_solution_derivs,
                               spectral_value)

GRID = [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (1.0, 4.0)]


def test_spectral_map_values():
    assert spectral_value(0.0, Params(3.0)) == 0.0
    assert spectral_value(1.0, Params(1.0)) == 9.0
    assert spectral_value(2.0, Params(0.5)) == 80.0


def test_cd_parameters():
    assert cd_params(0.0, Params(2.0)) == CDPair(2.0, 1.0)
    cd = cd_params(2.0, Params(1.0))
    assert cd.c == pytest.approx(np.sqrt(12.0)) and cd.d == 2.0
    assert cd_params(0.0, Params(8.0)) == CDPair(1.0, 1.0)


def test_params_invariants():
    p = Params(0.4)
    assert p.gamma * p.M == pytest.approx(8.0, rel=1e-15)
    with pytest.raises(ValueError):
        Params(0.0)
    with pytest.raises(ValueError):
        Params(-1.0)


def test_params_reject_infinite_M():
    with pytest.raises(ValueError):
        Params(np.inf)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_handle_rejects_nonfinite_lambda(lam):
    for kind in SolutionKind:
        with pytest.raises(ValueError):
            SolutionHandle(kind, lam, Params(1.0))


@pytest.mark.parametrize("kind", ["jtype", "itype"])
@pytest.mark.parametrize("lam,M", GRID + [(0.0, 1.0)])
def test_regular_pair_equals_one_at_origin(kind, lam, M):
    h = SolutionHandle(SolutionKind(kind), lam, Params(M))
    assert eval_solution(h, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_ytype_ktype_reject_origin():
    h = SolutionHandle(SolutionKind.ktype, 1.0, Params(1.0))
    with pytest.raises(ValueError):
        eval_solution(h, 0.0)
    with pytest.raises(ValueError):
        SolutionHandle(SolutionKind.ytype, 0.0, Params(1.0))


@pytest.mark.parametrize("kind", ["jtype", "ytype", "itype", "ktype"])
@pytest.mark.parametrize("lam,M", GRID)
def test_series_matches_direct_formula_at_seam(kind, lam, M):
    h = SolutionHandle(SolutionKind(kind), lam, Params(M))
    a, A, B = S._structure(h.kind, lam, h.params)
    radius, series = S.series_radius(h), S.solution_series(h)
    for t in (1e-2, 0.9999):
        x = np.array([t * radius])
        v_direct = S._direct_derivs_scaled(h.kind, a, A, B, x, 0)[0]
        assert series.evaluate(x)[0] == pytest.approx(v_direct[0], rel=2e-12, abs=1e-14)
    x = np.array([0.5 * radius, 1.5 * radius])
    d_series = np.vstack([s.evaluate(x) for s in series.derivatives(4)])
    d_direct = S._direct_derivs_scaled(h.kind, a, A, B, x, 4)
    assert np.max(np.abs(d_series - d_direct)
                  / (np.abs(d_direct) + 1e-10)) < 5e-11


def central_fd(f, x, k, h):
    if k == 1:
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    if k == 2:
        return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h)
                - f(x + 2 * h)) / (12 * h * h)
    raise ValueError


@pytest.mark.parametrize("kind", ["jtype", "ytype", "itype", "ktype"])
def test_derivatives_match_finite_differences(kind):
    h = SolutionHandle(SolutionKind(kind), 1.0, Params(1.0))
    f = lambda x: eval_solution(h, x)
    for x0 in (0.3, 1.0, 5.0):
        d = eval_solution_derivs(h, x0, 2)
        assert d[1] == pytest.approx(central_fd(f, x0, 1, 1e-4), rel=1e-6)
        assert d[2] == pytest.approx(central_fd(f, x0, 2, 1e-4), rel=1e-5,
                                     abs=1e-7)


def test_ktype_order4_derivative_matches_fd_at_five():
    h = SolutionHandle(SolutionKind.ktype, 1.0, Params(1.0))
    f3 = lambda x: eval_solution_derivs(h, x, 3)[3]
    d4 = eval_solution_derivs(h, 5.0, 4)[4]
    fd = central_fd(f3, 5.0, 1, 1e-3)
    assert d4 == pytest.approx(fd, rel=1e-5)


def test_lambda_zero_collapses_jtype_to_one():
    h = SolutionHandle(SolutionKind.jtype, 0.0, Params(2.0))
    d = eval_solution_derivs(h, np.array([0.25, 1.0, 7.0]), 4)
    assert np.allclose(d[0], 1.0) and np.max(np.abs(d[1:])) < 1e-14


def test_classical_limit_is_monotone():
    xs = np.linspace(0.1, 10.0, 60)
    prev = None
    for M in (1.0, 0.1, 0.01, 0.001):
        h = SolutionHandle(SolutionKind.jtype, 1.0, Params(M))
        dev = np.max(np.abs(eval_solution(h, xs) - cb.j0(xs)))
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 5e-3


def test_basis_independence_at_one():
    rows = [eval_solution_derivs(SolutionHandle(k, 1.0, Params(1.0)), 1.0, 3)
            for k in SolutionKind]
    m = np.array(rows)
    m /= np.abs(m).max(axis=1, keepdims=True)
    assert abs(np.linalg.det(m)) > 1e-12


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_realness_and_finiteness(lam):
    xs = np.geomspace(1e-3, 30.0, 25)
    for kind in SolutionKind:
        h = SolutionHandle(kind, lam, Params(1.0))
        v = eval_solution(h, xs)
        assert np.all(np.isfinite(v)) and v.dtype == np.float64


def test_ktype_decay_beats_half_rate():
    h = SolutionHandle(SolutionKind.ktype, 1.0, Params(1.0))
    c = cd_params(1.0, Params(1.0)).c
    vals = [abs(eval_solution(h, x)) * np.exp(c * x / 2.0)
            for x in (20.0, 40.0, 80.0)]
    assert vals[2] < vals[1] < vals[0] and vals[2] < 1e-12


def test_second_derivative_at_zero_closed_form():
    # both regular solutions have f''(0) = -M Lambda / 16
    for lam, M in GRID:
        P = Params(M)
        L = spectral_value(lam, P)
        for kind in (SolutionKind.jtype, SolutionKind.itype):
            h = SolutionHandle(kind, lam, P)
            f2 = eval_solution_derivs(h, 0.0, 2)[2]
            assert f2 == pytest.approx(-M * L / 16.0, rel=1e-12, abs=1e-14)


def test_ktype_scale_series_matches_handle_series():
    # the decaying candidate reads the ktype rows at its rates a = c, that
    # is at q = a^2/4 - 2/M
    lam, M = 1.0, 1.0
    c = np.longdouble(cd_params(lam, Params(M)).c)
    s1 = S.solution_series(SolutionHandle(SolutionKind.ktype, lam, Params(M)))
    s2 = S._log_power_series(S._series_rows(
        SolutionKind.ktype, np.array([[c * c / 4 - 2 / np.longdouble(M)]]), M))
    for key, v in s1.items():
        assert s2.coeff(*key) == pytest.approx(v, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# derivatives 0..4 against 40-digit mpmath, both sides of the series switch

_MP_FAMILY = {"jtype": mp.besselj, "ytype": mp.bessely,
              "itype": mp.besseli, "ktype": mp.besselk}


def _mp_kernel_derivs(kind, z, n):
    """{nu: [C_nu^(k)(z) for k in 0..n]} for nu = 0, 1 (DLMF 10.6.7, 10.29.5)."""
    cm = {m: _MP_FAMILY[kind](m, z) for m in range(-n, n + 2)}
    out = {}
    for nu in (0, 1):
        rows = []
        for k in range(n + 1):
            s = mp.mpf(0)
            for j in range(k + 1):
                sign = -1 if kind in ("jtype", "ytype") and j % 2 else 1
                s += sign * mp.binomial(k, j) * cm[nu - k + 2 * j]
            rows.append(s / (-2 if kind == "ktype" else 2) ** k)
        out[nu] = rows
    return out


def _mp_solution_derivs(kind, lam, M, x, n=4):
    """Derivatives 0..n of the closed form (module docstring) at x."""
    lam, M, x = mp.mpf(lam), mp.mpf(M), mp.mpf(x)
    mq = M * (lam / 2) ** 2
    if kind in ("jtype", "ytype"):
        a, A, B = lam, 1 + mq, -2 * mq
    else:
        a = mp.sqrt(lam ** 2 + 8 / M)
        A, B = (-(1 + mq) if kind == "itype" else 1 + mq), a * a * M / 2
    z = a * x
    kd = _mp_kernel_derivs(kind, z, n)
    out = []
    for k in range(n + 1):
        # (C1(z)/z)^(k) by Leibniz, with (1/z)^(m) = (-1)^m m! / z^(m+1)
        v = sum(mp.binomial(k, i) * kd[1][i] * (-1) ** (k - i)
                * mp.factorial(k - i) / z ** (k - i + 1) for i in range(k + 1))
        out.append(a ** k * (A * kd[0][k] + B * v))
    return out


_Z_BELOW = (1e-3, 1e-2, 0.05, 0.2, 0.5, 0.8, 0.999)
_Z_ABOVE = (1.0, 1.001, 1.05, 1.3)
_Z_SEAM = (3.99, 3.999, 4.0, 4.001, 4.01)  # the jtype/itype switch
# bounds on the worst relative error of derivatives 0..4 over 6 seeded
# (lam, M) per kind on each z set: about twice the errors measured with
# the jtype/itype switch at z = 4, (below, above, seam) = (3.6e-16, 5.1e-16,
# 6.6e-15) for jtype, (2.2e-15, 2.9e-15, 8.9e-15) ytype, (2.6e-16, 2.1e-16,
# 2.4e-15) itype, (2.8e-16, 6.7e-16, 7.7e-16) ktype.  With the switch at
# z = 1 the direct path read 1.9e-13 (jtype) and 2.4e-13 (itype) above it.
_MP_BOUNDS = {"jtype": (1e-15, 1e-15, 1.3e-14), "ytype": (6e-15, 6e-15, 1.8e-14),
              "itype": (5e-15, 5e-16, 5e-15), "ktype": (1.3e-15, 1.5e-15, 1.6e-15)}


@pytest.mark.parametrize("kind", ["jtype", "ytype", "itype", "ktype"])
def test_derivatives_match_mpmath_across_switch(kind):
    rng = np.random.default_rng(2026)
    sets = (_Z_BELOW, _Z_ABOVE, _Z_SEAM)
    zs = np.concatenate(sets)
    worst = np.zeros(len(zs))
    for _ in range(6):
        lam, M = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
        h = SolutionHandle(kind, lam, Params(M))
        a, _, _ = S._structure(h.kind, lam, h.params)
        xs = zs / a
        got = eval_solution_derivs(h, xs, 4)
        with mp.workdps(40):
            for j, x in enumerate(xs):
                ref = _mp_solution_derivs(kind, lam, M, x)
                err = max(float(abs((mp.mpf(float(got[n, j])) - ref[n]) / ref[n]))
                          for n in range(5))
                worst[j] = max(worst[j], err)
    ends = np.cumsum([len(z) for z in sets])
    for part, bound in zip(np.split(worst, ends[:-1]), _MP_BOUNDS[kind]):
        assert part.max() <= bound, (part.max(), bound)


def test_series_cost_tool_runs_at_small_size(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "series_cost.py"
    spec = importlib.util.spec_from_file_location("series_cost", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for kind in SolutionKind:
        h = SolutionHandle(kind, tool.LAM, Params(tool.M))
        a, _, _ = S._structure(h.kind, h.lam, h.params)
        switch = a * S.series_radius(h)
        assert np.all(a * tool.grid(h, "series", 64) < switch)
        assert np.all(a * tool.grid(h, "direct", 64) >= switch)
    tool.main(["64"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for kind, line in zip(SolutionKind, lines[2:]):
        cells = line.split()
        assert cells[0] == kind.value and len(cells) == 6
        assert all(float(c) > 0.0 for c in cells[1:])


# z = a x crosses the switch (4 for jtype and itype, 1 for ytype and ktype)
# for every lam but 0; ytype and ktype take lam > 0 and x > 0 only
_EVAL_GRIDS = {
    "jtype": ([0.0, 0.05, 0.9, 3.0, 40.0],
              [0.0, 0.3, 1.0, 3.99, 3.9999999, 4.0, 4.0000001, 4.01, 9.0, 60.0]),
    "ytype": ([0.05, 0.9, 3.0, 40.0],
              [1e-3, 0.3, 0.99, 0.9999999, 1.0, 1.0000001, 1.01, 4.0, 9.0, 60.0])}
_EVAL_GRIDS["itype"], _EVAL_GRIDS["ktype"] = _EVAL_GRIDS["jtype"], _EVAL_GRIDS["ytype"]


@pytest.mark.parametrize("kind", ["jtype", "ytype", "itype", "ktype"])
def test_regular_evaluator_pairs_outer_grid_and_handles(kind):
    P = Params(0.7)
    lams, zs = (np.array(v) for v in _EVAL_GRIDS[kind])
    for order in range(5):
        a, _, _ = S._structure(SolutionKind(kind), lams, P)
        xs = np.outer(1.0 / np.where(a > 0.0, a, 1.0), zs)
        outer = S._solution_derivs(SolutionKind(kind), lams[:, None], xs, P, order)
        assert outer.shape == (order + 1,) + xs.shape
        assert np.all(np.isfinite(outer))
        # (lam, x) pairs in any order read the entries of the outer grid
        pair_lams = np.broadcast_to(lams[:, None], xs.shape).ravel()
        perm = np.random.default_rng(order).permutation(pair_lams.size)
        pairs = S._solution_derivs(SolutionKind(kind), pair_lams[perm],
                                   xs.ravel()[perm], P, order)
        assert np.array_equal(pairs, outer.reshape(order + 1, -1)[:, perm])
        # and each row of lam is the handle path
        for i, lam in enumerate(lams):
            h = SolutionHandle(SolutionKind(kind), lam, P)
            assert np.array_equal(eval_solution_derivs(h, xs[i], order), outer[:, i])
    if kind == "jtype":
        assert np.array_equal(S.eval_jtype_outer(lams[:, None], xs, P), outer[0])


@pytest.mark.parametrize("kind", ["ytype", "ktype"])
def test_log_kinds_evaluate_without_the_series_memo(kind):
    # evaluation runs on the coefficient rows; the memo serves the exact
    # algebra of forms only
    h = SolutionHandle(SolutionKind(kind), 0.8137, Params(1.91))
    before = S._series_cached.cache_info()
    eval_solution_derivs(h, np.geomspace(1e-3, 5.0, 40) * S.series_radius(h), 4)
    eval_solution(h, 0.5 * S.series_radius(h))
    assert S._series_cached.cache_info() == before


@pytest.mark.parametrize("kind", ["ytype", "ktype"])
def test_series_evaluator_no_worse_than_log_power_series(kind):
    # below the switch the evaluator folds the pole and the Leibniz terms
    # of ln x into one Horner pass; against 40-digit mpmath it errs at most
    # twice as much as LogPowerSeries.evaluate on the same coefficients
    rng = np.random.default_rng(4242)
    for _ in range(12):
        lam, M = np.exp(rng.uniform(np.log(0.05), np.log(10.0), 2))
        h = SolutionHandle(SolutionKind(kind), lam, Params(M))
        xs = np.exp(rng.uniform(np.log(1e-3), 0.0, 8)) * S.series_radius(h)
        got = eval_solution_derivs(h, xs, 4)
        ref_series = np.vstack([s.evaluate(xs)
                                for s in S.solution_series(h).derivatives(4)])
        with mp.workdps(40):
            for j, x in enumerate(xs):
                exact = _mp_solution_derivs(kind, lam, M, x)
                for n in range(5):
                    err = abs(mp.mpf(float(got[n, j])) - exact[n])
                    ref_err = abs(mp.mpf(float(ref_series[n, j])) - exact[n])
                    assert err <= 2 * ref_err + 1e-16 * abs(exact[n]), \
                        (lam, M, x, n, float(err), float(ref_err))

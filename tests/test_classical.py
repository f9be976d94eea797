"""Kernel tests: Chebyshev-table regions against mpmath, recurrences, seams."""

import importlib.util
import pathlib
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

from bessel4 import classical as cb
from bessel4.classical import BesselKind, eval_bessel, eval_bessel_derivative


def maclaurin_j0(x, terms=80):
    # independent oracle: plain term-by-term Maclaurin sum
    total, t = 1.0, 1.0
    q = x * x / 4.0
    for k in range(1, terms):
        t *= -q / (k * k)
        total += t
    return total


def test_trivial_values_at_zero():
    assert eval_bessel(BesselKind("J", 0), 0.0) == 1.0
    assert eval_bessel(BesselKind("J", 1), 0.0) == 0.0
    assert eval_bessel(BesselKind("I", 0), 0.0) == 1.0
    assert eval_bessel(BesselKind("I", 1), 0.0) == 0.0


def test_first_j0_zero_against_maclaurin_bisection():
    lo, hi = 2.0, 3.0
    assert maclaurin_j0(lo) > 0 > maclaurin_j0(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if maclaurin_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(cb.j0(root)) < 1e-10


@pytest.mark.parametrize("ours,ref", [
    (cb.j0, sps.j0), (cb.j1, sps.j1), (cb.y0, sps.y0), (cb.y1, sps.y1),
    (cb.i0, sps.i0), (cb.i1, sps.i1), (cb.k0, sps.k0), (cb.k1, sps.k1),
])
def test_against_scipy(ours, ref):
    xs = np.geomspace(1e-3, 60.0, 150)
    mine = ours(xs)
    other = ref(xs)
    osc = ours in (cb.j0, cb.j1, cb.y0, cb.y1)
    env = np.sqrt(2.0 / (np.pi * xs)) if osc else np.abs(other)
    tol = np.where(xs <= 20.0, 1e-12, 1e-10)
    assert np.all(np.abs(mine - other) <= tol * (np.abs(other) + env))


@pytest.mark.parametrize("x", [15.9999, 16.0001, 16.9999, 17.0001, 1.9999,
                               2.0001, 19.999, 20.001, 29.99, 30.01,
                               7.9999, 8.0001, 2.0, 8.0])
def test_branch_seams_are_continuous(x):
    for ours, ref in [(cb.j0, sps.j0), (cb.j1, sps.j1), (cb.y0, sps.y0),
                      (cb.y1, sps.y1), (cb.i0, sps.i0), (cb.i1, sps.i1),
                      (cb.k0, sps.k0), (cb.k1, sps.k1)]:
        assert ours(x) == pytest.approx(float(ref(x)), rel=5e-13, abs=1e-300)


_MP_JY = {
    "j0": lambda x: mp.besselj(0, x), "j1": lambda x: mp.besselj(1, x),
    "y0": lambda x: mp.bessely(0, x), "y1": lambda x: mp.bessely(1, x),
}


def _log_uniform(lo, hi):
    return st.floats(0.0, 1.0).map(lambda t: lo * (hi / lo) ** t)


# the regions of the J/Y kernels: the tables in x^2 below 8, both sides of
# their seam with the modulus-phase table at 8, [8, 17) and the old Hankel
# seam at 17, out to the largest lam * x the transforms reach and far beyond
_JY_REGIONS = {
    "small": st.floats(1e-3, 8.0, exclude_max=True),
    "small-log": _log_uniform(1e-3, 8.0).filter(lambda x: x < 8.0),
    "seam-8-below": st.floats(7.999, 8.0, exclude_max=True),
    "band": st.floats(8.0, 17.0, exclude_max=True),
    "seam-8": st.floats(8.0, 8.001),
    "seam-17": st.floats(16.999, 17.001),
    "hankel": _log_uniform(17.0, 1.3e5),
    "far": _log_uniform(1.3e5, 1e9),
}


@pytest.mark.parametrize("region", sorted(_JY_REGIONS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_jy_envelope_error_against_mpmath(region, data):
    # the error scale is the envelope sqrt(2/(pi x)); below 8 it is |C|
    # where that is larger (Y at small x: at x = 1e-3 the rounding of Y1
    # alone is up to 2.2e-15 of the envelope), and the bound is 2e-15 there
    xs = np.array(data.draw(st.lists(_JY_REGIONS[region], min_size=1, max_size=3)))
    env = np.sqrt(2.0 / (np.pi * xs))
    bound = np.where(xs < 8.0, 2e-15, 1e-15)
    with mp.workdps(40):
        for name, ref in _MP_JY.items():
            vals = getattr(cb, name)(xs)
            exact = [ref(mp.mpf(float(x))) for x in xs]
            err = np.array([float(abs(mp.mpf(float(v)) - r)) for v, r in zip(vals, exact)])
            scale = np.where(xs < 8.0, np.maximum(env, np.abs(np.array(exact, float))), env)
            assert np.all(err <= bound * scale), (name, xs, err / scale)


_MP_IK = {
    "i0": lambda x: mp.besseli(0, x), "i1": lambda x: mp.besseli(1, x),
    "k0": lambda x: mp.besselk(0, x), "k1": lambda x: mp.besselk(1, x),
}

# the regions of the I and K kernels and both sides of their seams, I at 8
# and K at 2, up to 700 (I overflows past 705)
_IK_REGIONS = {
    "i-small": ("i", _log_uniform(1e-3, 8.0)),
    "i-seam-8": ("i", st.floats(7.999, 8.001)),
    "i-large": ("i", _log_uniform(8.0, 700.0)),
    "k-small": ("k", _log_uniform(1e-3, 2.0)),
    "k-seam-2": ("k", st.floats(1.999, 2.001)),
    "k-large": ("k", _log_uniform(2.0, 700.0)),
}


@pytest.mark.parametrize("region", sorted(_IK_REGIONS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_ik_relative_error_against_mpmath(region, data):
    family, points = _IK_REGIONS[region]
    xs = np.array(data.draw(st.lists(points, min_size=1, max_size=3)))
    with mp.workdps(40):
        for nu in (0, 1):
            ref = _MP_IK[f"{family}{nu}"]
            vals = getattr(cb, f"{family}{nu}")(xs)
            rel = [abs(mp.mpf(float(v)) / ref(mp.mpf(float(x))) - 1) for v, x in zip(vals, xs)]
            assert float(max(rel)) <= 2e-15, (family, nu, xs)


def _load_generator():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "gen_kernel_tables.py"
    spec = importlib.util.spec_from_file_location("gen_kernel_tables", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_kernel_chebyshev_tables_match_generator():
    # every checked-in table is what the generator prints at 40 digits, and
    # every table stack of the kernels is made of them
    gen = _load_generator()
    tables = gen.chebyshev_tables(digits=40)
    for name, coef in tables.items():
        assert getattr(cb, name) == coef, name
    rows = {coef for stack in (cb._JY_CHEB, cb._I_CHEB, cb._IE_CHEB, cb._K_CHEB,
                               cb._KE_CHEB, cb._PQ_CHEB) for coef in map(tuple, stack)}
    assert rows == set(tables.values())


def test_pair_kernels_equal_single_orders():
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e9, 2001), [7.9999, 8.0,
                         16.9999, 17.0001, np.inf]])
    rng = np.random.default_rng(5)
    xs = xs[rng.permutation(xs.size)]  # regions mixed inside the array
    pos = xs[xs > 0.0]
    for pair, c0, c1, x in ((cb.j01, cb.j0, cb.j1, xs), (cb.y01, cb.y0, cb.y1, pos)):
        v0, v1 = pair(x)
        assert np.array_equal(v0, c0(x)) and np.array_equal(v1, c1(x))
        for t in (0.5, 8.0, 300.0, np.inf):
            s0, s1 = pair(t)
            assert type(s0) is float and type(s1) is float
            assert (s0, s1) == (c0(t), c1(t))
        grid = x[:12].reshape(3, 4)
        assert all(np.array_equal(a, b) for a, b in
                   zip(pair(grid), (c0(grid), c1(grid))))
    assert cb.j01(0.0) == (1.0, 0.0)
    # no kernel value depends on the array it arrives in: singletons equal
    # a mixed-region array bit for bit, every region and seam of all eight
    mixed = np.concatenate([np.geomspace(1e-3, 700.0, 241), [2.0, 8.0, 7.9999,
                            8.0001, 1.9999, 2.0001]])[rng.permutation(247)]
    for name in ("j0", "j1", "y0", "y1", "i0", "i1", "k0", "k1"):
        fn = getattr(cb, name)
        assert np.array_equal(fn(mixed), [fn(float(x)) for x in mixed]), name


def test_monomial_pq_tables_are_the_exact_chebyshev_rows():
    # each _MONO table is its checked-in Chebyshev row expanded exactly in
    # powers of s = t + 1 and rounded once, bit for bit
    gen = _load_generator()
    tables = gen.monomial_tables({name: getattr(cb, name) for name in gen.MONOMIAL})
    assert set(tables) == {"_P0_MONO", "_XQ0_MONO", "_P1_MONO", "_XQ1_MONO"}
    for name, coef in tables.items():
        assert getattr(cb, name) == coef, name
        assert max(map(abs, coef)) <= 1.0


def test_monomial_pq_reproduces_kernels_through_the_modulus_phase_form():
    # the Filon forward reads P and Q from the monomial tables: with their
    # values (Horner in s = 128/z^2) the modulus-phase formula, summed
    # exactly, gives back j0, j1, y0, y1 to their rounding
    rng = np.random.default_rng(11)
    z = np.concatenate([[8.0, 16.9999, 17.0001],
                        8.0 * (1e9 / 8.0) ** rng.uniform(0.0, 1.0, 120)])
    s = 128.0 / z ** 2
    p0, q0, p1, q1 = (np.polynomial.polynomial.polyval(s, getattr(cb, name))
                      / (z if name.startswith("_XQ") else 1.0)
                      for name in ("_P0_MONO", "_XQ0_MONO", "_P1_MONO", "_XQ1_MONO"))
    with mp.workdps(30):
        for i, x in enumerate(z):
            xm = mp.mpf(float(x))
            env = mp.sqrt(2 / (mp.pi * xm))
            for nu, p, q in ((0, p0[i], q0[i]), (1, p1[i], q1[i])):
                w = xm - (2 * nu + 1) * mp.pi / 4
                p, q = mp.mpf(float(p)), mp.mpf(float(q))
                j = env * (p * mp.cos(w) - q * mp.sin(w))
                y = env * (p * mp.sin(w) + q * mp.cos(w))
                for ref, fn in ((j, (cb.j0, cb.j1)[nu]), (y, (cb.y0, cb.y1)[nu])):
                    assert abs(ref - fn(float(x))) <= 8e-16 * env, (nu, x)


def test_wronskian_identity():
    xs = np.geomspace(1e-3, 50.0, 80)
    w = cb.j0(xs) * (-cb.y1(xs)) - cb.y0(xs) * (-cb.j1(xs))
    assert np.max(np.abs(w - 2.0 / (np.pi * xs)) / (2.0 / (np.pi * xs))) < 1e-10


def test_k_family_positive_and_decreasing():
    xs = np.geomspace(1e-3, 50.0, 80)
    v = cb.k0(xs)
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) < 0.0)


def test_second_order_equation_residual_via_recurrences():
    xs = np.geomspace(1e-3, 50.0, 60)
    for fam in "JYIK":
        s = -1.0 if fam in "JY" else 1.0
        for order in (0, 1):
            kind = BesselKind(fam, order)
            u = eval_bessel(kind, xs)
            up = eval_bessel_derivative(kind, xs)
            upp = s * u - up / xs + order * order * u / xs ** 2
            res = xs ** 2 * upp + xs * up - (s * xs ** 2 + order ** 2) * u
            scale = np.abs(xs ** 2 * upp) + np.abs(xs * up) + np.abs(u) + 1e-300
            assert np.max(np.abs(res) / scale) < 1e-8


def central_fd4(f, x, h):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


@pytest.mark.parametrize("fam,order,x", [
    ("J", 0, 1.0), ("J", 1, 2.5), ("Y", 0, 0.7), ("Y", 1, 3.0),
    ("I", 0, 1.0), ("I", 1, 2.0), ("K", 0, 2.0), ("K", 1, 1.5),
])
def test_derivative_matches_finite_difference(fam, order, x):
    kind = BesselKind(fam, order)
    fd = central_fd4(lambda t: eval_bessel(kind, t), x, 1e-4)
    an = eval_bessel_derivative(kind, x)
    assert an == pytest.approx(fd, rel=1e-7)


def test_k0_derivative_identity_at_two():
    assert eval_bessel_derivative(BesselKind("K", 0), 2.0) == \
        pytest.approx(-cb.k1(2.0), rel=1e-14)
    fd = central_fd4(cb.k0, 2.0, 1e-4)
    assert fd == pytest.approx(-cb.k1(2.0), rel=1e-9)


def test_domain_and_overflow_errors():
    with pytest.raises(ValueError):
        cb.y0(0.0)
    with pytest.raises(ValueError):
        cb.k1(-1.0)
    with pytest.raises(ValueError):
        cb.j0(-0.5)
    with pytest.raises(OverflowError):
        cb.i0(800.0)


def test_vectorization_and_scalars():
    xs = np.array([0.5, 5.0, 25.0])
    out = cb.j0(xs)
    assert out.shape == xs.shape
    assert isinstance(cb.j0(1.0), float)
    # a value does not depend on the array it arrives in, across the
    # J/Y, I and K middle bands
    band = np.linspace(2.05, 19.9, 400)
    for name in ("j0", "j1", "y0", "y1", "i0", "i1", "k0", "k1"):
        fn = getattr(cb, name)
        assert np.array_equal(fn(band), [fn(float(x)) for x in band]), name
    assert np.isnan(cb.k0(np.nan)) and np.isnan(cb.k1(np.nan))


def test_one_region_calls_match_mixed_arrays_and_scalars():
    # a call whose points all lie on one side of the family's seam goes to
    # that region whole: the same bits as inside a mixed-region array and
    # as scalars, the input left as it was and the output its own memory
    rng = np.random.default_rng(23)
    for name, seam in (("j0", 8.0), ("j1", 8.0), ("y0", 8.0), ("y1", 8.0),
                       ("i0", 8.0), ("i1", 8.0), ("k0", 2.0), ("k1", 2.0)):
        fn = getattr(cb, name)
        low = 0.0 if name[0] in "ji" else 1e-3
        below = np.concatenate([[low], rng.uniform(low, seam, 39)])
        beyond = np.concatenate([[seam], rng.uniform(seam, 700.0, 39)])
        for x, rest in ((below, beyond), (beyond, below)):
            keep = x.copy()
            out = fn(x)
            assert np.array_equal(x, keep) and not np.shares_memory(out, x), name
            perm = rng.permutation(80)
            back = np.empty(80)
            back[perm] = fn(np.concatenate([x, rest])[perm])
            assert back[:40].tobytes() == out.tobytes(), (name, x[0])
            singles = np.array([fn(float(v)) for v in x])
            assert singles.tobytes() == out.tobytes(), (name, x[0])
    # NaN passes through the sign check, which still sees a negative beside it
    assert np.isnan(cb.j0(np.array([np.nan, 1.0, 9.0]))[0])
    with pytest.raises(ValueError):
        cb.j0(np.array([np.nan, -1.0]))
    with pytest.raises(ValueError):
        cb.k0(np.array([np.nan, 0.0]))


def test_derivative_limits_at_zero():
    assert eval_bessel_derivative(BesselKind("J", 1), 0.0) == 0.5
    assert eval_bessel_derivative(BesselKind("I", 1), 0.0) == 0.5
    assert eval_bessel_derivative(BesselKind("J", 0), 0.0) == 0.0


def test_kind_validation():
    with pytest.raises(ValueError):
        BesselKind("Q", 0)
    with pytest.raises(ValueError):
        BesselKind("J", 2)


def test_jy_at_infinity_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (cb.j0, cb.j1, cb.y0, cb.y1):
            assert fn(np.inf) == 0.0
            vals = fn(np.array([20.0, np.inf]))
            assert vals[1] == 0.0 and vals[0] == fn(20.0)

"""Compensated (double-double) arithmetic on numpy arrays.

A double-double value is a pair of float64 arrays ``(hi, lo)`` whose exact
sum carries roughly 32 significant decimal digits.  The oscillatory Bessel
power series suffer cancellation up to ~1e6 at arguments near the
series/asymptotic switch radius, so plain float64 accumulation would lose
6 digits exactly where full accuracy is required.  Only the handful of
primitives needed by those series lives here.

The product splitter is Dekker's; no FMA is assumed.
"""

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    # requires |a| >= |b| elementwise, which every call site guarantees
    s = a + b
    return s, b - (s - a)


def split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd(a):
    """Lift a float/array to a double-double pair."""
    a = np.asarray(a, dtype=float)
    return a, np.zeros_like(a)


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e = e + (x[1] + y[1])
    return quick_two_sum(s, e)


def dd_neg(x):
    return -x[0], -x[1]


def dd_mul(x, y):
    p, e = two_prod(x[0], y[0])
    e = e + (x[0] * y[1] + x[1] * y[0])
    return quick_two_sum(p, e)


def dd_mul_float(x, f):
    p, e = two_prod(x[0], f)
    e = e + x[1] * f
    return quick_two_sum(p, e)


def dd_div_float(x, f):
    q1 = x[0] / f
    p, e = two_prod(q1, f)
    rh, re = two_sum(x[0], -p)
    re = re + (x[1] - e)
    q2 = (rh + re) / f
    return quick_two_sum(q1, q2)


def dd_to_float(x):
    return x[0] + x[1]

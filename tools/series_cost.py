"""Print the cost of the solution evaluation, per kind and path.

For each of the four kinds the script times ``eval_solution_derivs`` at
max_order 0 and 4 on two grids of POINTS points each, x log-spaced on
[1e-3, 1) times ``series_radius`` (the series path below the switch) and
on [1.001, 150] times it (the direct path; with the switch at z = 4 that
keeps z = scale * x below 600, short of the overflow of I at 705), and
prints the median over REPEATS calls in ns per point.  The last column is the median time of one
CALL_POINTS-point call at max_order 4, x log-spaced on [1e-3, 150] times
the radius across both paths, in us per call: the call size of the
operator-calculus benchmark workload, where the per-call overhead counts.
A warm-up call comes first.  It fills no memo: every kind builds its
series rows and derivative table in each call, and the series columns
include that cost.  Run from the root of a checkout (numpy only):

    python tools/series_cost.py [points]
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bessel4.solutions import (Params, SolutionHandle, SolutionKind,  # noqa: E402
                               eval_solution_derivs, series_radius)

POINTS = 16384
CALL_POINTS = 16
REPEATS = 7
LAM, M = 1.3, 0.7
ORDERS = (0, 4)
# x ranges in units of series_radius
X_RANGES = {"series": (1e-3, 1.0), "direct": (1.001, 150.0), "call": (1e-3, 150.0)}


def grid(handle, path, points):
    """x grid of the path: log-spaced on its range times the series radius."""
    lo, hi = X_RANGES[path]
    x = np.geomspace(lo, hi, points, endpoint=path != "series")
    return x * series_radius(handle)


def seconds(handle, x, order, repeats=REPEATS):
    """Median seconds of one ``eval_solution_derivs`` call, after a warm-up."""
    eval_solution_derivs(handle, x, order)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        eval_solution_derivs(handle, x, order)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def measure(points=POINTS, repeats=REPEATS):
    """{(kind, path, order): ns per point, (kind, "call", 4): us per call}
    at (LAM, M)."""
    out = {}
    for kind in SolutionKind:
        handle = SolutionHandle(kind, LAM, Params(M))
        for path in ("series", "direct"):
            x = grid(handle, path, points)
            for order in ORDERS:
                out[(kind.value, path, order)] = \
                    1e9 * seconds(handle, x, order, repeats) / x.size
        x = grid(handle, "call", CALL_POINTS)
        out[(kind.value, "call", 4)] = 1e6 * seconds(handle, x, 4, repeats)
    return out


def main(argv=()):
    points = int(argv[0]) if argv else POINTS
    cost = measure(points)
    cols = [(path, order) for path in ("series", "direct") for order in ORDERS]
    cols.append(("call", 4))
    print(f"ns per point at {points} points (us per call at {CALL_POINTS}), "
          f"lam = {LAM}, M = {M}")
    print(f"{'kind':>6} " + " ".join(f"{p + ' d' + str(o):>10}" for p, o in cols))
    for kind in SolutionKind:
        print(f"{kind.value:>6} "
              + " ".join(f"{cost[(kind.value, p, o)]:10.1f}" for p, o in cols))


if __name__ == "__main__":
    main(sys.argv[1:])

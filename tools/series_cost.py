"""Print the cost per point of the solution evaluation, per kind and path.

For each of the four kinds the script times ``eval_solution_derivs`` at
max_order 0 and 4 on two grids of POINTS points each, z = scale * x
log-spaced on [1e-3, 1) (the series path below the switch at z = 1) and
on [1.001, 600] (the direct path), and prints the median over REPEATS calls
in ns per point.  The solution series is built by a warm-up call first,
so the series column is the cost of evaluating it, not of building it.
Run from the root of a checkout (numpy only):

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
REPEATS = 7
LAM, M = 1.3, 0.7
ORDERS = (0, 4)
Z_RANGES = {"series": (1e-3, 1.0), "direct": (1.001, 600.0)}


def grid(handle, path, points):
    """x grid of the path: z log-spaced on its range."""
    lo, hi = Z_RANGES[path]
    z = np.geomspace(lo, hi, points, endpoint=path == "direct")
    return z * series_radius(handle)


def ns_per_point(handle, x, order, repeats=REPEATS):
    eval_solution_derivs(handle, x, order)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        eval_solution_derivs(handle, x, order)
        times.append(time.perf_counter() - start)
    return 1e9 * float(np.median(times)) / x.size


def measure(points=POINTS, repeats=REPEATS):
    """{(kind, path, order): ns per point} at (LAM, M)."""
    out = {}
    for kind in SolutionKind:
        handle = SolutionHandle(kind, LAM, Params(M))
        for path in Z_RANGES:
            x = grid(handle, path, points)
            for order in ORDERS:
                out[(kind.value, path, order)] = ns_per_point(handle, x, order,
                                                              repeats)
    return out


def main(argv=()):
    points = int(argv[0]) if argv else POINTS
    cost = measure(points)
    cols = [(path, order) for path in Z_RANGES for order in ORDERS]
    print(f"ns per point, {points} points, lam = {LAM}, M = {M}")
    print(f"{'kind':>6} " + " ".join(f"{p + ' d' + str(o):>10}" for p, o in cols))
    for kind in SolutionKind:
        print(f"{kind.value:>6} "
              + " ".join(f"{cost[(kind.value, p, o)]:10.1f}" for p, o in cols))


if __name__ == "__main__":
    main(sys.argv[1:])

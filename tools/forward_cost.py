"""Print the cost and the accuracy of the forward transform, per lambda.

For each truncation x_cut in X_CUTS and each lambda in LAMS the script
runs the forward transform of both pairs on two profiles whose transforms
are known in closed form, one lambda per call, and prints for the
classical pair and for the generalized pair at M in MS

* the kernel nodes: the (lambda, node) pairs at which the forward
  evaluated its kernel, on its Gauss grid or on the Gauss head before
  its Filon panels;
* the Filon (lambda, panel) pairs, where the forward has Filon panels:
  each is one short contraction of the panel's table, with no kernel
  call;
* the microseconds per lambda of a warm forward (the panel cache built)
  on 64 lambdas in [lambda, 1.063 lambda), the best of REPEATS runs, the
  generalized pair at M = 1;
* the worst absolute error against the closed forms over both profiles
  (and, for the generalized pair, over MS).

The profiles scale with x_cut so that each has decayed far below double
rounding at x_cut, where the forward truncates:

    exp(-a x),     a = 40 / x_cut:
        classical    a (a^2 + lam^2)^(-3/2)
        generalized  (1 + q) a (a^2 + lam^2)^(-3/2)
                     + (M/2) a (a^2 + lam^2)^(-1/2)
    exp(-b x^2),   b = (6 / x_cut)^2, E = exp(-lam^2 / (4 b)):
        classical    E / (2 b)
        generalized  E ((1 + q) / (2 b) + M / 2)

with q = M lam^2 / 4.  Run from the root of a checkout (numpy only):

    python tools/forward_cost.py
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bessel4 import classical, transforms  # noqa: E402
from bessel4.solutions import Params  # noqa: E402

LAMS = (1.0, 8.0, 30.0, 60.0, 320.0)
X_CUTS = (2.5, 9.0, 40.0)
MS = (0.5, 1.0, 2.0)
REPEATS = 5


def profiles(x_cut):
    """[(f, classical g, generalized g(lam, M))] for the two profiles."""
    a, b = 40.0 / x_cut, (6.0 / x_cut) ** 2

    def expo(x):
        return np.exp(-a * np.asarray(x, dtype=float))

    def gauss(x):
        return np.exp(-b * np.asarray(x, dtype=float) ** 2)

    def expo_gen(lam, M):
        r = a * a + lam * lam
        return (1.0 + M * lam * lam / 4.0) * a * r ** -1.5 \
            + M / 2.0 * a / np.sqrt(r)

    def gauss_gen(lam, M):
        e = np.exp(-lam * lam / (4.0 * b))
        return e * ((1.0 + M * lam * lam / 4.0) / (2.0 * b) + M / 2.0)

    return [(expo, lambda lam: a * (a * a + lam * lam) ** -1.5, expo_gen),
            (gauss, lambda lam: np.exp(-lam * lam / (4.0 * b)) / (2.0 * b),
             gauss_gen)]


class CostCounter:
    """Counts the forward's kernel nodes and its Filon (lambda, panel)
    pairs by wrapping its kernel (classical.j0 for the classical pair,
    eval_jtype_outer for the generalized one) and its Filon sum."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.nodes = self.pairs = 0
        self._saved = []

    def __enter__(self):
        module, name, size = self.kernel
        kernel, filon_sum = getattr(module, name), transforms._filon_sum

        def counted_kernel(*args):
            self.nodes += size(*args)
            return kernel(*args)

        def counted_filon(panels, lams, count, A, B):
            self.pairs += int(np.sum(count))
            return filon_sum(panels, lams, count, A, B)

        self._saved = [(module, name, kernel),
                       (transforms, "_filon_sum", filon_sum)]
        setattr(module, name, counted_kernel)
        transforms._filon_sum = counted_filon
        return self

    def __exit__(self, *exc):
        for module, name, inner in self._saved:
            setattr(module, name, inner)


CLASSICAL_KERNEL = (classical, "j0", lambda z: np.size(z))
GENERALIZED_KERNEL = (transforms, "eval_jtype_outer",
                      lambda lams, xs, params: np.broadcast(lams, xs).size)


def us_per_lam(pair, f, x_cut, lam):
    """Microseconds per lambda of the warm forward of 64 lambdas in
    [lam, 1.063 lam), the best of REPEATS runs."""
    lams = lam * (1.0 + np.arange(64) / 1000.0)
    cache = transforms._PanelCache(f, x_cut)
    transforms._forward_batch(cache, lams, pair)
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        transforms._forward_batch(cache, lams, pair)
        best = min(best, time.perf_counter() - start)
    return best / lams.size * 1e6


def measure(x_cut, lam):
    """{pair: (kernel nodes, Filon pairs, us per lambda, error)} for the
    pairs "cl" and "gen", each the largest over the profiles (and M)."""
    cost = {"cl": [0, 0, 0.0, 0.0], "gen": [0, 0, 0.0, 0.0]}

    def record(key, count, us, err):
        row = cost[key]
        row[:] = [max(row[0], count.nodes), max(row[1], count.pairs),
                  max(row[2], us), max(row[3], err)]

    for f, g_cl, g_gen in profiles(x_cut):
        with CostCounter(CLASSICAL_KERNEL) as count:
            got = transforms._forward(transforms._CLASSICAL, f, [lam], None,
                                      0.0, x_cut).values[0]
        record("cl", count, us_per_lam(transforms._CLASSICAL, f, x_cut, lam),
               abs(got - g_cl(lam)))
        us = us_per_lam(transforms._generalized_pair(Params(1.0)), f, x_cut,
                        lam)
        for M in MS:
            with CostCounter(GENERALIZED_KERNEL) as count:
                got = transforms.generalized_forward(f, Params(M), [lam],
                                                     x_cut=x_cut).values[0]
            record("gen", count, us, abs(got - g_gen(lam, M)))
    return cost


def main():
    print(f"{'x_cut':>6} {'lam':>6} {'kern cl':>8} {'filon cl':>8} "
          f"{'kern gen':>8} {'filon gen':>9} {'us cl':>7} {'us gen':>7} "
          f"{'err cl':>9} {'err gen':>9}")
    for x_cut in X_CUTS:
        for lam in LAMS:
            cl, gen = (measure(x_cut, lam)[key] for key in ("cl", "gen"))
            print(f"{x_cut:6.1f} {lam:6.0f} {cl[0]:8d} {cl[1]:8d} "
                  f"{gen[0]:8d} {gen[1]:9d} {cl[2]:7.1f} {gen[2]:7.1f} "
                  f"{cl[3]:9.1e} {gen[3]:9.1e}")


if __name__ == "__main__":
    main()

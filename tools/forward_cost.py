"""Print the cost and the accuracy of the forward transform, per lambda.

For each truncation x_cut in X_CUTS and each lambda in LAMS the script
runs the forward transform of both pairs on two profiles whose transforms
are known in closed form, one lambda per call, and prints

* the nodes at which the forward evaluated its kernel: (lambda, node)
  pairs plus, where the forward has Filon panels, the Filon nodes;
* the worst absolute error against the closed forms over both profiles,
  for the classical pair and for the generalized pair at M in MS.

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

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bessel4 import classical, transforms  # noqa: E402
from bessel4.solutions import Params  # noqa: E402

LAMS = (1.0, 8.0, 30.0, 60.0, 320.0)
X_CUTS = (2.5, 9.0, 40.0)
MS = (0.5, 1.0, 2.0)


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


class NodeCounter:
    """Counts the forward's kernel nodes by wrapping its evaluators: the
    kernel (classical.j0 for the classical pair, eval_jtype_outer for the
    generalized one) and, where the forward has them, the Filon panels."""

    def __init__(self, kernel):
        self.targets = [kernel, (transforms, "_filon_sum",
                                 lambda panels, lams, count, A, B:
                                 panels.x.shape[1] * int(np.sum(count)))]
        self.nodes = 0
        self._saved = []

    def __enter__(self):
        for module, name, size in self.targets:
            inner = getattr(module, name)
            self._saved.append((module, name, inner))
            setattr(module, name, self._counted(inner, size))
        return self

    def _counted(self, inner, size):
        def counted(*args):
            self.nodes += size(*args)
            return inner(*args)
        return counted

    def __exit__(self, *exc):
        for module, name, inner in self._saved:
            setattr(module, name, inner)


CLASSICAL_KERNEL = (classical, "j0", lambda z: np.size(z))
GENERALIZED_KERNEL = (transforms, "eval_jtype_outer",
                      lambda lams, xs, params: np.broadcast(lams, xs).size)


def measure(x_cut, lam):
    """(classical nodes, generalized nodes, classical error, generalized
    error), the nodes and errors the largest over the profiles and M."""
    n_cl = n_gen = 0
    err_cl = err_gen = 0.0
    for f, g_cl, g_gen in profiles(x_cut):
        with NodeCounter(CLASSICAL_KERNEL) as count:
            got = transforms._forward(transforms._CLASSICAL, f, [lam], None,
                                      0.0, x_cut).values[0]
        n_cl = max(n_cl, count.nodes)
        err_cl = max(err_cl, abs(got - g_cl(lam)))
        for M in MS:
            with NodeCounter(GENERALIZED_KERNEL) as count:
                got = transforms.generalized_forward(f, Params(M), [lam],
                                                     x_cut=x_cut).values[0]
            n_gen = max(n_gen, count.nodes)
            err_gen = max(err_gen, abs(got - g_gen(lam, M)))
    return n_cl, n_gen, err_cl, err_gen


def main():
    print(f"{'x_cut':>6} {'lam':>6} {'nodes cl':>9} {'nodes gen':>9} "
          f"{'err cl':>9} {'err gen':>9}")
    for x_cut in X_CUTS:
        for lam in LAMS:
            n_cl, n_gen, e_cl, e_gen = measure(x_cut, lam)
            print(f"{x_cut:6.1f} {lam:6.0f} {n_cl:9d} {n_gen:9d} "
                  f"{e_cl:9.1e} {e_gen:9.1e}")


if __name__ == "__main__":
    main()

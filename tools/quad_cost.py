"""Print the cost of the lambda-side integrals, per call site.

For each call site in SITES the script runs the public function once per
input and prints, per call of the site,

* integrals: integrals the quadrature driver ran (an adaptive integral,
  or a bracket train with its adaptive head);
* rounds: integrand calls; integrals run in lockstep share each call;
* nodes: integrand nodes;
* ms: milliseconds spent inside the driver, the least over REPEATS runs
  of the site after one warm-up run.

The lambda-side integrals that start at lambda = 0 (the inverse's head,
Parseval's lambda side, the moment identity's body and the core of
``inner_product``) start on the graded edges of ``measures._graded_edges``;
the others on one panel.

Every integral runs through one driver, ``quadrature._lockstep``: the
engines ``adaptive_quad`` and ``oscillatory_semi_infinite`` are its
one-integral case, and the inverse transform, the moment identity and
``measures.inner_product`` run several integrals in one drive.  The
script wraps the driver where the library binds it and counts at the
outermost drive only, so an integral whose integrand runs a quadrature of
its own is counted once.  Run from the root of a checkout (numpy only):

    python tools/quad_cost.py
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bessel4 import measures, quadrature, transforms  # noqa: E402
from bessel4.solutions import Params  # noqa: E402

REPEATS = 5
MS = (0.5, 1.0, 2.0)
X_CUT = 40.0


def expdamp(x):
    return np.exp(-np.asarray(x, dtype=float))


def gaussian_g(M):
    """The generalized transform of exp(-x^2) at M, in closed form."""
    def g(lam):
        lam = np.asarray(lam, dtype=float)
        return np.exp(-lam * lam / 4.0) * ((1.0 + M * lam * lam / 4.0) / 2.0
                                           + M / 2.0)
    return g


# (site, [zero-argument calls of it])
SITES = [
    ("weak_delta_probe classical",
     [lambda lam0=lam0: transforms.weak_delta_probe("classical", lam0, 200.0)
      for lam0 in (0.8, 1.7, 2.6)]),
    ("weak_delta_probe generalized",
     [lambda lam0=lam0, M=M: transforms.weak_delta_probe(
         "generalized", lam0, 200.0, params=Params(M))
      for lam0, M in zip((0.8, 1.7, 2.6), MS)]),
    ("vanishing_moment",
     [lambda eta=eta, M=M: transforms.vanishing_moment(eta, Params(M))
      for eta, M in zip((0.5, 1.5, 4.0), MS)]),
    ("generalized_inverse 1 x",
     [lambda x=x, M=M: transforms.generalized_inverse(gaussian_g(M), Params(M),
                                                      [x])
      for x, M in zip((0.3, 1.0, 2.2), MS)]),
    ("generalized_inverse 3 x",
     [lambda M=M: transforms.generalized_inverse(gaussian_g(M), Params(M),
                                                 [0.3, 1.0, 2.2])
      for M in MS]),
    ("generalized_parseval",
     [lambda M=M: transforms.generalized_parseval(expdamp, Params(M),
                                                  x_cut=X_CUT)
      for M in MS]),
    ("moment_identity_defect",
     [lambda M=M: transforms.moment_identity_defect(expdamp, Params(M),
                                                    x_cut=X_CUT)
      for M in MS]),
    ("inner_product spectral",
     [lambda M=M: measures.inner_product(gaussian_g(M), gaussian_g(M),
                                         measures.spectral_measure(M))
      for M in MS]),
    ("hankel_parseval",
     [lambda: transforms.hankel_parseval(expdamp)]),
]


class DriverCounter:
    """Counts integrals, rounds, nodes and seconds of the quadrature driver
    by wrapping it in every module that binds it."""

    MODULES = (measures, quadrature, transforms)

    def __init__(self):
        self.row = [0, 0, 0, 0.0]  # integrals, rounds, nodes, seconds
        self.depth = 0
        self._saved = []

    def __enter__(self):
        for module in self.MODULES:
            inner = module._lockstep
            self._saved.append((module, inner))
            module._lockstep = self._counted(inner)
        return self

    def _counted(self, inner):
        row = self.row

        def counted(f, steps):
            if self.depth:
                return inner(f, steps)

            def integrand(x, which):
                row[1] += 1
                row[2] += np.size(x)
                return f(x, which)

            self.depth += 1
            start = time.perf_counter()
            try:
                return inner(integrand, steps)
            finally:
                row[0] += len(steps)
                row[3] += time.perf_counter() - start
                self.depth -= 1
        return counted

    def __exit__(self, *exc):
        for module, inner in self._saved:
            module._lockstep = inner


def measure(calls, repeats=REPEATS):
    """(integrals, rounds, nodes, seconds) summed over calls; the counts
    repeat exactly, the seconds are the least over the repeats."""
    for call in calls:
        call()
    runs = []
    for _ in range(repeats):
        with DriverCounter() as count:
            for call in calls:
                call()
        runs.append(count.row)
    return runs[0][:3] + [min(run[3] for run in runs)]


def main(argv=None):
    """Print the table; ``argv`` may give the repeats (default REPEATS)."""
    argv = sys.argv[1:] if argv is None else argv
    repeats = int(argv[0]) if argv else REPEATS
    print(f"{'site':<29} {'integrals':>9} {'rounds':>7} {'nodes':>8} {'ms':>8}")
    for site, calls in SITES:
        n, rounds, nodes, secs = measure(calls, repeats)
        k = len(calls)
        print(f"{site:<29} {n / k:9.1f} {rounds / k:7.1f} {nodes / k:8.0f} "
              f"{1e3 * secs / k:8.2f}")


if __name__ == "__main__":
    main()

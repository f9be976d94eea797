"""Print the cost of the lambda-side integrals, per call site.

For each call site in SITES the script runs the public function once per
input and prints, per quadrature engine the site uses,

* integrals: top-level integrals of that engine per call of the site;
* calls, nodes: integrand calls and nodes per integral;
* ms: milliseconds spent inside the engine per integral, the least over
  REPEATS runs of the site after one warm-up run.

The engines are ``adaptive_quad`` ("adaptive") and
``oscillatory_semi_infinite`` ("brackets"; its adaptive head on the first
bracket is counted with it).  The script wraps both where the library
binds them and counts the integrand at the outermost engine call only, so
the adaptive splits of a singular end are not counted twice.  Run from the
root of a checkout (numpy only):

    python tools/quad_cost.py
"""

import os
import sys
import time
from collections import defaultdict

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bessel4 import measures, quadrature, transforms  # noqa: E402
from bessel4.solutions import Params  # noqa: E402

REPEATS = 5
ENGINES = {"adaptive_quad": "adaptive",
           "oscillatory_semi_infinite": "brackets"}
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
    ("generalized_inverse",
     [lambda x=x, M=M: transforms.generalized_inverse(gaussian_g(M), Params(M),
                                                      [x])
      for x, M in zip((0.3, 1.0, 2.2), MS)]),
    ("generalized_parseval",
     [lambda M=M: transforms.generalized_parseval(expdamp, Params(M),
                                                  x_cut=X_CUT)
      for M in MS]),
    ("moment_identity_defect",
     [lambda M=M: transforms.moment_identity_defect(expdamp, Params(M),
                                                    x_cut=X_CUT)
      for M in MS]),
]


class EngineCounter:
    """Counts integrals, integrand calls, nodes and seconds per engine by
    wrapping the engines in every module that binds them."""

    MODULES = (quadrature, transforms, measures)

    def __init__(self):
        self.rows = defaultdict(lambda: [0, 0, 0, 0.0])
        self.depth = 0
        self._saved = []

    def __enter__(self):
        for module in self.MODULES:
            for name, engine in ENGINES.items():
                inner = getattr(module, name, None)
                if inner is not None:
                    self._saved.append((module, name, inner))
                    setattr(module, name, self._counted(engine, inner))
        return self

    def _counted(self, engine, inner):
        def counted(f, *args, **kwargs):
            if self.depth:
                return inner(f, *args, **kwargs)
            row = self.rows[engine]

            def integrand(x):
                row[1] += 1
                row[2] += np.size(x)
                return f(x)

            self.depth += 1
            start = time.perf_counter()
            try:
                return inner(integrand, *args, **kwargs)
            finally:
                row[0] += 1
                row[3] += time.perf_counter() - start
                self.depth -= 1
        return counted

    def __exit__(self, *exc):
        for module, name, inner in self._saved:
            setattr(module, name, inner)


def measure(calls, repeats=REPEATS):
    """{engine: (integrals, calls, nodes, seconds)} summed over calls; the
    counts repeat exactly, the seconds are the least over the repeats."""
    for call in calls:
        call()
    runs = []
    for _ in range(repeats):
        with EngineCounter() as count:
            for call in calls:
                call()
        runs.append(dict(count.rows))
    return {engine: row[:3] + [min(run[engine][3] for run in runs)]
            for engine, row in runs[0].items()}


def main():
    print(f"{'site':<29} {'engine':<8} {'integrals':>9} {'calls':>7} "
          f"{'nodes':>8} {'ms':>8}")
    for site, calls in SITES:
        for engine, (n, ncalls, nodes, secs) in sorted(measure(calls).items()):
            print(f"{site:<29} {engine:<8} {n / len(calls):9.1f} "
                  f"{ncalls / n:7.1f} {nodes / n:8.0f} {1e3 * secs / n:8.2f}")


if __name__ == "__main__":
    main()

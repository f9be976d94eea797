"""Kernel region probe: cost of single-region arrays through the public kernels.

For each region of the classical kernels, one array whose points all fall
in that region goes through the public entry point (j0, y0, i0 or k0):
``probe_ns_per_point`` at 10^4 points (the batch size of the ROADMAP's L0
baseline) and ``probe_call_us`` at 16 points, where per-call overhead
dominates.  Each figure is the median of repeated calls.
"""

import statistics
from time import perf_counter

import numpy as np

# region -> (kernel, lower end, upper end); the ends are the switch radii
PROBE_REGIONS = {
    "j_f64": ("j0", 0.01, 8.0),
    "j_dd": ("j0", 8.0, 17.0),
    "y_f64": ("y0", 0.01, 8.0),
    "y_dd": ("y0", 8.0, 17.0),
    "jy_hankel": ("j0", 17.0, 700.0),
    "i_series": ("i0", 0.01, 30.0),
    "i_asym": ("i0", 30.0, 700.0),
    "k_series": ("k0", 0.01, 2.0),
    "k_cosh": ("k0", 2.0, 20.0),
    "k_asym": ("k0", 20.0, 700.0),
}
BATCH = 10_000
SMALL = 16


def _median_call(fn, x, budget_s, max_reps):
    times = []
    spent = 0.0
    while len(times) < max_reps and (len(times) < 3 or spent < budget_s):
        t0 = perf_counter()
        fn(x)
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times)


def run_probe(seed):
    from bessel4 import classical
    rng = np.random.default_rng([int(seed), 99])
    out = {}
    for region, (name, lo, hi) in PROBE_REGIONS.items():
        fn = getattr(classical, name)
        big = rng.uniform(lo, hi, BATCH)
        small = rng.uniform(lo, hi, SMALL)
        fn(small)  # first call of the region outside the timing
        out[f"classical.probe_ns_per_point.{region}"] = \
            1e9 * _median_call(fn, big, 0.15, 7) / BATCH
        out[f"classical.probe_call_us.{region}"] = \
            1e6 * _median_call(fn, small, 0.05, 25)
    return out

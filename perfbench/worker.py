"""One measuring process of the benchmark, started by run.py.

Modes:
  setup    import bessel4, build the workload's inputs, run the warm-up op,
           report the time since the parent started this process;
  measure  the same set-up, then timed ops in a closed loop (one caller, no
           threads) until --seconds of wall time pass, or ops --first to
           --first + --ops - 1;
           every op's output is checked against its oracle outside the
           timers; reports per-op durations, check results and digests;
  trace    the same set-up, the kernel region probe, then --ops checked ops
           with the span tracer installed; reports the same plus the
           per-layer metrics, and writes the spans to --spans.
"""

import argparse
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.workloads import WORKLOADS, digest  # noqa: E402


def _digits(item):
    """log10(tol / err) clipped to [-16, 16]; an exact match counts 16."""
    if item.err == 0.0:
        return 16.0
    if not (math.isfinite(item.err) and item.tol > 0.0):
        return -16.0
    return max(-16.0, min(16.0, math.log10(item.tol / item.err)))


def _op_record(items):
    """(ok, digits, first failing item) from an op's check items.

    The op's digits are the mean of its items' digits.
    """
    digits = [_digits(it) for it in items]
    bad = [it for it in items if not it.ok]
    reason = None
    if bad:
        it = bad[0]
        reason = (f"{it.label}: not converged" if not it.converged
                  else f"{it.label}: err {it.err:.3e} > tol {it.tol:.1e}")
    return not bad, sum(digits) / len(digits), reason


def _setup(args):
    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.inputs(args.seed, -1)
    workload.run(warm)
    return workload


def _loop(workload, args, tracer=None):
    """Run ops in a closed loop; each op's output is checked after its timer
    stops.  Returns durations, digests and check records."""
    durations, digests, records = [], [], []
    start = time.monotonic()
    i = args.first
    while (i < args.first + args.ops) if args.ops else (time.monotonic() - start < args.seconds):
        inp = workload.inputs(args.seed, i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
            error = None
        except Exception as exc:  # an op failure, counted and reported
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        durations.append(t1 - t0)
        if error is None:
            digests.append(digest(out))
            records.append(_op_record(workload.check(inp, out)))
        else:
            digests.append(error)
            records.append((False, 0.0, error))
        i += 1
    return durations, digests, records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0, help="run ops first..first+ops-1")
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    workload = _setup(args)
    result = {"setup_s": time.monotonic() - args.spawned, "cycle": workload.cycle}
    if args.mode == "measure":
        durations, digests, records = _loop(workload, args)
        # the high-water mark also holds the oracles' scipy import
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(durations=durations, digests=digests, records=records)
    elif args.mode == "trace":
        from perfbench.probe import run_probe
        from perfbench.tracer import Tracer
        probe = run_probe(args.seed)
        tracer = Tracer()
        tracer.install()
        before = tracer.series_cache_info()
        durations, digests, records = _loop(workload, args, tracer=tracer)
        layers = tracer.layer_metrics(durations, before, tracer.series_cache_info())
        layers.update(probe)
        if args.spans:
            tracer.write(args.spans)
        result.update(durations=durations, digests=digests, records=records, layers=layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of bessel4: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; bessel4 is imported from ``src/``.
Every measurement happens in a fresh worker process (perfbench/worker.py):

--trace 0  five set-up-only workers give ``setup_s`` (their median), then
           one worker runs the closed loop for --seconds and checks every
           op; prints the end-to-end metrics.
--trace 1  one untraced worker and one traced worker run the same fixed
           number of ops; the traced one also runs the kernel region probe
           and writes its spans to .bench_out/; prints the per-layer metrics,
           with trace.overhead = traced ops/s over untraced ops/s.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it repeat every metric by name with its unit, plus
fail_frac and each failed op.  Exit code 0 on a completed run, 1 when a
worker fails or the metrics differ from those BENCHMARK.json declares, 2
when the bessel4 sources are missing.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
# (first op, op count) of a traced run: fixed ops keep every per-layer count
# exactly reproducible for a seed; transform-pair's ops 4..7 are one of each
# type, with a roundtrip at x > 0
TRACE_OPS = {"eval-grid": (0, 40), "operator-calculus": (0, 80), "transform-pair": (4, 4)}

# one caller and no threads: numpy's BLAS stays single-threaded, so no idle
# BLAS thread spins on the second CPU between ops
_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1")


class WorkerError(RuntimeError):
    pass


def _spawn(mode, args, deadline, **extra):
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed)]
    for key, val in extra.items():
        cmd += [f"--{key}", str(val)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=_ENV,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"{mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _tail(durations):
    """(value, percentile): the highest percentile with >= 10 ops beyond it.

    Runs of fewer than 100 ops have no such percentile worth the name; they
    report their slowest op (percentile 100) instead.
    """
    d = sorted(durations)
    n = len(d)
    if n >= 100:
        return d[n - 11], 100.0 * (n - 10) / n
    return d[-1], 100.0


def _whole_cycles(durations, cycle):
    """The durations of the run's complete op cycles (all of them if none is).

    A workload whose ops repeat a cycle of different op kinds is timed on
    whole cycles, so a run that stops part way into its next cycle does not
    tilt the mix; with a cycle of 1 every op counts.
    """
    n = len(durations) // cycle * cycle
    return durations[:n] if n else durations


def _declared(trace):
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _end_to_end(args, deadline, units):
    setups = [_spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = _spawn("measure", args, deadline, seconds=args.seconds)
    records = res["records"]
    n = len(records)
    failed = [(i, reason) for i, (ok, _, reason) in enumerate(records) if not ok]
    timed = _whole_cycles(res["durations"], res["cycle"])
    tail, pct = _tail(timed)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(timed) / sum(timed),
        "op_p50_ms": 1e3 * statistics.median(timed),
        "op_tail_ms": 1e3 * tail,
        "accuracy_digits": statistics.fmean(r[1] for r in records),
        "ok_frac": (n - len(failed)) / n,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {n}  "
          f"timed in whole cycles of {res['cycle']}: {len(timed)} ops, {sum(timed):.3f} s")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {units.get(name, '?')}")
    print(f"  {'fail_frac':<16} {len(failed) / n:>14.6g} ratio")
    print(f"  op_tail_ms is percentile {pct:.2f} of {len(timed)} ops")
    for i, reason in failed:
        print(f"  failed op {i}: {reason}")
    return metrics, n, len(failed), not failed


def _per_layer(args, deadline, units):
    first, ops = TRACE_OPS[args.workload]
    ref = _spawn("measure", args, deadline, first=first, ops=ops)
    spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.csv")
    res = _spawn("trace", args, deadline, first=first, ops=ops, spans=spans)
    metrics = dict(res["layers"])
    metrics["trace.overhead"] = sum(ref["durations"]) / sum(res["durations"])
    failed = [(i, reason) for i, (ok, _, reason) in enumerate(res["records"], first) if not ok]
    differ = [i for i, (a, b) in enumerate(zip(ref["digests"], res["digests"]), first) if a != b]
    print(f"workload {args.workload}  seed {args.seed}  traced ops {ops}  spans -> {spans}")
    for name in sorted(metrics):
        print(f"  {name:<44} {metrics[name]:>14.6g} {units.get(name, '?')}")
    for i, reason in failed:
        print(f"  failed op {i}: {reason}")
    for i in differ:
        print(f"  traced op {i} differs from its untraced output")
    return metrics, ops, len(failed), not failed and not differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("eval-grid", "operator-calculus", "transform-pair"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "bessel4", "__init__.py")):
        print(f"perfbench: no bessel4 sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        units = _declared(args.trace)
        run = _per_layer if args.trace else _end_to_end
        values, attempted, failed, correct = run(args, deadline, units)
    except (OSError, ValueError, WorkerError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units) or not all(map(math.isfinite, values.values())):
        print("perfbench: the metrics do not match BENCHMARK.json or are not finite",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

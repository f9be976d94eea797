"""Seeds, determinism, tracing transparency and the no-sources exit.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench.workloads import WORKLOADS, digest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
# ops per determinism run: enough to cover each workload's op variety cheaply
OPS = {"eval-grid": 3, "operator-calculus": 2, "transform-pair": 1}


def _inputs_digest(name, seed, n=4):
    w = WORKLOADS[name](seed)
    return [digest(w.inputs(seed, i)) for i in range(-1, n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    a = _inputs_digest(name, 3)
    assert a == _inputs_digest(name, 3)
    b = _inputs_digest(name, 4)
    assert all(x != y for x, y in zip(a, b))


def _worker(mode, name, seed, ops, tmp_path):
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", name, "--seed", str(seed),
           "--ops", str(ops), "--spawned", repr(time.monotonic())]
    if mode == "trace":
        cmd += ["--spans", str(tmp_path / "spans.csv")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_bit_identical_across_processes_and_under_tracing(name, tmp_path):
    ops = OPS[name]
    first = _worker("measure", name, 5, ops, tmp_path)
    second = _worker("measure", name, 5, ops, tmp_path)
    traced = _worker("trace", name, 5, ops, tmp_path)
    assert first["digests"] == second["digests"] == traced["digests"]
    assert all(ok for ok, _, _ in first["records"])
    layers = traced["layers"]
    assert layers["trace.coverage"] >= 0.95
    assert (tmp_path / "spans.csv").stat().st_size > 0


def test_tracer_leaves_library_results_unchanged_in_process():
    from bessel4 import Params, SolutionHandle, eval_solution_derivs, transforms
    from perfbench.tracer import Tracer
    P = Params(1.1)
    x = np.geomspace(1e-3, 50.0, 64)
    before = [eval_solution_derivs(SolutionHandle(k, 0.9, P), x, 4)
              for k in ("jtype", "ytype", "itype", "ktype")]
    inv_before = transforms.vanishing_moment(1.5, P)
    t = Tracer()
    t.install()
    t.op = 0
    after = [eval_solution_derivs(SolutionHandle(k, 0.9, P), x, 4)
             for k in ("jtype", "ytype", "itype", "ktype")]
    inv_after = transforms.vanishing_moment(1.5, P)
    t.op = None
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert inv_before == inv_after
    names = {t.names[i][0] for i in t.span_names}
    # reached through solutions._KERNELS, a name bound by "from .x import y"
    # and a wrapped method
    assert {"classical.j0", "classical.k1", "quadrature.adaptive_quad",
            "logseries.LogPowerSeries.evaluate"} <= names


def test_held_out_seed_is_recorded():
    with open(os.path.join(ROOT, "perfbench", "baseline.json")) as fh:
        base = json.load(fh)
    assert isinstance(base["held_out_seed"], int)
    assert base["held_out_seed"] not in base["tuning_seeds"] + base.get("proof_seeds", [])


def test_exits_nonzero_without_printing_when_sources_are_missing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

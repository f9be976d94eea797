"""Outside-in span tracer for bessel4, installed from the benchmark's side.

``install()`` wraps the library's public functions and a few named methods
at every place they are bound: module attributes, names copied into other
modules by ``from .x import y``, and module-level dicts that hold them
(``solutions._KERNELS``, ``classical._EVAL``).  No library file changes.
A wrapper passes straight through unless the tracer is inside an op.

Spans are (name, start, end, parent, op) tuples kept in memory and written
out at the end of the run.  A span's self time is its duration minus the
time its child spans cover; a layer's self time is the sum over its spans.
Counters are read at the same boundaries from arguments and results.
"""

import csv
import functools
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("classical", "solutions", "logseries", "quadrature", "measures",
          "transforms", "forms", "spectral", "frobenius", "plum")

# private callables the layer metrics need, next to every public function
_METHODS = {
    "logseries": [("LogPowerSeries", "evaluate"), ("LogPowerSeries", "derivatives"),
                  ("DiffOp", "apply")],
    "transforms": [("_ForwardEvaluator", "__call__"), ("_PanelCache", "grid")],
}

KERNELS = ("j0", "j1", "y0", "y1", "i0", "i1", "k0", "k1")
# region switch radii of the kernels (README "Numerical notes"; 8 splits
# the plain and double-double J/Y series)
REGIONS = ("jy_f64", "jy_dd", "jy_hankel", "i_series", "i_asym",
           "k_series", "k_cosh", "k_asym")


def _size(x):
    return int(np.size(x))


def _classify(name, x):
    x = np.asarray(x, dtype=float)
    fam = name[0]
    if fam in "jy":
        lo, hi = np.count_nonzero(x < 8.0), np.count_nonzero(x < 17.0)
        return {"jy_f64": lo, "jy_dd": hi - lo, "jy_hankel": x.size - hi}
    if fam == "i":
        lo = np.count_nonzero(x < 30.0)
        return {"i_series": lo, "i_asym": x.size - lo}
    lo, hi = np.count_nonzero(x <= 2.0), np.count_nonzero(x < 20.0)
    return {"k_series": lo, "k_cosh": hi - lo, "k_asym": x.size - hi}


class Tracer:
    def __init__(self):
        self.names = []          # span name index -> (qualified name, layer)
        self.spans = []          # (name index, start, end, parent span, op)
        self.span_names = []     # name index of every span, set when it opens
        self.stack = []
        self.count = defaultdict(float)
        self.op = None
        self.originals = {}      # id(original) -> wrapper
        self.by_name = {}        # qualified name -> original
        self._hooks = {}         # qualified name -> (pre, post) counter hooks

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname, layer, fn):
        idx = len(self.names)
        self.names.append((qualname, layer))
        pre, post = self._hooks.get(qualname, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            state = pre(args) if pre is not None else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer.span_names.append(idx)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.count[f"{layer}.exceptions.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[sid] = (idx, start, end, parent, tracer.op)
            if post is not None:
                post(tracer, parent, args, result, state)
            return result

        return wrapper

    def parent_name(self, parent):
        return None if parent < 0 else self.names[self.span_names[parent]][0]

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer at every binding site."""
        self._register_hooks()
        modules = {layer: importlib.import_module(f"bessel4.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self.by_name[f"{layer}.{name}"] = obj
                    self.originals[id(obj)] = self._wrap(f"{layer}.{name}", layer, obj)
            for cls_name, meth in _METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn))
        import bessel4
        for mod in [bessel4, *[m for n, m in list(vars(bessel4).items())
                                if inspect.ismodule(m)]]:
            self._rebind(mod)

    def _swap(self, obj):
        if isinstance(obj, tuple):
            return tuple(self._swap(o) for o in obj)
        return self.originals.get(id(obj), obj)

    def _rebind(self, mod):
        for name, obj in list(vars(mod).items()):
            new = self._swap(obj)
            if new is not obj:
                setattr(mod, name, new)
            elif isinstance(obj, dict) and not name.startswith("__"):
                for key, val in list(obj.items()):
                    swapped = self._swap(val)
                    if swapped is not val:
                        obj[key] = swapped

    # -- counters ----------------------------------------------------------

    def _register_hooks(self):
        hooks = self._hooks

        def kernel(name):
            def hook(t, parent, args, result, state):
                x = args[0]
                t.count["classical.calls"] += 1
                t.count["classical.points"] += _size(x)
                for region, n in _classify(name, x).items():
                    t.count[f"classical.points.{region}"] += n
            return hook

        for name in KERNELS:
            hooks[f"classical.{name}"] = (None, kernel(name))

        def solution_points(t, parent, args, result, state):
            handle, x = args[0], np.asarray(args[1], dtype=float)
            radius = t.by_name["solutions.series_radius"](handle)
            n_series = int(np.count_nonzero(x < radius))
            t.count["solutions.points"] += x.size
            t.count["solutions.series_points"] += n_series
            t.count["solutions.direct_points"] += x.size - n_series

        hooks["solutions.eval_solution"] = (None, solution_points)
        hooks["solutions.eval_solution_derivs"] = (None, solution_points)

        def adaptive(t, parent, args, result, state):
            if t.parent_name(parent) == "quadrature.adaptive_quad":
                return  # a split of the enclosing call, already counted there
            t.count["quadrature.adaptive.calls"] += 1
            t.count["quadrature.adaptive.neval"] += result.neval
            t.count["quadrature.adaptive.nonconverged"] += not result.converged

        def osc(t, parent, args, result, state):
            t.count["quadrature.osc.calls"] += 1
            t.count["quadrature.osc.brackets"] += result.brackets
            t.count["quadrature.osc.nonconverged"] += not result.converged

        def wynn(t, parent, args, result, state):
            t.count["quadrature.wynn.calls"] += 1

        hooks["quadrature.adaptive_quad"] = (None, adaptive)
        hooks["quadrature.oscillatory_semi_infinite"] = (None, osc)
        hooks["quadrature.wynn_epsilon"] = (None, wynn)

        def forward_x(t, parent, args, result, state):
            t.count["transforms.forward_lambdas"] += 1
            t.count["transforms.forward_nodes"] += _size(args[1])

        def inverse(t, parent, args, result, state):
            t.count["transforms.inverse_points"] += _size(args[2])

        hooks["transforms.jtype_eval_multi_x"] = (None, forward_x)
        hooks["transforms.generalized_inverse"] = (None, inverse)

        def memo_size(args):
            return len(getattr(args[0], "cache", ()))

        def requests(t, parent, args, result, before):
            t.count["transforms.forward_requests"] += _size(args[1])
            t.count["transforms.forward_misses"] += memo_size(args) - before

        hooks["transforms._ForwardEvaluator.__call__"] = (memo_size, requests)

    @staticmethod
    def series_cache_info():
        """(hits, misses) of the solution-series memo; (0, 0) if it is gone."""
        memo = getattr(importlib.import_module("bessel4.solutions"), "_series_cached", None)
        info = memo.cache_info() if hasattr(memo, "cache_info") else None
        return (info.hits, info.misses) if info else (0, 0)

    # -- output ------------------------------------------------------------

    def self_times(self):
        """Per-span self time (duration minus the time of its children)."""
        n = len(self.spans)
        child = np.zeros(n)
        dur = np.empty(n)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            dur[i] = end - start
            if parent >= 0:
                child[parent] += end - start
        return dur, dur - child

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "layer", "start_s", "end_s", "parent", "op"])
            for i, (idx, start, end, parent, op) in enumerate(self.spans):
                name, layer = self.names[idx]
                out.writerow([i, name, layer, f"{start:.9f}", f"{end:.9f}", parent, op])

    def layer_metrics(self, op_seconds, cache_before, cache_after):
        """Per-layer totals over the traced ops (counts, seconds, ratios)."""
        dur, own = self.self_times()
        layer_of = np.array([self.names[s[0]][1] for s in self.spans], dtype=object)
        parents = np.array([s[3] for s in self.spans], dtype=int)
        c = self.count
        m = {}
        for layer in LAYERS:
            mask = layer_of == layer
            m[f"{layer}.self_s"] = float(own[mask].sum())
            if layer != "classical":
                m[f"{layer}.calls"] = int(mask.sum())
        m["classical.calls"] = int(c["classical.calls"])
        m["classical.points"] = int(c["classical.points"])
        m["classical.points_per_call"] = _ratio(c["classical.points"], c["classical.calls"])
        m["classical.ns_per_point"] = _ratio(1e9 * m["classical.self_s"], c["classical.points"])
        for region in REGIONS:
            m[f"classical.points.{region}"] = int(c[f"classical.points.{region}"])
        for key in ("points", "series_points", "direct_points"):
            m[f"solutions.{key}"] = int(c[f"solutions.{key}"])
        hits = cache_after[0] - cache_before[0]
        misses = cache_after[1] - cache_before[1]
        m["solutions.series_cache_hit_ratio"] = _ratio(hits, hits + misses)
        for key in ("adaptive.calls", "adaptive.neval", "adaptive.nonconverged",
                    "osc.calls", "osc.brackets", "osc.nonconverged", "wynn.calls"):
            m[f"quadrature.{key}"] = int(c[f"quadrature.{key}"])
        results = c["quadrature.adaptive.calls"] + c["quadrature.osc.calls"]
        failed = c["quadrature.adaptive.nonconverged"] + c["quadrature.osc.nonconverged"]
        m["quadrature.converged_ratio"] = _ratio(results - failed, results)
        m["measures.convergence_errors"] = int(c["measures.exceptions.ConvergenceError"])
        for key in ("forward_lambdas", "forward_nodes", "forward_requests", "inverse_points"):
            m[f"transforms.{key}"] = int(c[f"transforms.{key}"])
        m["transforms.forward_memo_hit_ratio"] = _ratio(
            c["transforms.forward_requests"] - c["transforms.forward_misses"],
            c["transforms.forward_requests"])
        m["trace.coverage"] = _ratio(float(dur[parents < 0].sum()), sum(op_seconds))
        return m


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0

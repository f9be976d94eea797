"""The three benchmark workloads: inputs from a seed, the op, and its check.

Every workload follows one protocol:

* ``inputs(seed, i)`` gives the inputs of op number i; the same (seed, i)
  always gives the same inputs, and op -1 is the warm-up op (stream -2
  seeds the run-wide inputs built in ``__init__``);
* ``run(inp)`` is the op: public bessel4 calls only, nothing else;
* ``check(inp, out)`` compares the output with an independent oracle and
  returns a list of ``Item(label, err, tol, converged)``.

An op fails when it raises, when an item reports ``converged=False`` or
when an item misses its tolerance (err > tol, or err not finite).  The
tolerances are the library's own stated ones: the kernel test budget
(1e-10 of the term scale, tests/test_classical.py), the boundary-data
tolerances of tests/test_forms.py, and the thresholds of the acceptance
criteria (ACCEPT-01, -07, -08, -09, -10) for the calls they cover.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

KINDS = ("jtype", "ytype", "itype", "ktype")


@dataclass(frozen=True)
class Item:
    label: str
    err: float
    tol: float
    converged: bool = True

    @property
    def ok(self):
        return self.converged and math.isfinite(self.err) and self.err <= self.tol


def _rng(seed, tag, i):
    return np.random.default_rng([int(seed), tag, int(i) + 2])


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _stratum(rng, lo, hi, k, n, log=False):
    """A seeded point in the k-th of n equal strata of [lo, hi].

    Stratified draws give every run the same spread of parameters, so run
    to run the cost of the op mix moves far less than with free draws.
    """
    if log:
        return math.exp(_stratum(rng, math.log(lo), math.log(hi), k, n))
    return lo + (hi - lo) * (k + float(rng.uniform())) / n


def digest(obj):
    """Stable hash of an op output (arrays by their exact bytes)."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(str(o.shape).encode())
            h.update(np.ascontiguousarray(o, dtype=float).tobytes())
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(str(k).encode())
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            for v in o:
                feed(v)
        elif isinstance(o, float):
            h.update(np.float64(o).tobytes())
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# eval-grid: bulk tabulation of the four solutions and four derivatives

class EvalGrid:
    """Each op tabulates jtype/ytype/itype/ktype with derivatives 0..4 at one
    seeded (lam, M) on the run's seeded log grid of z = scale * x values.

    32768 points make the kernels' per-point cost the larger part of an op
    (about 3/4; at 2048 points per-call overhead was most of it), and an op
    long enough (~0.15 s) that a stall of the machine does not decide the
    run's tail."""

    name = "eval-grid"
    tag = 1
    cycle = 1
    points = 32768
    z_min, z_max = 1e-3, 690.0   # I(690) * c^4 stays finite in double
    rtol = 1e-10                 # kernel test budget (tests/test_classical.py)

    def __init__(self, seed):
        rng = _rng(seed, self.tag, -2)
        u = np.sort(rng.uniform(0.0, 1.0, self.points))
        self.z = self.z_min * (self.z_max / self.z_min) ** u
        self._stacks = {}  # oracle kernel values on z, shared by every op

    def inputs(self, seed, i):
        rng = _rng(seed, self.tag, i)
        lam = _loguniform(rng, 0.1, 10.0)
        M = _loguniform(rng, 0.1, 10.0)
        xs = {k: self.z / _scale(k, lam, M) for k in KINDS}
        return {"lam": lam, "M": M, "x": xs}

    def run(self, inp):
        from bessel4 import Params, SolutionHandle, eval_solution_derivs
        P = Params(inp["M"])
        return {k: eval_solution_derivs(SolutionHandle(k, inp["lam"], P), inp["x"][k], 4)
                for k in KINDS}

    def check(self, inp, out):
        from . import oracles
        items = []
        for k in KINDS:
            family = oracles.KIND_FAMILY[k]
            if family not in self._stacks:
                self._stacks[family] = oracles.kernel_stack(family, self.z)
            ref, scale, logf = oracles.solution_derivs(k, inp["lam"], inp["M"], self.z,
                                                       self._stacks[family])
            with np.errstate(over="ignore", invalid="ignore"):
                got = out[k] * np.exp(-logf)[None, :]
                ratio = np.abs(got - ref) / (self.rtol * scale)
            worst = float(np.max(ratio)) if np.all(np.isfinite(ratio)) else math.inf
            items.append(Item(k, worst, 1.0))
        return items


def _scale(kind, lam, M):
    if kind in ("jtype", "ytype"):
        return lam
    return math.sqrt(lam * lam + 8.0 / M)


# ---------------------------------------------------------------------------
# operator-calculus: one parameter point through a recipe of small calls

class OperatorCalculus:
    """Residuals, boundary data, the extension map, the log-case basis, the
    vanishing moment, both delta probes and a Gaussian inverse transform at
    one (lam, M) drawn from a seeded pool that ops revisit."""

    name = "operator-calculus"
    tag = 2
    cycle = 1
    pool_size = 16

    def __init__(self, seed):
        rng = _rng(seed, self.tag, -2)
        n = self.pool_size
        perm = rng.permutation(n)
        self.pool = [(_stratum(rng, 0.2, 3.0, k, n, log=True),
                      _stratum(rng, 0.5, 2.0, int(perm[k]), n, log=True))
                     for k in range(n)]

    def inputs(self, seed, i):
        rng = _rng(seed, self.tag, i)
        lam, M = self.pool[int(rng.integers(self.pool_size))]
        # the extension map is defined on mu in (-16/M^2, 0); ACCEPT-07's
        # sweep, -15..-1e-3 at M = 1, is the same fraction range at any M
        mu = -(16.0 / M ** 2) * _loguniform(rng, 1e-3 / 16.0, 15.0 / 16.0)
        grid = np.sort(np.exp(rng.uniform(math.log(0.01), math.log(30.0), 40)))
        return {
            "lam": lam, "M": M, "mu": mu, "grid": grid,
            "eta": _loguniform(rng, 0.5, 5.0),
            "lam0": float(rng.uniform(0.6, 3.0)), "X": 200.0, "half_width": 0.5,
            "x_inv": np.sort(rng.uniform(0.05, 2.5, 3)),
        }

    def run(self, inp):
        from bessel4 import Params, SolutionHandle, spectral_value
        from bessel4 import forms, frobenius, spectral, transforms
        lam, M = inp["lam"], inp["M"]
        P = Params(M)
        L = spectral_value(lam, P)
        out = {"residual": [forms.residual_expression(SolutionHandle(k, lam, P), L,
                                                      inp["grid"], P) for k in KINDS]}
        bd = [forms.boundary_data(SolutionHandle(k, lam, P), P) for k in ("jtype", "itype")]
        out["boundary"] = [(b.f0, b.f2) for b in bd]
        e = spectral.extension_for_eigenvalue(inp["mu"], P)
        out["extension"] = (e.alpha, e.beta)
        basis = frobenius.log_case_basis(L, P)
        out["log_case"] = [(fs.root, sorted(fs.series.items())) for fs in basis]
        out["vanish"] = transforms.vanishing_moment(inp["eta"], P)
        out["delta"] = [
            transforms.weak_delta_probe("classical", inp["lam0"], inp["X"],
                                        half_width=inp["half_width"]),
            transforms.weak_delta_probe("generalized", inp["lam0"], inp["X"], params=P,
                                        half_width=inp["half_width"])]

        def g(t):
            t = np.asarray(t, dtype=float)
            return np.exp(-t * t / 4.0) * ((1.0 + M * t * t / 4.0) / 2.0 + M / 2.0)

        r = transforms.generalized_inverse(g, P, inp["x_inv"])
        out["inverse"] = (r.values, [bool(p.get("converged", True))
                                     for p in r.diagnostics["points"]])
        return out

    def check(self, inp, out):
        from . import oracles
        lam, M = inp["lam"], inp["M"]
        L = lam * lam * (lam * lam + 8.0 / M)
        items = [Item(f"residual.{k}", r, 1e-6) for k, r in zip(KINDS, out["residual"])]
        for k, (f0, f2) in zip(("jtype", "itype"), out["boundary"]):
            r0, r2 = oracles.regular_pair_boundary(k, lam, M)
            items.append(Item(f"boundary.{k}.f0", abs(f0 - r0), 1e-8))
            items.append(Item(f"boundary.{k}.f2", abs(f2 - r2), 1e-6 * abs(r2) + 1e-9))
        ref = oracles.extension_pair(inp["mu"], M)
        items.append(Item("extension", math.hypot(out["extension"][0] - ref[0],
                                                  out["extension"][1] - ref[1]), 1e-6))
        xs = np.geomspace(0.02, 0.1, 5)
        for root, terms in out["log_case"]:
            lead = dict(terms).get((root, 0), 0.0)
            items.append(Item(f"log_case.{root}.lead", abs(lead - 1.0), 0.0))
            items.append(Item(f"log_case.{root}.residual",
                              oracles.fourth_order_residual(terms, L, M, xs), 1e-12))
        items.append(Item("vanish", abs(out["vanish"]), 1e-5))
        for kind, v in zip(("classical", "generalized"), out["delta"]):
            items.append(Item(f"delta.{kind}", abs(v - 1.0), 2e-2))
        vals, conv = out["inverse"]
        err = float(np.max(np.abs(vals - np.exp(-inp["x_inv"] ** 2))))
        items.append(Item("inverse", err, 1e-3, all(conv)))
        return items


# ---------------------------------------------------------------------------
# transform-pair: the generalized Hankel pair, one public call per op

TP_TYPES = ("forward", "parseval", "moment", "roundtrip")


class TransformPair:
    """Forward on a seeded lambda grid, Parseval, the moment identity and a
    roundtrip at one seeded x, for the suite fixtures plus exp(-x).

    Ops come in cycles of 16.  Slot c = i % 16 has type c % 4, fixture
    (c % 4 + c // 4) % 4 and draws M from stratum c // 4 of four: a Latin
    square, so each cycle pairs every type with every fixture and every
    stratum, and every prefix stays mixed.  The roundtrips of a cycle sit
    at x = 0 and in the three strata of [0.5, 2.5]."""

    name = "transform-pair"
    tag = 3
    forward_points = 200
    cycle = 16

    def __init__(self, seed):
        from bessel4.fixtures import load_suite, parse_suite
        self.fixtures = load_suite() + parse_suite("expx | exp(-x) | exp")

    def inputs(self, seed, i):
        rng = _rng(seed, self.tag, i)
        if i < 0:  # warm-up: the cheapest op type on a short grid
            return {"type": "forward", "fx": 0, "M": float(rng.uniform(0.5, 2.0)),
                    "lam": self._lambda_grid(rng, 16)}
        c = i % self.cycle
        t, k = c % 4, c // 4
        inp = {"type": TP_TYPES[t], "fx": (t + k) % 4, "M": _stratum(rng, 0.5, 2.0, k, 4)}
        if t == 0:
            inp["lam"] = self._lambda_grid(rng, self.forward_points)
        elif t == 3:
            # x = 0 is the origin recovery; (0, 0.5) is left out: there the
            # lambda-side bracket spacing pi/x widens and one op costs from
            # 4 s to over 10 s as x -> 0, a cliff that would make the run's
            # cost a property of one draw (verify uses x = 0, 0.5, 1, 2)
            inp["x"] = 0.0 if k == 0 else _stratum(rng, 0.5, 2.5, k - 1, 3)
        return inp

    @staticmethod
    def _lambda_grid(rng, n):
        """One seeded point in each of n equal cells of [0.05, 10]."""
        return 0.05 + 9.95 * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n

    def run(self, inp):
        from bessel4 import Params
        from bessel4 import transforms
        fx = self.fixtures[inp["fx"]]
        P = Params(inp["M"])
        kind = inp["type"]
        if kind == "forward":
            r = transforms.generalized_forward(fx, P, inp["lam"], x_cut=fx.x_cut)
            return (r.values, r.diagnostics.get("converged", True))
        if kind == "parseval":
            return transforms.generalized_parseval(fx, P, x_cut=fx.x_cut)
        if kind == "moment":
            return transforms.moment_identity_defect(fx, P, x_cut=fx.x_cut)
        r = transforms.generalized_roundtrip(fx, P, [inp["x"]], x_cut=fx.x_cut)
        return (r.values, [bool(p.get("converged", True)) for p in r.diagnostics["points"]])

    def check(self, inp, out):
        from . import oracles
        fx = self.fixtures[inp["fx"]]
        M = inp["M"]
        kind = inp["type"]
        if kind == "forward":
            vals, conv = out
            ref = oracles.forward_reference(fx.name, fx, inp["lam"], M, fx.x_cut)
            # with a fixed x_cut the call documents no accuracy of its own (its
            # tol only drives the x_cut escalation), so the pair's ACCEPT-08
            # Parseval gate, 1e-4 relative, is the tolerance; the bump's
            # ~5e-7 shows in accuracy_digits, not as a failure
            err = float(np.max(np.abs(vals - ref)) / np.max(np.abs(ref)))
            return [Item(f"forward.{fx.name}", err, 1e-4, bool(conv))]
        if kind == "parseval":
            mass = oracles.parseval_mass(fx.name, fx, M, fx.x_cut)
            lhs, rhs = out
            return [Item(f"parseval.{fx.name}.lhs", abs(lhs - mass) / mass, 1e-4),
                    Item(f"parseval.{fx.name}.rhs", abs(rhs - mass) / mass, 1e-4)]
        if kind == "moment":
            return [Item(f"moment.{fx.name}", abs(out), 1e-4)]
        vals, conv = out
        f_x = float(fx(np.array([inp["x"]]))[0])
        return [Item(f"roundtrip.{fx.name}", abs(float(vals[0]) - f_x), 1e-3, all(conv))]


WORKLOADS = {w.name: w for w in (EvalGrid, OperatorCalculus, TransformPair)}

"""Batch command-line front end.

Subcommands: eval, series, transform, inverse, spectrum, verify,
pde-residual.  Output is CSV (17 significant digits, '.' decimal) or the
mirror JSON; identical configurations produce byte-identical files.
Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage
error, 3 numeric non-convergence.
"""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import frobenius as fr
from . import plum
from . import spectral as sp
from . import transforms as tr
from .equation import equation_op
from .fixtures import load_suite
from .quadrature import ConvergenceError
from .solutions import Params, SolutionHandle, SolutionKind, eval_solution
from .verify import run_suite

USAGE_ERROR = 2
CHECK_FAILURE = 1
NONCONVERGENCE = 3


def _fmt(v):
    return f"{float(v):.17g}"


def parse_grid(spec):
    """start:stop:count:spacing with spacing linear|log."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError("grid must be start:stop:count:spacing")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    spacing = parts[3]
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "log":
        if start == 0.0 or stop == 0.0 or (start < 0.0) != (stop < 0.0):
            raise ValueError("log grids need nonzero endpoints of equal sign")
        sign = -1.0 if start < 0.0 else 1.0
        return sign * np.geomspace(abs(start), abs(stop), count)
    raise ValueError("spacing must be linear or log")


def _emit(args, header, rows, meta):
    """Write rows (list of tuples) under the header, CSV or JSON."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) if isinstance(v, (int, float, np.floating))
                          else str(v) for v in row] for row in rows)
        text = buf.getvalue() + "".join(f"# {k}: {v}\n"
                                        for k, v in sorted(meta.items()))
    else:
        payload = {"columns": list(header),
                   "rows": [[float(v) if isinstance(v, (int, float, np.floating))
                             else v for v in row] for row in rows],
                   "meta": meta}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = args.out
    if out is None and os.environ.get("BESSEL4_OUTDIR"):
        out = os.path.join(os.environ["BESSEL4_OUTDIR"],
                           f"{args.command}.{args.format}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args):
    params = Params(args.M)
    grid = parse_grid(args.grid)
    if np.any(grid <= 0.0):
        raise ValueError("eval needs a strictly positive grid (the Y/K pair "
                         "is undefined at 0)")
    cols = [eval_solution(SolutionHandle(SolutionKind(k), args.lam, params), grid)
            for k in ("jtype", "ytype", "itype", "ktype")]
    _emit(args, ("x", "J", "Y", "I", "K"),
          list(zip(grid, *cols)), {"M": args.M, "lambda": args.lam})
    return 0


def cmd_series(args):
    params = Params(args.M)
    roots = fr.indicial_roots(equation_op(args.order, params, args.Lambda))
    rows = []
    if args.order == 4:
        y4 = fr.y4_series(args.Lambda, params, N=args.N)
        for n, c in enumerate(y4.coeffs):
            if c != 0.0:
                rows.append((4, 4 + n, 0, c))
        for fs in fr.log_case_basis(args.Lambda, params, N=args.N):
            for (p, d), c in sorted(fs.series.items()):
                rows.append((fs.root, p, d, c))
    _emit(args, ("solution_root", "power", "log_degree", "coefficient"), rows,
          {"M": args.M, "Lambda": args.Lambda, "order": args.order,
           "indicial_roots": " ".join(str(r) for r in roots)})
    return 0


def _fixture(name):
    for fx in load_suite():
        if fx.name == name:
            return fx
    raise ValueError(f"unknown fixture function {name!r}; see the suite file")


def cmd_transform(args):
    params = Params(args.M)
    fx = _fixture(args.function)
    grid = parse_grid(args.grid)
    res = tr.generalized_forward(fx, params, grid, x_cut=fx.x_cut)
    lhs, rhs = tr.generalized_parseval(fx, params, x_cut=fx.x_cut)
    rows = list(zip(grid, res.values))
    _emit(args, ("lambda", "g"), rows,
          {"M": args.M, "function": fx.name, "parseval_lhs": _fmt(lhs),
           "parseval_rhs": _fmt(rhs),
           "parseval_rel_defect": _fmt(abs(lhs - rhs) / abs(rhs))})
    return 0


def cmd_inverse(args):
    params = Params(args.M)
    fx = _fixture(args.function)
    grid = parse_grid(args.grid)
    res = tr.generalized_roundtrip(fx, params, grid, tol=args.tol,
                                   x_cut=fx.x_cut)
    original = np.array([float(np.atleast_1d(fx(x))[0]) for x in grid])
    rows = list(zip(grid, res.values, original))
    _emit(args, ("x", "f_reconstructed", "f_original"), rows,
          {"M": args.M, "function": fx.name,
           "max_abs_defect": _fmt(np.max(np.abs(res.values - original)))})
    return 0


def cmd_spectrum(args):
    params = Params(args.M)
    grid = parse_grid(args.grid)
    if np.any(grid >= 0.0):
        raise ValueError("spectrum expects a negative mu grid")
    rows = []
    for mu in grid:
        e = sp.extension_for_eigenvalue(float(mu), params)
        rows.append((mu, e.alpha, e.beta))
    _emit(args, ("mu", "alpha", "beta"), rows, {"M": args.M})
    if any(abs(r[1]) < 1e-12 for r in rows):
        return CHECK_FAILURE
    return 0


def cmd_verify(args):
    results = run_suite()
    rows = [(r.check_id, r.description, r.measured, r.op, r.threshold,
             "pass" if r.passed else "FAIL", round(r.seconds, 3))
            for r in results]
    _emit(args, ("check_id", "description", "measured", "op", "threshold",
                 "status", "seconds"), rows,
          {"all_passed": all(r.passed for r in results),
           "checks": len(results)})
    return 0 if all(r.passed for r in results) else CHECK_FAILURE


def cmd_pde_residual(args):
    params = Params(args.M)
    r_grid = parse_grid(args.grid)
    thetas = np.linspace(0.0, np.pi, args.thetas, endpoint=False)
    handle = SolutionHandle(SolutionKind.jtype, args.lam, params)
    u = plum.SeparatedSolution.from_handle(handle, A=1.0, B=0.5)
    rows = []
    worst = 0.0
    for r in r_grid:
        pr = plum.apply_plum(u, float(r), thetas)
        vals = u.radial.derivs(np.array([float(r)]), 0)[0][0] * u.angular(thetas)
        resid = np.abs(pr - u.Lambda * vals) / (1.0 + np.abs(u.Lambda * vals))
        for th, rv in zip(thetas, resid):
            rows.append((r, th, rv))
            worst = max(worst, float(rv))
    _emit(args, ("r", "theta", "residual"), rows,
          {"M": args.M, "lambda": args.lam, "max_residual": _fmt(worst)})
    return 0 if worst <= args.tol else CHECK_FAILURE


def build_parser():
    p = argparse.ArgumentParser(
        prog="bessel4",
        description="fourth-order Bessel-type function library: evaluation, "
                    "series, transforms, spectra, and verification")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    shared.add_argument("--out", default=None,
                        help="output path (default stdout, or "
                        "$BESSEL4_OUTDIR/<command>.<format>)")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[shared], **kw))

    def common(sp_, grid_default):
        sp_.add_argument("--M", type=float, default=1.0)
        sp_.add_argument("--grid", default=grid_default)

    q = sub.add_parser("eval", help="tabulate the four solutions")
    common(q, "0.1:10:50:log")
    q.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    q.set_defaults(fn=cmd_eval)

    q = sub.add_parser("series", help="indicial roots and series solutions")
    q.add_argument("--M", type=float, default=1.0)
    q.add_argument("--Lambda", type=float, default=1.0)
    q.add_argument("--order", type=int, choices=(4, 6, 8), default=4)
    q.add_argument("--N", type=int, default=24)
    q.set_defaults(fn=cmd_series)

    q = sub.add_parser("transform", help="forward transform of a fixture")
    common(q, "0.1:20:40:log")
    q.add_argument("--function", default="gaussian")
    q.set_defaults(fn=cmd_transform)

    q = sub.add_parser("inverse", help="roundtrip reconstruction of a fixture")
    common(q, "0.25:4:8:linear")
    q.add_argument("--tol", type=float, default=1e-6)
    q.add_argument("--function", default="gaussian")
    q.set_defaults(fn=cmd_inverse)

    q = sub.add_parser("spectrum", help="eigenvalue-to-extension table")
    common(q, "-15:-0.001:20:log")
    q.set_defaults(fn=cmd_spectrum)

    q = sub.add_parser("verify", help="run the invariant suite")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("pde-residual", help="planar separation residual table")
    common(q, "0.2:5:10:linear")
    q.add_argument("--tol", type=float, default=1e-6)
    q.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    q.add_argument("--thetas", type=int, default=8)
    q.set_defaults(fn=cmd_pde_residual)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "nonconvergence", "message": str(exc)}}) + "\n")
        return NONCONVERGENCE
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "usage", "message": str(exc)}}) + "\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

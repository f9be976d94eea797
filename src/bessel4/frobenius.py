"""Frobenius machinery at the regular singular origin, orders 4, 6, 8.

The indicial polynomials, the pure-power solution attached to the largest
root, and the logarithmic basis attached to the lower roots are all
derived mechanically from the Laurent data of the equation: the expanded
operator of ``equation.equation_op`` is a sum of coeff * x^m * D^j
pieces, and one engine serves the fourth-, sixth- and eighth-order
equations alike.

The three log-case solutions are normalized by "unit leading coefficient,
reduced modulo the span of the higher-root solutions" (the free
coefficient at every resonant index is set to zero).  Leading structure
(powers and log degrees) is exact; the absolute scale of any published
table of such solutions depends on that table's own normalization.
"""

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .equation import _EQUATIONS, equation_op
from .logseries import DiffOp, LogPowerSeries, frobenius_solve, integer_roots
from .solutions import Params


def spectral_value_higher(order, lam, params: Params) -> float:
    """lam^6 + 96 lam^2/M (order 6) or lam^8 + 1536 lam^2/M (order 8)."""
    if order not in (6, 8):
        raise ValueError("order must be 6 or 8")
    return lam ** order + _EQUATIONS[order][1] * lam ** 2 / params.M


def indicial_roots(op: DiffOp) -> List[int]:
    """Exact integer indicial roots of an ``equation_op``, sorted descending."""
    return integer_roots(op.indicial_coeffs())


@dataclass(frozen=True)
class FrobeniusSeries:
    """Series solution x^root (1 + ...), possibly with log blocks."""

    root: int
    coeffs: np.ndarray                 # log-free a_n, n = 0..N-root offset
    log_blocks: list = field(default_factory=list)  # (power, logdeg, coeff)
    truncation: int = 0
    series: LogPowerSeries = None

    def evaluate(self, x):
        return self.series.evaluate(x)


def _package(root, series: LogPowerSeries, nmax) -> FrobeniusSeries:
    coeffs = np.zeros(nmax + 1)
    log_blocks = []
    for (p, d), c in sorted(series.items()):
        n = p - root
        if d == 0 and 0 <= n <= nmax:
            coeffs[n] = c
        elif d > 0:
            log_blocks.append((p, d, c))
    return FrobeniusSeries(root=root, coeffs=coeffs, log_blocks=log_blocks,
                           truncation=nmax, series=series)


def y4_series(Lambda, params: Params, N=24) -> FrobeniusSeries:
    """The pure-power solution x^4 (1 + x^2/(3M) + ...), truncated at x^N.

    The largest indicial root carries no logarithms; odd coefficients
    vanish by the even parity of the recurrence.
    """
    if N < 8:
        raise ValueError("N must be at least 8")
    series = frobenius_solve(equation_op(4, params, Lambda), 4, N - 4)
    fs = _package(4, series, N - 4)
    if fs.log_blocks:
        raise RuntimeError("largest-root solution unexpectedly grew log terms")
    return fs


def log_case_basis(Lambda, params: Params, N=24) -> List[FrobeniusSeries]:
    """Solutions attached to the roots 2, 0, -2, with forced log blocks.

    Normalization: leading coefficient 1 at the attached root, and zero
    free coefficient at every resonance (reduced modulo the higher-root
    solutions).
    """
    if N < 8:
        raise ValueError("N must be at least 8")
    op = equation_op(4, params, Lambda)
    out = []
    for root in (2, 0, -2):
        series = frobenius_solve(op, root, N - root)
        out.append(_package(root, series, N - root))
    return out


def substitution_residual(fs: FrobeniusSeries, Lambda, params: Params, x):
    """|op[series]|(x) for the truncated series; a direct substitution oracle."""
    res = equation_op(4, params, Lambda).apply(fs.series)
    # drop the tail entries the truncation cannot cancel: they sit at
    # powers above root + N - 3
    cutoff = fs.root + fs.truncation - 3
    res = res.truncate_above(cutoff)
    return np.abs(res.evaluate(x))


# ---------------------------------------------------------------------------
# best-effort comparison against published leading constants

_PUBLISHED = {2: -1.0 / 27720.0, 0: 1.0 / 174636000.0, -2: -1.0 / 9779616000.0}


def leading_constant_report(Lambda=1.0, M=1.0, N=24):
    """Ratio of the published leading constants of the log-case solutions
    to ours, per root.  The published values are tied to an unspecified
    program normalization; constant ratios across roots would identify a
    global rescaling, root-dependent ratios an essentially different
    reduction.  Informational only.
    """
    basis = log_case_basis(Lambda, Params(M), N=N)
    report = {}
    for fs in basis:
        ours = fs.coeffs[0]
        report[fs.root] = {"ours": ours, "published": _PUBLISHED[fs.root],
                           "ratio": _PUBLISHED[fs.root] / ours if ours else np.nan}
    return report

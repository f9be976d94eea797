"""Stieltjes measures of atom-plus-density type and their inner products.

Three instances drive everything here:

* ``lebesgue_x()``: density x on (0, inf), no atom;
* ``jump_measure(k)``: the same density plus a point mass k at 0, the
  natural home of functions with a meaningful value at the origin;
* ``spectral_measure(M)``: density lam * (1 + M (lam/2)^2)^(-2), no atom,
  carrying total mass 2/M; this is the weight of the transform's
  frequency side.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import (_MAX_PANELS, ConvergenceError, _adaptive_steps,
                         _lockstep)


@dataclass(frozen=True)
class AtomDensityMeasure:
    """Measure atom_mass * delta_0 + density(x) dx on [0, inf)."""

    atom_mass: float
    density: Callable
    label: str = field(default="custom")

    def __post_init__(self):
        if self.atom_mass < 0.0:
            raise ValueError("atom mass must be nonnegative")


def lebesgue_x() -> AtomDensityMeasure:
    return AtomDensityMeasure(0.0, lambda x: np.asarray(x, dtype=float),
                              label="lebesgue_x")


def jump_measure(k: float) -> AtomDensityMeasure:
    """Weight x on (0, inf) plus a point mass k at the origin."""
    if not (0.0 < k < math.inf):
        raise ValueError("the jump size k must be positive and finite")
    return AtomDensityMeasure(float(k), lambda x: np.asarray(x, dtype=float),
                              label=f"mk({k})")


def spectral_measure(M: float) -> AtomDensityMeasure:
    """Density lam*(1 + M (lam/2)^2)^(-2); total mass is exactly 2/M."""
    if not (0.0 < M < math.inf):
        raise ValueError("M must be positive and finite")

    def density(lam):
        lam = np.asarray(lam, dtype=float)
        return lam / (1.0 + M * (lam / 2.0) ** 2) ** 2

    return AtomDensityMeasure(0.0, density, label=f"n({M})")


def spectral_total_mass(M: float) -> float:
    """Closed-form total mass of spectral_measure(M)."""
    return 2.0 / M


def inner_product(f, g, measure: AtomDensityMeasure, tol=1e-8,
                  f0=None, g0=None):
    """atom * f(0) g(0) + integral of f g d(density), to absolute tol.

    The [0, _SPLIT] part is integrated adaptively, starting on its graded
    edges (see ``_graded_edges``); the tail is mapped by u = 1/x onto
    (0, 1/_SPLIT], which regularizes every integrand that decays faster
    than x^-2 (all square-integrable cases used here).  The two integrals
    run in lockstep, one call of f and g per round.
    Raises ConvergenceError when the estimated error stays above tol.
    """
    atom = 0.0
    if measure.atom_mass > 0.0:
        fa = float(f(0.0)) if f0 is None else float(f0)
        ga = float(g(0.0)) if g0 is None else float(g0)
        atom = measure.atom_mass * fa * ga

    def body(x):
        return np.asarray(f(x), dtype=float) * np.asarray(g(x), dtype=float) \
            * measure.density(x)

    core, tail = _lockstep(lambda u, which: _split_values(body, u, which == 1),
                           _split_steps(tol))
    return _split_total(core, tail, measure.label, tol, atom)


# where ``inner_product`` splits its integral into core and tail
_SPLIT = 10.0


def _graded_edges(b):
    """0, b/2^K, ..., b/2, b with K the least k for which b/2^k <= 2: the
    first round of an integral over [0, b] whose integrand changes scale
    toward 0, as the spectral measure does below its knee lam = 2/sqrt(M).
    Bisecting [0, b] toward 0 ends on these panels, so starting on them
    spends no nodes on the parents."""
    edges = [float(b)]
    while edges[-1] > 2.0:
        edges.append(edges[-1] / 2.0)
    return np.array([0.0] + edges[::-1])


def _split_steps(tol):
    """Steps of ``inner_product``'s two integrals, to tol/2 each: the core
    on [0, _SPLIT] from its graded edges, then the tail in u = 1/x on
    (0, 1/_SPLIT]."""
    return [_adaptive_steps(_graded_edges(_SPLIT), tol / 2, _MAX_PANELS),
            _adaptive_steps([0.0, 1.0 / _SPLIT], tol / 2, _MAX_PANELS)]


def _split_values(body, nodes, tail):
    """body at the nodes, where a tail node u stands for x = 1/u and reads
    body(1/u)/u^2, or 0 where that is not finite (u = 0 included)."""
    vals = body(np.where(tail, 1.0 / np.where(nodes > 0.0, nodes, np.inf),
                         nodes))
    with np.errstate(divide="ignore"):
        vals = np.where(tail, vals / nodes ** 2, vals)
    return np.where(tail & ~np.isfinite(vals), 0.0, vals)


def _split_total(core, tail, label, tol, atom=0.0):
    """atom plus the results of the two ``_split_steps`` integrals; raises
    ConvergenceError unless both converged."""
    value = atom + core.value + tail.value
    if not (core.converged and tail.converged):
        raise ConvergenceError(
            f"inner product against {label} did not reach tol={tol}",
            best=value, error=core.error + tail.error)
    return value


def norm(f, measure: AtomDensityMeasure, tol=1e-8, f0=None):
    return float(np.sqrt(inner_product(f, f, measure, tol=tol, f0=f0, g0=f0)))

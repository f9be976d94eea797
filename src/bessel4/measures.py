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

from .quadrature import ConvergenceError, adaptive_quad


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
                  f0=None, g0=None, split=10.0):
    """atom * f(0) g(0) + integral of f g d(density), to absolute tol.

    The [0, split] part is integrated adaptively; the tail is mapped by
    u = 1/x onto (0, 1/split], which regularizes every integrand that
    decays faster than x^-2 (all square-integrable cases used here).
    Raises ConvergenceError when the estimated error stays above tol.
    """
    atom = 0.0
    if measure.atom_mass > 0.0:
        fa = float(f(0.0)) if f0 is None else float(f0)
        ga = float(g(0.0)) if g0 is None else float(g0)
        atom = measure.atom_mass * fa * ga

    def body(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(f(x), dtype=float) * np.asarray(g(x), dtype=float) \
            * measure.density(x)

    core = adaptive_quad(body, 0.0, split, tol=tol / 2)

    def tail_integrand(u):
        u = np.asarray(u, dtype=float)
        x = np.where(u > 0.0, 1.0 / np.where(u > 0.0, u, 1.0), np.inf)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            vals = np.where(u > 0.0, body(np.where(u > 0.0, x, split)) / u ** 2, 0.0)
        return np.where(np.isfinite(vals), vals, 0.0)

    tail = adaptive_quad(tail_integrand, 0.0, 1.0 / split, tol=tol / 2)
    err = core.error + tail.error
    value = atom + core.value + tail.value
    if not (core.converged and tail.converged):
        raise ConvergenceError(
            f"inner product against {measure.label} did not reach tol={tol}",
            best=value, error=err)
    return value


def norm(f, measure: AtomDensityMeasure, tol=1e-8, f0=None):
    return float(np.sqrt(inner_product(f, f, measure, tol=tol, f0=f0, g0=f0)))

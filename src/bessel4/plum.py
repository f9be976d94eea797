"""The fourth-order planar expression and its separation of variables.

In polar coordinates the expression is

    P[u] = grad^4 u - gamma grad^2 u - (4 gamma / r^2) u,   gamma = 8/M.

For u(r, theta) = v(r) (A cos 2theta + B sin 2theta) the angular factor
satisfies w'' = -4 w, every theta-derivative becomes a multiplication,
and the radial factor is forced to satisfy exactly the fourth-order
radial equation whose Lagrange-symmetric form is
(r v'')'' - ((9/r + gamma r) v')' = Lambda r v.  The factor 4 is
critical: any other separation constant c leaves an uncancelled
(c^2 - 4c)/r^4 term and an extra (c - 4) gamma / r^2 potential, so the
substitution does not reduce to a single radial equation of that form.

All derivatives here are analytic: radial ones come from the function
bundles, angular ones from the closed form of w.  Nothing is
discretized; the module exists to verify the separation identity.
"""

from dataclasses import dataclass

import numpy as np

from .equation import equation_op
from .forms import FnBundle, SolutionBundle, as_bundle
from .solutions import Params, SolutionHandle


@dataclass(frozen=True)
class SeparatedSolution:
    """u(r, theta) = radial(r) * (A cos 2theta + B sin 2theta)."""

    radial: FnBundle
    A: float
    B: float
    params: Params
    Lambda: float

    @classmethod
    def from_handle(cls, handle: SolutionHandle, A=1.0, B=0.0):
        return cls(radial=SolutionBundle(handle), A=float(A), B=float(B),
                   params=handle.params, Lambda=handle.Lambda)

    def angular(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.A * np.cos(2.0 * theta) + self.B * np.sin(2.0 * theta)


def _radial_terms(c, gamma):
    """Coefficient table of the separated expression, general constant c.

    Substituting u = v(r) w(theta) with w'' = -c w into the expanded polar
    form and gathering terms gives, per radial derivative order, Laurent
    coefficients in r.  Returned as {order: {power: coeff}}.
    """
    return {
        4: {0: 1.0},
        3: {-1: 2.0},
        2: {-2: -(1.0 + 2.0 * c), 0: -gamma},
        1: {-3: 1.0 + 2.0 * c, -1: -gamma},
        0: {-4: c * c - 4.0 * c, -2: (c - 4.0) * gamma},
    }


def apply_plum(u: SeparatedSolution, r, theta):
    """P[u] at (r, theta), radial derivatives analytic, angular exact."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    d = u.radial.derivs(r_arr, 4)
    g = u.params.gamma
    radial = (d[4] + (2.0 / r_arr) * d[3]
              + (-1.0 / r_arr ** 2 - g) * d[2]
              + (1.0 / r_arr ** 3 - g / r_arr) * d[1]
              + (16.0 / r_arr ** 4) * d[0]
              + (2.0 / r_arr ** 2) * (-4.0 * d[2])
              + (-2.0 / r_arr ** 3) * (-4.0 * d[1])
              + (4.0 / r_arr ** 4 - g / r_arr ** 2) * (-4.0 * d[0])
              + (-4.0 * g / r_arr ** 2) * d[0])
    w = u.angular(theta)
    out = radial[..., None] * np.atleast_1d(w)[None, :] if np.ndim(theta) \
        else radial * w
    if np.ndim(r) == 0 and np.ndim(theta) == 0:
        return float(np.squeeze(out))
    return np.squeeze(out)


def separation_residual(v, params: Params, Lambda, grid):
    """max over the grid of the radial-equation residual
    |v'''' + 2v'''/r - (9/r^2 + g) v'' + (9/r^3 - g/r) v' - Lambda v|
    normalized by 1 + |Lambda v|: the fourth-order equation divided by r."""
    v = as_bundle(v)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    d = v.derivs(grid, 4)
    resid = equation_op(4, params, Lambda).evaluate_on(d, grid) / grid
    return float(np.max(np.abs(resid) / (1.0 + np.abs(Lambda * d[0]))))


def plum_residual(u: SeparatedSolution, r_grid, theta_grid):
    """max relative residual of P[u] = Lambda u over the polar grid."""
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    pu = apply_plum(u, r_grid, theta_grid)
    vals = u.radial.derivs(r_grid, 0)[0][:, None] * u.angular(theta_grid)[None, :]
    target = u.Lambda * vals
    return float(np.max(np.abs(pu - target) / (1.0 + np.abs(target))))


def angular_criticality_check(c: float) -> bool:
    """True iff the separation constant c reduces the substitution to the
    single radial equation (the gathered coefficients match it exactly)."""
    if c < 0.0:
        raise ValueError("the trial separation constant must be nonnegative")
    params = Params(8.0)  # gamma = 1; criticality must hold at any value
    got = _radial_terms(float(c), params.gamma)
    want = {}  # the fourth-order equation divided by r
    for m, j, coeff in equation_op(4, params).ops:
        want.setdefault(j, {})[m - 1] = coeff
    for order in range(5):
        table = {p: v for p, v in got.get(order, {}).items() if v != 0.0}
        if table != {p: v for p, v in want.get(order, {}).items() if v != 0.0}:
            return False
    return True

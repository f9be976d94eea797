"""Self-adjoint extension calculus for the fourth-order expression.

Every self-adjoint realization in the x-weighted space is pinned down by
one real boundary condition at the origin,

    -alpha f''(0) + 2 beta f(0) = 0,      (alpha, beta) != (0, 0),

with (alpha, beta) projective.  alpha = 0 is the Friedrichs choice
(f(0) = 0), which has empty point spectrum; every mu < 0 is instead the
single eigenvalue of exactly one other member of the family.

For mu in the real-decay window (-16/M^2, 0) the eigenfunction is built
in closed form: the quartic lambda^2(lambda^2 + 8/M) = mu has two
negative roots t of lambda^2, each giving a decaying solution
d K0(a x) + (a M/2) x^-1 K1(a x) with decay rate a = sqrt(t + 8/M).
Both carry the identical singular parts (M/2) x^-2 + ln x + O(x^2) and
equal x^2 ln x terms, so their plain difference has limits f(0+), f''(0+),
decays at infinity, and is the (unique up to scale) candidate
eigenfunction; below a_plus x = 1 the solutions' series evaluator sums the
difference of their ktype rows (at q = t/4).  Outside the window the two
rates coalesce or become a complex pair and this construction is not
attempted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .forms import BoundaryData, FnBundle, boundary_data, residual_expression
from .solutions import (_MTERM_C, _SERIES_SWITCH, Params, SolutionHandle,
                        SolutionKind, _log_power_series, _series_derivs,
                        _series_rows, _two_paths, eval_solution,
                        ktype_scale_derivs)

# c/2 with c = 8 the equation's M-term constant: the roots of
# t^2 + (c/M) t - mu are t = -h/M +- sqrt(h^2/M^2 + mu), h = c/2
_HALF_C = _MTERM_C / 2


class DegenerateDecayError(ValueError):
    """mu outside (-16/M^2, 0): the two decay channels merge or go complex."""


class RegularityError(RuntimeError):
    """The singular parts of the two decaying solutions failed to cancel."""


@dataclass(frozen=True)
class ExtensionParams:
    """Projective boundary-condition pair, normalized to the unit circle
    with the first nonzero coordinate positive."""

    alpha: float
    beta: float

    @classmethod
    def normalized(cls, alpha, beta):
        n = math.hypot(alpha, beta)
        if n == 0.0:
            raise ValueError("(alpha, beta) must not both vanish")
        a, b = alpha / n, beta / n
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b = -a, -b
        return cls(a, b)

    @classmethod
    def friedrichs(cls):
        return cls.normalized(0.0, 1.0)


def extension_boundary_condition(e: ExtensionParams, b: BoundaryData) -> float:
    """-alpha f''(0) + 2 beta f(0); zero iff f satisfies the condition."""
    return -e.alpha * b.f2 + 2.0 * e.beta * b.f0


def decay_rates(mu: float, params: Params):
    """(a_minus, a_plus): the slow and fast decay rates for spectral value mu.

    The roots of t^2 + (8/M) t - mu are t = -4/M +- s with
    s = sqrt(16/M^2 + mu); the decay rates are sqrt(t + 8/M) = sqrt(4/M +- s).
    a_minus -> 0 as mu -> 0-.
    """
    m = params.M
    disc = _HALF_C * _HALF_C / (m * m) + mu
    if not (mu < 0.0) or disc <= 0.0:
        raise DegenerateDecayError(
            f"mu={mu} is outside the real-decay window (-16/M^2, 0)")
    s = math.sqrt(disc)
    return math.sqrt(_HALF_C / m - s), math.sqrt(_HALF_C / m + s)


class DecayingCandidateBundle(FnBundle):
    """Difference of the two scale-a decaying solutions sharing one mu."""

    def __init__(self, mu: float, params: Params):
        self.mu = float(mu)
        self.params = params
        self.a_minus, self.a_plus = decay_rates(mu, params)
        self.series_valid_below = _SERIES_SWITCH / self.a_plus
        a = np.array([[self.a_minus], [self.a_plus]], dtype=np.longdouble)
        pole, e, l = (r[:1] - r[1:] for r in _series_rows(
            SolutionKind.ktype, a * a / 4 - 2 / np.longdouble(params.M), params.M))
        # the pole and ln x are rate-free, so they cancel exactly; x^2 ln x
        # cancels as a_minus^2 + a_plus^2 = 8/M, up to rounding
        sing = abs(l[0, 1])
        if sing > 1e-10 * (1.0 + params.M):
            raise RegularityError(
                f"singular parts failed to cancel (leftover {sing:.2e})")
        l[0, 1] = 0.0
        self.rows = (pole, e, l)
        self.series = _log_power_series(self.rows)

    def derivs(self, x, order=4):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        M = self.params.M
        return _two_paths(
            arr, self.series_valid_below,
            lambda m: _series_derivs(self.rows, arr[m], order),
            lambda m: ktype_scale_derivs(self.a_minus, M, arr[m], order)
            - ktype_scale_derivs(self.a_plus, M, arr[m], order), order)

    def _series(self):
        return self.series


@dataclass(frozen=True)
class EigenCandidate:
    mu: float
    a_plus: float
    a_minus: float
    fn: FnBundle
    boundary: BoundaryData


def decaying_regular_solution(mu: float, params: Params,
                              residual_grid=None) -> EigenCandidate:
    """The regular decaying solution at spectral value mu < 0, verified.

    Checks performed: the singular parts cancel, the residual against the
    equation stays below 1e-6 on the grid, the function decays at large x,
    and the boundary data, read from its series at 0, exists.
    """
    fn = DecayingCandidateBundle(mu, params)
    if residual_grid is None:
        residual_grid = np.geomspace(0.02, 12.0 / max(fn.a_minus, 0.3), 25)
    res = residual_expression(fn, mu, residual_grid, params)
    if res > 1e-6:
        raise RegularityError(f"candidate residual {res:.2e} exceeds 1e-6")
    xs = np.array([20.0, 40.0, 80.0]) / fn.a_minus
    tail = np.abs(fn.derivs(xs, 0)[0])
    if not (tail[2] <= tail[1] <= tail[0] and tail[2] < 1e-6):
        raise RegularityError("candidate fails to decay at infinity")
    b = boundary_data(fn, params)
    return EigenCandidate(mu=float(mu), a_plus=fn.a_plus, a_minus=fn.a_minus,
                          fn=fn, boundary=b)


def candidate_value_at_zero(mu: float, params: Params) -> float:
    """Closed form of the candidate's value at 0:
    ln(a_minus/a_plus) + (M/4) sqrt(16/M^2 + mu)."""
    a_minus, a_plus = decay_rates(mu, params)
    s = math.sqrt(_HALF_C * _HALF_C / params.M ** 2 + mu)
    return math.log(a_minus / a_plus) + params.M * s / 4.0


def extension_for_eigenvalue(mu: float, params: Params) -> ExtensionParams:
    """The unique boundary condition whose operator has eigenvalue mu < 0.

    From the candidate's boundary data the pair is (2 f(0) : f''(0));
    the returned parameters satisfy the boundary condition on the
    candidate to ~1e-8 by construction, and alpha never vanishes
    (the Friedrichs extension has no eigenvalues).
    """
    cand = decaying_regular_solution(mu, params)
    e = ExtensionParams.normalized(2.0 * cand.boundary.f0, cand.boundary.f2)
    defect = abs(extension_boundary_condition(e, cand.boundary))
    scale = abs(cand.boundary.f0) + abs(cand.boundary.f2) + 1e-30
    if defect > 1e-8 * scale:
        raise RegularityError(f"boundary condition defect {defect:.2e}")
    return e


def sk_no_eigenvalue_scan(k: float, params: Params, mu_grid):
    """Defect of the jump-operator eigenvalue relation along a mu grid.

    An eigenfunction of the jump-space operator at mu would satisfy
    -8 f''(0)/k = mu f(0) with f the decaying regular solution; the scan
    reports the normalized defect, which must stay above a positive floor
    (the operator has no eigenvalues for any k).
    """
    report = []
    for mu in np.atleast_1d(np.asarray(mu_grid, dtype=float)):
        try:
            cand = decaying_regular_solution(float(mu), params)
        except DegenerateDecayError as exc:
            report.append({"mu": float(mu), "tested": False, "reason": str(exc)})
            continue
        # -8 = 1 - 9 comes from the 9/x term of p_1, not from c
        lhs = -8.0 / k * cand.boundary.f2
        rhs = mu * cand.boundary.f0
        defect = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
        report.append({"mu": float(mu), "tested": True, "defect": float(defect)})
    return report


def oscillation_floor(Lambda: float, params: Params, xs=None) -> float:
    """min over large x of sqrt(x (J^2 + Y^2)) for the spectral value Lambda.

    Positive spectral values give oscillation without decay (the bounded
    solutions never become square-integrable), which is the computable
    shadow of the continuous spectrum filling [0, inf).
    """
    if Lambda <= 0.0:
        raise ValueError("the oscillation check applies to Lambda > 0")
    m = params.M
    lam = math.sqrt(-_HALF_C / m + math.sqrt(_HALF_C * _HALF_C / m ** 2
                                             + Lambda))
    hj = SolutionHandle(SolutionKind.jtype, lam, params)
    hy = SolutionHandle(SolutionKind.ytype, lam, params)
    if xs is None:
        xs = np.linspace(50.0, 100.0, 101)
    ej = eval_solution(hj, xs)
    ey = eval_solution(hy, xs)
    return float(np.min(np.sqrt(xs * (ej ** 2 + ey ** 2))))

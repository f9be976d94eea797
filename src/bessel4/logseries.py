"""Log-power series and exact application of Euler-type differential operators.

A ``LogPowerSeries`` is a finite sum of terms ``c * x**p * ln(x)**d`` with
integer powers ``p`` (possibly negative) and log degrees ``d >= 0``.  The four
closed-form solutions, the Frobenius basis at the regular singular origin,
and the patched boundary multipliers 1, x, x^2 all live in this class.

A series is compiled on its first ``evaluate``: the terms of each log
degree d become one dense coefficient array over their power range
pmin..pmax in steps of g, the gcd of the power gaps (2 for the solution
series).  Evaluation is then one Horner pass in x^g per log degree, times
x^pmin and ln(x)^d, instead of a power x**p per term.  ``_horner`` is the
one polynomial evaluator: ``solutions._series_derivs`` runs it on the
series rows of every kind, many lambdas and orders at once.

A ``DiffOp`` is a sum of terms ``coeff * x**m * D**j``.  Applying one to a
monomial x**p multiplies by the falling factorial p(p-1)...(p-j+1); the
log calculus follows by differentiating that bracket in p.  The brackets
are accumulated in exact integer arithmetic per source term, so the
indicial cancellations (for example x*D^4 + 2D^3 - 9/x D^2 + 9/x^2 D
annihilating x^-2 exactly) happen in coefficient space instead of as a
catastrophic float cancellation near the singular endpoint.
"""

import math
from functools import lru_cache

import numpy as np


def _horner(coeffs, y):
    """sum_k coeffs[k] y^k by Horner's rule, on a new array.

    The coefficients are scalars or arrays that broadcast against y.
    """
    acc = np.empty(np.broadcast(y, coeffs[-1]).shape)
    acc[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= y
        acc += c
    return acc


@lru_cache(maxsize=128)
def _falling_poly(j):
    """Integer coefficients (ascending) of p(p-1)...(p-j+1)."""
    coeffs = [1]
    for t in range(j):
        # multiply by (p - t)
        new = [0] * (len(coeffs) + 1)
        for n, c in enumerate(coeffs):
            new[n + 1] += c
            new[n] += -t * c
        coeffs = new
    return tuple(coeffs)


@lru_cache(maxsize=4096)
def _falling_deriv_at(j, i, p):
    """i-th derivative of the degree-j falling factorial at integer p (exact)."""
    coeffs = _falling_poly(j)
    total = 0
    for n in range(i, len(coeffs)):
        total += coeffs[n] * (math.factorial(n) // math.factorial(n - i)) * p ** (n - i)
    return total


class LogPowerSeries:
    """Finite sum of c * x^p * ln(x)^d terms, immutable by convention."""

    __slots__ = ("terms", "_dstack", "_plan")

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}
        self._dstack = [self]
        self._plan = None

    @classmethod
    def monomial(cls, power, coeff=1.0, logdeg=0):
        return cls({(power, logdeg): float(coeff)})

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return LogPowerSeries({k: v for k, v in out.items() if v != 0.0})

    def scale(self, factor):
        return LogPowerSeries({k: v * factor for k, v in self.terms.items()})

    def derivative(self):
        out = {}
        for (p, d), c in self.terms.items():
            if p != 0:
                key = (p - 1, d)
                out[key] = out.get(key, 0.0) + p * c
            if d > 0:
                key = (p - 1, d - 1)
                out[key] = out.get(key, 0.0) + d * c
        return LogPowerSeries(out)

    def derivatives(self, count):
        """[self, self', ..., self^(count)], memoized (terms never mutate)."""
        while len(self._dstack) <= count:
            self._dstack.append(self._dstack[-1].derivative())
        return self._dstack[:count + 1]

    def _compile(self):
        """[(d, pmin, g, ascending coefficients of x^(pmin + g k))] by d."""
        by_degree = {}
        for (p, d), c in self.terms.items():
            by_degree.setdefault(d, {})[p] = c
        plan = []
        for d, row in sorted(by_degree.items()):
            lo = min(row)
            g = math.gcd(*(p - lo for p in row)) or 1
            coeffs = [0.0] * ((max(row) - lo) // g + 1)
            for p, c in row.items():
                coeffs[(p - lo) // g] = c
            plan.append((d, lo, g, coeffs))
        return plan

    def evaluate(self, x):
        if self._plan is None:
            self._plan = self._compile()
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        logx = np.log(x) if self._plan and self._plan[-1][0] > 0 else None
        out = np.zeros_like(x)
        for d, lo, g, coeffs in self._plan:
            acc = _horner(coeffs, x ** g)
            if lo != 0:
                acc *= x ** lo
            if d > 0:
                acc *= logx ** d
            out += acc
        return float(out[0]) if scalar else out

    def coeff(self, power, logdeg=0):
        return self.terms.get((power, logdeg), 0.0)

    def truncate_above(self, pmax):
        return LogPowerSeries({(p, d): c for (p, d), c in self.terms.items() if p <= pmax})

    def __repr__(self):
        bits = [f"{c:+.6g}*x^{p}" + (f"*ln^{d}" if d else "")
                for (p, d), c in sorted(self.terms.items())]
        return "LogPowerSeries(" + " ".join(bits) + ")"


class DiffOp:
    """Sum of coeff * x^m * D^j terms; coeffs may be int (kept exact) or float."""

    def __init__(self, ops):
        self.ops = [(int(m), int(j), c) for (m, j, c) in ops]

    def apply(self, series: LogPowerSeries) -> LogPowerSeries:
        out = {}
        for (p, d), a in series.items():
            # accumulate exact brackets per output slot before scaling by a
            slots = {}
            for (m, j, c) in self.ops:
                q = p + m - j
                for i in range(d + 1):
                    br = math.comb(d, i) * _falling_deriv_at(j, i, p)
                    if br == 0:
                        continue
                    key = (q, d - i)
                    slots[key] = slots.get(key, 0) + c * br
            for key, mult in slots.items():
                if mult == 0:
                    continue
                out[key] = out.get(key, 0.0) + a * mult
        return LogPowerSeries({k: v for k, v in out.items() if v != 0.0})

    def indicial_coeffs(self):
        """Integer coefficients (ascending in p) of the indicial polynomial.

        Built from the most singular diagonal m - j = min; raises if any
        coefficient on that diagonal is not an exact integer.
        """
        dmin = min(m - j for (m, j, _) in self.ops)
        degree = max(j for (m, j, c) in self.ops if m - j == dmin)
        coeffs = [0] * (degree + 1)
        for (m, j, c) in self.ops:
            if m - j != dmin:
                continue
            if not isinstance(c, int):
                if float(c).is_integer():
                    c = int(c)
                else:
                    raise ValueError(
                        "indicial diagonal carries a non-integer coefficient; "
                        "the equation data is malformed")
            for n, fc in enumerate(_falling_poly(j)):
                coeffs[n] += c * fc
        return coeffs

    def evaluate_on(self, derivs, x):
        """Apply to a function given by its derivative stack at points x.

        ``derivs[j]`` holds the j-th derivative values on x.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for (m, j, c) in self.ops:
            out = out + c * x ** m * derivs[j]
        return out


def integer_roots(coeffs):
    """All roots of an integer polynomial, required to be integers.

    Returns them sorted descending, with multiplicity.  Raises ValueError
    if the polynomial does not split over the integers.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has no well-defined roots")
    roots = []
    while cs[0] == 0:
        roots.append(0)
        cs = cs[1:]
    degree = len(cs) - 1
    while degree > 0:
        tail = abs(cs[0])
        cands = sorted({d for d in range(1, tail + 1) if tail % d == 0})
        found = None
        for mag in cands:
            for r in (mag, -mag):
                if _poly_eval_int(cs, r) == 0:
                    found = r
                    break
            if found is not None:
                break
        if found is None:
            raise ValueError("indicial polynomial has a non-integer root")
        roots.append(found)
        cs = _deflate(cs, found)
        degree -= 1
    return sorted(roots, reverse=True)


def _poly_eval_int(cs, p):
    acc = 0
    for c in reversed(cs):
        acc = acc * p + c
    return acc


def _deflate(cs, r):
    # synthetic division by (p - r), highest degree first internally
    rev = list(reversed(cs))
    out = [rev[0]]
    for c in rev[1:-1]:
        out.append(c + r * out[-1])
    return list(reversed(out))


def frobenius_solve(op: DiffOp, root, nmax, indicial=None):
    """Series solution x^root * sum a_{n,d} x^n ln^d x of op[y] = 0.

    The solution attached to ``root`` is normalized with unit leading
    coefficient and is reduced modulo the solutions of larger roots: at
    every resonant index the free log-free coefficient is set to zero.
    Log blocks are introduced exactly where the resonances force them.

    Returns the LogPowerSeries with powers root..root+nmax.
    """
    if indicial is None:
        indicial = op.indicial_coeffs()
    dmin = min(m - j for (m, j, _) in op.ops)
    diag = [(m, j, c) for (m, j, c) in op.ops if m - j == dmin]
    off_diag = [(m, j, c) for (m, j, c) in op.ops if m - j != dmin]

    def bracket(i, p):
        # i-th p-derivative of the indicial bracket at integer p, exact
        tot = 0
        for (m, j, c) in diag:
            ci = int(c) if not isinstance(c, int) else c
            tot += ci * _falling_deriv_at(j, i, p)
        return tot

    store = {0: {0: 1.0}}
    if _poly_eval_int(indicial, root) != 0:
        raise ValueError(f"{root} is not an indicial root")

    for n in range(1, nmax + 1):
        p = root + n
        # known contributions from lower-index coefficients through the
        # off-diagonal operator pieces landing at output power p + dmin
        S = {}
        for (m, j, c) in off_diag:
            shift = (m - j) - dmin          # > 0
            nsrc = n - shift
            if nsrc < 0 or nsrc not in store:
                continue
            psrc = root + nsrc
            for d, a in store[nsrc].items():
                for i in range(d + 1):
                    br = math.comb(d, i) * _falling_deriv_at(j, i, psrc)
                    if br == 0:
                        continue
                    e = d - i
                    S[e] = S.get(e, 0.0) + c * br * a
        dS = max(S.keys(), default=-1)
        coeffs_n = {}
        if _poly_eval_int(indicial, p) != 0:
            b0 = bracket(0, p)
            for e in range(dS, -1, -1):
                acc = S.get(e, 0.0)
                for dd_ in range(e + 1, dS + 1):
                    a = coeffs_n.get(dd_, 0.0)
                    if a:
                        acc += math.comb(dd_, dd_ - e) * bracket(dd_ - e, p) * a
                if acc != 0.0:
                    coeffs_n[e] = -acc / b0
        else:
            # resonance: a_{n,0} is the free coefficient, set to zero;
            # each equation at log degree e then determines a_{n,e+1}
            b1 = bracket(1, p)
            if b1 == 0:
                raise RuntimeError(
                    "resonance bookkeeping met a multiple indicial root; "
                    "the recurrence cannot be continued")
            coeffs_n[0] = 0.0
            for e in range(dS, -1, -1):
                acc = S.get(e, 0.0)
                for dd_ in range(e + 2, dS + 2):
                    a = coeffs_n.get(dd_, 0.0)
                    if a:
                        acc += math.comb(dd_, dd_ - e) * bracket(dd_ - e, p) * a
                coeffs_n[e + 1] = -acc / ((e + 1) * b1)
        coeffs_n = {d: a for d, a in coeffs_n.items() if a != 0.0}
        if coeffs_n:
            store[n] = coeffs_n

    terms = {}
    for n, dmap in store.items():
        for d, a in dmap.items():
            terms[(root + n, d)] = a
    return LogPowerSeries(terms)

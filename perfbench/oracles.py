"""Independent reference values for the benchmark's correctness checks.

Nothing in this module imports bessel4.  Kernel values come from
``scipy.special``; the transform references are closed forms derived by
hand or a composite Gauss rule built on scipy kernels.

Solution derivatives avoid the catastrophic cancellation of the textbook
formulas near z = 0 by working with u_m(z) = z^-m C_m(z), m = 0..5, for
which d/dz u_m = sigma z u_{m+1} (sigma = -1 for J, Y, K and +1 for I).
Every derivative of u_0 = C0 and u_1 = C1(z)/z is then a sum of
nonnegative powers of z times u_m, which stays well conditioned on the
whole grid.  Each reference value comes with the sum of the absolute
values of its terms, the scale against which its own rounding is small.
"""

import math

import numpy as np
from scipy import integrate, special

# family -> (sigma, kernel, log of its exponential scaling as a function of z)
_FAMILIES = {
    "J": (-1.0, special.jv, None),
    "Y": (-1.0, special.yv, None),
    "I": (1.0, special.ive, lambda z: z),      # iv = ive * e^z
    "K": (-1.0, special.kve, lambda z: -z),    # kv = kve * e^-z
}
KIND_FAMILY = {"jtype": "J", "ytype": "Y", "itype": "I", "ktype": "K"}


def solution_scale(kind, lam, M):
    """(a, A, B) with solution = A C0(a x) + B C1(a x)/(a x).

    From the defining formulas: jtype = d J0(lam x) - 2M (lam/2)^2 J1/(lam x),
    itype = -d I0(c x) + (c M/2) x^-1 I1(c x), ktype = d K0 + (c M/2) x^-1 K1,
    with c = sqrt(lam^2 + 8/M) and d = 1 + M (lam/2)^2.
    """
    mq = M * (lam / 2.0) ** 2
    d = 1.0 + mq
    if kind in ("jtype", "ytype"):
        return lam, d, -2.0 * mq
    c = math.sqrt(lam * lam + 8.0 / M)
    return c, (-d if kind == "itype" else d), c * c * M / 2.0


def _derivative_terms(sigma, seed_m, order):
    """{(p, m): coeff} with d^n/dz^n u_seed = sum coeff z^p u_m, n = 0..order."""
    polys = [{(0, seed_m): 1.0}]
    for _ in range(order):
        nxt = {}
        for (p, m), c in polys[-1].items():
            if p:
                nxt[(p - 1, m)] = nxt.get((p - 1, m), 0.0) + p * c
            nxt[(p + 1, m + 1)] = nxt.get((p + 1, m + 1), 0.0) + sigma * c
        polys.append(nxt)
    return polys


def kernel_stack(family, z, count=6):
    """(u, mag): u_m = z^-m C_m(z) for m < count, and the magnitudes that
    scale their rounding.  J and Y oscillate: beyond z = 1 the envelope
    sqrt(2/(pi z)) stands in for |C_m| near its zeros, as in the kernel
    tests.  I and K are exponentially scaled (see ``solution_derivs``)."""
    _, kernel, logf = _FAMILIES[family]
    z = np.asarray(z, dtype=float)
    u = [kernel(m, z) / z ** m for m in range(count)]
    env = np.where(z >= 1.0, np.sqrt(2.0 / (np.pi * z)), 0.0) if logf is None else 0.0
    return u, [np.abs(um) + env / z ** m for m, um in enumerate(u)]


def solution_derivs(kind, lam, M, z, stack=None, order=4):
    """(values, scales, log_factor) for d^0..d^order in x of the solution at
    x = z / a, from the kernel stack of its family on z (computed if None).

    The true derivative is values * exp(log_factor); for I and K the
    exponential factor is kept apart so nothing under- or overflows.
    """
    a, A, B = solution_scale(kind, lam, M)
    family = KIND_FAMILY[kind]
    sigma, _, logf = _FAMILIES[family]
    z = np.asarray(z, dtype=float)
    u, mag = kernel_stack(family, z, order + 2) if stack is None else stack
    vals = np.zeros((order + 1, z.size))
    scales = np.zeros_like(vals)
    for coef, seed in ((A, 0), (B, 1)):
        for n, poly in enumerate(_derivative_terms(sigma, seed, order)):
            for (p, m), c in poly.items():
                factor = (a ** n * coef * c) * z ** p
                vals[n] += factor * u[m]
                scales[n] += np.abs(factor) * mag[m]
    log_factor = np.zeros_like(z) if logf is None else logf(z)
    return vals, scales, log_factor


# ---------------------------------------------------------------------------
# generalized transform pair

def jtype_value(lam, M, x):
    """The regular solution J_lam(x), normalized to 1 at x = 0 (scipy kernels)."""
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    z = lam * x
    mq = M * (lam / 2.0) ** 2
    safe = np.where(z > 0.0, z, 1.0)
    j1_over_z = np.where(z > 0.0, special.j1(safe) / safe, 0.5)
    return (1.0 + mq) * special.j0(z) - 2.0 * mq * j1_over_z


def forward_gaussian(lam, M):
    """g(lam) of f = exp(-x^2): e^{-lam^2/4} [(1 + M lam^2/4)/2 + M/2]."""
    lam = np.asarray(lam, dtype=float)
    return np.exp(-lam * lam / 4.0) * ((1.0 + M * lam * lam / 4.0) / 2.0 + M / 2.0)


def forward_expx(lam, M):
    """g(lam) of f = exp(-x): (1 + M lam^2/4)(1+lam^2)^-3/2 + (M/2)(1+lam^2)^-1/2."""
    lam = np.asarray(lam, dtype=float)
    s = 1.0 + lam * lam
    return (1.0 + M * lam * lam / 4.0) * s ** -1.5 + (M / 2.0) / np.sqrt(s)


_CLOSED_FORWARD = {"gaussian": forward_gaussian, "expx": forward_expx}


def forward_quadrature(f, lam, M, x_cut, panels=400, nodes=16):
    """(M/2) f(0) + integral_0^x_cut x J_lam(x) f(x) dx by composite Gauss."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, x_cut, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    xs = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * xg[None, :]).ravel()
    w = np.tile(half * wg, panels) * xs * f(xs)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.empty_like(lam)
    for i in range(0, lam.size, 32):
        block = lam[i:i + 32]
        out[i:i + 32] = jtype_value(block[:, None], M, xs[None, :]) @ w
    return M / 2.0 * float(f(np.array([0.0]))[0]) + out


def forward_reference(name, f, lam, M, x_cut):
    closed = _CLOSED_FORWARD.get(name)
    if closed is not None:
        return closed(lam, M)
    return forward_quadrature(f, lam, M, x_cut)


def parseval_mass(name, f, M, x_cut):
    """(M/2) f(0)^2 + integral x f^2 dx; M/2 + 1/4 for exp(-x^2) and exp(-x)."""
    if name in _CLOSED_FORWARD:
        return M / 2.0 + 0.25
    f0 = float(f(np.array([0.0]))[0])
    body, _ = integrate.quad(lambda t: t * float(f(np.array([t]))[0]) ** 2,
                             0.0, x_cut, limit=400, epsabs=1e-14, epsrel=1e-13)
    return M / 2.0 * f0 * f0 + body


# ---------------------------------------------------------------------------
# boundary data and the extension map

def regular_pair_boundary(kind, lam, M):
    """(f(0), f''(0)) of jtype / itype from the kernel power series."""
    mq = M * (lam / 2.0) ** 2
    d = 1.0 + mq
    if kind == "jtype":
        # d (1 - z^2/4) - 2 mq (1/2 - z^2/16), z = lam x
        return 1.0, 2.0 * lam * lam * (-d / 4.0 + mq / 8.0)
    c2 = lam * lam + 8.0 / M
    # -d (1 + z^2/4) + (c^2 M/2) (1/2 + z^2/16), z = c x
    return 1.0, 2.0 * c2 * (-d / 4.0 + c2 * M / 32.0)


def candidate_boundary(mu, M):
    """(f(0), f''(0)) of K-type(a-) - K-type(a+) at spectral value mu.

    From K0 = -L I0 + sum H_k (z^2/4)^k/(k!)^2 and K1/z = 1/z^2 + L I1/z
    - (1/4) sum (H_k + H_{k+1}) (z^2/4)^k/(k!(k+1)!), L = ln(z/2) + gamma:
    the x^-2, ln x and x^2 ln x parts cancel in the difference, leaving
    f(0) = ln(a-/a+) + M s/4 and the x^2 coefficient c2(a-) - c2(a+) with
    c2(a) = a^2 [(ln(a/2) + gamma)(1/4 - M a^2/32) + 3 M a^2/128 - 1/4].
    """
    s = math.sqrt(16.0 / (M * M) + mu)
    am, ap = math.sqrt(4.0 / M - s), math.sqrt(4.0 / M + s)

    def c2(a):
        a2 = a * a
        ell = math.log(a / 2.0) + np.euler_gamma
        return a2 * (ell * (0.25 - M * a2 / 32.0) + 3.0 * M * a2 / 128.0 - 0.25)

    return math.log(am / ap) + M * s / 4.0, 2.0 * (c2(am) - c2(ap))


def extension_pair(mu, M):
    """Unit (alpha, beta) proportional to (2 f(0), f''(0)), alpha > 0."""
    f0, f2 = candidate_boundary(mu, M)
    n = math.hypot(2.0 * f0, f2)
    a, b = 2.0 * f0 / n, f2 / n
    return (-a, -b) if a < 0.0 or (a == 0.0 and b < 0.0) else (a, b)


# ---------------------------------------------------------------------------
# Frobenius series: residual by direct substitution

def _logpow_derivs(terms, x, order):
    """Derivatives 0..order of sum c x^p ln(x)^d at x, term by term."""
    lx = np.log(x)
    out = np.zeros((order + 1, x.size))
    for (p, d), c in terms:
        cur = {(p, d): c}
        for n in range(order + 1):
            for (pp, dd), cc in cur.items():
                out[n] += cc * x ** pp * lx ** dd
            nxt = {}
            for (pp, dd), cc in cur.items():
                if pp:
                    nxt[(pp - 1, dd)] = nxt.get((pp - 1, dd), 0.0) + pp * cc
                if dd:
                    nxt[(pp - 1, dd - 1)] = nxt.get((pp - 1, dd - 1), 0.0) + dd * cc
            cur = nxt
    return out


def fourth_order_residual(terms, Lambda, M, x):
    """|(x y'')'' - ((9/x + 8x/M) y')' - Lambda x y| / (1 + sum |terms|).

    Expanded: x y'''' + 2 y''' - (9/x + 8x/M) y'' + (9/x^2 - 8/M) y'.
    The scale is the sum of absolute values of the expanded pieces.
    """
    x = np.asarray(x, dtype=float)
    y = _logpow_derivs(list(terms), x, 4)
    pieces = [x * y[4], 2.0 * y[3], -(9.0 / x + 8.0 * x / M) * y[2],
              (9.0 / x ** 2 - 8.0 / M) * y[1], -Lambda * x * y[0]]
    total = sum(pieces)
    scale = sum(np.abs(p) for p in pieces)
    return float(np.max(np.abs(total) / (1.0 + scale)))

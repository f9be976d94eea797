"""The fourth-order Bessel-type equation and its sixth- and eighth-order
relatives, written once.

Each equation of order n in {4, 6, 8} is Lagrange symmetric,

    sum over k of (-1)^k (p_k y^(k))^(k) = Lambda x^(n-3) y,

with p_k = a_k x^(2k-3) for k = 1..n/2, plus the M-term c x^(n-3)/M in
p_1.  The fourth-order member is (x y'')'' - ((9/x + 8x/M) y')' =
Lambda x y.  The sign of the M-term at orders 6 and 8 is fixed by three
constraints at once: multiplying by M and letting M -> 0 must leave
-(x^(n-3) y')' = lam^2 x^(n-3) y, the spectral parameter lam^n +
c lam^2/M carries the same constant with a plus sign, and the associated
energy form must stay nonnegative.

``_EQUATIONS`` holds those data; ``equation_op`` expands them into the
``DiffOp`` that the Frobenius engine and the applier of ``forms`` share,
and ``weight`` and ``boundary_form`` are the fourth-order pieces that
the boundary forms, energy densities and orthogonality kernels read.
"""

import math

from .logseries import DiffOp

# order n: ((k, power, a_k) blocks of p_k = a_k x^power, top k first),
# and the constant c of the M-term c x^(n-3)/M in p_1
_EQUATIONS = {
    4: (((2, 1, 1), (1, -1, 9)), 8),
    6: (((3, 3, 1), (2, 1, 33), (1, -1, 225)), 96),
    8: (((4, 5, 1), (3, 3, 78), (2, 1, 1809), (1, -1, 11025)), 1536),
}


def _expand_block(coeff_poly, inner, outer, out):
    """Append ops for d^outer/dx^outer [ (sum c x^m) y^(inner) ]."""
    for m, c in coeff_poly.items():
        for i in range(outer + 1):
            fall = 1
            for t in range(i):
                fall *= (m - t)
            if fall == 0:
                continue
            out.append((m - i, inner + outer - i, math.comb(outer, i) * fall * c))


def equation_op(order, params, Lambda=None) -> DiffOp:
    """The order-n expression as a sum of coeff x^m D^j terms [- Lambda
    x^(n-3)]; the coefficients off the M-term stay exact integers."""
    if order not in _EQUATIONS:
        raise ValueError("supported orders are 4, 6, 8")
    blocks, c = _EQUATIONS[order]
    ops = []
    for k, power, a in blocks:
        sign = (-1) ** k
        poly = {power: sign * a}
        if k == 1:
            poly[order - 3] = sign * c / params.M
        _expand_block(poly, k, k, ops)
    if Lambda is not None:
        ops.append((order - 3, 0, -float(Lambda)))
    return DiffOp(ops)


# p_1 = a x^-1 + c x/M of the fourth-order equation
_A, _C = _EQUATIONS[4][0][-1][2], _EQUATIONS[4][1]


def weight(x, M):
    """p_1 = 9/x + 8x/M of the fourth-order equation."""
    return _A / x + _C * x / M


def boundary_form(df, dg, x, M):
    """The symplectic form [f, g](x) = g (x f'')' - (x g'')' f
    - x (g' f'' - g'' f') - p_1 (g f' - g' f) of the fourth-order Green
    identity, from rows 0-3 of the derivative stacks of f and g at x."""
    return (dg[0] * (x * df[3] + df[2]) - (x * dg[3] + dg[2]) * df[0]
            - x * (dg[1] * df[2] - dg[2] * df[1])
            - weight(x, M) * (dg[0] * df[1] - dg[1] * df[0]))

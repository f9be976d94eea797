"""Generate the 10-point Gauss / 21-point Kronrod table in bessel4.quadrature.

The Kronrod extension of the n-point Gauss-Legendre rule adds the n + 1
zeros of the Stieltjes polynomial E_(n+1), the monic polynomial of degree
n + 1 orthogonal to every polynomial of degree <= n under the sign-changing
weight P_n(x) on [-1, 1].  The 2n + 1 nodes then carry an interpolatory
rule exact to degree 3n + 1, 31 for n = 10 (QUADPACK's G10/K21 pair;
Piessens et al., QUADPACK, Springer 1983; Laurie, Math. Comp. 66 (1997)
1133-1145).

E_11 is odd, so in the Legendre basis it is P_11 + c_9 P_9 + ... + c_1 P_1,
and orthogonality to the even P_k holds by parity; the five conditions
against P_1, P_3, ..., P_9 fix c_1 ... c_9.  The weights solve the moment
equations sum_j w_j P_k(x_j) = 2 [k = 0], k = 0 .. 20, on all 21 nodes.
Everything runs in 50-digit arithmetic; the script prints the literal
tables that ``quadrature.py`` holds, in ascending order of the nodes, so
that the Gauss nodes are the odd entries:

    python tools/gen_kronrod_table.py

It needs mpmath only.  ``tests/test_quadrature_measures.py`` checks the
checked-in tables for symmetry and exactness in mpmath.
"""

import mpmath as mp

N = 10
DIGITS = 50


def legendre_integral(i, j, k):
    """The integral of P_i P_j P_k over [-1, 1]: mpmath's Gauss-Legendre
    levels, which become exact on the polynomial once they hold
    (i + j + k)/2 + 1 nodes, well below the level cap given here."""
    return mp.quad(lambda x: mp.legendre(i, x) * mp.legendre(j, x)
                   * mp.legendre(k, x), [-1, 1], method="gauss-legendre",
                   maxdegree=(i + j + k) // 2 + 1)


def stieltjes_coefficients(n=N):
    """Legendre coefficients {degree: c} of E_(n+1), with c_(n+1) = 1."""
    top = n + 1
    free = list(range(top % 2, top, 2))  # degrees of parity n + 1 below it
    tests = list(range(1, n + 1, 2))  # the P_k that parity leaves
    a = mp.matrix(len(tests), len(free))
    rhs = mp.matrix(len(tests), 1)
    for r, k in enumerate(tests):
        for c, j in enumerate(free):
            a[r, c] = legendre_integral(n, j, k)
        rhs[r] = -legendre_integral(n, top, k)
    sol = mp.lu_solve(a, rhs)
    coef = {top: mp.mpf(1)}
    coef.update({j: sol[c] for c, j in enumerate(free)})
    return coef


def legendre_monomial(j):
    """Monomial coefficients of P_j, lowest degree first."""
    prev, cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    if j == 0:
        return prev
    for k in range(1, j):
        nxt = [mp.mpf(0)] + [(2 * k + 1) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= k * c
        prev, cur = cur, [c / (k + 1) for c in nxt]
    return cur


def legendre_roots(coef):
    """The zeros of sum c_j P_j, ascending (all real and simple here)."""
    top = max(coef)
    mono = [mp.mpf(0)] * (top + 1)
    for j, c in coef.items():
        for i, m in enumerate(legendre_monomial(j)):
            mono[i] += c * m
    roots = mp.polyroots(mono[::-1], maxsteps=200, extraprec=2 * mp.mp.prec)
    return sorted(mp.re(r) for r in roots)


def kronrod(n=N):
    """(nodes, Kronrod weights, Gauss weights), nodes ascending."""
    gauss = legendre_roots({n: 1})
    nodes = sorted(gauss + legendre_roots(stieltjes_coefficients(n)))
    m = len(nodes)
    a = mp.matrix(m, m)
    rhs = mp.matrix(m, 1)
    for k in range(m):
        for j, x in enumerate(nodes):
            a[k, j] = mp.legendre(k, x)
    rhs[0] = 2
    wk = mp.lu_solve(a, rhs)
    wg = [2 / ((1 - x * x) * mp.diff(lambda t: mp.legendre(n, t), x) ** 2)
          for x in gauss]
    return nodes, [wk[j] for j in range(m)], wg


def _literal(name, values, per_line=3):
    items = [f"{float(v)!r}," for v in values]
    lines = [" ".join(items[i:i + per_line])
             for i in range(0, len(items), per_line)]
    body = "".join(f"    {line}\n" for line in lines)
    return f"{name} = np.array([\n{body}])"


def main():
    mp.mp.dps = DIGITS
    nodes, wk, wg = kronrod()
    print(_literal("_K21_X", nodes))
    print(_literal("_K21_W", wk))
    print(_literal("_G10_W", wg))


if __name__ == "__main__":
    main()

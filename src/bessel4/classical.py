"""Double-precision kernels for J0, J1, Y0, Y1, I0, I1, K0, K1.

All eight kernels are implemented in-house from Chebyshev tables summed by
one Clenshaw routine (the layout of Moshier's Cephes library), so the
accuracy budget is fully under local control.  Each table holds a smooth
form of a kernel on one region, in a variable t that maps the region onto
[-1, 1]; tools/gen_kernel_tables.py computes every table from 40-digit
mpmath values.  Errors below are against mpmath (800 points per region,
uniform and log-uniform, plus its ends); J/Y errors are a fraction of the
envelope sqrt(2/(pi x)), or of |C| where that is larger (Y near 0), and
I/K errors are relative.

* J/Y below 8: tables of degree 16 in t = x^2/32 - 1.  J0 is
  1 + x^2/(1 + x^2/4) T, exactly 1 at 0, and J1 is x T; Y_nu is x^nu T
  plus (2/pi) ln(x/2) J_nu, and -2/(pi x) for Y1.  Error below 1.2e-15
  (2e4 points).
* J/Y from 8 on: the modulus-phase form J = sqrt(2/(pi x)) (P cos w -
  Q sin w) and Y = sqrt(2/(pi x)) (P sin w + Q cos w) with
  w = x - (2 nu + 1) pi/4.  P and x Q are power series in 1/x^2, so one
  table of degree 12 in t = 128/x^2 - 1 holds each of them on all of
  [8, inf); cos w and sin w are built from cos x and sin x of the exact
  x.  Error at most 4.4e-16 up to x = 1e9.  The four P and x Q rows are
  also held in powers of s = 128/x^2 (the ``_MONO`` tables: each row
  expanded exactly and rounded once, every coefficient at most 1 in
  magnitude, within 2 ulp of the Chebyshev sum on [8, 1e9]), from which
  the forward transform's Filon panels build the modulus-phase amplitude
  as a polynomial in 1/x; no kernel reads them.
* I below 8: tables of degree 19 in t = x^2/32 - 1, I0 = e^(x^2/12)
  (1 + x^2 T) and I1 = x e^(x^2/12) T; from 8 to 705, e^x T / sqrt(x)
  with tables of degree 24 in 16/x - 1; overflow signalled past 705.
  Error at most 7.3e-16.
* K below 2: tables of degree 9 in x^2/2 - 1, K0 = T - ln(x/2) I0 and
  K1 = T/x + ln(x/2) I1; from 2 on, e^(-x) T / sqrt(x) with tables of
  degree 23 in 4/x - 1.  Error at most 7.5e-16 up to 700.

``j01`` and ``y01`` return both orders from one Clenshaw pass per
region.  A value does not depend on the array it arrives in; an array
whose points all lie in one region goes to it whole, without masks or a
zero-filled output, and the coefficient columns of every table are laid
out once, at import.  At 10^4 points a region costs 35 to 80 ns per
point (about 125 for the modulus-phase form, with its cos and sin), and
a 16-point call in one region 70 to 140 us, most of it three numpy calls
per table degree (perfbench/probe.py, median of 7 runs on a shared 2-CPU
x86-64 box; README, "Numerical notes").  Everything is vectorized over numpy arrays; scalars in give
floats out.  No kernel writes to its argument.  All functions are pure
and safe for concurrent use.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

_OSC_PLAIN = 8.0     # seam of the J, Y and I tables: J/Y in modulus-phase
                     # form from here on
_K_SEAM = 2.0
_I_OVERFLOW = 705.0

# Chebyshev coefficients, lowest degree first, of the forms that
# tools/gen_kernel_tables.py lists, printed by it from 40-digit mpmath values
_J0_CHEB = (
    -0.28833421656101954, 0.10070955648845174, 0.015501022859935504,
    -0.0772532413378213, 0.036638454646200115, -0.00835811371378888,
    0.0011715980878513686, -0.00011289256724211857, 7.99492771399135e-06,
    -4.353815025580653e-07, 1.884276974088883e-08, -6.646570395338175e-10,
    1.9494949073267635e-11, -4.832831548733297e-13, 1.0264312877200743e-14,
    -1.8892691801875405e-16, 3.043494834765763e-18,
)
_J1_CHEB = (
    0.08104484632565812, -0.1489751450676521, 0.1609992623572097,
    -0.08268049176681791, 0.022213639654966037, -0.003646940600769276,
    0.0004050337728354822, -3.255554866857259e-05, 1.9858774049915165e-06,
    -9.521984756750436e-08, 3.687133759097148e-09, -1.178026622695885e-10,
    3.160154580348003e-12, -7.221755239651773e-14, 1.4232144003513942e-15,
    -2.4441972916190464e-17, 3.6912682997929334e-19,
)
_Y0_CHEB = (
    0.03645469809116044, -0.2783237094075825, 0.2960499990207148,
    0.09825508408187864, -0.10755155280627783, 0.031799074084414514,
    -0.005161397105810715, 0.0005498525320039012, -4.1996983149420134e-05,
    2.4290361107923793e-06, -1.1049969793472957e-07, 4.06651736597911e-09,
    -1.2374148898289854e-10, 3.1685725528945945e-12, -6.926956032431002e-14,
    1.3086308625876684e-15, -2.1586201986914482e-17,
)
_Y1_CHEB = (
    0.038300769852423776, -0.08182561412732826, -0.0248677076121964,
    0.047967452752746984, -0.01852588451089802, 0.003680607687823511,
    -0.0004627254060293369, 4.06940026958087e-05, -2.6617695125295625e-06,
    1.350602691325434e-07, -5.483524110336276e-09, 1.8245086841229007e-10,
    -5.070666636591129e-12, 1.1956162517587948e-13, -2.423162442712473e-15,
    4.268126513072962e-17, -6.596060978723042e-19,
)
_I0_CHEB = (
    0.0849211988939994, -0.07835022052714666, 0.00804246774301543,
    0.003104913587066123, -0.0012981551576313304, 0.00022767520622019749,
    -1.824324395328656e-05, -1.0876967468189348e-06, 5.716520465148394e-07,
    -9.621606706134918e-08, 1.0376958672166229e-08, -7.375107316041803e-10,
    2.1523620856203662e-11, 2.8328964321900717e-12, -5.766832284224869e-13,
    6.241393008324613e-14, -4.9857759428170344e-15, 3.1030935536116234e-16,
    -1.4393953243750235e-17, 3.590161343591779e-19,
)
_I1_CHEB = (
    0.4662520858096319, -0.1719804374100228, -0.0889172799361886,
    0.042713622493630386, -0.006917718674424446, -1.7105993653739954e-05,
    0.00023628799979949545, -5.511557580523893e-05, 7.101447971480227e-06,
    -5.016168810321967e-07, -6.204879938680555e-09, 7.247233981572623e-09,
    -1.1662719141599403e-09, 1.2143995974418729e-10, -9.209473982771327e-12,
    4.800060285666414e-13, -8.74957114129699e-15, -1.515725092572811e-15,
    2.330169256368025e-16, -2.104620529143243e-17,
)
_I0E_CHEB = (
    0.4022452055070544, 0.0033691164782556943, 6.889758346916825e-05,
    2.8913705208347567e-06, 2.0489185894690638e-07, 2.266668990498178e-08,
    3.3962320257083865e-09, 4.94060238822497e-10, 1.1889147107846439e-11,
    -3.1499165279632416e-11, -1.3215811840447713e-11, -1.7941785315068062e-12,
    7.180124451383666e-13, 3.8527783827421426e-13, 1.54008621752141e-14,
    -4.150569347287222e-14, -9.554846698828307e-15, 3.8116806693526224e-15,
    1.7725601330565263e-15, -3.425485619677219e-16, -2.8276239805165836e-16,
    3.461222867697461e-17, 4.46562142029676e-17, -4.830504485944182e-18,
    -7.233180487874754e-18,
)
_I1E_CHEB = (
    0.38928811750914005, -0.009761097491361469, -0.00011058893876262371,
    -3.882564808877691e-06, -2.512236237870209e-07, -2.6314688468895196e-08,
    -3.835380385964237e-09, -5.589743462196584e-10, -1.8974958123505413e-11,
    3.2526035830154884e-11, 1.4125807436613782e-11, 2.0356285441470896e-12,
    -7.198551776245908e-13, -4.0835511110921974e-13, -2.1015418427726643e-14,
    4.272440016711951e-14, 1.0420276984128802e-14, -3.8144030724370075e-15,
    -1.8803547755107825e-15, 3.3082023109209285e-16, 2.96262899764595e-16,
    -3.209525921993424e-17, -4.6503053684893586e-17, 4.414348323071708e-18,
    7.517296310842105e-18,
)
_K0_CHEB = (
    -0.2676636966169514, 0.3442898999246285, 0.0359799365153615,
    0.001264615411446926, 2.286212103119452e-05, 2.5347910790261494e-07,
    1.904516377220209e-09, 1.0349695257633625e-11, 4.2598161427910826e-14,
    1.3744654358807508e-16,
)
_K1_CHEB = (
    0.7626501136694739, -0.3531559607765449, -0.12261118082265715,
    -0.006975723859639864, -0.0001730288957513052, -2.4334061415659684e-06,
    -2.213387630734726e-08, -1.4114883926335278e-10, -6.666901694199329e-13,
    -2.427449850519366e-15,
)
_K0E_CHEB = (
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533,
    -0.00012849549581627802, 1.39498137188765e-05, -1.8317555227191195e-06,
    2.766813639445015e-07, -4.660489897687948e-08, 8.574034017414225e-09,
    -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12,
    -2.9800969231481784e-13, 8.032890775068375e-14, -2.2275133267462965e-14,
    6.340076476276646e-15, -1.848593377920907e-15, 5.5120559994043335e-16,
    -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
)
_K1E_CHEB = (
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12,
    3.348419666052243e-13, -8.976705182010146e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.038703166239861e-15, -6.057047270643018e-16,
    1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
)
_P0_CHEB = (
    0.9994603493475187, -0.0005365220468132117, 3.0751847875194745e-06,
    -5.1705945376060975e-08, 1.6306464635151382e-09, -7.86409137723707e-11,
    5.168262387349193e-12, -4.3045788699253914e-13, 4.3265957431549404e-14,
    -5.069034095935236e-15, 6.748072215733873e-16, -1.0011513723467786e-16,
    1.6305919233744186e-17,
)
_XQ0_CHEB = (
    -0.12444683684269607, 0.0005470815954089319, -5.9315987288485175e-06,
    1.4377965798375193e-07, -5.817532749493056e-09, 3.376097523734991e-10,
    -2.565397936797308e-11, 2.404916100281365e-12, -2.6690625482579414e-13,
    3.4041800321963686e-14, -4.87994410531204e-15, 7.729703176242605e-16,
    -1.3348852171502517e-16,
)
_P1_CHEB = (
    1.0009030408600137, 0.0008989898330859408, -3.987284300488908e-06,
    6.177633960644299e-08, -1.8718907491063067e-09, 8.816898659582339e-11,
    -5.704863640395645e-12, 4.699195515230542e-13, -4.6842237839904895e-14,
    5.452674896044717e-15, -7.221180842274018e-16, 1.0667689114335412e-16,
    -1.7312313216116335e-17,
)
_XQ1_CHEB = (
    0.3742222965562826, -0.0007702178839325664, 7.3108922063643636e-06,
    -1.676782510726674e-07, 6.583354662120443e-09, -3.749090950541556e-10,
    2.8121750359748866e-11, -2.61145253946232e-12, 2.8774212663332235e-13,
    -3.649001916061838e-14, 5.206626366226707e-15, -8.215318025458595e-16,
    1.4141084390211833e-16,
)
# the same four polynomials in powers of s = t + 1 = 128/x^2, lowest degree
# first: the rows above expanded exactly and rounded once (printed by the
# same script).  No kernel sums them; the Filon panels of the forward
# transform split the modulus-phase amplitude into powers of 1/x with them.
_P0_MONO = (
    1.0, -0.0005493164062493729, 6.8452209050152475e-06,
    -2.729897359568949e-07, 2.2626248580035936e-08, -3.19697239721781e-09,
    6.784812017739171e-10, -1.8949187462849448e-10, 5.841377244520406e-11,
    -1.6454205297853905e-11, 3.5770531264715957e-12, -5.032521716168072e-13,
    3.339452259070809e-14,
)
_XQ0_MONO = (
    -0.12499999999999997, 0.0005722045898382595, -1.3861572208273855e-05,
    8.238427797976101e-07, -9.081284325198143e-08, 1.6001830023058012e-08,
    -4.040441769030311e-09, 1.2817025856047247e-09, -4.2913588737916976e-10,
    1.2700007214553937e-10, -2.8428492065398842e-11, 4.072135514915702e-12,
    -2.7338449247237154e-13,
)
_P1_MONO = (
    1.0, 0.0009155273437493367, -8.800998310649137e-06,
    3.226242601369983e-07, -2.5643182547131355e-08, 3.5337363678078407e-09,
    -7.378589488936819e-10, 2.0393316894105291e-10, -6.247625231215511e-11,
    1.753733706702095e-11, -3.805036861359365e-12, 5.347045461300697e-13,
    -3.5455617466606254e-14,
)
_XQ1_MONO = (
    0.37499999999999994, -0.0008010864257754543, 1.694192161485426e-05,
    -9.505880095171817e-07, 1.0149744130962249e-07, -1.7527609966764268e-08,
    4.366557453120088e-09, -1.3732065063690339e-09, 4.5742211618385455e-10,
    -1.34980397042805e-10, 3.016491964701155e-11, -4.31656146554542e-12,
    2.8960940831153833e-13,
)

_JY_CHEB = np.array([_J0_CHEB, _J1_CHEB, _Y0_CHEB, _Y1_CHEB])
_I_CHEB = np.array([_I0_CHEB, _I1_CHEB])
_IE_CHEB = np.array([_I0E_CHEB, _I1E_CHEB])
_K_CHEB = np.array([_K0_CHEB, _K1_CHEB])
_KE_CHEB = np.array([_K0E_CHEB, _K1E_CHEB])
_PQ_CHEB = np.array([_P0_CHEB, _XQ0_CHEB, _P1_CHEB, _XQ1_CHEB])


def _stacks(table, rows=list):
    """{orders: columns} for each tuple of orders a kernel asks for: the
    coefficient columns of the rows of ``table`` that ``rows(orders)``
    names, highest degree first, each shaped (rows, 1) to broadcast
    against the points."""
    return {orders: [np.ascontiguousarray(c[:, None])
                     for c in table[rows(orders)].T[::-1]]
            for orders in ((0,), (1,), (0, 1))}


# built once: a kernel call reads its columns, it does not index the tables
_J_COLS = _stacks(_JY_CHEB)
_Y_COLS = _stacks(_JY_CHEB, lambda orders: [nu + 2 * r for nu in orders
                                            for r in (0, 1)])
_PQ_COLS = _stacks(_PQ_CHEB, lambda orders: [r for nu in orders
                                             for r in (2 * nu, 2 * nu + 1)])
_I_COLS, _IE_COLS = _stacks(_I_CHEB), _stacks(_IE_CHEB)
_K_COLS, _KE_COLS = _stacks(_K_CHEB), _stacks(_KE_CHEB)


def _clenshaw(cols, t2):
    """The Chebyshev series of every row of a table stack at t = t2/2, one
    row of values per table row, each shaped like t2; ``cols`` are the
    stack's columns from ``_stacks``.  One Clenshaw pass serves all rows,
    in place on three buffers, with t2 broadcast against the columns; a
    row's values do not depend on the other rows or on the other points."""
    shape = (len(cols[0]),) + np.shape(t2)
    t2 = np.ravel(t2)
    b2 = cols[0] * t2 + cols[1]  # the first step, from b = 0 above the top
    b1 = b2 * t2
    b1 -= cols[0]
    b1 += cols[2]
    tmp = np.empty_like(b1)
    for c in cols[3:-1]:
        np.multiply(b1, t2, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    np.multiply(b1, 0.5 * t2, out=tmp)
    tmp -= b2
    tmp += cols[-1]
    return tmp.reshape(shape)


def _jy_small(x, orders, kind):
    """J_nu or Y_nu for each nu in ``orders`` at 0 <= x < 8 from the tables
    in t = x^2/32 - 1: J0 = 1 + x^2/(1 + x^2/4) T, whose 1 is exact, and
    J1 = x T; Y_nu = x^nu T plus (2/pi) ln(x/2) J_nu and, for Y1,
    -2/(pi x).  Y reads the J rows too."""
    y = kind == "Y"
    cols = (_Y_COLS if y else _J_COLS)[orders]
    x2 = x * x
    c = _clenshaw(cols, x2 / 16.0 - 2.0)  # 2t, exactly
    j = [x * t if nu else 1.0 + x2 / (1.0 + x2 / 4.0) * t
         for t, nu in zip(c[::1 + y], orders)]
    if not y:
        return j
    ell = (2.0 / np.pi) * np.log(x / 2.0)
    return [x * ty + ell * jv - (2.0 / np.pi) / x if nu else ty + ell * jv
            for jv, ty, nu in zip(j, c[1::2], orders)]


def _jy_modphase(x, orders, kind):
    """J_nu or Y_nu for each nu in ``orders`` at x >= 8, as
    sqrt(2/(pi x)) times the P, Q combination at phase w.

    w = x - (2 nu + 1) pi/4 is never rounded: sqrt(2) cos w and sqrt(2) sin w
    come from cos x and sin x of the exact double x, which keeps the phase
    error at the rounding of cos and sin however large x is.  One sqrt, cos
    and sin per point serve every order.
    """
    pq = _clenshaw(_PQ_COLS[orders], 256.0 / x ** 2 - 2.0)  # 2t, exactly
    c, s = np.cos(x), np.sin(x)
    c, s = c + s, s - c  # now sqrt(2) cos w, sqrt(2) sin w for w = x - pi/4
    amp = 1.0 / np.sqrt(np.pi * x)
    out = []
    for p, xq, nu in zip(pq[::2], pq[1::2], orders):
        q = xq / x
        cw, sw = (c, s) if nu == 0 else (s, -c)  # nu = 1: a quarter turn on
        out.append(amp * (p * cw - q * sw) if kind == "J"
                   else amp * (p * sw + q * cw))
    return out


def _i_small(x, orders):
    """I_nu at 0 <= x < 8: e^(x^2/12) (1 + x^2 T) for I0, whose 1 is exact
    and free of the table's rounding near 0, and x e^(x^2/12) T for I1."""
    x2 = x * x
    c = _clenshaw(_I_COLS[orders], x2 / 16.0 - 2.0)  # 2t, exactly
    w = np.exp(x2 / 12.0)
    return [x * (w * t) if nu else w * (1.0 + x2 * t) for t, nu in zip(c, orders)]


def _i_large(x, orders):
    """I_nu at 8 <= x <= 705: e^x T / sqrt(x)."""
    return np.exp(x) * _clenshaw(_IE_COLS[orders], 32.0 / x - 2.0) / np.sqrt(x)


def _k_small(x, orders):
    """K_nu at 0 < x < 2: T - ln(x/2) I0 for K0, T/x + ln(x/2) I1 for K1."""
    c = _clenshaw(_K_COLS[orders], x * x - 2.0)  # 2t, exactly
    ell = np.log(x / 2.0)
    return [t / x + ell * i if nu else t - ell * i
            for t, i, nu in zip(c, _i_small(x, orders), orders)]


def _k_large(x, orders):
    """K_nu at 2 <= x < inf: e^(-x) T / sqrt(x)."""
    return np.exp(-x) * _clenshaw(_KE_COLS[orders], 8.0 / x - 2.0) / np.sqrt(x)


# family -> (seam, regions below and from it on, each (x, orders) -> rows)
_REGIONS = {
    "J": (_OSC_PLAIN, partial(_jy_small, kind="J"), partial(_jy_modphase, kind="J")),
    "Y": (_OSC_PLAIN, partial(_jy_small, kind="Y"), partial(_jy_modphase, kind="Y")),
    "I": (_OSC_PLAIN, _i_small, _i_large),
    "K": (_K_SEAM, _k_small, _k_large),
}


# ---------------------------------------------------------------------------
# public kernels

def _prepare(x, strict_positive):
    """(x as a float array of at least one dimension, whether x was a
    scalar, the least and the largest of its non-NaN points).  The array
    is the caller's own where it can be: no kernel writes to it."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lo = np.fmin.reduce(arr, axis=None, initial=np.inf)
    if strict_positive:
        if lo <= 0.0:
            raise ValueError("argument must be positive for Y and K kernels")
    elif lo < 0.0:
        raise ValueError("argument must be nonnegative")
    return arr, scalar, lo, np.fmax.reduce(arr, axis=None, initial=-np.inf)


def _finish(out, scalar):
    return float(out[0]) if scalar else out


def _kernel(x, family, orders):
    """The tuple of C_nu(x) for nu in orders, C the kernels of ``family``:
    the tables below the family's seam and from it on, one Clenshaw pass
    per region for every order, and the limit 0 at +inf of J, Y and K.
    Points that all lie in one region go to it whole."""
    x, scalar, lo, hi = _prepare(x, strict_positive=family in "YK")
    if family == "I" and hi > _I_OVERFLOW:
        raise OverflowError(f"i{orders[0]} overflows double precision for x > 705")
    seam, below, beyond = _REGIONS[family]
    if hi < seam:
        out = below(x, orders)
    elif lo >= seam and hi < np.inf:
        out = beyond(x, orders)
    else:
        small = x < seam
        out = np.zeros((len(orders),) + x.shape)
        for mask, region in ((small, below), (~small & (x != np.inf), beyond)):
            if np.any(mask):
                for row, val in zip(out, region(x[mask], orders)):
                    row[mask] = val
    return tuple(_finish(row, scalar) for row in out)


def j0(x):
    """Bessel function of the first kind, order 0."""
    return _kernel(x, "J", (0,))[0]


def j1(x):
    """Bessel function of the first kind, order 1."""
    return _kernel(x, "J", (1,))[0]


def j01(x):
    """(J0(x), J1(x)) from one pass, equal bit for bit to (j0(x), j1(x))."""
    return _kernel(x, "J", (0, 1))


def y0(x):
    """Bessel function of the second kind, order 0 (x > 0)."""
    return _kernel(x, "Y", (0,))[0]


def y1(x):
    """Bessel function of the second kind, order 1 (x > 0)."""
    return _kernel(x, "Y", (1,))[0]


def y01(x):
    """(Y0(x), Y1(x)) from one pass, equal bit for bit to (y0(x), y1(x))."""
    return _kernel(x, "Y", (0, 1))


def i0(x):
    """Modified Bessel function of the first kind, order 0."""
    return _kernel(x, "I", (0,))[0]


def i1(x):
    """Modified Bessel function of the first kind, order 1."""
    return _kernel(x, "I", (1,))[0]


def k0(x):
    """Modified Bessel function of the second kind, order 0 (x > 0)."""
    return _kernel(x, "K", (0,))[0]


def k1(x):
    """Modified Bessel function of the second kind, order 1 (x > 0)."""
    return _kernel(x, "K", (1,))[0]


# ---------------------------------------------------------------------------
# kind-based dispatch and derivatives

@dataclass(frozen=True)
class BesselKind:
    """One of the eight kernels: family J/Y/I/K at order 0 or 1."""

    family: str
    order: int

    def __post_init__(self):
        if self.family not in ("J", "Y", "I", "K"):
            raise ValueError(f"unknown Bessel family {self.family!r}")
        if self.order not in (0, 1):
            raise ValueError("only orders 0 and 1 are provided")


_EVAL = {
    ("J", 0): j0, ("J", 1): j1,
    ("Y", 0): y0, ("Y", 1): y1,
    ("I", 0): i0, ("I", 1): i1,
    ("K", 0): k0, ("K", 1): k1,
}


# x -> (C0(x), C1(x)) per family
_PAIRS = {
    "J": j01, "Y": y01,
    "I": lambda x: (i0(x), i1(x)), "K": lambda x: (k0(x), k1(x)),
}


def eval_bessel(kind: BesselKind, x):
    """Evaluate the kernel named by ``kind`` at ``x``."""
    return _EVAL[(kind.family, kind.order)](x)


def eval_bessel_derivative(kind: BesselKind, x):
    """First derivative of the kernel, via the exact order-0/1 recurrences.

    J0' = -J1, J1' = J0 - J1/x, I0' = I1, I1' = I0 - I1/x,
    K0' = -K1, K1' = -K0 - K1/x, and the Y family follows J.
    """
    fam, order = kind.family, kind.order
    if order == 0:
        return (1.0 if fam == "I" else -1.0) * _EVAL[(fam, 1)](x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full_like(arr, 0.5)  # the x = 0 limit of C1/x for J and I
    pos = arr != 0.0 if fam in ("J", "I") else np.ones(arr.shape, bool)
    if np.any(pos):
        v = arr[pos]
        c0, c1 = _PAIRS[fam](v)
        out[pos] = (-c0 if fam == "K" else c0) - c1 / v
    return _finish(out, np.ndim(x) == 0)

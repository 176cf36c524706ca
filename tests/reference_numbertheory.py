"""Reference Diophantine routines: one fresh continued-fraction expansion per
Dirichlet call, and Liouville data with the critical points of p' taken from
``numpy.roots``.

The package keeps one convergent table per alpha, grown geometrically, and
finds those critical points with ``mpmath.polyroots``; these are the plain
per-call forms it replaced, kept as the oracle that the cached forms must
match exactly.
"""

import numpy as np
from mpmath import mp, mpf

from epsnet.numbertheory import LiouvilleData, _poly_derivative, _poly_eval

_MIN_PREC = 96


def reference_dirichlet(provider, N: int) -> tuple:
    """(k, l, defect) for 0 < l <= N: the last convergent of a fresh
    expansion at the call's precision."""
    prec = max(_MIN_PREC, 4 * max(N, 2).bit_length() + 128)
    with mp.workprec(prec):
        x = alpha_mp = provider(prec)
        p_prev, q_prev = 1, 0
        p, q = int(mp.floor(x)), 1
        frac = x - int(mp.floor(x))
        while frac != 0:
            x = 1 / frac
            a = int(mp.floor(x))
            frac = x - a
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            if q > N:
                p, q = p_prev, q_prev
                break
        k = max(p, 0)
        return k, q, +abs(k - q * alpha_mp)


def reference_liouville(a) -> LiouvilleData:
    """c = min(1, 1/sup |p'| on [alpha-1, alpha+1]) and the smallest
    M >= degree-1 + log2(1 + 1/c)."""
    alpha = a.value_float
    dcoeffs = _poly_derivative(a.coeffs)
    lo, hi = alpha - 1.0, alpha + 1.0
    candidates = [lo, hi]
    if len(dcoeffs) >= 2:
        ddesc = [float(c) for c in reversed(_poly_derivative(dcoeffs))]
        for r in np.roots(ddesc) if len(ddesc) > 1 else []:
            if abs(r.imag) < 1e-9 and lo <= r.real <= hi:
                candidates.append(float(r.real))
    with mp.workprec(_MIN_PREC):
        sup = max(abs(_poly_eval(dcoeffs, mpf(t))) for t in candidates)
        c = min(mpf(1), 1 / sup)
        M = int(mp.ceil((a.degree - 1) + mp.log(1 + 1 / c, 2)))
    return LiouvilleData(float(c), M)

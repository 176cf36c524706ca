"""Reference Diophantine routines: one fresh continued-fraction expansion per
Dirichlet call, a Newton root refined from its float seed at every precision
asked, Liouville data with the critical points of p' taken from
``numpy.roots``, and the combined pair with its lower bound checked in log
form.

The package keeps one convergent table and one root per alpha, both grown
geometrically, and finds those critical points with ``mpmath.polyroots``;
these are the plain per-call forms it replaced, kept as the oracle that the
cached forms must match exactly.
"""

import math

import numpy as np
from mpmath import mp, mpf

from epsnet.numbertheory import LiouvilleData, _poly_derivative, _poly_eval, dirichlet

_MIN_PREC = 96


def reference_root(coeffs: tuple, seed: float, prec: int):
    """The root of the polynomial (ascending integer coefficients) near
    ``seed``, Newton-refined from the seed to ``prec`` bits."""
    dcoeffs = _poly_derivative(coeffs)
    with mp.workprec(prec + 32):
        x = mpf(seed)
        tol = mpf(2) ** (-(prec + 16))
        for _ in range(300):
            step = _poly_eval(coeffs, x) / _poly_eval(dcoeffs, x)
            x = x - step
            if abs(step) <= tol * max(1, abs(x)):
                break
        return +x


def reference_provider(a):
    """The value provider of an AlgebraicNumber with its root refined by
    ``reference_root`` at each call."""
    return lambda prec: reference_root(a.coeffs, a.seed, max(prec, _MIN_PREC))


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


def reference_corollary(a, R: float, M: float) -> tuple:
    """(k, l, defect, M, N, bounds_hold) for the pair at N = floor(R), the
    lower bound 1/R^M <= defect checked as log(defect) >= -M log(R) at the
    call's precision.  The pair is the package's ``dirichlet``, which the
    oracles above check on their own."""
    N = int(math.floor(R))
    pair = dirichlet(a, N)
    with mp.workprec(max(_MIN_PREC, 4 * max(N, 2).bit_length() + 128)):
        upper_ok = pair.defect <= mpf(2) / mpf(R)
        lower_ok = mp.log(pair.defect) >= -M * mp.log(mpf(R))
    return pair.k, pair.l, pair.defect, M, N, pair.l <= R and upper_ok and lower_ok

"""Reference Diophantine routines in mpmath, which the package no longer
uses: a Newton root refined from its float seed at every precision asked,
one fresh continued-fraction expansion per Dirichlet call at a generous
precision (a float is expanded exactly, as the rational it denotes), defects and their base-2 logarithms evaluated at 2 log2(l) + 512
bits or more and rounded once to a double, Liouville data with the critical
points of p' taken from ``numpy.roots`` and the sup taken at 256 bits, and
the combined pair with its lower bound checked in log form.

The package works on Python integers, with certified intervals; these are
the plain floating-point forms kept as the oracle it must match exactly.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from epsnet.numbertheory import LiouvilleData, RealAlpha


def _poly(coeffs, x):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def reference_root(coeffs: tuple, seed: float, prec: int):
    """The root of the polynomial (ascending integer coefficients) near
    ``seed``, Newton-refined from the seed to ``prec`` bits."""
    dcoeffs = _derivative(coeffs)
    with mp.workprec(prec + 32):
        x = mpf(seed)
        tol = mpf(2) ** (-(prec + 16))
        for _ in range(300):
            step = _poly(coeffs, x) / _poly(dcoeffs, x)
            x = x - step
            if abs(step) <= tol * max(1, abs(x)):
                break
        return +x


def reference_provider(alpha):
    """A function of a precision in bits giving alpha's value there: an
    AlgebraicNumber by ``reference_root``, pi and e by mpmath's constants,
    a float as the exact Fraction it denotes."""
    if not isinstance(alpha, RealAlpha):
        return lambda prec: reference_root(alpha.coeffs, alpha.seed, prec)
    if isinstance(alpha.spec, float):
        return lambda prec: Fraction(alpha.spec)
    constant = {"pi": lambda: +mp.pi, "e": lambda: +mp.e}[alpha.spec]

    def value(prec):
        with mp.workprec(prec + 16):
            return constant()

    return value


def reference_defect(provider, k: int, l: int) -> tuple:
    """(|k - l*alpha|, log2 of it) as doubles, from mpf values at
    2 log2(l) + 512 bits, or the exact defect of a rational alpha (0.0 and
    -inf when the defect is zero)."""
    prec = 2 * l.bit_length() + 512
    with mp.workprec(prec):
        defect = abs(k - l * provider(prec))
        if defect == 0:
            return 0.0, -math.inf
        if isinstance(defect, Fraction):
            return float(defect), float(mp.log(mpf(defect.numerator) / defect.denominator, 2))
        return float(defect), float(mp.log(defect, 2))


def reference_convergents(provider, prec: int, limit: int) -> list:
    """The convergents (k, l) with l <= limit of a fresh expansion of
    alpha's value at ``prec`` bits (of a rational alpha, in exact
    arithmetic), ending early if the expansion does."""
    out = []
    with mp.workprec(prec):
        x = provider(prec)
        k0, l0, k, l = 0, 1, 1, 0
        while True:
            a = math.floor(x) if isinstance(x, Fraction) else int(mp.floor(x))
            k, k0 = a * k + k0, k
            l, l0 = a * l + l0, l
            if l > limit:
                return out
            out.append((k, l))
            frac = x - a
            if frac == 0:
                return out
            x = 1 / frac


def reference_dirichlet(provider, N: int) -> tuple:
    """(k, l, defect, defect_log2) for 0 < l <= N: the last convergent with
    l <= N of a fresh expansion at 4 log2(N) + 256 bits."""
    k, l = reference_convergents(provider, 4 * max(N, 2).bit_length() + 256, N)[-1]
    return (k, l, *reference_defect(provider, k, l))


def reference_liouville(a) -> LiouvilleData:
    """c = min(1, 1/sup |p'| on [alpha-1, alpha+1]) and the smallest
    M >= degree-1 + log2(1 + 1/c)."""
    alpha = float(reference_root(a.coeffs, a.seed, 80))
    dcoeffs = _derivative(a.coeffs)
    lo, hi = alpha - 1.0, alpha + 1.0
    candidates = [lo, hi]
    if len(dcoeffs) >= 2:
        ddesc = [float(c) for c in reversed(_derivative(dcoeffs))]
        for r in np.roots(ddesc) if len(ddesc) > 1 else []:
            if abs(r.imag) < 1e-9 and lo <= r.real <= hi:
                candidates.append(float(r.real))
    with mp.workprec(256):
        sup = max(abs(_poly(dcoeffs, mpf(t))) for t in candidates)
        c = min(mpf(1), 1 / sup)
        M = int(mp.ceil((a.degree - 1) + mp.log(1 + 1 / c, 2)))
    return LiouvilleData(float(c), M)


def reference_corollary(a, R: float, M: float, pairs=None) -> tuple:
    """(k, l, defect, defect_log2, M, N, bounds_hold) for the reference pair
    at N = floor(R), the lower bound 1/R^M <= defect checked as
    log(defect) >= -M log(R) at 2 log2(l) + 512 bits.  The pair is the last
    of ``pairs`` (convergents from ``reference_convergents``, shared by
    several calls) with l <= N, or a fresh ``reference_dirichlet``."""
    N = int(math.floor(R))
    provider = reference_provider(a)
    if pairs is None:
        k, l, defect, log2 = reference_dirichlet(provider, N)
    else:
        k, l = [pair for pair in pairs if pair[1] <= N][-1]
        defect, log2 = reference_defect(provider, k, l)
    prec = 2 * l.bit_length() + 512
    with mp.workprec(prec):
        exact = abs(k - l * provider(prec))
        upper_ok = exact <= mpf(2) / mpf(R)
        lower_ok = mp.log(exact) >= -M * mp.log(mpf(R))
    return k, l, defect, log2, M, N, l <= R and upper_ok and lower_ok

"""Diophantine approximation engine: Dirichlet pairs, Liouville constants for
algebraic irrationals, and the combined pair finder with two-sided bounds.

Defects |k - l*alpha| are computed in extended precision (mpmath); algebraic
numbers carry their minimal polynomial and are refined by Newton iteration to
whatever precision a computation needs, so denominators far beyond double
precision remain exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from mpmath import mp, mpf

_MIN_PREC = 96


def _poly_eval(coeffs, x):
    """Horner evaluation, ascending coefficients."""
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


@dataclass(frozen=True)
class AlgebraicNumber:
    """A positive algebraic irrational: value plus integer minimal polynomial
    (ascending coefficients), degree >= 2.  Irreducibility is asserted by the
    caller."""

    name: str
    coeffs: tuple
    seed: float

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 3 or coeffs[-1] == 0:
            raise ValueError("minimal polynomial must have degree >= 2")
        if not self.seed > 0:
            raise ValueError("value must be positive")
        if abs(float(_poly_eval(coeffs, mpf(self.seed)))) > 1e-6:
            raise ValueError("seed is not close to a root of the polynomial")
        if abs(float(_poly_eval(coeffs, self.value(80)))) > 1e-12:
            raise ValueError("polynomial does not vanish at the refined value")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, prec: int = 80):
        """The root near the seed, Newton-refined to ``prec`` bits."""
        dcoeffs = _poly_derivative(self.coeffs)
        with mp.workprec(max(prec, _MIN_PREC) + 32):
            x = mpf(self.seed)
            tol = mpf(2) ** (-(max(prec, _MIN_PREC) + 16))
            for _ in range(300):
                step = _poly_eval(self.coeffs, x) / _poly_eval(dcoeffs, x)
                x = x - step
                if abs(step) <= tol * max(1, abs(x)):
                    break
            return +x

    @property
    def value_float(self) -> float:
        return float(self.value(80))


def catalog() -> dict:
    """Built-in algebraic numbers used throughout the test corpus."""
    return {
        "sqrt2": AlgebraicNumber("sqrt2", (-2, 0, 1), math.sqrt(2.0)),
        "sqrt3": AlgebraicNumber("sqrt3", (-3, 0, 1), math.sqrt(3.0)),
        "sqrt5": AlgebraicNumber("sqrt5", (-5, 0, 1), math.sqrt(5.0)),
        "phi": AlgebraicNumber("phi", (-1, -1, 1), (1.0 + math.sqrt(5.0)) / 2.0),
        "cbrt2": AlgebraicNumber("cbrt2", (-2, 0, 0, 1), 2.0 ** (1.0 / 3.0)),
        "cbrt3": AlgebraicNumber("cbrt3", (-3, 0, 0, 1), 3.0 ** (1.0 / 3.0)),
    }


_TRANSCENDENTALS = {
    "pi": lambda prec: +mp.pi,
    "e": lambda prec: +mp.e,
}


def resolve_alpha(spec):
    """Map a CLI-facing alpha spec (catalog name, 'pi'/'e', or a number) to
    (value_provider, display_name, algebraic_or_None)."""
    if isinstance(spec, AlgebraicNumber):
        return spec.value, spec.name, spec
    if isinstance(spec, str):
        cat = catalog()
        if spec in cat:
            a = cat[spec]
            return a.value, a.name, a
        if spec in _TRANSCENDENTALS:
            fn = _TRANSCENDENTALS[spec]

            def provider(prec: int, fn=fn):
                with mp.workprec(max(prec, _MIN_PREC) + 16):
                    return fn(prec)

            return provider, spec, None
        value = float(spec)
    else:
        value = float(spec)
    if not value > 0:
        raise ValueError("alpha must be positive")
    return (lambda prec, v=value: mpf(v)), repr(value), None


def _alpha_provider(alpha) -> Callable[[int], mpf]:
    if isinstance(alpha, AlgebraicNumber):
        return alpha.value
    if callable(alpha):
        return alpha
    if isinstance(alpha, str):
        return resolve_alpha(alpha)[0]
    return lambda prec, v=alpha: mpf(v)


@dataclass(frozen=True)
class DirichletPair:
    """Integers with 0 < l <= N and |k - l*alpha| <= 1/N; ``defect`` is kept
    in extended precision."""

    k: int
    l: int
    defect: object  # mpf

    def __post_init__(self):
        if self.l < 1 or self.k < 0:
            raise ValueError("need l >= 1 and k >= 0")

    @property
    def defect_float(self) -> float:
        return float(self.defect)


def _dirichlet_convergent(alpha_mp, N: int) -> tuple:
    """Last continued-fraction convergent with denominator <= N; for
    irrational alpha this is the minimal-defect pair among l <= N."""
    x = alpha_mp
    p_prev, q_prev = 1, 0
    p, q = int(mp.floor(x)), 1
    frac = x - int(mp.floor(x))
    while True:
        if frac == 0:
            break
        x = 1 / frac
        a = int(mp.floor(x))
        frac = x - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > N:
            p, q = p_prev, q_prev
            break
    k = max(p, 0)
    return k, q, abs(k - q * alpha_mp)


def dirichlet(alpha, N: int) -> DirichletPair:
    """The minimal-defect pair (k, l) with 0 < l <= N and |k - l*alpha| <= 1/N.

    The pair is the last continued-fraction convergent k/l of alpha with
    l <= N; by the best-approximation theorem no l <= N has a smaller defect.
    For irrational alpha the minimal pair is unique.  For rational alpha two
    pairs can tie (alpha = 1.5, N = 1: |1 - 1.5| = |2 - 1.5|), and the
    convergent (here k = 1) is the one returned.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    provider = _alpha_provider(alpha)
    # enough bits to resolve defects down to the Liouville floor c/l^(n-1)
    # for the catalog degrees at this N
    prec = max(_MIN_PREC, 4 * max(N, 2).bit_length() + 128)
    with mp.workprec(prec):
        alpha_mp = provider(prec)
        if not alpha_mp > 0:
            raise ValueError("alpha must be positive")
        k, l, defect = _dirichlet_convergent(alpha_mp, N)
        return DirichletPair(k, l, +defect)


@dataclass(frozen=True)
class LiouvilleData:
    """Lower-bound data |alpha - k/l| >= c / l^degree and the exponent M with
    1/R^M <= |k - l*alpha| for the combined pair, any R >= 2."""

    c: float
    M: int

    def __post_init__(self):
        if not 0 < self.c <= 1:
            raise ValueError("need 0 < c <= 1")
        if self.M < 2:
            raise ValueError("need M >= 2")


def liouville_constant(a: AlgebraicNumber) -> LiouvilleData:
    """The standard proof constant c = min(1, 1/sup |p'| on [alpha-1, alpha+1])
    and the smallest exponent M >= degree-1 + log2(1 + 1/c)."""
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
        if sup == 0:
            raise ValueError("degenerate polynomial: derivative vanishes on the interval")
        c = min(mpf(1), 1 / sup)
        M = int(mp.ceil((a.degree - 1) + mp.log(1 + 1 / c, 2)))
    data = LiouvilleData(float(c), M)
    if float(c) * 2.0 ** (M - (a.degree - 1)) < 1.0:
        raise AssertionError("exponent M fails its defining inequality")
    return data


@dataclass(frozen=True)
class CorollaryPair:
    k: int
    l: int
    defect: object  # mpf
    M: int
    N: int

    @property
    def defect_float(self) -> float:
        return float(self.defect)


def corollary_pair(a: AlgebraicNumber, R: float) -> CorollaryPair:
    """A pair with l <= R and 1/R^M <= |k - l*alpha| <= 2/R.

    N is floor-adjusted so R-1 <= N <= R; the two-sided bounds are verified
    before returning.
    """
    R = float(R)
    if not (R > 2 and math.isfinite(R)):
        raise ValueError("R must be a finite number > 2")
    N = int(math.floor(R))
    pair = dirichlet(a, N)
    data = liouville_constant(a)
    prec = max(_MIN_PREC, 4 * N.bit_length() + 128)
    with mp.workprec(prec):
        defect = pair.defect
        if not defect > 0:
            raise ValueError("defect vanished: alpha is rational to working precision")
        upper_ok = defect <= mpf(2) / mpf(R)
        lower_ok = mp.log(defect) >= -data.M * mp.log(mpf(R))
    if not (pair.l <= R and upper_ok and lower_ok):
        raise AssertionError("combined pair violates its two-sided bounds")
    return CorollaryPair(pair.k, pair.l, pair.defect, data.M, N)


def convergents(alpha, count: int) -> list:
    """The first ``count`` continued-fraction convergents (p, q); terminates
    early if the expansion is finite.  Each satisfies |alpha - p/q| < 1/q^2."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    provider = _alpha_provider(alpha)
    prec = max(_MIN_PREC, 64 * count)
    out = []
    with mp.workprec(prec):
        x = provider(prec)
        p_prev, q_prev = 1, 0
        p, q = None, None
        for _ in range(count):
            a = int(mp.floor(x))
            if p is None:
                p, q = a, 1
            else:
                p, p_prev = a * p + p_prev, p
                q, q_prev = a * q + q_prev, q
            out.append((p, q))
            frac = x - a
            if frac == 0 or frac < mpf(2) ** (-(prec - 16)):
                break
            x = 1 / frac
    return out

"""Diophantine approximation engine: Dirichlet pairs, Liouville constants for
algebraic irrationals, and the combined pair finder with two-sided bounds.

Every alpha is resolved once, by :func:`resolve_alpha`, into one of two
hashable records: an :class:`AlgebraicNumber` (a catalog name, or a number
built with its minimal polynomial) or a :class:`RealAlpha` ('pi', 'e' or a
float).  Defects |k - l*alpha| are computed in extended precision (mpmath),
so denominators far beyond double precision remain exact.  Algebraic numbers
carry their minimal polynomial; each keeps one root, Newton-refined from the
root it holds whenever a computation needs more bits (to twice as many at
least) and rounded to each call's precision.  Each alpha keeps one
continued-fraction table that serves every N (the convergents of alpha are
its best approximations); the tables, the roots and the Liouville data are
memoized by value in bounded caches, and the module needs no numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction

from mpmath import mp, mpf

from .report import record

_MIN_PREC = 96
#: bound of the memo caches: alphas with a continued-fraction table (a few
#: kilobytes each), a Newton root (one mpf) or Liouville data
_ALPHAS = 64


def _poly_eval(coeffs, x):
    """Horner evaluation, ascending coefficients."""
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _poly_divmod(a: list, b: list) -> tuple:
    """Quotient and remainder of a by b (ascending Fraction coefficients,
    b[-1] != 0); the remainder has no trailing zeros."""
    a = list(a)
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quotient) - 1, -1, -1):
        factor = quotient[shift] = a[shift + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    remainder = a[: len(b) - 1]
    while remainder and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder


def _distinct_roots(coeffs) -> list:
    """The distinct complex roots of a nonconstant integer polynomial
    (ascending coefficients), at the working precision.  They are taken from
    its squarefree part p / gcd(p, p'), because ``mp.polyroots`` converges
    only on simple roots (x^2 has a double root at 0)."""
    p = [Fraction(c) for c in coeffs]
    g, r = p, [Fraction(c) for c in _poly_derivative(coeffs)]
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    squarefree = _poly_divmod(p, g)[0]
    return mp.polyroots([mpf(c.numerator) / c.denominator for c in reversed(squarefree)])


def _newton(coeffs: tuple, x, prec: int):
    """The root of the polynomial near ``x``, Newton-refined from ``x`` to
    ``prec`` bits (held at prec + 32)."""
    dcoeffs = _poly_derivative(coeffs)
    with mp.workprec(prec + 32):
        x = mpf(x)
        tol = mpf(2) ** (-(prec + 16))
        for _ in range(300):
            step = _poly_eval(coeffs, x) / _poly_eval(dcoeffs, x)
            x = x - step
            if abs(step) <= tol * max(1, abs(x)):
                break
        return +x


class _Root:
    """One root of one polynomial, held at ``prec`` bits for calls at every
    precision, and grown like the convergent table.

    A call that needs ``prec`` bits while the held root has fewer than
    prec + 64 refines it, starting from the held root, to the larger of
    prec + 64 bits and twice the held precision; each call gets the held
    root rounded to prec + 32 bits.
    """

    def __init__(self, coeffs: tuple, seed: float):
        self.coeffs = coeffs
        self.x = seed
        self.prec = 0

    def at(self, prec: int):
        if self.prec < prec + 64:
            self.prec = max(prec + 64, 2 * self.prec)
            self.x = _newton(self.coeffs, self.x, self.prec)
        with mp.workprec(prec + 32):
            return +self.x


@functools.lru_cache(maxsize=_ALPHAS)
def _root(coeffs: tuple, seed: float) -> _Root:
    return _Root(coeffs, seed)


@record
class AlgebraicNumber:
    """A positive algebraic irrational: value plus integer minimal polynomial
    (ascending coefficients), degree >= 2.  Irreducibility is asserted by the
    caller.  Calling it with a precision in bits is ``value``, so it serves
    as its own value provider."""

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
        """The root near the seed, to ``prec`` bits."""
        return _root(self.coeffs, self.seed).at(max(prec, _MIN_PREC))

    __call__ = value

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
    "pi": lambda: +mp.pi,
    "e": lambda: +mp.e,
}


@record
class RealAlpha:
    """A positive real alpha outside the algebraic catalog: a transcendental
    known by name ('pi', 'e') or a finite float.  Like an AlgebraicNumber it
    is called with a precision in bits and returns its value, and equal
    alphas share one continued-fraction table."""

    spec: object  # a name in _TRANSCENDENTALS, or a float

    def __post_init__(self):
        if isinstance(self.spec, str):
            if self.spec not in _TRANSCENDENTALS:
                raise ValueError(f"unknown transcendental alpha {self.spec!r}")
            return
        if not math.isfinite(self.spec):
            raise ValueError(f"alpha must be finite, got {self.spec!r}")
        if not self.spec > 0:
            raise ValueError("alpha must be positive")

    @property
    def name(self) -> str:
        """The display name: the spec of a transcendental, the repr of a
        float."""
        return self.spec if isinstance(self.spec, str) else repr(self.spec)

    def __call__(self, prec: int):
        if isinstance(self.spec, str):
            with mp.workprec(max(prec, _MIN_PREC) + 16):
                return _TRANSCENDENTALS[self.spec]()
        return mpf(self.spec)


def resolve_alpha(spec):
    """The alpha a spec denotes, as an AlgebraicNumber or a RealAlpha: a
    catalog name, 'pi'/'e', or a number (a float, or a string or other value
    ``float`` reads); an AlgebraicNumber or RealAlpha is returned as it is.
    Anything else, a callable included, raises ``ValueError``."""
    if isinstance(spec, (AlgebraicNumber, RealAlpha)):
        return spec
    if isinstance(spec, str):
        cat = catalog()
        if spec in cat:
            return cat[spec]
        if spec in _TRANSCENDENTALS:
            return RealAlpha(spec)
    try:
        value = float(spec)
    except (TypeError, ValueError):
        raise ValueError(f"alpha must be a catalog name ({', '.join(sorted(catalog()))}), "
                         f"pi, e or a number, got {spec!r}") from None
    return RealAlpha(value)


def _call_prec(N: int) -> int:
    """Working precision of a Dirichlet call at N: enough bits to resolve
    defects down to the Liouville floor c/l^(n-1) for the catalog degrees."""
    return max(_MIN_PREC, 4 * max(N, 2).bit_length() + 128)


def _partial_quotients(alpha):
    """The partial quotients of alpha's continued fraction, ending when the
    expansion does.  A float alpha is expanded exactly, as the rational it
    denotes; any other from its value at the working precision, of which a
    prefix is exact (the table below keeps only that prefix)."""
    if isinstance(alpha, RealAlpha) and isinstance(alpha.spec, float):
        n, d = alpha.spec.as_integer_ratio()
        while d:
            a, r = divmod(n, d)
            yield a
            n, d = d, r
        return
    x = alpha(mp.prec)
    while True:
        a = int(mp.floor(x))
        yield a
        x = x - a
        if x == 0:
            return
        x = 1 / x


class _ConvergentTable:
    """The continued-fraction convergents k/l of one alpha, in order.

    Expanded at ``prec`` bits, the table holds every convergent with
    l <= ``limit`` -- the largest N whose own call precision is at most
    ``prec`` -- and the first one beyond it, so the pair for any N <= limit
    is a bisection.  A larger N re-expands the whole table at the larger of
    its own precision and twice the current one; a finite expansion serves
    every N.
    """

    def __init__(self, alpha):
        self.alpha = alpha
        self.prec = 0
        self.limit = 0
        self.ks, self.ls = [], []

    def pair(self, N: int) -> tuple:
        """(k, l): the last convergent with l <= N."""
        if N > self.limit:
            self._expand(max(_call_prec(N), 2 * self.prec))
        i = bisect.bisect_right(self.ls, N) - 1
        return self.ks[i], self.ls[i]

    def first(self, count: int) -> list:
        """The first ``count`` convergents (k, l), fewer if the expansion
        ends."""
        while len(self.ls) <= count and self.limit < math.inf:
            self._expand(max(_call_prec(self.limit + 1), 2 * self.prec))
        return list(zip(self.ks, self.ls))[:count]

    def _expand(self, prec: int) -> None:
        limit = (1 << ((prec - 128) // 4)) - 1
        ks, ls = [], []
        k_prev, l_prev, k, l = 0, 1, 1, 0
        with mp.workprec(prec):
            for a in _partial_quotients(self.alpha):
                k, k_prev = a * k + k_prev, k
                l, l_prev = a * l + l_prev, l
                ks.append(k)
                ls.append(l)
                if l > limit:
                    break
            else:
                limit = math.inf
        self.prec, self.limit, self.ks, self.ls = prec, limit, ks, ls


@functools.lru_cache(maxsize=_ALPHAS)
def _table(alpha) -> _ConvergentTable:
    """The one table of a resolved alpha (an AlgebraicNumber or RealAlpha),
    shared by every call with an equal alpha."""
    return _ConvergentTable(alpha)


@record
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


def dirichlet(alpha, N: int) -> DirichletPair:
    """The minimal-defect pair (k, l) with 0 < l <= N and |k - l*alpha| <= 1/N.

    The pair is the last continued-fraction convergent k/l of alpha with
    l <= N; by the best-approximation theorem no l <= N has a smaller defect.
    For irrational alpha the minimal pair is unique.  For rational alpha two
    pairs can tie (alpha = 1.5, N = 1: |1 - 1.5| = |2 - 1.5|), and the
    convergent (here k = 1) is the one returned.  The defect is computed at
    the call's own precision, whatever the table's.  ``alpha`` is any spec
    :func:`resolve_alpha` accepts.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    alpha = resolve_alpha(alpha)
    prec = _call_prec(N)
    with mp.workprec(prec):
        alpha_mp = alpha(prec)
        if not alpha_mp > 0:
            raise ValueError("alpha must be positive")
        k, l = _table(alpha).pair(N)
        return DirichletPair(k, l, abs(k - l * alpha_mp))


@record
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


@functools.lru_cache(maxsize=_ALPHAS)
def liouville_constant(a: AlgebraicNumber) -> LiouvilleData:
    """The standard proof constant c = min(1, 1/sup |p'| on [alpha-1, alpha+1])
    and the smallest exponent M >= degree-1 + log2(1 + 1/c)."""
    alpha = a.value_float
    dcoeffs = _poly_derivative(a.coeffs)
    lo, hi = alpha - 1.0, alpha + 1.0
    candidates = [lo, hi]
    if len(dcoeffs) >= 3:
        with mp.workprec(_MIN_PREC):
            for r in _distinct_roots(_poly_derivative(dcoeffs)):
                if abs(mp.im(r)) < 1e-9 and lo <= mp.re(r) <= hi:
                    candidates.append(float(mp.re(r)))
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


@record
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
    with mp.workprec(_call_prec(N)):
        defect = pair.defect
        if not defect > 0:
            raise ValueError("defect vanished: alpha is rational to working precision")
        upper_ok = defect <= mpf(2) / mpf(R)
        lower_ok = defect * mpf(R) ** data.M >= 1
    if not (pair.l <= R and upper_ok and lower_ok):
        raise AssertionError("combined pair violates its two-sided bounds")
    return CorollaryPair(pair.k, pair.l, pair.defect, data.M, N)


def convergents(alpha, count: int) -> list:
    """The first ``count`` continued-fraction convergents (p, q); terminates
    early if the expansion is finite.  Each satisfies |alpha - p/q| < 1/q^2;
    ``alpha`` is any spec :func:`resolve_alpha` accepts."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    return _table(resolve_alpha(alpha)).first(count)

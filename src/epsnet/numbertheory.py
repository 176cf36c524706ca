"""Diophantine approximation engine: Dirichlet pairs, Liouville constants for
algebraic irrationals, and the combined pair finder with two-sided bounds,
all on Python integers.

Every alpha is resolved once, by :func:`resolve_alpha`, into one of two
hashable records: an :class:`AlgebraicNumber` (a catalog name, or a number
built with its minimal polynomial) or a :class:`RealAlpha` ('pi', 'e' or a
float).  Each answers one question, ``bounds(P)``: integers lo <= alpha*2^P
<= hi with hi - lo <= 1.  An algebraic number is first isolated: a Sturm
sequence shows that an interval around its seed holds exactly one root.  Its
bounds then come from integer Newton steps on the minimal polynomial scaled
by 2^P, checked by the polynomial's sign on either side of the floor.  pi
comes from Machin's formula, e from the series of 1/n!, and a float is exact.
An irrational alpha keeps floor(alpha*2^P) at the largest P asked so far (at
least twice the last) and answers every smaller P by a shift.

Each alpha keeps one continued-fraction table that serves every N (the
convergents of alpha are its best approximations).  A partial quotient is
kept only when both ends of alpha's integer interval agree on it; when they
part, the expansion resumes from the last two convergents at twice the
precision.  Defects |k - l*alpha| and their base-2 logarithms are correctly
rounded doubles, and :func:`corollary_pair` decides its two bounds on exact
integer bounds of the defect, raising P until each one is decided.  Nothing
takes a precision setting.  Tables, floors, isolations and Liouville data
are memoized by value in bounded caches; the module needs neither numpy nor
mpmath.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction

from .report import record

#: bound of the memo caches: alphas with a continued-fraction table (a few
#: kilobytes each), a held floor, an isolating interval or Liouville data
_ALPHAS = 64


def _poly_eval(coeffs, x):
    """Horner evaluation, ascending coefficients."""
    acc = 0
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


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sturm(coeffs) -> list:
    """The Sturm sequence of a nonconstant polynomial: p, p', then each
    negated remainder of the two before it."""
    seq = [[Fraction(c) for c in coeffs], [Fraction(c) for c in _poly_derivative(coeffs)]]
    while True:
        remainder = _poly_divmod(seq[-2], seq[-1])[1]
        if not remainder:
            return seq
        seq.append([-c for c in remainder])


def _roots_in(seq, a, b) -> int:
    """The number of distinct real roots in (a, b] of the polynomial whose
    Sturm sequence is ``seq`` (Sturm's theorem)."""

    def changes(x) -> int:
        signs = [s for s in (_sign(_poly_eval(p, x)) for p in seq) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return changes(a) - changes(b)


def _real_roots(coeffs, lo: float, hi: float) -> list:
    """The distinct real roots in [lo, hi] of a nonconstant integer
    polynomial, each as a float within 2^-60 of it (relative, or absolute
    below 1), isolated and narrowed by Sturm counts, which also hold at
    multiple roots."""
    seq = _sturm(coeffs)
    lo, hi = Fraction(lo), Fraction(hi)
    roots = [lo] if _poly_eval(coeffs, lo) == 0 else []
    pending = [(lo, hi, _roots_in(seq, lo, hi))]
    while pending:
        a, b, count = pending.pop()
        if count == 0:
            continue
        if count == 1 and b - a <= max(1, abs(a)) / 2**60:
            roots.append((a + b) / 2)
            continue
        mid = (a + b) / 2
        left = _roots_in(seq, a, mid)
        pending += [(a, mid, left), (mid, b, count - left)]
    return sorted(float(r) for r in roots)


#: Largest relative backward error of an accepted seed (see ``_isolate``).
_SEED_BACKWARD_ERROR = 1e-6


@functools.lru_cache(maxsize=_ALPHAS)
def _isolate(coeffs: tuple, seed: float) -> tuple:
    """(a, b, s): rationals a < seed < b such that [a, b] holds exactly one
    root of the polynomial, a simple one, with 0 <= a, and s the sign of the
    polynomial at a.  The half-width starts at twice the Newton step from
    the seed and doubles until a root falls inside; a seed whose first such
    interval holds two roots does not say which one it means, and one with
    no real root within max(1, seed) of it is not close to one.  A seed whose
    relative backward error exceeds ``_SEED_BACKWARD_ERROR`` is not close to
    a root either."""
    s = Fraction(seed)
    value = _poly_eval(coeffs, s)
    # the relative backward error |p(s)| / sum |c_i| s^i, which scaling p or
    # x leaves alone (a double next to a root reads about 1e-16); a Newton
    # step |p/p'| would also be scale-free, but p' vanishes between two close
    # roots, and the isolation below is what should reject such a seed
    if abs(value) > _SEED_BACKWARD_ERROR * _poly_eval([abs(c) for c in coeffs], abs(s)):
        raise ValueError("seed is not close to a root of the polynomial")
    seq = _sturm(coeffs)
    slope = _poly_eval(_poly_derivative(coeffs), s)
    delta = min(max(2 * abs(value / slope) if slope else 0, s / 2**60), max(1, s))
    while True:
        a, b = max(s - delta, Fraction(0)), s + delta
        pa, pb = _poly_eval(coeffs, a), _poly_eval(coeffs, b)
        count = _roots_in(seq, a, b) + (pa == 0)
        if count > 1:
            raise ValueError(f"seed {seed!r} does not isolate a root: "
                             f"{count} roots lie within {float(delta):.3g} of it")
        if count == 1 and pa * pb < 0:
            return a, b, _sign(pa)
        if count == 1 and pa and pb:
            raise ValueError("the root near the seed is not simple")
        if delta > max(1, s):
            raise ValueError("no real root of the polynomial is close to the seed")
        delta *= 2


def _root_floor(coeffs: tuple, isolation: tuple, P: int, guess: int) -> int:
    """floor(alpha*2^P) for the one root alpha in the isolating interval
    (a, b, s): one integer Newton step from ``guess`` on the polynomial
    scaled by 2^P, then a galloping search and bisection on the sign of the
    scaled polynomial, which is s below alpha and -s above it."""
    a, b, s = isolation
    n = len(coeffs) - 1
    scaled = [c << ((n - i) * P) for i, c in enumerate(coeffs)]

    def below(m) -> bool:  # m <= alpha*2^P, for m strictly inside (a, b)*2^P
        return _poly_eval(scaled, m) * s >= 0

    value = slope = 0
    for c in reversed(scaled):
        slope = slope * guess + value
        value = value * guess + c
    x = guess - value // slope if slope else guess
    # lo and hi are known to bracket alpha*2^P without a sign test
    lo, hi = (a.numerator << P) // a.denominator, -((-b.numerator << P) // b.denominator)
    if hi - lo <= 1:
        return lo
    x = min(max(x, lo + 1), hi - 1)
    step = 1
    if below(x):
        lo = x
        while lo + step < hi and below(lo + step):
            lo += step
            step *= 2
        hi = min(hi, lo + step)
    else:
        hi = x
        while hi - step > lo and not below(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo


class _Floor:
    """floor(alpha*2^P) for one irrational alpha, held at the largest P asked
    so far.  A larger P is computed at least at twice the held precision,
    from the held floor; a smaller one is the held floor shifted, since
    floor(floor(x)/2^j) = floor(x/2^j)."""

    def __init__(self, compute):
        self.compute = compute  # (P, held P, held floor) -> floor(alpha*2^P)
        self.prec = 0
        self.floor = 0

    def at(self, P: int) -> int:
        if P > self.prec:
            Q = max(P, 2 * self.prec)
            self.floor = self.compute(Q, self.prec, self.floor)
            self.prec = Q
        return self.floor >> (self.prec - P)


@functools.lru_cache(maxsize=_ALPHAS)
def _floor(alpha) -> _Floor:
    """The one held floor of an irrational resolved alpha."""
    return _Floor(alpha._floor_at)


def _nearest(alpha) -> float:
    """The double nearest to alpha."""
    P = 64
    while True:
        lo, hi = alpha.bounds(P)
        x = lo / (1 << P)
        if x == hi / (1 << P):
            return x
        P *= 2


@record
class AlgebraicNumber:
    """A positive algebraic irrational: the root near ``seed`` of an integer
    minimal polynomial (ascending coefficients), degree >= 2.  Irreducibility
    is asserted by the caller; the root must be simple and isolated by the
    seed (see ``_isolate``), and it must not be rational."""

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
        _isolate(coeffs, self.seed)
        # a rational root m/v has v | c_n, so c_n*alpha would be the integer m
        lead = abs(coeffs[-1])
        P = lead.bit_length() + 1
        m = self.bounds(P)[0] * lead >> P
        for cand in (m, m + 1):
            if sum(c * cand**i * lead ** (self.degree - i) for i, c in enumerate(coeffs)) == 0:
                raise ValueError(f"the root near the seed is rational ({cand}/{lead})")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def bounds(self, P: int) -> tuple:
        """Integers (lo, lo + 1) with lo <= alpha*2^P < lo + 1."""
        lo = _floor(self).at(P)
        return lo, lo + 1

    def _floor_at(self, P: int, held: int, floor: int) -> int:
        """floor(alpha*2^P) from the floor held at ``held`` bits (none when
        0), through precisions that at most double, so each Newton step
        starts within the square root of its target accuracy."""
        if held < 32:  # the float seed is closer
            held = 0
        rungs = [P]
        while rungs[-1] > 2 * max(held, 32):
            rungs.append((rungs[-1] + 1) // 2)
        isolation = _isolate(self.coeffs, self.seed)
        for rung in reversed(rungs):
            guess = floor << (rung - held) if held else math.floor(self.seed * 2.0**rung)
            floor, held = _root_floor(self.coeffs, isolation, rung, guess), rung
        return floor

    @property
    def value_float(self) -> float:
        """The double nearest to the root."""
        return _nearest(self)


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


def _atan_inv(x: int, Q: int) -> tuple:
    """(A, E) with |atan(1/x)*2^Q - A| <= E, x >= 2: the alternating series,
    each term's floor off by less than 2, the tail below 1."""
    power, x2 = (1 << Q) // x, x * x
    total = k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x2
        k += 1
    return total, 2 * k + 1


def _pi(Q: int) -> tuple:
    """(A, E) with |pi*2^Q - A| <= E, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    a, ea = _atan_inv(5, Q)
    b, eb = _atan_inv(239, Q)
    return 16 * a - 4 * b, 16 * ea + 4 * eb


def _e(Q: int) -> tuple:
    """(A, E) with |e*2^Q - A| <= E: the sum of floor(2^Q/n!), each term
    off by less than 1, the tail below 2."""
    term, total, n = 1 << Q, 0, 0
    while term:
        total += term
        n += 1
        term //= n
    return total, n + 2


#: the transcendentals by name, each as its fixed-point approximation
_TRANSCENDENTALS = {"pi": _pi, "e": _e}


@record
class RealAlpha:
    """A positive real alpha outside the algebraic catalog: a transcendental
    known by name ('pi', 'e') or a finite float.  Like an AlgebraicNumber it
    answers ``bounds(P)``, and equal alphas share one continued-fraction
    table."""

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

    def bounds(self, P: int) -> tuple:
        """Integers (lo, hi) with lo <= alpha*2^P <= hi and hi - lo <= 1;
        lo == hi when alpha*2^P is an integer (a float at enough bits)."""
        if isinstance(self.spec, str):
            lo = _floor(self).at(P)
            return lo, lo + 1
        n, d = self.spec.as_integer_ratio()
        lo, rest = divmod(n << P, d)
        return lo, lo + (rest != 0)

    def _floor_at(self, P: int, held: int, floor: int) -> int:
        """floor(alpha*2^P) for a transcendental, from its approximation at
        P + g bits, with g grown until both ends of the error bound have
        the same floor (they do for some g, as alpha*2^P is no integer)."""
        approx = _TRANSCENDENTALS[self.spec]
        g = 32
        while True:
            value, err = approx(P + g)
            lo, hi = (value - err) >> g, (value + err) >> g
            if lo == hi:
                return lo
            g *= 2

    @property
    def value_float(self) -> float:
        """The double nearest to alpha (the float itself for a float)."""
        return self.spec if isinstance(self.spec, float) else _nearest(self)


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


class _ConvergentTable:
    """The continued-fraction convergents k/l of one alpha, in order.

    Every partial quotient in the table is certified: both ends of alpha's
    interval [lo, hi]/2^P have it, so alpha has it too.  When the ends part,
    the table is extended at twice the precision (or more), resuming from
    the complete quotient x: alpha = (k x + k') / (l x + l') for the last
    two convergents k/l and k'/l', so x's interval is the image of alpha's
    under the inverse map, which is monotone there unless alpha's interval
    holds k/l.  A float's interval becomes a point, and its finite expansion
    serves every N.
    """

    def __init__(self, alpha):
        self.alpha = alpha
        self.prec = 0
        self.ended = False
        self.ks, self.ls = [], []

    def pair(self, N: int) -> tuple:
        """(k, l): the last convergent with l <= N."""
        while not self.ended and (not self.ls or self.ls[-1] <= N):
            self._extend(2 * N.bit_length() + 64)
        i = bisect.bisect_right(self.ls, N) - 1
        return self.ks[i], self.ls[i]

    def first(self, count: int) -> list:
        """The first ``count`` convergents (k, l), fewer if the expansion
        ends."""
        while not self.ended and len(self.ls) < count:
            self._extend(4 * count + 64)
        return list(zip(self.ks, self.ls))[:count]

    def _extend(self, P: int) -> None:
        self.prec = P = max(P, 2 * self.prec)
        lo, hi = self.alpha.bounds(P)
        ks, ls = self.ks, self.ls
        k, l = (ks[-1], ls[-1]) if ks else (1, 0)
        k0, l0 = (ks[-2], ls[-2]) if len(ks) > 1 else (1, 0) if ks else (0, 1)
        (un, ud), (vn, vd) = [((k0 << P) - l0 * A, l * A - (k << P)) for A in (lo, hi)]
        if ud * vd <= 0:
            return  # alpha's interval holds k/l: no complete quotient yet
        if ud < 0:
            un, ud, vn, vd = -un, -ud, -vn, -vd
        while True:
            a = un // ud
            if vn // vd != a:
                return
            k, k0 = a * k + k0, k
            l, l0 = a * l + l0, l
            ks.append(k)
            ls.append(l)
            un, ud = ud, un - a * ud
            vn, vd = vd, vn - a * vd
            if not (ud and vd):
                # an end reached a convergent exactly: the expansion ends
                # there if the interval is that point, else it needs bits
                self.ended = lo == hi
                return


@functools.lru_cache(maxsize=_ALPHAS)
def _table(alpha) -> _ConvergentTable:
    """The one table of a resolved alpha (an AlgebraicNumber or RealAlpha),
    shared by every call with an equal alpha."""
    return _ConvergentTable(alpha)


def _defect_bounds(alpha, k: int, l: int, P: int):
    """Integers (lo, hi) with lo <= |k - l*alpha|*2^P <= hi, or None while
    alpha's interval at P bits holds k/l (the sign of k - l*alpha is then
    unknown, or the defect is zero and alpha's interval is not yet the
    point k/l)."""
    a_lo, a_hi = alpha.bounds(P)
    x, y = (k << P) - l * a_hi, (k << P) - l * a_lo
    if x > 0 or x == y == 0:
        return x, y
    if y < 0:
        return -y, -x
    return None


def _atanh_series(z: int, Q: int) -> tuple:
    """(A, E) with |2 atanh(z/2^Q)*2^Q - A| <= E, for 0 <= z/2^Q < 1/3 and z
    within 1 of the true argument: each term's floor off by less than 3
    (the powers' errors stay below 2 because the ratio z^2 is below 1/9),
    the tail below 3, all doubled."""
    z2 = z * z >> Q
    total = k = 0
    power = z
    while power:
        total += power // (2 * k + 1)
        power = power * z2 >> Q
        k += 1
    return 2 * total, 6 * k + 6


@functools.lru_cache(maxsize=8)
def _ln2(Q: int) -> tuple:
    """(A, E) with |ln(2)*2^Q - A| <= E: 2 atanh(1/3)."""
    return _atanh_series((1 << Q) // 3, Q)


def _log2_fixed(n: int, Q: int) -> tuple:
    """(A, E) with |log2(n)*2^Q - A| <= E for an integer n >= 1: n = 2^s*m
    with m in [1/sqrt2, sqrt2), ln m = 2 atanh((m-1)/(m+1)) with the
    argument below 0.172 in size, divided by ln 2."""
    s = n.bit_length() - 1
    if n * n >= 1 << (2 * s + 1):
        s += 1
    t = 1 << s
    z = ((abs(n - t) << Q) + (n + t) // 2) // (n + t)
    ln, err = _atanh_series(z, Q)
    ln2, err2 = _ln2(Q)
    if n < t:
        ln = -ln
    # |ln/ln2| < 0.5; dividing adds the errors scaled by 1/ln2 < 1.45 and
    # |ln|*err2/ln2^2 < 0.73*1.45*err2, plus the floor
    return (s << Q) + (ln << Q) // ln2, 2 * err + 2 * err2 + 2


def _rounded(lo: int, hi: int, P: int):
    """The double nearest to every number in [lo, hi]/2^P, or None when the
    ends round apart."""
    x = lo / (1 << P)
    return x if x == hi / (1 << P) else None


def _rounded_log2(lo: int, hi: int, P: int):
    """The double nearest to log2(x) for every x in [lo, hi]/2^P (0 < lo),
    or None when the interval is too wide to tell: log2(hi) - log2(lo) is
    at most (hi - lo)/(lo ln 2) < 1.5 (hi - lo)/lo."""
    Q = 64
    while True:
        value, err = _log2_fixed(lo, Q)
        width = (3 * (hi - lo) << Q) // (2 * lo) + 1
        x = _rounded(value - err - (P << Q), value + err + width - (P << Q), Q)
        if x is not None:
            return x
        if width > err:
            return None
        Q *= 2


def _defect(alpha, k: int, l: int) -> tuple:
    """|k - l*alpha| and log2 of it, as correctly rounded doubles (0.0 and
    -inf when alpha is k/l)."""
    P = 2 * l.bit_length() + 64
    while True:
        bounds = _defect_bounds(alpha, k, l, P)
        if bounds == (0, 0):
            return 0.0, -math.inf
        if bounds is not None and bounds[0] > 0:
            defect = _rounded(*bounds, P)
            log2 = None if defect is None else _rounded_log2(*bounds, P)
            if log2 is not None:
                return defect, log2
        P *= 2


@record
class DirichletPair:
    """Integers with 0 < l <= N and |k - l*alpha| <= 1/N; the defect and
    its base-2 logarithm are correctly rounded doubles."""

    k: int
    l: int
    defect: float
    defect_log2: float

    def __post_init__(self):
        if self.l < 1 or self.k < 0:
            raise ValueError("need l >= 1 and k >= 0")


def dirichlet(alpha, N: int) -> DirichletPair:
    """The minimal-defect pair (k, l) with 0 < l <= N and |k - l*alpha| <= 1/N.

    The pair is the last continued-fraction convergent k/l of alpha with
    l <= N; by the best-approximation theorem no l <= N has a smaller defect.
    For irrational alpha the minimal pair is unique.  For rational alpha two
    pairs can tie (alpha = 1.5, N = 1: |1 - 1.5| = |2 - 1.5|), and the
    convergent (here k = 1) is the one returned.  ``alpha`` is any spec
    :func:`resolve_alpha` accepts.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    alpha = resolve_alpha(alpha)
    k, l = _table(alpha).pair(N)
    return DirichletPair(k, l, *_defect(alpha, k, l))


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
    and the smallest exponent M >= degree-1 + log2(1 + 1/c).  The sup is
    taken over the interval's ends and the real roots of p'' inside it (as
    floats), exactly; c is that rational rounded to a double, and M is
    exact."""
    alpha = a.value_float
    dcoeffs = _poly_derivative(a.coeffs)
    lo, hi = alpha - 1.0, alpha + 1.0
    candidates = [lo, hi]
    if len(dcoeffs) >= 3:
        candidates += _real_roots(_poly_derivative(dcoeffs), lo, hi)
    sup = max(abs(_poly_eval(dcoeffs, Fraction(t))) for t in candidates)
    if sup == 0:
        raise ValueError("degenerate polynomial: derivative vanishes on the interval")
    c = min(Fraction(1), 1 / sup)
    # the smallest m with 2^m >= 1 + 1/c = u/v
    u, v = (1 + 1 / c).as_integer_ratio()
    m = max(u.bit_length() - v.bit_length() - 1, 0)
    while v << m < u:
        m += 1
    data = LiouvilleData(float(c), a.degree - 1 + m)
    if data.c * 2.0 ** m < 1.0:
        raise AssertionError("exponent M fails its defining inequality")
    return data


@record
class CorollaryPair:
    k: int
    l: int
    defect: float
    defect_log2: float
    M: int
    N: int


def _corollary_bounds(alpha, k: int, l: int, R: float, M: int) -> tuple:
    """(|k - l*alpha| <= 2/R, |k - l*alpha|*R^M >= 1), each decided on exact
    integer bounds of the defect and of R = r/s, with P raised until both
    are decided."""
    r, s = R.as_integer_ratio()
    rM, sM = r**M, s**M
    upper = lower = None
    P = 2 * l.bit_length() + 64
    while upper is None or lower is None:
        bounds = _defect_bounds(alpha, k, l, P)
        if bounds == (0, 0):
            raise ValueError("defect vanished: alpha is rational")
        if bounds is not None:
            lo, hi = bounds
            if upper is None and (hi * r <= (2 * s) << P or lo * r > (2 * s) << P):
                upper = hi * r <= (2 * s) << P
            if lower is None and (lo * rM >= sM << P or hi * rM < sM << P):
                lower = lo * rM >= sM << P
        P *= 2
    return upper, lower


def corollary_pair(a: AlgebraicNumber, R: float) -> CorollaryPair:
    """A pair with l <= R and 1/R^M <= |k - l*alpha| <= 2/R.

    N is floor-adjusted so R-1 <= N <= R; the two-sided bounds are verified
    exactly before returning.
    """
    R = float(R)
    if not (R > 2 and math.isfinite(R)):
        raise ValueError("R must be a finite number > 2")
    N = int(math.floor(R))
    pair = dirichlet(a, N)
    M = liouville_constant(a).M
    upper_ok, lower_ok = _corollary_bounds(a, pair.k, pair.l, R, M)
    if not (pair.l <= R and upper_ok and lower_ok):
        raise AssertionError("combined pair violates its two-sided bounds")
    return CorollaryPair(pair.k, pair.l, pair.defect, pair.defect_log2, M, N)


def convergents(alpha, count: int) -> list:
    """The first ``count`` continued-fraction convergents (p, q); terminates
    early if the expansion is finite.  Each satisfies |alpha - p/q| < 1/q^2;
    ``alpha`` is any spec :func:`resolve_alpha` accepts."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    return _table(resolve_alpha(alpha)).first(count)

"""Properties of the integer Diophantine arithmetic against mpmath, which
stays a test oracle only.  Over random irreducible quadratics and cubics
with a positive real root, the certified convergents are the prefix of a
4,000-bit expansion; over random floats they are the exact expansion.  In
both, defects and their base-2 logarithms are the doubles nearest to
512-bit (or deeper) values.  pi and e agree with mpmath's constants for N
up to 2^1200."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from epsnet.numbertheory import AlgebraicNumber, convergents, dirichlet, resolve_alpha
from reference_numbertheory import (
    reference_convergents,
    reference_dirichlet,
    reference_provider,
)

#: the oracle expands at 4,000 bits and keeps the convergents with
#: l <= 2^1900, whose partial quotients that precision settles
ORACLE_PREC, ORACLE_LIMIT = 4000, 2**1900

SETTINGS = settings(max_examples=30, derandomize=True, deadline=None)


def _has_rational_root(coeffs) -> bool:
    """Whether an integer polynomial (ascending, c0 != 0) has a rational
    root: u/v with u | c0 and v | c_n."""
    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for u in divisors(coeffs[0]):
        for v in divisors(coeffs[-1]):
            for r in (Fraction(u, v), Fraction(-u, v)):
                if sum(c * r**i for i, c in enumerate(coeffs)) == 0:
                    return True
    return False


@st.composite
def algebraic_numbers(draw):
    """An irreducible quadratic or cubic with a positive real root, as an
    AlgebraicNumber seeded with that root's double."""
    degree = draw(st.sampled_from((2, 3)))
    coeffs = tuple(draw(st.integers(-12, 12)) for _ in range(degree + 1))
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    assume(not _has_rational_root(coeffs))  # degree <= 3: irreducible
    with mp.workprec(200):
        roots = [r.real for r in mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
                 if abs(r.imag) < mp.mpf(2) ** -150 and r.real > 0]
    assume(roots)
    root = float(roots[draw(st.integers(0, len(roots) - 1))])
    return AlgebraicNumber("a", coeffs, root)


def _expansion(alpha) -> list:
    return reference_convergents(reference_provider(alpha), ORACLE_PREC, ORACLE_LIMIT)


def _got(pair) -> tuple:
    return pair.k, pair.l, pair.defect, pair.defect_log2


@SETTINGS
@given(algebraic_numbers())
def test_algebraic_convergents_are_a_deep_expansions_prefix(a):
    expected = _expansion(a)
    assert len(expected) > 100
    assert convergents(a, len(expected)) == expected


@SETTINGS
@given(algebraic_numbers(), st.integers(1, 2**150))
def test_algebraic_defects_are_correctly_rounded(a, N):
    assert _got(dirichlet(a, N)) == reference_dirichlet(reference_provider(a), N)


positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(positive_floats, st.integers(1, 2**150))
def test_floats_expand_exactly_with_correctly_rounded_defects(x, N):
    assume(x > 0)
    alpha = resolve_alpha(x)
    expected = _expansion(alpha)
    n, d = x.as_integer_ratio()
    assert Fraction(*expected[-1]) == Fraction(n, d)  # the oracle ran to the end
    assert convergents(x, len(expected) + 5) == expected
    assert _got(dirichlet(x, N)) == reference_dirichlet(reference_provider(alpha), N)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(("pi", "e")), st.integers(1, 1200), st.integers(0, 2**64))
def test_pi_and_e_match_mpmath_up_to_two_to_the_1200(spec, bits, low):
    N = max(1, (1 << bits) - low)
    alpha = resolve_alpha(spec)
    assert _got(dirichlet(alpha, N)) == reference_dirichlet(reference_provider(alpha), N)


def test_pi_and_e_values_are_the_nearest_doubles():
    assert resolve_alpha("pi").value_float == math.pi
    assert resolve_alpha("e").value_float == math.e

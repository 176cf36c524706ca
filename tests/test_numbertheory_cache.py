"""The per-alpha convergent table and the memoized Newton roots and
Liouville data give exactly what the per-call forms in
``reference_numbertheory`` give, whatever calls came before, and their
caches stay bounded."""

import random

import pytest

from epsnet import numbertheory as nt
from epsnet.numbertheory import AlgebraicNumber, catalog, dirichlet, liouville_constant, resolve_alpha
from reference_numbertheory import reference_dirichlet, reference_liouville

SPECS = ("sqrt2", "sqrt3", "phi", "cbrt2", "pi", "e")
EXPONENTS = range(1, 321)  # N = 2^1 .. 2^320, the two-period range at p = 8


def _clear_caches():
    nt._cached_table.cache_clear()
    nt._newton_root.cache_clear()
    nt.liouville_constant.cache_clear()


@pytest.fixture(scope="module")
def oracle():
    out = {}
    for spec in SPECS:
        provider = resolve_alpha(spec)[0]
        for k in EXPONENTS:
            out[spec, k] = reference_dirichlet(provider, 2**k)
    return out


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_dirichlet_matches_a_fresh_expansion_per_call(oracle, order):
    calls = sorted(oracle, key=lambda key: key[1])
    if order == "descending":
        calls.reverse()
    elif order == "shuffled":
        random.Random(8).shuffle(calls)
    _clear_caches()
    for spec, k in calls:
        pair = dirichlet(spec, 2**k)
        assert (pair.k, pair.l, pair.defect) == oracle[spec, k], (spec, k)


def test_liouville_data_unchanged_for_the_catalog():
    _clear_caches()
    for name, a in catalog().items():
        assert liouville_constant(a) == reference_liouville(a), name


@pytest.mark.parametrize(
    "coeffs, seed",
    [
        ((1, -3, 0, 1), 0.34729635533386066),  # p'' = 6x has its root 0 inside the interval
        ((2, 0, -4, 0, 1), 0.7653668647301796),  # p'' = 12x^2 - 8, a root inside
        ((-2, 0, 0, 0, 1), 1.189207115002721),  # p'' = 12x^2, a double root at 0
        ((-3, 0, 0, 0, 0, 1), 1.2457309396155174),  # p'' = 20x^3, a triple root
    ],
)
def test_liouville_critical_points_from_polyroots(coeffs, seed):
    # numpy's roots are 53-bit and mpmath's 96-bit, so c may move in its
    # last bits; M, an integer, may not
    a = AlgebraicNumber("a", coeffs, seed)
    data, ref = liouville_constant(a), reference_liouville(a)
    assert data.M == ref.M
    assert data.c == pytest.approx(ref.c, rel=1e-12)


def test_float_alphas_match_the_reference_and_keep_the_caches_bounded():
    # a float is expanded exactly, as the rational it denotes; the reference
    # expands its mpf at the call's precision
    _clear_caches()
    rng = random.Random(11)
    for i in range(10_000):
        alpha = rng.choice((rng.uniform(0.01, 100.0), rng.uniform(1.0, 1e6)))
        N = 2 ** rng.randint(1, 64)
        pair = dirichlet(alpha, N)
        if i % 50 == 0:
            ref = reference_dirichlet(resolve_alpha(repr(alpha))[0], N)
            assert (pair.k, pair.l, pair.defect) == ref, (alpha, N)
    assert nt._cached_table.cache_info().currsize == nt._ALPHAS
    assert nt._newton_root.cache_info().currsize <= nt._ROOTS

"""The per-alpha convergent table and Newton root and the memoized
Liouville data give exactly what the per-call forms in
``reference_numbertheory`` give, whatever calls came before, and their
caches stay bounded; the combined pair's lower bound, checked without
logarithms, decides as the log form does."""

import random
from types import SimpleNamespace

import pytest

from epsnet import numbertheory as nt
from epsnet.colombeau import EpsilonGrid, Net
from epsnet.numbertheory import (
    AlgebraicNumber,
    catalog,
    corollary_pair,
    dirichlet,
    liouville_constant,
    resolve_alpha,
)
from epsnet.verify import two_period_constancy
from reference_numbertheory import (
    reference_corollary,
    reference_dirichlet,
    reference_liouville,
    reference_provider,
)

SPECS = ("sqrt2", "sqrt3", "phi", "cbrt2", "pi", "e")
EXPONENTS = range(1, 321)  # N = 2^1 .. 2^320, the two-period range at p = 8


def _clear_caches():
    nt._table.cache_clear()
    nt._root.cache_clear()
    nt.liouville_constant.cache_clear()


@pytest.fixture(scope="module")
def oracle():
    out = {}
    for spec in SPECS:
        provider = resolve_alpha(spec)
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


@pytest.fixture(scope="module")
def root_oracle():
    out = {}
    for name, a in catalog().items():
        provider = reference_provider(a)
        for k in EXPONENTS:
            out[name, k] = reference_dirichlet(provider, 2**k)
    return out


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_catalog_roots_match_a_newton_refinement_per_precision(root_oracle, order):
    # the oracle refines each root from its float seed at each call's
    # precision, so it shares no root with the package
    calls = sorted(root_oracle, key=lambda key: key[1])
    if order == "descending":
        calls.reverse()
    elif order == "shuffled":
        random.Random(16).shuffle(calls)
    _clear_caches()
    alphas = catalog()
    for name, k in calls:
        pair = dirichlet(alphas[name], 2**k)
        assert (pair.k, pair.l, pair.defect) == root_oracle[name, k], (name, k)
    if order == "descending":
        # far past every precision held so far
        for name, a in alphas.items():
            pair = dirichlet(a, 2**1200)
            ref = reference_dirichlet(reference_provider(a), 2**1200)
            assert (pair.k, pair.l, pair.defect) == ref, name


def test_a_two_period_job_refines_each_root_a_few_times(monkeypatch):
    # this job asks for sqrt2 at 168 distinct precisions
    refined = []
    newton = nt._newton

    def counting(coeffs, x, prec):
        refined.append(coeffs)
        return newton(coeffs, x, prec)

    _clear_caches()
    monkeypatch.setattr(nt, "_newton", counting)
    sqrt2 = catalog()["sqrt2"]
    f = Net.parse("3 + eps^(1/eps)*sin(x1)", 1)
    assert two_period_constancy(f, sqrt2, 6.0, 8, EpsilonGrid.dyadic()).verdict == "constant"
    assert 1 <= refined.count(sqrt2.coeffs) <= 6


#: R = 2.5, each decade 1e3..1e300, and the two-period values 2^(40q), q = 1..8
COROLLARY_RS = (2.5, *(10.0**d for d in range(3, 301)), *(2.0 ** (40 * q) for q in range(1, 9)))


def test_corollary_lower_bound_decides_as_the_log_form():
    _clear_caches()
    for name, a in catalog().items():
        M = reference_liouville(a).M
        for R in COROLLARY_RS:
            *ref, holds = reference_corollary(a, R, M)
            got = corollary_pair(a, R)
            assert holds and (got.k, got.l, got.defect, got.M, got.N) == tuple(ref), (name, R)


def test_corollary_lower_bound_fails_where_the_log_form_fails(monkeypatch):
    # a convergent's defect lies below 1/R, and for the catalog far above
    # 1/R^2; at M = 3/2 the bound fails for some small R
    monkeypatch.setattr(nt, "liouville_constant", lambda a: SimpleNamespace(M=1.5))
    outcomes = set()
    for name, a in catalog().items():
        for R in COROLLARY_RS[:39]:  # R = 2.5 .. 1e40
            *ref, holds = reference_corollary(a, R, 1.5)
            try:
                got = corollary_pair(a, R)
            except AssertionError:
                got = None
            assert (got is not None) == holds, (name, R)
            if got is not None:
                assert (got.k, got.l, got.defect, got.M, got.N) == tuple(ref), (name, R)
            outcomes.add(holds)
    assert outcomes == {True, False}


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
            ref = reference_dirichlet(resolve_alpha(repr(alpha)), N)
            assert (pair.k, pair.l, pair.defect) == ref, (alpha, N)
    assert nt._table.cache_info().currsize == nt._ALPHAS
    assert nt._root.cache_info().currsize <= nt._ALPHAS

"""The per-alpha convergent table and held floor and the memoized Liouville
data give exactly what the per-call mpmath forms in
``reference_numbertheory`` give, whatever calls came before, and their
caches stay bounded; the combined pair's bounds, decided on exact integer
bounds, decide as the log form does."""

import random
from types import SimpleNamespace

import pytest
from mpmath import mp

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
    reference_convergents,
    reference_corollary,
    reference_dirichlet,
    reference_liouville,
    reference_provider,
)

EXPONENTS = range(1, 321)  # N = 2^1 .. 2^320, the two-period range at p = 8


def _closed_form(constant):
    def value(prec):
        with mp.workprec(prec + 16):
            return constant()

    return value


#: alphas by spec, each with an mpmath closed form that shares nothing with
#: the package's minimal polynomials
CLOSED_FORMS = {
    "sqrt2": _closed_form(lambda: mp.sqrt(2)),
    "sqrt3": _closed_form(lambda: mp.sqrt(3)),
    "phi": _closed_form(lambda: +mp.phi),
    "cbrt2": _closed_form(lambda: mp.cbrt(2)),
    "pi": _closed_form(lambda: +mp.pi),
    "e": _closed_form(lambda: +mp.e),
}


def _clear_caches():
    nt._table.cache_clear()
    nt._floor.cache_clear()
    nt._isolate.cache_clear()
    nt.liouville_constant.cache_clear()


def _got(pair) -> tuple:
    return pair.k, pair.l, pair.defect, pair.defect_log2


@pytest.fixture(scope="module")
def oracle():
    return {(spec, k): reference_dirichlet(provider, 2**k)
            for spec, provider in CLOSED_FORMS.items() for k in EXPONENTS}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_dirichlet_matches_a_fresh_expansion_per_call(oracle, order):
    calls = sorted(oracle, key=lambda key: key[1])
    if order == "descending":
        calls.reverse()
    elif order == "shuffled":
        random.Random(8).shuffle(calls)
    _clear_caches()
    for spec, k in calls:
        assert _got(dirichlet(spec, 2**k)) == oracle[spec, k], (spec, k)


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
        assert _got(dirichlet(alphas[name], 2**k)) == root_oracle[name, k], (name, k)
    if order == "descending":
        # far past every precision held so far
        for name, a in alphas.items():
            ref = reference_dirichlet(reference_provider(a), 2**1200)
            assert _got(dirichlet(a, 2**1200)) == ref, name


def test_a_two_period_job_refines_each_root_a_few_times(monkeypatch):
    # this job draws sqrt2 pairs at 168 distinct bit lengths of N
    refined = []
    floor_at = AlgebraicNumber._floor_at

    def counting(self, P, held, floor):
        refined.append(self.coeffs)
        return floor_at(self, P, held, floor)

    _clear_caches()
    monkeypatch.setattr(AlgebraicNumber, "_floor_at", counting)
    sqrt2 = catalog()["sqrt2"]
    f = Net.parse("3 + eps^(1/eps)*sin(x1)", 1)
    assert two_period_constancy(f, sqrt2, 6.0, 8, EpsilonGrid.dyadic()).verdict == "constant"
    assert 1 <= refined.count(sqrt2.coeffs) <= 7


#: R = 2.5, each decade 1e3..1e300, and the two-period values 2^(40q), q = 1..8
COROLLARY_RS = (2.5, *(10.0**d for d in range(3, 301)), *(2.0 ** (40 * q) for q in range(1, 9)))


def test_corollary_lower_bound_decides_as_the_log_form():
    _clear_caches()
    for name, a in catalog().items():
        M = reference_liouville(a).M
        # one expansion per alpha, deep enough for R = 1e300
        pairs = reference_convergents(reference_provider(a), 4 * 1000 + 256, 10**301)
        for R in COROLLARY_RS:
            *ref, holds = reference_corollary(a, R, M, pairs)
            got = corollary_pair(a, R)
            assert holds and (got.k, got.l, got.defect, got.defect_log2, got.M, got.N) == tuple(ref), (name, R)


def test_corollary_lower_bound_fails_where_the_log_form_fails(monkeypatch):
    # a convergent's defect lies below 1/R, and for the catalog far above
    # 1/R^2; sqrt(10001) = [100; 200, 200, ...] has a defect near 1/200 for
    # every R < 200, so at M = 2 its bound fails for R < 14
    monkeypatch.setattr(nt, "liouville_constant", lambda a: SimpleNamespace(M=2))
    alphas = [*catalog().values(), AlgebraicNumber("s10001", (-10001, 0, 1), 10001**0.5)]
    outcomes = set()
    for a in alphas:
        for R in (*COROLLARY_RS[:39], 10.0, 13.0, 15.0, 199.0):  # R = 2.5 .. 1e40
            *ref, holds = reference_corollary(a, R, 2)
            try:
                got = corollary_pair(a, R)
            except AssertionError:
                got = None
            assert (got is not None) == holds, (a.name, R)
            if got is not None:
                assert (got.k, got.l, got.defect, got.defect_log2, got.M, got.N) == tuple(ref)
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
    # the package finds the critical points by a Sturm sequence, the oracle
    # by numpy's 53-bit roots, so c may move in its last bits; M, an
    # integer, may not
    a = AlgebraicNumber("a", coeffs, seed)
    data, ref = liouville_constant(a), reference_liouville(a)
    assert data.M == ref.M
    assert data.c == pytest.approx(ref.c, rel=1e-12)


def test_float_alphas_match_the_reference_and_keep_the_caches_bounded():
    # a float is expanded exactly, as the rational it denotes
    _clear_caches()
    rng = random.Random(11)
    for i in range(10_000):
        alpha = rng.choice((rng.uniform(0.01, 100.0), rng.uniform(1.0, 1e6)))
        N = 2 ** rng.randint(1, 64)
        pair = dirichlet(alpha, N)
        if i % 50 == 0:
            ref = reference_dirichlet(reference_provider(resolve_alpha(repr(alpha))), N)
            assert _got(pair) == ref, (alpha, N)
    assert nt._table.cache_info().currsize == nt._ALPHAS
    assert nt._floor.cache_info().currsize <= nt._ALPHAS

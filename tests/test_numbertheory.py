import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from epsnet import numbertheory as nt
from epsnet.numbertheory import (
    AlgebraicNumber,
    RealAlpha,
    catalog,
    convergents,
    corollary_pair,
    dirichlet,
    liouville_constant,
    resolve_alpha,
)
from reference_numbertheory import reference_provider, reference_root

CAT = catalog()


def _value(alpha, prec: int):
    """alpha's mpmath value at ``prec`` bits, from the reference oracle."""
    return reference_provider(resolve_alpha(alpha))(prec)


class TestAlgebraicNumber:
    def test_catalog_roots(self):
        # the polynomial changes sign across the bounds: the root lies in them
        for name, a in CAT.items():
            lo, hi = a.bounds(100)
            assert hi == lo + 1
            at = [sum(c * Fraction(x, 2**100) ** i for i, c in enumerate(a.coeffs)) for x in (lo, hi)]
            assert at[0] * at[1] < 0, name
            with mp.workprec(120):
                assert lo <= reference_root(a.coeffs, a.seed, 120) * 2**100 <= hi, name

    def test_degrees(self):
        assert CAT["sqrt2"].degree == 2
        assert CAT["phi"].degree == 2
        assert CAT["cbrt2"].degree == 3

    def test_rejects_linear(self):
        with pytest.raises(ValueError):
            AlgebraicNumber("half", (-1, 2), 0.5)

    def test_rejects_bogus_seed(self):
        with pytest.raises(ValueError):
            AlgebraicNumber("x", (-2, 0, 1), 3.0)

    def test_user_supplied(self):
        a = AlgebraicNumber("sqrt7", (-7, 0, 1), 2.6457513110645907)
        assert a.value_float == math.sqrt(7)


#: 100x^2 - 310x + 239, irreducible (discriminant 500), has its two roots
#: 1.55 -+ sqrt(5)/20, about 1.4382 and 1.6618, in one unit interval
TWO_ROOTS = (239, -310, 100)


class TestIsolation:
    @pytest.mark.parametrize("sign, expected", [
        (-1, [(1, 1), (3, 2), (10, 7), (13, 9), (23, 16), (128, 89), (2839, 1974)]),
        (1, [(1, 1), (2, 1), (3, 2), (5, 3), (113, 68), (570, 343), (683, 411)]),
    ])
    def test_each_seed_resolves_to_its_own_root(self, sign, expected):
        seed = (310 + sign * math.sqrt(500)) / 200
        a = AlgebraicNumber("q", TWO_ROOTS, seed)
        assert convergents(a, len(expected)) == expected
        assert a.value_float == seed
        lo, hi, _ = nt._isolate(a.coeffs, seed)
        assert nt._roots_in(nt._sturm(a.coeffs), lo, hi) == 1
        assert hi < 1.55 if sign < 0 else lo > 1.55

    def test_a_seed_between_the_roots_is_rejected(self):
        with pytest.raises(ValueError, match="not close to a root"):
            AlgebraicNumber("q", TWO_ROOTS, 1.55)

    def test_a_seed_near_two_roots_is_rejected(self):
        # m^2+m-1 x^2 - (2m+1) x + 1 has discriminant 5 and roots
        # ((2m+1) -+ sqrt5) / (2(m^2+m-1)), 2.2e-8 apart for m = 10^4; the
        # polynomial is 1.25e-8 from zero between them, so the seed passes
        # the residual check but not the isolation
        m = 10**4
        lead = m * m + m - 1
        with pytest.raises(ValueError, match="does not isolate a root: 2 roots"):
            AlgebraicNumber("close", (1, -(2 * m + 1), lead), (2 * m + 1) / (2 * lead))

    def test_a_rational_root_is_rejected(self):
        # (x^2 - 2)(3x - 1): the seed 1/3 finds the rational root
        with pytest.raises(ValueError, match="rational"):
            AlgebraicNumber("r", (2, -6, -1, 3), 1 / 3)

    def test_the_seed_check_is_scale_free(self):
        # the double nearest sqrt2 leaves p(seed) = 2.7e-4 on 10^12 (x^2 - 2),
        # whose root it is as much as it is one of x^2 - 2
        a = AlgebraicNumber("s", (-2 * 10**12, 0, 10**12), math.sqrt(2.0))
        assert a.value_float == math.sqrt(2.0)
        assert convergents(a, 6) == convergents(CAT["sqrt2"], 6)
        b = AlgebraicNumber("s", (-2, 0, 10**12), math.sqrt(2e-12))  # x scaled by 10^6
        assert b.value_float == math.sqrt(2e-12)

    def test_a_seed_far_from_every_root_is_still_rejected(self):
        with pytest.raises(ValueError, match="not close to a root"):
            AlgebraicNumber("x", (-2, 0, 1), 3.0)
        with pytest.raises(ValueError, match="not close to a root"):
            AlgebraicNumber("x", (-2 * 10**12, 0, 10**12), 3.0)

    def test_a_double_root_is_rejected(self):
        with pytest.raises(ValueError, match="not simple"):
            AlgebraicNumber("d", (4, 0, -4, 0, 1), math.sqrt(2.0))


class TestDirichlet:
    def test_sqrt2_n5(self):
        pair = dirichlet(CAT["sqrt2"], 5)
        assert (pair.k, pair.l) == (7, 5)
        assert pair.defect == pytest.approx(0.07106781186547524, rel=1e-12)
        assert pair.defect <= 0.2

    def test_pi_n7(self):
        pair = dirichlet("pi", 7)
        assert (pair.k, pair.l) == (22, 7)
        assert pair.defect == pytest.approx(0.008851424871447331, rel=1e-9)

    def test_sqrt2_n1(self):
        pair = dirichlet(CAT["sqrt2"], 1)
        assert (pair.k, pair.l) == (1, 1)
        assert pair.defect == pytest.approx(math.sqrt(2) - 1, rel=1e-12)

    def test_theorem_bounds_random(self):
        rng = random.Random(77)
        alphas = [CAT["sqrt2"], CAT["sqrt3"], CAT["phi"], CAT["cbrt2"], "pi", "e"]
        for _ in range(60):
            alpha = rng.choice(alphas)
            N = rng.randint(1, 10_000)
            pair = dirichlet(alpha, N)
            assert 0 < pair.l <= N
            with mp.workprec(120):
                assert abs(pair.k - pair.l * _value(alpha, 120)) <= mpf(1) / N + mpf(10) ** -25

    def test_matches_brute_force_oracle(self):
        # minimal |k - l*alpha| over every l <= L_MAX, with k the nearest
        # integer, in extended precision; the running minimum over l is the
        # minimal-defect pair for every N <= L_MAX
        L_MAX = 10_000
        rng = random.Random(5)
        Ns = sorted({*range(1, 41), *(rng.randint(41, L_MAX) for _ in range(40)), L_MAX})
        for spec in ("sqrt2", "phi", "cbrt2", "cbrt3", "pi", "e"):
            with mp.workprec(200):
                alpha = _value(spec, 200)
                best = []
                for l in range(1, L_MAX + 1):
                    k = int(mp.nint(l * alpha))
                    defect = abs(k - l * alpha)
                    if not best or defect < best[-1][2]:
                        best.append((k, l, defect))
                    else:
                        best.append(best[-1])
            for N in Ns:
                k, l, defect = best[N - 1]
                pair = dirichlet(spec, N)
                assert (pair.k, pair.l) == (k, l), (spec, N)
                assert pair.defect == float(defect), (spec, N)

    def test_rational_half_tie_returns_the_convergent(self):
        # |1 - 1.5| == |2 - 1.5|: the continued fraction 1 + 1/2 stops at 1/1
        pair = dirichlet("1.5", 1)
        assert (pair.k, pair.l) == (1, 1)
        assert pair.defect == 0.5
        assert pair.defect_log2 == -1.0

    def test_large_n_via_convergents(self):
        N = 10**8
        pair = dirichlet(CAT["sqrt2"], N)
        assert 0 < pair.l <= N
        with mp.workprec(200):
            assert abs(pair.k - pair.l * _value("sqrt2", 200)) <= mpf(1) / N
        assert pair.defect <= 1 / N


class TestLiouville:
    def test_sqrt2(self):
        data = liouville_constant(CAT["sqrt2"])
        # sup |2t| on [sqrt2-1, sqrt2+1] is 2(sqrt2+1)
        assert data.c == pytest.approx(1.0 / (2.0 * (math.sqrt(2) + 1.0)), rel=1e-12)
        assert data.c == pytest.approx(0.2071, abs=1e-4)
        assert data.M == 4
        assert data.c * 2.0 ** (data.M - 1) >= 1.0

    def test_phi(self):
        data = liouville_constant(CAT["phi"])
        phi = (1 + math.sqrt(5)) / 2
        assert data.c == pytest.approx(1.0 / (2.0 * phi + 1.0), rel=1e-12)
        assert data.M == 4
        assert data.c * 2.0 ** (data.M - 1) >= 1.0

    def test_cbrt2(self):
        data = liouville_constant(CAT["cbrt2"])
        cbrt2 = 2.0 ** (1.0 / 3.0)
        assert data.c == pytest.approx(1.0 / (3.0 * (cbrt2 + 1.0) ** 2), rel=1e-12)
        assert data.M == 7
        assert data.c * 2.0 ** (data.M - 2) >= 1.0

    def test_bound_holds_exhaustively(self):
        # |alpha - k/l| >= c / l^n for all l up to the desk bound
        limit = 2000
        for name, a in CAT.items():
            data = liouville_constant(a)
            alpha = np.longdouble(mp.nstr(reference_root(a.coeffs, a.seed, 120), 30))
            ls = np.arange(1, limit + 1, dtype=np.longdouble)
            ks = np.rint(ls * alpha)
            lhs = np.abs(alpha - ks / ls)
            rhs = np.longdouble(data.c) / ls ** a.degree
            assert np.all(lhs >= rhs), name


class TestCorollaryPair:
    def test_sqrt2_r10(self):
        res = corollary_pair(CAT["sqrt2"], 10.0)
        assert (res.k, res.l) == (7, 5)
        assert 1e-4 <= res.defect <= 0.2

    def test_sqrt2_r100(self):
        res = corollary_pair(CAT["sqrt2"], 100.0)
        assert res.l <= 100
        assert 1e-8 <= res.defect <= 0.02
        # oracle: brute-force scan confirms at least one valid pair
        alpha = CAT["sqrt2"].value_float
        ls = np.arange(1, 101)
        defects = np.abs(np.round(ls * alpha) - ls * alpha)
        assert np.any((defects >= 1e-8) & (defects <= 0.02))

    def test_phi_r4(self):
        res = corollary_pair(CAT["phi"], 4.0)
        assert (res.k, res.l) == (5, 3)
        assert res.defect == pytest.approx(0.1458980337503155, rel=1e-10)
        assert 1.0 / 256.0 <= res.defect <= 0.5

    def test_bounds_across_scales(self):
        for name in ("sqrt2", "phi", "cbrt2"):
            a = CAT[name]
            for R in (3.0, 10.0, 100.0):
                res = corollary_pair(a, R)
                assert res.l <= R
                with mp.workprec(160):
                    defect = abs(res.k - res.l * _value(name, 160))
                    assert res.defect == float(defect)
                    assert defect <= mpf(2) / mpf(R)
                    assert mp.log(defect) >= -res.M * mp.log(mpf(R))

    def test_rejects_small_R(self):
        for R in (2.0, math.inf):
            with pytest.raises(ValueError, match="R must be a finite number > 2"):
                corollary_pair(CAT["sqrt2"], R)


class TestConvergents:
    def test_sqrt2(self):
        assert convergents(CAT["sqrt2"], 4) == [(1, 1), (3, 2), (7, 5), (17, 12)]

    def test_pi(self):
        assert convergents("pi", 3) == [(3, 1), (22, 7), (333, 106)]

    def test_integer_terminates(self):
        assert convergents(2.0, 5) == [(2, 1)]

    def test_quality_bound(self):
        for alpha in (CAT["sqrt2"], CAT["cbrt2"], "pi"):
            with mp.workprec(400):
                value = _value(alpha, 400)
                for p, q in convergents(alpha, 12):
                    assert abs(value - mpf(p) / q) < mpf(1) / (q * q)

    def test_agree_with_dirichlet(self):
        for alpha in (CAT["sqrt2"], CAT["phi"], "pi"):
            for p, q in convergents(alpha, 8):
                pair = dirichlet(alpha, q)
                with mp.workprec(200):
                    conv_defect = abs(p - q * _value(alpha, 200))
                    assert pair.defect <= conv_defect + mpf(10) ** -15


class TestResolveAlpha:
    def test_names(self):
        alpha = resolve_alpha("sqrt2")
        assert alpha.name == "sqrt2" and alpha == CAT["sqrt2"]
        alpha = resolve_alpha("pi")
        assert alpha.name == "pi" and isinstance(alpha, RealAlpha)
        assert alpha.value_float == math.pi
        assert resolve_alpha("e").value_float == math.e

    def test_numeric(self):
        alpha = resolve_alpha("1.5")
        assert alpha.name == "1.5" and isinstance(alpha, RealAlpha) and alpha.value_float == 1.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_alpha("-1.0")


#: the accepted forms of one alpha: a catalog name and its AlgebraicNumber, a
#: transcendental's name and its RealAlpha, and a float as a float, as a
#: numeric string and as its RealAlpha
ALPHA_FORMS = {
    "sqrt2": ("sqrt2", CAT["sqrt2"]),
    "pi": ("pi", RealAlpha("pi")),
    "1.5": (1.5, "1.5", RealAlpha(1.5)),
}


class TestAlphaForms:
    @pytest.mark.parametrize("value", sorted(ALPHA_FORMS))
    def test_every_form_gives_the_same_pairs(self, value):
        forms = ALPHA_FORMS[value]
        for N in (1, 7, 1000, 10**12):
            pairs = {(p.k, p.l, p.defect) for p in (dirichlet(a, N) for a in forms)}
            assert len(pairs) == 1, (value, N)
        assert len({tuple(convergents(a, 6)) for a in forms}) == 1

    @pytest.mark.parametrize("value", sorted(ALPHA_FORMS))
    def test_every_form_gives_the_same_exploration(self, value):
        from epsnet.colombeau import EpsilonGrid, Net
        from epsnet.verify import open_question_explorer

        net, grid = Net.parse("2 + eps^(1/eps)*sin(x1)", 1), EpsilonGrid.dyadic(4, 12)
        reports = [open_question_explorer(a, net, 6.0, 2, grid, samples=9)
                   for a in ALPHA_FORMS[value]]
        assert all(r == reports[0] for r in reports[1:])

    def test_a_bare_callable_is_rejected(self):
        from epsnet.colombeau import EpsilonGrid, Net
        from epsnet.verify import open_question_explorer

        def sqrt2(prec):
            with mp.workprec(prec):
                return mp.sqrt(2)

        with pytest.raises(ValueError):
            dirichlet(sqrt2, 10)
        with pytest.raises(ValueError):
            convergents(sqrt2, 3)
        with pytest.raises(ValueError):
            open_question_explorer(sqrt2, Net.parse("2", 1), 6.0, 1, EpsilonGrid.dyadic(4, 8))

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

from epsnet import expr as ex
from epsnet.cli import run
from epsnet.colombeau import CompactBox, EpsilonGrid, Net, classify
from epsnet.groups import GroupElement, planar_flow
from epsnet.numbertheory import catalog, resolve_alpha
from epsnet.report import plain_json
from epsnet.sampling import random_proper_lorentz, random_special_orthogonal
from epsnet.verify import (
    CBoundednessError,
    chain_bound,
    check_invariance,
    check_periodicity,
    lorentz_invariance_pipeline,
    one_param_theorem_harness,
    open_question_explorer,
    rotation_invariance_pipeline,
    translation_constancy,
    two_period_constancy,
)

GRID = EpsilonGrid.dyadic()
BOX2 = CompactBox.cube(-1.0, 1.0, 2)
PI_LIT = "3.141592653589793"
RADIAL = Net.parse("exp(-(x1^2+x2^2))", 2)
NEGLIGIBLE = "exp(ln(eps)/eps)"
GEN_ANGLE = Net.parse("sin(1/eps)", 0)


class TestCheckInvariance:
    def test_radial_under_generalized_rotation(self):
        g = GroupElement.rotation(2, 1, 2, GEN_ANGLE)
        rep = check_invariance(RADIAL, g, BOX2, GRID, p=8)
        assert rep.invariant
        assert rep.asymptotic.negligible_order >= 8

    def test_radial_plus_negligible(self):
        # oracle: the perturbation alone classifies as negligible at order 8
        pert = Net.parse(f"{NEGLIGIBLE}*x1", 2)
        assert classify(pert, BOX2, max_order=0, grid=GRID).negligible_order >= 8
        f = Net.parse(f"exp(-(x1^2+x2^2)) + {NEGLIGIBLE}*x1", 2)
        g = GroupElement.rotation(2, 1, 2, GEN_ANGLE)
        rep = check_invariance(f, g, BOX2, GRID, p=8)
        assert rep.invariant

    def test_coordinate_is_not_invariant(self):
        f = Net.parse("x1", 2)
        g = GroupElement.rotation(2, 1, 2, math.pi / 2)
        rep = check_invariance(f, g, BOX2, GRID, p=1)
        assert not rep.invariant
        # the deviation stays O(1) along the whole grid
        sups = [s for _, s in rep.asymptotic.sups]
        assert min(sups) > 1.0

    @pytest.mark.parametrize("p", [0, -1])
    def test_order_below_one_is_rejected(self, p):
        # at p = 0 the bound eps^p is 1, so an O(1) deviation once passed
        f = Net.parse("x1", 1)
        g = GroupElement.translation(1, (1.0,))
        with pytest.raises(ValueError, match="order p must be >= 1"):
            check_invariance(f, g, CompactBox.cube(-1.0, 1.0, 1), GRID, p=p)
        with pytest.raises(ValueError, match="order p must be >= 1"):
            translation_constancy(Net.parse("sin(x1)", 1), CompactBox.cube(-1.0, 1.0, 1), GRID,
                                  p=p, h_samples=())

    def test_strict_c_boundedness_raises(self):
        f = Net.parse("x1", 1)
        g = GroupElement(1, (ex.parse("x1/eps", 1),))
        with pytest.raises(CBoundednessError):
            check_invariance(f, g, CompactBox.cube(-1, 1, 1), GRID, p=1, strict=True)
        with pytest.warns(RuntimeWarning):
            check_invariance(f, g, CompactBox.cube(-1, 1, 1), GRID, p=1, strict=False)

    def test_verdict_implies_order(self):
        g = GroupElement.rotation(2, 1, 2, 0.3)
        rep = check_invariance(RADIAL, g, BOX2, GRID, p=5)
        assert rep.invariant
        assert rep.asymptotic.negligible_order >= 5

    def test_order_discrimination_for_small_structured_deviation(self):
        # translating by eps^2 moves x1 by exactly eps^2: invariant at order 2
        # but not at order 3 (the coarse grid is where this is measurable)
        f = Net.parse("x1", 1)
        g = GroupElement.translation(1, (Net.parse("eps^2", 0),))
        box = CompactBox.cube(-1.0, 1.0, 1)
        assert check_invariance(f, g, box, GRID, p=2).invariant
        assert not check_invariance(f, g, box, GRID, p=3).invariant


class TestOneParam:
    def test_radial_rotation_flow(self):
        rep = one_param_theorem_harness(
            RADIAL,
            planar_flow("rotation", 2, 1, 2),
            gen_thetas=(Net.parse("2+sin(1/eps)", 0),),
            box=BOX2,
            grid=GRID,
            p=6,
        )
        assert not rep.hypothesis_failed
        assert rep.verdict

    def test_boost_flow_on_form_function(self):
        rep = one_param_theorem_harness(
            Net.parse("x1^2-x2^2", 2),
            planar_flow("boost", 2, 1, 2),
            gen_thetas=(Net.parse("1+eps", 0),),
            box=BOX2,
            grid=GRID,
            p=6,
        )
        assert not rep.hypothesis_failed
        assert rep.verdict

    def test_hypothesis_failure_detected(self):
        # oracle: at theta=pi/4 the image of (1,0) maps x1*x2 to 1/2 != 0
        f = Net.parse("x1*x2", 2)
        g = GroupElement.rotation(2, 1, 2, math.pi / 4)
        moved = g.apply_points((1.0, 0.0))
        assert abs(moved[0] * moved[1] - 0.0) > 0.4
        rep = one_param_theorem_harness(
            f, planar_flow("rotation", 2, 1, 2), real_thetas=(math.pi / 4,), box=BOX2, grid=GRID, p=2
        )
        assert rep.hypothesis_failed
        assert not rep.verdict

    def test_empty_hypothesis_is_rejected(self):
        # with no real theta the hypothesis held vacuously: x1 read as invariant;
        # an empty iterator is read before it is judged empty
        for real_thetas in ((), iter(())):
            with pytest.raises(ValueError, match="at least one real theta"):
                one_param_theorem_harness(Net.parse("x1", 2), planar_flow("rotation", 2, 1, 2),
                                          real_thetas=real_thetas, box=BOX2, grid=GRID, p=2)

    def test_unbounded_generalized_theta_rejected(self):
        with pytest.raises(ValueError, match="bounded"):
            one_param_theorem_harness(
                RADIAL,
                planar_flow("rotation", 2, 1, 2),
                gen_thetas=(Net.parse("1/eps", 0),),
                box=BOX2,
                grid=GRID,
                p=2,
            )


class TestRotationPipeline:
    def test_radial_with_net_valued_rotation(self):
        c = Net.parse("cos(sin(1/eps))", 0)
        s = Net.parse("sin(sin(1/eps))", 0)
        ms = Net.parse("-sin(sin(1/eps))", 0)
        rep = rotation_invariance_pipeline(RADIAL, [[c, ms], [s, c]], BOX2, GRID, p=6)
        assert rep.verdict and rep.consistent

    def test_radial_noise_so3(self):
        # oracle: the noise term alone is negligible at order 6
        noise = Net.parse(f"{NEGLIGIBLE}*x1", 3)
        box3 = CompactBox.cube(-1, 1, 3, samples_per_axis=9)
        assert classify(noise, box3, max_order=0, grid=GRID).negligible_order >= 6
        f = Net.parse(f"exp(-(x1^2+x2^2+x3^2)) + {NEGLIGIBLE}*x1", 3)
        M = random_special_orthogonal(random.Random(31), 3)
        rep = rotation_invariance_pipeline(f, M, box3, GRID, p=6)
        assert rep.verdict and rep.consistent

    def test_coordinate_rejected(self):
        f = Net.parse("x1", 2)
        M = random_special_orthogonal(random.Random(8), 2)
        rep = rotation_invariance_pipeline(f, M, BOX2, GRID, p=1)
        assert not rep.verdict and rep.consistent

    def test_verdict_consistency_across_corpus(self):
        rng = random.Random(100)
        corpus = [
            (RADIAL, 2),
            (Net.parse("x1+x2", 2), 2),
            (Net.parse("exp(-(x1^2+x2^2+x3^2))", 3), 3),
            (Net.parse("x1*x2", 2), 2),
        ]
        for f, d in corpus:
            box = CompactBox.cube(-1, 1, d, samples_per_axis=9)
            M = random_special_orthogonal(rng, d)
            rep = rotation_invariance_pipeline(f, M, box, GRID, p=4)
            assert rep.consistent

    def test_factorization_of_its_own_kind_only(self):
        from epsnet.decompose import givens_decompose, lorentz_decompose

        M = random_special_orthogonal(random.Random(8), 2)
        f = Net.parse("x1", 2)
        direct = rotation_invariance_pipeline(f, M, BOX2, GRID, p=1).to_json_dict()
        assert rotation_invariance_pipeline(f, givens_decompose(M), BOX2, GRID, p=1).to_json_dict() == direct
        with pytest.raises(TypeError, match="rotation pipeline cannot run a LorentzFactorization"):
            rotation_invariance_pipeline(f, lorentz_decompose(np.eye(2)), BOX2, GRID, p=1)


class TestLorentzPipeline:
    def test_form_function_invariant(self):
        # oracle: direct pointwise comparison at a few eps
        f = Net.parse("exp(-(x1^2-x2^2-x3^2)^2)", 3)
        box = CompactBox.cube(-1, 1, 3, samples_per_axis=9)
        L = random_proper_lorentz(random.Random(12), 3)
        X = box.lattice()
        for eps in (0.5, 2.0**-10):
            a = ex.eval_points(f.body, eps, X)
            b = ex.eval_points(f.body, eps, X @ L.T)
            assert np.max(np.abs(a - b)) <= 1e-10
        rep = lorentz_invariance_pipeline(f, L, box, GRID, p=6)
        assert rep.verdict and rep.consistent

    def test_form_plus_negligible(self):
        f = Net.parse(f"exp(-(x1^2-x2^2-x3^2)^2) + {NEGLIGIBLE}", 3)
        box = CompactBox.cube(-1, 1, 3, samples_per_axis=9)
        L = random_proper_lorentz(random.Random(13), 3)
        rep = lorentz_invariance_pipeline(f, L, box, GRID, p=8)
        assert rep.verdict

    def test_time_coordinate_rejected(self):
        from epsnet.decompose import boost_matrix

        f = Net.parse("x1", 3)
        box = CompactBox.cube(-1, 1, 3, samples_per_axis=9)
        rep = lorentz_invariance_pipeline(f, boost_matrix(3, 0.7), box, GRID, p=1)
        assert not rep.verdict and rep.consistent

    def test_net_valued_lorentz(self):
        ch = Net.parse("cosh(1+eps)", 0)
        sh = Net.parse("sinh(1+eps)", 0)
        zero = Net.parse("0", 0)
        one = Net.parse("1", 0)
        L = [[ch, sh, zero], [sh, ch, zero], [zero, zero, one]]
        f = Net.parse("exp(-(x1^2-x2^2-x3^2)^2)", 3)
        box = CompactBox.cube(-1, 1, 3, samples_per_axis=9)
        rep = lorentz_invariance_pipeline(f, L, box, GRID, p=6)
        assert rep.verdict and rep.consistent

    def test_factorization_of_its_own_kind_only(self):
        from epsnet.decompose import boost_matrix, givens_decompose, lorentz_decompose

        f = Net.parse("x1", 3)
        box = CompactBox.cube(-1, 1, 3, samples_per_axis=9)
        L = boost_matrix(3, 0.7)
        direct = lorentz_invariance_pipeline(f, L, box, GRID, p=1).to_json_dict()
        assert lorentz_invariance_pipeline(f, lorentz_decompose(L), box, GRID, p=1).to_json_dict() == direct
        with pytest.raises(TypeError, match="lorentz pipeline cannot run a RotationSchedule"):
            lorentz_invariance_pipeline(f, givens_decompose(np.eye(3)), box, GRID, p=1)


class TestPeriodicity:
    BOX = CompactBox.cube(-3.0, 3.0, 1)

    def test_exact_period(self):
        f = Net.parse(f"sin(2*{PI_LIT}*x1)", 1)
        rep = check_periodicity(f, 1.0, self.BOX, GRID, p=6)
        assert rep.invariant
        assert max(s for _, s in rep.asymptotic.sups) <= 1e-12

    def test_wrong_period(self):
        # oracle: direct scan shows an O(1) deviation
        f = Net.parse(f"sin(2*{PI_LIT}*x1)", 1)
        xs = np.linspace(-3, 3 - math.sqrt(2), 5001)
        dev = np.max(
            np.abs(np.sin(2 * np.pi * (xs + math.sqrt(2))) - np.sin(2 * np.pi * xs))
        )
        assert dev > 1.0
        rep = check_periodicity(f, math.sqrt(2), self.BOX, GRID, p=1)
        assert not rep.invariant

    def test_constant_plus_negligible_any_period(self):
        f = Net.parse(f"7 + {NEGLIGIBLE}*sin(x1)", 1)
        for h in (0.3, 1.0, math.sqrt(2)):
            rep = check_periodicity(f, h, self.BOX, GRID, p=8)
            assert rep.invariant


class TestChainBound:
    def test_constant_function(self):
        rep = chain_bound(Net.parse("5", 1), 0.5, 0.0, 20.0, 1.0, math.sqrt(2), 0.0, [(2, 1), (3, 2)])
        assert rep.all_certified and rep.eps == 0.5
        for pr in rep.pairs:
            assert pr.measured == 0.0 and pr.certified == 0.0

    def test_drifting_sine(self):
        # oracle: numpy's evaluation of both sides of the chained bound
        f = Net.parse(f"sin(2*{PI_LIT}*x1)+0.001*x1", 1)

        def g(x):
            return np.sin(2 * np.pi * x) + 0.001 * x

        a, b, h1, h2 = 0.0, 20.0, 1.0, math.sqrt(2)
        xs = np.linspace(a, b - h2, 40001)
        tol = float(
            max(
                np.max(np.abs(g(xs[xs + h1 <= b] + h1) - g(xs[xs + h1 <= b]))),
                np.max(np.abs(g(xs + h2) - g(xs))),
            )
        )
        rep = chain_bound(f, 0.5, a, b, h1, h2, tol, [(3, 2)])
        pr = rep.pairs[0]
        assert pr.measured <= 5 * tol
        assert pr.certified == pytest.approx(5 * tol)
        assert rep.all_certified and pr.path_ok
        # the audited path stays inside the interval
        assert all(a - 1e-9 <= pt <= b + 1e-9 for pt in pr.path)

    def test_endpoint_violation_flagged(self):
        rep = chain_bound(Net.parse("0", 1), 0.5, 0.0, 10.0, 1.0, math.sqrt(2), 0.0, [(9, 1)])
        assert rep.pairs[0].hypothesis_violated
        assert rep.pairs[0].excluded_points > 0
        # the points it did test meet the bound, but the pair's hypothesis fails
        assert rep.pairs[0].measured == 0.0 and not rep.all_certified

    def test_a_pair_with_nothing_tested_certifies_nothing(self):
        # every endpoint x + 30 - sqrt(2) leaves [0, 10]
        rep = chain_bound(Net.parse("x1", 1), 0.5, 0.0, 10.0, 1.0, math.sqrt(2), 0.0, [(30, 1)])
        assert rep.pairs[0].measured is None and rep.pairs[0].tested_points == 0
        assert rep.all_certified is False

    def test_domain_error_names_a_point(self):
        # ln is undefined on part of [-5, 20]: no NaN reaches the report
        with pytest.raises(ex.EvalError, match="ln of non-positive value") as info:
            chain_bound(Net.parse("ln(x1)", 1), 1e-3, -5.0, 20.0, 1.0, math.sqrt(2), 1e-3, [(1, 1)])
        assert info.value.point is not None and info.value.point[0] <= 0.0

    def test_nets_of_another_dimension_are_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            chain_bound(Net.parse("x1+x2", 2), 0.5, 0.0, 20.0, 1.0, math.sqrt(2), 0.0, [(1, 1)])


class TestTwoPeriod:
    SQRT2 = catalog()["sqrt2"]

    def test_constant_plus_negligible(self):
        f = Net.parse(f"7 + {NEGLIGIBLE}*sin(x1)", 1)
        rep = two_period_constancy(f, self.SQRT2, 6.0, 4, GRID)
        assert rep.verdict == "constant"
        assert rep.eps0 is not None
        assert all(row.measured <= row.certified for row in rep.evidence)
        assert all(row.bounds_ok for row in rep.evidence)

    def test_sine_not_applicable(self):
        f = Net.parse(f"sin(2*{PI_LIT}*x1)", 1)
        rep = two_period_constancy(f, self.SQRT2, 6.0, 4, GRID)
        assert rep.verdict == "not-applicable"
        assert rep.failing_period == pytest.approx(math.sqrt(2))

    def test_literal_constant(self):
        rep = two_period_constancy(Net.parse("4.5", 1), self.SQRT2, 6.0, 4, GRID)
        assert rep.verdict == "constant"
        assert all(row.measured == 0.0 for row in rep.evidence)

    def test_diophantine_side_conditions(self):
        f = Net.parse("2", 1)
        rep = two_period_constancy(f, self.SQRT2, 6.0, 3, GRID)
        # eps^(M p) <= h_eps <= 2 eps^p and k <= (alpha+1)/eps^p, encoded in bounds_ok
        assert rep.evidence and all(row.bounds_ok for row in rep.evidence)

    def test_each_distinct_R_draws_its_pair_once(self, monkeypatch):
        # R = eps^-q repeats across orders on a dyadic grid: at p = 8, 164 of
        # the 296 evidence rows have an R no earlier row had
        from epsnet import numbertheory

        calls = []
        pair = numbertheory.corollary_pair
        monkeypatch.setattr(numbertheory, "corollary_pair", lambda a, R: calls.append(R) or pair(a, R))
        f = Net.parse(f"3 + {NEGLIGIBLE}*sin(x1)", 1)
        rep = two_period_constancy(f, self.SQRT2, 6.0, 8, GRID)
        rows = sum(len(GRID) - GRID.values.index(c.eps0) for c in rep.per_order)
        assert (rows, len(calls)) == (296, 164)
        assert len(set(calls)) == len(calls)
        for row in rep.evidence:
            want = pair(self.SQRT2, row.eps**-8)
            assert (row.k, row.l, row.h_log2) == (want.k, want.l, want.defect_log2)

    def test_requires_radius(self):
        with pytest.raises(ValueError, match="radius"):
            two_period_constancy(Net.parse("1", 1), self.SQRT2, 3.0, 2, GRID)

    @pytest.mark.parametrize("p, samples, message", [(0, 129, "order p"), (-2, 129, "order p"),
                                                     (2, 0, "2 samples"), (2, 1, "2 samples")])
    def test_two_period_harnesses_reject_order_and_samples(self, p, samples, message):
        # p < 1 once gave "constant" from an empty per-order list
        f = Net.parse("1", 1)
        with pytest.raises(ValueError, match=message):
            two_period_constancy(f, self.SQRT2, 5.0, p, GRID, samples=samples)
        with pytest.raises(ValueError, match=message):
            open_question_explorer(resolve_alpha("pi"), f, 7.0, p, GRID, samples=samples)

    def test_two_period_harnesses_reject_an_order_whose_R_overflows(self):
        # R = eps^-p is a double: at the finest eps 2^-512, p = 1 is the largest order
        f = Net.parse("1", 1)
        grid = EpsilonGrid((2.0**-256, 2.0**-512))
        assert two_period_constancy(f, self.SQRT2, 5.0, 1, grid, samples=9).verdict == "constant"
        assert open_question_explorer(resolve_alpha("pi"), f, 7.0, 1, grid, samples=9).applicable
        with pytest.raises(ValueError, match="largest p on this grid is 1"):
            two_period_constancy(f, self.SQRT2, 5.0, 2, grid, samples=9)
        with pytest.raises(ValueError, match="largest p on this grid is 1"):
            open_question_explorer(resolve_alpha("pi"), f, 7.0, 2, grid, samples=9)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_two_period_harnesses_reject_a_non_finite_radius(self, radius):
        f = Net.parse("1", 1)
        with pytest.raises(ValueError, match="radius"):
            two_period_constancy(f, self.SQRT2, radius, 2, GRID)
        with pytest.raises(ValueError, match="radius"):
            open_question_explorer(resolve_alpha("pi"), f, radius, 2, GRID)


class TestTranslation:
    BOX = CompactBox.cube(-2.0, 2.0, 1)

    def test_plain_constant(self):
        rep = translation_constancy(Net.parse("3+eps*0", 1), self.BOX, GRID, p=4)
        assert rep.verdict and not rep.hypothesis_failed

    def test_generalized_constant_plus_negligible(self):
        # oracle: the negligible part classifies at order 8
        noise = Net.parse(f"{NEGLIGIBLE}*cos(x1)", 1)
        assert classify(noise, self.BOX, max_order=1, grid=GRID).negligible_order >= 8
        f = Net.parse(f"sin(1/eps) + {NEGLIGIBLE}*cos(x1)", 1)
        rep = translation_constancy(f, self.BOX, GRID, p=8)
        assert not rep.hypothesis_failed
        assert rep.verdict

    def test_coordinate_fails_hypothesis(self):
        rep = translation_constancy(Net.parse("x1", 1), self.BOX, GRID, p=2)
        assert rep.hypothesis_failed and not rep.verdict

    def test_2d(self):
        f = Net.parse("1.5+0*x1+0*x2", 2)
        rep = translation_constancy(
            f, CompactBox.cube(-1, 1, 2), GRID, p=3, h_samples=((0.5, 0.5), (1.0, -1.0))
        )
        assert rep.verdict

    def test_default_offsets_fit_the_dimension(self, tmp_path):
        # the library and the CLI sample (0.5, ..., 0.5) and (1, ..., 1)
        f, dim = "3+eps^6*sin(x1)*x2", "2"
        rep = translation_constancy(Net.parse(f, 2), CompactBox.cube(-1, 1, 2, 5), EpsilonGrid.dyadic(4, 8), 1)
        assert [h for h, _ in rep.hypothesis] == [(0.5, 0.5), (1.0, 1.0)]
        out = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            run(["--out", str(out), "translation", "--f", f, "--dim", dim, "--samples", "5",
                 "--k-min", "4", "--k-max", "8", "--p", "1"])
        assert json.loads(out.read_text())["evidence"] == json.loads(json.dumps(plain_json(rep)))

    def test_empty_hypothesis_is_rejected(self):
        # with no translation sampled the hypothesis held vacuously
        for h_samples in ((), iter(())):
            with pytest.raises(ValueError, match="at least one translation"):
                translation_constancy(Net.parse("3+eps*sin(x1)", 1), self.BOX, GRID, p=2,
                                      h_samples=h_samples)


class TestExplorer:
    def test_constant_plus_negligible_with_pi(self):
        provider = resolve_alpha("pi")
        f = Net.parse(f"7 + {NEGLIGIBLE}*sin(x1)", 1)
        rep = open_question_explorer(provider, f, 6.0, 3, EpsilonGrid.dyadic(4, 24))
        assert rep.applicable
        assert not rep.theorem_grade
        assert rep.effective_M is not None and rep.effective_M < 4
        assert all(row.measured == 0.0 for row in rep.rows)

    def test_sine_flagged_not_applicable(self):
        provider = resolve_alpha("pi")
        f = Net.parse(f"sin(2*{PI_LIT}*x1)", 1)
        rep = open_question_explorer(provider, f, 6.0, 3, EpsilonGrid.dyadic(4, 24))
        assert not rep.applicable
        assert rep.failing_period is not None

    def test_constant_with_e(self):
        provider = resolve_alpha("e")
        rep = open_question_explorer(provider, Net.parse("2", 1), 6.0, 3, EpsilonGrid.dyadic(4, 24))
        assert rep.applicable
        assert all(row.measured == 0.0 for row in rep.rows)

    def test_report_is_labeled_non_theorem(self):
        provider = resolve_alpha("pi")
        rep = open_question_explorer(provider, Net.parse("2", 1), 6.0, 2, EpsilonGrid.dyadic(4, 16))
        data = rep.to_json_dict()
        assert data["theorem_grade"] is False
        assert "no theorem" in data["note"]

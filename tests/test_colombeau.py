import json
import math

import numpy as np
import pytest

from epsnet import expr as ex
from epsnet.colombeau import (
    CompactBox,
    EpsilonGrid,
    Net,
    classify,
    image_bound_check,
    is_bounded_generalized_number,
    is_c_bounded,
    seminorm,
)
from epsnet.groups import GroupElement


GRID = EpsilonGrid.dyadic()
BOX1 = CompactBox.cube(-1.0, 1.0, 1)


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            EpsilonGrid((0.5, 0.5))
        with pytest.raises(ValueError):
            EpsilonGrid((1.5, 0.5))
        g = EpsilonGrid.dyadic(4, 40)
        assert len(g) == 37 and g.values[0] == 2.0**-4

    def test_box_validation(self):
        with pytest.raises(ValueError):
            CompactBox(((1.0, 0.0),))
        with pytest.raises(ValueError):
            CompactBox(((0.0, 1.0),), samples_per_axis=1)
        box = CompactBox.cube(-1, 1, 2, 5)
        assert box.lattice().shape == (25, 2)

    def test_net_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            Net(ex.parse("x2", 2), 1)
        Net.parse("eps*x1", 1)  # fine

    def test_scalar_net_value(self):
        theta = Net.parse("2+sin(1/eps)", 0)
        assert theta.value_at(0.25) == pytest.approx(2 + math.sin(4.0), rel=1e-15)

    def test_tabulated_net(self):
        t = Net.tabulated(((0.5, 1.0), (0.25, 2.0)))
        assert t.dimension == 0 and ex.variables(t.body) == {"eps"}
        assert t.value_at(0.25) == 2.0
        with pytest.raises(ex.EvalError, match="eps=0.1"):
            t.value_at(0.1)
        with pytest.raises(ValueError, match="strictly decreasing"):
            Net.tabulated(((0.25, 1.0), (0.5, 2.0)))
        # constant in space, no eps-derivative, untouched by substitution
        assert ex.partial(t.body, 1) == ex.Const(0.0)
        with pytest.raises(ValueError):
            ex.partial(t.body, "eps")
        assert ex.subst(t.body, {"eps": ex.Const(0.5)}) is t.body
        assert str(t) == "table[2]"


class TestSeminorm:
    def test_eps_sin_sup(self):
        # oracle: dense scan with 1e5 points
        f = Net.parse("eps*sin(x1)", 1)
        dense = np.linspace(-1, 1, 100001)[:, None]
        oracle = float(np.max(np.abs(ex.eval_points(f.body, 0.25, dense))))
        got = seminorm(f, BOX1, (0,), 0.25)
        assert abs(got - oracle) <= 0.01 * oracle
        # lattice includes the endpoints, so this one is exact
        assert got == pytest.approx(0.25 * math.sin(1.0), rel=1e-14)

    def test_constant_derivative(self):
        f = Net.parse("x1", 1)
        box = CompactBox(((-2.0, 3.0),))
        assert seminorm(f, box, (1,), 0.7) == 1.0

    def test_gaussian_peak(self):
        f = Net.parse("exp(-(x1^2))", 1)
        assert seminorm(f, BOX1, (0,), 0.3) == 1.0

    def test_monotone_in_box_on_nested_lattices(self):
        # the lattice of the inner box is a subset of the outer one
        f = Net.parse("sin(3*x1)+x1^2", 1)
        inner = CompactBox(((-1.0, 1.0),), samples_per_axis=33)
        outer = CompactBox(((-2.0, 2.0),), samples_per_axis=65)
        inner_pts = set(np.round(inner.lattice()[:, 0], 12))
        outer_pts = set(np.round(outer.lattice()[:, 0], 12))
        assert inner_pts <= outer_pts
        for alpha in ((0,), (1,)):
            assert seminorm(f, inner, alpha, 0.5) <= seminorm(f, outer, alpha, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            seminorm(Net.parse("x1", 1), CompactBox.cube(-1, 1, 2), (0, 0), 0.5)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="exceeds maximum"):
            seminorm(Net.parse("x1", 1), BOX1, (5,), 0.5)
        seminorm(Net.parse("x1", 1), BOX1, (5,), 0.5, max_order=5)


class TestClassify:
    def test_linear_decay(self):
        rep = classify(Net.parse("eps*sin(x1)", 1), BOX1, max_order=2, grid=GRID)
        assert rep.moderate
        assert rep.fitted_exponent == pytest.approx(1.0, abs=0.1)
        assert rep.negligible_order == 1

    def test_negligible_net(self):
        rep = classify(Net.parse("exp(ln(eps)/eps)*sin(x1)", 1), BOX1, max_order=2, grid=GRID)
        assert rep.negligible_order == 8
        assert rep.moderate

    def test_oscillatory_derivative_growth(self):
        rep = classify(Net.parse("sin(x1/eps)", 1), BOX1, max_order=1, grid=GRID)
        assert rep.moderate
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.1)
        slopes = dict(rep.per_alpha)
        assert slopes[(1,)] == pytest.approx(-1.0, abs=0.1)

    def test_overflowing_net_is_not_moderate(self):
        # the second net overflows to sin(inf) = NaN: a NaN sup is non-finite,
        # not zero
        for text in ("exp(1/eps)+0*x1", "sin(exp(1/eps))*x1"):
            rep = classify(Net.parse(text, 1), BOX1, max_order=0, grid=GRID)
            assert not rep.moderate, text
            assert rep.negligible_order == 0, text
            assert not rep.bounded, text

    def test_scalar_net_classify(self):
        rep = classify(Net.parse("eps", 0), CompactBox((), samples_per_axis=2), max_order=0, grid=GRID)
        assert rep.fitted_exponent == pytest.approx(1.0, abs=1e-9)

    def test_monotone_verdicts_on_finest_quarter(self):
        for text in ("eps*sin(x1)", "eps^2*cos(x1)", "exp(ln(eps)/eps)*sin(x1)"):
            rep = classify(Net.parse(text, 1), BOX1, max_order=1, grid=GRID)
            p = rep.negligible_order
            quarter = rep.sups[len(rep.sups) - math.ceil(len(rep.sups) / 4):]
            for q in range(1, p + 1):
                assert all(s <= e**q for e, s in quarter)

    def test_scaling_shifts_exponent(self):
        for base, expo in (("sin(x1)", 0.0), ("sin(x1/eps)", -1.0)):
            ref = classify(Net.parse(base, 1), BOX1, max_order=1, grid=GRID).fitted_exponent
            assert ref == pytest.approx(expo, abs=0.1)
            for m in (1, 2, 3):
                scaled = classify(Net.parse(f"eps^{m}*{base}", 1), BOX1, max_order=1, grid=GRID)
                assert scaled.fitted_exponent == pytest.approx(ref + m, abs=0.1)

    def test_all_zero_sups_sentinel(self):
        rep = classify(Net.parse("0*x1", 1), BOX1, max_order=1, grid=GRID)
        assert math.isinf(rep.fitted_exponent)
        assert rep.negligible_order == 8
        assert rep.bounded and rep.moderate

    def test_json_shape(self):
        rep = classify(Net.parse("eps*sin(x1)", 1), BOX1, max_order=0, grid=GRID)
        data = rep.to_json_dict()
        assert set(data) == {"sups", "fitted_exponent", "moderate", "negligible_order", "bounded"}
        json.dumps(data)  # serializable
        inf = classify(Net.parse("0*x1", 1), BOX1, max_order=0, grid=GRID).to_json_dict()
        assert inf["fitted_exponent"] == "inf"

    def test_negligible_implies_moderate_invariant(self):
        for text in ("eps*sin(x1)", "exp(ln(eps)/eps)*sin(x1)", "sin(x1/eps)", "exp(1/eps)+0*x1"):
            rep = classify(Net.parse(text, 1), BOX1, max_order=1, grid=GRID)
            if rep.negligible_order >= 1:
                assert rep.moderate

    def test_negative_max_order_is_rejected(self):
        with pytest.raises(ValueError, match="max_order"):
            classify(Net.parse("x1", 1), BOX1, max_order=-1, grid=GRID)


class TestBoundedGeneralizedNumber:
    def test_oscillating_bounded(self):
        assert is_bounded_generalized_number(Net.parse("2+sin(1/eps)", 0), GRID)

    def test_unbounded(self):
        assert not is_bounded_generalized_number(Net.parse("1/eps", 0), GRID)

    def test_eps_itself(self):
        assert is_bounded_generalized_number(Net.parse("eps", 0), GRID)

    def test_tabulated(self):
        t = Net.tabulated((e, math.sin(1 / e)) for e in GRID)
        assert is_bounded_generalized_number(t, GRID)


def _coords(*texts):
    return GroupElement.from_coords(len(texts), tuple(ex.parse(t, len(texts)) for t in texts))


class TestCBounded:
    def test_rotation_net_is_c_bounded(self):
        g = GroupElement.rotation(2, 1, 2, Net.parse("sin(1/eps)", 0))
        ok, witness = is_c_bounded(g, CompactBox.cube(-1, 1, 2), GRID)
        assert ok
        r = math.sqrt(2) + 1e-9
        assert CompactBox(((-r, r), (-r, r))).contains_box(witness)

    def test_expanding_net_is_not(self):
        ok, witness = is_c_bounded(_coords("x1/eps"), BOX1, GRID)
        assert not ok and witness is None

    def test_identity(self):
        ok, witness = is_c_bounded(GroupElement.identity(1), BOX1, GRID)
        assert ok
        assert witness.intervals == ((-1.0, 1.0),)

    def test_drifting_translation_is_not(self):
        g = GroupElement.translation(1, (Net.parse("1/eps", 0),))
        ok, _ = is_c_bounded(g, BOX1, GRID)
        assert not ok

    @pytest.mark.parametrize(
        "g",
        [
            GroupElement.rotation(2, 1, 2, 0.3),
            GroupElement.boost(2, 1, 2, -1.7),
            GroupElement.from_matrix([[2.0, 1.0], [0.5, -3.0]]),
            _coords("x1^3 - x2", "exp(x1)*x2 + 4"),
            _coords("exp(exp(50*x1))", "x2"),
        ],
        ids=["rotation", "boost", "matrix", "coords", "overflow"],
    )
    def test_eps_free_image_taken_once_matches_full_grid(self, g):
        # oracle: the image bound over every grid eps, as for an eps-dependent map
        box = CompactBox.cube(-1, 1, 2, samples_per_axis=9)
        lattice = box.lattice()
        calls = []

        def sample(eps):
            calls.append(eps)
            return g.apply_points(lattice, eps)

        assert not g.is_generalized
        want_ok, want_box = image_bound_check(sample, GRID)
        got_ok, got_box = is_c_bounded(g, box, GRID)
        assert got_ok == want_ok
        assert got_box == want_box
        assert len(calls) == (len(GRID) if want_ok else 1)

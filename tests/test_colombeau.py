import json
import math

import numpy as np
import pytest

from epsnet import expr as ex
from epsnet.colombeau import (
    CompactBox,
    EpsilonGrid,
    SLOPE_TOL,
    Net,
    classify,
    fit_decay_exponent,
    is_bounded_generalized_number,
    is_c_bounded,
    report_from_sups,
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

    @pytest.mark.parametrize("make", [lambda: EpsilonGrid((0.5,)), lambda: EpsilonGrid(()),
                                      lambda: EpsilonGrid.dyadic(5, 5)])
    def test_grid_needs_two_values(self, make):
        # a decay exponent fitted to one value reads 0, a verdict from nothing
        with pytest.raises(ValueError, match="two"):
            make()

    def test_negligibility_needs_an_order(self):
        grid = EpsilonGrid.dyadic(4, 8)
        with pytest.raises(ValueError, match="p_max must be >= 1, got 0"):
            report_from_sups(grid, [0.0] * len(grid), p_max=0)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            CompactBox(((1.0, 0.0),))
        with pytest.raises(ValueError):
            CompactBox(((0.0, 1.0),), samples_per_axis=1)
        box = CompactBox.cube(-1, 1, 2, 5)
        assert box.lattice().shape == (25, 2)

    def test_lattice_is_built_once_and_read_only(self):
        box = CompactBox(((-1.0, 1.0), (0.0, 2.0)), 5)
        X = box.lattice()
        assert box.lattice() is X
        mesh = np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 5), indexing="ij")
        np.testing.assert_array_equal(X, np.stack([m.reshape(-1) for m in mesh], axis=1))
        with pytest.raises(ValueError):
            X[0, 0] = 7.0
        with pytest.raises(ValueError):
            CompactBox((), 5).lattice()[...] = 1.0

    def test_shared_lattice_leaves_sups_and_reports_unchanged(self, monkeypatch):
        from epsnet.verify import rotation_invariance_pipeline

        net = Net.parse("exp(-x1^2-x2^2)*cos(eps*x1*x2)", 2)
        box = CompactBox.cube(-1.0, 1.0, 2, 9)
        c = math.cos(0.3)
        s = math.sin(0.3)

        def reports():
            grid = EpsilonGrid.dyadic(4, 12)
            return (
                classify(net, box, max_order=2, grid=grid).to_json_dict(),
                rotation_invariance_pipeline(net, [[c, -s], [s, c]], box, grid).to_json_dict(),
            )

        shared = reports()
        fresh_lattice = CompactBox.lattice
        monkeypatch.setattr(
            CompactBox, "lattice",
            lambda self: np.array(fresh_lattice(CompactBox(self.intervals, self.samples_per_axis))),
        )
        assert json.dumps(reports(), sort_keys=True) == json.dumps(shared, sort_keys=True)

    def test_net_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            Net(ex.parse("x2", 2), 1)
        Net.parse("eps*x1", 1)  # fine

    def test_scalar_net_value(self):
        theta = Net.parse("2+sin(1/eps)", 0)
        assert ex.evaluate(theta.body, 0.25) == pytest.approx(2 + math.sin(4.0), rel=1e-15)

    def test_tabulated_net(self):
        t = Net.tabulated(((0.5, 1.0), (0.25, 2.0)))
        assert t.dimension == 0 and ex.variables(t.body) == {"eps"}
        assert ex.evaluate(t.body, 0.25) == 2.0
        with pytest.raises(ex.EvalError, match="eps=0.1"):
            ex.evaluate(t.body, 0.1)
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
            GroupElement.rotation(2, 1, 2, Net.tabulated((e, 1.0 / e) for e in GRID)),
        ],
        ids=["rotation", "boost", "matrix", "coords", "overflow", "table"],
    )
    def test_eps_free_image_taken_once_matches_full_grid(self, g):
        # oracle: the images eps by eps, each at its own eps, and the growth
        # rule written out over their per-axis sups
        box = CompactBox.cube(-1, 1, 2, samples_per_axis=9)
        images = [g.apply_points(box.lattice(), eps) for eps in GRID]
        sups = np.array([np.max(np.abs(Y), axis=0) for Y in images])
        got_ok, got_box = is_c_bounded(g, box, GRID)
        if not np.isfinite(sups).all():
            assert not got_ok and got_box is None
            return
        radii = sups.max(axis=1)
        slope = fit_decay_exponent(tuple(zip(GRID.values, radii)))
        swing = math.sqrt(2) * (1.0 + 1e-9)
        grows = slope < -SLOPE_TOL and radii[-1] > swing * radii[radii > 0].min()
        assert got_ok == (not grows)
        if got_ok:
            m = sups.max(axis=0).tolist()
            assert got_box == CompactBox(tuple((-r, r) for r in m))
            lo = np.min([Y.min(axis=0) for Y in images], axis=0).tolist()
            hi = np.max([Y.max(axis=0) for Y in images], axis=0).tolist()
            assert got_box.contains_box(CompactBox(tuple(zip(lo, hi))), tol=0.0)
        else:
            assert got_box is None


SHORT_GRID = EpsilonGrid.dyadic(3, 5)


class TestSustainedGrowth:
    """Growth is a sustained rise: an isometry's image radius swings between
    1 and sqrt(2) on a short grid without counting as growth."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("grid", [SHORT_GRID, GRID], ids=["k3-5", "default"])
    def test_rotation_by_inverse_eps_is_c_bounded(self, d, grid):
        g = GroupElement.rotation(d, 1, 2, Net.parse("1/eps", 0))
        ok, witness = is_c_bounded(g, CompactBox.cube(-1, 1, d), grid)
        assert ok
        r = math.sqrt(2) + 1e-9
        assert CompactBox(((-r, r),) * d).contains_box(witness)

    @pytest.mark.parametrize("grid", [SHORT_GRID, GRID], ids=["k3-5", "default"])
    @pytest.mark.parametrize(
        "g",
        [
            GroupElement.translation(2, (Net.parse("1/eps", 0), 0.0)),
            GroupElement.boost(2, 1, 2, Net.parse("1/eps", 0)),
            GroupElement.boost(2, 1, 2, Net.parse("ln(1/eps)", 0)),
            _coords("x1/eps", "x2"),
        ],
        ids=["translation", "boost", "log-boost", "expanding"],
    )
    def test_growing_controls_are_not_c_bounded(self, g, grid):
        ok, witness = is_c_bounded(g, CompactBox.cube(-1, 1, 2), grid)
        assert not ok and witness is None

    @pytest.mark.parametrize("grid", [SHORT_GRID, GRID], ids=["k3-5", "default"])
    def test_inverse_eps_is_not_a_bounded_number(self, grid):
        assert not is_bounded_generalized_number(Net.parse("1/eps", 0), grid)

    @pytest.mark.parametrize("grid", [SHORT_GRID, GRID], ids=["k3-5", "default"])
    def test_slow_scalar_power_still_grows(self, grid):
        # a scalar has no swing to tolerate: eps^-0.15 rises by 1.23 on k 3..5
        assert not is_bounded_generalized_number(Net.parse("eps^(-0.15)", 0), grid)
        assert not classify(Net.parse("eps^(-0.15)+0*x1", 1), BOX1, 0, grid).bounded

    def test_slow_drift_within_the_swing_passes_only_on_a_short_grid(self):
        # the limit of a short grid: a drift by eps^-0.2 lifts the image radius
        # by 1.19 < sqrt(2) on k 3..5, no more than a rotation may swing it
        g = GroupElement.translation(2, (Net.parse("eps^(-0.2)", 0), 0.0))
        box = CompactBox.cube(-1, 1, 2)
        assert is_c_bounded(g, box, SHORT_GRID)[0]
        assert not is_c_bounded(g, box, GRID)[0]


class _CountingProgram(ex._Program):
    built = 0

    def __init__(self, roots):
        type(self).built += 1
        super().__init__(roots)


@pytest.mark.parametrize("grid", [SHORT_GRID, GRID], ids=["k3-5", "default"])
@pytest.mark.parametrize(
    "check",
    [
        lambda grid: is_c_bounded(
            GroupElement.rotation(2, 1, 2, Net.parse("sin(1/eps)", 0)), CompactBox.cube(-1, 1, 2), grid
        ),
        lambda grid: is_c_bounded(GroupElement.rotation(2, 1, 2, 0.3), CompactBox.cube(-1, 1, 2), grid),
        lambda grid: is_bounded_generalized_number(Net.parse("2+sin(1/eps)", 0), grid),
    ],
    ids=["c-bounded", "c-bounded-eps-free", "bounded-number"],
)
def test_grid_checks_compile_one_program(monkeypatch, check, grid):
    monkeypatch.setattr(ex, "_Program", _CountingProgram)
    monkeypatch.setattr(_CountingProgram, "built", 0)
    check(grid)
    assert _CountingProgram.built == 1

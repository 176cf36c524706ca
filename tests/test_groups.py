import json
import math

import numpy as np
import pytest

from epsnet import expr as ex
from epsnet.colombeau import CompactBox, EpsilonGrid, Net
from epsnet.groups import (
    CoordinateFlow,
    GroupElement,
    PlanarFactor,
    Translation,
    compose_net,
    element_from_json,
    group_law_check,
    planar_flow,
)

GRID = EpsilonGrid.dyadic(4, 24)
BOX2 = CompactBox.cube(-2.0, 2.0, 2, samples_per_axis=17)


class TestApply:
    def test_quarter_turn(self):
        g = GroupElement.rotation(2, 1, 2, math.pi / 2)
        out = g.apply_points((1.0, 0.0))
        assert np.allclose(out, (0.0, 1.0), atol=1e-12)

    def test_boost(self):
        # oracle: scalar cosh/sinh of the rapidity
        g = GroupElement.boost(2, 1, 2, 0.5)
        out = g.apply_points((1.0, 0.0))
        assert out[0] == pytest.approx(math.cosh(0.5), rel=1e-15)
        assert out[1] == pytest.approx(math.sinh(0.5), rel=1e-15)
        assert np.allclose(out, (1.1276259652063807, 0.5210953054937474), atol=1e-9)

    def test_translation(self):
        g = GroupElement.translation(2, (1.0, -2.0))
        assert np.allclose(g.apply_points((0.0, 0.0)), (1.0, -2.0))

    def test_factor_order_right_to_left(self):
        rot = PlanarFactor("rotation", 1, 2, math.pi / 2)
        tr = Translation((1.0, 0.0))
        # rotate then translate
        g1 = GroupElement.from_factors(2, (tr, rot))
        assert np.allclose(g1.apply_points((1.0, 0.0)), (1.0, 1.0), atol=1e-12)
        # translate then rotate
        g2 = GroupElement.from_factors(2, (rot, tr))
        assert np.allclose(g2.apply_points((1.0, 0.0)), (0.0, 2.0), atol=1e-12)

    def test_generalized_angle_requires_eps(self):
        g = GroupElement.rotation(2, 1, 2, Net.parse("sin(1/eps)", 0))
        with pytest.raises(ValueError, match="eps"):
            g.apply_points((1.0, 0.0))
        out = g.apply_points((1.0, 0.0), eps=0.25)
        th = math.sin(4.0)
        assert np.allclose(out, (math.cos(th), math.sin(th)), atol=1e-14)

    def test_dimension_mismatch(self):
        g = GroupElement.rotation(2, 1, 2, 0.3)
        with pytest.raises(ValueError):
            g.apply_points((1.0, 0.0, 0.0))

    def test_matrix_element(self):
        M = [[0.0, -1.0], [1.0, 0.0]]
        g = GroupElement.from_matrix(M)
        assert np.allclose(g.apply_points((1.0, 0.0)), (0.0, 1.0))

    @pytest.mark.parametrize(
        "g, special",
        [
            (GroupElement.rotation(2, 1, 2, Net.parse("sin(1/eps)", 0)), None),
            (GroupElement.translation(2, (Net.parse("exp(1/eps)", 0), 0.0)), np.isinf),
            (GroupElement.from_matrix([[2.0, 1.0], [0.5, -3.0]]), None),
            (GroupElement.from_coords(
                2, (ex.parse("exp(x1/eps) - exp(x1/eps)", 2), ex.parse("x2 + 1/eps", 2))
            ), np.isnan),
        ],
        ids=["rotation", "overflowing-translation", "matrix", "nan"],
    )
    def test_grid_sups_match_per_eps_images_bit_for_bit(self, g, special):
        X = BOX2.lattice()
        got = g.apply_points(X, GRID.values, sup=True)
        assert got.shape == (len(GRID), 2)
        for k, eps in enumerate(GRID):
            want = np.max(np.abs(g.apply_points(X, eps)), axis=0)
            assert got[k].tobytes() == want.tobytes()
        assert np.isfinite(got).all() if special is None else special(got).any()

    def test_sup_goes_with_a_sequence_of_eps_only(self):
        g = GroupElement.rotation(2, 1, 2, Net.parse("eps", 0))
        X = BOX2.lattice()
        for eps, sup in ((0.3, True), (None, True), (GRID.values, False)):
            with pytest.raises(ValueError, match="sequence of eps"):
                g.apply_points(X, eps, sup=sup)

    def test_grid_sups_name_the_first_failing_coordinate(self):
        # x2's sqrt fails from 2^-6 on, x1's ln only from 2^-10: the error is
        # that of the first coordinate to fail, as a loop over them would meet
        g = GroupElement.from_coords(
            2, (ex.parse("x1+0*ln(eps-2^-10)", 2), ex.parse("x2+0*sqrt(eps-2^-5)", 2))
        )
        with pytest.raises(ex.EvalError) as info:
            g.apply_points(BOX2.lattice(), GRID.values, sup=True)
        assert (info.value.reason, info.value.eps, info.value.root) == ("ln of non-positive value", 2**-10, 0)

    def test_composition_with_a_map_matches_pointwise_application(self):
        # g o v evaluated symbolically equals g applied to the points v(X)
        g = GroupElement.rotation(2, 1, 2, 0.5)
        v = GroupElement.from_coords(2, (ex.parse("x1+1", 2), ex.parse("x2^2", 2)))
        X = np.array([[0.3, -0.7], [1.2, 0.4]])
        want = g.apply_points(v.apply_points(X))
        assert np.allclose(g.compose(v).apply_points(X), want, atol=1e-14)


class TestComposeNet:
    def test_radial_invariance(self):
        f = Net.parse("exp(-(x1^2+x2^2))", 2)
        for theta in (0.3, 1.2, Net.parse("sin(1/eps)", 0)):
            g = GroupElement.rotation(2, 1, 2, theta)
            h = compose_net(f, g)
            X = BOX2.lattice()
            for eps in (0.5, 0.0625):
                a = ex.eval_points(f.body, eps, X)
                b = ex.eval_points(h.body, eps, X)
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_translation_substitution(self):
        f = Net.parse("x1", 1)
        g = GroupElement.translation(1, (0.75,))
        h = compose_net(f, g)
        assert ex.evaluate(h.body, 0.5, (1.0,)) == 1.75

    def test_boost_preserves_form_function(self):
        f = Net.parse("x1^2 - x2^2", 2)
        g = GroupElement.boost(2, 1, 2, 0.7)
        h = compose_net(f, g)
        X = BOX2.lattice()
        a = ex.eval_points(f.body, 0.5, X)
        b = ex.eval_points(h.body, 0.5, X)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_tabulated_angle_composes(self):
        t = Net.tabulated((e, math.sin(1 / e)) for e in GRID)
        g = GroupElement.rotation(2, 1, 2, t)
        h = compose_net(Net.parse("x1", 2), g)
        X = BOX2.lattice()
        for eps in GRID:
            want = g.apply_points(X, eps)[:, 0]
            assert np.max(np.abs(ex.eval_points(h.body, eps, X) - want)) <= 1e-12
        with pytest.raises(ex.EvalError, match="not a grid point"):
            ex.eval_points(h.body, 0.3, X)

    def test_associativity_with_composition(self):
        f = Net.parse("x1^2+2*x2", 2)
        g = GroupElement.rotation(2, 1, 2, 0.4)
        h = GroupElement.boost(2, 1, 2, 0.2)
        lhs = compose_net(compose_net(f, g), h)
        rhs = compose_net(f, g.compose(h))
        X = BOX2.lattice()
        a = ex.eval_points(lhs.body, 0.5, X)
        b = ex.eval_points(rhs.body, 0.5, X)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestGroupLaw:
    def test_identity_angles(self):
        assert group_law_check("rotation", 1, 2, 0.0, 0.0, BOX2) == 0.0

    def test_rotation_addition(self):
        # oracle: matrix product of the two factors
        dev = group_law_check("rotation", 1, 2, 0.3, 0.4, BOX2)
        assert dev <= 1e-12
        m = PlanarFactor("rotation", 1, 2, 0.7).matrix(2)
        m2 = PlanarFactor("rotation", 1, 2, 0.3).matrix(2) @ PlanarFactor("rotation", 1, 2, 0.4).matrix(2)
        assert np.max(np.abs(m - m2)) <= 1e-12

    def test_boost_inverse_law(self):
        dev = group_law_check("boost", 1, 2, 1.0, -1.0, BOX2)
        assert dev <= 1e-12


class TestInvariants:
    def test_rotations_preserve_norm(self):
        X = CompactBox.cube(-3.0, 3.0, 2, samples_per_axis=9).lattice()
        for theta in np.linspace(-math.pi, math.pi, 21):
            g = GroupElement.rotation(2, 1, 2, float(theta))
            Y = g.apply_points(X)
            nx = np.linalg.norm(X, axis=1)
            ny = np.linalg.norm(Y, axis=1)
            assert np.all(np.abs(nx - ny) <= 1e-12 * (1 + nx))

    def test_boosts_preserve_signed_form(self):
        X = CompactBox.cube(-3.0, 3.0, 2, samples_per_axis=9).lattice()
        for theta in np.linspace(-3.0, 3.0, 13):
            g = GroupElement.boost(2, 1, 2, float(theta))
            Y = g.apply_points(X)
            qx = X[:, 0] ** 2 - X[:, 1] ** 2
            qy = Y[:, 0] ** 2 - Y[:, 1] ** 2
            norms = np.sum(X**2, axis=1)
            assert np.all(np.abs(qx - qy) <= 1e-10 * (1 + norms))

    def test_group_axioms_sampled(self):
        X = CompactBox.cube(-2.0, 2.0, 2, samples_per_axis=7).lattice()
        for kind, thetas in (("rotation", (0.3, -1.1)), ("boost", (0.5, -0.2))):
            flow = planar_flow(kind, 2, 1, 2)
            for t1 in thetas:
                idf = flow(0.0)
                assert np.max(np.abs(idf.apply_points(X) - X)) <= 1e-10
                g = flow(t1)
                ginv = flow(-t1)
                assert np.max(np.abs(ginv.apply_points(g.apply_points(X)) - X)) <= 1e-10
                for t2 in thetas:
                    assert group_law_check(kind, 1, 2, t1, t2, BOX2) <= 1e-10


class TestSerialization:
    def test_factor_roundtrip(self):
        g = GroupElement.from_factors(
            2,
            (
                PlanarFactor("rotation", 1, 2, 0.5),
                PlanarFactor("boost", 1, 2, Net.parse("1+eps", 0)),
                Translation((0.5, -1.0)),
            ),
        )
        data = json.loads(json.dumps(g.to_json_dict()))
        g2 = element_from_json(data)
        X = BOX2.lattice()
        assert np.allclose(g.apply_points(X, 0.25), g2.apply_points(X, 0.25), atol=1e-14)

    def test_matrix_roundtrip(self):
        g = GroupElement.from_matrix([[0.0, 1.0], [-1.0, 0.0]])
        data = json.loads(json.dumps(g.to_json_dict()))
        g2 = element_from_json(data)
        assert g2.to_json_dict() == data == {"matrix": [["0", "1"], ["-1", "0"]], "dimension": 2}
        X = BOX2.lattice()
        assert np.array_equal(g.apply_points(X), g2.apply_points(X))
        assert np.array_equal(g.apply_points(X), X @ np.array([[0.0, 1.0], [-1.0, 0.0]]).T)


class TestCoordinateFlow:
    def test_rotation_as_custom_flow(self):
        flow = CoordinateFlow.parse(
            ("cos(theta)*x1 - sin(theta)*x2", "sin(theta)*x1 + cos(theta)*x2"), 2
        )
        g = flow.element(math.pi / 2)
        assert np.allclose(g.apply_points((1.0, 0.0)), (0.0, 1.0), atol=1e-12)
        h = flow.element(Net.parse("sin(1/eps)", 0))
        ref = GroupElement.rotation(2, 1, 2, Net.parse("sin(1/eps)", 0))
        X = BOX2.lattice()
        assert np.allclose(h.apply_points(X, 0.125), ref.apply_points(X, 0.125), atol=1e-13)

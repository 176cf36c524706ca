import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsnet import expr as ex
from epsnet.colombeau import EpsilonGrid, Net
from epsnet.expr import Table
from epsnet.decompose import (
    DecompositionError,
    LorentzFactorization,
    boost_matrix,
    decompose_net_matrix,
    full_lorentz_decompose,
    givens_decompose,
    lorentz_decompose,
    orthogonal_decompose,
    reflection_matrix,
    rotation_schedule_pairs,
    time_inversion_matrix,
)
from epsnet.groups import GroupElement, PlanarFactor
from epsnet.sampling import random_proper_lorentz, random_special_orthogonal

GRID = EpsilonGrid.dyadic(4, 20)


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestGivens:
    def test_identity(self):
        for d in (2, 3, 4):
            sched = givens_decompose(np.eye(d))
            assert sched.angles() == tuple(0.0 for _ in sched.factors)

    def test_single_plane_rotation(self):
        sched = givens_decompose(rotation2(math.pi / 6))
        assert sched.pairs == ((1, 2),)
        assert sched.angles()[0] == pytest.approx(math.pi / 6, abs=1e-14)

    def test_three_factor_reconstruction(self):
        # oracle: multiply the returned factors and compare
        M = (
            PlanarFactor("rotation", 1, 2, 0.3).matrix(3)
            @ PlanarFactor("rotation", 1, 3, 1.1).matrix(3)
            @ PlanarFactor("rotation", 2, 3, -0.7).matrix(3)
        )
        sched = givens_decompose(M)
        assert len(sched.factors) == 3
        assert np.max(np.abs(sched.matrix() - M)) <= 1e-12

    def test_half_turn(self):
        M = rotation2(math.pi)
        sched = givens_decompose(M)
        assert np.max(np.abs(sched.matrix() - M)) <= 1e-12

    def test_rejects_reflection(self):
        with pytest.raises(DecompositionError, match="determinant"):
            givens_decompose(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(DecompositionError, match="orthogonal"):
            givens_decompose(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_empty_matrix(self):
        with pytest.raises(DecompositionError, match="size >= 1"):
            givens_decompose(np.eye(0))

    def test_schedule_is_fixed_per_dimension(self):
        rng = random.Random(11)
        for d in (2, 3, 5):
            expected = rotation_schedule_pairs(d)
            assert len(expected) == math.comb(d, 2)
            for _ in range(5):
                sched = givens_decompose(random_special_orthogonal(rng, d))
                assert sched.pairs == expected

    def test_random_reconstruction(self):
        rng = random.Random(421)
        for _ in range(100):
            d = rng.choice((2, 3, 4, 5, 6))
            M = random_special_orthogonal(rng, d)
            sched = givens_decompose(M)
            assert np.max(np.abs(sched.matrix() - M)) <= 1e-10
            assert all(0.0 <= t < 2 * math.pi for t in sched.angles())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=2, max_value=6))
    def test_reconstruction_property(self, seed, d):
        M = random_special_orthogonal(random.Random(seed), d)
        sched = givens_decompose(M)
        assert len(sched.factors) == math.comb(d, 2)
        assert np.max(np.abs(sched.matrix() - M)) <= 1e-10


class TestOrthogonal:
    def test_pure_reflection(self):
        for d in (2, 4):
            sched, reflected = orthogonal_decompose(reflection_matrix(d))
            assert reflected
            assert sched.angles() == tuple(0.0 for _ in sched.factors)

    def test_rotation_passthrough(self):
        M = rotation2(0.9)
        sched, reflected = orthogonal_decompose(M)
        assert not reflected
        assert np.max(np.abs(sched.matrix() - M)) <= 1e-12

    def test_swap_matrix(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        sched, reflected = orthogonal_decompose(M)
        assert reflected
        recon = sched.matrix() @ reflection_matrix(2)
        assert np.max(np.abs(recon - M)) <= 1e-12


class TestLorentz:
    def test_identity(self):
        fact = lorentz_decompose(np.eye(3))
        assert fact.theta == 0.0
        assert np.max(np.abs(fact.matrix() - np.eye(3))) <= 1e-12

    def test_pure_boost(self):
        fact = lorentz_decompose(boost_matrix(3, 0.8))
        assert fact.theta == pytest.approx(0.8, abs=1e-12)
        assert all(a == 0.0 for a in fact.r1.angles())
        assert all(a == 0.0 for a in fact.r2.angles())

    def test_views_are_the_slots_of_the_factors(self):
        fact = lorentz_decompose(random_proper_lorentz(random.Random(3), 4))
        assert LorentzFactorization._fields == ("dimension", "factors")
        boost = PlanarFactor("boost", 1, 2, fact.theta)
        assert fact.r1.factors + (boost,) + fact.r2.factors == fact.factors
        assert fact.r1.pairs == ((2, 3), (2, 4))

    def test_random_reconstruction_and_theta(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.choice((3, 4))
            L = random_proper_lorentz(rng, n)
            fact = lorentz_decompose(L)
            assert fact.theta == math.acosh(max(L[0, 0], 1.0))
            assert np.max(np.abs(fact.matrix() - L)) <= 1e-9
            for sched in (fact.r1, fact.r2):
                R = sched.matrix()
                assert abs(R[0, 0] - 1.0) <= 1e-10
                assert np.max(np.abs(R[0, 1:])) <= 1e-10
                assert np.max(np.abs(R[1:, 0])) <= 1e-10

    def test_planted_rapidity_recovered(self):
        rng = random.Random(9)
        from epsnet.sampling import random_spatial_rotation

        L = (
            random_spatial_rotation(rng, 4)
            @ boost_matrix(4, 1.3)
            @ random_spatial_rotation(rng, 4)
        )
        fact = lorentz_decompose(L)
        assert fact.theta == pytest.approx(1.3, abs=1e-10)

    def test_rejects_improper(self):
        with pytest.raises(DecompositionError, match="improper"):
            lorentz_decompose(reflection_matrix(3) @ boost_matrix(3, 0.5))

    def test_rejects_anti_orthochronous(self):
        with pytest.raises(DecompositionError, match="orthochronous"):
            lorentz_decompose(time_inversion_matrix(3) @ reflection_matrix(3))

    def test_rejects_form_violation(self):
        with pytest.raises(DecompositionError, match="form"):
            lorentz_decompose(np.diag([2.0, 1.0, 1.0]))


class TestFullLorentz:
    def test_time_inversion(self):
        res = full_lorentz_decompose(time_inversion_matrix(3) @ reflection_matrix(3))
        assert res.time_inverted and res.orientation_inverted
        assert res.factorization.theta == 0.0

    def test_orientation_inversion(self):
        res = full_lorentz_decompose(reflection_matrix(4))
        assert res.orientation_inverted and not res.time_inverted

    def test_both_flags_with_boost(self):
        L = time_inversion_matrix(3) @ reflection_matrix(3) @ boost_matrix(3, 0.5)
        res = full_lorentz_decompose(L)
        assert res.time_inverted and res.orientation_inverted
        assert res.factorization.theta == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(res.matrix() - L)) <= 1e-9

    def test_proper_orthochronous_passthrough(self):
        rng = random.Random(2)
        L = random_proper_lorentz(rng, 3)
        res = full_lorentz_decompose(L)
        assert not res.time_inverted and not res.orientation_inverted
        assert np.max(np.abs(res.matrix() - L)) <= 1e-9


class TestNetMatrix:
    def test_rotation_angle_recovery_mod_two_pi(self):
        # oracle: per-eps comparison mod 2*pi
        c = Net.parse("cos(sin(1/eps))", 0)
        s = Net.parse("sin(sin(1/eps))", 0)
        minus_s = Net.parse("-sin(sin(1/eps))", 0)
        sched = decompose_net_matrix([[c, minus_s], [s, c]], GRID, "rotation")
        assert isinstance(sched.factors[0].theta.body, Table)
        for eps in GRID:
            want = math.sin(1.0 / eps) % (2 * math.pi)
            assert ex.evaluate(sched.factors[0].theta.body, eps) == pytest.approx(want, abs=1e-10)

    def test_identity_all_zero(self):
        one = Net.parse("1", 0)
        zero = Net.parse("0", 0)
        sched = decompose_net_matrix([[one, zero], [zero, one]], GRID, "rotation")
        for f in sched.factors:
            assert all(ex.evaluate(f.theta.body, eps) == 0.0 for eps in GRID)

    def test_boost_net_recovery(self):
        ch = Net.parse("cosh(1+eps)", 0)
        sh = Net.parse("sinh(1+eps)", 0)
        fact = decompose_net_matrix([[ch, sh], [sh, ch]], GRID, "lorentz")
        for eps in GRID:
            assert ex.evaluate(fact.theta.body, eps) == pytest.approx(1.0 + eps, abs=1e-10)

    def test_reconstruction_per_eps(self):
        c = Net.parse("cos(eps)", 0)
        s = Net.parse("sin(eps)", 0)
        minus_s = Net.parse("-sin(eps)", 0)
        sched = decompose_net_matrix([[c, minus_s], [s, c]], GRID, "rotation")
        for eps in list(GRID)[:5]:
            M = np.array([[math.cos(eps), -math.sin(eps)], [math.sin(eps), math.cos(eps)]])
            got = sched.as_group_element().apply_points(np.eye(2), eps).T
            assert np.max(np.abs(got - M)) <= 1e-9

    @pytest.mark.parametrize(
        "n, factors",
        [
            (3, (("rotation", 2, 3, "eps"), ("boost", 1, 2, "0.5"), ("rotation", 2, 3, "0.3+eps"))),
            (4, (("rotation", 2, 3, "eps"), ("rotation", 2, 4, "1-eps"), ("boost", 1, 2, "0.4+eps"),
                 ("rotation", 3, 4, "2*eps"), ("rotation", 2, 3, "0.7"))),
            # the boost vanishes at the grid eps 2^-6 only, where r1 takes the
            # identity-alignment slots
            (3, (("rotation", 2, 3, "eps"), ("boost", 1, 2, "eps-2^-6"), ("rotation", 2, 3, "0.3+eps"))),
        ],
        ids=["n3", "n4", "n3-boost-vanishes"],
    )
    def test_lorentz_slots_match_per_eps_factorization(self, n, factors):
        # oracle: lorentz_decompose of the numeric matrix at each grid eps
        g = GroupElement.from_factors(n, [PlanarFactor(k, i, j, Net.parse(t, 0)) for k, i, j, t in factors])
        rows = [
            [Net(ex.subst(c, {f"x{m}": ex.Const(float(m == k)) for m in range(1, n + 1)}), 0)
             for k in range(1, n + 1)]
            for c in g.coords
        ]
        fact = decompose_net_matrix(rows, GRID, "lorentz")
        assert (len(fact.r1.factors), len(fact.r2.factors)) == (n - 2, (n - 1) * (n - 2) // 2)
        element = fact.as_group_element()
        r1_angles = set()
        for eps in GRID:
            M = np.array([[ex.evaluate(v.body, eps) for v in row] for row in rows])
            want = lorentz_decompose(M).factors
            assert [(f.kind, f.i, f.j) for f in fact.factors] == [(f.kind, f.i, f.j) for f in want]
            assert [ex.evaluate(f.theta.body, eps) for f in fact.factors] == [f.theta for f in want]
            assert np.max(np.abs(element.apply_points(np.eye(n), eps).T - M)) <= 1e-9
            r1_angles.add(want[0].theta)
        assert len(r1_angles) > 1  # r1 depends on eps

    def test_tabulated_angle_has_no_numeric_matrix(self):
        theta = Net.tabulated(((0.5, 1.0), (0.25, 2.0)))
        with pytest.raises(ValueError, match="generalized angle"):
            PlanarFactor("rotation", 1, 2, theta).matrix(2)

    def test_per_eps_failure_carries_eps(self):
        bad = Net.parse("1+eps", 0)  # not orthogonal for eps > 0
        zero = Net.parse("0", 0)
        one = Net.parse("1", 0)
        with pytest.raises(DecompositionError, match="eps="):
            decompose_net_matrix([[bad, zero], [zero, one]], GRID, "rotation")

    @pytest.mark.parametrize(
        "texts, error",
        [
            # (2,2) fails at 2^-10, before (1,1) fails at 2^-12
            ((("cos(eps) + 0*ln(eps - 2^-12)", "-sin(eps)"),
              ("sin(eps)", "cos(eps) + 0*sqrt(eps - 2^-9)")), ex.EvalError),
            # (1,2) and (2,1) both fail first at 2^-10: row-major order names (1,2)
            ((("cos(eps)", "-sin(eps) + 0*ln(eps - 2^-9 + 2^-11)"),
              ("sin(eps) + 0*sqrt(eps - 2^-9)", "cos(eps)")), ex.EvalError),
            # not orthogonal at the first eps, long before the entry fails
            ((("1 + eps + 0*sqrt(eps - 2^-9)", "0"), ("0", "1")), DecompositionError),
        ],
        ids=["later-entry-fails-first", "same-eps", "factoring-fails-first"],
    )
    def test_first_failure_is_that_of_an_eps_by_eps_walk(self, texts, error):
        rows = [[Net.parse(t, 0) for t in row] for row in texts]

        def walk():  # oracle: each entry evaluated on its own, eps by eps
            for eps in GRID:
                A = np.array([[ex.evaluate(v.body, eps) for v in row] for row in rows])
                try:
                    givens_decompose(A)
                except DecompositionError as err:
                    raise DecompositionError(f"factorization failed at eps={eps!r}: {err}") from None

        with pytest.raises(error) as want:
            walk()
        with pytest.raises(error) as got:
            decompose_net_matrix(rows, GRID, "rotation")
        assert str(got.value) == str(want.value)

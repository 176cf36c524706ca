"""Metamorphic verdict properties: transformations of a problem that the
paper's equivalences say cannot change its verdict.

Relabelling: permuting the coordinates of f together with the plane of a
rotation or boost keeps every invariance field.  A rotation in the plane
(i, j) by theta is the rotation in (j, i) by -theta, so a plane whose axes
the permutation swaps takes -theta; a boost's matrix is symmetric in its
plane and keeps theta."""

import itertools
import random
import warnings

import pytest

from epsnet import expr as ex
from epsnet.colombeau import CompactBox, EpsilonGrid, Net
from epsnet.groups import planar_flow
from epsnet.verify import check_invariance
from helpers import random_expr

GRID = EpsilonGrid.dyadic(4, 8)
BOX = CompactBox.cube(-1.0, 1.0, 3, 5)
PERMUTATIONS = [p for p in itertools.permutations((1, 2, 3)) if p != (1, 2, 3)]
#: a boost by ln(1/eps) is not c-bounded, so the waived check is compared too
GROWING = Net.parse("ln(1/eps)", 0)


def _fields(f, kind, i, j, theta):
    """The verdict fields of one waived check, or the type of its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = check_invariance(f, planar_flow(kind, 3, i, j)(theta), BOX, GRID, 1, strict=False)
    except (ValueError, ArithmeticError) as err:
        return type(err)
    return rep.invariant, rep.c_bounded, rep.asymptotic


def _draw(rng):
    # a plane of two axes f reads, so the element's angle can matter
    while True:
        body = random_expr(rng, 3, max_depth=4)
        axes = sorted(int(name[1:]) for name in ex.variables(body) - {"eps"})
        if len(axes) >= 2:
            break
    kind = rng.choice(("rotation", "boost"))
    i, j = rng.choice(list(itertools.combinations(axes, 2)))
    theta = GROWING if kind == "boost" and rng.random() < 0.25 else round(rng.uniform(-3.0, 3.0), 3)
    return body, kind, i, j, theta, rng.choice(PERMUTATIONS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelling_coordinates_and_plane_keeps_the_verdict(seed):
    rng = random.Random(seed)
    for _ in range(50):
        body, kind, i, j, theta, perm = _draw(rng)
        # both sides go through subst, so both fold their constants alike
        f = Net(ex.subst(body, {}), 3)
        relabelled = Net(ex.subst(body, {f"x{k}": ex.Var(f"x{perm[k - 1]}") for k in (1, 2, 3)}), 3)
        a, b = perm[i - 1], perm[j - 1]
        swapped = -theta if a > b and kind == "rotation" else theta
        got = _fields(relabelled, kind, min(a, b), max(a, b), swapped)
        assert got == _fields(f, kind, i, j, theta), (ex.to_text(body), kind, i, j, theta, perm)

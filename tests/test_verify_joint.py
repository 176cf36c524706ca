"""One compiled deviation pass per harness: the pipelines, translation
constancy and the one-parameter hypothesis and conclusion measure every
element's f o g - f in one program, and must give the reports, errors and
warnings that one ``check_invariance`` per element gives."""

import json
import random
import warnings

import pytest

from epsnet import expr as ex
from epsnet import verify
from epsnet.colombeau import CompactBox, EpsilonGrid, Net
from epsnet.groups import GroupElement, PlanarFactor, planar_flow
from epsnet.report import plain_json
from epsnet.sampling import random_proper_lorentz, random_special_orthogonal
from epsnet.verify import (
    CBoundednessError,
    _deviation,
    _pipeline,
    check_invariance,
    lorentz_invariance_pipeline,
    one_param_theorem_harness,
    rotation_invariance_pipeline,
    translation_constancy,
)
from helpers import random_expr

GRID = EpsilonGrid.dyadic(4, 12)
SHORT = EpsilonGrid.dyadic(4, 10)
BOX3 = CompactBox.cube(-1.0, 1.0, 3, 7)
BOX4 = CompactBox.cube(-1.0, 1.0, 4, 5)


def _bytes(report) -> str:
    return json.dumps(plain_json(report), sort_keys=True, allow_nan=False)


def _outcome(call):
    """The report's bytes, or the type and text of the error it raises."""
    try:
        return _bytes(call())
    except (ValueError, ArithmeticError) as err:
        return type(err).__name__, str(err)


def _per_element_pipeline(f, M, box, grid, p, decomposer):
    """The pipeline report as a loop of one ``check_invariance`` per factor,
    then one for the full element."""
    fact = decomposer(M)
    factors = tuple(
        check_invariance(f, GroupElement.from_factors(f.dimension, (factor,)), box, grid, p)
        for factor in fact.factors
    )
    full = check_invariance(f, fact.as_group_element(), box, grid, p)
    per_factor = all(r.invariant for r in factors)
    return {
        "order": p,
        "factors": factors,
        "full": full,
        "verdict": full.invariant and per_factor,
        "consistent": per_factor == full.invariant,
    }


def _nets(seed: int, dimension: int, count: int):
    rng = random.Random(seed)
    radial = "+".join(f"x{k}^2" for k in range(1, dimension + 1))
    minkowski = "x1^2-" + "-".join(f"x{k}^2" for k in range(2, dimension + 1))
    nets = [Net.parse(f"exp(-({radial}))", dimension), Net.parse(f"exp(-({minkowski})^2)", dimension)]
    while len(nets) < count:
        body = random_expr(rng, dimension, max_depth=4)
        if ex.variables(body) - {"eps"}:
            nets.append(Net(body, dimension))
    return nets


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rotation_pipeline_reports_are_the_per_element_reports(seed):
    from epsnet.decompose import givens_decompose

    M = random_special_orthogonal(random.Random(seed), 3)
    for f in _nets(seed, 3, 6):
        got = _outcome(lambda: rotation_invariance_pipeline(f, M, BOX3, GRID, 2))
        want = _outcome(lambda: _per_element_pipeline(f, M, BOX3, GRID, 2, givens_decompose))
        assert got == want, str(f)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lorentz_pipeline_reports_are_the_per_element_reports(seed):
    from epsnet.decompose import lorentz_decompose

    L = random_proper_lorentz(random.Random(seed), 4)
    for f in _nets(seed, 4, 5):
        got = _outcome(lambda: lorentz_invariance_pipeline(f, L, BOX4, GRID, 2))
        want = _outcome(lambda: _per_element_pipeline(f, L, BOX4, GRID, 2, lorentz_decompose))
        assert got == want, str(f)


@pytest.mark.parametrize("seed", [4, 5])
def test_translation_and_one_param_reports_are_the_per_element_reports(seed):
    offsets = ((0.5, 0.0), (1.0, -0.25), (0.125, 2.0))
    thetas = (0.1, -1.0, 3.0)
    gen = (Net.parse("0.5+eps", 0), Net.parse("1-eps^2", 0))
    box = CompactBox.cube(-1.0, 1.0, 2, 9)
    flow = planar_flow("rotation", 2, 1, 2)
    for f in _nets(seed, 2, 6):
        got = _outcome(lambda: translation_constancy(f, box, GRID, 2, h_samples=offsets).hypothesis)
        want = _outcome(lambda: tuple(
            (h, check_invariance(f, GroupElement.translation(2, h), box, GRID, 2)) for h in offsets
        ))
        assert got == want, str(f)
        got = _outcome(lambda: one_param_theorem_harness(f, flow, thetas, box=box, grid=GRID, p=2).hypothesis)
        want = _outcome(lambda: tuple((t, check_invariance(f, flow(t), box, GRID, 2)) for t in thetas))
        assert got == want, str(f)
        got = _outcome(lambda: one_param_theorem_harness(f, flow, thetas, gen, box=box, grid=GRID, p=2).conclusion)
        want = _outcome(lambda: (
            [check_invariance(f, flow(t), box, GRID, 2) for t in thetas],
            tuple((str(t), check_invariance(f, flow(t), box, GRID, 2)) for t in gen),
        )[1])
        assert got == want, str(f)


# ---------------------------------------------------------------------------
# the first error and the warnings are those of the per-element loop

#: f fails under the second factor from the second grid eps on, and under the
#: full element from the first: the first failure, of the joint program as of
#: the per-element loop, is that of factor 2
DOMAIN_NET = Net.parse("sqrt(0.636+1.633*eps-0.5*x1)", 3)
FACTORS = (PlanarFactor("rotation", 1, 2, -0.14), PlanarFactor("rotation", 1, 3, -0.75))
#: a boost by ln(1/eps) in the (2,3) plane: not c-bounded, and f above does
#: not read the axes it moves
GROWING = PlanarFactor("boost", 2, 3, Net.parse("ln(1/eps)", 0))


def _first_error(factors, strict):
    """The error of one check_invariance per factor, then the full element."""
    full = GroupElement.from_factors(3, factors)
    with pytest.raises(Exception) as info:
        for factor in factors:
            check_invariance(DOMAIN_NET, GroupElement.from_factors(3, (factor,)), BOX3, SHORT, 1, strict)
        check_invariance(DOMAIN_NET, full, BOX3, SHORT, 1, strict)
    return type(info.value), str(info.value)


def _pipeline_error(factors, strict):
    full = GroupElement.from_factors(3, factors)
    with pytest.raises(Exception) as info:
        _pipeline(DOMAIN_NET, factors, full, BOX3, SHORT, 1, strict)
    return type(info.value), str(info.value)


def test_an_eval_error_in_factor_2_is_the_per_element_one():
    elements = [GroupElement.from_factors(3, (f,)) for f in FACTORS] + [GroupElement.from_factors(3, FACTORS)]
    with pytest.raises(ex.EvalError) as joint:
        ex.eval_many([_deviation(DOMAIN_NET, g) for g in elements], SHORT.values, BOX3.lattice(), sup=True)
    want = _first_error(FACTORS, True)
    assert want[0] is ex.EvalError and "eps=0.03125" in want[1]
    assert str(joint.value) == want[1] and joint.value.root == 1
    assert _pipeline_error(FACTORS, True) == want


def test_a_strict_c_boundedness_failure_in_element_1_comes_first():
    factors = (GROWING, FACTORS[1])
    want = _first_error(factors, True)
    assert want[0] is CBoundednessError
    assert _pipeline_error(factors, True) == want


def test_a_waived_failure_warns_before_the_error_of_a_later_element():
    factors = (GROWING, FACTORS[1])
    for run in (_first_error, _pipeline_error):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = run(factors, False)
        assert err[0] is ex.EvalError and "eps=0.03125" in err[1]
        assert [str(w.message) for w in caught] == ["transformation is not c-bounded on the box"]


def test_a_construction_error_comes_after_the_elements_before_it():
    # the second offset has the wrong length; the first element's evaluation
    # error comes first, as in a per-element loop
    f = Net.parse("ln(x1)", 1)
    with pytest.raises(ex.EvalError):
        translation_constancy(f, CompactBox.cube(-1, 1, 1, 5), SHORT, 1, h_samples=((1.0,), (1.0, 2.0)))
    with pytest.raises(ValueError, match="offset length"):
        translation_constancy(Net.parse("x1", 1), CompactBox.cube(-1, 1, 1, 5), SHORT, 1,
                              h_samples=((1.0,), (1.0, 2.0)))


# ---------------------------------------------------------------------------
# one program for f, one for every deviation, one image bound per element


class _CountingProgram(ex._Program):
    built = 0

    def __init__(self, roots):
        type(self).built += 1
        super().__init__(roots)


def test_a_rotation_pipeline_compiles_six_programs(monkeypatch):
    # three Givens factors and the full element: f's sups, the joint
    # deviations and four image bounds; one per element each for f, the
    # deviation and the image bound would be twelve
    monkeypatch.setattr(ex, "_Program", _CountingProgram)
    monkeypatch.setattr(_CountingProgram, "built", 0)
    M = random_special_orthogonal(random.Random(7), 3)
    rep = rotation_invariance_pipeline(Net.parse("exp(-(x1^2+x2^2+x3^2))", 3), M, BOX3, GRID, 2)
    assert len(rep.factors) == 3 and rep.verdict
    assert _CountingProgram.built == 6


def test_one_param_compiles_nine_programs(monkeypatch):
    # three real and two generalized thetas in one pass: f's sups, the joint
    # deviations and one image bound per element, plus one boundedness check
    # per generalized theta; a pass per block would be eleven
    monkeypatch.setattr(ex, "_Program", _CountingProgram)
    monkeypatch.setattr(_CountingProgram, "built", 0)
    f = Net.parse("exp(-(x1^2+x2^2))", 2)
    measured = []
    grid_sups = verify.grid_sups

    def counting_grid_sups(body, *args):
        measured.append(body)
        return grid_sups(body, *args)

    monkeypatch.setattr(verify, "grid_sups", counting_grid_sups)
    gen = (Net.parse("1/(1+eps)", 0), Net.parse("2-eps", 0))
    rep = one_param_theorem_harness(f, planar_flow("rotation", 2, 1, 2), (0.1, -1.0, 3.0), gen,
                                    CompactBox.cube(-1.0, 1.0, 2, 9), GRID, 2)
    assert len(rep.hypothesis) == 3 and len(rep.conclusion) == 2 and rep.verdict
    assert _CountingProgram.built == 9
    # f's sups, which set the noise floors, are taken once for both blocks
    assert measured == [f.body]

"""A record behaves as a frozen dataclass of the same fields, and a report
record's JSON is its fields, by name, in plain JSON types."""

import dataclasses
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from epsnet import expr as ex
from epsnet.colombeau import CompactBox, EpsilonGrid, Net, classify
from epsnet.decompose import givens_decompose
from epsnet.groups import GroupElement, planar_flow
from epsnet.numbertheory import catalog, resolve_alpha
from epsnet.report import Record, plain_json, record
from epsnet.verify import (
    chain_bound,
    check_invariance,
    one_param_theorem_harness,
    open_question_explorer,
    rotation_invariance_pipeline,
    translation_constancy,
    two_period_constancy,
)

GRID = EpsilonGrid.dyadic(4, 12)
BOX = CompactBox.cube(-1.0, 1.0, 2, 9)


@pytest.fixture(scope="module")
def records():
    """One record of each Record kind, from the harness that builds it."""
    quarter_turn = [[0.0, -1.0], [1.0, 0.0]]
    radial = Net.parse("x1^2+x2^2", 2)
    pipeline = rotation_invariance_pipeline(radial, quarter_turn, BOX, GRID, p=2)
    chain = chain_bound(Net.parse("sin(x1)", 1), 0.5, 0.0, 20.0, 1.0, math.sqrt(2.0), 1e-3,
                        [(1, 1), (2, 1)])
    constancy = two_period_constancy(
        Net.parse("7 + eps^(1/eps)*sin(x1)", 1), catalog()["sqrt2"], 6.0, 2, GRID, samples=17
    )
    provider = resolve_alpha("pi")
    explorer = open_question_explorer(provider, Net.parse("3", 1), 7.0, 2, GRID, samples=17)
    return {
        "AsymptoticReport": pipeline.full.asymptotic,
        "InvarianceReport": pipeline.full,
        "PipelineReport": pipeline,
        "ChainPairResult": chain.pairs[0],
        "ChainBoundReport": chain,
        "ConstancyEvidence": constancy.evidence[0],
        "OrderCertificate": constancy.per_order[0],
        "ConstancyReport": constancy,
        "ExplorerRow": explorer.rows[0],
        "ExplorerReport": explorer,
        "RotationSchedule": givens_decompose(quarter_turn),
    }


KINDS = (
    "AsymptoticReport", "InvarianceReport", "PipelineReport", "ChainPairResult",
    "ChainBoundReport", "ConstancyEvidence", "OrderCertificate", "ConstancyReport",
    "ExplorerRow", "ExplorerReport", "RotationSchedule",
)


@pytest.mark.parametrize("kind", KINDS)
def test_json_keys_are_the_field_names(records, kind):
    record = records[kind]
    assert type(record).__name__ == kind and isinstance(record, Record)
    data = record.to_json_dict()
    assert list(data) == [f.name for f in fields(record)]
    assert json.loads(json.dumps(data, allow_nan=False)) == data


def test_explorer_report_is_never_theorem_grade(records):
    data = records["ExplorerReport"].to_json_dict()
    assert data["theorem_grade"] is False and "no theorem" in data["note"]


@pytest.mark.parametrize("f, token", [("sin(exp(1/eps))*x1", "nan"), ("exp(1/eps)+0*x1", "inf")])
def test_non_finite_sups_are_plain_json(f, token):
    rep = classify(Net.parse(f, 1), CompactBox.cube(-1.0, 1.0, 1, 5), max_order=0, grid=GRID)
    data = rep.to_json_dict()
    json.dumps(data, allow_nan=False)
    assert token in [s for _, s in data["sups"]]


def test_invariance_report_holds_its_sups_once():
    f = Net.parse("x1", 2)
    rep = check_invariance(f, GroupElement.rotation(2, 1, 2, math.pi / 2), BOX, GRID, p=1)
    assert "sups" not in rep.to_json_dict()
    assert len(rep.to_json_dict()["asymptotic"]["sups"]) == len(GRID)


def test_plain_json_writes_records_numpy_scalars_and_non_finite_floats():
    schedule = givens_decompose([[1.0, 0.0], [0.0, 1.0]])
    value = {"schedule": schedule, "x": np.float64(-math.inf), "n": (np.int64(3), math.nan)}
    assert plain_json(value) == {
        "schedule": schedule.to_json_dict(), "x": "-inf", "n": [3, "nan"],
    }


def test_reports_with_their_own_shape_are_plain_json_too():
    box = CompactBox.cube(-1.0, 1.0, 1, 9)
    translation = translation_constancy(Net.parse("3+eps*0", 1), box, GRID, p=2,
                                        h_samples=((0.5,),))
    one_param = one_param_theorem_harness(Net.parse("x1^2+x2^2", 2), planar_flow("rotation", 2, 1, 2),
                                          real_thetas=(0.5,), gen_thetas=(Net.parse("eps", 0),),
                                          box=BOX, grid=GRID, p=2)
    for rep, key, value in ((translation, "h", [0.5]), (one_param, "theta", 0.5)):
        data = rep.to_json_dict()
        assert json.loads(json.dumps(data, allow_nan=False)) == data
        assert data["hypothesis"][0][key] == value


# ---------------------------------------------------------------------------
# record semantics, against a frozen dataclass of the same body


def _sample_class(decorate):
    class Sample:
        name: str
        size: int = 3
        note: str = "fixed"

        def __post_init__(self):
            object.__setattr__(self, "size", int(self.size))

    return decorate(Sample)


def _node_classes(decorate):
    class Leaf:
        value: float

    class Node:
        op: str
        left: object
        right: object

    return decorate(Leaf), decorate(Node)


FROZEN = dataclasses.dataclass(frozen=True)
Sample, RefSample = _sample_class(record), _sample_class(FROZEN)
(Leaf, Node), (RefLeaf, RefNode) = _node_classes(record), _node_classes(FROZEN)

CALLS = [
    (("a",), {}),
    (("a", 4), {}),
    (("a",), {"size": "4"}),
    ((), {"name": "b", "size": 4, "note": "x"}),
    (("a", 4, "y"), {}),
    ((), {"note": "fixed", "name": "a"}),
]


@pytest.mark.parametrize("call", CALLS)
def test_record_values_match_the_dataclass(call):
    args, kwargs = call
    rec, ref = Sample(*args, **kwargs), RefSample(*args, **kwargs)
    assert repr(rec) == repr(ref)
    assert hash(rec) == hash(ref)
    assert (rec.name, rec.size, rec.note) == (ref.name, ref.size, ref.note)
    for other_args, other_kwargs in CALLS:
        equal = rec == Sample(*other_args, **other_kwargs)
        assert equal == (ref == RefSample(*other_args, **other_kwargs))


def test_nested_records_hash_and_print_as_the_dataclass():
    rec = Node("+", Leaf(1.0), Node("*", Leaf(2.0), Leaf(-0.5)))
    ref = RefNode("+", RefLeaf(1.0), RefNode("*", RefLeaf(2.0), RefLeaf(-0.5)))
    assert hash(rec) == hash(ref) and repr(rec) == repr(ref)
    assert rec == Node("+", Leaf(1.0), Node("*", Leaf(2.0), Leaf(-0.5)))
    assert rec != Node("+", Leaf(1.0), Leaf(2.0))
    assert Leaf(1.0).__eq__(RefLeaf(1.0)) is NotImplemented and Leaf(1.0) != RefLeaf(1.0)
    assert hash(ex.BinOp("+", ex.Const(1.0), ex.Var("x1"))) == hash(
        RefNode("+", RefLeaf(1.0), RefLeaf("x1")))


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), (("a", 1, "x", 2), {}), (("a",), {"colour": 1}), (("a",), {"name": "b"})],
    ids=["missing", "too-many", "unexpected", "twice"],
)
def test_bad_calls_are_type_errors(args, kwargs):
    for cls in (Sample, RefSample):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    for rec in (Sample("a"), Leaf(1.0), ex.Const(1.0)):
        with pytest.raises(AttributeError):
            rec.name = "b"
        with pytest.raises(AttributeError):
            del rec.note


def test_post_init_and_defaults():
    rec = Sample("a", "5")
    assert rec.size == 5 and rec.note == "fixed" and Sample.note == "fixed"
    assert Sample("a", note="x").note == "x" and Sample("a", note="x") != Sample("a")
    assert Sample("a") != Sample("a", 4)
    with pytest.raises(ValueError):  # a record's __post_init__ may refuse its fields
        ex.MultiIndex((-1,))


def test_cached_lattice_stays_out_of_equality():
    box = CompactBox.cube(-1.0, 1.0, 2, 5)
    assert box.lattice() is box.lattice()
    assert box == CompactBox.cube(-1.0, 1.0, 2, 5)
    assert hash(box) == hash(CompactBox.cube(-1.0, 1.0, 2, 5))


SAMPLE_FIELDS = ["name", "size", "note"]


@pytest.mark.parametrize(
    "target, names",
    [(RefSample, SAMPLE_FIELDS), (Sample, SAMPLE_FIELDS), (Sample("a"), SAMPLE_FIELDS),
     (ex.BinOp, ["op", "left", "right"]), (ex.c_add(ex.Var("x1"), ex.Var("x2")), ["op", "left", "right"]),
     (ex.Const(2.0), ["value"])],
)
def test_dataclass_fields_give_the_declared_names_in_order(target, names):
    assert dataclasses.is_dataclass(target)
    assert [f.name for f in fields(target)] == names


def test_only_records_are_dataclasses():
    assert not dataclasses.is_dataclass(ex.Expr) and not dataclasses.is_dataclass((1.0,))

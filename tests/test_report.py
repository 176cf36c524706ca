"""A report record's JSON is its fields, by name, in plain JSON types."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from epsnet.colombeau import CompactBox, EpsilonGrid, Net, classify
from epsnet.decompose import givens_decompose
from epsnet.groups import GroupElement, planar_flow
from epsnet.numbertheory import catalog, resolve_alpha
from epsnet.report import Record, plain_json
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
    chain = chain_bound(np.sin, 0.0, 20.0, 1.0, math.sqrt(2.0), 1e-3, [(1, 1), (2, 1)])
    constancy = two_period_constancy(
        Net.parse("7 + eps^(1/eps)*sin(x1)", 1), catalog()["sqrt2"], 6.0, 2, GRID, samples=17
    )
    provider = resolve_alpha("pi")[0]
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
    assert set(data) == {f.name for f in fields(record)}
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

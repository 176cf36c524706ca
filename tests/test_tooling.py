"""The benchmark's trace launcher wraps package functions by name.  Every
name it lists must resolve in the package, so a refactor that drops one
fails here rather than in a traced benchmark run.  Every job of the bench's
job lists must pass the checks the benchmark makes of its output."""

import importlib
import json
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).resolve().parents[1] / "bench" / "launcher.py"


WORKLOADS = LAUNCHER.parent / "workloads.py"


def _exec_source(path: Path, name: str) -> dict:
    # executed from its source text, so no bytecode is written next to it;
    # registered while it runs, as dataclasses look their module up
    module = types.ModuleType(name)
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    finally:
        del sys.modules[name]
    return vars(module)


def _launcher_layers():
    return _exec_source(LAUNCHER, "launcher_under_test")["LAYERS"]


def test_every_traced_layer_target_resolves():
    targets = [target for _, _, wrapped in _launcher_layers() for target in wrapped]
    assert len(targets) > 10
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(f"epsnet.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"epsnet.{module_name}.{attr}")
    assert missing == []


def _traced(tmp_path, job):
    """Run one CLI job under the launcher, which must exit 0; its spans record
    and the layers that recorded a call."""
    import epsnet

    src = Path(epsnet.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(LAUNCHER), "spans.json", "job", *job,
                           "--out", "report.json"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    return record, {record["layers"][span[0]] for span in record["spans"]}


def test_traced_job_records_the_layers_its_handler_imports(tmp_path):
    # CLI handlers import their modules when they run, after the launcher
    # has wrapped the layer functions, and must call the wrappers
    _, called = _traced(tmp_path, ["two-period", "--f", "3 + eps^(1/eps)*sin(x1)",
                                   "--alpha", "cbrt2", "--R", "6", "--p", "2", "--k-max", "12"])
    assert {"verify", "numbertheory.dirichlet", "numbertheory.liouville",
            "numbertheory.corollary", "cli.report", "cli"} <= called


@pytest.mark.parametrize(
    "job",
    [
        ["explore-open-question", "--f", "2", "--alpha", "pi", "--R", "6", "--p", "2",
         "--k-max", "12"],
        ["dirichlet", "--alpha", "1.5", "--N", "1000"],
    ],
    ids=["explore-open-question", "dirichlet"],
)
def test_traced_job_passes_its_resolved_alpha_to_the_wrapped_dirichlet(tmp_path, job):
    # the handler resolves --alpha once and hands the record on; the call
    # must still go through the launcher's wrapper of numbertheory.dirichlet
    _, called = _traced(tmp_path, job)
    assert {"numbertheory.dirichlet", "cli.report", "cli"} <= called


def test_traced_classify_enters_eval_and_diff_through_their_wrapped_names(tmp_path):
    # the derivative family is one eval_points call on the net's body, and
    # each derivative is one partial_multi step from its parent
    record, called = _traced(tmp_path, ["classify", "--f", "exp(-x1^2)*cos(eps*x1*x2)",
                                        "--dim", "2", "--max-order", "2", "--k-max", "8"])
    assert {"expr.diff", "expr.eval", "colombeau.classify", "cli"} <= called
    # one partial_multi step per nonzero multi-index of order <= 2 in d=2 and
    # one eval_points call for the family: neither is bypassed
    spans = [record["layers"][span[0]] for span in record["spans"]]
    assert spans.count("expr.diff") == 5
    assert spans.count("expr.eval") == 1
    counters = record["counters"]
    assert counters["expr.eval.rows"] == 6  # one row per multi-index of order <= 2 in d=2
    # the trees the bench measures: every occurrence, and every distinct one
    assert counters["expr.diff.tree_nodes"] == 213 and counters["expr.diff.unique_nodes"] == 47
    assert counters["expr.eval.elem_ops"] > 0


def test_traced_group_job_records_every_required_layer(tmp_path):
    # the group-fixed workload fails its run when one of these records no call
    workloads = _exec_source(WORKLOADS, "workloads_under_test")["WORKLOADS"]
    required = set(workloads["group-fixed"].required_layers)
    assert required == {"colombeau.image_bound", "groups.apply", "expr.eval",
                        "groups.compose", "decompose"}
    c, s = 0.6, 0.8
    (tmp_path / "so3.json").write_text(json.dumps([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))
    ch, sh = math.cosh(0.5), math.sinh(0.5)
    (tmp_path / "boost3.json").write_text(json.dumps([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]]))
    # a net matrix is factored eps by eps inside the pipeline
    boost = [["cosh(1+eps)", "sinh(1+eps)", "0"], ["sinh(1+eps)", "cosh(1+eps)", "0"], ["0", "0", "1"]]
    jobs = (
        ["rotation", "--f", "exp(-(x1^2+x2^2+x3^2))", "--dim", "3",
         "--samples", "9", "--k-max", "8", "--matrix", "so3.json"],
        ["lorentz", "--f", "exp(-(x1^2-x2^2-x3^2)^2)", "--dim", "3",
         "--samples", "5", "--k-max", "8", "--matrix", "boost3.json"],
        ["lorentz", "--f", "exp(-(x1^2-x2^2-x3^2)^2)", "--dim", "3",
         "--samples", "5", "--k-max", "8", "--matrix-net", json.dumps(boost)],
    )
    records = []
    for job in jobs:
        record, called = _traced(tmp_path, job)
        assert required <= called, job[0]
        records.append(record)
    # a real Lorentz matrix is factored by lorentz_decompose, whose span holds
    # that of the givens_decompose it calls on the spatial residue; called
    # through a name bound before the launcher wrapped it, the inner span
    # would be the only one
    spans, layer = records[1]["spans"], records[1]["layers"].index("decompose")
    assert [span[0] for span in spans if span[3] >= 0 and spans[span[3]][0] == layer] == [layer]


@pytest.mark.parametrize("name", ["classify-deriv", "group-fixed", "diophantine"])
def test_every_bench_job_passes_its_own_checks(tmp_path, monkeypatch, name):
    # the seed-1 job list of each workload, run in-process: a change that
    # breaks a bench job fails here before the benchmark's output check
    from epsnet import cli

    workload = _exec_source(WORKLOADS, "workloads_under_test")["WORKLOADS"][name]
    monkeypatch.chdir(tmp_path)  # the jobs name their matrix files relatively
    for job in workload.make(random.Random(f"{name}:1"), tmp_path):
        assert cli.run([*job.args, "--out", "report.json"]) == job.exit_code, job.id
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["verdict"] == job.verdict, job.id
        assert job.check is None or job.check(report["evidence"]) is None, job.id

"""The package loads its modules on first use: the Diophantine subcommands
run without numpy, ``classify`` runs without mpmath, and every name the
package has exported still imports from it."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import epsnet

SRC = Path(epsnet.__file__).resolve().parents[1]

#: the package's exports, module by module, when it imported them eagerly
EXPORTS = {
    "expr": ("EvalError", "Expr", "MultiIndex", "ParseError", "Point", "evaluate", "parse",
             "partial", "partial_multi", "to_text"),
    "colombeau": ("AsymptoticReport", "CompactBox", "EpsilonGrid", "Net", "classify",
                  "is_bounded_generalized_number", "is_c_bounded", "seminorm"),
    "groups": ("CoordinateFlow", "GroupElement", "PlanarFactor", "Translation", "compose_net",
               "group_law_check", "planar_flow"),
    "decompose": ("DecompositionError", "LorentzFactorization", "RotationSchedule",
                  "decompose_net_matrix", "full_lorentz_decompose", "givens_decompose",
                  "lorentz_decompose", "orthogonal_decompose"),
    "numbertheory": ("AlgebraicNumber", "CorollaryPair", "DirichletPair", "LiouvilleData",
                     "catalog", "convergents", "corollary_pair", "dirichlet",
                     "liouville_constant"),
    "verify": ("CBoundednessError", "ChainBoundReport", "ConstancyReport", "InvarianceReport",
               "chain_bound", "check_invariance", "check_periodicity",
               "lorentz_invariance_pipeline", "one_param_theorem_harness",
               "open_question_explorer", "rotation_invariance_pipeline",
               "translation_constancy", "two_period_constancy"),
}


def _modules_after_cli(tmp_path, *argvs) -> set:
    """Modules loaded in a fresh interpreter after ``epsnet.cli.run`` of each
    argument list, which must all succeed."""
    script = (
        "import json, sys\n"
        "from epsnet.cli import run\n"
        "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    return set(modules)


def test_diophantine_subcommands_never_load_numpy(tmp_path):
    modules = _modules_after_cli(
        tmp_path,
        ["dirichlet", "--alpha", "sqrt2", "--N", "5", "--out", "d.json"],
        ["dirichlet", "--alpha", "pi", "--N", "1000", "--out", "p.json"],
        ["liouville", "--alpha", "cbrt2", "--out", "l.json"],
        ["corollary-pair", "--alpha", "phi", "--R", "1e12", "--out", "c.json"],
    )
    assert "numpy" not in modules
    assert "epsnet.numbertheory" in modules


def test_classify_never_loads_mpmath(tmp_path):
    modules = _modules_after_cli(
        tmp_path, ["classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1", "--out", "c.json"]
    )
    assert "mpmath" not in modules
    assert "epsnet.verify" not in modules


def test_every_exported_name_still_imports_from_the_package():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"epsnet.{module_name}")
        for name in names:
            namespace = {}
            exec(f"from epsnet import {name}", namespace)
            assert namespace[name] is getattr(module, name), name
            assert name in dir(epsnet)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(epsnet, "no_such_name")

"""The package loads its modules on first use: the Diophantine subcommands
run without numpy, no subcommand loads mpmath (nor does any package module
import it), the group subcommands run without the number theory, no
subcommand loads ``dataclasses``, and every name the package has exported
still imports from it."""

import importlib
import json
import os
import re
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
    "groups": ("GroupElement", "PlanarFactor", "Translation", "compose_net", "planar_flow"),
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
    assert not modules & {"dataclasses", "inspect", "mpmath"}


def test_classify_never_loads_mpmath(tmp_path):
    modules = _modules_after_cli(
        tmp_path, ["classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1", "--out", "c.json"]
    )
    assert "mpmath" not in modules
    assert "epsnet.verify" not in modules
    assert "dataclasses" not in modules


def test_importing_the_command_line_loads_no_dataclasses(tmp_path):
    assert "dataclasses" not in _modules_after_cli(tmp_path)


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


#: modules only the Diophantine harnesses and ``--random`` use
NOT_ON_THE_GROUP_PATH = ("mpmath", "epsnet.numbertheory", "epsnet.sampling")


def test_group_subcommands_never_load_mpmath_or_number_theory(tmp_path):
    (tmp_path / "so3.json").write_text(json.dumps([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    ch, sh = 1.25, 0.75  # cosh and sinh of ln 2
    (tmp_path / "lorentz.json").write_text(json.dumps(
        [[ch, sh, 0.0, 0.0], [sh, ch, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    fast = ["--samples", "5", "--k-max", "10"]
    modules = _modules_after_cli(
        tmp_path,
        ["rotation", "--f", "x1^2+x2^2+x3^2", "--dim", "3", "--matrix", "so3.json",
         "--out", "r.json", *fast],
        ["lorentz", "--f", "x1^2-x2^2-x3^2-x4^2", "--dim", "4", "--matrix", "lorentz.json",
         "--out", "l.json", *fast],
        ["invariance", "--f", "x1^2+x2^2", "--dim", "2", "--rotation", "1,2,0.3",
         "--out", "i.json", *fast],
        ["one-param", "--f", "x1^2+x2^2", "--dim", "2", "--kind", "rotation", "--i", "1",
         "--j", "2", "--gen-theta", "eps", "--out", "o.json", *fast],
    )
    assert "epsnet.decompose" in modules
    assert not modules & {*NOT_ON_THE_GROUP_PATH, "dataclasses"}


def test_two_period_never_loads_the_decomposition(tmp_path):
    modules = _modules_after_cli(
        tmp_path,
        ["two-period", "--f", "3 + eps^(1/eps)*sin(x1)", "--alpha", "sqrt2", "--R", "6",
         "--p", "1", "--k-max", "10", "--out", "t.json"],
    )
    assert "epsnet.numbertheory" in modules
    assert not modules & {"epsnet.decompose", "dataclasses", "mpmath"}


def test_explorer_never_loads_dataclasses(tmp_path):
    modules = _modules_after_cli(
        tmp_path,
        ["explore-open-question", "--f", "3", "--alpha", "pi", "--R", "7", "--p", "1",
         "--k-max", "10", "--out", "e.json"],
    )
    assert not modules & {"dataclasses", "mpmath"}


def test_explorer_never_loads_mpmath(tmp_path):
    modules = _modules_after_cli(
        tmp_path,
        *(["explore-open-question", "--f", "3", "--alpha", alpha, "--R", "7", "--p", "1",
           "--k-max", "10", "--out", f"e{i}.json"] for i, alpha in enumerate(("e", "0.7"))),
    )
    assert "epsnet.numbertheory" in modules
    assert "mpmath" not in modules


def test_no_package_module_imports_mpmath():
    # mpmath stays a test oracle: only the test modules may import it
    package = SRC / "epsnet"
    sources = sorted(package.rglob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        text = path.read_text()
        assert not re.search(r"^\s*(import|from)\s+mpmath\b", text, re.MULTILINE), path


def test_importing_the_command_line_loads_no_importlib_resources(tmp_path):
    # without site (and so without a site hook that loads it first), only
    # schema_path may import importlib.resources, when it is called
    script = ("import sys\n"
              f"sys.path.insert(0, {str(SRC)!r})\n"
              "import epsnet.cli\n"
              "loaded = 'importlib.resources' in sys.modules\n"
              "epsnet.cli.schema_path()\n"
              "print(loaded, 'importlib.resources' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]

"""The benchmark's trace launcher wraps package functions by name.  Every
name it lists must resolve in the package, so a refactor that drops one
fails here rather than in a traced benchmark run."""

import importlib
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parents[1] / "bench" / "launcher.py"


def _launcher_layers():
    # executed from its source text, so no bytecode is written next to it
    namespace = {"__name__": "launcher_under_test"}
    exec(compile(LAUNCHER.read_text(encoding="utf-8"), str(LAUNCHER), "exec"), namespace)
    return namespace["LAYERS"]


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

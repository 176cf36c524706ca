"""Run one ``epsnet`` CLI job with timing spans around the package's layers.

Usage: python3 launcher.py SPANS_FILE JOB_ID CLI_ARG...

The launcher imports the package, replaces each public layer function in
every ``epsnet.*`` namespace that binds it with a wrapper that records a span
(layer, start, end, parent), runs ``epsnet.cli.run`` on the arguments under a
root ``cli`` span, and writes the spans and work counters to SPANS_FILE when
the job ends.  Times come from ``time.perf_counter``, the system-wide
monotonic clock on Linux, so they line up with the parent's launch times.
The package source is not modified.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time

#: Layer name, the per-job time metric it reports (always self time: span
#: duration minus the time covered by wrapped child calls), and the
#: (module, attribute) pairs it wraps.  ``cli`` is the root span around
#: ``epsnet.cli.run``.
LAYERS = (
    ("expr.parse", "expr.parse.s", (("expr", "parse"),)),
    ("expr.diff", "expr.diff.s", (("expr", "partial"), ("expr", "partial_multi"))),
    ("expr.eval", "expr.eval.s", (("expr", "eval_points"),)),
    ("colombeau.classify", "colombeau.classify.self_s",
     (("colombeau", "classify"), ("colombeau", "seminorm"))),
    ("colombeau.fit", "colombeau.fit.s", (("colombeau", "fit_decay_exponent"),)),
    ("colombeau.image_bound", "colombeau.image_bound.self_s",
     (("colombeau", "image_bound_check"), ("colombeau", "is_c_bounded"))),
    ("colombeau.bounded_number", "colombeau.bounded_number.s",
     (("colombeau", "is_bounded_generalized_number"),)),
    ("groups.apply", "groups.apply.s", (("groups", "GroupElement.apply_points"),)),
    ("groups.compose", "groups.compose.s", (("groups", "compose_net"),)),
    ("decompose", "decompose.s",
     tuple(("decompose", n) for n in ("givens_decompose", "orthogonal_decompose",
                                      "lorentz_decompose", "full_lorentz_decompose",
                                      "decompose_net_matrix"))),
    ("numbertheory.dirichlet", "numbertheory.dirichlet.s", (("numbertheory", "dirichlet"),)),
    ("numbertheory.liouville", "numbertheory.liouville.s",
     (("numbertheory", "liouville_constant"),)),
    ("numbertheory.corollary", "numbertheory.corollary.self_s",
     (("numbertheory", "corollary_pair"),)),
    ("verify", "verify.self_s",
     tuple(("verify", n) for n in ("check_invariance", "one_param_theorem_harness",
                                   "rotation_invariance_pipeline", "lorentz_invariance_pipeline",
                                   "check_periodicity", "chain_bound", "two_period_constancy",
                                   "translation_constancy", "open_question_explorer"))),
    ("cli.report", "cli.report.s", (("cli", "write_report"),)),
    ("cli", "cli.self_s", ()),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)
ROOT_LAYER = LAYER_NAMES.index("cli")


class Recorder:
    """In-memory spans plus the arguments and results the counters need."""

    def __init__(self):
        self.spans = []  # [layer index, start, end, parent span index or -1]
        self.stack = [-1]
        self.diff_outputs = []
        self.compose_outputs = []
        self.eval_calls = []  # (tree, rows)
        self.apply_rows = 0
        self.liouville_args = []
        self.report_paths = []

    def wrap(self, layer: int, fn, on_call=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [layer, start, end, parent]
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def hooks(self) -> dict:
        """Argument/result recorders per wrapped attribute; they keep
        references only, the counting happens after the job."""
        def first_arg(name, args, kwargs):
            return args[0] if args else kwargs[name]

        def eval_points(args, kwargs, result):
            self.eval_calls.append((first_arg("e", args, kwargs), len(result)))

        def apply_points(args, kwargs, result):
            self.apply_rows += len(result) if result.ndim == 2 else 1

        return {
            ("expr", "partial"): lambda a, k, r: self.diff_outputs.append(r),
            ("expr", "partial_multi"): lambda a, k, r: self.diff_outputs.append(r),
            ("expr", "eval_points"): eval_points,
            ("groups", "GroupElement.apply_points"): apply_points,
            ("groups", "compose_net"): lambda a, k, r: self.compose_outputs.append(r.body),
            ("numbertheory", "liouville_constant"):
                lambda a, k, r: self.liouville_args.append(first_arg("a", a, k)),
            ("cli", "write_report"):
                lambda a, k, r: self.report_paths.append(first_arg("path", a, k)),
        }


def install(recorder: Recorder) -> None:
    """Wrap every layer function in each ``epsnet`` namespace that binds it.

    Raises RuntimeError when a listed function is missing or a binding of the
    original survives the patch, so the trace never silently loses a layer.
    """
    modules = {n: importlib.import_module(f"epsnet.{n}") for n in
               ("expr", "colombeau", "groups", "decompose", "numbertheory", "verify", "cli")}
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "epsnet" or name.startswith("epsnet."))]
    hooks = recorder.hooks()
    originals = []
    for layer, (_, _, targets) in enumerate(LAYERS):
        for module_name, attr in targets:
            owner = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner, attr_name = getattr(owner, cls_name), method
            else:
                attr_name = attr
            orig = getattr(owner, attr_name, None)
            if orig is None:
                raise RuntimeError(f"epsnet.{module_name}.{attr} not found")
            wrapped = recorder.wrap(layer, orig, hooks.get((module_name, attr)))
            setattr(owner, attr_name, wrapped)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)
            originals.append((f"{module_name}.{attr}", orig))
    for label, orig in originals:
        for ns in namespaces:
            if any(value is orig for value in vars(ns).values()):
                raise RuntimeError(f"{ns.__name__} still binds unwrapped {label}")


class NodeCounter:
    """Tree size (shared subtrees counted once per occurrence) and hash-consed
    unique node count of expression trees."""

    def __init__(self):
        self._size = {}  # id -> (node, size); the node ref keeps ids unique

    def size(self, node) -> int:
        hit = self._size.get(id(node))
        if hit is not None:
            return hit[1]
        total = 1 + sum(self.size(c) for c in _children(node))
        self._size[id(node)] = (node, total)
        return total

    def unique(self, roots) -> int:
        table = {}
        memo = {}  # id -> unique id; the roots keep every node alive

        def uid(node) -> int:
            hit = memo.get(id(node))
            if hit is None:
                key = (type(node).__name__, _scalars(node),
                       tuple(uid(c) for c in _children(node)))
                hit = memo[id(node)] = table.setdefault(key, len(table))
            return hit

        for r in roots:
            uid(r)
        return len(table)


def _children(node):
    return [getattr(node, f.name) for f in dataclasses.fields(node)
            if dataclasses.is_dataclass(getattr(node, f.name))]


def _scalars(node):
    return tuple(repr(getattr(node, f.name)) for f in dataclasses.fields(node)
                 if not dataclasses.is_dataclass(getattr(node, f.name)))


def counters(rec: Recorder) -> dict:
    nodes = NodeCounter()
    return {
        "expr.diff.tree_nodes": sum(nodes.size(e) for e in rec.diff_outputs),
        "expr.diff.unique_nodes": nodes.unique(rec.diff_outputs),
        "expr.eval.rows": sum(rows for _, rows in rec.eval_calls),
        "expr.eval.elem_ops": sum(nodes.size(e) * rows for e, rows in rec.eval_calls),
        "groups.apply.rows": rec.apply_rows,
        "groups.compose.tree_nodes": sum(nodes.size(e) for e in rec.compose_outputs),
        "groups.compose.unique_nodes": nodes.unique(rec.compose_outputs),
        "numbertheory.liouville.distinct": len({a.coeffs for a in rec.liouville_args}),
        "cli.report.bytes": sum(os.path.getsize(p) for p in rec.report_paths if os.path.exists(p)),
    }


def main(argv) -> int:
    spans_file, job_id, cli_args = argv[0], argv[1], argv[2:]
    import epsnet.cli

    rec = Recorder()
    install(rec)
    run = rec.wrap(ROOT_LAYER, epsnet.cli.run)
    t_ready = time.perf_counter()
    try:
        return run(cli_args)
    finally:
        record = {
            "job": job_id,
            "layers": LAYER_NAMES,
            "t_ready": t_ready,
            "spans": rec.spans,
            "counters": counters(rec),
        }
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Shared test helpers."""

import math
import random

from epsnet import expr as ex
from epsnet.expr import BinOp, Call, Const, EvalError, IntPow, Neg, Var, evaluate, partial

_LEAF_WEIGHTS = (("const", 2), ("var", 5))
_NODE_WEIGHTS = (
    ("+", 5),
    ("-", 4),
    ("*", 5),
    ("/", 2),
    ("neg", 2),
    ("pow", 3),
    ("sin", 3),
    ("cos", 3),
    ("exp", 1),
    ("cosh", 1),
    ("sinh", 1),
    ("tanh", 2),
    ("sqrt", 1),
    ("ln", 1),
)


def _weighted_choice(rng: random.Random, pairs):
    total = sum(w for _, w in pairs)
    r = rng.uniform(0, total)
    acc = 0.0
    for item, w in pairs:
        acc += w
        if r <= acc:
            return item
    return pairs[-1][0]


def random_expr(rng: random.Random, dimension: int, max_depth: int = 5, allow_eps: bool = True) -> ex.Expr:
    """Draw a random expression from the grammar, biased toward smooth,
    well-conditioned shapes.  Deterministic for a given ``rng`` state."""
    if max_depth <= 0:
        kind = _weighted_choice(rng, _LEAF_WEIGHTS)
        if kind == "const" or dimension == 0 and not allow_eps:
            return Const(round(rng.uniform(-3.0, 3.0), 3))
        names = [f"x{i}" for i in range(1, dimension + 1)]
        if allow_eps:
            names.append("eps")
        if not names:
            return Const(round(rng.uniform(-3.0, 3.0), 3))
        return Var(rng.choice(names))
    kind = _weighted_choice(rng, _NODE_WEIGHTS)
    sub = lambda: random_expr(rng, dimension, max_depth - 1, allow_eps)  # noqa: E731
    if kind in "+-*/":
        return BinOp(kind, sub(), sub())
    if kind == "neg":
        return Neg(sub())
    if kind == "pow":
        return IntPow(sub(), rng.randint(2, 4))
    if kind in ("sqrt", "ln"):
        # keep the argument strictly positive so the draw stays inside the domain
        inner = BinOp("+", Const(round(rng.uniform(0.5, 2.0), 3)), IntPow(sub(), 2))
        return Call(kind, inner)
    return Call(kind, sub())


def filtered_gradient_sample(rng, d):
    """Draw (expr, eps, x, symbolic gradients) away from domain boundaries
    and floating-point blowups."""
    while True:
        e = random_expr(rng, d, max_depth=5)
        if not ex.variables(e) - {"eps"}:
            continue
        eps = rng.uniform(1e-3, 1.0)
        x = [rng.uniform(-2.0, 2.0) for _ in range(d)]
        h = 1e-6
        try:
            base = evaluate(e, eps, x)
            derivs = [evaluate(partial(e, i), eps, x) for i in range(1, d + 1)]
            probes = []
            for i in range(d):
                for s in (h, -h):
                    xs = list(x)
                    xs[i] += s
                    probes.append(evaluate(e, eps, xs))
        except EvalError:
            continue
        values = [base, *derivs, *probes]
        if all(math.isfinite(v) and abs(v) < 1e8 for v in values):
            return e, eps, x, derivs

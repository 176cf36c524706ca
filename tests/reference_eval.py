"""Reference evaluator: the plain recursive tree walk at one eps.

The package evaluates through one compiled kernel over the whole eps grid;
this walk re-evaluates every subtree at every occurrence, which makes it slow
but obviously right, so it serves as the oracle for that kernel's values and
errors.
"""

import numpy as np

from epsnet.expr import (
    BinOp,
    Call,
    Const,
    EvalError,
    IntPow,
    Neg,
    Table,
    Var,
    spatial_index,
)

#: The primitive functions, named here rather than read from the package, so
#: that a wrong entry in the kernel's op table cannot also be in the oracle.
FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "ln": np.log,
}


def reference_eval_points(e, eps: float, points) -> np.ndarray:
    """Values of ``e`` at the rows of ``points`` for one eps, shape (n,)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    X = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        return _ev(e, float(eps), X)


def _witness(X, bad):
    i = int(np.argmax(bad))
    return X[i] if X.shape[1] else ()


def _ev(e, eps, X):
    n = X.shape[0]
    if isinstance(e, Const):
        return np.full(n, e.value)
    if isinstance(e, Var):
        if e.name == "eps":
            return np.full(n, eps)
        idx = spatial_index(e.name)
        if idx > X.shape[1]:
            raise EvalError(f"variable {e.name} undefined in dimension {X.shape[1]}", e, eps=eps)
        return X[:, idx - 1]
    if isinstance(e, Table):
        for grid_eps, value in e.pairs:
            if grid_eps == eps:
                return np.full(n, value)
        raise EvalError("eps is not a grid point of the table", e, eps=eps)
    if isinstance(e, Neg):
        return -_ev(e.arg, eps, X)
    if isinstance(e, BinOp):
        a = _ev(e.left, eps, X)
        b = _ev(e.right, eps, X)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        bad = b == 0.0
        if bad.any():
            raise EvalError("division by zero", e, eps=eps, point=_witness(X, bad))
        return a / b
    if isinstance(e, IntPow):
        v = _ev(e.base, eps, X)
        if e.exponent < 0:
            bad = v == 0.0
            if bad.any():
                raise EvalError("zero base with negative exponent", e, eps=eps, point=_witness(X, bad))
        return np.power(v, e.exponent)
    if isinstance(e, Call):
        v = _ev(e.arg, eps, X)
        if e.fn == "sqrt":
            bad = v < 0.0
            if bad.any():
                raise EvalError("sqrt of negative value", e, eps=eps, point=_witness(X, bad))
        elif e.fn == "ln":
            bad = v <= 0.0
            if bad.any():
                raise EvalError("ln of non-positive value", e, eps=eps, point=_witness(X, bad))
        return FUNCTIONS[e.fn](v)
    raise TypeError(f"not an expression node: {e!r}")

"""A minimal smooth expression language: parser, printer, evaluator and exact
symbolic forward differentiation.

Expressions are trees over real constants, the scale variable ``eps``, spatial
variables ``x1`` .. ``x9``, the four arithmetic operations, integer powers and
a fixed set of C-infinity primitives.  The language is closed under
differentiation, so arbitrary mixed partials stay inside the language.  A
:class:`Table` leaf holds a scalar known only at finitely many eps (an angle
read off a net-valued matrix eps by eps); it is constant in space and has no
eps-derivative.
Evaluation is pure and deterministic; floating-point underflow to zero is
accepted silently, domain violations raise :class:`EvalError`.
Each operation's arithmetic and domain rule is written once (``_OPS``,
``_DOMAIN``), for the evaluator and constant folding alike (folding takes
``+ - * /`` and negation from Python's float operators, the same IEEE
operations): ``_fold`` folds only constant operands outside the domain rule
to a finite value; any other subtree stays a node and evaluates to the same
IEEE value.
The evaluator compiles its expressions into one program of unique nodes and
runs the nodes that depend on x chunk by chunk of points, writing each
intermediate slab in place into an arena allocated once per call: one
buffer per slab alive at once, each starting on a 64-byte cache line, with
chunks of 8 rows or more cut to a multiple of 8 (see ``SLAB_ELEMENTS``).
A root's slab is emitted (folded into its sups, or copied out) right after
its last reader and then freed like any other.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import Mapping, Sequence

import numpy as np

from .report import record

MAX_SPATIAL_VARS = 9
DEFAULT_MAX_MULTIINDEX_ORDER = 4

_MAX_INT_EXPONENT = 2**31

#: A point of R^d, given as a sequence of d reals.
Point = Sequence[float]


class ParseError(ValueError):
    """Raised for malformed input text; carries the 0-based text position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvalError(ArithmeticError):
    """Domain violation during evaluation, carrying the offending subexpression.

    ``root`` is the index of the failing expression among those evaluated
    together (:func:`eval_many`, a derivative family), 0 for one."""

    def __init__(self, reason, subexpr, eps=None, point=None, alpha=None, root=0):
        self.reason = reason
        self.subexpr = subexpr
        self.eps = eps
        self.point = point
        self.alpha = alpha
        self.root = root
        parts = [reason, f"in '{to_text(subexpr)}'"]
        if eps is not None:
            parts.append(f"eps={eps!r}")
        if point is not None:
            parts.append(f"x={tuple(float(c) for c in point)!r}")
        if alpha is not None:
            parts.append(f"alpha={tuple(alpha)!r}")
        super().__init__("; ".join(parts))

    def with_context(self, alpha) -> "EvalError":
        """The same error, naming the multi-index ``alpha``."""
        return EvalError(self.reason, self.subexpr, eps=self.eps, point=self.point, alpha=alpha,
                         root=self.root)


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class of all expression nodes. Nodes are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


@record
class Const(Expr):
    value: float


@record
class Var(Expr):
    name: str


@record
class Neg(Expr):
    arg: Expr


@record
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@record
class IntPow(Expr):
    base: Expr
    exponent: int


@record
class Call(Expr):
    fn: str
    arg: Expr


@record
class Table(Expr):
    """A scalar given by ``((eps, value), ...)`` pairs; any other eps is an
    evaluation error."""

    pairs: tuple


@record
class MultiIndex:
    """A multi-index of partial-derivative orders, one entry per spatial axis."""

    orders: tuple

    def __post_init__(self):
        if any((not isinstance(o, int)) or o < 0 for o in self.orders):
            raise ValueError("multi-index orders must be non-negative integers")

    @property
    def total(self) -> int:
        return sum(self.orders)


def multi_index(orders, max_order: int = DEFAULT_MAX_MULTIINDEX_ORDER) -> MultiIndex:
    """Validated MultiIndex constructor; rejects total order above ``max_order``."""
    mi = MultiIndex(tuple(int(o) for o in orders))
    if mi.total > max_order:
        raise ValueError(f"multi-index total order {mi.total} exceeds maximum {max_order}")
    return mi


def spatial_index(name: str) -> int:
    """1-based axis of a spatial variable name, or 0 for 'eps'."""
    if name == "eps":
        return 0
    if len(name) == 2 and name[0] == "x" and name[1] in "123456789":
        return int(name[1])
    raise ValueError(f"not a variable name: {name!r}")


def variables(e: Expr) -> set:
    """Set of variable names referenced by ``e``."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Table):
            out.add("eps")
        stack.extend(_children(node))
    return out


# ---------------------------------------------------------------------------
# Parser

_WHITESPACE = " \t\r\n"
#: numbers take ASCII digits only: ``str.isdigit`` also accepts digits such
#: as '²' and '١', which ``float`` reads as 1 or rejects without a position
_DIGITS = "0123456789"


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch in _WHITESPACE:
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
                j = i
                while j < n and text[j] in _DIGITS:
                    j += 1
                if j < n and text[j] == ".":
                    j += 1
                    while j < n and text[j] in _DIGITS:
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k] in _DIGITS:
                        j = k
                        while j < n and text[j] in _DIGITS:
                            j += 1
                self.tokens.append(("number", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, dimension: int):
        if not 0 <= dimension <= MAX_SPATIAL_VARS:
            raise ValueError(f"dimension must be in 0..{MAX_SPATIAL_VARS}, got {dimension}")
        self.dimension = dimension
        self.toks = _Tokens(text)

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.toks.peek()[0] in "+-":
            op = self.toks.next()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.toks.peek()[0] in "*/":
            op = self.toks.next()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.toks.peek()[0] == "-":
            self.toks.next()
            return Neg(self.factor())
        base = self.base()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            exponent = self.factor()
            return self._power(base, exponent)
        return base

    @staticmethod
    def _power(base: Expr, exponent: Expr) -> Expr:
        lit = None
        if isinstance(exponent, Const):
            lit = exponent.value
        elif isinstance(exponent, Neg) and isinstance(exponent.arg, Const):
            lit = -exponent.arg.value
        if lit is not None and float(lit).is_integer() and abs(lit) < _MAX_INT_EXPONENT:
            return IntPow(base, int(lit))
        # a^b with non-integer-literal exponent means exp(b*ln(a))
        return Call("exp", BinOp("*", exponent, Call("ln", base)))

    def base(self) -> Expr:
        kind, value, pos = self.toks.next()
        if kind == "number":
            return Const(float(value))
        if kind == "(":
            e = self.expr()
            k2, v2, p2 = self.toks.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2)
            return e
        if kind == "ident":
            if value in FUNCTIONS:
                k2, v2, p2 = self.toks.next()
                if k2 != "(":
                    raise ParseError(f"expected '(' after function {value!r}", p2)
                arg = self.expr()
                k3, v3, p3 = self.toks.next()
                if k3 != ")":
                    raise ParseError("expected ')'", p3)
                return Call(value, arg)
            if value == "eps":
                return Var(value)
            try:
                idx = spatial_index(value)
            except ValueError:
                raise ParseError(f"unknown identifier {value!r}", pos) from None
            if idx > self.dimension:
                raise ParseError(
                    f"variable {value!r} exceeds dimension {self.dimension}", pos
                )
            return Var(value)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse(text: str, dimension: int) -> Expr:
    """Parse ``text`` into an expression over eps and x1..x{dimension}.

    Powers ``a^b`` keep an exact integer-power node when ``b`` is an integer
    literal and desugar to ``exp(b*ln(a))`` otherwise.
    """
    return _Parser(text, dimension).parse()


# ---------------------------------------------------------------------------
# Printer

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, IntPow):
        return _PREC_POW
    # a Neg is an atom too: printed as a prefix that re-parses at factor level
    return _PREC_ATOM


def format_const(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):
        raise ValueError(f"non-finite constant {value!r} is not printable")
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def to_text(e: Expr) -> str:
    """Render an expression; the output re-parses to a structurally equal tree.

    A :class:`Table` prints as ``table[N]`` (N pairs), which is for messages
    only and does not parse."""
    return _fmt(e, 0)


def _fmt(e: Expr, min_prec: int) -> str:
    if isinstance(e, Const):
        s = format_const(e.value)
        if e.value < 0 and min_prec >= _PREC_POW:
            return "(" + s + ")"
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Table):
        return f"table[{len(e.pairs)}]"
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = e.arg
        if isinstance(inner, (BinOp,)):
            s = "-(" + _fmt(inner, 0) + ")"
        else:
            s = "-" + _fmt(inner, _PREC_POW)
        if min_prec >= _PREC_POW:
            return "(" + s + ")"
        return s
    if isinstance(e, IntPow):
        if _prec(e.base) < _PREC_ATOM:
            base = "(" + _fmt(e.base, 0) + ")"
        else:
            # Neg and negative constants self-parenthesize at this context
            base = _fmt(e.base, _PREC_ATOM)
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        s = f"{base}^{exp}"
        if min_prec > _PREC_POW:
            return "(" + s + ")"
        return s
    if isinstance(e, BinOp):
        p = _prec(e)
        left = _fmt(e.left, p)
        right = _fmt(e.right, p + 1)
        s = f"{left}{e.op}{right}"
        if p < min_prec:
            return "(" + s + ")"
        return s
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation

#: The arithmetic of each non-leaf operation: the numpy ufunc the evaluator
#: applies to arrays, writing into an arena slab with ``out=``.  Binary
#: operations take two operands, ``pow`` an operand and its integer exponent,
#: the rest one.
_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "pow": np.power,
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "ln": np.log,
}
_BINARY = frozenset("+-*/")
#: Folding's float arithmetic of the operations that need no
#: ``np.errstate``: Python's float operators, the same IEEE operations as
#: their ufuncs, which never warn (the domain rule has already excluded a
#: division by zero).
_PLAIN = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "neg": operator.neg,
}

#: The primitive functions of the language: the table's named operations.
FUNCTIONS = tuple(op for op in _OPS if op not in _BINARY and op not in ("pow", "neg"))

#: Domain rule of each checked operation: (reason, rule(x, y) -> bad-operand mask or None).
_DOMAIN = {
    "/": ("division by zero", lambda x, y: y == 0.0),
    "pow": ("zero base with negative exponent", lambda x, n: x == 0.0 if n < 0 else None),
    "sqrt": ("sqrt of negative value", lambda x, _: x < 0.0),
    "ln": ("ln of non-positive value", lambda x, _: x <= 0.0),
}


#: Most elements an eps-free intermediate array holds: the points are
#: processed in chunks of this many rows, or of 2 * this many // n_eps when a
#: node evaluated per chunk depends on eps (emitting each root at its last
#: reader leaves fewer eps-dependent slabs alive, so each may hold twice as
#: much), and never more rows than the call has, so memory does not grow with
#: the lattice or grid.  A chunk of 8 rows or more is cut to a multiple of 8,
#: so that every eps row of a slab starts on a 64-byte cache line of its
#: arena buffer.
SLAB_ELEMENTS = 2**12


def eval_points(e: Expr, eps, points, sup: bool = False, partials=None):
    """Evaluate ``e`` at every row of ``points`` (shape (n, d)).

    ``eps`` is one value, giving shape (n,), or a 1-d sequence of values,
    giving shape (len(eps), n) whose row k equals the evaluation at eps[k] on
    its own, bit for bit.  With ``sup`` the result is instead max |e| over the
    points: a float for one eps, shape (len(eps),) for a sequence; a NaN value
    makes its eps's max NaN, and the max over no points is 0.

    ``partials``, a sequence of multi-indices alpha, evaluates the derivative
    family ``partial_multi(e, alpha)`` instead of ``e``: the result gains a
    leading axis of len(partials), e.g. shape (len(partials), len(eps)) with
    ``sup``.  Each derivative is built from its parent and the family is
    compiled as one program (:func:`_derivative_family`).

    Overflow yields IEEE infinities, underflow yields 0; genuine domain
    violations (sqrt of a negative, ln of a non-positive, division by zero)
    raise :class:`EvalError` with a witness point.  Over a sequence the error
    is the one evaluation at the first failing eps alone would raise; over a
    family it is the one a loop over the alphas meets first, and it names
    that alpha.
    """
    scalar = np.ndim(eps) == 0
    eps_values = (eps,) if scalar else eps
    if partials is None:
        out = _evaluate((e,), eps_values, points, sup)[0]
        return (float(out[0]) if sup else out[0]) if scalar else out
    alphas = [tuple(a.orders if isinstance(a, MultiIndex) else a) for a in partials]
    try:
        out = np.array(_evaluate(_derivative_family(e, alphas), eps_values, points, sup))
    except EvalError as err:
        raise err.with_context(alpha=alphas[err.root]) from None
    return out[:, 0] if scalar else out


def eval_many(es: Sequence[Expr], eps, points, sup: bool = False) -> list:
    """Evaluate several expressions, compiled together so that the
    subexpressions they share are computed once; one result each, shaped as
    :func:`eval_points` shapes it for the same ``eps`` and ``sup``.

    The error is the one a loop of :func:`eval_points` over ``es`` meets
    first, with ``root`` the index of its expression."""
    scalar = np.ndim(eps) == 0
    outs = _evaluate(tuple(es), (eps,) if scalar else eps, points, sup)
    return [out[0] for out in outs] if scalar else outs


def evaluate(e: Expr, eps: float, x: Point = ()) -> float:
    """Evaluate ``e`` at a single point; same semantics as :func:`eval_points`."""
    X = np.asarray([tuple(x)], dtype=float).reshape(1, len(tuple(x)))
    return float(eval_points(e, eps, X)[0])


class _Program:
    """The unique nodes of a family of expressions, in evaluation order.

    Structurally equal subtrees are interned to one slot.  The order is the
    post-order of a left-to-right walk, root by root, first occurrence first,
    so among the slots one root's walk reached first, the first failing one
    is the node a recursive evaluation of that root would have stopped at.
    ``code[slot]`` is ``(op, a, b)``: child slots or leaf data.  ``ends[r]``
    is the slot count after root r's walk, so the root whose walk first
    reached a slot is ``bisect_right(ends, slot)``.
    """

    def __init__(self, roots):
        self.code, self.nodes, self.on_eps, self.on_x = [], [], [], []
        self.ends = []
        reader = []  # reader[slot]: the last slot that reads it, or the slot itself
        interned = {}
        memo = {}  # id(node) -> slot; the roots keep every node alive
        for root in roots:
            stack = [root]
            while stack:
                node = stack[-1]
                if id(node) in memo:
                    stack.pop()
                    continue
                cls = node.__class__
                if cls is BinOp:
                    left, right = node.left, node.right
                    a, b = memo.get(id(left)), memo.get(id(right))
                    if a is None or b is None:
                        if b is None:
                            stack.append(right)
                        if a is None:
                            stack.append(left)
                        continue
                    key, kids = (node.op, a, b), (a, b)
                elif cls is Const or cls is Var or cls is Table:
                    key, kids = _instruction(node, ()), ()
                else:
                    arg = node.base if cls is IntPow else node.arg
                    a = memo.get(id(arg))
                    if a is None:
                        stack.append(arg)
                        continue
                    key, kids = _instruction(node, (a,)), (a,)
                stack.pop()
                slot = interned.get(key)
                if slot is None:
                    slot = interned[key] = len(self.code)
                    self.code.append(key)
                    self.nodes.append(node)
                    reader.append(slot)
                    eps_dep = key[0] == "eps" or key[0] == "table"
                    x_dep = key[0] == "x"
                    for k in kids:
                        reader[k] = slot
                        eps_dep = eps_dep or self.on_eps[k]
                        x_dep = x_dep or self.on_x[k]
                    self.on_eps.append(eps_dep)
                    self.on_x.append(x_dep)
                memo[id(node)] = slot
            self.ends.append(len(self.code))
        self.roots = [memo[id(r)] for r in roots]
        self.hoisted = [s for s in range(len(self.code)) if not self.on_x[s]]
        self.chunked = [s for s in range(len(self.code)) if self.on_x[s]]
        # each chunk-stage slab, a root's too, is freed right after its last
        # reader; a root is emitted (folded into its sups or copied out) there
        # first, or right after its own instruction when nothing reads it
        position = {s: i for i, s in enumerate(self.chunked)}
        self.frees = [[] for _ in self.chunked]
        self.emits = [[] for _ in self.chunked]
        for s in self.chunked:
            self.frees[position[reader[s]]].append(s)
        for r, s in enumerate(self.roots):
            if self.on_x[s]:
                self.emits[position[reader[s]]].append(r)
        # chunked[i] writes arena buffer buffer[i], taken before the slabs
        # its instruction frees are given back, so it never aliases an
        # operand; tall[b] tells whether buffer b holds eps-dependent slabs,
        # and each kind has as many buffers as it has slabs live at once
        self.buffer, self.tall, spare = [], [], ([], [])
        for i, s in enumerate(self.chunked):
            free = spare[self.on_eps[s]]
            if free:
                self.buffer.append(free.pop())
            else:
                self.buffer.append(len(self.tall))
                self.tall.append(self.on_eps[s])
            for k in self.frees[i]:
                spare[self.on_eps[k]].append(self.buffer[position[k]])


def _children(e: Expr) -> tuple:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, IntPow):
        return (e.base,)
    if isinstance(e, Call):
        return (e.arg,)
    if isinstance(e, (Const, Var, Table)):
        return ()
    raise TypeError(f"not an expression node: {e!r}")


def _instruction(e: Expr, kids) -> tuple:
    # a BinOp never comes here: _Program interns it inline
    if isinstance(e, Neg):
        return ("neg", kids[0], None)
    if isinstance(e, IntPow):
        return ("pow", kids[0], e.exponent)
    if isinstance(e, Call):
        return (e.fn, kids[0], None)
    if isinstance(e, Const):
        return ("const", repr(e.value), e.value)
    if isinstance(e, Table):
        return ("table", e.pairs, None)
    idx = spatial_index(e.name)
    return ("eps", None, None) if idx == 0 else ("x", idx - 1, e.name)


def _evaluate(roots, eps_values, points, sup: bool) -> list:
    """The one evaluation kernel behind :func:`eval_points` and
    :func:`eval_many`: one array (len(eps_values), n) per root, or with
    ``sup`` one array (len(eps_values),) of max |root| over the rows.

    Nodes free of x are computed once, as (1 or n_eps, 1) columns; the rest
    chunk by chunk of rows, as (1 or n_eps, rows) slabs, where the first axis
    is 1 for nodes free of eps.  Every slab is written in place into a
    buffer of one arena per call (:func:`_arena`), which the program's
    buffer schedule hands on once a slab's last reader has run; the ragged
    last chunk uses the prefix of each buffer.  A root is emitted right after
    its last reader: with ``sup`` its |v| is folded into the running maxima
    per eps in place, otherwise its rows are copied out; then its slab is
    freed like any other.
    """
    for value in eps_values:
        if not value > 0:
            raise ValueError(f"eps must be positive, got {value!r}")
    eps_values = [float(v) for v in eps_values]
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError("points must be a 2-d array of shape (n, d)")
    prog = _Program(roots)
    n_eps, (n, d) = len(eps_values), X.shape
    if n_eps == 0:
        return [np.empty(0) if sup else np.empty((0, n)) for _ in roots]
    run = _Run(prog, np.array(eps_values)[:, None], X)
    with np.errstate(all="ignore"):
        hoisted = [None] * len(prog.code)
        run.execute(prog.hoisted, hoisted, 0, 0, None)
        if sup:
            # a max of |v| is 0 or more, or NaN, which np.maximum keeps
            outs = [np.zeros(n_eps if prog.on_eps[slot] else 1) for slot in prog.roots]
            chunk_max = np.empty(n_eps)
        else:
            outs = [np.empty((n_eps, n)) for _ in roots]
        for k, slot in enumerate(prog.roots):
            # over no points a root holds no value: its sup stays 0
            if not prog.on_x[slot] and n:
                v = hoisted[slot]
                if sup:
                    outs[k] = np.abs(v[:, 0])
                else:
                    outs[k][:] = v

        def emit(i, values, start, stop):
            for k in prog.emits[i]:
                v = values[prog.roots[k]]
                if sup:
                    # the root's last reader has run, so its slab is ours
                    np.abs(v, out=v)
                    chunk = np.max(v, axis=1, out=chunk_max[: len(v)], initial=0.0)
                    np.maximum(outs[k], chunk, out=outs[k])
                else:
                    outs[k][:, start:stop] = v

        if prog.chunked:
            step = SLAB_ELEMENTS if not any(prog.tall) else max(1, 2 * SLAB_ELEMENTS // n_eps)
            if step >= 8:
                step -= step % 8
            step = max(1, min(step, n))
            arena = _arena([(n_eps if tall else 1) * step for tall in prog.tall])
            chunks = [(s, min(s + step, n)) for s in range(0, n, step)] or [(0, 0)]
            width = None
            for start, stop in chunks:
                if stop - start != width:
                    width = stop - start
                    slabs = _slabs(arena, prog, n_eps, width)
                run.execute(prog.chunked, list(hoisted), start, stop, slabs, emit)
    if run.failure is not None:
        root, k, slot, row, reason = run.failure
        point = None if row is None else (X[row] if d else ())
        raise EvalError(reason, prog.nodes[slot], eps=eps_values[k], point=point, root=root)
    if sup:
        outs = [np.broadcast_to(m, (n_eps,)).copy() for m in outs]
    return outs


def _arena(sizes) -> list:
    """One buffer of at least ``sizes[b]`` floats for each b, all cut from one
    allocation, each starting on a 64-byte cache line."""
    sizes = [-(-size // 8) * 8 for size in sizes]
    block = np.empty(sum(sizes) + 7)
    start = -block.__array_interface__["data"][0] % 64 // 8
    buffers = []
    for size in sizes:
        buffers.append(block[start : start + size])
        start += size
    return buffers


def _slabs(arena: list, prog: _Program, n_eps: int, width: int) -> list:
    """The slab of each chunk-stage instruction for chunks of ``width``
    rows: the (n_eps or 1, width) prefix of its arena buffer."""
    views = []
    for buf, tall in zip(arena, prog.tall):
        height = n_eps if tall else 1
        views.append(buf[: height * width].reshape(height, width))
    return [views[b] for b in prog.buffer]


class _Run:
    """Executes a program's instructions and keeps the first failure: the
    least (root, eps index, slot), where root is the root whose walk first
    reached the slot, then the first bad row.  That is the failure a loop
    over the roots, each evaluated eps by eps, meets first: the first root
    to fail is the first to reach a failing slot, and the slots it reached
    first keep the order of its own walk."""

    def __init__(self, prog: _Program, eps_column: np.ndarray, X: np.ndarray):
        self.prog = prog
        self.eps_column = eps_column
        self.X = X
        self.failure = None  # (root, eps index, slot, row or None, reason)

    def fail(self, k: int, slot: int, row, reason: str):
        key = (bisect.bisect_right(self.prog.ends, slot), k, slot)
        if self.failure is None or key < self.failure[:3]:
            self.failure = (*key, row, reason)

    def check(self, op: str, x: np.ndarray, y, slot: int, start: int):
        reason, rule = _DOMAIN[op]
        bad = rule(x, y)
        if bad is not None and self.X.shape[0] and bad.any():
            k = int(np.argmax(bad.any(axis=1)))
            self.fail(k, slot, start + int(np.argmax(bad[k])), reason)

    def execute(self, order, values, start: int, stop: int, slabs, emit=None):
        """Compute the slots of ``order`` into ``values``: into new arrays
        without ``slabs``, else into ``slabs[i]`` for ``order[i]``, with rows
        start:stop of the points.  ``emit(i, values, start, stop)`` runs
        after each instruction i that has roots to emit."""
        code, emits = self.prog.code, self.prog.emits
        for i, slot in enumerate(order):
            op, a, b = code[slot]
            out = None if slabs is None else slabs[i]
            if op == "x":
                # copied, so every operand of the chunk is contiguous and aligned
                if a < self.X.shape[1]:
                    np.copyto(out, self.X[start:stop, a])
                else:
                    reason = f"variable {b} undefined in dimension {self.X.shape[1]}"
                    self.fail(0, slot, None, reason)
                    out.fill(np.nan)
                v = out
            elif op == "eps":
                v = self.eps_column
            elif op == "const":
                v = np.full((1, 1), b)
            elif op == "table":
                v = self._table(a, slot)
            else:
                x = values[a]
                y = values[b] if op in _BINARY else b
                if op in _DOMAIN:
                    self.check(op, x, y, slot, start)
                v = _OPS[op](x, out=out) if y is None else _OPS[op](x, y, out=out)
            values[slot] = v
            if emit is not None and emits[i]:
                emit(i, values, start, stop)

    def _table(self, pairs, slot: int) -> np.ndarray:
        lookup = {}
        for grid_eps, value in pairs:
            lookup.setdefault(grid_eps, value)
        column = np.array([lookup.get(e, np.nan) for e in self.eps_column[:, 0].tolist()])
        missing = [k for k, e in enumerate(self.eps_column[:, 0].tolist()) if e not in lookup]
        if missing:
            self.fail(missing[0], slot, None, "eps is not a grid point of the table")
        return column[:, None]


# ---------------------------------------------------------------------------
# Folding constructors (constant folding only; used when building derivatives
# and substitutions, never by the parser)


def _fold(op: str, a: Expr, b=None):
    """The constant ``op`` gives on ``a`` and ``b`` (the second operand, the
    exponent of ``pow``, or None), or None unless every operand is a Const,
    no domain rule fires and the value is finite."""
    if not isinstance(a, Const) or op in _BINARY and not isinstance(b, Const):
        return None
    x, y = a.value, (b.value if op in _BINARY else b)
    if op in _DOMAIN and _DOMAIN[op][1](x, y):
        return None
    if op in _PLAIN:
        value = _PLAIN[op](x) if y is None else _PLAIN[op](x, y)
    else:
        with np.errstate(all="ignore"):
            value = float(_OPS[op](x) if y is None else _OPS[op](x, y))
    return Const(value) if math.isfinite(value) else None


def c_add(a: Expr, b: Expr) -> Expr:
    if (folded := _fold("+", a, b)) is not None:
        return folded
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def c_sub(a: Expr, b: Expr) -> Expr:
    if (folded := _fold("-", a, b)) is not None:
        return folded
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return c_neg(b)
    return BinOp("-", a, b)


def c_mul(a: Expr, b: Expr) -> Expr:
    if (folded := _fold("*", a, b)) is not None:
        return folded
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def c_div(a: Expr, b: Expr) -> Expr:
    if (folded := _fold("/", a, b)) is not None:
        return folded
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and a.value == 0.0 and not isinstance(b, Const):
        return Const(0.0)
    return BinOp("/", a, b)


def c_neg(a: Expr) -> Expr:
    if (folded := _fold("neg", a)) is not None:
        return folded
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def c_intpow(a: Expr, n: int) -> Expr:
    if n == 0:
        return Const(1.0)
    if n == 1:
        return a
    folded = _fold("pow", a, n)
    return IntPow(a, n) if folded is None else folded


def c_call(fn: str, a: Expr) -> Expr:
    folded = _fold(fn, a)
    return Call(fn, a) if folded is None else folded


# ---------------------------------------------------------------------------
# Differentiation


def _var_name(var) -> str:
    if isinstance(var, Var):
        return var.name
    if isinstance(var, int):
        if not 1 <= var <= MAX_SPATIAL_VARS:
            raise ValueError(f"spatial variable index must be in 1..{MAX_SPATIAL_VARS}")
        return f"x{var}"
    if isinstance(var, str):
        spatial_index(var)  # validates
        return var
    raise TypeError(f"not a variable: {var!r}")


def partial(e: Expr, var) -> Expr:
    """Exact symbolic partial derivative with respect to a spatial variable
    (1-based index or name) or ``"eps"``."""
    return _d(e, _var_name(var), {})


def _d(e: Expr, v: str, memo: dict) -> Expr:
    """d e / d v.  ``memo`` maps id(node) to the node and its derivative, so
    a subtree shared by reference is differentiated once; holding the node
    keeps its id from being reused while the memo lives, so one memo per
    variable can serve several calls."""
    hit = memo.get(id(e))
    if hit is None:
        hit = memo[id(e)] = (e, _d_node(e, v, memo))
    return hit[1]


def _d_node(e: Expr, v: str, memo: dict) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == v else 0.0)
    if isinstance(e, Table):
        if v == "eps":
            raise ValueError("a tabulated scalar has no eps-derivative")
        return Const(0.0)
    if isinstance(e, Neg):
        return c_neg(_d(e.arg, v, memo))
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = _d(a, v, memo), _d(b, v, memo)
        if e.op == "+":
            return c_add(da, db)
        if e.op == "-":
            return c_sub(da, db)
        if e.op == "*":
            return c_add(c_mul(da, b), c_mul(a, db))
        return c_div(c_sub(c_mul(da, b), c_mul(a, db)), c_intpow(b, 2))
    if isinstance(e, IntPow):
        du = _d(e.base, v, memo)
        return c_mul(c_mul(Const(float(e.exponent)), c_intpow(e.base, e.exponent - 1)), du)
    if isinstance(e, Call):
        u = e.arg
        du = _d(u, v, memo)
        if e.fn == "sin":
            return c_mul(c_call("cos", u), du)
        if e.fn == "cos":
            return c_neg(c_mul(c_call("sin", u), du))
        if e.fn == "exp":
            return c_mul(c_call("exp", u), du)
        if e.fn == "cosh":
            return c_mul(c_call("sinh", u), du)
        if e.fn == "sinh":
            return c_mul(c_call("cosh", u), du)
        if e.fn == "tanh":
            return c_mul(c_sub(Const(1.0), c_intpow(c_call("tanh", u), 2)), du)
        if e.fn == "sqrt":
            return c_div(du, c_mul(Const(2.0), c_call("sqrt", u)))
        if e.fn == "ln":
            return c_div(du, u)
    raise TypeError(f"not an expression node: {e!r}")


def partial_multi(e: Expr, alpha, memos=None) -> Expr:
    """Apply ``partial`` along each spatial axis the number of times given by
    the multi-index ``alpha``.

    ``memos`` maps an axis name to its derivative memo; calls that share it
    differentiate each node along an axis once between them and return the
    same trees as calls without it."""
    orders = alpha.orders if isinstance(alpha, MultiIndex) else tuple(alpha)
    memos = {} if memos is None else memos
    out = e
    for axis, order in enumerate(orders, start=1):
        name = f"x{axis}"
        for _ in range(order):
            out = _d(out, name, memos.setdefault(name, {}))
    return out


def _derivative_family(e: Expr, alphas) -> tuple:
    """``partial_multi(e, alpha)`` for each multi-index in ``alphas``, each
    built by one ``partial_multi`` step from its parent alpha - e_k, k the
    last axis of nonzero order.  ``partial_multi`` differentiates along the
    last such axis last, so every body is the tree ``partial_multi(e, alpha)``
    gives, and each body shares its parent's nodes.  The steps share one
    derivative memo per axis, so a node several bodies hold is
    differentiated along each axis once for the whole family.  Parents are
    built before their children in a loop, so no closure holds the bodies in
    a reference cycle and they are freed as soon as the caller drops them."""
    bodies, memos = {}, {}
    for alpha in alphas:
        # walk down to a built ancestor (or alpha = 0), then build back up
        orders, steps = alpha, []
        while orders not in bodies and any(orders):
            k = max(i for i, o in enumerate(orders) if o)
            steps.append(tuple(int(i == k) for i in range(len(orders))))
            orders = orders[:k] + (orders[k] - 1,) + orders[k + 1:]
        body = bodies.get(orders, e)
        for step in reversed(steps):
            orders = tuple(o + s for o, s in zip(orders, step))
            # looked up by name, so a tracer that rebinds it sees each step
            body = bodies[orders] = partial_multi(body, step, memos)
    return tuple(bodies.get(alpha, e) for alpha in alphas)


# ---------------------------------------------------------------------------
# Substitution


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, rebuilding with constant folding."""
    if isinstance(e, (Const, Table)):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return c_neg(subst(e.arg, mapping))
    if isinstance(e, BinOp):
        a = subst(e.left, mapping)
        b = subst(e.right, mapping)
        return {"+": c_add, "-": c_sub, "*": c_mul, "/": c_div}[e.op](a, b)
    if isinstance(e, IntPow):
        return c_intpow(subst(e.base, mapping), e.exponent)
    if isinstance(e, Call):
        return c_call(e.fn, subst(e.arg, mapping))
    raise TypeError(f"not an expression node: {e!r}")

"""A minimal smooth expression language: parser, printer, evaluator and exact
symbolic forward differentiation.

Expressions are one interned DAG (a node per structure, :class:`Expr`) over
real constants, the scale variable ``eps``, spatial variables ``x1`` ..
``x9``, the four arithmetic operations, integer powers and a fixed set of
C-infinity primitives, closed under differentiation.  Differentiation,
substitution, the printer and the evaluator's compiler walk it with
explicit stacks: only the parser's nesting of parentheses is bounded by
Python's recursion limit.  A :class:`Table` leaf holds a scalar known only
at finitely many eps (an angle read off a net-valued matrix eps by eps);
it is constant in space and has no eps-derivative.
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
import threading
import weakref
from typing import Mapping, Sequence

import numpy as np

from .report import _DATACLASS_FIELDS, _assigner, _set_field, record

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

#: Weak reference to the one live node of each intern key: class and fields,
#: a child by its ``id`` (the node holds the child, so the id is its) and a
#: constant by the ``repr`` of its value (0.0 and -0.0 are two nodes).
_NODES = {}
#: Reentrant: a node may die, and its entry leave, while another is built.
_NODES_LOCK = threading.RLock()


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref):
    with _NODES_LOCK:
        # the key may already name a newer node if this one died in a gc pass
        if _NODES.get(ref.key) is ref:
            del _NODES[ref.key]


def _intern(cls, key: tuple, fields: tuple, children: tuple, mask: int):
    with _NODES_LOCK:
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            cls._assign(node, fields)
            _set_field(node, "children", children)
            _set_field(node, "mask", mask)
            _set_field(node, "_hash", hash(fields))
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node


class Expr:
    """Base class of expression nodes, which are immutable and interned:
    building a node equal in structure to a live one returns that node, so
    structural equality is identity.  A node holds, computed when it is
    built, its ``hash`` (a record's: that of the tuple of its fields), its
    ``children`` (left to right) and the ``mask`` of the variables it reads
    (bit 0 eps, bit i x_i).  A subclass's ``__slots__`` are its fields, as
    ``dataclasses.fields`` reports them."""

    __slots__ = ("children", "mask", "_hash", "__weakref__")

    def __init_subclass__(cls):
        cls._fields = cls.__slots__
        cls._assign = staticmethod(_assigner(cls.__slots__))
        cls.__dataclass_fields__ = _DATACLASS_FIELDS

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __str__(self) -> str:
        return to_text(self)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        return _intern(cls, (cls, repr(value)), (value,), (), 0)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), (name,), (), 1 << spatial_index(name))


class Neg(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg: Expr):
        return _intern(cls, (cls, id(arg)), (arg,), (arg,), arg.mask)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # op: one of + - * /

    def __new__(cls, op: str, left: Expr, right: Expr):
        return _intern(cls, (cls, op, id(left), id(right)), (op, left, right), (left, right),
                       left.mask | right.mask)


class IntPow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        return _intern(cls, (cls, id(base), exponent), (base, exponent), (base,), base.mask)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        return _intern(cls, (cls, fn, id(arg)), (fn, arg), (arg,), arg.mask)


class Table(Expr):
    """A scalar given by ``((eps, value), ...)`` pairs; any other eps is an
    evaluation error."""

    __slots__ = ("pairs",)

    def __new__(cls, pairs: tuple):
        return _intern(cls, (cls, pairs), (pairs,), (), 1)


_children = operator.attrgetter("children")


def _post_order(root: Expr, done):
    """Each node of ``root`` not in ``done``, children first, left to right;
    the caller puts each node it is given into ``done`` before the next."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:  # (node,): its children are done
            yield node[0]
        elif node not in done:
            stack.append((node,))
            stack.extend(reversed(node.children))


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
    names = {f"x{i}" for i in range(1, MAX_SPATIAL_VARS + 1) if e.mask >> i & 1}
    return names | {"eps"} if e.mask & 1 else names


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


def format_const(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):
        raise ValueError(f"non-finite constant {value!r} is not printable")
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def to_text(e: Expr) -> str:
    """Render an expression; the output re-parses to the same node.

    A :class:`Table` prints as ``table[N]`` (N pairs), which is for messages
    only and does not parse."""
    out, stack = [], [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(*item)))
    return "".join(out)


def _pieces(e: Expr, min_prec: int) -> list:
    """The text of ``e`` where precedence ``min_prec`` binds it: strings,
    and (child, precedence) pairs to print in their place."""
    if isinstance(e, Const):
        s = format_const(e.value)
        return ["(", s, ")"] if e.value < 0 and min_prec >= _PREC_POW else [s]
    if isinstance(e, Var):
        return [e.name]
    if isinstance(e, Table):
        return [f"table[{len(e.pairs)}]"]
    if isinstance(e, Call):
        return [f"{e.fn}(", (e.arg, 0), ")"]
    if isinstance(e, Neg):
        parts = ["-(", (e.arg, 0), ")"] if isinstance(e.arg, BinOp) else ["-", (e.arg, _PREC_POW)]
        wrap = min_prec >= _PREC_POW
    elif isinstance(e, IntPow):
        if isinstance(e.base, (BinOp, IntPow)):
            parts = ["(", (e.base, 0), ")"]
        else:
            # a Neg or a negative constant parenthesizes itself at this precedence
            parts = [(e.base, _PREC_ATOM)]
        parts.append("^" + (str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"))
        wrap = min_prec > _PREC_POW
    elif isinstance(e, BinOp):
        p = _PREC_ADD if e.op in "+-" else _PREC_MUL
        parts = [(e.left, p), e.op, (e.right, p + 1)]
        wrap = p < min_prec
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return ["(", *parts, ")"] if wrap else parts


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
    """The nodes of a family of expressions, one slot each, in evaluation order.

    The order is the post-order of a left-to-right walk, root by root, first
    occurrence first, so among the slots one root's walk reached first, the
    first failing one is the node a recursive evaluation would stop at.
    ``code[slot]`` is ``(op, a, b)``: child slots or leaf data.  ``ends[r]``
    is the slot count after root r's walk, so the root whose walk first
    reached a slot is ``bisect_right(ends, slot)``.
    """

    def __init__(self, roots):
        self.code, self.nodes, self.on_eps, self.on_x, self.ends = [], [], [], [], []
        reader = []  # reader[slot]: the last slot that reads it, or the slot itself
        slots = {}
        for root in roots:
            for node in _post_order(root, slots):
                slot = slots[node] = len(self.code)
                kids = [slots[k] for k in node.children]
                self.code.append(_instruction(node, kids))
                self.nodes.append(node)
                reader.append(slot)
                for k in kids:
                    reader[k] = slot
                self.on_eps.append(bool(node.mask & 1))
                self.on_x.append(node.mask > 1)
            self.ends.append(len(self.code))
        self.roots = [slots[r] for r in roots]
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


def _instruction(e: Expr, kids) -> tuple:
    if isinstance(e, BinOp):
        return (e.op, *kids)
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
    idx = spatial_index(e.name)  # a Var
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
        lookup = dict(reversed(pairs))  # the first pair of an eps holds
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
    for c, other in ((a, b), (b, a)):
        if isinstance(c, Const) and c.value in (0.0, 1.0):
            return Const(0.0) if c.value == 0.0 else other
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
    """d e / d v.  ``memo`` maps each node differentiated along v to its
    derivative, so calls that share it differentiate each node once."""
    for node in _post_order(e, memo):
        memo[node] = _d_node(node, v, memo)
    return memo[e]


def _d_node(e: Expr, v: str, memo: dict) -> Expr:
    """d e / d v, given the derivative of each child of ``e`` in ``memo``."""
    if isinstance(e, (Const, Var, Table)):
        if isinstance(e, Table) and v == "eps":
            raise ValueError("a tabulated scalar has no eps-derivative")
        return Const(1.0 if isinstance(e, Var) and e.name == v else 0.0)
    if isinstance(e, Neg):
        return c_neg(memo[e.arg])
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = memo[a], memo[b]
        if e.op == "+":
            return c_add(da, db)
        if e.op == "-":
            return c_sub(da, db)
        if e.op == "*":
            return c_add(c_mul(da, b), c_mul(a, db))
        return c_div(c_sub(c_mul(da, b), c_mul(a, db)), c_intpow(b, 2))
    if isinstance(e, IntPow):
        du = memo[e.base]
        return c_mul(c_mul(Const(float(e.exponent)), c_intpow(e.base, e.exponent - 1)), du)
    return _CHAIN[e.fn](e.arg, memo[e.arg])


#: The chain rule of each function: d fn(u) from u and du.
_CHAIN = {
    "sin": lambda u, du: c_mul(c_call("cos", u), du),
    "cos": lambda u, du: c_neg(c_mul(c_call("sin", u), du)),
    "exp": lambda u, du: c_mul(c_call("exp", u), du),
    "cosh": lambda u, du: c_mul(c_call("sinh", u), du),
    "sinh": lambda u, du: c_mul(c_call("cosh", u), du),
    "tanh": lambda u, du: c_mul(c_sub(Const(1.0), c_intpow(c_call("tanh", u), 2)), du),
    "sqrt": lambda u, du: c_div(du, c_mul(Const(2.0), c_call("sqrt", u))),
    "ln": lambda u, du: c_div(du, u),
}


def partial_multi(e: Expr, alpha, memos=None) -> Expr:
    """Apply ``partial`` along each spatial axis the number of times given by
    the multi-index ``alpha``.

    ``memos`` maps an axis name to its derivative memo; calls that share it
    differentiate each node along an axis once between them."""
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
    gives.  The steps share one derivative memo per axis, so each node is
    differentiated along each axis once for the whole family."""
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
    out = {}
    for node in _post_order(e, out):
        if isinstance(node, Var):
            new = mapping.get(node.name, node)
        elif isinstance(node, Neg):
            new = c_neg(out[node.arg])
        elif isinstance(node, BinOp):
            new = _FOLDING[node.op](out[node.left], out[node.right])
        elif isinstance(node, IntPow):
            new = c_intpow(out[node.base], node.exponent)
        elif isinstance(node, Call):
            new = c_call(node.fn, out[node.arg])
        else:
            new = node  # a Const or a Table
        out[node] = new
    return out[e]


_FOLDING = {"+": c_add, "-": c_sub, "*": c_mul, "/": c_div}

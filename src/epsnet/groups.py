"""Planar rotations, hyperbolic rotations, translations and their compositions.

A group element is held as one coordinate expression per axis: it acts on
nets by substitution and on points by evaluating those expressions.  Angles
and offsets may be plain reals or scalar nets in eps; in the latter case the
element depends on the scale parameter and ``eps`` must be supplied when the
element is applied numerically.  Angles produced by per-eps factorization are
tabulated nets: they compose symbolically like any other net, but evaluate
only at the eps of their own grid.  Such an angle is evaluated only through its
element (:meth:`GroupElement.apply_points`); a factor with a real angle also
gives its numeric matrix, which the factorizations use.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence, Union

import numpy as np

from . import expr as ex
from .colombeau import Net
from .report import record

Angle = Union[float, Net]


def _scalar_expr(value: Angle) -> ex.Expr:
    if isinstance(value, Net):
        return value.body
    return ex.Const(float(value))


def _scalar_json(value: Angle):
    if isinstance(value, Net) and isinstance(value.body, ex.Table):
        return {"table": [[e, v] for e, v in value.body.pairs]}
    if isinstance(value, Net):
        return ex.to_text(value.body)
    return ex.format_const(float(value))


@record
class PlanarFactor:
    """One rotation or boost acting in the (e_i, e_j) coordinate plane."""

    kind: str  # "rotation" | "boost"
    i: int
    j: int
    theta: Angle

    def __post_init__(self):
        if self.kind not in ("rotation", "boost"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if not 1 <= self.i < self.j:
            raise ValueError(f"need 1 <= i < j, got ({self.i}, {self.j})")

    def theta_expr(self) -> ex.Expr:
        return _scalar_expr(self.theta)

    def matrix(self, dimension: int) -> np.ndarray:
        """The numeric matrix of a factor with a real angle."""
        if isinstance(self.theta, Net):
            raise ValueError("a generalized angle has no numeric matrix; apply the element at an eps")
        if self.j > dimension:
            raise ValueError(f"factor axes ({self.i},{self.j}) exceed dimension {dimension}")
        th = float(self.theta)
        M = np.eye(dimension)
        ii, jj = self.i - 1, self.j - 1
        if self.kind == "rotation":
            c, s = math.cos(th), math.sin(th)
            M[ii, jj] = -s
        else:
            c, s = math.cosh(th), math.sinh(th)
            M[ii, jj] = s
        M[ii, ii], M[jj, ii], M[jj, jj] = c, s, c
        return M

    def compose_exprs(self, coords: Sequence[ex.Expr]) -> list:
        """Left-compose this factor onto coordinate expressions."""
        th = self.theta_expr()
        ii, jj = self.i - 1, self.j - 1
        out = list(coords)
        if self.kind == "rotation":
            c, s = ex.c_call("cos", th), ex.c_call("sin", th)
            out[ii] = ex.c_sub(ex.c_mul(c, coords[ii]), ex.c_mul(s, coords[jj]))
        else:
            c, s = ex.c_call("cosh", th), ex.c_call("sinh", th)
            out[ii] = ex.c_add(ex.c_mul(c, coords[ii]), ex.c_mul(s, coords[jj]))
        out[jj] = ex.c_add(ex.c_mul(s, coords[ii]), ex.c_mul(c, coords[jj]))
        return out

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "i": self.i, "j": self.j, "theta": _scalar_json(self.theta)}


@record
class Translation:
    """Translation by a vector of reals or scalar nets."""

    offset: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "offset",
            tuple(o if isinstance(o, Net) else float(o) for o in self.offset),
        )

    def compose_exprs(self, coords: Sequence[ex.Expr]) -> list:
        return [ex.c_add(c, _scalar_expr(o)) for c, o in zip(coords, self.offset)]

    def to_json_dict(self) -> dict:
        return {"kind": "translation", "offset": [_scalar_json(o) for o in self.offset]}


class GroupElement:
    """A transformation of R^d held as coordinate expressions in x1..xd (and
    eps).

    Every constructor builds the coordinates once; the element computes with
    nothing else.  ``source`` keeps the JSON form of a factor or matrix
    element, which :meth:`to_json_dict` returns; other elements write their
    coordinates.  Elements are immutable and safe to share.
    """

    __slots__ = ("dimension", "coords", "source")

    def __init__(self, dimension: int, coords, source: Optional[dict] = None):
        self.dimension = int(dimension)
        self.coords = tuple(coords)
        if len(self.coords) != self.dimension:
            raise ValueError("need one coordinate expression per axis")
        self.source = source

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, dimension: int) -> "GroupElement":
        return cls.from_factors(dimension, ())

    @classmethod
    def from_factors(cls, dimension: int, factors) -> "GroupElement":
        """The product of ``factors``, applied right to left."""
        dimension, factors = int(dimension), tuple(factors)
        for f in factors:
            if isinstance(f, PlanarFactor) and f.j > dimension:
                raise ValueError(f"factor axes exceed dimension {dimension}")
            if isinstance(f, Translation) and len(f.offset) != dimension:
                raise ValueError("translation offset length must equal dimension")
        coords = [ex.Var(f"x{k}") for k in range(1, dimension + 1)]
        for f in reversed(factors):
            coords = f.compose_exprs(coords)
        source = {"factors": [f.to_json_dict() for f in factors], "dimension": dimension}
        return cls(dimension, coords, source)

    @classmethod
    def rotation(cls, dimension: int, i: int, j: int, theta: Angle) -> "GroupElement":
        return cls.from_factors(dimension, (PlanarFactor("rotation", i, j, theta),))

    @classmethod
    def boost(cls, dimension: int, i: int, j: int, theta: Angle) -> "GroupElement":
        return cls.from_factors(dimension, (PlanarFactor("boost", i, j, theta),))

    @classmethod
    def translation(cls, dimension: int, offset) -> "GroupElement":
        return cls.from_factors(dimension, (Translation(tuple(offset)),))

    @classmethod
    def from_matrix(cls, matrix) -> "GroupElement":
        """The linear map x -> M x; entries are reals or scalar nets."""
        rows = [list(r) for r in matrix]
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValueError("matrix must be square of size dimension")
        coords = []
        for row in rows:
            acc = ex.Const(0.0)
            for k, entry in enumerate(row):
                acc = ex.c_add(acc, ex.c_mul(_scalar_expr(entry), ex.Var(f"x{k + 1}")))
            coords.append(acc)
        source = {"matrix": [[_scalar_json(v) for v in row] for row in rows], "dimension": d}
        return cls(d, coords, source)

    # -- structure ----------------------------------------------------------

    @property
    def is_generalized(self) -> bool:
        return any("eps" in ex.variables(c) for c in self.coords)

    def apply_points(self, X, eps=None, sup: bool = False) -> np.ndarray:
        """Images of the rows of ``X`` (or of one point) at one eps; ``eps``
        may be omitted when the element does not depend on it.

        With ``sup``, ``eps`` is a sequence and the result is the per-axis max
        |image| over the rows per eps, shape (len(eps), d), from one compiled
        pass."""
        if sup != (np.ndim(eps) == 1):
            raise ValueError("a sequence of eps goes with sup=True, one eps without it")
        X = np.asarray(X, dtype=float)
        squeeze = X.ndim == 1
        if squeeze:
            X = X[None, :]
        if X.shape[1] != self.dimension:
            raise ValueError(f"points have dimension {X.shape[1]}, element {self.dimension}")
        if eps is None:
            if self.is_generalized:
                raise ValueError("eps is required: element depends on eps")
            eps = 0.5  # irrelevant placeholder, no eps in the expressions
        columns = ex.eval_many(self.coords, eps, X, sup=sup)
        Y = np.array(columns).reshape(self.dimension, len(eps) if sup else len(X)).T
        return Y[0] if squeeze and not sup else Y

    def to_json_dict(self) -> dict:
        return self.source or {
            "coords": [ex.to_text(c) for c in self.coords],
            "dimension": self.dimension,
        }


def element_from_json(data: dict) -> GroupElement:
    """Inverse of :meth:`GroupElement.to_json_dict` (numeric or expression
    valued entries; tabulated angles round-trip as tables).  ``dimension``,
    ``i`` and ``j`` must be integers, numeric entries finite numbers, of
    which a boolean is none, and ``offset``, ``matrix``, its rows and
    ``coords`` arrays; the ValueError otherwise shows the JSON value."""

    def integer(v, name: str) -> int:
        if type(v) is not int:  # 1.7 is no axis, and true is no number
            raise ValueError(f"{name} must be an integer, got {json.dumps(v, default=repr)}")
        return v

    def array(v, name: str):
        if not isinstance(v, (list, tuple)):  # a string is no array of its characters
            raise ValueError(f"{name} must be an array, got {json.dumps(v, default=repr)}")
        return v

    def number(v) -> float:
        value = float(v)
        if isinstance(v, bool) or not math.isfinite(value):
            raise ValueError(f"entries must be finite numbers, got {json.dumps(v, default=repr)}")
        return value

    def scalar(v):
        if isinstance(v, dict) and "table" in v:
            return Net.tabulated([(number(e), number(x)) for e, x in v["table"]])
        if not isinstance(v, (int, float)):
            try:
                v = float(str(v))
            except ValueError:
                return Net(ex.parse(str(v), 0), 0)
        return number(v)

    if "matrix" in data:
        rows = [[scalar(v) for v in array(row, "a matrix row")]
                for row in array(data["matrix"], "matrix")]
        element = GroupElement.from_matrix(rows)
        if integer(data.get("dimension", element.dimension), "dimension") != element.dimension:
            raise ValueError(f"a {element.dimension}x{element.dimension} matrix is not of "
                             f"dimension {data['dimension']}")
        return element
    if "coords" in data:
        coords = array(data["coords"], "coords")
        d = integer(data.get("dimension", len(coords)), "dimension")
        return GroupElement(d, (ex.parse(t, d) for t in coords))
    factors = []
    for f in data["factors"]:
        if f.get("kind") == "translation":
            factors.append(Translation(tuple(scalar(v) for v in array(f["offset"], "offset"))))
        else:
            i, j = integer(f["i"], "i"), integer(f["j"], "j")
            factors.append(PlanarFactor(f["kind"], i, j, scalar(f["theta"])))
    return GroupElement.from_factors(integer(data["dimension"], "dimension"), factors)


def compose_net(f: Net, g: GroupElement) -> Net:
    """Substitute the coordinate expressions of ``g`` into ``f``.

    Callers are responsible for the compact-boundedness of ``g`` on the boxes
    they use downstream; the verify pipelines check it strictly.
    """
    if g.dimension != f.dimension:
        raise ValueError("element dimension does not match net dimension")
    mapping = {f"x{k + 1}": g.coords[k] for k in range(f.dimension)}
    return Net(ex.subst(f.body, mapping), f.dimension)


def planar_flow(kind: str, dimension: int, i: int, j: int):
    """The canonical rotation/boost flow as a theta -> GroupElement factory."""

    def factory(theta: Angle) -> GroupElement:
        return GroupElement.from_factors(dimension, (PlanarFactor(kind, i, j, theta),))

    return factory

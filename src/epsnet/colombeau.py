"""Nets of smooth functions and their small-parameter asymptotics.

A net is an expression in ``eps`` and spatial variables, understood as a
family of smooth functions indexed by the scale parameter.  This module
measures derivative sup-norms of a net over compact boxes along a decreasing
grid of eps values, fits the decay exponent on a log-log scale, and issues
the desk-scale verdicts used throughout the package: moderate growth,
negligibility at a given order, boundedness, and compact-boundedness of
maps given eps by eps.

All verdicts are semi-decisions over finite grid evidence, and a report
carries the per-eps sups they were read from (noise-snapped in verify).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from . import expr as ex
from .report import Record, record

DEFAULT_P_MAX = 8
DEFAULT_RC_BOUND = 1e6
#: Tolerance on fitted log-log slopes when testing "no growth trend";
#: O(1) oscillatory data legitimately fits to slightly negative slopes.
SLOPE_TOL = 0.1
#: Most points a sample lattice may have, checked before it is built.  The
#: lattice is held whole, samples^d rows of d floats (302 MB at d = 9, twice
#: that while it is built), and every harness evaluates each row at each
#: eps, so a larger one costs minutes or fails inside numpy's allocator.
#: The largest lattices of the tests and the benchmark are 33^4 = 1,185,921
#: and 33^3 = 35,937 points.
MAX_LATTICE_POINTS = 2**22


@record
class EpsilonGrid:
    """Strictly decreasing sample of the scale parameter inside (0, 1), of at
    least two values: a decay exponent fitted to one value would read 0."""

    values: tuple

    def __post_init__(self):
        vals = self.values
        if len(vals) < 2:
            raise ValueError(f"an epsilon grid needs at least two values, got {len(vals)}")
        if any(not (0.0 < v < 1.0) for v in vals):
            raise ValueError("epsilon grid values must lie in (0, 1)")
        if any(vals[i + 1] >= vals[i] for i in range(len(vals) - 1)):
            raise ValueError("epsilon grid must be strictly decreasing")

    @classmethod
    def dyadic(cls, k_min: int = 4, k_max: int = 40) -> "EpsilonGrid":
        if not 0 < k_min < k_max:
            raise ValueError(f"need 0 < k_min < k_max (two eps at least), got {k_min} and {k_max}")
        return cls(tuple(2.0**-k for k in range(k_min, k_max + 1)))

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


@record
class CompactBox:
    """Axis-aligned compact box with a uniform sample lattice."""

    intervals: tuple
    samples_per_axis: int = 33

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("box endpoints must be finite")
            if a > b:
                raise ValueError(f"empty interval [{a}, {b}]")
        if self.samples_per_axis < 2:
            raise ValueError("need at least 2 samples per axis")

    @classmethod
    def cube(cls, lo: float, hi: float, dimension: int, samples_per_axis: int = 33) -> "CompactBox":
        return cls(tuple((lo, hi) for _ in range(dimension)), samples_per_axis)

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    def lattice(self) -> np.ndarray:
        """All sample points as a read-only array of shape (samples^d, d),
        C-ordered.  Built on the first call; later calls return the same
        array.  More than ``MAX_LATTICE_POINTS`` points raise ValueError."""
        points = self.__dict__.get("_lattice")
        if points is None:
            size = self.samples_per_axis ** self.dimension
            if size > MAX_LATTICE_POINTS:
                raise ValueError(f"a lattice of {self.samples_per_axis}^{self.dimension} = {size} "
                                 f"points exceeds the ceiling of {MAX_LATTICE_POINTS} points")
            if self.dimension == 0:
                points = np.zeros((1, 0))
            else:
                axes = [np.linspace(a, b, self.samples_per_axis) for a, b in self.intervals]
                mesh = np.meshgrid(*axes, indexing="ij")
                points = np.stack([m.reshape(-1) for m in mesh], axis=1)
            points.flags.writeable = False
            object.__setattr__(self, "_lattice", points)
        return points

    def contains_box(self, other: "CompactBox", tol: float = 1e-12) -> bool:
        return self.dimension == other.dimension and all(
            a1 - tol <= a2 and b2 <= b1 + tol
            for (a1, b1), (a2, b2) in zip(self.intervals, other.intervals)
        )


@record
class Net:
    """A representative net: an expression in eps and x1..xd.

    ``dimension == 0`` means a generalized number, i.e. an expression in eps
    alone; :meth:`tabulated` builds one known only on its own eps grid.
    """

    body: ex.Expr
    dimension: int

    def __post_init__(self):
        if not 0 <= self.dimension <= ex.MAX_SPATIAL_VARS:
            raise ValueError(f"dimension must be in 0..{ex.MAX_SPATIAL_VARS}")
        for name in ex.variables(self.body):
            if name == "eps":
                continue
            idx = ex.spatial_index(name)
            if idx == 0 or idx > self.dimension:
                raise ValueError(
                    f"body references {name} outside dimension {self.dimension}"
                )

    @classmethod
    def parse(cls, text: str, dimension: int) -> "Net":
        return cls(ex.parse(text, dimension), dimension)

    @classmethod
    def tabulated(cls, pairs) -> "Net":
        """A scalar net from (eps, value) pairs, eps strictly decreasing.

        Produced by per-eps matrix factorizations; evaluating it at an eps
        outside the table raises :class:`~epsnet.expr.EvalError`.
        """
        pairs = tuple((float(e), float(v)) for e, v in pairs)
        if any(pairs[i + 1][0] >= pairs[i][0] for i in range(len(pairs) - 1)):
            raise ValueError("tabulated eps values must be strictly decreasing")
        return cls(ex.Table(pairs), 0)

    def __str__(self) -> str:
        return ex.to_text(self.body)


@record
class AsymptoticReport(Record):
    """Per-eps sup data with the fitted decay exponent and verdicts."""

    sups: tuple  # ((eps, sup), ...) in grid order
    fitted_exponent: float  # +inf sentinel when every sup is zero
    moderate: bool
    negligible_order: int
    bounded: bool


def fit_decay_exponent(pairs: Sequence) -> float:
    """Least-squares slope of log(sup) against log(eps) over the finer half
    of the grid, ignoring zero and non-finite sups.  Returns +inf when the
    data is all zero (or too sparse to fit after underflow)."""
    pairs = list(pairs)
    usable = [(e, s) for e, s in pairs if s > 0.0 and math.isfinite(s)]
    if not usable:
        return math.inf
    finer = [(e, s) for e, s in pairs[len(pairs) // 2 :] if s > 0.0 and math.isfinite(s)]
    pts = finer if len(finer) >= 2 else usable
    if len(pts) < 2:
        return math.inf if any(s == 0.0 for _, s in pairs) else 0.0
    loge = np.log([e for e, _ in pts])
    logs = np.log([s for _, s in pts])
    slope = np.polyfit(loge, logs, 1)[0]
    return float(slope)


def _grows(pairs: Sequence, exponent: Optional[float] = None, swing: float = 1.0) -> bool:
    """The one growth rule: finite (eps, sup) data with fitted ``exponent``
    rise in a sustained way as eps decreases.  The finest sup must exceed
    ``swing`` times the smallest nonzero one, where ``swing`` is the largest
    ratio that is not growth: 1 for a scalar, and sqrt(d') for a max-norm
    image radius in d' dimensions, which an orthogonal map can swing by that
    factor (a rotation by 1/eps is thus c-bounded even on a three-point
    grid); and the slope must lie below -SLOPE_TOL.  The ratio is tested
    first, so data that does not rise costs no fit when ``exponent`` is
    None."""
    positive = [s for _, s in pairs if s > 0.0 and math.isfinite(s)]
    if not positive or not pairs[-1][1] > swing * min(positive):
        return False
    if exponent is None:
        exponent = fit_decay_exponent(pairs)
    return not math.isinf(exponent) and exponent < -SLOPE_TOL


def report_from_sups(
    grid: EpsilonGrid,
    sups: Sequence[float],
    p_max: int = DEFAULT_P_MAX,
) -> AsymptoticReport:
    """Assemble an :class:`AsymptoticReport` from one sup value per grid eps;
    negligibility is tested at the orders 1..``p_max``."""
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    sups = [float(s) for s in sups]
    if len(sups) != len(grid):
        raise ValueError("need exactly one sup per grid value")
    pairs = tuple(zip(grid.values, sups))
    exponent = fit_decay_exponent(pairs)
    moderate = all(math.isfinite(s) for s in sups)

    negligible_order = 0
    if moderate:
        quarter = pairs[len(pairs) - max(1, math.ceil(len(pairs) / 4)) :]
        for p in range(1, p_max + 1):
            if all(s <= e**p for e, s in quarter):
                negligible_order = p
            else:
                break

    bounded = moderate and not _grows(pairs, exponent) and max(sups) <= DEFAULT_RC_BOUND
    return AsymptoticReport(pairs, exponent, moderate, negligible_order, bounded)


def _spatial_multi_indices(dimension: int, max_order: int):
    if dimension == 0:
        return [ex.MultiIndex(())]
    out = []
    for total in range(max_order + 1):
        for combo in itertools.product(range(total + 1), repeat=dimension):
            if sum(combo) == total:
                out.append(ex.MultiIndex(combo))
    return out


def grid_sups(body: ex.Expr, eps_values, points: np.ndarray) -> list[float]:
    """Max of |body| over the rows of ``points``, one value per eps, in order.

    A NaN anywhere on the points makes that eps's sup NaN, which every verdict
    reads as non-finite.  An :class:`~epsnet.expr.EvalError` carries the first
    failing eps and point."""
    return ex.eval_points(body, tuple(eps_values), points, sup=True).tolist()


def seminorm(
    f: Net,
    box: CompactBox,
    alpha,
    eps: float,
    max_order: int = ex.DEFAULT_MAX_MULTIINDEX_ORDER,
) -> float:
    """Max of |d^alpha f| over the sample lattice of the box at one eps.

    The lattice max is a lower bound for the true sup over the box; the
    default lattice density keeps the two within one percent for the kinds of
    functions exercised here.
    """
    if box.dimension != f.dimension:
        raise ValueError("box dimension does not match net dimension")
    orders = alpha.orders if isinstance(alpha, ex.MultiIndex) else tuple(alpha)
    if len(orders) != f.dimension:
        raise ValueError("multi-index length does not match net dimension")
    mi = ex.multi_index(orders, max_order=max_order)
    return float(ex.eval_points(f.body, eps, box.lattice(), sup=True, partials=(mi,))[0])


def classify(
    f: Net,
    box: CompactBox,
    max_order: int = 2,
    grid: Optional[EpsilonGrid] = None,
    p_max: int = DEFAULT_P_MAX,
) -> AsymptoticReport:
    """Aggregate derivative sups over all multi-indices up to ``max_order``
    and report the asymptotic verdicts.

    The whole derivative family is one :func:`~epsnet.expr.eval_points` call:
    one compiled program over the lattice and the grid, one sup per alpha.
    An :class:`~epsnet.expr.EvalError` names the first failing alpha."""
    grid = grid or EpsilonGrid.dyadic()
    if box.dimension != f.dimension:
        raise ValueError("box dimension does not match net dimension")
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    alphas = _spatial_multi_indices(f.dimension, max_order)
    sups = ex.eval_points(f.body, grid.values, box.lattice(), sup=True, partials=alphas)
    return report_from_sups(grid, np.max(sups, axis=0).tolist(), p_max=p_max)


def is_bounded_generalized_number(
    theta: Net,
    grid: Optional[EpsilonGrid] = None,
) -> bool:
    """The ``bounded`` verdict of :func:`report_from_sups` for a scalar net:
    finite, at most ``DEFAULT_RC_BOUND`` on the grid, and no growth trend as
    eps decreases; one compiled pass over the grid."""
    grid = grid or EpsilonGrid.dyadic()
    if theta.dimension != 0:
        raise ValueError("theta must be a scalar net (dimension 0)")
    return report_from_sups(grid, grid_sups(theta.body, grid, np.zeros((1, 0)))).bounded


def image_bound_check(sups, grid: EpsilonGrid):
    """The c-boundedness rule over image sups: ``sups[k]`` holds the per-axis
    max |image| of a fixed sample set at grid eps k, shape (len(grid), d').

    The verdict is False when any sup is non-finite or when the image radius
    (the largest sup per eps) grows as eps decreases (:func:`_grows`, with the
    swing sqrt(d') of an orthogonal map; the margin above it absorbs rounding
    in the sups).  On True, also returns the centred box prod [-m_k, m_k], m_k
    the largest sup of axis k over the grid, which contains every sampled
    image.
    """
    sups = np.asarray(sups, dtype=float)
    if not np.isfinite(sups).all():
        return False, None
    radii = tuple(zip(grid.values, np.max(sups, axis=1, initial=0.0).tolist()))
    if _grows(radii, swing=math.sqrt(sups.shape[1]) * (1.0 + 1e-9)):
        return False, None
    return True, CompactBox(tuple((-m, m) for m in np.max(sups, axis=0).tolist()))


def is_c_bounded(g, box: CompactBox, grid: Optional[EpsilonGrid] = None):
    """Check that the map ``g`` takes the box into some fixed compact box for
    every grid eps.  Returns (verdict, witness box or None).

    ``g`` is anything with ``dimension`` and ``apply_points(points, eps_values,
    sup=True)``, such as a :class:`~epsnet.groups.GroupElement`: one compiled
    pass over the lattice and the whole grid, in which coordinates free of eps
    are computed once.
    """
    grid = grid or EpsilonGrid.dyadic()
    if box.dimension != g.dimension:
        raise ValueError("box dimension does not match element dimension")
    return image_bound_check(g.apply_points(box.lattice(), grid.values, sup=True), grid)

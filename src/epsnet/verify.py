"""Theorem harnesses: grid evidence for invariance under one-parameter flows
and matrix groups, periodicity, almost-period chaining, and the two ways a net
can be forced constant (two incommensurable periods, or translation
invariance).

Each report carries its per-eps sups (deviations at noise level snapped to
zero, not raw) next to its verdict: a negligibility statement at a requested
order and a semi-decision over the finite grid.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from .colombeau import (
    DEFAULT_P_MAX,
    MAX_LATTICE_POINTS,
    AsymptoticReport,
    CompactBox,
    EpsilonGrid,
    Net,
    classify,
    fit_decay_exponent,
    grid_sups,
    is_bounded_generalized_number,
    is_c_bounded,
    report_from_sups,
)
from .groups import GroupElement, compose_net
from .report import Record, plain_json, record

if TYPE_CHECKING:
    from .numbertheory import AlgebraicNumber

#: Real parameter values used to sample a universally quantified hypothesis.
DEFAULT_REAL_THETAS = (0.1, -0.1, 1.0, -1.0, math.pi, -math.pi, 3.0, -3.0)

#: Deviations below this many ulps of the function's own magnitude, or below
#: the absolute floor, are floating-point evaluation noise, not evidence
#: against invariance; they are snapped to zero before the negligibility test,
#: and the report holds the snapped sups.  The absolute floor covers
#: cancellation through boosted coordinates (cosh 3 ~ 10) in low-degree forms.
NOISE_ULPS = 64.0
NOISE_ATOL = 1e-12
_MACHINE_EPS = float(np.finfo(float).eps)


class CBoundednessError(ValueError):
    """The transformation does not map the box into a fixed compact set."""


@record
class InvarianceReport(Record):
    """Per-eps sup of |f(g(x)) - f(x)| over the box (``asymptotic.sups``),
    with verdict at order p: ``invariant`` holds when every sup is at most
    eps^p, so ``asymptotic.negligible_order`` is then at least p (eps < 1).

    ``c_bounded`` is the c-boundedness check's verdict; it can be False only
    when the check was waived (``strict=False``)."""

    order: int
    asymptotic: AsymptoticReport
    invariant: bool
    c_bounded: bool
    element: dict


def _check_order(p: int) -> None:
    # at p = 0 the bound eps^p is 1, which an O(1) deviation meets
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")


def _check_c_bounded(g: GroupElement, box: CompactBox, grid: EpsilonGrid, strict: bool,
                     warn: bool) -> bool:
    """The c-boundedness verdict; a failure raises when ``strict`` and
    otherwise warns when ``warn``."""
    ok, _ = is_c_bounded(g, box, grid)
    if not ok:
        message = "transformation is not c-bounded on the box"
        if strict:
            raise CBoundednessError(f"{message}; --no-strict waives this check")
        if warn:
            warnings.warn(message, RuntimeWarning)
    return ok


def _noise_floor(scale: float) -> float:
    return max(NOISE_ATOL, NOISE_ULPS * _MACHINE_EPS * max(1.0, scale))


def _deviation(f: Net, g: GroupElement) -> ex.Expr:
    """The body of f o g - f."""
    return ex.c_sub(compose_net(f, g).body, f.body)


def _centered(f: Net, grid: EpsilonGrid) -> ex.Expr:
    """The body of f - f(0) on the grid, with f(0) evaluated at the origin
    and held as one value per grid eps: an f undefined at 0 raises the
    :class:`~epsnet.expr.EvalError` that names x = 0."""
    origin = ex.eval_points(f.body, grid.values, np.zeros((1, f.dimension)))[:, 0]
    return ex.c_sub(f.body, ex.Table(tuple(zip(grid.values, origin.tolist()))))


def _invariance_reports(f: Net, blocks, box: CompactBox, grid: Optional[EpsilonGrid], p: int,
                        strict: bool) -> tuple:
    """One tuple of :class:`InvarianceReport` per block of ``blocks`` (a list
    of iterables of elements), with the errors a loop of one-element checks
    gives.

    Each element's check is, in order: its dimension, its c-boundedness,
    f's sups (which set the noise floors), then the sups of f o g - f,
    snapped to zero at or below the floors and held against eps^p.  The
    elements before the first one of another dimension are measured in one
    joint pass: f's sups from one ``grid_sups``, every deviation from one
    ``eval_many``, which computes the subtrees of f and the lattice leaves
    once.  An :class:`~epsnet.expr.EvalError` of that pass names the element
    a loop fails at (``root``, 0 when f fails) and is raised after the
    c-boundedness checks up to that element's.  An error raised while a
    block is built comes after the checks of the elements before it.  A
    waived c-boundedness failure warns once per block, at that block's
    first failing element."""
    grid = grid or EpsilonGrid.dyadic()
    elements, error = [], None
    try:
        for b, block in enumerate(blocks):
            for g in block:
                elements.append((b, g))
    except Exception as err:  # a per-element loop meets it after the elements before it
        error = err
    if elements:
        _check_order(p)
    # the element at index stop raises: the first of another dimension, or
    # the one the joint pass fails at
    stop = next((k for k, (_, g) in enumerate(elements) if g.dimension != f.dimension), len(elements))
    deviations = [_deviation(f, g) for _, g in elements[:stop]]
    floors, sups, failure = [], [], None
    if deviations:
        lattice = box.lattice()
        try:
            floors = [_noise_floor(s) for s in grid_sups(f.body, grid, lattice)]
            sups = ex.eval_many(deviations, grid.values, lattice, sup=True)
        except ex.EvalError as err:
            # f's own error has root 0: a loop meets it at the first element
            failure, stop = err, err.root
    reports, warned = [[] for _ in blocks], set()
    for k, (b, g) in enumerate(elements):
        if k == stop and failure is None:
            raise ValueError("element dimension does not match net dimension")
        c_bounded = _check_c_bounded(g, box, grid, strict, warn=b not in warned)
        if not c_bounded:
            warned.add(b)
        if k == stop:
            raise failure
        if failure is not None:  # the elements before it are only checked
            continue
        snapped = [0.0 if s <= fl else s for s, fl in zip(sups[k].tolist(), floors)]
        reports[b].append(InvarianceReport(
            order=p,
            asymptotic=report_from_sups(grid, snapped, p_max=max(DEFAULT_P_MAX, p)),
            invariant=all(s <= eps**p for eps, s in zip(grid.values, snapped)),
            c_bounded=c_bounded,
            element=g.to_json_dict(),
        ))
    if error is not None:
        raise error
    return tuple(map(tuple, reports))


def check_invariance(
    f: Net,
    g: GroupElement,
    box: CompactBox,
    grid: Optional[EpsilonGrid] = None,
    p: int = 4,
    strict: bool = True,
) -> InvarianceReport:
    """Measure sup |f(g(x)) - f(x)| over the box per eps and test whether the
    deviation is negligible at order ``p``.

    Only the values are compared, not derivatives.  The element is composed
    into f and the difference evaluated as one expression; tabulated angles
    compose like any other scalar net, so ``grid`` must lie inside their
    table.  Deviations at or below the noise floor read as zero; a NaN
    deviation is non-finite and fails the check.  With ``strict`` a
    transformation that is not c-bounded on the box raises
    :class:`CBoundednessError`, otherwise it warns and the report records
    ``c_bounded=False``.  An order ``p`` below 1 raises ValueError."""
    return _invariance_reports(f, [(g,)], box, grid, p, strict)[0][0]


@record
class OneParamReport:
    """Hypothesis block (real parameters) and conclusion block (generalized
    parameters) for one flow."""

    order: int
    hypothesis: tuple  # ((theta, InvarianceReport), ...)
    conclusion: tuple  # ((label, InvarianceReport), ...)
    hypothesis_failed: bool
    verdict: bool

    def to_json_dict(self) -> dict:
        return plain_json({
            "order": self.order,
            "hypothesis_failed": self.hypothesis_failed,
            "verdict": self.verdict,
            "hypothesis": [
                {"theta": th, **r.to_json_dict()} for th, r in self.hypothesis
            ],
            "conclusion": [
                {"theta": label, **r.to_json_dict()} for label, r in self.conclusion
            ],
        })


def one_param_theorem_harness(
    f: Net,
    flow: Callable[[object], GroupElement],
    real_thetas: Sequence[float] = DEFAULT_REAL_THETAS,
    gen_thetas: Sequence = (),
    box: Optional[CompactBox] = None,
    grid: Optional[EpsilonGrid] = None,
    p: int = 4,
    strict: bool = True,
) -> OneParamReport:
    """Sample the real-parameter hypothesis of the lifting theorem, then test
    the generalized-parameter conclusion.  If any real-parameter check fails
    the conclusion block is informational only.  Both blocks are one joint
    pass (:func:`_invariance_reports`), so f's sups are taken once, and a
    waived c-boundedness failure warns once for each; a generalized
    parameter is checked to be bounded on the grid before its element is
    built.  An empty ``real_thetas`` raises ValueError: it would
    leave the hypothesis untested."""
    thetas = [float(theta) for theta in real_thetas]
    if not thetas:
        raise ValueError("the hypothesis needs at least one real theta")
    gen_thetas = tuple(gen_thetas)
    grid = grid or EpsilonGrid.dyadic()
    box = box or CompactBox.cube(-1.0, 1.0, f.dimension)

    def generalized():
        for theta in gen_thetas:
            if not is_bounded_generalized_number(theta, grid):
                raise ValueError(f"generalized parameter {theta} is not bounded on the grid")
            yield flow(theta)

    real, gen = _invariance_reports(f, [map(flow, thetas), generalized()], box, grid, p, strict)
    hypothesis = tuple(zip(thetas, real))
    conclusion = tuple(zip(map(str, gen_thetas), gen))
    hypothesis_failed = not all(r.invariant for _, r in hypothesis)
    verdict = (not hypothesis_failed) and all(r.invariant for _, r in conclusion)
    return OneParamReport(p, hypothesis, conclusion, hypothesis_failed, verdict)


@record
class PipelineReport(Record):
    """Factor-by-factor and full-composition invariance for a factored element."""

    order: int
    factors: tuple  # InvarianceReport per factor
    full: InvarianceReport
    verdict: bool
    consistent: bool


def _pipeline(f, factors, full_element, box, grid, p, strict) -> PipelineReport:
    blocks = [(GroupElement.from_factors(f.dimension, (factor,)) for factor in factors), (full_element,)]
    factor_reports, (full_report,) = _invariance_reports(f, blocks, box, grid, p, strict)
    per_factor = all(r.invariant for r in factor_reports)
    consistent = per_factor == full_report.invariant
    verdict = full_report.invariant and per_factor
    return PipelineReport(p, factor_reports, full_report, verdict, consistent)


def _factored_pipeline(kind, f, M, box, grid, p, strict) -> PipelineReport:
    """Factor ``M`` (a factorization of ``kind``, passed through; a real
    matrix, factored once; or a matrix of scalar nets, factored eps by eps)
    and run the pipeline on its factors."""
    from . import decompose

    grid = grid or EpsilonGrid.dyadic()
    cls, decomposer = decompose.factorization_of(kind)
    if isinstance(M, cls):
        fact = M
    elif isinstance(M, decompose.Factorization):
        raise TypeError(f"the {kind} pipeline cannot run a {type(M).__name__}")
    elif isinstance(M, np.ndarray) or (
        isinstance(M, (list, tuple)) and all(isinstance(v, (int, float)) for row in M for v in row)
    ):
        fact = decomposer(np.asarray(M, dtype=float))
    else:
        fact = decompose.decompose_net_matrix(M, grid, kind)
    return _pipeline(f, fact.factors, fact.as_group_element(), box, grid, p, strict)


def rotation_invariance_pipeline(
    f: Net,
    M,
    box: CompactBox,
    grid: Optional[EpsilonGrid] = None,
    p: int = 4,
    strict: bool = True,
) -> PipelineReport:
    """Factor a special orthogonal element into planar rotations and check
    invariance factor-by-factor and for the full composition."""
    return _factored_pipeline("rotation", f, M, box, grid, p, strict)


def lorentz_invariance_pipeline(
    f: Net,
    L,
    box: CompactBox,
    grid: Optional[EpsilonGrid] = None,
    p: int = 4,
    strict: bool = True,
) -> PipelineReport:
    """As the rotation pipeline, via the rotation-boost-rotation factorization."""
    return _factored_pipeline("lorentz", f, L, box, grid, p, strict)


def check_periodicity(
    f: Net,
    h: float,
    box: CompactBox,
    grid: Optional[EpsilonGrid] = None,
    p: int = 4,
) -> InvarianceReport:
    """Invariance under the translation x -> x + h (one-dimensional nets)."""
    if f.dimension != 1:
        raise ValueError("periodicity checks are one-dimensional")
    if not h > 0:
        raise ValueError("period must be positive")
    return check_invariance(f, GroupElement.translation(1, (h,)), box, grid, p)


# ---------------------------------------------------------------------------
# Almost-period chaining


@record
class ChainPairResult(Record):
    k: int
    l: int
    certified: float
    measured: Optional[float]
    tested_points: int
    excluded_points: int
    hypothesis_violated: bool
    path: tuple  # audit steps from one representative start point
    path_ok: bool


@record
class ChainBoundReport(Record):
    interval: tuple
    eps: float
    h1: float
    h2: float
    tolerance: float
    pairs: tuple  # ChainPairResult tuple
    all_certified: bool


def _chain_path(x: float, k: int, l: int, h1: float, h2: float, a: float, b: float, tol: float):
    """Greedy step path from x to x + k*h1 - l*h2: raise the h1 count while
    staying below b, then lower by h2 while staying above a, repeating."""
    i = j = 0
    pts = [x]
    ok = True
    while i < k or j < l:
        progressed = False
        while i < k and (x + (i + 1) * h1 - j * h2 <= b + tol or j == l):
            i += 1
            pts.append(x + i * h1 - j * h2)
            progressed = True
        while j < l and (x + i * h1 - (j + 1) * h2 >= a - tol or i == k):
            j += 1
            pts.append(x + i * h1 - j * h2)
            progressed = True
        if not progressed:
            ok = False
            break
    if any(pt < a - tol or pt > b + tol for pt in pts):
        ok = False
    return tuple(pts), ok


def chain_bound(
    f: Net,
    eps: float,
    a: float,
    b: float,
    h1: float,
    h2: float,
    measured_eps: float,
    pairs: Sequence,
    num_x: int = 101,
) -> ChainBoundReport:
    """Certify |f(x + k*h1 - l*h2) - f(x)| <= (k + l) * measured_eps at the
    scale ``eps`` for each requested pair, over start points x in
    [a + h1 + h2, b - h1 - h2] whose endpoint stays inside [a, b].

    ``f`` is a one-dimensional net.  The start points and every pair's
    endpoints are evaluated in one :func:`~epsnet.expr.eval_points` call, so
    a point where f is undefined raises :class:`~epsnet.expr.EvalError`
    naming it.  ``all_certified`` holds only when every pair tested some
    start point, meets its hypothesis (no start point excluded, an audited
    path inside [a, b]) and measures within its certified bound."""
    if f.dimension != 1:
        raise ValueError("the chain lemma concerns one-dimensional nets")
    if not (h1 > 0 and h2 > 0):
        raise ValueError("periods must be positive")
    lo, hi = a + h1 + h2, b - h1 - h2
    if lo > hi:
        raise ValueError("interval is too short for the periods")
    xs = np.linspace(lo, hi, num_x)
    geom_tol = 1e-12 * (1.0 + abs(a) + abs(b))
    pairs = [(int(k), int(l)) for k, l in pairs]
    endpoints = [xs + k * h1 - l * h2 for k, l in pairs]
    valid = [(z >= a - geom_tol) & (z <= b + geom_tol) for z in endpoints]
    points = [xs, *(z[ok] for z, ok in zip(endpoints, valid))]
    values = ex.eval_points(f.body, eps, np.concatenate(points)[:, None])
    fx, *fzs = np.split(values, np.cumsum([len(x) for x in points])[:-1])
    results = []
    for (k, l), ok, fz in zip(pairs, valid, fzs):
        tested = len(fz)
        excluded = num_x - tested
        if tested:
            measured = float(np.max(np.abs(fz - fx[ok])))
            path, path_ok = _chain_path(float(xs[ok][0]), k, l, h1, h2, a, b, geom_tol)
        else:
            measured = None
            path, path_ok = (), False
        results.append(
            ChainPairResult(
                k,
                l,
                (k + l) * measured_eps,
                measured,
                tested,
                excluded,
                hypothesis_violated=excluded > 0 or not path_ok,
                path=path,
                path_ok=path_ok,
            )
        )
    all_certified = all(
        r.measured is not None and not r.hypothesis_violated and r.measured <= r.certified + 1e-15
        for r in results
    )
    return ChainBoundReport((a, b), eps, h1, h2, measured_eps, tuple(results), all_certified)


# ---------------------------------------------------------------------------
# Two periods force constancy


@record
class ConstancyEvidence(Record):
    eps: float
    k: int
    l: int
    h_log2: float
    measured: float
    certified: float
    certified_ok: bool
    bounds_ok: bool


@record
class OrderCertificate(Record):
    """Whether order ``p`` was certified, from the detected ``eps0`` on."""

    p: int
    eps0: Optional[float]
    certified: bool


@record
class ConstancyReport(Record):
    radius: float
    order: int
    verdict: str  # "constant" | "not-certified" | "not-applicable"
    eps0: Optional[float]
    failing_period: Optional[float]
    c_structural: float
    c_empirical: Optional[float]
    derivative_exponent: int
    evidence: tuple  # ConstancyEvidence rows for the requested order
    per_order: tuple  # OrderCertificate per order 1..p


def _two_period_inputs(f: Net, alpha, radius: float, p: int, grid: Optional[EpsilonGrid],
                       samples: int) -> tuple:
    """Check the inputs of both two-period harnesses in this order: f
    one-dimensional, p, samples, a finite radius, a finite R = eps^-p at the
    finest grid eps, radius > alpha + 2; return the grid and alpha's value."""
    if f.dimension != 1:
        raise ValueError("the two-period harnesses concern one-dimensional nets")
    grid = grid or EpsilonGrid.dyadic()
    _check_order(p)
    if samples < 2:
        raise ValueError(f"need at least 2 samples per axis, got {samples}")
    if samples > MAX_LATTICE_POINTS:
        raise ValueError(f"a lattice of {samples} points exceeds the ceiling of "
                         f"{MAX_LATTICE_POINTS} points")
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    # both harnesses draw their pairs at R = eps^-p, a double
    eps = grid.values[-1]
    try:
        eps**-p
    except OverflowError:
        largest = math.ceil(1024 / -math.log2(eps)) - 1
        raise ValueError(f"--p {p} makes R = eps^-p overflow at the finest grid eps {eps:g}; "
                         f"the largest p on this grid is {largest}") from None
    value = alpha.value_float
    if not radius > value + 2:
        raise ValueError("radius must exceed alpha + 2")
    return grid, value


def _two_period_sups(f: Net, alpha: float, radius: float, grid: EpsilonGrid, samples: int):
    """Per-eps grid data of the two-period harnesses: the deviations for the
    periods 1 and alpha over [-radius, radius], the centered sups
    |f(x) - f(0)| over |x| <= radius - alpha - 2, and the failing period to
    report when no eps0 exists (the one deviating more at the finest eps)."""

    def period_sups(h: float):
        xs = np.linspace(-radius, radius - h, samples)[:, None]
        return grid_sups(_deviation(f, GroupElement.translation(1, (h,))), grid, xs)

    dev1 = period_sups(1.0)
    dev2 = period_sups(alpha)
    inner = radius - alpha - 2.0
    centered = grid_sups(_centered(f, grid), grid, np.linspace(-inner, inner, samples)[:, None])
    failing = 1.0 if dev1[-1] > dev2[-1] else alpha
    return dev1, dev2, centered, failing


def _detect_eps0(grid: EpsilonGrid, dev1, dev2, exponent: float):
    """Coarsest grid eps from which both period deviations stay below
    eps^exponent on every finer grid point; None when no such tail exists."""
    ok = [
        d1 <= eps**exponent and d2 <= eps**exponent
        for eps, d1, d2 in zip(grid.values, dev1, dev2)
    ]
    start = None
    for i in range(len(ok) - 1, -1, -1):
        if not ok[i]:
            break
        start = i
    return (grid.values[start], start) if start is not None else (None, None)


def _derivative_moderateness(f: Net, radius: float, grid: EpsilonGrid, samples: int) -> int:
    xs = np.linspace(-radius, radius, samples)[:, None]
    sups = ex.eval_points(f.body, grid.values, xs, sup=True, partials=((1,),))[0].tolist()
    slope = fit_decay_exponent(tuple(zip(grid.values, sups)))
    if math.isinf(slope):
        return 0
    return max(0, math.ceil(-slope - 1e-9))


def two_period_constancy(
    f: Net,
    a: AlgebraicNumber,
    radius: float,
    p: int,
    grid: Optional[EpsilonGrid] = None,
    samples: int = 129,
) -> ConstancyReport:
    """Verify that a net with periods 1 and alpha is a generalized constant.

    For each order p' <= p: detect the coarsest eps0 from which both period
    deviations stay below eps^((M+2)p'), draw the Diophantine pair at
    R = eps^(-p'), and certify sup |f(x) - f(0)| over |x| <= radius-alpha-2
    against c*eps^p' + 2*eps^(p'-N) with the structural constant
    c = (alpha+2)(radius+1) and N the fitted derivative exponent.  The
    inputs are checked as :func:`_two_period_inputs` states."""
    from .numbertheory import corollary_pair, liouville_constant

    grid, alpha = _two_period_inputs(f, a, radius, p, grid, samples)
    M = liouville_constant(a).M
    dev1, dev2, measured, worst = _two_period_sups(f, alpha, radius, grid, samples)
    n_exp = _derivative_moderateness(f, radius, grid, samples)
    c_struct = (alpha + 2.0) * (radius + 1.0)
    # R = eps^-q repeats across orders on a dyadic grid: one pair per R
    pairs = {}

    def evidence(q: int, idx: int) -> ConstancyEvidence:
        eps = grid.values[idx]
        R = eps ** (-q)
        pair = pairs.get(R)
        if pair is None:
            pair = pairs[R] = corollary_pair(a, R)
        h_log2 = pair.defect_log2
        log_eps = math.log2(eps)
        bounds_ok = (
            pair.M * q * log_eps <= h_log2 <= 1.0 + q * log_eps
            and math.log2(pair.k if pair.k else 1) <= math.log2(alpha + 1.0) - q * log_eps
        )
        certified = c_struct * eps**q + 2.0 * eps ** (q - n_exp)
        return ConstancyEvidence(
            eps, pair.k, pair.l, h_log2, measured[idx], certified, measured[idx] <= certified, bounds_ok
        )

    per_order = []
    for q in range(1, p + 1):
        eps0, start = _detect_eps0(grid, dev1, dev2, (M + 2) * q)
        rows = () if eps0 is None else tuple(evidence(q, idx) for idx in range(start, len(grid)))
        certified = eps0 is not None and all(r.certified_ok and r.bounds_ok for r in rows)
        per_order.append(OrderCertificate(q, eps0, certified))
    # the rows, eps0 and empirical constant reported are the last order's
    eps0 = per_order[-1].eps0
    failing = worst if any(c.eps0 is None for c in per_order) else None
    c_emp = None if eps0 is None else max(0.0, *(r.measured / r.eps**p for r in rows))

    if failing is not None:
        verdict = "not-applicable"
    elif all(c.certified for c in per_order):
        verdict = "constant"
    else:
        verdict = "not-certified"
    return ConstancyReport(
        radius,
        p,
        verdict,
        eps0,
        failing,
        c_struct,
        c_emp,
        n_exp,
        rows,
        tuple(per_order),
    )


# ---------------------------------------------------------------------------
# Translation invariance forces constancy


@record
class TranslationReport:
    order: int
    hypothesis: tuple  # ((offset tuple, InvarianceReport), ...)
    hypothesis_failed: bool
    conclusion: AsymptoticReport
    verdict: bool

    def to_json_dict(self) -> dict:
        return plain_json({
            "order": self.order,
            "hypothesis_failed": self.hypothesis_failed,
            "verdict": self.verdict,
            "hypothesis": [{"h": h, **r.to_json_dict()} for h, r in self.hypothesis],
            "conclusion": self.conclusion,
        })


def translation_constancy(
    f: Net,
    box: CompactBox,
    grid: Optional[EpsilonGrid] = None,
    p: int = 4,
    h_samples: Optional[Sequence] = None,
) -> TranslationReport:
    """Hypothesis: invariance under each sampled translation, by default
    the offsets (0.5, ..., 0.5) and (1, ..., 1) of f's dimension.
    Conclusion: x -> f(x) - f(0) and its first derivatives are negligible at
    order p on the box.  An empty ``h_samples`` (which would leave the
    hypothesis untested) or an offset not of f's dimension raises ValueError."""
    _check_order(p)
    if h_samples is None:
        h_samples = ((0.5,) * f.dimension, (1.0,) * f.dimension)
    offsets = [tuple(float(v) for v in h) for h in h_samples]
    if not offsets:
        raise ValueError("the hypothesis needs at least one translation")
    grid = grid or EpsilonGrid.dyadic()
    translations = (GroupElement.translation(f.dimension, offset) for offset in offsets)
    (reports,) = _invariance_reports(f, [translations], box, grid, p, strict=True)
    hypothesis = tuple(zip(offsets, reports))
    hypothesis_failed = not all(r.invariant for _, r in hypothesis)
    centered = Net(_centered(f, grid), f.dimension)
    conclusion = classify(centered, box, max_order=1, grid=grid, p_max=max(DEFAULT_P_MAX, p))
    verdict = (not hypothesis_failed) and conclusion.negligible_order >= p
    return TranslationReport(p, hypothesis, hypothesis_failed, conclusion, verdict)


# ---------------------------------------------------------------------------
# Open-question explorer (non-theorem output)


@record
class ExplorerRow(Record):
    eps: float
    k: int
    l: int
    defect_log2: float
    effective_M: float
    measured: float


@record
class ExplorerReport(Record):
    """Exploratory two-period data for a non-algebraic ratio.  Explicitly not
    backed by a theorem; never emits a theorem-grade verdict."""

    alpha: float
    radius: float
    order: int
    applicable: bool
    failing_period: Optional[float]
    effective_M: Optional[float]
    rows: tuple
    note: str = "exploratory output; no theorem backs these numbers"
    theorem_grade: bool = False


def open_question_explorer(
    alpha,
    f: Net,
    radius: float,
    p: int,
    grid: Optional[EpsilonGrid] = None,
    samples: int = 129,
) -> ExplorerReport:
    """Run the two-period machinery with continued-fraction convergents in
    place of the Liouville-backed pair, reporting the effective exponent the
    data would need.  ``alpha`` is any spec ``resolve_alpha`` accepts; it is
    resolved before the checks of :func:`_two_period_inputs`."""
    from .numbertheory import dirichlet, resolve_alpha

    alpha = resolve_alpha(alpha)
    grid, value = _two_period_inputs(f, alpha, radius, p, grid, samples)
    dev1, dev2, measured, worst = _two_period_sups(f, value, radius, grid, samples)
    rows = []
    eff_max = None
    for eps, centered in zip(grid, measured):
        R = eps ** (-p)
        pair = dirichlet(alpha, int(R))
        dlog2 = pair.defect_log2
        eff = -dlog2 / (p * -math.log2(eps)) if math.isfinite(dlog2) else math.inf
        eff_max = eff if eff_max is None else max(eff_max, eff)
        rows.append(ExplorerRow(eps, pair.k, pair.l, dlog2, eff, centered))

    m_hat = max(2, math.ceil(eff_max)) if eff_max is not None and math.isfinite(eff_max) else 2
    eps0, _ = _detect_eps0(grid, dev1, dev2, (m_hat + 2) * p)
    failing = None if eps0 is not None else worst
    return ExplorerReport(value, radius, p, eps0 is not None, failing, eff_max, tuple(rows))

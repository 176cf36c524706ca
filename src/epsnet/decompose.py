"""Constructive factorizations of orthogonal and Lorentz matrices.

A factorization is a dimension and a tuple of one-parameter factors in
composition order; its matrix is the product of the factor matrices.
Special orthogonal matrices factor into a fixed, dimension-dependent schedule
of planar rotations obtained by Givens elimination; the full orthogonal group
adds one fixed reflection.  Proper orthochronous Lorentz matrices factor into
spatial rotation, single boost, spatial rotation, held as the slots of R1,
the boost and R2 in that order; the full Lorentz group adds fixed time and
space inversions.  Matrices whose entries are scalar nets are factored
eps-by-eps into the same slots; each angle slot becomes a tabulated scalar
net (:meth:`Net.tabulated`), known only on the grid it was factored on.
Numeric matrices exist for real angles only; a tabulated factorization is
evaluated through its group element.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .colombeau import EpsilonGrid, Net
from .groups import GroupElement, PlanarFactor, _scalar_expr, _scalar_json
from .report import Record, record

ORTHOGONALITY_TOL = 1e-8
FORM_TOL = 1e-8
LORENTZ_RECONSTRUCTION_TOL = 1e-9
TIME_FIX_TOL = 1e-9
ELIMINATION_TIE_TOL = 1e-14

TWO_PI = 2.0 * math.pi


class DecompositionError(ValueError):
    """Input fails the preconditions of a factorization."""


def rotation_schedule_pairs(d: int) -> tuple:
    """The fixed elimination schedule for dimension d; depends on d only."""
    return tuple((i, j) for j in range(d, 1, -1) for i in range(1, j))


def factor_product(dimension: int, factors) -> np.ndarray:
    """The matrix of a product of real-angle factors in composition order."""
    M = np.eye(dimension)
    for f in factors:
        M = M @ f.matrix(dimension)
    return M


class Factorization(Record):
    """An ordered product of one-parameter factors, ``factors`` in
    composition order (applied right to left)."""

    def matrix(self) -> np.ndarray:
        return factor_product(self.dimension, self.factors)

    def as_group_element(self) -> GroupElement:
        return GroupElement.from_factors(self.dimension, self.factors)


@record
class RotationSchedule(Factorization):
    """A product of planar rotations with a fixed axis schedule."""

    dimension: int
    factors: tuple  # PlanarFactor tuple

    @property
    def pairs(self) -> tuple:
        return tuple((f.i, f.j) for f in self.factors)

    def angles(self) -> tuple:
        return tuple(float(f.theta) for f in self.factors)


def _check_finite(M: np.ndarray):
    # NaN compares false against every tolerance, so a NaN matrix would pass
    # the form checks and factor as the identity
    if not np.all(np.isfinite(M)):
        raise DecompositionError("matrix has non-finite entries")


def _check_orthogonal(M: np.ndarray):
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise DecompositionError("matrix must be square of size >= 1")
    _check_finite(M)
    defect = float(np.max(np.abs(M.T @ M - np.eye(M.shape[0]))))
    if defect > ORTHOGONALITY_TOL:
        raise DecompositionError(
            f"matrix is not orthogonal within {ORTHOGONALITY_TOL} (defect {defect:.3e})"
        )


def _givens_step(A: np.ndarray, ii: int, jj: int, target: float, pivot: float) -> float:
    """Rotate entries (rows of a matrix) ``ii`` and ``jj`` of ``A`` in place by
    the angle zeroing ``target`` into ``pivot`` (pivot becomes >= 0); return
    the angle of the factor that undoes the step, in [0, 2*pi)."""
    if abs(target) < ELIMINATION_TIE_TOL:
        # deterministic tie-break at degenerate inputs; a negative pivot still
        # needs the half turn
        phi = 0.0 if pivot >= 0.0 else math.pi
    else:
        phi = math.atan2(target, pivot)
    if phi != 0.0:
        c, s = math.cos(phi), math.sin(phi)
        row_i = c * A[ii] - s * A[jj]
        row_j = s * A[ii] + c * A[jj]
        A[ii], A[jj] = row_i, row_j
    return (-phi) % TWO_PI


def givens_decompose(M) -> RotationSchedule:
    """Factor a special orthogonal matrix into the fixed schedule of planar
    rotations, angles normalized to [0, 2*pi)."""
    M = np.asarray(M, dtype=float)
    _check_orthogonal(M)
    d = M.shape[0]
    det = float(np.linalg.det(M))
    if det < 0.0:
        raise DecompositionError(
            "matrix has determinant -1; use orthogonal_decompose"
        )
    A = M.copy()
    factors = tuple(
        PlanarFactor("rotation", i, j, _givens_step(A, i - 1, j - 1, A[i - 1, j - 1], A[j - 1, j - 1]))
        for i, j in rotation_schedule_pairs(d)
    )
    residue = float(np.max(np.abs(A - np.eye(d))))
    if residue > 1e-7:
        raise DecompositionError(
            f"elimination failed to reach the identity (residue {residue:.3e})"
        )
    return RotationSchedule(d, factors)


def reflection_matrix(d: int) -> np.ndarray:
    """The fixed orientation-inverting transformation x_d -> -x_d."""
    P = np.eye(d)
    P[d - 1, d - 1] = -1.0
    return P


def orthogonal_decompose(M):
    """Factor any orthogonal matrix; reconstruction is schedule then, if
    flagged, the fixed reflection applied first (rightmost)."""
    M = np.asarray(M, dtype=float)
    _check_orthogonal(M)
    det = float(np.linalg.det(M))
    if abs(det - 1.0) <= 1e-6:
        return givens_decompose(M), False
    return givens_decompose(M @ reflection_matrix(M.shape[0])), True


# ---------------------------------------------------------------------------
# Lorentz


def minkowski_metric(n: int) -> np.ndarray:
    eta = -np.eye(n)
    eta[0, 0] = 1.0
    return eta


def quadratic_form(X: np.ndarray) -> np.ndarray:
    """t^2 - |x|^2 for rows (t, x1, ..)."""
    return X[:, 0] ** 2 - np.sum(X[:, 1:] ** 2, axis=1)


def _check_lorentz_form(L: np.ndarray):
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] < 2:
        raise DecompositionError("matrix must be square of size >= 2")
    _check_finite(L)
    eta = minkowski_metric(L.shape[0])
    defect = float(np.max(np.abs(L.T @ eta @ L - eta)))
    if defect > FORM_TOL:
        raise DecompositionError(
            f"matrix does not preserve the form within {FORM_TOL} (defect {defect:.3e})"
        )


def boost_matrix(n: int, theta: float) -> np.ndarray:
    """The boost in the (e_1, e_2) plane: time and the first space axis."""
    return factor_product(n, (PlanarFactor("boost", 1, 2, theta),))


def _align_first_axis(v: np.ndarray) -> tuple:
    """Angles of the rotations in the planes (1, i), i = 2..d, whose product
    maps e_1 to the unit vector v; deterministic Givens elimination of the
    trailing components."""
    w = v.copy()
    # the pivot is the leading entry, so the zeroed entry enters with a
    # flipped sign
    return tuple(_givens_step(w, 0, k, -w[k], w[0]) for k in range(1, w.shape[0]))


@record
class LorentzFactorization(Factorization):
    """g = R1 o boost(1,2,theta) o R2 with spatial rotations R1, R2.  The
    factors are in slot order: R1's n-2 rotations, the boost, then R2's."""

    dimension: int  # full spacetime dimension n = d+1
    factors: tuple  # PlanarFactor tuple

    @property
    def r1(self) -> RotationSchedule:
        return RotationSchedule(self.dimension, self.factors[: self.dimension - 2])

    @property
    def theta(self):
        """The boost angle: a float or a tabulated Net."""
        return self.factors[self.dimension - 2].theta

    @property
    def r2(self) -> RotationSchedule:
        return RotationSchedule(self.dimension, self.factors[self.dimension - 1 :])

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "r1": self.r1.to_json_dict(),
            "theta": _scalar_json(self.theta),
            "r2": self.r2.to_json_dict(),
        }


def lorentz_decompose(L) -> LorentzFactorization:
    """Factor a proper orthochronous Lorentz matrix (time axis first)."""
    L = np.asarray(L, dtype=float)
    _check_lorentz_form(L)
    n = L.shape[0]
    det = float(np.linalg.det(L))
    if det < 0.0:
        raise DecompositionError("improper matrix; use full_lorentz_decompose")
    if L[0, 0] < 1.0 - 1e-10:
        raise DecompositionError(
            "anti-orthochronous matrix; use full_lorentz_decompose"
        )
    theta = math.acosh(max(L[0, 0], 1.0))
    v = L[1:, 0]
    norm = float(np.linalg.norm(v))
    # with no boost direction R1 aligns e_1 with itself: the identity, with
    # the slots of the general case, as a net matrix must factor into the
    # same slots at every eps
    u = v / norm if norm >= ELIMINATION_TIE_TOL else np.eye(n - 1)[0]
    r1 = tuple(PlanarFactor("rotation", 2, j, a) for j, a in zip(range(3, n + 1), _align_first_axis(u)))
    R1 = factor_product(n, r1)
    R2 = boost_matrix(n, -theta) @ R1.T @ L
    time_defect = max(
        abs(R2[0, 0] - 1.0),
        float(np.max(np.abs(R2[0, 1:]))),
        float(np.max(np.abs(R2[1:, 0]))),
    )
    if time_defect > TIME_FIX_TOL:
        raise DecompositionError(
            f"residual factor does not fix the time axis (defect {time_defect:.3e})"
        )
    r2 = tuple(
        PlanarFactor("rotation", f.i + 1, f.j + 1, f.theta)
        for f in givens_decompose(R2[1:, 1:]).factors
    )
    fact = LorentzFactorization(n, r1 + (PlanarFactor("boost", 1, 2, theta),) + r2)
    recon = float(np.max(np.abs(fact.matrix() - L)))
    if recon > LORENTZ_RECONSTRUCTION_TOL:
        raise DecompositionError(f"reconstruction defect {recon:.3e} exceeds tolerance")
    return fact


def time_inversion_matrix(n: int) -> np.ndarray:
    T = np.eye(n)
    T[0, 0] = -1.0
    return T


@record
class FullLorentzDecomposition:
    factorization: LorentzFactorization
    time_inverted: bool
    orientation_inverted: bool

    def matrix(self) -> np.ndarray:
        n = self.factorization.dimension
        M = self.factorization.matrix()
        if self.orientation_inverted:
            M = reflection_matrix(n) @ M
        if self.time_inverted:
            M = time_inversion_matrix(n) @ M
        return M


def full_lorentz_decompose(L) -> FullLorentzDecomposition:
    """Peel fixed time/orientation inversions off any form-preserving matrix
    so the residue is proper orthochronous, then factor the residue."""
    L = np.asarray(L, dtype=float)
    _check_lorentz_form(L)
    n = L.shape[0]
    time_inverted = bool(L[0, 0] < 0.0)
    residue = time_inversion_matrix(n) @ L if time_inverted else L
    orientation_inverted = bool(float(np.linalg.det(residue)) < 0.0)
    if orientation_inverted:
        residue = reflection_matrix(n) @ residue
    return FullLorentzDecomposition(
        lorentz_decompose(residue), time_inverted, orientation_inverted
    )


# ---------------------------------------------------------------------------
# Net-valued matrices


def decompose_net_matrix(M, grid: EpsilonGrid, kind: str):
    """Factor a matrix of scalar nets eps-by-eps, collecting each angle slot
    into a tabulated net.  Any per-eps failure aborts with the offending eps.

    The entries are evaluated over the whole grid in one compiled pass,
    which fails at its first failing entry.  That entry's first failing eps
    need not be the grid's, so the eps before it are evaluated again until
    they run clean; the last error is raised once those eps are factored,
    so the first failure is the one an eps-by-eps walk, entries in
    row-major order, would meet."""
    if kind not in ("rotation", "lorentz"):
        raise ValueError("kind must be 'rotation' or 'lorentz'")
    factorize = givens_decompose if kind == "rotation" else lorentz_decompose
    rows = [list(r) for r in M]
    entries = [_scalar_expr(v) for row in rows for v in row]
    eps_values, failure, columns = grid.values, None, None
    while columns is None:
        try:
            columns = ex.eval_many(entries, eps_values, np.zeros((1, 0)))
        except ex.EvalError as err:
            eps_values, failure = eps_values[: eps_values.index(err.eps)], err
    values = iter(columns)
    stack = np.array([[next(values)[:, 0] for _ in row] for row in rows])
    per_eps = []
    for eps, A in zip(eps_values, np.ascontiguousarray(np.moveaxis(stack, -1, 0))):
        try:
            per_eps.append(factorize(A))
        except DecompositionError as err:
            raise DecompositionError(f"factorization failed at eps={eps!r}: {err}") from None
    if failure is not None:
        raise failure
    # every eps yields the same slots (kind and axes), so each slot is one
    # tabulated net over the grid
    first = per_eps[0]
    factors = tuple(
        PlanarFactor(f.kind, f.i, f.j, Net.tabulated(zip(grid.values, (s.factors[m].theta for s in per_eps))))
        for m, f in enumerate(first.factors)
    )
    return type(first)(len(rows), factors)

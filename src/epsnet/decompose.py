"""Constructive factorizations of orthogonal and Lorentz matrices.

Special orthogonal matrices factor into a fixed, dimension-dependent schedule
of planar rotations obtained by Givens elimination; the full orthogonal group
adds one fixed reflection.  Proper orthochronous Lorentz matrices factor into
spatial rotation, single boost, spatial rotation; the full Lorentz group adds
fixed time and space inversions.  Matrices whose entries are scalar nets are
factored eps-by-eps; each angle slot becomes a tabulated scalar net
(:meth:`Net.tabulated`), known only on the grid it was factored on.  Numeric
matrices exist for real angles only; a tabulated factorization is evaluated
through its group element.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .colombeau import EpsilonGrid, Net
from .groups import GroupElement, PlanarFactor, _scalar_expr
from .report import Record, record

ORTHOGONALITY_TOL = 1e-8
FORM_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-10
LORENTZ_RECONSTRUCTION_TOL = 1e-9
TIME_FIX_TOL = 1e-9
ELIMINATION_TIE_TOL = 1e-14

TWO_PI = 2.0 * math.pi


class DecompositionError(ValueError):
    """Input fails the preconditions of a factorization."""


def rotation_schedule_pairs(d: int) -> tuple:
    """The fixed elimination schedule for dimension d; depends on d only."""
    return tuple((i, j) for j in range(d, 1, -1) for i in range(1, j))


@record
class RotationSchedule(Record):
    """An ordered product of planar rotations with a fixed axis schedule."""

    dimension: int
    factors: tuple  # PlanarFactor tuple, composition order (applied right to left)

    @property
    def pairs(self) -> tuple:
        return tuple((f.i, f.j) for f in self.factors)

    def angles(self) -> tuple:
        return tuple(float(f.theta) for f in self.factors)

    def matrix(self) -> np.ndarray:
        M = np.eye(self.dimension)
        for f in self.factors:
            M = M @ f.matrix(self.dimension)
        return M

    def as_group_element(self) -> GroupElement:
        return GroupElement.from_factors(self.dimension, self.factors)

    def shift_axes(self, offset: int, dimension: int) -> "RotationSchedule":
        factors = tuple(
            PlanarFactor(f.kind, f.i + offset, f.j + offset, f.theta) for f in self.factors
        )
        return RotationSchedule(dimension, factors)


def _check_finite(M: np.ndarray):
    # NaN compares false against every tolerance, so a NaN matrix would pass
    # the form checks and factor as the identity
    if not np.all(np.isfinite(M)):
        raise DecompositionError("matrix has non-finite entries")


def _check_orthogonal(M: np.ndarray, tol: float = ORTHOGONALITY_TOL):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DecompositionError("matrix must be square")
    _check_finite(M)
    defect = float(np.max(np.abs(M.T @ M - np.eye(M.shape[0]))))
    if defect > tol:
        raise DecompositionError(f"matrix is not orthogonal within {tol} (defect {defect:.3e})")


def _elimination_angle(target: float, pivot: float) -> float:
    """Rotation angle zeroing ``target`` into ``pivot`` (pivot becomes >= 0)."""
    if abs(target) < ELIMINATION_TIE_TOL:
        # deterministic tie-break at degenerate inputs; a negative pivot still
        # needs the half turn
        return 0.0 if pivot >= 0.0 else math.pi
    return math.atan2(target, pivot)


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
    factors = []
    for i, j in rotation_schedule_pairs(d):
        ii, jj = i - 1, j - 1
        phi = _elimination_angle(A[ii, jj], A[jj, jj])
        if phi != 0.0:
            c, s = math.cos(phi), math.sin(phi)
            row_i = c * A[ii, :] - s * A[jj, :]
            row_j = s * A[ii, :] + c * A[jj, :]
            A[ii, :] = row_i
            A[jj, :] = row_j
        factors.append(PlanarFactor("rotation", i, j, (-phi) % TWO_PI))
    residue = float(np.max(np.abs(A - np.eye(d)))) if d else 0.0
    if residue > 1e-7:
        raise DecompositionError(
            f"elimination failed to reach the identity (residue {residue:.3e})"
        )
    return RotationSchedule(d, tuple(factors))


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


def _check_lorentz_form(L: np.ndarray, tol: float = FORM_TOL):
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] < 2:
        raise DecompositionError("matrix must be square of size >= 2")
    _check_finite(L)
    eta = minkowski_metric(L.shape[0])
    defect = float(np.max(np.abs(L.T @ eta @ L - eta)))
    if defect > tol:
        raise DecompositionError(
            f"matrix does not preserve the form within {tol} (defect {defect:.3e})"
        )


def boost_matrix(n: int, theta: float) -> np.ndarray:
    B = np.eye(n)
    c, s = math.cosh(theta), math.sinh(theta)
    B[0, 0], B[0, 1] = c, s
    B[1, 0], B[1, 1] = s, c
    return B


def _align_first_axis(v: np.ndarray) -> list:
    """Spatial rotation factors (pairs (1,i)) mapping e_1 to the unit vector
    v; deterministic Givens elimination of the trailing components."""
    d = v.shape[0]
    w = v.copy()
    inverse_factors = []
    for i in range(2, d + 1):
        # pivot is the leading slot here, so the zeroed component enters
        # atan2 with a flipped sign
        phi = _elimination_angle(-w[i - 1], w[0])
        if phi != 0.0:
            c, s = math.cos(phi), math.sin(phi)
            w0 = c * w[0] - s * w[i - 1]
            wi = s * w[0] + c * w[i - 1]
            w[0], w[i - 1] = w0, wi
        inverse_factors.append(PlanarFactor("rotation", 1, i, (-phi) % TWO_PI))
    return inverse_factors


@record
class LorentzFactorization:
    """g = R1 o boost(1,2,theta) o R2 with spatial rotations R1, R2."""

    dimension: int  # full spacetime dimension d+1
    r1: RotationSchedule
    theta: object  # float or tabulated Net
    r2: RotationSchedule

    def boost_factor(self) -> PlanarFactor:
        return PlanarFactor("boost", 1, 2, self.theta)

    @property
    def factors(self) -> tuple:
        """r1's factors (n-2 slots), the boost, then r2's."""
        return self.r1.factors + (self.boost_factor(),) + self.r2.factors

    def as_group_element(self) -> GroupElement:
        return GroupElement.from_factors(self.dimension, self.factors)

    def matrix(self) -> np.ndarray:
        boost = self.boost_factor().matrix(self.dimension)
        return self.r1.matrix() @ boost @ self.r2.matrix()

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "r1": self.r1.to_json_dict(),
            "theta": self.boost_factor().to_json_dict()["theta"],
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
    if norm < ELIMINATION_TIE_TOL:
        # identity alignment, kept at the n-2 slots of the general case:
        # decompose_net_matrix splits the tabulated slots by that count
        r1_factors = [PlanarFactor("rotation", 2, i + 1, 0.0) for i in range(2, n)]
        R1 = np.eye(n)
    else:
        spatial = _align_first_axis(v / norm)
        r1_factors = [
            PlanarFactor("rotation", f.i + 1, f.j + 1, f.theta) for f in spatial
        ]
        R1 = np.eye(n)
        for f in r1_factors:
            R1 = R1 @ f.matrix(n)
    r1 = RotationSchedule(n, tuple(r1_factors))
    R2 = boost_matrix(n, -theta) @ R1.T @ L
    time_defect = max(
        abs(R2[0, 0] - 1.0),
        float(np.max(np.abs(R2[0, 1:]))) if n > 1 else 0.0,
        float(np.max(np.abs(R2[1:, 0]))) if n > 1 else 0.0,
    )
    if time_defect > TIME_FIX_TOL:
        raise DecompositionError(
            f"residual factor does not fix the time axis (defect {time_defect:.3e})"
        )
    r2 = givens_decompose(R2[1:, 1:]).shift_axes(1, n)
    fact = LorentzFactorization(n, r1, theta, r2)
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

    The entries are evaluated over the whole grid in one compiled pass.  An
    evaluation error is raised once the eps before it are factored, so the
    first failure is the one an eps-by-eps walk, entries in row-major order,
    would meet."""
    if kind not in ("rotation", "lorentz"):
        raise ValueError("kind must be 'rotation' or 'lorentz'")
    factorize = givens_decompose if kind == "rotation" else lorentz_decompose
    rows = [list(r) for r in M]
    entries = [_scalar_expr(v) for row in rows for v in row]
    eps_values, failure = grid.values, None
    try:
        columns = ex.eval_many(entries, eps_values, np.zeros((1, 0)))
    except ex.EvalError as err:
        eps_values, failure = eps_values[: eps_values.index(err.eps)], err
        columns = ex.eval_many(entries, eps_values, np.zeros((1, 0)))
    values = iter(columns)
    stack = np.array([[next(values)[:, 0] for _ in row] for row in rows])
    per_eps = []
    for eps, A in zip(eps_values, np.ascontiguousarray(np.moveaxis(stack, -1, 0))):
        try:
            per_eps.append(factorize(A).factors)
        except DecompositionError as err:
            raise DecompositionError(f"factorization failed at eps={eps!r}: {err}") from None
    if failure is not None:
        raise failure
    # every eps yields the same slots (kind and axes), so each slot is one
    # tabulated net over the grid
    n = len(rows)
    factors = tuple(
        PlanarFactor(f.kind, f.i, f.j, Net.tabulated(zip(grid.values, (s[m].theta for s in per_eps))))
        for m, f in enumerate(per_eps[0])
    )
    if kind == "rotation":
        return RotationSchedule(n, factors)
    return LorentzFactorization(
        n,
        RotationSchedule(n, factors[: n - 2]),
        factors[n - 2].theta,
        RotationSchedule(n, factors[n - 1 :]),
    )

"""Seeded job lists for the three benchmark workloads.

Each workload is a fixed-order list of ``epsnet`` CLI jobs.  The bench draws
every numeric input (net coefficients, SO(3) and SO+(1,3) matrices, the
boost rapidity, R values) from the workload seed; the program only ever
sees the generated arguments and matrix files, never the seed.  The shape of
every job (subcommand, dimension, lattice, grid, order, net structure) is
fixed per workload, so seeds move the numbers but not the amount of work.

Every job carries the verdict and exit status known by construction, plus an
optional evidence check that needs no trust in the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: Exit status of a positive verdict or a successful computation, and of a
#: negative verdict, as the CLI documents them.
EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1


@dataclass(frozen=True)
class Job:
    id: str
    args: tuple  # CLI arguments after the program name, without --out
    verdict: str
    exit_code: int
    check: Optional[Callable[[dict], Optional[str]]] = None  # evidence -> problem or None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, Path], list]
    #: layers whose spans must record at least one call in a traced run
    required_layers: tuple
    #: closed-loop passes over the job list run at the least, so that every
    #: job repeats (report-determinism check); diophantine needs four so
    #: that its tail percentile lands among the two-period jobs
    min_passes: int = 2


def _num(x: float) -> str:
    return f"{x:.4f}"


def _box(d: int) -> str:
    return "--box=" + ",".join(["-1:1"] * d)


def _radial(d: int) -> str:
    return "+".join(f"x{k}^2" for k in range(1, d + 1))


# ---------------------------------------------------------------------------
# evidence checks


def _classify_check(ev: dict) -> Optional[str]:
    # a Gaussian envelope times cos(eps*b*xi*xj) tends to the envelope as
    # eps -> 0: every derivative sup is a nonzero constant in the limit
    if ev.get("moderate") is not True:
        return "classify: net not reported moderate"
    if ev.get("negligible_order") != 0:
        return f"classify: negligible_order={ev.get('negligible_order')}, expected 0"
    b = ev.get("fitted_exponent")
    if not isinstance(b, (int, float)) or abs(b) > 0.05:
        return f"classify: fitted_exponent={b!r}, expected ~0"
    if ev.get("bounded") is not True:
        return "classify: net not reported bounded"
    return None


def _pipeline_check(ev: dict) -> Optional[str]:
    if ev.get("consistent") is not True:
        return "pipeline: factor-by-factor and full verdicts disagree"
    return None


def _explore_check(ev: dict) -> Optional[str]:
    if ev.get("theorem_grade") is not False:
        return "explore: output claims theorem grade"
    if ev.get("applicable") is not True:
        return "explore: a constant net must make both periods applicable"
    return None


_ALGEBRAIC = {
    "sqrt2": lambda mp: mp.sqrt(2),
    "cbrt2": lambda mp: mp.cbrt(2),
    "phi": lambda mp: (1 + mp.sqrt(5)) / 2,
}


def _corollary_check(alpha: str, R: float) -> Callable[[dict], Optional[str]]:
    def check(ev: dict) -> Optional[str]:
        from mpmath import mp

        k, l, M = ev.get("k"), ev.get("l"), ev.get("M")
        if not all(isinstance(v, int) for v in (k, l, M)):
            return "corollary-pair: k, l, M must be integers"
        if not 1 <= l <= R:
            return f"corollary-pair: l={l} outside [1, R={R}]"
        with mp.workdps(60):
            defect = abs(k - l * _ALGEBRAIC[alpha](mp))
            if not defect <= mp.mpf(2) / mp.mpf(R):
                return "corollary-pair: defect exceeds 2/R"
            if not defect >= mp.power(mp.mpf(R), -M):
                return "corollary-pair: defect below R^-M"
        return None

    return check


# ---------------------------------------------------------------------------
# seeded matrices (written to files and passed with --matrix)


def _haar_so(rng: random.Random, d: int) -> np.ndarray:
    A = np.array([[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)])
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _proper_lorentz(rng: random.Random, n: int, rapidity: float) -> np.ndarray:
    """Spatial rotation x boost in the (t, x1) plane x spatial rotation."""
    def spatial() -> np.ndarray:
        S = np.eye(n)
        S[1:, 1:] = _haar_so(rng, n - 1)
        return S

    B = np.eye(n)
    c, s = math.cosh(rapidity), math.sinh(rapidity)
    B[0, 0], B[0, 1], B[1, 0], B[1, 1] = c, s, s, c
    return spatial() @ B @ spatial()


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return path.name


# ---------------------------------------------------------------------------
# workloads


def _classify_deriv(rng: random.Random, work: Path) -> list:
    jobs = []
    for n, (i, j) in enumerate(((1, 2), (1, 3), (2, 3))):
        a = [rng.uniform(0.5, 1.5) for _ in range(3)]
        b = rng.uniform(0.5, 2.0)
        envelope = "+".join(f"{_num(a[k])}*x{k + 1}^2" for k in range(3))
        f = f"exp(-({envelope}))*cos(eps*{_num(b)}*x{i}*x{j})"
        args = ("classify", "--f", f, "--dim", "3", _box(3), "--samples", "17",
                "--max-order", "4", "--k-min", "4", "--k-max", "16")
        jobs.append(Job(f"classify-{n}", args, "computed", EXIT_POSITIVE, _classify_check))
    return jobs


def _group_fixed(rng: random.Random, work: Path) -> list:
    so3 = _write_json(work / "so3.json", _haar_so(rng, 3).tolist())
    lor = _write_json(work / "lorentz4.json", _proper_lorentz(rng, 4, rng.uniform(0.5, 1.5)).tolist())
    a = rng.uniform(0.5, 1.5)
    b = rng.uniform(0.5, 1.5)
    widths = (rng.uniform(0.3, 0.6), rng.uniform(0.9, 1.2), rng.uniform(1.5, 1.8))
    minkowski = "x1^2-x2^2-x3^2-x4^2"
    anisotropic = "+".join(f"{_num(w)}*x{k + 1}^2" for k, w in enumerate(widths))
    return [
        Job("rotation-radial",
            ("rotation", "--f", f"exp(-{_num(a)}*({_radial(3)}))", "--dim", "3", _box(3),
             "--samples", "33", "--matrix", so3),
            "positive", EXIT_POSITIVE, _pipeline_check),
        Job("lorentz-minkowski",
            ("lorentz", "--f", f"exp(-{_num(b)}*({minkowski})^2)", "--dim", "4", _box(4),
             "--samples", "11", "--matrix", lor),
            "positive", EXIT_POSITIVE, _pipeline_check),
        Job("rotation-control",
            ("rotation", "--f", f"exp(-({anisotropic}))", "--dim", "3", _box(3),
             "--samples", "33", "--matrix", so3),
            "negative", EXIT_NEGATIVE, _pipeline_check),
    ]


def _diophantine(rng: random.Random, work: Path) -> list:
    jobs = []
    # orders chosen so the three two-period jobs cost about the same
    for alpha, p in (("sqrt2", 8), ("cbrt2", 8), ("phi", 6)):
        f = f"{_num(rng.uniform(1.0, 9.0))} + eps^(1/eps)*sin({_num(rng.uniform(0.5, 2.0))}*x1)"
        args = ("two-period", "--f", f, "--alpha", alpha, "--R", _num(rng.uniform(5.0, 7.0)),
                "--p", str(p))
        jobs.append(Job(f"two-period-{alpha}", args, "positive", EXIT_POSITIVE))
    for decade in (4, 6, 8, 10, 12):
        alpha = rng.choice(sorted(_ALGEBRAIC))
        R = float(f"{rng.uniform(1.0, 9.9):.3f}e{decade}")
        jobs.append(Job(f"corollary-1e{decade}", ("corollary-pair", "--alpha", alpha, "--R", repr(R)),
                        "computed", EXIT_POSITIVE, _corollary_check(alpha, R)))
    for alpha in ("pi", "e"):
        args = ("explore-open-question", "--f", _num(rng.uniform(1.0, 9.0)), "--alpha", alpha,
                "--R", _num(rng.uniform(6.0, 8.0)), "--p", "3")
        jobs.append(Job(f"explore-{alpha}", args, "exploratory", EXIT_POSITIVE, _explore_check))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify-deriv",
            "order-4 derivative families of d=3 nets on a 17^3 lattice: symbolic "
            "differentiation and per-eps tree evaluation dominate",
            _classify_deriv,
            required_layers=("expr.diff", "expr.eval", "colombeau.classify"),
        ),
        Workload(
            "group-fixed",
            "eps-independent SO(3)/SO+(1,3) pipelines on 33^3 and 11^4 lattices: "
            "image bound and composed-tree evaluation dominate",
            _group_fixed,
            required_layers=("colombeau.image_bound", "expr.eval", "groups.apply",
                             "groups.compose", "decompose"),
        ),
        Workload(
            "diophantine",
            "two-period, corollary-pair and explorer jobs: short runs where "
            "Dirichlet/Liouville arithmetic and import time dominate",
            _diophantine,
            required_layers=("numbertheory.dirichlet", "numbertheory.liouville",
                             "numbertheory.corollary"),
            min_passes=4,
        ),
    )
}

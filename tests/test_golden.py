"""Golden reports of every subcommand: each job's report must match its
recorded file byte for byte, so a refactor of how alphas are resolved, how
two-period rows are built, or how the evaluator and constant folding combine
numbers cannot move a verdict or a digit.

The files under ``golden/`` were written by these same jobs through
``cli.run``; small grids keep each job fast."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from epsnet.cli import EXIT_NEGATIVE, EXIT_POSITIVE, run

GOLDEN = Path(__file__).parent / "golden"

SMALL = ("--R", "6", "--p", "2", "--k-max", "16", "--samples", "17")
#: a bump narrower than the sample spacing, centred on a point of the
#: centred-sup sample grid (R = 6, alpha = sqrt2, 17 samples) and on no point
#: of the period-deviation grids: the deviations read zero, the centred sup
#: reads 1, and the structural bound fails
BUMP = "3 + exp(-((x1-1.2928932188134525)*1000)^2)"

#: a coarse eps grid and lattice for the numpy-side subcommands
GRID = ("--k-max", "8", "--samples", "7")


def _table(value):
    """A tabulated angle entry on the eps grid of ``GRID``."""
    return {"table": [[2.0**-k, value] for k in range(4, 9)]}


#: the three shapes of --element: factors, a matrix with tabulated entries,
#: coordinate expressions
FACTORS = {"dimension": 2, "factors": [
    {"kind": "boost", "i": 1, "j": 2, "theta": "eps"},
    {"kind": "translation", "offset": [0.25, "eps^2"]},
]}
MATRIX = {"matrix": [[_table(0.6), _table(-0.8)], [_table(0.8), _table(0.6)]]}
COORDS = {"coords": ["x1+eps^3"]}

#: (name, exit code, argv)
JOBS = (
    ("dirichlet_sqrt2_5", EXIT_POSITIVE, ("dirichlet", "--alpha", "sqrt2", "--N", "5")),
    ("dirichlet_pi_7", EXIT_POSITIVE, ("dirichlet", "--alpha", "pi", "--N", "7")),
    ("dirichlet_0.1_1000", EXIT_POSITIVE, ("dirichlet", "--alpha", "0.1", "--N", "1000")),
    ("two_period_constant", EXIT_POSITIVE,
     ("two-period", "--f", "7 + eps^(1/eps)*sin(x1)", "--alpha", "sqrt2", *SMALL)),
    ("two_period_not_applicable", EXIT_NEGATIVE,
     ("two-period", "--f", "sin(2*3.141592653589793*x1)", "--alpha", "sqrt2", *SMALL)),
    # order 1 finds its eps0, order 2 none: the report is not-applicable
    # with the certificate of order 1 kept
    ("two_period_last_order_fails", EXIT_NEGATIVE,
     ("two-period", "--f", "eps^8*sin(x1)", "--alpha", "sqrt2", *SMALL)),
    ("two_period_not_certified", EXIT_NEGATIVE,
     ("two-period", "--f", BUMP, "--alpha", "sqrt2", *SMALL)),
    ("explore_pi", EXIT_POSITIVE,
     ("explore-open-question", "--f", "2", "--alpha", "pi", *SMALL)),
    ("explore_0.7", EXIT_POSITIVE,
     ("explore-open-question", "--f", "1 + eps^(1/eps)*sin(x1)", "--alpha", "0.7", *SMALL)),
    ("corollary_pair_phi_4", EXIT_POSITIVE, ("corollary-pair", "--alpha", "phi", "--R", "4")),
    # Liouville's critical points of a cubic, e's value, and precision far
    # beyond double: a pair near R = 1e300 and N = 2^1000
    ("liouville_cbrt2", EXIT_POSITIVE, ("liouville", "--alpha", "cbrt2")),
    ("explore_e_3", EXIT_POSITIVE,
     ("explore-open-question", "--f", "3", "--alpha", "e", "--R", "7", "--p", "3")),
    ("corollary_pair_cbrt2_1e300", EXIT_POSITIVE,
     ("corollary-pair", "--alpha", "cbrt2", "--R", "1e300")),
    ("dirichlet_pi_2_1000", EXIT_POSITIVE, ("dirichlet", "--alpha", "pi", "--N", str(2**1000))),
    ("classify_d2", EXIT_POSITIVE,
     ("classify", "--f", "exp(-(x1^2+x2^2))*cos(eps*x1*x2)+eps^2*x1", "--dim", "2",
      "--max-order", "2", *GRID)),
    ("invariance_rotation_real", EXIT_POSITIVE,
     ("invariance", "--f", "exp(-(x1^2+x2^2))", "--dim", "2", "--rotation", "1,2,0.3",
      "--p", "2", *GRID)),
    ("invariance_rotation_eps", EXIT_POSITIVE,
     ("invariance", "--f", "x1^2+x2^2+x3", "--dim", "3", "--rotation", "1,2,1/eps",
      "--p", "2", *GRID)),
    ("invariance_boost", EXIT_POSITIVE,
     ("invariance", "--f", "x1^2-x2^2", "--dim", "2", "--boost", "1,2,0.5", "--p", "2", *GRID)),
    ("invariance_translate", EXIT_NEGATIVE,
     ("invariance", "--f", "sin(x1)+eps", "--dim", "1", "--box=-1:1", "--translate", "0.5",
      "--p", "2", *GRID)),
    ("invariance_element_factors", EXIT_NEGATIVE,
     ("invariance", "--f", "cos(x1*x2)", "--dim", "2", "--element", json.dumps(FACTORS),
      "--p", "2", *GRID)),
    ("invariance_element_matrix_table", EXIT_POSITIVE,
     ("invariance", "--f", "x1^2+x2^2", "--dim", "2", "--element", json.dumps(MATRIX),
      "--p", "2", *GRID)),
    ("invariance_element_coords", EXIT_POSITIVE,
     ("invariance", "--f", "sqrt(2+x1)*ln(3+x1)", "--dim", "1", "--element", json.dumps(COORDS),
      "--p", "2", *GRID)),
    ("one_param_gen_theta", EXIT_POSITIVE,
     ("one-param", "--f", "exp(-(x1^2+x2^2))", "--dim", "2", "--kind", "rotation", "--i", "1",
      "--j", "2", "--gen-theta", "eps", "--gen-theta", "sin(1/eps)", "--p", "2", *GRID)),
    # x1+x2 is not rotation invariant: the hypothesis fails
    ("one_param_hypothesis_fails", EXIT_NEGATIVE,
     ("one-param", "--f", "x1+x2", "--dim", "2", "--kind", "rotation", "--i", "1", "--j", "2",
      "--gen-theta", "eps", *GRID)),
    # a boost by 1000 overflows on the box in both blocks, each waived
    ("one_param_waived_both_blocks", EXIT_NEGATIVE,
     ("--no-strict", "one-param", "--f", "x1^2-x2^2", "--dim", "2", "--kind", "boost", "--i", "1",
      "--j", "2", "--real-thetas", "1000,0.5", "--gen-theta", "1000", *GRID)),
    ("rotation_matrix", EXIT_POSITIVE,
     ("rotation", "--f", "exp(-(x1^2+x2^2+x3^2))", "--dim", "3",
      "--matrix", "[[0.6,-0.8,0],[0.8,0.6,0],[0,0,1]]", "--p", "2", *GRID)),
    ("rotation_matrix_net", EXIT_POSITIVE,
     ("rotation", "--f", "x1^2+x2^2", "--dim", "2",
      "--matrix-net", '[["cos(eps)","-sin(eps)"],["sin(eps)","cos(eps)"]]', "--p", "2", *GRID)),
    ("lorentz_matrix", EXIT_POSITIVE,
     ("lorentz", "--f", "x1^2-x2^2-x3^2", "--dim", "3",
      "--matrix", "[[1.25,0.75,0],[0.75,1.25,0],[0,0,1]]", "--p", "2", *GRID)),
    ("lorentz_matrix_net", EXIT_POSITIVE,
     ("lorentz", "--f", "exp(-(x1^2-x2^2))", "--dim", "2",
      "--matrix-net", '[["cosh(eps)","sinh(eps)"],["sinh(eps)","cosh(eps)"]]', "--p", "2", *GRID)),
    ("translation_constant", EXIT_POSITIVE,
     ("translation", "--f", "3+eps^6*sin(x1)", "--dim", "1", "--box=-2:2",
      "--h-samples", "0.5;1.0", "--p", "2", *GRID)),
    ("translation_not_constant", EXIT_NEGATIVE,
     ("translation", "--f", "3+eps*sin(x1)", "--dim", "1", "--box=-2:2",
      "--h-samples", "0.5;1.0", "--p", "2", *GRID)),
    ("decompose_so_3", EXIT_POSITIVE, ("decompose-so", "--matrix", "[[0,-1,0],[1,0,0],[0,0,1]]")),
    ("decompose_lorentz_3", EXIT_POSITIVE,
     ("decompose-lorentz", "--matrix", "[[1.25,0.75,0],[0.75,1.25,0],[0,0,1]]")),
)


@pytest.mark.parametrize("name, code, argv", JOBS, ids=[job[0] for job in JOBS])
def test_report_matches_its_golden_file(tmp_path, name, code, argv):
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["--out", str(out), *argv]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

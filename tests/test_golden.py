"""Golden reports of the Diophantine subcommands: each job's report must
match its recorded file byte for byte, so a refactor of how alphas are
resolved or how two-period rows are built cannot move a verdict or a digit.

The files under ``golden/`` were written by these same jobs through
``cli.run``; small grids keep each job fast."""

import contextlib
import io
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
)


@pytest.mark.parametrize("name, code, argv", JOBS, ids=[job[0] for job in JOBS])
def test_report_matches_its_golden_file(tmp_path, name, code, argv):
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["--out", str(out), *argv]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

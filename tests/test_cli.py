import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import entry_point_env, random_expr

from epsnet import cli
from epsnet.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_POSITIVE, run, schema_path
from epsnet.expr import to_text


@pytest.fixture()
def schema():
    with open(schema_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _reject_constant(token):
    raise ValueError(f"report holds {token}, which is not RFC 8259 JSON")


def run_cmd(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = run(["--out", str(out), *argv])
    data = json.loads(out.read_text(), parse_constant=_reject_constant) if out.exists() else None
    return code, data


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err
    return err


FAST_GRID = ["--k-min", "4", "--k-max", "20"]


class TestExitCodes:
    def test_dirichlet(self, tmp_path, schema, capsys):
        code, data = run_cmd(tmp_path, ["dirichlet", "--alpha", "sqrt2", "--N", "5"])
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        assert data["evidence"]["k"] == 7 and data["evidence"]["l"] == 5
        assert "(k,l)=(7,5)" in capsys.readouterr().out

    def test_two_period_positive(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["two-period", "--f", "7 + eps^(1/eps)*sin(x1)", "--alpha", "sqrt2", "--R", "6", "--p", "4"],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        assert data["verdict"] == "positive"
        assert data["evidence"]["verdict"] == "constant"

    def test_two_period_not_applicable(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["two-period", "--f", "sin(2*3.141592653589793*x1)", "--alpha", "sqrt2", "--R", "6", "--p", "2"],
        )
        assert code == EXIT_NEGATIVE
        jsonschema.validate(data, schema)
        assert data["verdict"] == "not-applicable"

    def test_decompose_so_identity(self, tmp_path, schema):
        m = tmp_path / "m.json"
        m.write_text("[[1,0],[0,1]]")
        code, data = run_cmd(tmp_path, ["decompose-so", "--matrix", str(m)])
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        thetas = [f["theta"] for f in data["evidence"]["schedule"]["factors"]]
        assert thetas == ["0"]
        assert data["evidence"]["reflected"] is False

    def test_invariance_negative(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["invariance", "--f", "x1", "--dim", "2", "--box=-1:1,-1:1",
             "--rotation", "1,2,1.5707963267948966", "--p", "1", *FAST_GRID],
        )
        assert code == EXIT_NEGATIVE
        jsonschema.validate(data, schema)
        assert data["evidence"]["c_bounded"] is True

    def test_invariance_positive_generalized_angle(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["invariance", "--f", "exp(-(x1^2+x2^2))", "--dim", "2", "--box=-1:1,-1:1",
             "--rotation", "1,2,sin(1/eps)", "--p", "6", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)

    def test_usage_error(self, tmp_path):
        code, _ = run_cmd(tmp_path, ["dirichlet", "--alpha", "nope", "--N", "5"])
        assert code == EXIT_ERROR

    def test_eval_domain_error(self, tmp_path):
        code, _ = run_cmd(
            tmp_path,
            ["classify", "--f", "ln(x1)", "--dim", "1", "--box=-1:1", *FAST_GRID],
        )
        assert code == EXIT_ERROR

    def test_overflowing_element_is_an_error(self, tmp_path, capsys):
        # cosh(1/eps) overflows once the boost is applied to the lattice
        code, data = run_cmd(
            tmp_path,
            ["invariance", "--f", "x1^2-x2^2", "--dim", "2", "--boost", "1,2,1/eps", *FAST_GRID],
        )
        assert code == EXIT_ERROR
        assert data is None
        assert assert_one_line_error(capsys) == (
            "error: transformation is not c-bounded on the box; --no-strict waives this check\n"
        )

    def test_waived_c_boundedness_warns_on_one_line(self, tmp_path, capsys):
        code, data = run_cmd(
            tmp_path,
            ["--no-strict", "invariance", "--f", "x1^2-x2^2", "--dim", "2",
             "--boost", "1,2,1/eps", *FAST_GRID],
        )
        assert code == EXIT_NEGATIVE
        assert data["verdict"] == "negative"
        assert capsys.readouterr().err == "warning: transformation is not c-bounded on the box\n"

    def test_a_waived_pipeline_warns_once_for_its_factors_and_once_for_the_full_element(
            self, tmp_path, capsys):
        # the boost factor and the full element both fail the check
        boost = [["cosh(ln(1/eps))", "sinh(ln(1/eps))", "0"],
                 ["sinh(ln(1/eps))", "cosh(ln(1/eps))", "0"], ["0", "0", "1"]]
        code, data = run_cmd(tmp_path, ["--no-strict", "lorentz", "--f", "x1^2-x2^2-x3^2", "--dim", "3",
                                        "--samples", "5", "--k-max", "8", "--matrix-net", json.dumps(boost)])
        assert code == EXIT_POSITIVE
        assert [r["c_bounded"] for r in data["evidence"]["factors"]] == [True, False, True]
        assert data["evidence"]["full"]["c_bounded"] is False
        assert capsys.readouterr().err == "warning: transformation is not c-bounded on the box\n" * 2

    def test_waived_one_param_records_its_unbounded_conclusion(self, tmp_path, capsys):
        # a boost by 1000 overflows on the box
        code, data = run_cmd(tmp_path, ["--no-strict", "one-param", "--f", "x1^2-x2^2", "--dim", "2",
                                        "--kind", "boost", "--i", "1", "--j", "2", "--gen-theta", "1000",
                                        "--k-max", "8"])
        assert code == EXIT_NEGATIVE
        assert [r["c_bounded"] for r in data["evidence"]["conclusion"]] == [False]
        assert capsys.readouterr().err == "warning: transformation is not c-bounded on the box\n"

    def test_waived_one_param_warns_once_for_each_block(self, tmp_path, capsys):
        # the boost by 1000 fails the check in the hypothesis and in the conclusion
        code, data = run_cmd(tmp_path, ["--no-strict", "one-param", "--f", "x1^2-x2^2", "--dim", "2",
                                        "--kind", "boost", "--i", "1", "--j", "2", "--real-thetas",
                                        "1000,0.5", "--gen-theta", "1000", "--k-max", "8",
                                        "--samples", "7"])
        assert code == EXIT_NEGATIVE
        assert [r["c_bounded"] for r in data["evidence"]["hypothesis"]] == [False, True]
        assert [r["c_bounded"] for r in data["evidence"]["conclusion"]] == [False]
        assert capsys.readouterr().err == "warning: transformation is not c-bounded on the box\n" * 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            # positive although the element translates by 1/eps
            (["--f", "x1*eps^9", "--dim", "1", "--element",
              '{"dimension":1,"factors":[{"kind":"translation","offset":["1/eps"]}]}'],
             EXIT_POSITIVE),
            # negative, drawn from non-finite sups of the overflowing image
            (["--f", "x1^2-x2^2", "--dim", "2", "--boost", "1,2,1/eps"], EXIT_NEGATIVE),
        ],
    )
    def test_waived_c_boundedness_is_recorded_in_the_report(self, tmp_path, schema, capsys, argv, code):
        got, data = run_cmd(tmp_path, ["--no-strict", "invariance", *argv, *FAST_GRID])
        assert got == code
        jsonschema.validate(data, schema)
        assert data["evidence"]["c_bounded"] is False
        assert capsys.readouterr().err == "warning: transformation is not c-bounded on the box\n"

    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_short_grid_isometry_is_c_bounded(self, tmp_path, capsys, dim):
        # the image radius swings between 1 and sqrt(2): no sustained growth
        f = "exp(-x1^2-x2^2)" if dim == "2" else "exp(-x1^2-x2^2-x3^2)"
        code, data = run_cmd(tmp_path, ["invariance", "--f", f, "--dim", dim,
                                        "--rotation", "1,2,1/eps", "--k-min", "3", "--k-max", "5"])
        assert code == EXIT_POSITIVE
        assert data["verdict"] == "positive" and data["evidence"]["c_bounded"] is True
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("grid", [["--k-min", "3", "--k-max", "5"], []], ids=["k3-5", "default"])
    @pytest.mark.parametrize(
        "element",
        [
            ["--boost", "1,2,1/eps"],
            ["--boost", "1,2,ln(1/eps)"],
            ["--element", '{"dimension":2,"factors":[{"kind":"translation","offset":["1/eps",0]}]}'],
            ["--element", '{"dimension":2,"coords":["x1/eps","x2"]}'],
        ],
        ids=["boost", "log-boost", "translation", "expanding"],
    )
    def test_growing_controls_are_not_c_bounded(self, tmp_path, capsys, element, grid):
        code, data = run_cmd(tmp_path, ["invariance", "--f", "exp(-x1^2-x2^2)", "--dim", "2",
                                        *element, *grid])
        assert code == EXIT_ERROR and data is None
        assert assert_one_line_error(capsys) == (
            "error: transformation is not c-bounded on the box; --no-strict waives this check\n"
        )

    @pytest.mark.parametrize(
        "dim, element, fragment",
        [
            ("1", "{}", "--element"),
            ("1", '{"factors":[{"kind":"bogus"}]}', "--element"),
            ("1", "[1,2]", "--element"),
            ("2", '{"matrix": [[1,0],[0,1]], "dimension": 3}', "--element"),
            # a table that misses grid points cannot be evaluated there
            ("2", '{"factors":[{"kind":"rotation","i":1,"j":2,"theta":{"table":[[0.5,0.1]]}}]}',
             "not a grid point"),
            # a boolean is not a number, as --matrix rules, and axes and the
            # dimension are integers, not truncated reals
            ("2", '{"factors":[{"kind":"rotation","i":1,"j":2,"theta":true}]}',
             "entries must be finite numbers, got true"),
            ("2", '{"matrix":[[true,0],[0,1]]}', "entries must be finite numbers, got true"),
            ("2", '{"factors":[{"kind":"rotation","i":1.7,"j":2,"theta":0.5}]}',
             "i must be an integer, got 1.7"),
            ("2", '{"factors":[{"kind":"rotation","i":1,"j":true,"theta":0.5}]}',
             "j must be an integer, got true"),
            ("2", '{"dimension":2.5,"factors":[]}', "dimension must be an integer, got 2.5"),
            # a non-finite entry has no report form: named as the problem
            ("2", '{"factors":[{"kind":"rotation","i":1,"j":2,"theta":Infinity}]}',
             "entries must be finite numbers, got Infinity"),
            ("2", '{"factors":[{"kind":"translation","offset":["nan",0]}]}',
             "entries must be finite numbers, got NaN"),
            ("2", '{"factors":[{"kind":"rotation","i":1,"j":2,"theta":{"table":[[0.5,NaN]]}}]}',
             "entries must be finite numbers, got NaN"),
            # a string is no array of its characters
            ("2", '{"factors":[{"kind":"translation","offset":"12"}]}',
             'offset must be an array, got "12"'),
            ("2", '{"matrix":["10","01"]}', 'a matrix row must be an array, got "10"'),
            ("2", '{"coords":"12"}', 'coords must be an array, got "12"'),
        ],
    )
    def test_malformed_element_is_a_usage_error(self, tmp_path, capsys, dim, element, fragment):
        code, data = run_cmd(
            tmp_path, ["invariance", "--f", "x1", "--dim", dim, "--element", element, *FAST_GRID]
        )
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, fragment)

    @pytest.mark.parametrize(
        "argv",
        [["classify", "--dim", "1"], ["invariance", "--dim", "1", "--translate", "1"]],
        ids=["classify", "invariance"],
    )
    def test_a_net_that_nests_too_deeply_is_one_line_error(self, tmp_path, capsys, argv):
        # the parser recurses once per nested parenthesis
        net = "(" * 3000 + "x1" + ")" * 3000
        code, data = run_cmd(tmp_path, [*argv, "--f", net, *FAST_GRID])
        assert code == EXIT_ERROR and data is None
        assert assert_one_line_error(capsys) == "error: the expression nests too deeply to process\n"

    @pytest.mark.parametrize(
        "argv",
        [["classify", "--dim", "1"], ["invariance", "--dim", "1", "--translate", "1"]],
        ids=["classify", "invariance"],
    )
    def test_a_deep_sum_runs(self, tmp_path, argv):
        # a left-deep sum of 2,000 terms: the symbolic layers walk it with
        # explicit stacks; f and f(x + 1) - f(x) are 2000 in sup at every eps
        code, data = run_cmd(tmp_path, [*argv, "--f", "+".join(["x1"] * 2000), *FAST_GRID])
        if argv[0] == "classify":
            assert code == EXIT_POSITIVE and data["verdict"] == "computed"
            report = data["evidence"]
        else:
            assert code == EXIT_NEGATIVE and data["verdict"] == "negative"
            assert data["evidence"]["invariant"] is False and data["evidence"]["c_bounded"] is True
            report = data["evidence"]["asymptotic"]
        assert report["moderate"] is True and report["bounded"] is True
        assert report["negligible_order"] == 0
        assert [s for _, s in report["sups"]] == [2000.0] * 17

    def test_unwritable_out_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = run(["--out", str(out), "dirichlet", "--alpha", "sqrt2", "--N", "5"])
        assert code == EXIT_ERROR and not out.exists()
        assert_one_line_error(capsys, "cannot write the report")

    @pytest.mark.parametrize(
        "argv, product",
        [
            (["rotation", "--f", "x1", "--dim", "2", "--random", "--samples", "100000"],
             "a lattice of 100000^2 = 10000000000 points"),
            (["translation", "--f", "x1", "--dim", "3", "--samples", "100000"],
             "a lattice of 100000^3 = 1000000000000000 points"),
            (["two-period", "--f", "1", "--alpha", "sqrt2", "--R", "5", "--samples", "10000000000"],
             "a lattice of 10000000000 points"),
        ],
        ids=["rotation", "translation", "two-period"],
    )
    def test_a_lattice_above_the_ceiling_is_a_usage_error(self, tmp_path, capsys, argv, product):
        # sizes refused before anything is allocated; none between is tried
        code, data = run_cmd(tmp_path, [*argv, *FAST_GRID])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, product, "exceeds the ceiling of 4194304 points")

    @pytest.mark.parametrize("matrix", ["[1]", '{"a": 1}', '[["1", "0"], ["0"]]', "[]"])
    def test_malformed_matrix_net_is_a_usage_error(self, tmp_path, capsys, matrix):
        code, data = run_cmd(
            tmp_path, ["rotation", "--f", "x1", "--dim", "2", "--matrix-net", matrix, *FAST_GRID]
        )
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "--matrix-net")

    def test_negative_max_order_is_a_usage_error(self, tmp_path, capsys):
        code, data = run_cmd(tmp_path, ["classify", "--f", "x1", "--dim", "1", "--max-order", "-1"])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "--max-order")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["two-period", "--f", "1", "--alpha", "sqrt2", "--R", "5", "--p", "0"], "--p"),
            (["two-period", "--f", "1", "--alpha", "sqrt2", "--R", "5", "--p", "-2"], "--p"),
            (["explore-open-question", "--f", "1", "--alpha", "pi", "--R", "7", "--p", "0"], "--p"),
            (["two-period", "--f", "x1", "--alpha", "sqrt2", "--R", "5", "--p", "1",
              "--samples", "0"], "--samples"),
            (["explore-open-question", "--f", "1", "--alpha", "pi", "--R", "7", "--p", "2",
              "--samples", "1"], "--samples"),
        ],
    )
    def test_two_period_order_and_samples_are_usage_errors(self, tmp_path, capsys, argv, flag):
        code, data = run_cmd(tmp_path, argv)
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "error: " + flag)

    @pytest.mark.parametrize(
        "argv",
        [
            ["two-period", "--f", "1", "--alpha", "phi", "--R", "6", "--p", "30"],
            ["two-period", "--f", "sin(2*3.141592653589793*x1)", "--alpha", "phi", "--R", "6",
             "--p", "26"],
            ["explore-open-question", "--f", "1", "--alpha", "pi", "--R", "6", "--p", "26"],
        ],
        ids=["two-period", "two-period-not-applicable", "explore"],
    )
    def test_p_beyond_double_range_is_a_usage_error(self, tmp_path, capsys, argv):
        # the finest default eps is 2^-40, and 2^(40*26) overflows a double
        code, data = run_cmd(tmp_path, argv)
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "error: --p ", "9.09495e-13", "the largest p on this grid is 25")

    @pytest.mark.parametrize("alpha", ["inf", "nan", "1e400"])
    def test_non_finite_alpha_is_a_usage_error(self, tmp_path, capsys, alpha):
        for argv in (["dirichlet", "--alpha", alpha, "--N", "5"],
                     ["explore-open-question", "--f", "1", "--alpha", alpha, "--R", "7", "--p", "2"]):
            code, data = run_cmd(tmp_path, argv)
            assert code == EXIT_ERROR and data is None
            assert_one_line_error(capsys, "alpha must be finite")

    @pytest.mark.parametrize("flag", ["--rotation", "--boost"])
    @pytest.mark.parametrize("spec", ["1,2", "a,2,0.3", "2,1,0.3", "1,3,0.3"])
    def test_malformed_planar_spec_is_a_usage_error(self, tmp_path, capsys, flag, spec):
        code, data = run_cmd(tmp_path, ["invariance", "--f", "x1", "--dim", "2", flag, spec])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, flag, repr(spec))

    @pytest.mark.parametrize("spec", ["1/eps", "0.5,x", ","])
    def test_non_numeric_translation_is_a_usage_error(self, tmp_path, capsys, spec):
        code, data = run_cmd(tmp_path, ["invariance", "--f", "x1", "--dim", "2", "--translate", spec])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "--translate", repr(spec))

    def test_empty_real_thetas_is_a_usage_error(self, tmp_path, capsys):
        # no real theta left the hypothesis untested: x1 came out positive
        code, data = run_cmd(tmp_path, ["one-param", "--f", "x1", "--dim", "2", "--kind", "rotation",
                                        "--i", "1", "--j", "2", "--real-thetas", ",", *FAST_GRID])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "--real-thetas", "','")

    @pytest.mark.parametrize("spec", ["inf", "nan"])
    def test_non_finite_translation_is_a_usage_error(self, tmp_path, capsys, spec):
        code, data = run_cmd(tmp_path, ["invariance", "--f", "x1", "--dim", "1", f"--translate={spec}"])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "--translate", "must be finite", repr(spec))

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["rotation", "--f", "x1^2+2*x2^2", "--dim", "2", "--matrix", "[[NaN,0],[0,1]]"], "error:"),
            (["rotation", "--f", "x1^2+2*x2^2+x3^2", "--dim", "3",
              "--matrix", "[[1,0,0],[0,1,0],[0,0,NaN]]"], "error:"),
            (["rotation", "--f", "x1^2+2*x2^2", "--dim", "2",
              "--matrix-net", '[["1+0*exp(exp(1/eps))","0"],["0","1"]]'], "factorization failed at eps="),
            (["decompose-so", "--matrix", "[[NaN,0],[0,1]]"], "error:"),
            (["decompose-lorentz", "--matrix", "[[NaN,0],[0,1]]"], "error:"),
            (["decompose-lorentz", "--matrix", "[[Infinity,0],[0,1]]"], "error:"),
        ],
        ids=["rotation-d2", "rotation-d3", "rotation-net", "decompose-so", "decompose-lorentz",
             "decompose-lorentz-inf"],
    )
    def test_non_finite_matrix_is_an_error(self, tmp_path, capsys, argv, fragment):
        # NaN passes every tolerance comparison, so such a matrix used to
        # factor as the identity and give a positive verdict
        code, data = run_cmd(tmp_path, argv)
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys, "error:", "non-finite entries", fragment)
        assert "warning:" not in err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["invariance", "--f", "x1", "--dim", "1", "--translate", "1", "--p", "0"], "--p"),
            (["invariance", "--f", "x1^2+2*x2^2", "--dim", "2", "--rotation", "1,2,0.3",
              "--p", "0"], "--p"),
            (["translation", "--f", "sin(x1)", "--dim", "1", "--p", "0"], "--p"),
            (["rotation", "--f", "x1^2+x2^2", "--dim", "2", "--matrix", "[[0,-1],[1,0]]",
              "--p", "-1"], "--p"),
            (["classify", "--f", "x1", "--dim", "1", "--samples", "1"], "--samples"),
        ],
        ids=["translate", "rotation", "translation", "pipeline", "classify-samples"],
    )
    def test_integer_option_below_its_bound_is_a_usage_error(self, tmp_path, capsys, argv, fragment):
        # at p = 0 the bound eps^p is 1: these once gave positive verdicts
        code, data = run_cmd(tmp_path, [*argv, *FAST_GRID])
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys, "error: " + fragment)
        assert "warning:" not in err

    def test_p_max_below_one_is_a_usage_error(self, tmp_path, capsys):
        # negligibility was tested at no order at all and reported as order 0
        code, data = run_cmd(tmp_path, ["classify", "--f", "eps^9*x1", "--dim", "1",
                                        "--k-max", "12", "--p-max", "0"])
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys)
        assert err == "error: --p-max must be >= 1, got 0\n"

    @pytest.mark.parametrize("k_min, k_max", [("5", "5"), ("6", "5"), ("0", "5")])
    def test_grid_of_fewer_than_two_eps_is_a_usage_error(self, tmp_path, capsys, k_min, k_max):
        # one eps once fitted exponent 0 and reported x1/eps bounded
        code, data = run_cmd(tmp_path, ["classify", "--f", "x1/eps", "--dim", "1",
                                        "--k-min", k_min, "--k-max", k_max])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "error: --k-min/--k-max", f"got {k_min} and {k_max}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dirichlet", "--alpha", "1/2", "--N", "10"],
            ["two-period", "--f", "3", "--alpha", "1/2", "--R", "6", "--p", "1"],
            ["explore-open-question", "--f", "3", "--alpha", "1/2", "--R", "7", "--p", "1"],
        ],
        ids=["dirichlet", "two-period", "explore-open-question"],
    )
    def test_alpha_that_names_nothing_is_a_usage_error(self, tmp_path, capsys, argv):
        code, data = run_cmd(tmp_path, argv)
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys, "error: --alpha: ", "'1/2'", "sqrt2")
        assert "could not convert" not in err

    def test_config_values_are_checked_too(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"p": 0}')
        code, data = run_cmd(tmp_path, ["--config", str(config), "invariance", "--f", "x1",
                                        "--dim", "1", "--translate", "1", *FAST_GRID])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "error: --p must be >= 1, got 0")

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["invariance", "--f", "x1^2+x2^2", "--dim", "2", "--rotation", "1,2,inf"],
             "--rotation"),
            (["invariance", "--f", "x1^2-x2^2", "--dim", "2", "--boost", "1,2,nan"], "--boost"),
            (["one-param", "--f", "x1", "--dim", "2", "--kind", "rotation", "--i", "1", "--j", "2",
              "--real-thetas", "nan"], "--real-thetas"),
            (["translation", "--f", "3", "--dim", "1", "--h-samples", "inf"], "--h-samples"),
            (["two-period", "--f", "1", "--alpha", "sqrt2", "--R", "inf", "--p", "1"], "radius"),
            (["explore-open-question", "--f", "1", "--alpha", "pi", "--R", "inf", "--p", "1"],
             "radius"),
        ],
        ids=["rotation", "boost", "real-thetas", "h-samples", "two-period", "explore"],
    )
    def test_non_finite_real_is_a_usage_error(self, tmp_path, capsys, argv, fragment):
        code, data = run_cmd(tmp_path, [*argv, *FAST_GRID])
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys, "error:", fragment, "finite")
        assert "warning:" not in err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["rotation", "--f", "x1", "--dim", "2", "--matrix", '{"a":1}'], "--matrix"),
            (["lorentz", "--f", "x1", "--dim", "2", "--matrix", '{"a":1}'], "--matrix"),
            (["decompose-so", "--matrix", '{"a":1}'], "--matrix"),
            (["decompose-lorentz", "--matrix", '{"a":1}'], "--matrix"),
            (["rotation", "--f", "x1", "--dim", "2", "--matrix", "[[1,0],[0]]"], "--matrix"),
            (["decompose-so", "--matrix", "[[1,0],[0,true]]"], "--matrix"),
            (["rotation", "--f", "x1", "--dim", "2", "--matrix-net", "[[1,null],[0,1]]"],
             "--matrix-net"),
            (["lorentz", "--f", "x1", "--dim", "1", "--random"],
             "a Lorentz matrix needs size >= 2, got 1"),
            (["rotation", "--f", "1", "--dim", "0", "--random"],
             "matrix must be square of size >= 1"),
        ],
        ids=["rotation", "lorentz", "decompose-so", "decompose-lorentz", "ragged", "boolean",
             "matrix-net-null", "lorentz-random-dim-1", "rotation-random-dim-0"],
    )
    def test_malformed_matrix_is_a_usage_error(self, tmp_path, capsys, argv, fragment):
        code, data = run_cmd(tmp_path, argv)
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys, "error: " + fragment)
        assert "unexpected" not in err and "warning:" not in err

    def test_unexpected_failure_is_one_line_exit_2(self, tmp_path, capsys, monkeypatch):
        def failing(args):
            raise TypeError("a fault\nover two lines")

        monkeypatch.setitem(cli._HANDLERS, "classify", failing)
        code, data = run_cmd(tmp_path, ["classify", "--f", "x1", "--dim", "1"])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "error: unexpected TypeError: a fault over two lines")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"p": "4"}, "config 'p' must be int, got '4'"),
            ({"p": None}, "config 'p' must be int, got None"),
            ({"p": True}, "config 'p' must be int, got True"),
            ({"samples": 2.5}, "config 'samples' must be int, got 2.5"),
            ({"dim": "2"}, "config 'dim' must be int, got '2'"),
            ({"box": 5}, "config 'box' must be str, got 5"),
            ({"strict": "no"}, "config 'strict' must be bool, got 'no'"),
            ({"k_min": "a"}, "config 'k_min' must be int, got 'a'"),
        ],
        ids=["p-str", "p-null", "p-bool", "samples-float", "dim-str", "box-int", "strict-str",
             "k_min-str"],
    )
    def test_config_value_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys, config,
                                                             message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, data = run_cmd(tmp_path, ["--config", str(path), "invariance", "--f", "x1",
                                        "--translate", "1"])
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys, "error: " + message)
        assert "unexpected" not in err

    @pytest.mark.parametrize("config, key", [
        ({"kmax": 12, "alpha": "pi"}, "alpha"),
        ({"k_max": 12, "kmax": 12}, "kmax"),
    ], ids=["misspelt-and-foreign", "misspelt"])
    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys, config, key):
        code, data = run_cmd(tmp_path, ["--config", json.dumps(config), "classify", "--f", "eps*x1",
                                        "--dim", "1"])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, f"error: unknown config key {key!r}")

    def test_config_key_the_subcommand_does_not_use_is_allowed(self, tmp_path):
        # one config file can serve several subcommands
        config = {"real_thetas": "0.5", "h_samples": "1", "k_max": 10}
        code, data = run_cmd(tmp_path, ["--config", json.dumps(config), "classify", "--f", "eps*x1",
                                        "--dim", "1"])
        assert code == EXIT_POSITIVE
        assert len(data["evidence"]["sups"]) == 7

    def test_overflowing_fold_reports_the_evaluation_error(self, tmp_path, capsys):
        # 1e200*1e200 overflows: the product stays a node, so the error names
        # the subexpression instead of failing to print an infinite constant
        code, data = run_cmd(tmp_path, ["invariance", "--f", "sqrt(1-x1*x1)", "--dim", "1",
                                        "--element", '{"coords": ["1e200"]}'])
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys)
        assert err.startswith("evaluation error: sqrt of negative value; in 'sqrt(1-1e+200*1e+200)'")

    @pytest.mark.parametrize(
        "f, reason",
        [
            ("3+0*ln(x1)", "ln of non-positive value; in 'ln(x1)'"),
            ("3+0*sqrt(x1-1)", "sqrt of negative value; in 'sqrt(x1-1)'"),
            ("3+x1*exp(1/x1)", "division by zero; in '1/x1'"),
        ],
        ids=["zero-times-ln", "zero-times-sqrt", "x-times-exp-of-inverse"],
    )
    def test_translation_of_a_net_undefined_at_the_origin(self, tmp_path, capsys, f, reason):
        # the conclusion reads f - f(0), and f(0) comes from evaluating f at
        # x = 0, so a factor 0 (or x1) cannot hide that f is undefined there
        code, data = run_cmd(tmp_path, ["translation", "--f", f, "--dim", "1", "--box=1:2"])
        assert code == EXIT_ERROR and data is None
        err = assert_one_line_error(capsys, f"evaluation error: {reason}")
        assert err.rstrip().endswith("x=(0.0,)")

    def test_non_ascii_digit_is_a_positioned_parse_error(self, tmp_path, capsys):
        code, data = run_cmd(tmp_path, ["classify", "--f", "\u00b2", "--dim", "1"])
        assert code == EXIT_ERROR and data is None
        assert_one_line_error(capsys, "error: unexpected character '\u00b2' (position 0)")

    def test_config_value_behind_a_flag_is_not_read(self, tmp_path):
        # a flag wins over the config, so the config's value is never used
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"p": "4"}))
        code, _ = run_cmd(tmp_path, ["--config", str(path), "invariance", "--f", "x1",
                                     "--translate", "1", "--p", "2", *FAST_GRID])
        assert code == EXIT_NEGATIVE

    def test_bad_matrix_error(self, tmp_path):
        m = tmp_path / "m.json"
        m.write_text("[[1,0.5],[0,1]]")
        code, _ = run_cmd(tmp_path, ["decompose-so", "--matrix", str(m)])
        assert code == EXIT_ERROR


class TestStrictJson:
    @pytest.mark.parametrize(
        "f, token",
        [("exp(1/eps)+0*x1", "inf"), ("sin(exp(1/eps))*x1", "nan")],
    )
    def test_non_finite_sups_are_strings(self, tmp_path, schema, f, token):
        code, data = run_cmd(
            tmp_path, ["classify", "--f", f, "--dim", "1", "--box=-1:1", "--max-order", "0"]
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        sups = [s for _, s in data["evidence"]["sups"]]
        assert token in sups and all(isinstance(s, float) or s == token for s in sups)
        assert data["evidence"]["moderate"] is False


class TestMoreCommands:
    def test_classify(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        assert data["evidence"]["negligible_order"] == 1

    def test_liouville(self, tmp_path, schema):
        code, data = run_cmd(tmp_path, ["liouville", "--alpha", "cbrt2"])
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        assert data["evidence"]["M"] == 7

    def test_corollary_pair(self, tmp_path, schema):
        code, data = run_cmd(tmp_path, ["corollary-pair", "--alpha", "phi", "--R", "4"])
        assert code == EXIT_POSITIVE
        assert (data["evidence"]["k"], data["evidence"]["l"]) == (5, 3)

    def test_one_param(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["one-param", "--f", "exp(-(x1^2+x2^2))", "--dim", "2", "--kind", "rotation",
             "--i", "1", "--j", "2", "--real-thetas", "0.1,1.0", "--gen-theta", "2+sin(1/eps)",
             "--box=-1:1,-1:1", "--p", "4", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        assert data["evidence"]["hypothesis_failed"] is False

    def test_rotation_random_seeded(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["--seed", "3", "rotation", "--f", "exp(-(x1^2+x2^2))", "--dim", "2",
             "--random", "--box=-1:1,-1:1", "--p", "4", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)

    def test_lorentz_matrix(self, tmp_path, schema):
        from epsnet.decompose import boost_matrix

        m = tmp_path / "L.json"
        m.write_text(json.dumps(boost_matrix(3, 0.5).tolist()))
        code, data = run_cmd(
            tmp_path,
            ["lorentz", "--f", "exp(-(x1^2-x2^2-x3^2)^2)", "--dim", "3", "--matrix", str(m),
             "--box=-1:1,-1:1,-1:1", "--samples", "9", "--p", "4", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)

    def test_decompose_lorentz(self, tmp_path, schema):
        from epsnet.decompose import boost_matrix

        m = tmp_path / "L.json"
        m.write_text(json.dumps(boost_matrix(3, 1.25).tolist()))
        code, data = run_cmd(tmp_path, ["decompose-lorentz", "--matrix", str(m)])
        assert code == EXIT_POSITIVE
        identity = {"dimension": 3, "factors": [{"kind": "rotation", "i": 2, "j": 3, "theta": "0"}]}
        assert data["evidence"] == {
            "dimension": 3,
            "r1": identity,
            "theta": "1.25",
            "r2": identity,
            "time_inverted": False,
            "orientation_inverted": False,
        }

    def test_translation(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["translation", "--f", "3+eps*0", "--dim", "1", "--box=-2:2",
             "--h-samples", "0.5;1.0", "--p", "4", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)

    def test_invariance_with_matrix_element(self, tmp_path, schema):
        element = json.dumps({"matrix": [["0", "-1"], ["1", "0"]]})
        code, data = run_cmd(
            tmp_path,
            ["invariance", "--f", "exp(-(x1^2+x2^2))", "--dim", "2", "--box=-1:1,-1:1",
             "--element", element, "--p", "4", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)

    def test_decompose_lorentz_flags(self, tmp_path, schema):
        from epsnet.decompose import boost_matrix, time_inversion_matrix

        m = tmp_path / "L.json"
        m.write_text(json.dumps((time_inversion_matrix(3) @ boost_matrix(3, 0.5)).tolist()))
        code, data = run_cmd(tmp_path, ["decompose-lorentz", "--matrix", str(m)])
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        assert data["evidence"]["time_inverted"] is True
        assert data["evidence"]["orientation_inverted"] is False

    def test_explorer(self, tmp_path, schema):
        code, data = run_cmd(
            tmp_path,
            ["explore-open-question", "--f", "2", "--alpha", "pi", "--R", "6", "--p", "2", *FAST_GRID],
        )
        assert code == EXIT_POSITIVE
        jsonschema.validate(data, schema)
        assert data["verdict"] == "exploratory"
        assert data["evidence"]["theorem_grade"] is False


class TestConfigPrecedence:
    def test_flags_override_config_over_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 12, "max_order": 0}))
        out = tmp_path / "r.json"
        code = run(
            ["--config", str(cfg), "--out", str(out),
             "classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1", "--k-max", "10"]
        )
        assert code == EXIT_POSITIVE
        data = json.loads(out.read_text())
        # flag wins over config: grid has k = 4..10
        assert len(data["evidence"]["sups"]) == 7

    def test_config_overrides_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 12}))
        out = tmp_path / "r.json"
        run(["--config", str(cfg), "--out", str(out),
             "classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1"])
        data = json.loads(out.read_text())
        assert len(data["evidence"]["sups"]) == 9


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        jobs = [
            (["--seed", "7", "rotation", "--f", "exp(-(x1^2+x2^2))", "--dim", "2",
              "--random", "--box=-1:1,-1:1", "--p", "4", *FAST_GRID], "rot"),
            (["classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1", *FAST_GRID], "cls"),
            (["dirichlet", "--alpha", "sqrt2", "--N", "100"], "dir"),
            (["two-period", "--f", "7 + eps^(1/eps)*sin(x1)", "--alpha", "sqrt2",
              "--R", "6", "--p", "3", *FAST_GRID], "tp"),
        ]
        for argv, name in jobs:
            out1 = tmp_path / f"{name}1.json"
            out2 = tmp_path / f"{name}2.json"
            assert run(["--out", str(out1), *argv]) == run(["--out", str(out2), *argv])
            assert out1.read_bytes() == out2.read_bytes()


class TestEntryPoint:
    """``python -m epsnet.cli`` (``main``) runs the job with collection off and
    ends without interpreter teardown, after the atexit handlers and a flush
    of the standard streams; ``run`` leaves the caller's gc state alone, and
    both give the same exit code, output and report."""

    JOBS = {
        "classify-positive": (["classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1",
                               *FAST_GRID], EXIT_POSITIVE),
        "invariance-negative": (["invariance", "--f", "x1", "--dim", "2", "--box=-1:1,-1:1",
                                 "--rotation", "1,2,1.5707963267948966", "--p", "1",
                                 *FAST_GRID], EXIT_NEGATIVE),
        # a warning line on stderr before the summary on stdout
        "waived-warning": (["--no-strict", "invariance", "--f", "x1^2-x2^2", "--dim", "2",
                            "--boost", "1,2,1/eps", *FAST_GRID], EXIT_NEGATIVE),
        # a job that never imports numpy
        "corollary-pair": (["corollary-pair", "--alpha", "sqrt2", "--R", "1e6"], EXIT_POSITIVE),
        "usage-error": (["classify", "--dim", "1"], EXIT_ERROR),
        "evaluation-error": (["classify", "--f", "ln(x1)", "--dim", "1", *FAST_GRID], EXIT_ERROR),
    }
    COROLLARY = ["--out", "report.json", "corollary-pair", "--alpha", "sqrt2", "--R", "1e6"]

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_run_keeps_the_callers_gc_state(self, tmp_path, enabled):
        was_enabled = gc.isenabled()
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in self.JOBS.values():
                assert run(["--out", str(tmp_path / "report.json"), *argv]) == code
                assert gc.isenabled() is enabled
                assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("job", list(JOBS))
    def test_module_entry_point_matches_run(self, tmp_path, monkeypatch, capsys, job):
        argv, code = self.JOBS[job]
        argv = ["--out", "report.json", *argv]
        monkeypatch.chdir(tmp_path)
        # argparse wraps its usage line to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        proc = subprocess.run([sys.executable, "-m", "epsnet.cli", *argv], cwd=tmp_path,
                              env=entry_point_env(), capture_output=True, text=True, timeout=120)
        report = tmp_path / "report.json"
        child_report = report.read_bytes() if report.exists() else None
        report.unlink(missing_ok=True)
        assert (proc.returncode, run(argv)) == (code, code)
        out, err = capsys.readouterr()
        assert (proc.stdout, proc.stderr) == (out, err)
        assert child_report == (report.read_bytes() if report.exists() else None)

    def test_atexit_handlers_registered_before_main_still_run(self, tmp_path):
        # the handler prints to a buffered stdout, which is flushed after it
        script = ("import atexit, sys\n"
                  "from epsnet.cli import main\n"
                  "atexit.register(print, 'atexit handler ran')\n"
                  f"sys.argv[1:] = {self.COROLLARY!r}\n"
                  "main()\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=entry_point_env(True),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_POSITIVE, "")
        assert proc.stdout.startswith("corollary-pair: ")
        assert proc.stdout.endswith(" -> report.json\natexit handler ran\n")

    @staticmethod
    def _into_closed_stdout(argv, cwd, buffered):
        """Run ``python -m epsnet.cli`` with its stdout a pipe nobody reads."""
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run([sys.executable, "-m", "epsnet.cli", *argv], cwd=cwd,
                                  env=entry_point_env(buffered), stdout=write, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_an_error(self, tmp_path, buffered):
        # the summary line goes to a pipe nobody reads: the unbuffered
        # stream fails at the print, the buffered one at main's last flush
        proc = self._into_closed_stdout(self.COROLLARY, tmp_path, buffered)
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr.startswith("error: cannot write to standard output: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert (tmp_path / "report.json").is_file()

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]], ids=["top", "subcommand"])
    def test_help_into_a_closed_stdout_is_an_error(self, tmp_path, argv, buffered):
        # argparse drops a failed write: the help write must reach run
        proc = self._into_closed_stdout(argv, tmp_path, buffered)
        assert (proc.returncode, proc.stderr) == (
            EXIT_ERROR, "error: cannot write to standard output: [Errno 32] Broken pipe\n")


# ---------------------------------------------------------------------------
# fuzzing: random bodies and flags never crash the CLI


@st.composite
def _classify_or_invariance_argv(draw):
    command = draw(st.sampled_from(("classify", "invariance")))
    d = draw(st.integers(min_value=0 if command == "classify" else 1, max_value=3))
    body = random_expr(random.Random(draw(st.integers(0, 10**9))), d,
                       max_depth=draw(st.integers(0, 4)))
    k_min = draw(st.integers(1, 6))
    argv = [command, f"--f={to_text(body)}", "--dim", str(d),
            "--samples", str(draw(st.integers(2, 5))),
            "--k-min", str(k_min), "--k-max", str(k_min + draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        argv.insert(0, "--no-strict")
    if command == "classify":
        return argv + ["--max-order", str(draw(st.integers(0, 3))),
                       "--p-max", str(draw(st.integers(0, 8)))]
    argv += ["--p", str(draw(st.integers(0, 6)))]
    theta = draw(st.sampled_from(("0.3", "-2", "eps", "1/eps", "sin(1/eps)", "ln(eps)", "eps^2")))
    if d < 2 or draw(st.integers(0, 3)) == 0:
        numbers = st.sampled_from(("0", "0.5", "-1.5", "1e3", "eps"))
        return argv + ["--translate=" + ",".join(draw(numbers) for _ in range(d))]
    i, j = sorted(draw(st.permutations(range(1, d + 1)))[:2])
    return argv + [draw(st.sampled_from(("--rotation", "--boost"))), f"{i},{j},{theta}"]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_classify_or_invariance_argv())
def test_fuzzed_cli_exits_cleanly_with_a_valid_report(argv):
    with open(schema_path(), "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "report.json"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run(["--out", str(out), *argv])
        assert code in (EXIT_POSITIVE, EXIT_NEGATIVE, EXIT_ERROR)
        assert "Traceback" not in stderr.getvalue()
        if code == EXIT_ERROR:
            assert stderr.getvalue().strip()
        else:
            data = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
            jsonschema.validate(data, schema)


# ---------------------------------------------------------------------------
# one subcommand's parser per job


def _parse(parser, argv):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(cli._HANDLERS))
def test_one_subcommand_parser_prints_what_the_full_parser_prints(name, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    # help, an unknown option (the subparser's usage), a bad global value
    # (the top-level usage, which lists every subcommand) and a missing option
    for argv in ([name, "-h"], ["--no-strict", name, "--bogus", "1"], ["--seed", "x", name], [name]):
        want = _parse(build(), argv)
        assert want[0] is not None and want[1] + want[2]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert (code, out.getvalue(), err.getvalue()) == ({0: 0}.get(want[0], EXIT_ERROR), *want[1:])
        assert _parse(build(name), argv) == want
    assert built == [name] * 4


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--no-strict", "--seed=3", "--out", "r.json", "--config", "c.json", "classify", "-h"],
         "classify"),
        (["two-period", "--f", "x1"], "two-period"),
        ([], None),
        (["-h"], None),
        (["--help", "classify"], None),
        (["bogus"], None),
        (["--con", "c.json", "classify"], None),  # an abbreviation
        (["--out", "-x", "classify"], None),  # a value that reads as an option
        (["--", "classify"], None),
        (["--seed"], None),
    ],
)
def test_the_full_parser_reads_what_does_not_name_a_subcommand_plainly(argv, name):
    assert cli._named_subcommand(argv) == name

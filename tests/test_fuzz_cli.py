"""A command-line fuzzer derived from the parser's grammar.

Each draw builds an argv from the actions of one subcommand's parser: every
required option, each other option with some probability, one input of each
exclusive group (now and then none or two), and mostly valid values with
edge values mixed in.  Jobs run in-process through ``cli.run`` from a fixed
seed, so a failure names its argv and reproduces.  The oracles are the CLI's
contract:

- the exit status is 0, 1 or 2; no output holds a traceback or the
  catch-all ``error: unexpected <Type>:`` line;
- exit 0 or 1 prints one stdout line and writes a schema-valid report whose
  verdict the status stands for (1 only for a negative verdict);
- exit 2 prints nothing on stdout and writes no report;
- a job that ran exits 2 when an option the subcommand does not take is
  added to it.

Lattices stay small (a few thousand points at most) or are sizes the CLI
refuses before it allocates."""

import contextlib
import io
import json
import random
import re

import jsonschema
import pytest
from helpers import subparser

from epsnet import cli

#: draws per subcommand
DRAWS = 30

#: the verdicts each exit status stands for
VERDICTS = {cli.EXIT_POSITIVE: ("positive", "computed", "exploratory"),
            cli.EXIT_NEGATIVE: ("negative", "not-applicable")}

_ROTATIONS = {2: "[[0,-1],[1,0]]", 3: "[[0,-1,0],[1,0,0],[0,0,1]]"}
_BOOSTS = {2: "[[1.25,0.75],[0.75,1.25]]", 3: "[[1.25,0.75,0],[0.75,1.25,0],[0,0,1]]"}
_ROTATION_NET = '[["cos(eps)","-sin(eps)"],["sin(eps)","cos(eps)"]]'
_BOOST_NET = '[["cosh(eps)","sinh(eps)"],["sinh(eps)","cosh(eps)"]]'


def _valued(dim):
    """(valid values, edge values) of each valued option, for a net in
    ``dim`` variables (None when the drawn --dim is not a small dimension)."""
    d = dim or 1
    m = dim if dim in _ROTATIONS else 2
    radial = "+".join(f"x{k}^2" for k in range(1, d + 1))
    return {
        "f": (["eps*x1", "sin(x1)+eps", radial, f"exp(-({radial}))*cos(eps*x1)", "3",
               "7+eps^(1/eps)*sin(x1)"],
              ["", "(", "ln(x1)", "1/x1", "sqrt(x1-2)", "x9", "exp(1000*x1)", "x1^-1", "y",
               "0*ln(x1-5)", "x1*x2-x3"]),
        "dim": (["1", "2", "3"], ["0", "-1", "x", "99"]),
        "k_min": (["3", "4", "5"], ["0", "-2", "9", "x"]),
        "k_max": (["5", "6", "8"], ["2", "60", "1.5"]),
        "p": (["1", "2"], ["0", "-1", "x"]),
        "p_max": (["1", "3"], ["0", "-4"]),
        "max_order": (["0", "1", "2"], ["-1", "x"]),
        # 3000 is small on a line and refused on a plane
        "samples": (["2", "3", "5"], ["1", "0", "-3", "x", "3000", "5000000"]),
        "box": ([",".join(["-1:1"] * d), ",".join(["1:2"] * d)], ["1:2,1:2,1:2,1:2", "a:b", "0", "-1:1,"]),
        "element": (['{"coords":[' + ",".join(f'"x{d + 1 - i}"' for i in range(1, d + 1)) + "]}",
                     '{"dimension":%d,"factors":[{"kind":"translation","offset":[%s]}]}'
                     % (d, ",".join(["0.5"] * d))],
                    ['{"coords":[1]}', "[]", '{"matrix":[[true]]}', '{"dimension":2}', "{"]),
        "rotation": (["1,2,0.3", "1,2,eps", "1,2,sin(1/eps)"], ["2,1,0.3", "1,2", "1,2,x(", "0,1,1"]),
        "boost": (["1,2,0.5", "1,2,eps"], ["1,2,1/eps", "1,2,1000", "1,9,1"]),
        "translate": ([",".join(["1"] * d), ",".join(["eps"] * d)], ["", "nan", "1,2,3,4", "x"]),
        "kind": (["rotation", "boost"], ["spin"]),
        "i": (["1"], ["0", "3", "x"]),
        "j": (["2"], ["1", "9"]),
        "real_thetas": (["0.1,1.0", "0.5"], [",", "nan", "x"]),
        "gen_theta": (["eps", "0.3", "sin(1/eps)"], ["1/eps", "1000", "("]),
        "h_samples": ([";".join([",".join(["0.5"] * d)] * 2)], ["1,2;3", "a", ";"]),
        "matrix": ([_ROTATIONS[m], _BOOSTS[m]],
                   ["[[1,2],[3,4]]", "[]", "x", "[[1,0],[0]]", '[["a"]]']),
        "matrix_net": ([_ROTATION_NET, _BOOST_NET], ['[["eps"]]', '[["(","1"]]', "[[1]]"]),
        "seed": (["0", "7"], ["-1", "x"]),
        "config": (['{"k_max": 6}', '{"samples": 3, "p": 1}'],
                   ['{"kmax": 1}', "[1]", '{"p": true}', "nofile.json"]),
        "alpha": (["sqrt2", "cbrt2", "phi", "pi", "e", "0.7"], ["1/2", "x", "0", "-1", "inf"]),
        "N": (["5", "1000000"], ["0", "-3", "x"]),
        "R": (["4", "6", "1e6"], ["0", "-1", "nan", "inf", "x", "0.5"]),
    }


#: the line of the CLI's last-resort handler
_CATCH_ALL = re.compile(r"^error: unexpected [A-Z]\w*: ", re.MULTILINE)

#: the exclusive inputs of a subcommand, of which it takes exactly one
_EXCLUSIVE = (("element", "rotation", "boost", "translate"), ("matrix", "matrix_net", "random"))


def _options(name):
    """The subcommand's options, each as (dest, option string, takes a value,
    required)."""
    return [(a.dest, a.option_strings[-1], a.nargs != 0, a.required)
            for a in subparser(name)._actions if a.dest not in ("help", "out")]


#: every option string any subcommand takes
_ALL_OPTIONS = sorted({s for name in cli._HANDLERS for _, s, _, _ in _options(name)})


def _draw(rng, name):
    """An argv for ``name``."""
    options = _options(name)
    dests = {dest for dest, *_ in options}
    dim = rng.choice([1, 2, 2, 3, 3, None]) if "dim" in dests else None
    values = _valued(dim)
    chosen = set()
    for group in _EXCLUSIVE:
        present = [dest for dest in group if dest in dests]
        if present:
            count = rng.choices((1, 0, 2), weights=(8, 1, 1))[0]
            chosen.update(rng.sample(present, min(count, len(present))))
    argv = [name]
    for dest, option, valued, required in options:
        exclusive = any(dest in group for group in _EXCLUSIVE)
        if exclusive and dest not in chosen:
            continue
        if not (required or exclusive or dest in ("samples", "k_max")) and rng.random() < 0.5:
            continue
        if not valued:
            argv.append(option)
            continue
        valid, edge = values[dest]
        if dest == "dim" and dim is not None:
            value = str(dim)
        else:
            value = rng.choice(edge if rng.random() < 0.1 else valid)
        # a value that starts with '-' must be attached
        argv += [f"{option}={value}"] if value.startswith("-") or rng.random() < 0.2 else [option, value]
    return argv


def _run(argv):
    """Exit code, stdout and stderr of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(cli._HANDLERS))
def test_drawn_command_lines_keep_the_exit_contract(name, tmp_path, monkeypatch):
    with open(cli.schema_path(), "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    foreign = [s for s in _ALL_OPTIONS if s not in {o for _, o, _, _ in _options(name)}]
    rng = random.Random(f"fuzz-{name}")
    for _ in range(DRAWS):
        argv = _draw(rng, name)
        code, out, err = _run([*argv, "--out", str(report)])
        assert code in (cli.EXIT_POSITIVE, cli.EXIT_NEGATIVE, cli.EXIT_ERROR), argv
        assert "Traceback" not in out + err and not _CATCH_ALL.search(err), (argv, err)
        if code == cli.EXIT_ERROR:
            assert out == "" and err.strip() and not report.exists(), (argv, out)
            continue
        assert out.count("\n") == 1 and out.startswith(f"{name}: "), (argv, out)
        data = json.loads(report.read_text(encoding="utf-8"))
        jsonschema.validate(data, schema)
        assert data["command"] == name and data["verdict"] in VERDICTS[code], argv
        report.unlink()
        if foreign:
            option = rng.choice(foreign)
            code, out, err = _run([*argv, option, "1", "--out", str(report)])
            assert (code, out) == (cli.EXIT_ERROR, ""), (argv, option)
            assert f"unrecognized arguments: {option} 1" in err and not report.exists(), (argv, err)

"""Command-line frontend.

Each subcommand parses its inputs, dispatches to the library, writes one JSON
report (stable envelope: command, verdict, order, evidence) and prints a
one-line summary.  Exit status: 0 for a positive verdict or successful
computation, 1 for a negative verdict, 2 for usage or evaluation errors.
Reports are byte-identical across runs with the same configuration.

Every option follows the subcommand, and each subcommand takes only the
options it reads, spelled in full: ``--strict``/``--no-strict`` only where a
group action is composed with a net, ``--seed`` only where ``--random``
draws a matrix, ``--config`` only where an option has a default.  Any other
option is a usage error.

Handlers import the modules they use when they run, so a subcommand loads
only what it needs: ``dirichlet``, ``liouville`` and ``corollary-pair`` never
import numpy (``two-period`` and ``explore-open-question`` do, through
``epsnet.colombeau``); ``classify``, ``invariance``, ``one-param`` and the
``rotation``/``lorentz`` pipelines never import the number theory; no
subcommand imports mpmath (the number theory runs on Python integers); and
only ``--random`` loads the matrix sampler.

``main``, the ``python -m epsnet.cli`` and ``epsnet`` entry point, runs the
job with garbage collection off and ends the process without interpreter
teardown: it runs the registered ``atexit`` handlers, flushes the standard
streams and calls ``os._exit``, so neither the job, its imports nor the
unloading of numpy pays for collections; ``run`` leaves the caller's gc
state as it was.  A standard output that cannot be written (a closed pipe)
is an error: exit 2 with one line on stderr.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import warnings

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def schema_path() -> str:
    """Filesystem path of the published report schema."""
    # imported here, not with the module: no job calls this, and where no
    # site hook has loaded it already the import costs about 10 ms
    from importlib import resources

    return str(resources.files("epsnet").joinpath("schemas/report.schema.json"))


class UsageError(Exception):
    pass


def _load_json_arg(text: str):
    """Accept either inline JSON or a path to a JSON file."""
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"not valid JSON and not a readable file: {text!r} ({err})") from None


def _parse_box(spec: str, dimension: int, samples: int):
    """Box syntax: comma-separated per-axis 'lo:hi' ranges, e.g. '-1:1,-1:1'."""
    from .colombeau import CompactBox

    if not spec:
        return CompactBox.cube(-1.0, 1.0, dimension, samples)
    intervals = []
    for part in spec.split(","):
        lo, _, hi = part.partition(":")
        if not _:
            raise UsageError(f"bad box interval {part!r}; expected lo:hi")
        intervals.append((float(lo), float(hi)))
    if len(intervals) != dimension:
        raise UsageError(f"box has {len(intervals)} axes but dimension is {dimension}")
    return CompactBox(tuple(intervals), samples)


def _reals(option: str, spec: str) -> tuple:
    """The finite reals of a comma-separated option value, at least one."""
    try:
        values = tuple(float(v) for v in spec.split(",") if v != "")
    except ValueError:
        values = ()
    if not values:
        raise UsageError(f"{option} must be comma-separated numbers, got {spec!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{option} values must be finite, got {spec!r}")
    return values


def _matrix_rows(option: str, text: str, strings: bool = False) -> list:
    """A JSON array of equal-length rows of numbers (or, with ``strings``,
    of numbers and expression strings)."""
    rows = _load_json_arg(text)
    if not (rows and isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)):
        raise UsageError(f"{option} must be a JSON array of equal-length rows")
    kinds = (int, float, str) if strings else (int, float)
    if not all(isinstance(v, kinds) and not isinstance(v, bool) for row in rows for v in row):
        raise UsageError(f"{option} entries must be numbers{' or strings' if strings else ''}")
    return rows


def _matrix(args):
    """The --matrix option as a float array."""
    import numpy as np

    return np.asarray(_matrix_rows("--matrix", args.matrix), dtype=float)


def _alpha(spec: str):
    """The --alpha value as an AlgebraicNumber or RealAlpha."""
    from .numbertheory import resolve_alpha

    try:
        return resolve_alpha(spec)
    except ValueError as err:
        raise UsageError(f"--alpha: {err}") from None


def _algebraic(spec: str):
    """The --alpha value, which must name a number of the algebraic catalog."""
    from .numbertheory import catalog

    numbers = catalog()
    if spec not in numbers:
        raise UsageError(
            f"--alpha: {spec!r} is not in the algebraic catalog ({', '.join(sorted(numbers))})"
        )
    return numbers[spec]


def write_report(path: str, command: str, verdict: str, order, evidence) -> None:
    """Write the report envelope; ``evidence`` may be a report record."""
    from .report import plain_json

    payload = {"command": command, "verdict": verdict, "order": order, "evidence": evidence}
    text = json.dumps(plain_json(payload), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _grid(args):
    from .colombeau import EpsilonGrid

    try:
        return EpsilonGrid.dyadic(args.k_min, args.k_max)
    except ValueError as err:
        raise UsageError(f"--k-min/--k-max: {err}") from None


def _net(args):
    from .colombeau import Net

    return Net.parse(args.f, args.dim)


def _element(args, dimension: int):
    from .colombeau import Net
    from .groups import GroupElement, element_from_json, planar_flow

    chosen = [
        args.element is not None,
        args.rotation is not None,
        args.boost is not None,
        args.translate is not None,
    ]
    if sum(chosen) != 1:
        raise UsageError("provide exactly one of --element/--rotation/--boost/--translate")
    if args.element is not None:
        data = _load_json_arg(args.element)
        if not isinstance(data, dict):
            raise UsageError("--element must be a JSON object")
        if "dimension" not in data and "matrix" not in data and "coords" not in data:
            data["dimension"] = dimension
        try:
            return element_from_json(data)
        except KeyError as err:
            raise UsageError(f"--element is missing the field {err}") from None
        except (AttributeError, TypeError, ValueError) as err:
            raise UsageError(f"--element is not a group element: {err}") from None
    if args.translate is not None:
        return GroupElement.translation(dimension, _reals("--translate", args.translate))
    spec = args.rotation if args.rotation is not None else args.boost
    kind = "rotation" if args.rotation is not None else "boost"
    try:
        i_s, j_s, theta_s = spec.split(",", 2)
        i, j = int(i_s), int(j_s)
        if not 1 <= i < j <= dimension:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"--{kind} must be i,j,theta with integer axes 1 <= i < j <= {dimension}, got {spec!r}"
        ) from None
    try:
        float(theta_s)
    except ValueError:
        theta = Net.parse(theta_s, 0)
    else:
        (theta,) = _reals(f"--{kind}", theta_s)
    return planar_flow(kind, dimension, i, j)(theta)


def _matrix_argument(args):
    """Resolve --matrix / --matrix-net / --random into a pipeline input; a
    random matrix is drawn from --seed."""
    from .colombeau import Net

    given = [args.matrix is not None, args.matrix_net is not None, args.random]
    if sum(given) != 1:
        raise UsageError("provide exactly one of --matrix/--matrix-net/--random")
    if args.matrix is not None:
        return _matrix(args)
    if args.matrix_net is not None:
        rows = _matrix_rows("--matrix-net", args.matrix_net, strings=True)
        return [[Net.parse(v, 0) if isinstance(v, str) else float(v) for v in row] for row in rows]
    import random

    from .sampling import random_proper_lorentz, random_special_orthogonal

    rng = random.Random(args.seed)
    if args.command == "rotation":
        return random_special_orthogonal(rng, args.dim)
    return random_proper_lorentz(rng, args.dim)


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (verdict, order, evidence, summary)


def _cmd_classify(args):
    from .colombeau import classify

    net = _net(args)
    box = _parse_box(args.box, args.dim, args.samples)
    report = classify(net, box, max_order=args.max_order, grid=_grid(args), p_max=args.p_max)
    summary = (
        f"moderate={report.moderate} negligible_order={report.negligible_order} "
        f"fitted_exponent={report.fitted_exponent:.4g}"
    )
    return "computed", None, report, summary


def _cmd_invariance(args):
    from .verify import check_invariance

    net = _net(args)
    box = _parse_box(args.box, args.dim, args.samples)
    g = _element(args, args.dim)
    rep = check_invariance(net, g, box, _grid(args), args.p, strict=args.strict)
    verdict = "positive" if rep.invariant else "negative"
    return verdict, args.p, rep, f"invariant={rep.invariant} at order p={args.p}"


def _cmd_one_param(args):
    from .colombeau import Net
    from .groups import planar_flow
    from .verify import one_param_theorem_harness

    net = _net(args)
    box = _parse_box(args.box, args.dim, args.samples)
    real_thetas = _reals("--real-thetas", args.real_thetas) if args.real_thetas else None
    gen_thetas = tuple(Net.parse(t, 0) for t in (args.gen_theta or ()))
    flow = planar_flow(args.kind, args.dim, args.i, args.j)
    kwargs = {} if real_thetas is None else {"real_thetas": real_thetas}
    rep = one_param_theorem_harness(
        net, flow, gen_thetas=gen_thetas, box=box, grid=_grid(args), p=args.p, strict=args.strict,
        **kwargs
    )
    verdict = "positive" if rep.verdict else "negative"
    note = "HYPOTHESIS_FAILED" if rep.hypothesis_failed else "hypothesis holds"
    return verdict, args.p, rep, f"{note}; verdict={rep.verdict}"


def _cmd_pipeline(args):
    from .verify import lorentz_invariance_pipeline, rotation_invariance_pipeline

    net = _net(args)
    box = _parse_box(args.box, args.dim, args.samples)
    grid = _grid(args)
    matrix = _matrix_argument(args)
    pipeline = {"rotation": rotation_invariance_pipeline, "lorentz": lorentz_invariance_pipeline}
    rep = pipeline[args.command](net, matrix, box, grid, args.p, strict=args.strict)
    verdict = "positive" if rep.verdict else "negative"
    return verdict, args.p, rep, f"invariant={rep.verdict} (consistent={rep.consistent})"


def _cmd_decompose_so(args):
    from .decompose import orthogonal_decompose

    schedule, reflected = orthogonal_decompose(_matrix(args))
    evidence = {"schedule": schedule, "reflected": reflected}
    angles = ", ".join(f"{t:.6g}" for t in schedule.angles())
    return "computed", None, evidence, f"factors=[{angles}] reflected={reflected}"


def _cmd_decompose_lorentz(args):
    from .decompose import full_lorentz_decompose

    full = full_lorentz_decompose(_matrix(args))
    fact = full.factorization
    evidence = {
        **fact.to_json_dict(),
        "time_inverted": full.time_inverted,
        "orientation_inverted": full.orientation_inverted,
    }
    return (
        "computed",
        None,
        evidence,
        f"theta={fact.theta:.6g} time_inverted={full.time_inverted} "
        f"orientation_inverted={full.orientation_inverted}",
    )


def _cmd_dirichlet(args):
    from .numbertheory import dirichlet

    alpha = _alpha(args.alpha)
    pair = dirichlet(alpha, args.N)
    evidence = {
        "alpha": alpha.name,
        "N": args.N,
        "k": pair.k,
        "l": pair.l,
        "defect": pair.defect,
    }
    return (
        "computed",
        None,
        evidence,
        f"(k,l)=({pair.k},{pair.l}) defect~{pair.defect:.4g}",
    )


def _cmd_liouville(args):
    from .numbertheory import liouville_constant

    alg = _algebraic(args.alpha)
    data = liouville_constant(alg)
    evidence = {
        "alpha": alg.name,
        "poly": list(alg.coeffs),
        "degree": alg.degree,
        "c": data.c,
        "M": data.M,
    }
    return "computed", None, evidence, f"c~{data.c:.6g} M={data.M}"


def _cmd_corollary_pair(args):
    from .numbertheory import corollary_pair

    alg = _algebraic(args.alpha)
    res = corollary_pair(alg, args.R)
    evidence = {
        "alpha": alg.name,
        "poly": list(alg.coeffs),
        "R": args.R,
        "k": res.k,
        "l": res.l,
        "defect": res.defect,
        "M": res.M,
    }
    return (
        "computed",
        None,
        evidence,
        f"(k,l)=({res.k},{res.l}) defect~{res.defect:.4g} M={res.M}",
    )


def _cmd_two_period(args):
    from .colombeau import Net
    from .verify import two_period_constancy

    net = Net.parse(args.f, 1)
    alg = _algebraic(args.alpha)
    rep = two_period_constancy(net, alg, args.R, args.p, _grid(args), samples=args.samples)
    verdict = {"constant": "positive", "not-certified": "negative", "not-applicable": "not-applicable"}[
        rep.verdict
    ]
    return verdict, args.p, rep, rep.verdict


def _cmd_translation(args):
    from .verify import translation_constancy

    net = _net(args)
    box = _parse_box(args.box, args.dim, args.samples)
    hs = tuple(_reals("--h-samples", part) for part in args.h_samples.split(";")) if args.h_samples else None
    rep = translation_constancy(net, box, _grid(args), args.p, h_samples=hs)
    verdict = "positive" if rep.verdict else "negative"
    note = "HYPOTHESIS_FAILED" if rep.hypothesis_failed else "constant" if rep.verdict else "not constant"
    return verdict, args.p, rep, note


def _cmd_explore(args):
    from .colombeau import Net
    from .verify import open_question_explorer

    net = Net.parse(args.f, 1)
    alpha = _alpha(args.alpha)
    rep = open_question_explorer(alpha, net, args.R, args.p, _grid(args), samples=args.samples)
    effective = "nan" if rep.effective_M is None else f"{rep.effective_M:.3f}"
    return (
        "exploratory",
        args.p,
        rep,
        f"NON-THEOREM exploration: alpha={alpha.name} applicable={rep.applicable} effective_M~{effective}",
    )


_HANDLERS = {
    "classify": _cmd_classify,
    "invariance": _cmd_invariance,
    "one-param": _cmd_one_param,
    "rotation": _cmd_pipeline,
    "lorentz": _cmd_pipeline,
    "decompose-so": _cmd_decompose_so,
    "decompose-lorentz": _cmd_decompose_lorentz,
    "dirichlet": _cmd_dirichlet,
    "liouville": _cmd_liouville,
    "corollary-pair": _cmd_corollary_pair,
    "two-period": _cmd_two_period,
    "translation": _cmd_translation,
    "explore-open-question": _cmd_explore,
}

#: Defaults shared by the config-file layer; flags override config values,
#: config values override these.
DEFAULTS = {
    "k_min": 4,
    "k_max": 40,
    "p": 4,
    "p_max": 8,
    "max_order": 2,
    "samples": 33,
    "dim": 1,
    "seed": 0,
    "strict": True,
    "box": "",
    "real_thetas": "",
    "h_samples": "",
}


def _add_common(sp, *names):
    if "config" in names:
        sp.add_argument("--config", type=str, default=None, help="JSON file with default options")
    if "strict" in names:
        sp.add_argument("--strict", dest="strict", action="store_true", default=None)
        sp.add_argument("--no-strict", dest="strict", action="store_false", default=None)
    if "seed" in names:
        sp.add_argument("--seed", type=int, default=None, help="seed of the --random matrix")
    if "grid" in names:
        sp.add_argument("--k-min", type=int, default=None, dest="k_min")
        sp.add_argument("--k-max", type=int, default=None, dest="k_max")
    if "p" in names:
        sp.add_argument("--p", type=int, default=None)
    if "box" in names:
        sp.add_argument("--box", type=str, default=None, help="per-axis lo:hi, comma separated")
    if "box" in names or "samples" in names:
        sp.add_argument("--samples", type=int, default=None)
    if "net" in names:
        sp.add_argument("--f", type=str, required=True, help="expression in eps, x1..xd")
        sp.add_argument("--dim", type=int, default=None)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write; help that cannot reach stdout is an
        # error, as a summary line that cannot is
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of every subcommand, or with ``command`` of that
    one alone; the two print the same help, usage lines and errors for it."""
    parser = _Parser(
        prog="epsnet",
        description="Verifiers for invariance properties of nets of smooth functions",
    )
    # a one-subcommand parser lists every subcommand in its usage line, as
    # the full parser does
    metavar = None if command is None else "{" + ",".join(_HANDLERS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, help_text: str):
        """The subparser of ``name``, or None when the parser leaves it out."""
        if command not in (None, name):
            return None
        # no abbreviations: "classify --p 3" would read as --p-max 3
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--out", type=str, default=None,
                        help="report path (default <command>_report.json)")
        return sp

    if sp := add("classify", "asymptotic classification of a net"):
        _add_common(sp, "config", "net", "box", "grid")
        sp.add_argument("--max-order", type=int, default=None, dest="max_order")
        sp.add_argument("--p-max", type=int, default=None, dest="p_max")

    if sp := add("invariance", "invariance of a net under one element"):
        _add_common(sp, "config", "strict", "net", "box", "grid", "p")
        sp.add_argument("--element", type=str, default=None, help="GroupElement JSON (inline or file)")
        sp.add_argument("--rotation", type=str, default=None, help="i,j,theta (theta real or eps-expression)")
        sp.add_argument("--boost", type=str, default=None, help="i,j,theta")
        sp.add_argument("--translate", type=str, default=None, help="comma-separated offset")

    if sp := add("one-param", "real-parameter hypothesis plus generalized conclusion"):
        _add_common(sp, "config", "strict", "net", "box", "grid", "p")
        sp.add_argument("--kind", choices=("rotation", "boost"), required=True)
        sp.add_argument("--i", type=int, required=True)
        sp.add_argument("--j", type=int, required=True)
        sp.add_argument("--real-thetas", type=str, default=None, dest="real_thetas")
        sp.add_argument("--gen-theta", action="append", default=None, dest="gen_theta")

    for name in ("rotation", "lorentz"):
        if sp := add(name, f"{name} invariance pipeline via factorization"):
            _add_common(sp, "config", "strict", "seed", "net", "box", "grid", "p")
            sp.add_argument("--matrix", type=str, default=None)
            sp.add_argument("--matrix-net", type=str, default=None, dest="matrix_net")
            sp.add_argument("--random", action="store_true", default=False)

    if sp := add("decompose-so", "factor an orthogonal matrix"):
        sp.add_argument("--matrix", type=str, required=True)

    if sp := add("decompose-lorentz", "factor a proper orthochronous Lorentz matrix"):
        sp.add_argument("--matrix", type=str, required=True)

    if sp := add("dirichlet", "minimal-defect approximation pair"):
        sp.add_argument("--alpha", type=str, required=True)
        sp.add_argument("--N", type=int, required=True)

    if sp := add("liouville", "lower-bound constant and exponent for a catalog number"):
        sp.add_argument("--alpha", type=str, required=True)

    if sp := add("corollary-pair", "two-sided pair for a catalog number"):
        sp.add_argument("--alpha", type=str, required=True)
        sp.add_argument("--R", type=float, required=True)

    if sp := add("two-period", "two periods force a generalized constant"):
        sp.add_argument("--f", type=str, required=True)
        sp.add_argument("--alpha", type=str, required=True)
        sp.add_argument("--R", type=float, required=True)
        _add_common(sp, "config", "grid", "p", "samples")

    if sp := add("translation", "translation invariance forces a constant"):
        _add_common(sp, "config", "net", "box", "grid", "p")
        sp.add_argument("--h-samples", type=str, default=None, dest="h_samples",
                        help="semicolon-separated offset vectors, components comma-separated")

    if sp := add("explore-open-question", "two-period data for non-algebraic ratios"):
        sp.add_argument("--f", type=str, required=True)
        sp.add_argument("--alpha", type=str, required=True)
        sp.add_argument("--R", type=float, required=True)
        _add_common(sp, "config", "grid", "p", "samples")

    return parser


def _named_subcommand(argv) -> str | None:
    """The subcommand ``argv`` runs when its first word names one; otherwise
    None (no or an unknown subcommand, help, an option before the
    subcommand), and the full parser reads ``argv``."""
    return argv[0] if argv and argv[0] in _HANDLERS else None


#: Least values of the integer options, checked after the config merge.
_MINIMA = {"p": 1, "p_max": 1, "samples": 2, "max_order": 0}


def _check_minima(args: argparse.Namespace) -> None:
    for key, least in _MINIMA.items():
        if getattr(args, key, least) < least:
            option = "--" + key.replace("_", "-")
            raise UsageError(f"{option} must be >= {least}, got {getattr(args, key)}")


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Precedence: explicit flags, then config-file values, then defaults."""
    config = {}
    if getattr(args, "config", None):
        config = _load_json_arg(args.config)
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(DEFAULTS))
        if unknown:
            raise UsageError(f"unknown config key {unknown[0]!r} (known: {', '.join(DEFAULTS)})")
    for key, default in DEFAULTS.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        value = config.get(key, default)
        # exact type: an int option rejects true, a bool option rejects 0
        if type(value) is not type(default):
            raise UsageError(f"config {key!r} must be {type(default).__name__}, got {value!r}")
        setattr(args, key, value)
    return args


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one stderr line, without source location."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv) -> int:
    # one subcommand's parser builds in about 0.25 ms, all thirteen in 1.4
    parser = build_parser(_named_subcommand(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_ERROR if err.code not in (0, None) else 0
    except OSError as err:
        return _stdout_error(err)
    try:
        args = _apply_config(args)
        _check_minima(args)
        handler = _HANDLERS[args.command]
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            warnings.filterwarnings("always", "transformation is not c-bounded", RuntimeWarning)
            verdict, order, evidence, summary = handler(args)
    except (UsageError, ValueError) as err:  # ParseError, DecompositionError, CBoundednessError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:  # differentiation and substitution recurse once per level
        print("error: the expression nests too deeply to process", file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:  # last resort: exit 1 is reserved for negative verdicts
        if isinstance(err, ArithmeticError):
            print(f"evaluation error: {err}", file=sys.stderr)
            return EXIT_ERROR
        message = " ".join(str(err).split())
        print(f"error: unexpected {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR
    out = args.out or f"{args.command.replace('-', '_')}_report.json"
    try:
        write_report(out, args.command, verdict, order, evidence)
    except OSError as err:
        print(f"error: cannot write the report: {err}", file=sys.stderr)
        return EXIT_ERROR
    try:
        print(f"{args.command}: {summary} [{verdict}] -> {out}")
    except OSError as err:
        return _stdout_error(err)
    return EXIT_NEGATIVE if verdict in ("negative", "not-applicable") else EXIT_POSITIVE


def _stdout_error(err: OSError) -> int:
    print(f"error: cannot write to standard output: {err}", file=sys.stderr)
    return EXIT_ERROR


def main() -> None:
    # A job is short and leaves little cyclic garbage, so it runs with
    # collection off.  The report is written and closed by now, so the
    # process ends as shutdown would begin (atexit handlers, then the
    # standard streams) and skips the teardown of every module it loaded.
    gc.disable()
    rc = run(sys.argv[1:])
    atexit._run_exitfuncs()
    # either stream is None when its descriptor was closed at startup
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as err:
        # an error exit has printed its own line already
        if rc != EXIT_ERROR:
            rc = _stdout_error(err)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(rc)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""epsnet CLI benchmark: time from launching an ``epsnet`` subcommand to its verdict.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is a fresh ``python -m epsnet.cli ...`` process with BLAS limited
to one thread.  Jobs run as a closed loop with one client: the workload's
fixed job list is run in order, one process at a time, in whole passes,
until at least ``--seconds`` have passed and the workload's minimum number
of passes is done.  Every job is checked (exit status, no traceback,
schema-valid report, verdict known by construction, evidence checks,
identical report bytes on every pass).

With ``--trace 0`` the end-to-end metrics are measured with no tracing.
With ``--trace 1`` passes alternate between plain jobs and jobs run under
``launcher.py``, which records spans around the package's layer functions;
the per-layer metrics are per-job means over the traced jobs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from launcher import LAYER_NAMES, LAYERS
from workloads import WORKLOADS, Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLI_SOURCE = SRC / "epsnet" / "cli.py"
SCHEMA = SRC / "epsnet" / "schemas" / "report.schema.json"
WORK = BENCH / ".work"

JOB_TIMEOUT_S = 60.0
#: no new pass starts after the loop has run this long, so a run ends
#: well within three minutes even on a much slower machine
LOOP_LIMIT_S = 120.0
SETUP_PER_PASS = 1
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: counters reported as per-job means, besides each layer's self time
CALL_COUNTS = ("expr.diff", "expr.eval", "colombeau.fit", "colombeau.image_bound", "decompose",
               "numbertheory.dirichlet", "numbertheory.liouville")
WORK_COUNTS = (
    ("expr.diff.tree_nodes", "count"),
    ("expr.diff.unique_nodes", "count"),
    ("expr.eval.rows", "count"),
    ("expr.eval.elem_ops", "count"),
    ("groups.apply.rows", "count"),
    ("groups.compose.tree_nodes", "count"),
    ("groups.compose.unique_nodes", "count"),
    ("numbertheory.liouville.distinct", "count"),
    ("cli.report.bytes", "bytes"),
)
TRACE_TIMES = ("trace.startup_s", "trace.remainder_s", "trace.overhead_s")

PER_LAYER = (
    tuple((metric, "s") for _, metric, _ in LAYERS)
    + tuple((f"{layer}.calls", "count") for layer in CALL_COUNTS)
    + WORK_COUNTS
    + tuple((name, "s") for name in TRACE_TIMES)
)


def log(line: str) -> None:
    print(line, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, broken setup)."""


@dataclass
class Outcome:
    job: Job
    traced: bool
    launched: float
    wall: float
    rss_kb: int
    problem: Optional[str]
    trace: Optional[dict] = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # jobs import cached bytecode, as an installed package does, whatever
    # the caller's setting; the warm-up import writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one thread per job: BLAS threads would compete with the bench and the
    # host for a few shared cores, which makes job times unsteady
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv, env, stdout_path: Path, stderr_path: Path):
    """Run one process to completion; returns (launch time, wall seconds,
    exit status, max RSS in KB) with the RSS read from wait4's rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return launched, ended - launched, proc.returncode, usage.ru_maxrss


def probe_package(env) -> None:
    """Import the package once, which also compiles its bytecode, and prove
    that it comes from this checkout."""
    probe = subprocess.run(
        [sys.executable, "-c", "import epsnet.cli, sys; sys.stdout.write(epsnet.cli.__file__)"],
        cwd=WORK, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if probe.returncode != 0 or Path(probe.stdout).resolve() != CLI_SOURCE.resolve():
        raise BenchError(f"epsnet.cli does not import from {SRC}: {probe.stderr.strip()[-300:]}")


def time_import(env) -> float:
    """Wall time of a fresh interpreter importing ``epsnet.cli``."""
    _, wall, status, _ = spawn([sys.executable, "-c", "import epsnet.cli"], env,
                               WORK / "setup.out", WORK / "setup.err")
    if status != 0:
        raise BenchError("importing epsnet.cli failed")
    return wall


class Checker:
    """Applies the failure rules to one finished job."""

    def __init__(self):
        try:
            import jsonschema
        except ImportError as err:
            raise BenchError("the report check needs the jsonschema package") from err
        schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.first_bytes = {}

    def problem(self, job: Job, status: int, report: Path, stderr: Path) -> Optional[str]:
        if status != job.exit_code:
            return f"exit status {status}, expected {job.exit_code}"
        if "Traceback (most recent call last)" in stderr.read_text(errors="replace"):
            return "traceback on stderr"
        if not report.is_file():
            return "no report written"
        raw = report.read_bytes()
        first = self.first_bytes.setdefault(job.id, raw)
        if raw != first:
            return "report bytes differ from the job's first run"
        try:
            payload = json.loads(raw)
        except ValueError as err:
            return f"report is not JSON: {err}"
        error = next(iter(self.validator.iter_errors(payload)), None)
        if error is not None:
            return f"report violates the schema: {error.message}"
        if payload["verdict"] != job.verdict:
            return f"verdict {payload['verdict']!r}, expected {job.verdict!r}"
        if job.check is not None:
            return job.check(payload["evidence"])
        return None


def run_job(job: Job, traced: bool, env, checker: Checker, tag: str) -> Outcome:
    report = WORK / f"{job.id}.report.json"
    spans = WORK / f"{tag}.spans.json"
    for path in (report, spans):
        path.unlink(missing_ok=True)
    args = [*job.args, "--out", report.name]
    if traced:
        argv = [sys.executable, str(BENCH / "launcher.py"), spans.name, tag, *args]
    else:
        argv = [sys.executable, "-m", "epsnet.cli", *args]
    stderr = WORK / f"{job.id}.stderr"
    launched, wall, status, rss = spawn(argv, env, WORK / f"{job.id}.stdout", stderr)
    problem = checker.problem(job, status, report, stderr)
    trace = None
    if traced and problem is None:
        if spans.is_file():
            trace = json.loads(spans.read_text(encoding="utf-8"))
        else:
            problem = "traced job wrote no spans"
    return Outcome(job, traced, launched, wall, rss, problem, trace)


def closed_loop(workload, jobs, seconds: int, trace: bool, env, checker) -> tuple:
    """Run whole passes over the job list until ``seconds`` have passed;
    returns (outcomes, seconds spent in passes, setup samples).

    Without tracing, SETUP_PER_PASS cold imports follow each pass, so that
    ``setup_s`` samples the whole run rather than its first seconds; they
    count towards ``seconds`` but are not part of the timed window.
    """
    outcomes, setup = [], []
    window = 0.0
    passes = 0
    began = time.perf_counter()
    while True:
        traced = trace and passes % 2 == 1
        start = time.perf_counter()
        for job in jobs:
            outcomes.append(run_job(job, traced, env, checker, f"p{passes}-{job.id}"))
        window += time.perf_counter() - start
        passes += 1
        if not trace:
            setup.extend(time_import(env) for _ in range(SETUP_PER_PASS))
        elapsed = time.perf_counter() - began
        if (passes >= workload.min_passes and elapsed >= seconds) or elapsed >= LOOP_LIMIT_S:
            return outcomes, window, setup


def tail(values) -> tuple:
    """Value at the highest percentile with TAIL_BEYOND samples above it,
    with that percentile; the maximum (percentile 100) when there are too
    few samples."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND  # 1-based
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(outcomes, window: float, setup) -> dict:
    walls = [o.wall for o in outcomes]
    tail_value, tail_pct = tail(walls)
    values = {
        "job_s_p50": statistics.median(walls),
        "job_s_tail": tail_value,
        "jobs_per_s": len(outcomes) / window,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024.0,
    }
    log(f"jobs: {len(walls)} in {window:.2f} s; job_s_tail is p{tail_pct:.1f} "
        f"({min(TAIL_BEYOND, len(walls) - 1)} samples beyond, {len(walls)} samples)")
    log(f"setup_s: median of {len(setup)} cold imports of epsnet.cli, "
        f"{SETUP_PER_PASS} after each pass")
    return values


def layer_split(traced, plain, required) -> dict:
    """Per-job means of layer self times and work counters over traced jobs."""
    n = len(traced)
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    counts = dict.fromkeys((name for name, _ in WORK_COUNTS), 0)
    startup = remainder = 0.0
    for o in traced:
        rec = o.trace
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        covered = 0.0
        for (layer, start, end, parent), inner in zip(spans, child):
            name = rec["layers"][layer]
            self_s[name] += (end - start) - inner
            calls[name] += 1
            if parent < 0:
                covered += end - start
        for key in counts:
            counts[key] += rec["counters"][key]
        startup += rec["t_ready"] - o.launched
        remainder += o.wall - (rec["t_ready"] - o.launched) - covered
    missing = [layer for layer in required if calls[layer] == 0]
    if missing:
        raise BenchError(f"traced run recorded no calls into: {', '.join(missing)}")

    metrics = {metric: self_s[layer] / n for layer, metric, _ in LAYERS}
    metrics.update({f"{layer}.calls": calls[layer] / n for layer in CALL_COUNTS})
    metrics.update({key: value / n for key, value in counts.items()})
    traced_p50 = statistics.median(o.wall for o in traced)
    metrics["trace.startup_s"] = startup / n
    metrics["trace.remainder_s"] = remainder / n
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(o.wall for o in plain)

    mean_wall = sum(o.wall for o in traced) / n
    log(f"per-layer split, mean seconds per traced job over {n} jobs "
        f"(mean wall {mean_wall:.4f} s, traced p50 {traced_p50:.4f} s):")
    rows = [("startup (interpreter, imports, wrapping)", metrics["trace.startup_s"])]
    rows += [(metric, metrics[metric]) for _, metric, _ in LAYERS]
    rows.append(("remainder (counters, spans file, exit)", metrics["trace.remainder_s"]))
    for label, value in sorted(rows, key=lambda r: -r[1]):
        log(f"  {label:42s} {value:9.4f} s  {100.0 * value / mean_wall:5.1f}%")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not CLI_SOURCE.is_file() or not SCHEMA.is_file():
        print(f"error: epsnet source not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    try:
        env = child_env()
        checker = Checker()
        jobs = workload.make(random.Random(f"{workload.name}:{args.seed}"), WORK)
        probe_package(env)
        outcomes, window, setup = closed_loop(workload, jobs, args.seconds, bool(args.trace),
                                              env, checker)
        failed = [o for o in outcomes if o.problem is not None]
        for o in failed[:10]:
            log(f"FAILED {o.job.id}: {o.problem}")
        log(f"fail_frac: {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.4f}")
        if args.trace:
            traced = [o for o in outcomes if o.traced and o.problem is None]
            plain = [o for o in outcomes if not o.traced]
            if not traced:
                raise BenchError("no traced job succeeded")
            metrics = layer_split(traced, plain, workload.required_layers)
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(outcomes, window, setup)
            units = dict(END_TO_END)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    for name, unit in units.items():
        log(f"{name}: {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

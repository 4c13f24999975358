#!/usr/bin/env python3
"""Benchmark of the tzgraph command line interface.

Drives ``tzgraph.cli.main(argv)`` in-process over generated graph files,
single-process, with BLAS pinned to one thread before numpy is imported.
Run from the root of a checkout::

    python3 perfbench/run.py --workload degree-enum --seed 1 --seconds 40 --trace 0

``--trace 0`` times whole passes over the workload's command list and
prints the end-to-end metrics, scaled by the host speed that a reference
loop measures between commands (see ``HostSpeed``); ``--trace 1`` runs
each command untraced and then traced, and prints the per-layer metrics
and the tracing overhead.
Every answer is checked outside the timed region.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and spans are also
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the pin only takes effect if it is in the environment when numpy loads BLAS
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
os.environ.update(PINNED)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_PASSES = 5
SETUP_PROBES = 5
# the host's speed is sampled with the reference loop this often, between commands
REFERENCE_EVERY_S = 0.5
# times are scaled to a host on which the reference loop takes this long
REFERENCE_NOMINAL_S = 0.015
KINDS = ("degree", "check", "solve", "multiplicity", "bounds")


def import_package():
    """Import tzgraph from this checkout's ``src``, or exit with an error."""
    if not (SRC / "tzgraph" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tzgraph'} not found; run from a tzgraph checkout")
    sys.path.insert(0, str(SRC))
    import tzgraph

    if Path(tzgraph.__file__).resolve().parent != SRC / "tzgraph":
        sys.exit(f"error: imported tzgraph from {tzgraph.__file__}, not from {SRC}")
    return tzgraph


# ---------------------------------------------------------------------------
# running commands


def run_command(argv: list[str]):
    """One CLI call with output and warnings captured: (code, out, err, seconds, overflow, merged)."""
    from tzgraph import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        # "always" so that every occurrence counts, whatever ran before
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
    overflow = sum(
        issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message) for w in caught
    )
    merged = sum("merged" in str(w.message) for w in caught)
    return code, out.getvalue(), err.getvalue(), seconds, overflow, merged


class Pass:
    """Timings and outcomes of one closed-loop run over the command list."""

    def __init__(self):
        self.seconds: list[float] = []
        self.outcomes: list[tuple[int, str, str]] = []
        self.overflow = 0
        self.merged = 0

    def record(self, result) -> None:
        code, out, err, seconds, overflow, merged = result
        self.seconds.append(seconds)
        self.outcomes.append((code, out, err))
        self.overflow += overflow
        self.merged += merged

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work that does not use tzgraph.

    Pure-Python integer arithmetic and numpy calls on tiny arrays, the two
    kinds of work the package does.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(180_000):
        total += i * i
    a = np.linspace(0.0, 1.0, 12)
    for _ in range(1800):
        a = np.sqrt(a * 0.5 + 1.0)
    return time.perf_counter() - start


class HostSpeed:
    """The host's speed, sampled with the reference loop between commands.

    Other tenants of a shared host slow every process on it by up to half
    for minutes at a time.  Scaling a run's times by ``factor`` takes out
    what the reference loop was slowed by in the same run; the program's
    own changes in speed stay in.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.samples.append(reference_loop())
            self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


def run_pass(argvs: list[list[str]], host: HostSpeed) -> Pass:
    result = Pass()
    for argv in argvs:
        host.sample()
        result.record(run_command(argv))
    return result


def run_paired(argvs: list[list[str]], tracer) -> tuple[Pass, Pass]:
    """Each command untraced, then traced right after it.

    Pairing per command keeps slow drifts of machine speed out of the
    tracing overhead.
    """
    plain, traced = Pass(), Pass()
    for i, argv in enumerate(argvs):
        plain.record(run_command(argv))
        tracer.command = i
        with tracer:
            traced.record(run_command(argv))
    return plain, traced


def measure_setup(warmup_argv: list[str]) -> float:
    """Fresh process to the end of one warm-up command."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", json.dumps(warmup_argv)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"error: setup probe failed: {proc.stderr.strip()[-400:]}")
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    return float(proc.stdout.split()[-1]) - start


def setup_probe(warmup_argv: list[str]) -> None:
    import_package()
    code = run_command(warmup_argv)[0]
    if code != 0:
        sys.exit(f"error: warm-up command exited {code}")
    print(repr(time.perf_counter()))


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(sample_count: int) -> int:
    """Highest whole percentile with at least ten of ``sample_count`` samples beyond it.

    Never below the median.
    """
    return max(50, (100 * (sample_count - 10)) // sample_count)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def kind_totals(commands, passes: list[Pass]) -> dict[str, float]:
    """Median over passes of the summed time per command kind, for kinds that run."""
    totals = {}
    for kind in KINDS:
        index = [i for i, c in enumerate(commands) if c.kind == kind]
        if index:
            totals[kind + "_s"] = statistics.median(sum(p.seconds[i] for i in index) for p in passes)
    return totals


# ---------------------------------------------------------------------------
# environment record


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "pinned": {key: os.environ.get(key) for key in PINNED},
        "pinned_before_numpy": PINNED_BEFORE_NUMPY,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the run


def verify(commands, paths, passes: list[Pass], reference: Pass) -> tuple[int, int, list[str]]:
    """Check every answer of every pass and that each report equals the reference's."""
    import workloads

    attempted = failed = 0
    reasons: list[str] = []
    for p in passes:
        verdicts = workloads.check_answers(commands, paths, p.outcomes)
        for cmd, verdict, outcome, first in zip(commands, verdicts, p.outcomes, reference.outcomes):
            if verdict is None and outcome != first:
                verdict = "report differs from the first pass"
            attempted += 1
            if verdict is not None:
                failed += 1
                reasons.append(f"{cmd.kind} {cmd.instance.name}: {verdict}")
    return attempted, failed, reasons


def time_metrics(commands, passes: list[Pass], setup: list[float], factor: float) -> dict:
    """End-to-end times over all passes, each multiplied by ``factor``."""
    samples = [factor * s for p in passes for s in p.seconds]
    # each command's median over the passes, so that a slow moment of the
    # host does not move the median command
    medians = [factor * statistics.median(times) for times in zip(*(p.seconds for p in passes))]
    # fixed per workload, so that every run reads the same percentile
    tail = tail_percentile(len(commands) * MIN_PASSES)
    return {
        "setup_s": (factor * statistics.median(setup), "s"),
        "cmds_per_s": (len(samples) / sum(samples), "1/s"),
        "cmd_p50_ms": (1000.0 * statistics.median(medians), "ms"),
        "cmd_tail_ms": (1000.0 * percentile(samples, tail), "ms"),
    }


def untraced_metrics(commands, passes: list[Pass], setup: list[float], host: HostSpeed) -> tuple[dict, dict]:
    metrics = time_metrics(commands, passes, setup, host.factor)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    totals = kind_totals(commands, passes)
    extra = {name: (host.factor * value, "s") for name, value in totals.items()}
    # the same times as measured, before scaling to the reference speed
    for name, value in time_metrics(commands, passes, setup, 1.0).items():
        extra[name + ".wall"] = value
    samples = sum(len(p.seconds) for p in passes)
    tail = tail_percentile(len(commands) * MIN_PASSES)
    extra["cmd_tail_percentile"] = (tail, "%")
    extra["cmd_tail_beyond"] = (samples - math.ceil(tail / 100.0 * samples), "count")
    extra["samples"] = (samples, "count")
    extra["passes"] = (len(passes), "count")
    extra["setup_probes"] = (len(setup), "count")
    extra["host_speed_factor"] = (host.factor, "ratio")
    extra["reference_median_s"] = (statistics.median(host.samples), "s")
    extra["reference_samples"] = (len(host.samples), "count")
    return metrics, extra


def traced_metrics(tracers, traced: list[Pass], plain: list[Pass]) -> dict:
    def self_s(name):
        return statistics.median(t.self_time.get(name, 0.0) for t in tracers)

    c = tracers[0].counts
    runs = c["solvers.newton.runs"]
    enum_runs = c["degree.enumerate.runs"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in ("cli.parse_graph", "cli.render", "cli.main", "graphs.construct"):
        put(name + ".self_s", self_s(name), "s")
    put("graphs.graph_constants.calls", c["graphs.graph_constants.calls"], "count")
    put("graphs.graph_constants.self_s", self_s("graphs.graph_constants"), "s")
    put("graphs.laplacian_matrix.self_s", self_s("graphs.laplacian_matrix"), "s")
    put("graphs.as_field.calls", c["graphs.as_field.calls"], "count")
    for name in ("estimates.bounds", "estimates.elliptic_constant"):
        put(name + ".calls", c[name + ".calls"], "count")
        put(name + ".self_s", self_s(name), "s")
    for fn in ("residual", "jacobian", "residual_homotopy", "jacobian_homotopy", "energy"):
        put(f"model.{fn}.calls", c[f"model.{fn}.calls"], "count")
        put(f"model.{fn}.self_s", self_s(f"model.{fn}"), "s")
    for fn in ("lu_factor", "lu_solve", "det_sign"):
        put(f"linalg.{fn}.calls", c[f"linalg.{fn}.calls"], "count")
        put(f"linalg.{fn}.self_s", self_s(f"linalg.{fn}"), "s")
    put("linalg.singular", c["linalg.singular"], "count")
    put("linalg.halton_ball.self_s", self_s("linalg.halton_ball"), "s")
    put("solvers.newton.runs", runs, "count")
    put("solvers.newton.iterations", c["solvers.newton.iterations"], "count")
    # residual evaluations beyond the initial one and one per accepted step
    put("solvers.newton.backtracks",
        c["solvers.newton.residuals"] - runs - c["solvers.newton.iterations"], "count")
    put("solvers.newton.residuals_per_jacobian",
        c["solvers.newton.residuals"] / max(c["solvers.newton.jacobians"], 1), "ratio")
    put("solvers.newton.converged_ratio", c["solvers.newton.exit.converged"] / max(runs, 1), "ratio")
    for reason in ("converged", "singular", "budget", "other"):
        put(f"solvers.newton.exit.{reason}", c[f"solvers.newton.exit.{reason}"], "count")
    put("solvers.deflation.self_s", self_s("solvers.deflation"), "s")
    put("solvers.continuation.calls", c["solvers.continuation.calls"], "count")
    put("solvers.continuation.newton_runs", c["solvers.continuation.newton_runs"], "count")
    put("solvers.continuation.self_s", self_s("solvers.continuation"), "s")
    put("solvers.minimize_box.steps", c["solvers.minimize_box.steps"], "count")
    put("solvers.minimize_box.self_s", self_s("solvers.minimize_box"), "s")
    put("solvers.barriers.self_s", self_s("solvers.barriers"), "s")
    put("solvers.overflow_warnings", traced[0].overflow, "count")
    put("degree.estimate_degree.calls", c["degree.estimate_degree.calls"], "count")
    put("degree.estimate_degree.self_s", self_s("degree.estimate_degree"), "s")
    put("degree.enumerate.runs", enum_runs, "count")
    put("degree.enumerate.roots", c["degree.enumerate.roots"], "count")
    put("degree.enumerate.roots_per_run", c["degree.enumerate.roots"] / max(enum_runs, 1), "ratio")
    put("degree.enumerate.self_s", self_s("degree.enumerate"), "s")
    put("degree.merge_warnings", traced[0].merged, "count")
    put("degree.homotopy_invariance.self_s", self_s("degree.homotopy_invariance"), "s")
    untraced_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    put("bench.trace_overhead_ratio", (traced_wall - untraced_wall) / untraced_wall, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import gen
    import workloads
    from tracing import Tracer

    env = environment(seed)
    if not PINNED_BEFORE_NUMPY:
        print("WARNING: numpy was imported before the BLAS thread pin was set; "
              "timings may be thread-contended", file=sys.stderr)

    commands = workloads.build(workload, seed)
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for cmd in commands:
            if cmd.instance.name not in paths:
                paths[cmd.instance.name] = gen.write_instance(cmd.instance, workdir)
        warmup = workloads.Command("solve", workloads.warmup_instance(seed))
        warmup_argv = warmup.argv(gen.write_instance(warmup.instance, workdir))
        argvs = [cmd.argv(paths[cmd.instance.name]) for cmd in commands]

        setup: list[float] = []
        host = HostSpeed()
        run_command(warmup_argv)

        plain: list[Pass] = []
        traced: list[Pass] = []
        tracers: list[Tracer] = []
        min_passes = 1 if trace else MIN_PASSES
        start = time.perf_counter()
        while True:
            if trace:
                tracers.append(Tracer())
                untraced_pass, traced_pass = run_paired(argvs, tracers[-1])
                plain.append(untraced_pass)
                traced.append(traced_pass)
            else:
                plain.append(run_pass(argvs, host))
                # set-up probes between passes see the host at different times;
                # MIN_PASSES >= SETUP_PROBES, so every run takes them all
                if len(setup) < SETUP_PROBES:
                    setup.append(measure_setup(warmup_argv))
            elapsed = time.perf_counter() - start
            # stop before a round that would end past the time budget
            if len(plain) >= min_passes and elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
        attempted, failed, reasons = verify(commands, paths, plain + traced, plain[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0
    if trace:
        for tracer in tracers[1:]:
            if tracer.counts != tracers[0].counts:
                correct = False
                reasons.append("per-layer counters differ between traced passes")
        metrics = traced_metrics(tracers, traced, plain)
        extra = {"traced_passes": (len(traced), "count")}
        OUT.mkdir(exist_ok=True)
        tracers[0].write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics, extra = untraced_metrics(commands, plain, setup, host)

    print(f"tzgraph benchmark: workload {workload}, seed {seed}, trace {int(trace)}, "
          f"{len(commands)} commands per pass, closed loop, one client")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:40s} {value!r} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted!r} share ({failed} of {attempted})")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({"environment": env}))

    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "attempted": attempted, "failed": failed, "failures": reasons,
        "reference_s": host.samples,
        "commands": [
            {"kind": cmd.kind, "instance": cmd.instance.name,
             "seconds": [p.seconds[i] for p in plain]}
            for i, cmd in enumerate(commands)
        ],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--setup-probe":
        setup_probe(json.loads(sys.argv[2]))
        return 0
    parser = argparse.ArgumentParser(description="tzgraph CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

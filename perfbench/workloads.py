"""Workload command lists and the answer check for every command.

A workload is a fixed list of CLI commands over instances generated from
the benchmark seed.  One pass runs the list once as a closed loop: the
next command starts only when the previous one has returned.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gen import Instance, make_instance

# exit code the CLI must return, and degree the theory predicts, per family
OBSTRUCTED = "classic-pos"
THEORY_DEGREE = {"classic-neg": 1, "classic-pos": 0, "generalized": 0, "branch1": 0, "mirror": 0}
SECOND_SIGN = {"branch1": 1, "mirror": -1}
DEGREE_STARTS = 48
# a solve stops at residual 1e-10, so its iterate may sit this far outside
# a box that holds the exact solution
BOX_SLACK = 1e-8
# size of the large-graph instances: at n=200 a command takes 1.1-1.7 s, too
# long for a run to repeat a list of them often enough
LARGE = 100


@dataclass(frozen=True)
class Command:
    kind: str
    instance: Instance

    def argv(self, path: Path) -> list[str]:
        inst = self.instance
        argv = [self.kind, str(path), "--equation", inst.equation,
                "--A", repr(inst.A), "--B", repr(inst.B), "--no-timestamp"]
        if self.kind in ("degree", "check"):
            argv += ["--starts", str(DEGREE_STARTS)]
        return argv

    @property
    def expected_exit(self) -> int:
        return 3 if self.kind == "solve" and self.instance.family == OBSTRUCTED else 0


# (command kind, family, sizes, instances per size)
#
# Each list is short enough for a run to repeat it many times, and built
# so that the median and the tail fall inside a group of commands of like
# cost, not on the edge between two groups whose order depends on the seed.
_MIXES = {
    # classic-neg instances have one root whatever the seed, so the median
    # falls among the n=4 ones and the tail among the n=8 ones.  Generalized
    # instances have two roots or four, so that command's cost can double
    # with the seed; it runs once.
    "degree-enum": (
        ("degree", "classic-neg", (4,), 5),
        ("degree", "classic-neg", (8,), 2),
        ("degree", "classic-pos", (4, 12), 1),
        ("degree", "generalized", (2,), 1),
        ("check", "classic-neg", (2,), 1),
        ("check", "classic-pos", (2,), 1),
    ),
    # the median falls among the nine bounds commands, the tail among the
    # three continuation solves
    "large-graph": (
        ("bounds", "classic-neg", (LARGE,), 3),
        ("bounds", "generalized", (LARGE,), 3),
        ("bounds", "branch1", (LARGE,), 3),
        ("solve", "classic-neg", (LARGE,), 3),
        ("solve", "classic-pos", (LARGE,), 2),
        ("solve", "generalized", (LARGE,), 2),
        ("multiplicity", "branch1", (LARGE,), 2),
    ),
    # the median falls among the many commands of a few ms, the tail among
    # the eight continuation solves at n=12
    "small-batch": (
        ("bounds", "classic-neg", (1, 2, 4, 8, 12), 8),
        ("bounds", "generalized", (1, 2, 4, 8, 12), 8),
        ("bounds", "branch1", (1, 2, 4, 8, 12), 8),
        ("solve", "classic-neg", (1, 2, 4, 8, 12), 8),
        ("solve", "classic-pos", (1, 2, 4, 8, 12), 8),
        ("solve", "generalized", (1, 2, 4, 8, 12), 8),
        ("multiplicity", "branch1", (1, 2, 4, 8, 12), 8),
    ),
}
WORKLOADS = tuple(_MIXES)


def build(workload: str, seed: int) -> list[Command]:
    """The workload's command list; commands sharing a family and size share instances."""
    commands = []
    for kind, family, sizes, count in _MIXES[workload]:
        for n in sizes:
            commands += [Command(kind, make_instance(family, n, seed, i)) for i in range(count)]
    return commands


def warmup_instance(seed: int) -> Instance:
    """Small instance for the untimed warm-up solve."""
    return make_instance("classic-neg", 4, seed, index=1000)


# ---------------------------------------------------------------------------
# answer checks


@functools.lru_cache(maxsize=None)
def _problem(inst: Instance, path: Path):
    from tzgraph import Kind, ProblemSpec
    from tzgraph.cli import parse_graph

    g, h1, h2 = parse_graph(path).to_graph()
    return ProblemSpec(Kind(inst.equation), h1, h2, inst.A, inst.B), g


def _residual_sup(inst: Instance, path: Path, u) -> float:
    from tzgraph import residual

    spec, g = _problem(inst, path)
    return float(np.max(np.abs(residual(spec, g, np.array(u, dtype=float)))))


def check_answers(commands: list[Command], paths: dict[str, Path], outcomes: list[tuple]) -> list[str | None]:
    """One entry per command: None when the answer is right, else the reason.

    ``outcomes`` holds ``(exit code, stdout, stderr)`` per command.  A bounds
    box must also contain every solution found on the same instance in the
    same pass.
    """
    from tzgraph import SolverConfig

    tol = SolverConfig().tol
    separation_floor = SolverConfig().deflation_radius
    verdicts: list[str | None] = []
    solutions: dict[str, list] = {}
    boxes: list[tuple[int, str, dict]] = []
    for i, (cmd, (code, out, err)) in enumerate(zip(commands, outcomes)):
        inst = cmd.instance
        if code != cmd.expected_exit:
            verdicts.append(f"exit {code}, expected {cmd.expected_exit}: {err.strip()[:120]}")
            continue
        if code == 3:
            ok = err.startswith("error: numerical: integral obstruction")
            verdicts.append(None if ok else f"unexpected failure: {err.strip()[:120]}")
            continue
        try:
            result = json.loads(out)["result"]
        except (json.JSONDecodeError, KeyError):
            verdicts.append(f"unreadable report: {out[:120]!r}")
            continue
        reason = None
        if cmd.kind == "degree":
            want = THEORY_DEGREE[inst.family]
            if result["degree"] != want:
                reason = f"degree {result['degree']}, theory says {want}"
        elif cmd.kind == "check":
            if not result["all_passed"]:
                failed = [c["name"] for c in result["checks"] if not c["passed"]]
                reason = "checks failed: " + ",".join(failed)
        elif cmd.kind == "solve":
            sup = _residual_sup(inst, paths[inst.name], result["solution"])
            if not result["converged"] or not sup < tol:
                reason = f"residual {sup:.3e} (converged={result['converged']})"
            else:
                solutions.setdefault(inst.name, []).append(result["solution"])
        elif cmd.kind == "multiplicity":
            first, second = result["solutions"]
            sups = [_residual_sup(inst, paths[inst.name], u) for u in (first, second)]
            sign = SECOND_SIGN[inst.family]
            if not max(sups) < tol:
                reason = f"residuals {sups[0]:.3e}, {sups[1]:.3e}"
            elif not result["separation_sup"] > separation_floor:
                reason = f"solutions {result['separation_sup']:.3e} apart"
            elif not all(sign * x > 0.0 for x in second):
                reason = "second solution is not one-signed"
            else:
                solutions.setdefault(inst.name, []).extend([first, second])
        elif cmd.kind == "bounds":
            box = result["box"]
            if not box["lower"] <= box["upper"] < box["radius"] or -box["radius"] >= box["lower"]:
                reason = f"malformed box {box}"
            boxes.append((i, inst.name, box))
        verdicts.append(reason)
    for i, name, box in boxes:
        for u in solutions.get(name, []):
            inside = all(box["lower"] - BOX_SLACK <= x <= box["upper"] + BOX_SLACK for x in u)
            if verdicts[i] is None and not inside:
                verdicts[i] = "a solution of this instance lies outside the box"
    return verdicts

"""Command line interface: graph files in, machine-readable reports out.

Grammar: ``tzgraph <command> <graph> [flags]``, with flags in any position.

Graph file format (line oriented, ``#`` starts a comment):

    vertex <label> <mu> <h1> <h2>
    edge <labelA> <labelB> <weight>

Equation kind and the exponents A, B are experiment parameters and travel
as flags; the coefficient fields live with the graph.  Reports serialize
canonically: keys sorted, floats at 17 significant digits, so identical
invocations produce byte-identical output (timestamps can be suppressed
with ``--no-timestamp``).

Exit codes: 0 success, 1 usage error, 2 validation error, 3 numerical
failure.  Every failure prints a single machine-parsable line to stderr:
``error: <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .degree import N_STARTS, _homotopy_degrees, estimate_degree
from .errors import (
    BoundsInapplicableError,
    InputError,
    NoSolutionError,
    NumericalError,
    ParseError,
    SolveFailedError,
)
from .estimates import AprioriBox, _apriori_box, _hypothesis_holds, _obstructed, elliptic_constant
from .graphs import (
    WeightedGraph,
    _gradient_norm_sq_rows,
    _index_edges,
    _integrals,
    _laplacian_rows,
    graph_constants,
)
from .model import Kind, ProblemSpec, _energy_kernel, _kernels
from .model import residual  # noqa: F401  unused; perfbench's tracing tests rebind and read cli.residual
from .solvers import (
    SolverConfig,
    _two_solutions,
    choose_barriers,
    continuation,
    default_t_grid,
    newton,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Raised instead of argparse's SystemExit so main() can return 1."""


# ---------------------------------------------------------------------------
# graph file ingestion


@dataclass(frozen=True, eq=False)
class GraphDocument:
    """A parsed graph file in columns, vertices and edges each in file order.

    Vertex ``k`` is ``labels[k]``, with measure ``mu[k]`` and coefficients
    ``h1[k]`` and ``h2[k]``.  Edge ``e`` joins the vertices ``tails[e]`` and
    ``heads[e]`` (indices into ``labels``) with weight ``weight[e]``: read-only
    arrays that ``parse_graph`` has checked.
    """

    labels: tuple[str, ...]
    mu: tuple[float, ...]
    h1: tuple[float, ...]
    h2: tuple[float, ...]
    tails: np.ndarray
    heads: np.ndarray
    weight: np.ndarray

    def to_graph(self) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        g = WeightedGraph(self.labels, self.mu, _checked_edges=(self.tails, self.heads, self.weight))
        return g, np.array(self.h1), np.array(self.h2)


def _parse_number(token: str, line: int, what: str, positive: bool = False) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line)
    if positive and value <= 0.0:
        raise ParseError(f"{what} must be positive, got {value:g}", line)
    return value


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def parse_graph(path: str | Path) -> GraphDocument:
    """Parse and validate a graph file; errors carry the offending line."""
    try:
        with open(path, "rb") as file:
            raw = file.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        text = raw.decode("utf-8-sig")  # a leading byte order mark is not part of line 1
    except UnicodeDecodeError:
        raise ParseError("file is not valid UTF-8") from None

    # one pass: a well-formed edge adds to the three edge columns, every other record is
    # checked where it stands, in file order
    seen: dict[str, int] = {}  # vertex label -> line
    mu, h1, h2, ends_a, ends_b, weight_tokens = [], [], [], [], [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        # a line without "#" needs no cut, which saves a method call on most lines
        tokens = (line.partition("#")[0] if "#" in line else line).split()
        if len(tokens) == 4 and tokens[0] == "edge":
            ends_a.append(tokens[1])
            ends_b.append(tokens[2])
            weight_tokens.append(tokens[3])
        elif not tokens:
            continue
        elif tokens[0] == "vertex":
            if len(tokens) != 5:
                raise ParseError(
                    f"vertex record needs 'vertex <label> <mu> <h1> <h2>', got {len(tokens) - 1} fields",
                    lineno,
                )
            label = tokens[1]
            if label in seen:
                raise ParseError(f"duplicate vertex {label!r} (first declared on line {seen[label]})", lineno)
            mu.append(_parse_number(tokens[2], lineno, "vertex measure", positive=True))
            h1.append(_parse_number(tokens[3], lineno, "h1 value"))
            h2.append(_parse_number(tokens[4], lineno, "h2 value"))
            seen[label] = lineno
        elif tokens[0] == "edge":
            raise ParseError(
                f"edge record needs 'edge <labelA> <labelB> <weight>', got {len(tokens) - 1} fields",
                lineno,
            )
        else:
            raise ParseError(f"unknown record type {tokens[0]!r}", lineno)

    if not seen:
        raise ParseError("file declares no vertices")

    try:
        weights = np.fromiter(map(float, weight_tokens), float, len(weight_tokens))
    except ValueError:  # an unparsable weight fails the weight check
        weights = np.array([_float_or_nan(token) for token in weight_tokens])
    index = {label: i for i, label in enumerate(seen)}
    tails, heads, weight, fault = _index_edges(index, ends_a, ends_b, weights)
    if fault is not None:
        k, check = fault
        a, b = ends_a[k], ends_b[k]
        rows = (line.partition("#")[0].split() for line in text.splitlines())
        lineno = [i for i, t in enumerate(rows, 1) if len(t) == 4 and t[0] == "edge"][k]
        if check == "weight":  # raises: the token is unparsable, not finite or not positive
            _parse_number(weight_tokens[k], lineno, "edge weight", positive=True)
        raise ParseError({
            "endpoint": f"edge endpoint {(a if a not in index else b)!r} is not a declared vertex",
            "self-loop": f"self-loop at vertex {a!r}",
            "duplicate": f"duplicate edge {a!r}-{b!r}",
        }[check], lineno)
    for arr in (tails, heads, weight):
        arr.flags.writeable = False
    return GraphDocument(tuple(seen), tuple(mu), tuple(h1), tuple(h2), tails, heads, weight)


# ---------------------------------------------------------------------------
# canonical report rendering


def _float_token(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _canonical(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_token(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + _canonical(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(doc: dict) -> str:
    return _canonical(doc) + "\n"


def _flatten(doc, prefix: str, out: list[tuple[str, str]]) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), out)
    else:
        out.append((prefix, _canonical(doc)))


def canonical_text(doc: dict) -> str:
    pairs: list[tuple[str, str]] = []
    _flatten(doc, "", pairs)
    return "".join(f"{key} = {value}\n" for key, value in sorted(pairs))


def _graph_payload(path: str, g: WeightedGraph) -> dict:
    return {
        "path": str(path),
        "n_vertices": g.n,
        "n_edges": g.m,
        "vertex_ids": list(g.vertex_ids),
        "constants": {**vars(graph_constants(g)), "elliptic_constant": elliptic_constant(g)},
    }


# ---------------------------------------------------------------------------
# commands


def _applicable_box(spec: ProblemSpec, g: WeightedGraph) -> AprioriBox | None:
    """The a priori box of the spec's kind, or None where its hypothesis fails or it leaves the float range."""
    try:
        return _apriori_box(spec, g)
    except BoundsInapplicableError:
        return None


def _cmd_solve(spec, g, cfg, args):
    if _obstructed(spec):
        raise NoSolutionError("integral obstruction: no solution exists")
    box = _applicable_box(spec, g)
    if spec.kind is Kind.CLASSIC and box is not None:
        reports = continuation(spec, g, default_t_grid(), cfg)
        report, method, stages = reports[-1], "continuation+newton", len(reports)
    else:
        report, method, stages = newton(spec, g, np.zeros(g.n), cfg), "newton", 1
    if not report.converged:
        raise SolveFailedError(
            f"solver did not converge (residual {report.residual_norm:.3e} after "
            f"{report.iterations} iterations)"
        )
    result = {
        "method": method,
        "stages": stages,
        "converged": report.converged,
        "iterations": report.iterations,
        "jac_sign": report.jac_sign,
        "residual_norm": report.residual_norm,
        "solution": report.solution,
    }
    return result, box, 0


def _cmd_degree(spec, g, cfg, args):
    report = estimate_degree(spec, g, cfg, n_starts=args.starts, radius=args.radius)
    return {**vars(report), "enumerated_degree": report.enumerated_degree}, _applicable_box(spec, g), 0


def _cmd_bounds(spec, g, cfg, args):
    box = _apriori_box(spec, g)
    return {"box": {**vars(box)}, "elliptic_constant": elliptic_constant(g)}, box, 0


def _cmd_multiplicity(spec, g, cfg, args):
    barriers = choose_barriers(spec, g)
    reports = _two_solutions(spec, g, cfg, barriers)
    separation = float(np.maximum.reduce(np.abs(reports[0].solution - reports[1].solution)))
    result = {
        "barrier": {"delta": barriers.delta, "beta": barriers.beta, "side": barriers.side},
        "solutions": [r.solution for r in reports],
        "jac_signs": [r.jac_sign for r in reports],
        "residual_norms": [r.residual_norm for r in reports],
        "separation_sup": separation,
    }
    return result, _applicable_box(spec, g), 0


def _cmd_check(spec, g, cfg, args):
    box = _applicable_box(spec, g)
    records = _run_checks(spec, g, cfg, args, box)
    checks = [{"name": name, "passed": bool(passed), "detail": detail} for name, passed, detail in records]
    all_passed = all(c["passed"] for c in checks)
    result = {"checks": checks, "all_passed": all_passed}
    return result, box, 0 if all_passed else 3


_FD_STEP = 1e-6  # tau of the central differences


def _central_difference(fun, u: np.ndarray) -> np.ndarray:
    """Row x is ``(fun(u + tau e_x) - fun(u - tau e_x)) / (2 tau)``, the derivative along e_x."""
    bumps = _FD_STEP * np.eye(u.size)
    return np.array([(fun(u + bump) - fun(u - bump)) / (2 * _FD_STEP) for bump in bumps])


@np.errstate(over="ignore", invalid="ignore")
def _field_audits(spec: ProblemSpec, g: WeightedGraph, rng: np.random.Generator) -> list[tuple]:
    """``(name, passed, detail)`` of the audits on random fields, in report order.

    Each audit draws its fields as one ``(k, n)`` block, the same numbers as k
    draws of one field, and every row keeps the bits of a field evaluated alone.
    The residual, Jacobian and energy kernels are bound once; a field whose
    terms leave the float range gets values that are not finite, and the
    audit that drew it fails on them.
    """
    n, mu = g.n, g.mu
    fun, jac = _kernels(spec, g)

    # each worst value folds with numpy, which keeps a NaN: a field the audit cannot evaluate fails it
    u = rng.normal(0.0, 0.75, (20, n))
    bound = 1e-10 * (1.0 + np.maximum.reduce(np.abs(u), axis=1) * float(g.edge_weight.sum()))
    worst = np.max(np.abs(_integrals(g, _laplacian_rows(g, u))) / bound, initial=0.0)
    checks = [("divergence_identity", worst <= 1.0, f"worst ratio {worst:.3e}")]

    u = rng.normal(0.0, 0.75, (20, n))
    lhs = _integrals(g, _gradient_norm_sq_rows(g, u))
    rhs = -_integrals(g, u * _laplacian_rows(g, u))
    worst = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-30), initial=0.0)
    checks.append(("integration_by_parts", worst <= 1e-10, f"worst relative gap {worst:.3e}"))

    u = rng.normal(0.0, 1.0, (50, n))
    sup = np.maximum.reduce(np.abs(_laplacian_rows(g, u)), axis=1)
    spread = u.max(axis=1) - u.min(axis=1)
    violations = int(np.count_nonzero(~(spread <= elliptic_constant(g) * sup + 1e-12)))
    checks.append(("elliptic_estimate", violations == 0, f"{violations} violations over 50 fields"))

    worst = 0.0
    for u in rng.normal(0.0, 0.4, (2, n)):
        jac_u = jac(u)
        column = np.maximum(np.maximum.reduce(np.abs(jac_u)), 1.0)
        # entry (x, y) has its column's scale, floored by the rounding of F_y(u), which loses
        # about 4 eps |F_y(u)| in a difference over 2 tau
        scale = np.maximum(column[:, None], 4 * np.finfo(float).eps * np.abs(fun(u)) / (2 * _FD_STEP))
        errors = np.abs(_central_difference(fun, u) - jac_u.T) / scale
        worst = np.maximum(worst, np.max(errors))
    checks.append(("jacobian_fd", worst <= 5e-5, f"worst relative error {worst:.3e}"))

    if _obstructed(spec):
        smallest = np.min([np.dot(mu, fun(u)) for u in rng.normal(0.0, 1.0, (100, n))])
        checks.append(("integral_obstruction", smallest > 0.0, f"smallest residual integral {smallest:.3e}"))

    if spec.kind is Kind.GENERALIZED and _hypothesis_holds(spec):
        energy_of, worst = _energy_kernel(spec, g), 0.0
        for u in rng.normal(0.0, 0.4, (20, n)):
            grad = fun(u)  # the energy's gradient in the mu-weighted inner product
            scale = np.maximum(np.max(np.abs(grad)), 1e-8)
            fd = _central_difference(energy_of, u) / mu
            worst = np.maximum(worst, np.max(np.abs(fd - grad)) / scale)
        checks.append(("energy_gradient_fd", worst <= 1e-5, f"worst relative error {worst:.3e}"))
    return checks


def _run_checks(spec, g, cfg, args, box: AprioriBox | None) -> list[tuple]:
    checks = _field_audits(spec, g, np.random.default_rng(args.seed))
    if not _hypothesis_holds(spec):
        return checks
    if spec.kind is Kind.CLASSIC:
        final = continuation(spec, g, default_t_grid(), cfg)[-1]
        direct = newton(spec, g, np.zeros(g.n), cfg)
        gap = float(np.maximum.reduce(np.abs(final.solution - direct.solution)))
        checks.append(("continuation_matches_newton", direct.converged and gap <= 1e-8, f"sup gap {gap:.3e}"))
        t_values, n_starts, proven = (0.0, 0.5, 1.0), min(args.starts, 32), 1
    else:
        # t = 1, the undeformed map that degree_value reports, is enumerated first
        t_values, n_starts, proven = (1.0, 0.5, 0.0), min(args.starts, 48), 0
    if box is None:
        detail = "no ball to count zeros in: the a priori box leaves the float range"
        return checks + [("degree_value", False, detail)]
    degrees = _homotopy_degrees(spec, g, cfg, t_values, n_starts)
    checks.append(("degree_value", degrees[0] == proven, f"estimated degree {degrees[0]}"))
    detail = f'degrees {", ".join(map(str, degrees))} at t = {", ".join(f"{t:g}" for t in t_values)}'
    checks.append(("homotopy_invariance", len(set(degrees)) == 1, detail))
    return checks


# name -> (handler, one-line help); the only list of commands
_COMMANDS = {
    "solve": (_cmd_solve, "find one solution"),
    "degree": (_cmd_degree, "estimate the topological degree"),
    "bounds": (_cmd_bounds, "report a priori bounds and graph constants"),
    "multiplicity": (_cmd_multiplicity, "find two distinct solutions"),
    "check": (_cmd_check, "run the invariant audit"),
}


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):  # after --help, the only other way out
        raise _HelpShown(status)


class _HelpShown(Exception):
    """Raised instead of argparse's SystemExit once --help has printed."""


def build_parser() -> _Parser:
    """One parser for every command: all five take the same graph and flags."""
    parser = _Parser(
        prog="tzgraph",
        description="Solve, bound, and count solutions of Tzitzeica-type equations on weighted graphs.",
        epilog="commands:\n" + "".join(f"  {name:<14}{line}\n" for name, (_, line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to compute (listed below)")
    parser.add_argument("graph", help="path to a graph file")
    parser.add_argument(
        "--equation",
        required=True,
        choices=[k.value for k in Kind],
        help="equation kind",
    )
    parser.add_argument("--A", type=float, required=True, help="exponent A > 0")
    parser.add_argument("--B", type=float, required=True, help="exponent B > 0")
    parser.add_argument("--tol", type=float, default=SolverConfig.tol, help="residual sup-norm target")
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, help="Newton iteration cap")
    parser.add_argument("--starts", type=int, default=N_STARTS, help="multi-start count for degree estimation")
    parser.add_argument("--seed", type=int, default=SolverConfig.seed, help="start-point sampling seed")
    parser.add_argument("--radius", type=float, default=None, help="override the search ball radius")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["json", "text"], default="json", help="report format")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and wall time for reproducible diffs",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except _HelpShown as exc:
        return exc.args[0]

    start_time = time.perf_counter()
    try:
        doc = parse_graph(args.graph)
        g, h1, h2 = doc.to_graph()
        spec = ProblemSpec(Kind(args.equation), h1, h2, args.A, args.B)
        cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
        result, box, exit_code = _COMMANDS[args.command][0](spec, g, cfg, args)
    except InputError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "argv": argv,
        "config": {
            k: v for k, v in vars(args).items() if k not in ("command", "graph", "output", "no_timestamp")
        },
        "graph": _graph_payload(args.graph, g),
        "box": None if box is None else {**vars(box)},
        "result": result,
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
        report["wall_time_s"] = time.perf_counter() - start_time

    rendered = canonical_json(report) if args.format == "json" else canonical_text(report)
    try:
        if args.output:
            Path(args.output).write_text(rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
    except OSError as exc:
        print(f"error: usage: cannot write output: {exc}", file=sys.stderr)
        return 1

    if exit_code:
        failed = [c["name"] for c in result.get("checks", []) if not c["passed"]]
        print(f"error: numerical: invariant checks failed: {','.join(failed)}", file=sys.stderr)
    return exit_code


def entrypoint() -> None:
    raise SystemExit(main())

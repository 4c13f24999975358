"""File format, argument parsing, report rendering, exit codes, and robustness."""

import argparse
import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import helpers
import tzgraph
from tzgraph import SolverConfig, cli, degree, estimate_degree, solvers
from tzgraph.cli import (
    UsageError,
    build_parser,
    canonical_json,
    canonical_text,
    entrypoint,
    main,
    parse_graph,
)
from tzgraph.errors import ParseError

K2_LINES = "vertex a 1 1 -1\nvertex b 1 1 -1\nedge a b 1\n"
K2_GENERALIZED_LINES = "vertex a 1 1 1\nvertex b 2 0.5 1\nedge a b 1\n"
COMMANDS = ("solve", "degree", "bounds", "multiplicity", "check")


def write(tmp_path, text, name="g.graph"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_k2(tmp_path):
    doc = parse_graph(write(tmp_path, K2_LINES))
    vertices, edges = helpers.document_rows(doc)
    assert len(vertices) == 2
    assert len(edges) == 1
    assert vertices[0] == ("a", 1.0, 1.0, -1.0)
    assert edges[0] == ("a", "b", 1.0)
    assert doc.tails.tolist() == [0] and doc.heads.tolist() == [1]


def test_parse_comments_and_blanks(tmp_path):
    text = "# heading\n\nvertex a 1 1 -1  # inline\nvertex b 2 1 -1\n\nedge a b 0.5\n"
    doc = parse_graph(write(tmp_path, text))
    assert len(doc.labels) == 2 and doc.mu[1] == 2.0


def test_parse_unknown_endpoint_cites_line(tmp_path):
    path = write(tmp_path, "vertex a 1 1 -1\nvertex b 1 1 -1\nedge a c 1\n")
    with pytest.raises(ParseError) as info:
        parse_graph(path)
    assert "line 3" in str(info.value)
    assert "'c'" in str(info.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("vertex a 1 1 -1\nvertex a 1 1 -1\n", "duplicate vertex"),
        ("vertex a 0 1 -1\n", "positive"),
        ("vertex a 1 1\n", "vertex record"),
        ("vertex a 1 one -1\n", "bad h1"),
        ("vertex a nan 1 -1\n", "finite"),
        ("vortex a 1 1 -1\n", "unknown record"),
        ("vertex a 1 1 -1\nvertex b 1 1 -1\nedge a b 0\n", "weight"),
        ("vertex a 1 1 -1\nvertex b 1 1 -1\nedge a b 1\nedge b a 2\n", "duplicate edge"),
        ("vertex a 1 1 -1\nedge a a 1\n", "self-loop"),
        ("", "no vertices"),
    ],
)
def test_parse_rejections(tmp_path, text, needle):
    with pytest.raises(ParseError) as info:
        parse_graph(write(tmp_path, text))
    assert needle in str(info.value)


@pytest.mark.parametrize(
    "text",
    [K2_LINES, "vertex a 1 1 -1\nvertex b 1 1 -1\nedge a ghost 1\n", "vortex a 1 1 -1\n", "# note\n"],
)
def test_a_byte_order_mark_reads_as_the_file_without_it(tmp_path, capsys, text):
    plain, marked = tmp_path / "plain.graph", tmp_path / "marked.graph"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    for command in ("bounds", "solve"):
        argv = [command, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"]
        code, out, err = run(capsys, [*argv, str(plain)])
        assert (code == 0) == (text == K2_LINES)
        assert run(capsys, [*argv, str(marked)]) == (code, out.replace(str(plain), str(marked)), err)


def test_round_trip_random_documents(tmp_path):
    rng = np.random.default_rng(401)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        data = helpers.random_graph_data(rng, n)
        vertices = [
            (label, data["mu"][i], float(rng.uniform(0.2, 3)), float(rng.uniform(-3, 3)))
            for i, label in enumerate(data["ids"])
        ]
        reparsed = parse_graph(write(tmp_path, helpers.graph_text(vertices, data["edges"]), f"t{trial}.graph"))
        assert helpers.document_rows(reparsed) == (vertices, data["edges"])


def test_a_parsed_graph_checks_its_edges_once(tmp_path, monkeypatch):
    calls = []
    original = tzgraph.graphs._index_edges

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tzgraph.graphs, "_index_edges", counted)
    monkeypatch.setattr(tzgraph.cli, "_index_edges", counted)
    rng = np.random.default_rng(409)
    data = helpers.random_graph_data(rng, 7)
    vertices = [(label, m, 1.0, -1.0) for label, m in zip(data["ids"], data["mu"])]
    parsed = parse_graph(write(tmp_path, helpers.graph_text(vertices, data["edges"])))
    g = parsed.to_graph()[0]
    assert len(calls) == 1
    # edges passed in from code are checked when they become a graph
    checked = tzgraph.WeightedGraph(data["ids"], data["mu"], data["edges"])
    assert len(calls) == 2
    for name in ("edge_tail", "edge_head", "edge_weight"):
        assert getattr(g, name).tobytes() == getattr(checked, name).tobytes()
    assert [g.neighbors(i) for i in range(g.n)] == [checked.neighbors(i) for i in range(g.n)]
    with pytest.raises(tzgraph.GraphConstructionError):
        tzgraph.WeightedGraph(data["ids"], data["mu"], data["edges"] + [(data["ids"][0], "ghost", 1.0)])


PATH3_LINES = "vertex a 1 1 -1\nvertex b 2 1 -1\nvertex c 1 1 -1\nedge a b 1\nedge b c 3\n"


@pytest.mark.parametrize("column,attribute", [("tails", "edge_tail"), ("heads", "edge_head"), ("weight", "edge_weight")])
def test_a_parsed_document_keeps_its_checked_columns_read_only(tmp_path, column, attribute):
    doc = parse_graph(write(tmp_path, PATH3_LINES))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(doc, column, getattr(doc, column)[::-1])
    with pytest.raises(ValueError):
        getattr(doc, column)[0] = 0
    # the graph takes the checked arrays as they are
    assert getattr(doc.to_graph()[0], attribute) is getattr(doc, column)


def test_a_document_builds_the_graph_its_rows_build(tmp_path):
    g = parse_graph(write(tmp_path, PATH3_LINES)).to_graph()[0]
    direct = tzgraph.WeightedGraph(["a", "b", "c"], [1.0, 2.0, 1.0], [("a", "b", 1.0), ("b", "c", 3.0)])
    for name in ("edge_tail", "edge_head", "edge_weight"):
        assert getattr(g, name).tobytes() == getattr(direct, name).tobytes()
    assert [g.neighbors(i) for i in range(-3, 3)] == [(1,), (0, 2), (1,)] * 2
    with pytest.raises(IndexError):
        g.neighbors(3)
    # the vertex order of the file fixes the indices
    reordered = "vertex c 1 1 -1\nvertex b 2 1 -1\nvertex a 1 1 -1\nedge a b 1\nedge b c 3\n"
    g = parse_graph(write(tmp_path, reordered, "r.graph")).to_graph()[0]
    assert g.vertex_ids == ("c", "b", "a") and g.neighbors(1) == (0, 2) and g.neighbors(0) == (1,)
    assert g.edge_tail.tolist() == [2, 1] and g.edge_head.tolist() == [1, 0]
    assert g.edge_weight.tolist() == [1.0, 3.0]


# ---------------------------------------------------------------------------
# rendering


def test_canonical_json_floats_roundtrip():
    doc = {"a": 1.0 / 3.0, "b": [1.0, 2.5e-17, -0.0], "c": {"nested": True, "x": None}}
    text = canonical_json(doc)
    parsed = json.loads(text)
    assert parsed["a"] == 1.0 / 3.0
    assert parsed["b"] == [1.0, 2.5e-17, -0.0]
    # keys are sorted for stable diffs
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_canonical_text_matches_json_values():
    doc = {"x": {"y": 0.1, "z": [1, 2]}, "w": "s"}
    lines = dict(
        line.split(" = ", 1) for line in canonical_text(doc).strip().splitlines()
    )
    assert json.loads(lines["x.y"]) == 0.1
    assert json.loads(lines["x.z"]) == [1, 2]
    assert json.loads(lines["w"]) == "s"


# ---------------------------------------------------------------------------
# commands and exit codes


def test_solve_classic_report(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    code, out, err = run(
        capsys, ["solve", path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"]
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["result"]["converged"] is True
    assert max(abs(v) for v in report["result"]["solution"]) < 1e-10
    assert report["graph"]["constants"]["lambda1"] == 2.0


def test_solve_obstruction_exit_code(tmp_path, capsys):
    path = write(tmp_path, "vertex a 1 1 1\nvertex b 1 1 1\nedge a b 1\n")
    code, out, err = run(
        capsys, ["solve", path, "--equation", "classic", "--A", "1", "--B", "1"]
    )
    assert code == 3
    assert out == ""
    assert err.strip() == "error: numerical: integral obstruction: no solution exists"


def test_solve_generalized_by_plain_newton(tmp_path, capsys):
    path = write(tmp_path, K2_GENERALIZED_LINES)
    code, out, err = run(
        capsys, ["solve", path, "--equation", "generalized", "--A", "1", "--B", "1", "--no-timestamp"]
    )
    result = json.loads(out)["result"]
    assert (code, err) == (0, "")
    assert (result["method"], result["stages"], result["converged"]) == ("newton", 1, True)


def test_solve_that_does_not_converge_exits_3(tmp_path, capsys):
    # A h1 = B h2 on one vertex: 0 solves it with a singular Jacobian
    path = write(tmp_path, "vertex o 1 1 1\n")
    code, out, err = run(
        capsys, ["solve", path, "--equation", "generalized", "--A", "1", "--B", "1", "--no-timestamp"]
    )
    assert (code, out) == (3, "")
    assert err == "error: numerical: solver did not converge (residual 0.000e+00 after 0 iterations)\n"


def test_usage_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    code, _, err = run(capsys, ["solve", path, "--equation", "classic", "--B", "1"])
    assert code == 1
    assert err.startswith("error: usage:")
    code, _, _ = run(capsys, [])
    assert code == 1


# ---------------------------------------------------------------------------
# argument parsing


def _parse(parser, argv):
    """The parsed namespace as a dict, or the usage error text."""
    try:
        return vars(parser.parse_args(argv))
    except UsageError as exc:
        return str(exc)


# the argv shapes the benchmark sends, with every flag spelled out once
_FLAGS = ["--equation", "generalized", "--A", "0.75", "--B", "1.25", "--no-timestamp"]
VALID_ARGVS = [
    *([kind, "g.graph", *_FLAGS] for kind in ("solve", "bounds", "multiplicity")),
    *([kind, "g.graph", *_FLAGS, "--starts", "48"] for kind in ("degree", "check")),
    ["degree", "--equation", "classic", "g.graph", "--A", "1", "--B", "1"],
    ["solve", "g.graph", "--equation", "classic", "--A", "1", "--B", "-2", "--tol", "1e-8",
     "--max-iter", "50", "--seed", "3", "--radius", "2.5", "--output", "r.json", "--format", "text"],
]
INVALID_ARGVS = [
    ["bogus", "g.graph", *_FLAGS],
    ["degree", "g.graph", "--equation", "bogus", "--A", "1", "--B", "1"],
    ["degree", "g.graph", "--equation", "classic", "--A", "1", "--B", "1", "--starts", "1.5"],
    ["degree", "g.graph", "--equation", "classic", "--B", "1"],
    ["degree", "--equation", "classic", "--A", "1", "--B", "1"],
    ["degree", "g.graph", "extra", *_FLAGS],
]


@pytest.mark.parametrize("argv", VALID_ARGVS)
def test_parser_gives_the_subparser_tree_namespace(argv):
    namespace = _parse(build_parser(), argv)
    assert isinstance(namespace, dict)
    assert namespace == _parse(helpers.build_parser_oracle(), argv)


@pytest.mark.parametrize("argv", INVALID_ARGVS)
def test_parser_gives_the_subparser_tree_error(argv):
    message = _parse(build_parser(), argv)
    assert isinstance(message, str)
    assert message == _parse(helpers.build_parser_oracle(), argv)


def test_parser_differs_from_the_subparser_tree_only_where_intended():
    oracle = helpers.build_parser_oracle()
    # an empty argv lists every missing required argument, not just the command
    assert _parse(oracle, []) == "the following arguments are required: command"
    assert _parse(build_parser(), []) == (
        "the following arguments are required: command, graph, --equation, --A, --B"
    )
    # flags may come before the command
    early = [*_FLAGS, "degree", "g.graph"]
    assert _parse(build_parser(), early) == _parse(oracle, ["degree", "g.graph", *_FLAGS])
    assert isinstance(_parse(oracle, early), str)


def test_parser_is_flat():
    parser = build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    command = next(a for a in parser._actions if a.dest == "command")
    assert tuple(command.choices) == COMMANDS


def test_help_lists_every_command():
    src = str(Path(tzgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "tzgraph", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")
    listed = result.stdout.split("\ncommands:\n")[1].splitlines()
    assert [line.split()[0] for line in listed] == list(COMMANDS)


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_returns_zero_in_process(capsys, flag):
    code, out, err = run(capsys, [flag])
    assert (code, err) == (0, "")
    listed = out.split("\ncommands:\n")[1].splitlines()
    assert [line.split()[0] for line in listed] == list(COMMANDS)


def test_validation_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "vertex a 1 1 -1\nvertex b 1 1 -1\n")  # disconnected
    code, _, err = run(
        capsys, ["bounds", path, "--equation", "classic", "--A", "1", "--B", "1"]
    )
    assert code == 2
    assert err.startswith("error: validation:")
    # bounds hypothesis violation is also a validation error
    path2 = write(tmp_path, "vertex a 1 1 1\n", "pos.graph")
    code, _, err = run(
        capsys, ["bounds", path2, "--equation", "classic", "--A", "1", "--B", "1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "lines,argv",
    [
        (K2_LINES, ["degree", "--A", "inf", "--B", "1"]),
        (K2_LINES, ["solve", "--A", "1", "--B", "inf"]),
        (K2_LINES, ["degree", "--A", "1", "--B", "1", "--radius", "-1"]),
        (K2_LINES, ["degree", "--A", "1", "--B", "1", "--radius", "nan"]),
        (K2_LINES, ["degree", "--A", "1", "--B", "1", "--radius", "inf"]),
        ("vertex a 1 1 1\nvertex b 1 1 1\nedge a b 1\n", ["degree", "--A", "1", "--B", "1", "--radius", "nan"]),
        (K2_LINES, ["degree", "--A", "1", "--B", "1", "--starts", "0"]),
        (K2_LINES, ["degree", "--A", "1", "--B", "1", "--starts", "-5"]),
        (K2_LINES, ["check", "--A", "1", "--B", "1", "--starts", "0"]),
        (K2_LINES, ["degree", "--A", "1", "--B", "1", "--seed", "-1"]),
        (K2_LINES, ["check", "--A", "1", "--B", "1", "--seed", "-1"]),
        (K2_LINES, ["solve", "--A", "1", "--B", "1", "--tol", "inf"]),
    ],
)
def test_bad_numbers_are_validation_errors(tmp_path, capsys, lines, argv):
    path = write(tmp_path, lines)
    code, out, err = run(capsys, [argv[0], path, "--equation", "classic", *argv[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1


def test_degenerate_root_exit_code(tmp_path, capsys):
    # unit K2 with A*h1 - B*h2 = -lambda1 makes the zero root degenerate
    path = write(tmp_path, "vertex a 1 1 3\nvertex b 1 1 3\nedge a b 1\n")
    code, _, err = run(
        capsys, ["degree", path, "--equation", "generalized", "--A", "1", "--B", "1"]
    )
    assert code == 3
    assert err.startswith("error: numerical:")


def test_byte_identical_reports(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    argv = [
        "degree", path, "--equation", "classic", "--A", "1.5", "--B", "0.75",
        "--seed", "7", "--no-timestamp",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    text_argv = argv + ["--format", "text"]
    _, t1, _ = run(capsys, text_argv)
    _, t2, _ = run(capsys, text_argv)
    assert t1 == t2 and t1 != out1


def test_text_format_carries_identical_values(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    base = ["bounds", path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"]
    _, out_json, _ = run(capsys, base)
    _, out_text, _ = run(capsys, base + ["--format", "text"])
    report = json.loads(out_json)
    lines = dict(line.split(" = ", 1) for line in out_text.strip().splitlines())
    assert json.loads(lines["box.lower"]) == report["box"]["lower"]
    assert json.loads(lines["graph.constants.elliptic_constant"]) == (
        report["graph"]["constants"]["elliptic_constant"]
    )


def test_output_file(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["bounds", path, "--equation", "classic", "--A", "1", "--B", "1",
         "--no-timestamp", "--output", str(out_path)],
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["command"] == "bounds"


def test_output_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    out_path = tmp_path / "missing" / "report.json"
    argv = ["bounds", path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"]
    code, out, err = run(capsys, [*argv, "--output", str(out_path)])
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: usage: cannot write output: ") and str(out_path) in err
    assert not out_path.parent.exists()


def test_a_file_that_is_not_utf8_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes("vertex \xe9 1 1 -1\n".encode("latin-1"))
    for command in COMMANDS:
        argv = [command, str(path), "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"]
        assert run(capsys, argv) == (2, "", "error: validation: file is not valid UTF-8\n")


def test_multiplicity_command(tmp_path, capsys):
    path = write(tmp_path, "vertex a 1 1 3\nvertex b 1 1 3\nedge a b 1.5\n")
    code, out, _ = run(
        capsys,
        ["multiplicity", path, "--equation", "generalized", "--A", "1", "--B", "1",
         "--no-timestamp"],
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["solutions"]) == 2
    assert max(abs(v) for v in result["solutions"][0]) < 1e-10
    assert result["separation_sup"] > 1e-3


@pytest.mark.parametrize("make_spec,crossings", [(helpers.branch1_spec, 0), (helpers.mirror_spec, 1)])
def test_multiplicity_searches_barriers_once(tmp_path, capsys, monkeypatch, make_spec, crossings):
    rng = np.random.default_rng(7)
    data = helpers.random_graph_data(rng, 4)
    spec = make_spec(rng, 4)
    vertices = list(zip(data["ids"], data["mu"], spec.h1.tolist(), spec.h2.tolist()))
    path = write(tmp_path, helpers.graph_text(vertices, data["edges"]))
    calls = {"_barrier_powers": 0, "_negative_crossings": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tzgraph.solvers, name, counted(name, getattr(tzgraph.solvers, name)))
    code, out, _ = run(
        capsys,
        ["multiplicity", path, "--equation", "generalized", "--A", repr(spec.A),
         "--B", repr(spec.B), "--no-timestamp"],
    )
    assert code == 0 and json.loads(out)["result"]["barrier"]["side"] == 1 - 2 * crossings
    assert calls == {"_barrier_powers": 1, "_negative_crossings": crossings}


def test_check_command_passes(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    code, out, _ = run(
        capsys,
        ["check", path, "--equation", "classic", "--A", "1", "--B", "1",
         "--no-timestamp", "--starts", "16"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["all_passed"] is True
    assert {c["name"] for c in report["result"]["checks"]} >= {
        "divergence_identity",
        "integration_by_parts",
        "elliptic_estimate",
        "jacobian_fd",
        "homotopy_invariance",
    }


def test_check_on_classic_with_positive_h2_records_the_integral_obstruction(tmp_path, capsys):
    path = write(tmp_path, "vertex a 1 1 1\nvertex b 1 1 0.5\nedge a b 1\n")
    code, out, err = run(
        capsys, ["check", path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"]
    )
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    assert (code, err) == (0, "")
    assert checks["integral_obstruction"]["passed"] is True
    assert checks["integral_obstruction"]["detail"].startswith("smallest residual integral ")
    assert "homotopy_invariance" not in checks


def test_check_with_a_failed_invariant_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_homotopy_degrees", lambda *args: [1, 0, 1])
    path = write(tmp_path, K2_LINES)
    code, out, err = run(
        capsys, ["check", path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp", "--starts", "8"]
    )
    result = json.loads(out)["result"]
    assert code == 3 and result["all_passed"] is False
    assert [c["name"] for c in result["checks"] if not c["passed"]] == ["homotopy_invariance"]
    assert result["checks"][-1]["detail"] == "degrees 1, 0, 1 at t = 0, 0.5, 1"
    assert err == "error: numerical: invariant checks failed: homotopy_invariance\n"


# row 0 of the residual holds about 2e216 at the second jacobian_fd field with A = 2000
LARGE_ROW_LINES = "vertex a 1 1 -1\nvertex b 2 0.5 -2\nedge a b 1\n"


def test_jacobian_fd_floors_each_entry_at_the_rounding_of_its_row(tmp_path, capsys):
    # the difference quotient cannot see row 0's -1 entry under the rounding of F_0; the worst
    # error left is the central difference's truncation, (A tau)^2 / 6
    path = write(tmp_path, LARGE_ROW_LINES)
    argv = ["check", path, "--equation", "classic", "--A", "2000", "--B", "1", "--no-timestamp"]
    code, out, err = run(capsys, argv)
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    assert (code, err) == (0, "")
    assert checks["jacobian_fd"] == {"name": "jacobian_fd", "passed": True, "detail": "worst relative error 6.667e-07"}


@pytest.mark.parametrize(
    "equation,lines,A",
    [
        pytest.param("classic", K2_LINES, "1", id="classic"),
        pytest.param("generalized", K2_GENERALIZED_LINES, "1", id="generalized"),
        pytest.param("classic", LARGE_ROW_LINES, "2000", id="classic-large-row"),
    ],
)
@pytest.mark.parametrize("entry", [(0, 0), (1, 1)], ids=["entry00", "entry11"])
def test_jacobian_fd_fails_a_jacobian_with_one_entry_off(tmp_path, capsys, monkeypatch, equation, lines, A, entry):
    kernels = cli._kernels

    def kernels_one_entry_off(spec, g):
        fun, jac = kernels(spec, g)

        def off(u):
            mat = jac(u)
            mat[entry] *= 1.0 + 1e-3
            return mat

        return fun, off

    monkeypatch.setattr(cli, "_kernels", kernels_one_entry_off)
    path = write(tmp_path, lines)
    argv = ["check", path, "--equation", equation, "--A", A, "--B", "1", "--no-timestamp", "--starts", "8"]
    code, out, _ = run(capsys, argv)
    failed = [c["name"] for c in json.loads(out)["result"]["checks"] if not c["passed"]]
    assert code == 3 and "jacobian_fd" in failed


@pytest.mark.parametrize(
    "equation,lines,last",
    [
        ("classic", "vertex a 1 1 1\nvertex b 2 0.5 2\nedge a b 1\n", "integral_obstruction"),
        ("generalized", K2_GENERALIZED_LINES, "energy_gradient_fd"),
    ],
)
def test_an_audit_fails_on_a_residual_it_cannot_evaluate(tmp_path, monkeypatch, equation, lines, last):
    # a NaN residual on one field fails the audit that drew it, and only that one: the first
    # residual call is jacobian_fd's, the last one the obstruction's or the energy gradient's
    g, h1, h2 = parse_graph(write(tmp_path, lines)).to_graph()
    spec = tzgraph.ProblemSpec(equation, h1, h2, 1.0, 1.0)
    kernels, calls = cli._kernels, []

    def failed_with_nan_at(call):
        def kernels_nan_at_one_call(spec, g):
            fun, jac = kernels(spec, g)

            def fun_nan_once(u):
                calls.append(u)
                return fun(u) * (math.nan if len(calls) == call else 1.0)

            return fun_nan_once, jac

        calls.clear()
        monkeypatch.setattr(cli, "_kernels", kernels_nan_at_one_call)
        records = cli._field_audits(spec, g, np.random.default_rng(0))
        assert last in [name for name, _, _ in records]
        return [(name, detail) for name, passed, detail in records if not passed]

    assert failed_with_nan_at(0) == []  # no call is call 0
    total = len(calls)
    assert failed_with_nan_at(1) == [("jacobian_fd", "worst relative error nan")]
    assert [name for name, _ in failed_with_nan_at(total)] == [last]


def test_the_graph_audits_fail_where_the_graph_terms_overflow(tmp_path, capsys, monkeypatch):
    # w / mu = 1e600 overflows, so the file is a validation error under every command
    path = write(tmp_path, "vertex a 1e-300 1 -1\nvertex b 1e-300 0.5 -2\nedge a b 1e300\n")
    for equation in ("classic", "generalized"):
        for command in COMMANDS:
            argv = [command, path, "--equation", equation, "--A", "1", "--B", "1", "--no-timestamp"]
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err == "error: validation: the edge weights over the measure of vertex 'a' leave the float range\n"
    # a graph audit whose Laplacian reads NaN fails
    monkeypatch.setattr(cli, "_laplacian_rows", lambda g, u: np.full(u.shape, math.nan))
    path = write(tmp_path, K2_GENERALIZED_LINES)
    code, out, _ = run(capsys, ["check", path, "--equation", "generalized", "--A", "1", "--B", "1", "--no-timestamp"])
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    assert code == 3
    assert checks["divergence_identity"]["detail"] == "worst ratio nan"
    assert checks["integration_by_parts"]["detail"] == "worst relative gap nan"
    assert checks["elliptic_estimate"]["detail"] == "50 violations over 50 fields"
    assert not any(checks[name]["passed"] for name in ("divergence_identity", "integration_by_parts", "elliptic_estimate"))


def test_the_parser_reads_its_defaults_from_the_library():
    args = build_parser().parse_args(["check", "g.graph", "--equation", "classic", "--A", "1", "--B", "1"])
    assert (args.tol, args.max_iter, args.seed) == (SolverConfig.tol, SolverConfig.max_iter, SolverConfig.seed)
    assert SolverConfig(tol=args.tol, max_iter=args.max_iter, seed=args.seed) == SolverConfig()
    assert args.starts == degree.N_STARTS
    for search in (estimate_degree, degree.verify_homotopy_invariance):
        assert inspect.signature(search).parameters["n_starts"].default == degree.N_STARTS


@pytest.mark.parametrize(
    "A,code,name,detail",
    [
        (3000.0, 3, "jacobian_fd", "worst relative error nan"),
        (1000.0, 0, "integral_obstruction", "smallest residual integral 5.291e+00"),
    ],
    ids=["jacobian_fd", "integral_obstruction"],
)
def test_a_field_the_exponent_guard_rejects_raises_as_in_the_per_field_loops(tmp_path, capsys, A, code, name, detail):
    # the per-field loops raise through the public functions; check's audits read a field past the
    # float range as values that are not finite: NaN fails jacobian_fd, and +inf in a residual
    # integral has the sign the obstruction needs
    path = write(tmp_path, "vertex a 1 1 1\nvertex b 2 0.5 2\nedge a b 1\n")
    g, h1, h2 = parse_graph(path).to_graph()
    with pytest.raises(tzgraph.ExponentOverflowError):
        helpers.field_audits_oracle(tzgraph.ProblemSpec("classic", h1, h2, A, 1.0), g, 0)
    argv = ["check", path, "--equation", "classic", "--A", repr(A), "--B", "1", "--no-timestamp"]
    got, out, err = run(capsys, argv)
    check = {c["name"]: c for c in json.loads(out)["result"]["checks"]}[name]
    assert (got, err) == (code, "error: numerical: invariant checks failed: jacobian_fd\n" if code else "")
    assert (check["passed"], check["detail"]) == (code == 0, detail)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_field_audits_match_the_per_field_loops(tmp_path, monkeypatch, seed):
    # every record of the block audits equals the one-field-at-a-time loops', field for field
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    names = set()
    for family in gen.FAMILIES:
        for n in (1, 2, 3, 8):
            inst = gen.make_instance(family, n, seed=7)
            g, h1, h2 = parse_graph(gen.write_instance(inst, tmp_path)).to_graph()
            spec = tzgraph.ProblemSpec(inst.equation, h1, h2, inst.A, inst.B)
            records = cli._field_audits(spec, g, np.random.default_rng(seed))
            expected = helpers.field_audits_oracle(spec, g, seed)
            assert [(name, bool(passed), detail) for name, passed, detail in records] == expected
            names.update(name for name, _, _ in records)
    assert len(names) == 6  # the four audits of every kind, the obstruction and the energy gradient


def test_report_carries_timestamp_and_wall_time_unless_told_not_to(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    argv = ["bounds", path, "--equation", "classic", "--A", "1", "--B", "1"]
    code, out, _ = run(capsys, argv)
    report = json.loads(out)
    assert code == 0
    stamp = datetime.fromisoformat(report["timestamp"])
    assert stamp.tzinfo is not None and abs(datetime.now(timezone.utc) - stamp).total_seconds() < 600
    assert 0.0 <= report["wall_time_s"] < 600.0
    _, out, _ = run(capsys, argv + ["--no-timestamp"])
    assert json.loads(out).keys() == report.keys() - {"timestamp", "wall_time_s"}


@pytest.mark.parametrize(
    "equation,lines,enumerations,listed",
    [
        ("classic", K2_LINES, 3, "degrees 1, 1, 1 at t = 0, 0.5, 1"),
        ("generalized", K2_GENERALIZED_LINES, 2, "degrees 0, 0, 0 at t = 1, 0.5, 0"),
    ],
)
def test_check_enumerates_each_deformation_member_once(
    tmp_path, capsys, monkeypatch, equation, lines, enumerations, listed
):
    # classic: t = 0, 0.5, 1, where t = 0 gives degree_value; generalized:
    # t = 1 (which gives degree_value) and 0.5, with t = 0 known to be 0; the
    # homotopy_invariance detail lists the degrees in that order
    enumerate_roots, calls = degree._enumerate_signed_roots, []

    def counted(*args):
        calls.append(args)
        return enumerate_roots(*args)

    monkeypatch.setattr(degree, "_enumerate_signed_roots", counted)
    path = write(tmp_path, lines)
    code, out, _ = run(
        capsys,
        ["check", path, "--equation", equation, "--A", "1", "--B", "1", "--no-timestamp", "--starts", "16"],
    )
    result = json.loads(out)["result"]
    assert code == 0 and result["all_passed"] is True
    assert len(calls) == enumerations
    assert result["checks"][-1] == {"name": "homotopy_invariance", "passed": True, "detail": listed}


def test_report_values_rederive_via_api(tmp_path, capsys):
    path = write(tmp_path, K2_LINES)
    code, out, _ = run(
        capsys,
        ["degree", path, "--equation", "classic", "--A", "1", "--B", "1",
         "--seed", "3", "--starts", "24", "--no-timestamp"],
    )
    assert code == 0
    report = json.loads(out)
    doc = parse_graph(path)
    g, h1, h2 = doc.to_graph()
    from tzgraph import Kind, ProblemSpec

    spec = ProblemSpec(Kind.CLASSIC, h1, h2, report["config"]["A"], report["config"]["B"])
    cfg = SolverConfig(
        tol=report["config"]["tol"],
        max_iter=report["config"]["max_iter"],
        seed=report["config"]["seed"],
    )
    again = estimate_degree(spec, g, cfg, n_starts=report["config"]["starts"])
    assert again.degree == report["result"]["degree"]
    assert again.radius == report["result"]["radius"]


@pytest.mark.parametrize(
    "lines,equation,expected",
    [
        (K2_LINES, "classic", (1, 1, 1, "proven")),
        ("vertex o 1.5 1 2\n", "generalized", (0, 0, 0, "proven")),
        (K2_GENERALIZED_LINES, "generalized", (0, None, None, "heuristic")),
    ],
)
def test_degree_reports_the_proven_degree_and_the_enumerated_count(tmp_path, capsys, lines, equation, expected):
    path = write(tmp_path, lines)
    code, out, _ = run(
        capsys, ["degree", path, "--equation", equation, "--A", "1", "--B", "1", "--no-timestamp", "--starts", "16"]
    )
    result = json.loads(out)["result"]
    assert code == 0 and result["enumerated_degree"] == sum(result["signs"])
    got = (result["degree"], result["enumerated_degree"], result["starts_used"], result["exhaustive_confidence"])
    assert all(want in (None, value) for want, value in zip(expected, got))


@pytest.mark.parametrize("h1,h2,side", [("1e-300", "-1e300", 1.0), ("1e300", "-1e-300", -1.0)])
def test_extreme_coefficient_ratios_get_an_answer(tmp_path, capsys, h1, h2, side):
    # -h2/h1 overflows to inf or underflows to 0; the box is log(1e600)/2 from 0
    path = write(tmp_path, f"vertex o 1 {h1} {h2}\n")
    argv = [path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"]
    code, out, _ = run(capsys, ["bounds", *argv])
    box = json.loads(out)["box"]
    assert code == 0 and box["lower"] == box["upper"] == pytest.approx(side * 300.0 * math.log(10.0), rel=1e-15)
    for command in ("solve", "degree"):
        code, _, err = run(capsys, [command, *argv])
        assert code in (0, 2, 3) and len(err.splitlines()) <= 1


@pytest.mark.parametrize(
    "h1,h2,lower,upper",
    [("1e-300", "1e300", -0.5450791389023874, 690.0823807176538), ("1e300", "1e-300", -690.7755278982137, 0.0)],
)
def test_extreme_generalized_ratios_get_the_box_in_logs(tmp_path, capsys, h1, h2, lower, upper):
    path = write(tmp_path, f"vertex o 1 {h1} {h2}\n")
    argv = [path, "--equation", "generalized", "--A", "1", "--B", "1", "--no-timestamp"]
    code, out, _ = run(capsys, ["bounds", *argv])
    box = json.loads(out)["box"]
    assert code == 0
    assert box["lower"] == pytest.approx(lower, rel=1e-12) and box["upper"] == pytest.approx(upper, rel=1e-12)
    for command in ("solve", "degree", "check", "multiplicity"):
        code, _, err = run(capsys, [command, *argv])
        assert code in (0, 2, 3) and err.count("\n") == (code != 0)
        assert code == 0 or err.startswith("error: ")


@pytest.mark.parametrize("h1,h2", [("1e-300", "1e300"), ("1e300", "1e-300")])
def test_check_on_one_vertex_audits_the_extreme_ratios_with_the_scan(tmp_path, capsys, h1, h2):
    # the zeros at 0 and 460.517 (-460.517 on the mirror) are the scan's; the multi-start enumerator
    # finds only 0
    path = write(tmp_path, f"vertex o 1 {h1} {h2}\n")
    code, out, err = run(
        capsys, ["check", path, "--equation", "generalized", "--A", "1", "--B", "1", "--no-timestamp"]
    )
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    assert (code, err) == (0, "")
    assert checks["degree_value"]["passed"] and checks["homotopy_invariance"]["passed"]


# each file, its flags, and the exit codes of solve, multiplicity and check: the classic root
# lies past the largest float, so solve and the audit's continuation fail; multiplicity takes
# only the generalized kind, and on the last file its barrier search does not end; the audit has
# no ball to count zeros in
BOX_PAST_THE_FLOAT_RANGE = [
    ("vertex o 1 1 1\n", ["--equation", "generalized", "--A", "1e-310", "--B", "1"], (0, 0, 3)),
    ("vertex o 1 1 -2\n", ["--equation", "classic", "--A", "1e-310", "--B", "1e-310"], (3, 2, 3)),
    ("vertex o 1 1e-300 1e300\n", ["--equation", "generalized", "--A", "1e-307", "--B", "1"], (0, 2, 3)),
]


@pytest.mark.parametrize("lines,flags,codes", BOX_PAST_THE_FLOAT_RANGE)
def test_a_box_past_the_float_range_is_a_validation_error(tmp_path, capsys, lines, flags, codes):
    path = write(tmp_path, lines)
    code, _, err = run(capsys, ["bounds", path, *flags, "--no-timestamp"])
    assert code == 2 and err.startswith("error: validation: the a priori box ") and err.count("\n") == 1
    assert "leaves the float range" in err
    code, _, err = run(capsys, ["degree", path, *flags, "--no-timestamp"])
    assert code == 2 and err.count("\n") == 1 and err.endswith("supply a radius explicitly\n")
    # the others run without a box; the audit runs the checks of its kind and fails the degree's
    for command, want in zip(("solve", "multiplicity", "check"), codes):
        code, out, err = run(capsys, [command, path, *flags, "--no-timestamp"])
        assert code == want and err.count("\n") == (code != 0)
        assert err.startswith("error: ") if code else json.loads(out)["box"] is None
        if command == "check" and out:
            report = json.loads(out)
            checks = {c["name"]: c for c in report["result"]["checks"]}
            assert report["box"] is None and "energy_gradient_fd" in checks
            assert not checks["degree_value"]["passed"] and "float range" in checks["degree_value"]["detail"]


# A * max h1 overflows on both files, and so do A + B and B * max |h2| on the first
HUGE_EXPONENTS = [
    ("vertex a 1 1 -1\nvertex b 2 0.5 -2\nedge a b 1\n", ["--equation", "classic", "--A", "1e308", "--B", "1e308"]),
    ("vertex a 1 2 1\nvertex b 1 1 1\nedge a b 1\n", ["--equation", "generalized", "--A", "1e308", "--B", "1"]),
]


@pytest.mark.parametrize("lines,flags", HUGE_EXPONENTS)
def test_exponents_too_large_for_the_coefficients_are_a_validation_error(tmp_path, capsys, lines, flags):
    # in-process, so that an overflow warning fails the test under pytest's error::RuntimeWarning
    path = write(tmp_path, lines)
    for command in COMMANDS:
        code, out, err = run(capsys, [command, path, *flags, "--no-timestamp"])
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("error: validation: exponents ") and "must be finite" in err


@pytest.mark.parametrize(
    "command,lines,A,code",
    [
        ("multiplicity", "vertex o 1 1e10 1e20\n", "1e-300", 0),
        ("multiplicity", "vertex o 1 1 1\n", "1e-310", 0),
        ("check", "vertex o 1 1 1\n", "1e-310", 3),
    ],
)
def test_the_energy_with_a_tiny_exponent_prints_no_warning(tmp_path, command, lines, A, code):
    path = write(tmp_path, lines)
    argv = [command, path, "--equation", "generalized", "--A", A, "--B", "1", "--no-timestamp"]
    result = _run_module(*argv)
    # nothing on stderr but the one error line of a failed audit
    assert (result.returncode, result.stderr.count("\n")) == (code, code != 0)
    assert "Warning" not in result.stderr


def test_every_report_box_is_the_applicable_box(tmp_path, capsys, monkeypatch):
    # and every record that copies a dataclass has that dataclass's fields, no more and no fewer
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    box_keys, constants_keys, degree_keys = (
        {f.name for f in dataclasses.fields(cls)}
        for cls in (tzgraph.AprioriBox, tzgraph.GraphConstants, degree.DegreeReport)
    )
    flags_kept = {a.dest for a in build_parser()._actions} - {"help", "command", "graph", "output", "no_timestamp"}
    assert flags_kept == {"equation", "A", "B", "tol", "max_iter", "starts", "seed", "radius", "format"}
    reported = set()
    for family in gen.FAMILIES:
        for n in (1, 2, 3):
            inst = gen.make_instance(family, n, seed=7)
            path = gen.write_instance(inst, tmp_path)
            g, h1, h2 = parse_graph(path).to_graph()
            box = cli._applicable_box(tzgraph.ProblemSpec(inst.equation, h1, h2, inst.A, inst.B), g)
            flags = ["--equation", inst.equation, "--A", repr(inst.A), "--B", repr(inst.B), "--no-timestamp"]
            for command in COMMANDS:
                code, out, _ = run(capsys, [command, str(path), *flags, "--starts", "8"])
                if command == "bounds":
                    assert (code == 2) == (box is None)
                if out:
                    report = json.loads(out)
                    assert report["box"] == (None if box is None else vars(box))
                    assert box is None or set(report["box"]) == box_keys
                    assert set(report["graph"]["constants"]) == constants_keys | {"elliptic_constant"}
                    assert set(report["config"]) == flags_kept
                    if command == "bounds":
                        assert report["result"]["box"] == report["box"]
                    if command == "degree":
                        assert set(report["result"]) == degree_keys | {"enumerated_degree"}
                    reported.add(command)
    assert reported == set(COMMANDS)


def test_cli_and_degree_get_every_box_from_one_dispatch():
    for module in (cli, degree):
        source = inspect.getsource(module)
        assert not hasattr(module, "bounds_classic") and not hasattr(module, "bounds_generalized")
        assert "bounds_classic(" not in source and "bounds_generalized(" not in source
        assert "_apriori_box(" in source
    # the two-solution search keeps its own calls of the generalized box, its only kind
    source = inspect.getsource(solvers)
    assert "bounds_generalized(spec, g)" in source and "bounds_classic" not in source


CLASSIC_FAR_ROOT = {
    2: "vertex o 1 1e-30 -1e30\nvertex p 1 1e-30 -1e30\nedge o p 1\n",
    3: "vertex o 1 1e-30 -1e30\nvertex p 1 1e-30 -1e30\nvertex q 1 1e-30 -1e30\nedge o p 1\nedge p q 1\n",
}


@pytest.mark.parametrize("n", sorted(CLASSIC_FAR_ROOT))
def test_degree_reports_the_proven_classic_degree_when_its_run_fails(tmp_path, capsys, n):
    # the root at log(1e60) / 2 ~ 69.08 is out of reach of a 60-iteration run from 0
    path = write(tmp_path, CLASSIC_FAR_ROOT[n])
    code, out, _ = run(capsys, ["degree", path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"])
    result = json.loads(out)["result"]
    assert code == 0 and result["degree"] == 1 and result["exhaustive_confidence"] == "heuristic"
    assert result["enumerated_degree"] == sum(result["signs"]) and result["starts_used"] == 64


@pytest.mark.xfail(
    strict=True,
    reason="continuation reads the t = 1 member's Jacobian at 0, -L + 5e-13 I, as singular (ROADMAP item 3)",
)
def test_classic_solve_on_a_tiny_h1_finds_the_root(tmp_path, capsys):
    path = write(tmp_path, "vertex a 1 1e-12 -1\nvertex b 1 1e-12 -1\nedge a b 1\n")
    code, out, err = run(capsys, ["solve", path, "--equation", "classic", "--A", "1", "--B", "1", "--no-timestamp"])
    assert code == 0, err
    assert json.loads(out)["result"]["solution"] == pytest.approx([math.log(1e12) / 2] * 2, rel=1e-12)


def test_central_difference_matches_the_column_loop_bitwise():
    rng = np.random.default_rng(419)
    for n in (1, 2, 5, 12):
        g = helpers.random_graph(rng, n)
        spec = helpers.generalized_spec(rng, n)
        u = rng.normal(0.0, 0.4, n)
        for fun in (lambda v: tzgraph.residual(spec, g, v), lambda v: tzgraph.energy(spec, g, v)):
            got = cli._central_difference(fun, u)
            assert got.tobytes() == helpers.central_difference_oracle(fun, u).tobytes()


def test_degree_on_one_vertex_lists_the_generalized_zero_root_as_zero(tmp_path, capsys):
    path = write(tmp_path, "vertex o 1 1.3 0.7\n")
    code, out, _ = run(
        capsys, ["degree", path, "--equation", "generalized", "--A", "1.2", "--B", "0.9", "--no-timestamp"]
    )
    solutions = json.loads(out)["result"]["solutions"]
    assert code == 0 and len(solutions) == 2
    assert [u for u in solutions if abs(u[0]) < 1e-9] == [[0.0]]
    assert '"solutions":[[-0.28854074309480648],[0.0]]' in out


def test_solve_imports_no_scipy(tmp_path):
    # importing scipy.linalg would add about 0.3 s of start-up and 28 MB of
    # memory to every process; LAPACK comes through numpy.linalg instead
    path = write(tmp_path, K2_LINES)
    script = (
        "import sys\n"
        "from tzgraph.cli import main\n"
        f"code = main(['solve', {path!r}, '--equation', 'classic', '--A', '1', '--B', '1'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(tzgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def _run_module(*argv):
    src = str(Path(tzgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "tzgraph", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_degree_from_starts_near_the_largest_double_prints_no_warning(tmp_path):
    # a run's first residual at u ~ 1e308 overflows A*u; the warning must
    # not reach stderr (a subprocess, so pytest's warning filters play no part);
    # generalized, since one run from 0 settles a classic instance with h2 < 0
    path = write(tmp_path, K2_GENERALIZED_LINES)
    result = _run_module("degree", path, "--equation", "generalized", "--A", "10", "--B", "1",
                         "--radius", "1e308", "--starts", "8", "--no-timestamp")
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)["result"]
    assert report["degree"] == report["enumerated_degree"] == 0 and report["starts_used"] > 8


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(
        capsys, ["solve", "/nonexistent/g.graph", "--equation", "classic", "--A", "1", "--B", "1"]
    )
    assert code == 2 and err.startswith("error: validation:")


def test_module_entry_point_prints_help():
    result = _run_module("--help")
    assert (result.returncode, result.stderr) == (0, "")
    assert all(command in result.stdout for command in COMMANDS)


def test_module_entry_point_exits_2_on_a_missing_file(tmp_path):
    result = _run_module("solve", str(tmp_path / "absent.graph"), "--equation", "classic", "--A", "1", "--B", "1")
    assert (result.returncode, result.stdout) == (2, "")
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: validation:")


def test_entrypoint_exits_with_the_code_of_main(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tzgraph", "solve", str(tmp_path / "absent.graph"),
                                      "--equation", "classic", "--A", "1", "--B", "1"])
    with pytest.raises(SystemExit) as info:
        entrypoint()
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error: validation:")


def test_fuzzed_files_never_crash(tmp_path, capsys):
    rng = np.random.default_rng(409)
    mutations = [
        lambda: "vertex a 1 1 -1\nvertex a 2 1 -1\n",
        lambda: "vertex a -1 1 -1\n",
        lambda: "vertex a 1 1 -1\nedge a b 1\n",
        lambda: "junk line\n",
        lambda: "vertex a\n",
        lambda: "edge a b 1\n",
        lambda: "vertex a 1 1 -1\nvertex b 1 1 -1\nedge a b -2\n",
        lambda: "vertex a 1 1 -1\nvertex b 1 1 -1\n",  # disconnected
        lambda: "".join(chr(int(c)) for c in rng.integers(33, 1000, 40)) + "\n",
        lambda: "vertex a 1 1 -1\nvertex b 1 inf -1\nedge a b 1\n",
    ]
    for trial in range(100):
        text = mutations[trial % len(mutations)]()
        path = write(tmp_path, text, f"fuzz{trial}.graph")
        code, _, err = run(
            capsys, ["degree", path, "--equation", "classic", "--A", "1", "--B", "1"]
        )
        assert code == 2, f"mutation {trial % len(mutations)} gave code {code}"
        assert err.startswith("error: validation:")

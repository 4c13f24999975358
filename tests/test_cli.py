"""File format, argument parsing, report rendering, exit codes, and robustness."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import tzgraph
from tzgraph import SolverConfig, degree, estimate_degree
from tzgraph.cli import (
    GraphDocument,
    UsageError,
    build_parser,
    canonical_json,
    canonical_text,
    format_graph,
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
    assert len(doc.vertices) == 2
    assert len(doc.edges) == 1
    assert doc.vertices[0] == ("a", 1.0, 1.0, -1.0)
    assert doc.edges[0] == ("a", "b", 1.0)


def test_parse_comments_and_blanks(tmp_path):
    text = "# heading\n\nvertex a 1 1 -1  # inline\nvertex b 2 1 -1\n\nedge a b 0.5\n"
    doc = parse_graph(write(tmp_path, text))
    assert len(doc.vertices) == 2 and doc.vertices[1][1] == 2.0


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


def test_round_trip_random_documents(tmp_path):
    rng = np.random.default_rng(401)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        data = helpers.random_graph_data(rng, n)
        doc = GraphDocument(
            [
                (label, data["mu"][i], float(rng.uniform(0.2, 3)), float(rng.uniform(-3, 3)))
                for i, label in enumerate(data["ids"])
            ],
            data["edges"],
        )
        reparsed = parse_graph(write(tmp_path, format_graph(doc), f"t{trial}.graph"))
        assert reparsed == doc


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
    doc = GraphDocument([(label, m, 1.0, -1.0) for label, m in zip(data["ids"], data["mu"])], data["edges"])
    parsed = parse_graph(write(tmp_path, format_graph(doc)))
    g = parsed.to_graph()[0]
    assert len(calls) == 1
    # a document built in code has its edges checked when it becomes a graph
    checked = doc.to_graph()[0]
    assert len(calls) == 2
    for name in ("edge_tail", "edge_head", "edge_weight"):
        assert getattr(g, name).tobytes() == getattr(checked, name).tobytes()
    assert [g.neighbors(i) for i in range(g.n)] == [checked.neighbors(i) for i in range(g.n)]
    with pytest.raises(tzgraph.GraphConstructionError):
        GraphDocument(doc.vertices, doc.edges + [(data["ids"][0], "ghost", 1.0)]).to_graph()


PATH3_LINES = "vertex a 1 1 -1\nvertex b 2 1 -1\nvertex c 1 1 -1\nedge a b 1\nedge b c 3\n"


def same_edges(doc: GraphDocument):
    """The graph of ``doc`` has the edge arrays of a graph built from its lists directly."""
    g = doc.to_graph()[0]
    labels, mu = [v[0] for v in doc.vertices], [v[1] for v in doc.vertices]
    direct = tzgraph.WeightedGraph(labels, mu, doc.edges)
    names = ("edge_tail", "edge_head", "edge_weight")
    return all(getattr(g, k).tobytes() == getattr(direct, k).tobytes() for k in names)


@pytest.mark.parametrize("edge", [("a", "a", 1.0), ("a", "ghost", -2.0)])
def test_an_edited_document_checks_an_appended_edge(tmp_path, edge):
    doc = parse_graph(write(tmp_path, PATH3_LINES))
    doc.edges.append(edge)
    with pytest.raises(tzgraph.GraphConstructionError):
        doc.to_graph()


def test_an_edited_document_builds_its_graph_from_its_edges(tmp_path):
    path = write(tmp_path, PATH3_LINES)
    appended = parse_graph(path)
    appended.edges.append(("a", "c", 2.0))
    assert same_edges(appended) and appended.to_graph()[0].edge_tail.size == 3
    replaced = parse_graph(path)
    replaced.edges[0] = ("a", "c", 0.5)
    assert same_edges(replaced) and replaced.to_graph()[0].neighbors(0) == (2,)
    reordered = parse_graph(path)
    reordered.vertices.reverse()
    g = reordered.to_graph()[0]
    assert same_edges(reordered) and g.vertex_ids == ("c", "b", "a") and g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,) and g.edge_weight.tolist() == [1.0, 3.0]
    assert same_edges(parse_graph(path))


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


@pytest.mark.parametrize(
    "equation,lines,enumerations",
    [("classic", K2_LINES, 3), ("generalized", K2_GENERALIZED_LINES, 2)],
)
def test_check_enumerates_each_deformation_member_once(
    tmp_path, capsys, monkeypatch, equation, lines, enumerations
):
    # classic: t = 0, 0.5, 1, where t = 0 gives degree_value; generalized:
    # t = 1 (which gives degree_value) and 0.5, with t = 0 known to be 0
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
    assert code == 0 and json.loads(out)["result"]["all_passed"] is True
    assert len(calls) == enumerations


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


def test_degree_from_starts_near_the_largest_double_prints_no_warning(tmp_path):
    # a run's first residual at u ~ 1e308 overflows A*u; the warning must
    # not reach stderr (a subprocess, so pytest's warning filters play no part)
    path = write(tmp_path, K2_LINES)
    argv = ["degree", path, "--equation", "classic", "--A", "10", "--B", "1",
            "--radius", "1e308", "--starts", "8", "--no-timestamp"]
    src = str(Path(tzgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "tzgraph", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["result"]["degree"] == 1


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(
        capsys, ["solve", "/nonexistent/g.graph", "--equation", "classic", "--A", "1", "--B", "1"]
    )
    assert code == 2 and err.startswith("error: validation:")


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

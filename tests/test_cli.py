"""File format, report rendering, exit codes, and robustness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import tzgraph
from tzgraph import SolverConfig, estimate_degree
from tzgraph.cli import (
    GraphDocument,
    canonical_json,
    canonical_text,
    format_graph,
    main,
    parse_graph,
)
from tzgraph.errors import ParseError

K2_LINES = "vertex a 1 1 -1\nvertex b 1 1 -1\nedge a b 1\n"


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

"""Graph-file ingestion against the edge-by-edge loops it replaced.

``helpers.parse_graph_oracle`` and ``helpers.graph_arrays_oracle`` are the
per-line and per-edge loops of ``cli.parse_graph`` and
``WeightedGraph.__init__`` before the bulk checks.  On every input both
routes must raise the same error class with the same message and line, or
read the same rows and build the same edge arrays byte for byte, in file
order: the graph of a parsed document and the graph of its rows passed in
from code alike.
"""

import gc

import numpy as np
import pytest

import helpers
from tzgraph import DisconnectedGraphError, WeightedGraph
from tzgraph.cli import parse_graph
from tzgraph.errors import TzgraphError


def outcome(fn, *args):
    """(error class, message, line) of a raised package error, or ("ok", value, None)."""
    try:
        return "ok", fn(*args), None
    except TzgraphError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same_graph(labels, mu, edges, *built):
    """The graph of the rows, and each outcome in ``built``, against the edge loop."""
    expected = outcome(helpers.graph_arrays_oracle, labels, mu, edges)
    for got in (outcome(WeightedGraph, labels, mu, edges), *built):
        if expected[0] != "ok":
            assert got == expected
            continue
        assert got[0] == "ok", got
        g, arrays = got[1], expected[1]
        for name in ("edge_tail", "edge_head", "edge_weight"):
            ours, theirs = getattr(g, name), arrays[name]
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
        assert [g.neighbors(i) for i in range(g.n)] == [tuple(sorted(a)) for a in arrays["adjacency"]]


def assert_same_ingestion(tmp_path, text: str, name: str = "g.graph"):
    """Parse ``text`` both ways; returns ``outcome`` of ``parse_graph``, with the document when it parses."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(helpers.parse_graph_oracle, path)
    got = outcome(parse_graph, path)
    if got[0] != "ok":
        assert got == expected
        return got
    doc = got[1]
    vertices, edges = helpers.document_rows(doc)
    assert ("ok", (vertices, edges), None) == expected
    labels, mu = [v[0] for v in vertices], [v[1] for v in vertices]
    assert_same_graph(labels, mu, edges, outcome(lambda: doc.to_graph()[0]))
    return got


def document_lines(rng, data, h1, h2):
    """Vertex and edge lines of a document in a random order, edges possibly first."""
    vertex_lines = [
        f"vertex {label} {data['mu'][i]!r} {h1[i]!r} {h2[i]!r}"
        for i, label in enumerate(data["ids"])
    ]
    edge_lines = [f"edge {a} {b} {w!r}" for a, b, w in data["edges"]]
    lines = vertex_lines + edge_lines
    return [lines[k] for k in rng.permutation(len(lines))]


# every line boundary str.splitlines knows; the first two are LF and CRLF
LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def decorate(rng, lines):
    """Comments, blank lines, trailing comments and mixed line ends among the records."""
    ends = LINE_ENDS[:2] if rng.random() < 0.5 else LINE_ENDS
    out = []
    for line in lines:
        roll = rng.random()
        if roll < 0.1:
            out.append("# a comment line")
        elif roll < 0.2:
            out.append("   ")
        if rng.random() < 0.1:
            line += "  # trailing note"
        out.append(line)
    return "".join(line + ends[int(rng.integers(len(ends)))] for line in out)


def random_document(rng, n, extra_edge_prob=None):
    if extra_edge_prob is None:
        extra_edge_prob = float(rng.uniform(0.0, 0.5))
    data = helpers.random_graph_data(rng, n, extra_edge_prob=extra_edge_prob)
    h1 = rng.uniform(0.2, 3.0, n).tolist()
    h2 = rng.uniform(-3.0, 3.0, n).tolist()
    return data, h1, h2


def test_random_documents_match_the_loops(tmp_path):
    rng = np.random.default_rng(4401)
    for trial in range(60):
        n = trial + 1
        data, h1, h2 = random_document(rng, n)
        text = decorate(rng, document_lines(rng, data, h1, h2))
        status, doc, _ = assert_same_ingestion(tmp_path, text, f"t{trial}.graph")
        assert status == "ok"
        vertices, edges = helpers.document_rows(doc)
        assert len(edges) == len(data["edges"])
        path = tmp_path / f"r{trial}.graph"
        path.write_text(helpers.graph_text(vertices, edges))
        assert helpers.document_rows(parse_graph(path)) == (vertices, edges)


def test_disconnected_documents_name_the_same_labels(tmp_path):
    rng = np.random.default_rng(4402)
    for trial in range(30):
        n_left, n_right = (int(k) for k in rng.integers(1, 12, 2))
        left, _, _ = random_document(rng, n_left)
        right, _, _ = random_document(rng, n_right)
        rename = {label: f"w{label[1:]}" for label in right["ids"]}
        data = {
            "ids": left["ids"] + [rename[x] for x in right["ids"]],
            "mu": left["mu"] + right["mu"],
            "edges": left["edges"] + [(rename[a], rename[b], w) for a, b, w in right["edges"]],
        }
        n = n_left + n_right
        order = rng.permutation(n)
        data["ids"] = [data["ids"][k] for k in order]
        data["mu"] = [data["mu"][k] for k in order]
        text = decorate(rng, document_lines(rng, data, [1.0] * n, [-1.0] * n))
        status, doc, _ = assert_same_ingestion(tmp_path, text, f"d{trial}.graph")
        assert status == "ok"
        with pytest.raises(DisconnectedGraphError):
            doc.to_graph()


def test_malformed_makers_match_the_loops(tmp_path):
    rng = np.random.default_rng(4403)
    for trial in range(5 * len(helpers.MALFORMED_MAKERS)):
        text = helpers.MALFORMED_MAKERS[trial % len(helpers.MALFORMED_MAKERS)](rng)
        status, value, _ = assert_same_ingestion(tmp_path, text, f"m{trial}.graph")
        if status == "ok":
            with pytest.raises(DisconnectedGraphError):
                value.to_graph()


FAULTY_EDGES = (
    lambda r, ids: f"edge {ids[0]} ghost {r.uniform(0.5, 2):.3f}",
    lambda r, ids: f"edge ghost {ids[-1]} 1",
    lambda r, ids: "edge ghost phantom 1",
    lambda r, ids: f"edge {ids[-1]} {ids[-1]} 1",
    lambda r, ids: f"edge {ids[0]} {ids[0]} nan",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} 1.5",
    lambda r, ids: f"edge {ids[-1]} {ids[0]} 2.5",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} abc",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} inf",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} 1e999",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} nan",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} -{r.uniform(0.1, 5):.3f}",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} 0",
    lambda r, ids: f"edge {ids[0]} {ids[-1]}",
    lambda r, ids: f"edge {ids[0]} {ids[-1]} 1 2",
)
FAULTY_LINES = FAULTY_EDGES + (
    lambda r, ids: f"vertex {ids[0]} 1 1 -1",
    lambda r, ids: "vertex fresh 0 1 -1",
    lambda r, ids: "vertex fresh 1 one -1",
    lambda r, ids: "vertex fresh 1 1",
    lambda r, ids: "record x y z",
)


def test_files_with_several_errors_match_the_loops(tmp_path):
    rng = np.random.default_rng(4404)
    failures = 0
    for trial in range(300):
        n = int(rng.integers(1, 25))
        data, h1, h2 = random_document(rng, n)
        lines = document_lines(rng, data, h1, h2)
        makers = FAULTY_EDGES if trial % 2 else FAULTY_LINES
        for _ in range(int(rng.integers(1, 5))):
            bad = makers[int(rng.integers(len(makers)))](rng, data["ids"])
            lines.insert(int(rng.integers(len(lines) + 1)), bad)
        status, _, _ = assert_same_ingestion(tmp_path, decorate(rng, lines), f"e{trial}.graph")
        failures += status != "ok"
    assert failures > 250


def test_construction_faults_match_the_loop():
    rng = np.random.default_rng(4405)
    for trial in range(300):
        n = int(rng.integers(1, 20))
        data = helpers.random_graph_data(rng, n)
        ids = list(range(n)) if trial % 3 == 0 else data["ids"]
        edges = [(ids[data["ids"].index(a)], ids[data["ids"].index(b)], w) for a, b, w in data["edges"]]
        for _ in range(int(rng.integers(0, 4))):
            a, b = (ids[int(k)] for k in rng.integers(0, n, 2))
            w = [1.0, 0.0, -2.0, np.inf, np.nan, 0.5][int(rng.integers(6))]
            if rng.random() < 0.2:
                b = "ghost"
            edges.insert(int(rng.integers(len(edges) + 1)), (a, b, w))
        assert_same_graph(ids, data["mu"], edges)


@pytest.mark.parametrize("n", [100, 200])
def test_benchmark_scale_documents_match_the_loops(tmp_path, n):
    rng = np.random.default_rng(4406 + n)
    data, h1, h2 = random_document(rng, n, extra_edge_prob=0.35)
    assert len(data["edges"]) > 1500
    status, doc, _ = assert_same_ingestion(tmp_path, decorate(rng, document_lines(rng, data, h1, h2)))
    assert status == "ok" and doc.weight.size == len(data["edges"])


@pytest.mark.parametrize("n", [100, 200])
def test_every_fault_on_the_last_edge_line_matches_the_loops(tmp_path, n):
    rng = np.random.default_rng(4408 + n)
    data, h1, h2 = random_document(rng, n, extra_edge_prob=0.35)
    lines = document_lines(rng, data, h1, h2)
    last_edge = max(k for k, line in enumerate(lines) if line.startswith("edge "))
    failures = 0
    for trial, maker in enumerate(FAULTY_EDGES):
        planted = lines[: last_edge + 1] + [maker(rng, data["ids"])] + lines[last_edge + 1 :]
        status, _, _ = assert_same_ingestion(tmp_path, decorate(rng, planted), f"f{trial}.graph")
        failures += status != "ok"
    # only a pair that is not yet an edge can pass, as in "edge v0 v<n-1> 1.5"
    assert failures >= len(FAULTY_EDGES) - 2


def test_labels_spelled_like_record_types_match_the_loops(tmp_path):
    rng = np.random.default_rng(4410)
    for trial in range(40):
        n = int(rng.integers(2, 30))
        data, h1, h2 = random_document(rng, n)
        spelled = dict(zip(data["ids"][:3], ("edge", "vertex", "Edge")))
        data["ids"] = [spelled.get(label, label) for label in data["ids"]]
        data["edges"] = [(spelled.get(a, a), spelled.get(b, b), w) for a, b, w in data["edges"]]
        lines = document_lines(rng, data, h1, h2)
        if trial % 2:
            bad = FAULTY_LINES[int(rng.integers(len(FAULTY_LINES)))](rng, data["ids"])
            lines.insert(int(rng.integers(len(lines) + 1)), bad)
        status, _, _ = assert_same_ingestion(tmp_path, decorate(rng, lines), f"s{trial}.graph")
        assert status == "ok" or trial % 2


@pytest.mark.parametrize("token", ["1_0", "١", "٢.5", "+2", "3E-1", "nan", "inf", "-inf", "1e999", "1e-400", "0x1"])
def test_weight_tokens_keep_python_float_semantics(tmp_path, token):
    text = f"vertex a 1 1 -1\nvertex b 1 1 -1\nvertex c 1 1 -1\nedge a b 1\nedge b c {token}\n"
    assert_same_ingestion(tmp_path, text)


def test_parsing_a_large_file_runs_no_old_generation_collection(tmp_path):
    rng = np.random.default_rng(4411)
    data, h1, h2 = random_document(rng, 200, extra_edge_prob=0.35)
    assert len(data["edges"]) > 7000
    vertices = list(zip(data["ids"], data["mu"], h1, h2))
    path = tmp_path / "large.graph"
    path.write_text(helpers.graph_text(vertices, data["edges"]))
    gc.collect()
    before = [stats["collections"] for stats in gc.get_stats()]
    parse_graph(path).to_graph()
    young, middle, old = (b - a for a, b in zip(before, (stats["collections"] for stats in gc.get_stats())))
    assert (young <= 1, middle, old) == (True, 0, 0)

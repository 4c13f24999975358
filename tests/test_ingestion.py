"""Graph-file ingestion against the edge-by-edge loops it replaced.

``helpers.parse_graph_oracle`` and ``helpers.graph_arrays_oracle`` are the
per-line and per-edge loops of ``cli.parse_graph`` and
``WeightedGraph.__init__`` before the bulk checks.  On every input both
routes must raise the same error class with the same message and line, or
build the same edge arrays byte for byte, in file order.
"""

import numpy as np
import pytest

import helpers
from tzgraph import DisconnectedGraphError, WeightedGraph
from tzgraph.cli import GraphDocument, format_graph, parse_graph
from tzgraph.errors import TzgraphError


def outcome(fn, *args):
    """(error class, message, line) of a raised package error, or ("ok", value, None)."""
    try:
        return "ok", fn(*args), None
    except TzgraphError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same_graph(doc: GraphDocument):
    labels = [v[0] for v in doc.vertices]
    mu = [v[1] for v in doc.vertices]
    expected = outcome(helpers.graph_arrays_oracle, labels, mu, doc.edges)
    got = outcome(WeightedGraph, labels, mu, doc.edges)
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok", got
    g, arrays = got[1], expected[1]
    for name in ("edge_tail", "edge_head", "edge_weight"):
        ours, theirs = getattr(g, name), arrays[name]
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
    assert [g.neighbors(i) for i in range(g.n)] == [tuple(sorted(a)) for a in arrays["adjacency"]]


def assert_same_ingestion(tmp_path, text: str, name: str = "g.graph"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(helpers.parse_graph_oracle, path)
    got = outcome(parse_graph, path)
    assert got == expected
    if got[0] == "ok":
        assert_same_graph(got[1])
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


def random_document(rng, n):
    data = helpers.random_graph_data(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.5)))
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
        assert len(doc.edges) == len(data["edges"])
        path = tmp_path / f"r{trial}.graph"
        path.write_text(format_graph(doc))
        assert parse_graph(path) == doc


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
        doc = GraphDocument([(label, m, 1.0, 1.0) for label, m in zip(ids, data["mu"])], edges)
        assert_same_graph(doc)

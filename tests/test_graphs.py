"""Discrete calculus: operators, constants, and their exact identities."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import helpers
from tzgraph import (
    AlignmentError,
    DisconnectedGraphError,
    GraphConstructionError,
    WeightedGraph,
    average,
    graph_constants,
    gradient_norm_sq,
    integrate,
    laplacian,
    laplacian_matrix,
)
from tzgraph.graphs import _gradient_norm_sq_rows, _integrals, _laplacian_rows


def test_laplacian_k2_unit():
    g = helpers.k2()
    assert np.allclose(laplacian(g, [0.0, 1.0]), [1.0, -1.0])


def test_laplacian_constant_is_zero():
    rng = np.random.default_rng(3)
    g = helpers.random_graph(rng, 7)
    assert np.all(laplacian(g, np.full(7, 2.7)) == 0.0)


def test_laplacian_path3_matches_double_loop_oracle():
    data = {
        "ids": ["a", "b", "c"],
        "mu": [1.0, 2.0, 1.0],
        "edges": [("a", "b", 1.0), ("b", "c", 3.0)],
    }
    g = helpers.build_graph(data)
    u = np.array([1.0, 0.0, 2.0])
    expected = helpers.laplacian_oracle(data, u)
    assert np.allclose(laplacian(g, u), expected, atol=1e-14)
    assert np.allclose(expected, [-1.0, 3.5, -6.0])


def test_laplacian_matrix_k2():
    g = helpers.k2()
    assert np.array_equal(laplacian_matrix(g), [[-1.0, 1.0], [1.0, -1.0]])


def test_laplacian_matrix_kills_constants():
    rng = np.random.default_rng(5)
    g = helpers.random_graph(rng, 6)
    assert np.allclose(laplacian_matrix(g) @ np.ones(6), 0.0, atol=1e-13)


def test_laplacian_matrix_matches_operator():
    rng = np.random.default_rng(7)
    data = helpers.random_graph_data(rng, 5)
    g = helpers.build_graph(data)
    u = rng.normal(size=5)
    assert np.allclose(laplacian_matrix(g) @ u, laplacian(g, u), atol=1e-14)


def test_laplacian_matrix_matches_the_edge_loop_bitwise():
    rng = np.random.default_rng(11)
    graphs = [helpers.random_graph(rng, 1), helpers.k2(), helpers.path3()]
    for n in [*rng.integers(2, 41, 60).tolist(), 100, 200]:
        data = helpers.random_graph_data(rng, n)
        rng.shuffle(data["edges"])
        graphs.append(helpers.build_graph(data))
        # a star, whose centre sums every edge, and a path, each in random order
        ids, weights = data["ids"], rng.uniform(0.5, 2.0, n).tolist()
        for edges in ([(ids[0], b, w) for b, w in zip(ids[1:], weights)], list(zip(ids, ids[1:], weights))):
            rng.shuffle(edges)
            graphs.append(helpers.build_graph({"ids": ids, "mu": data["mu"], "edges": edges}))
    for g in graphs:
        expected = helpers.laplacian_matrix_oracle(g).tobytes()
        assert laplacian_matrix(g).tobytes() == expected == helpers.laplacian_matrix_add_at_oracle(g).tobytes()


def test_gradient_norm_sq_constant():
    g = helpers.path3()
    assert np.all(gradient_norm_sq(g, np.full(3, 4.2)) == 0.0)


def test_gradient_norm_sq_k2():
    g = helpers.k2()
    assert np.allclose(gradient_norm_sq(g, [0.0, 1.0]), [0.5, 0.5])


def test_gradient_matches_oracle():
    rng = np.random.default_rng(11)
    data = helpers.random_graph_data(rng, 6)
    g = helpers.build_graph(data)
    u = rng.normal(size=6)
    assert np.allclose(
        gradient_norm_sq(g, u), helpers.gradient_sq_oracle(data, u), rtol=1e-12
    )


def test_integrate_ones_is_volume():
    rng = np.random.default_rng(13)
    g = helpers.random_graph(rng, 5)
    assert integrate(g, np.ones(5)) == pytest.approx(g.volume, rel=1e-15)
    assert integrate(g, np.zeros(5)) == 0.0


def test_integrate_mixed_sign_matches_oracle():
    rng = np.random.default_rng(17)
    data = helpers.random_graph_data(rng, 4)
    g = helpers.build_graph(data)
    f = np.array([1.5, -2.0, 0.25, -0.75])
    assert integrate(g, f) == pytest.approx(helpers.integrate_oracle(data, f), rel=1e-14)


def test_average_constant_and_mean_zero():
    rng = np.random.default_rng(19)
    data = helpers.random_graph_data(rng, 5)
    g = helpers.build_graph(data)
    assert average(g, np.full(5, -3.25)) == pytest.approx(-3.25, rel=1e-14)
    f = rng.normal(size=5)
    f -= integrate(g, f) / g.volume
    assert abs(average(g, f)) < 1e-14
    f2 = rng.normal(size=5)
    assert average(g, f2) == pytest.approx(
        helpers.integrate_oracle(data, f2) / sum(data["mu"]), rel=1e-14
    )


def test_graph_constants_k2():
    constants = graph_constants(helpers.k2())
    assert constants.volume == 2.0
    assert constants.w0 == 1.0
    assert constants.mu0 == 1.0
    assert constants.ell == 2
    assert constants.lambda1 == pytest.approx(2.0, abs=1e-12)


def test_graph_constants_cached_and_equal_to_oracles():
    rng = np.random.default_rng(21)
    data = helpers.random_graph_data(rng, 9)
    g = helpers.build_graph(data)
    constants = graph_constants(g)
    assert graph_constants(g) is constants
    assert constants.volume == pytest.approx(sum(data["mu"]), rel=1e-14)
    assert constants.w0 == min(w for _, _, w in data["edges"])
    assert constants.mu0 == min(data["mu"])
    assert constants.ell == helpers.diameter_oracle(g) + 1
    eigenvalues = np.sort(np.linalg.eigvals(-laplacian_matrix(g)).real)
    assert constants.lambda1 == pytest.approx(eigenvalues[1], rel=1e-9)


def _unit_graph(n, pairs):
    return WeightedGraph(range(n), np.ones(n), [(i, j, 1.0) for i, j in pairs])


def test_diameter_matches_all_sources_bfs_oracle():
    graphs = [_unit_graph(1, [])]
    for n in (2, 3, 4, 7, 64, 65, 200):
        graphs.append(_unit_graph(n, [(i, i + 1) for i in range(n - 1)]))
    for n in (3, 4, 5, 30):
        graphs.append(_unit_graph(n, [(0, i) for i in range(1, n)]))
        graphs.append(_unit_graph(n, [(i, (i + 1) % n) for i in range(n)]))
        graphs.append(_unit_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
    rng = np.random.default_rng(43)
    for _ in range(150):
        n = int(rng.integers(1, 61))
        p = float(rng.choice([0.0, 0.02, 0.1, 0.35]))  # 0.0 gives a random tree
        graphs.append(helpers.random_graph(rng, n, extra_edge_prob=p))
    for g in graphs:
        assert g.diameter_edges() == helpers.diameter_oracle(g)


def test_lambda1_matches_full_eigensolve_oracle():
    rng = np.random.default_rng(23)
    g = helpers.random_graph(rng, 6)
    # independent route: general (non-symmetric) eigensolve of -L itself
    eigenvalues = np.sort(np.linalg.eigvals(-laplacian_matrix(g)).real)
    assert graph_constants(g).lambda1 == pytest.approx(eigenvalues[1], rel=1e-9)


def test_lambda1_invariant_under_reordering():
    rng = np.random.default_rng(29)
    data = helpers.random_graph_data(rng, 8)
    g = helpers.build_graph(data)
    order = rng.permutation(8)
    shuffled = WeightedGraph(
        [data["ids"][i] for i in order],
        [data["mu"][i] for i in order],
        data["edges"],
    )
    assert graph_constants(shuffled).lambda1 == pytest.approx(
        graph_constants(g).lambda1, rel=1e-9
    )


def test_single_vertex_constants():
    g = WeightedGraph(["only"], [2.5], [])
    constants = graph_constants(g)
    assert constants.lambda1 is None
    assert constants.w0 is None
    assert constants.ell == 1
    assert np.all(laplacian(g, [7.0]) == 0.0)


@given(st.integers(0, 10**6))
def test_divergence_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    g = helpers.random_graph(rng, n)
    u = rng.normal(0.0, 2.0, n)
    bound = 1e-10 * (1.0 + float(np.max(np.abs(u))) * float(g.edge_weight.sum()))
    assert abs(integrate(g, laplacian(g, u))) <= bound


@given(st.integers(0, 10**6))
def test_integration_by_parts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    g = helpers.random_graph(rng, n)
    u = rng.normal(0.0, 2.0, n)
    lhs = integrate(g, gradient_norm_sq(g, u))
    rhs = -integrate(g, u * laplacian(g, u))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@given(st.integers(0, 10**6), st.integers(1, 10), st.sampled_from([1, 3, 50]))
@example(0, 1, 1)
@example(0, 1, 3)
@example(0, 1, 50)
def test_block_edge_sums_match_the_field_forms_row_by_row(seed, n, k):
    # n = 1 is a graph without edges
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, n)
    u = rng.normal(0.0, 2.0, (k, n))
    lap, grad, ints = _laplacian_rows(g, u), _gradient_norm_sq_rows(g, u), _integrals(g, u)
    assert lap.shape == grad.shape == (k, n) and ints.shape == (k,)
    for row, lap_row, grad_row, integral in zip(u, lap, grad, ints):
        assert np.array_equal(lap_row, laplacian(g, row))
        assert np.array_equal(grad_row, gradient_norm_sq(g, row))
        assert np.array_equal(integral, integrate(g, row))


def test_integration_by_parts_hundred_fields():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = helpers.random_graph(rng, n)
        u = rng.normal(0.0, 1.5, n)
        lhs = integrate(g, gradient_norm_sq(g, u))
        rhs = -integrate(g, u * laplacian(g, u))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_poincare_step():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = helpers.random_graph(rng, n)
        u = rng.normal(0.0, 1.5, n)
        u -= average(g, u)
        lam = graph_constants(g).lambda1
        lhs = integrate(g, gradient_norm_sq(g, u))
        rhs = integrate(g, laplacian(g, u) ** 2) / lam
        assert lhs <= rhs * (1.0 + 1e-10)


def test_construction_rejects_bad_data():
    with pytest.raises(GraphConstructionError):
        WeightedGraph([], [], [])
    with pytest.raises(GraphConstructionError):
        WeightedGraph(["a", "a"], [1.0, 1.0], [])
    with pytest.raises(GraphConstructionError):
        WeightedGraph(["a", "b"], [1.0, -1.0], [("a", "b", 1.0)])
    with pytest.raises(GraphConstructionError):
        WeightedGraph(["a", "b"], [1.0, 1.0], [("a", "b", 0.0)])
    with pytest.raises(GraphConstructionError):
        WeightedGraph(["a", "b"], [1.0, 1.0], [("a", "a", 1.0)])
    with pytest.raises(GraphConstructionError):
        WeightedGraph(["a", "b"], [1.0, 1.0], [("a", "b", 1.0), ("b", "a", 2.0)])
    with pytest.raises(GraphConstructionError):
        WeightedGraph(["a", "b"], [1.0, 1.0], [("a", "c", 1.0)])


def test_a_laplacian_past_the_float_range_names_its_vertex():
    # one rate w / mu past the float range, then finite rates whose sum at "c", the diagonal, is not
    for mu, weights, label in (([1.0, 1e-300, 1.0], (1.0, 1e10), "b"), ([1.0, 1.0, 1.0], (1e308, 1e308), "c")):
        with pytest.raises(GraphConstructionError, match=f"of vertex '{label}' leave the float range"):
            WeightedGraph(["a", "b", "c"], mu, [("a", "c", weights[0]), ("b", "c", weights[1])])
    # at the edge of the range the graph stands, and its matrix is finite
    g = WeightedGraph(["a", "b", "c"], [1.0, 1.0, 1.0], [("a", "c", 8e307), ("b", "c", 8e307)])
    assert np.isfinite(laplacian_matrix(g)).all()


def test_disconnected_names_two_labels():
    with pytest.raises(DisconnectedGraphError) as info:
        WeightedGraph(["a", "b", "c", "d"], np.ones(4), [("a", "b", 1.0), ("c", "d", 1.0)])
    assert "a" in str(info.value) and ("c" in str(info.value) or "d" in str(info.value))


def test_alignment_errors():
    g = helpers.k2()
    with pytest.raises(AlignmentError):
        laplacian(g, [1.0, 2.0, 3.0])
    with pytest.raises(AlignmentError):
        integrate(g, [np.nan, 0.0])


def test_neighbors_match_the_edge_list_oracle():
    rng = np.random.default_rng(47)
    graphs = [WeightedGraph(["o"], [1.0])] + [
        helpers.random_graph(rng, n, extra_edge_prob=p) for n in (2, 3, 7, 30, 100) for p in (0.0, 0.35)
    ]
    for g in graphs:
        want = [tuple(nbrs) for nbrs in helpers.adjacency_oracle(g)]
        assert [g.neighbors(i) for i in range(g.n)] == want
        # a negative index counts from the end, as in a sequence
        assert [g.neighbors(i) for i in range(-g.n, 0)] == want
        for i in (g.n, -g.n - 1):
            with pytest.raises(IndexError):
                g.neighbors(i)

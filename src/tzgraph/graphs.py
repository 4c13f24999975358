"""Finite connected weighted graphs and their discrete calculus.

A graph carries a positive vertex measure ``mu`` and positive symmetric
edge weights ``w``.  For a function ``u`` on the vertices (a *vertex
field*, stored as a plain float array aligned with the fixed vertex
ordering) the discrete operators are

    laplacian(u)(x)        = (1/mu(x)) * sum_{y~x} w_xy (u(y) - u(x))
    gradient_norm_sq(u)(x) = (1/(2 mu(x))) * sum_{y~x} w_xy (u(y) - u(x))^2
    integrate(f)           = sum_x mu(x) f(x)
    average(f)             = integrate(f) / Vol(G),   Vol(G) = sum_x mu(x)

The Laplacian is negative semidefinite and self-adjoint for the
mu-weighted inner product; on a connected graph its kernel is exactly the
constants, so the smallest nonzero eigenvalue ``lambda1`` of ``-laplacian``
is positive.  Graphs are immutable after construction and safe to share;
every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import AlignmentError, DisconnectedGraphError, GraphConstructionError

__all__ = [
    "WeightedGraph",
    "GraphConstants",
    "laplacian",
    "laplacian_matrix",
    "gradient_norm_sq",
    "integrate",
    "average",
    "graph_constants",
    "as_field",
]


class WeightedGraph:
    """Connected weighted graph with a positive vertex measure.

    Parameters
    ----------
    vertex_ids : sequence of hashable labels
        Distinct vertex labels; their order fixes the coordinate system
        used by every matrix and vertex field.
    mu : sequence of float
        Positive vertex measure, aligned with ``vertex_ids``.
    edges : iterable of (label, label, float)
        Undirected edges with positive weights, one entry per unordered
        pair.  Self-loops and duplicate pairs are rejected.

    Raises
    ------
    GraphConstructionError
        On empty/duplicate vertices, nonpositive data, self-loops,
        duplicate edges, unknown endpoints, or a Laplacian past the float range.
    DisconnectedGraphError
        When the edge set does not connect all vertices; the error names
        two mutually unreachable labels.
    """

    def __init__(
        self,
        vertex_ids: Sequence[Hashable],
        mu: Sequence[float],
        edges: Iterable[tuple[Hashable, Hashable, float]] = (),
        _checked_edges: tuple | None = None,
    ):
        ids = tuple(vertex_ids)
        if not ids:
            raise GraphConstructionError("graph needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise GraphConstructionError("duplicate vertex labels")

        mu_arr = np.array(mu, dtype=float)
        if mu_arr.shape != (len(ids),):
            raise GraphConstructionError(f"measure has {mu_arr.size} entries for {len(ids)} vertices")
        if not (mu_arr.min() > 0.0 and mu_arr.max() < np.inf):
            raise GraphConstructionError("vertex measure must be positive and finite")

        # parse_graph passes the (tails, heads, weight) arrays it found no fault in
        if _checked_edges is None:
            index = {label: i for i, label in enumerate(ids)}
            ends_a, ends_b, weights = tuple(zip(*edges)) or ((), (), ())
            *_checked_edges, fault = _index_edges(index, ends_a, ends_b, weights)
            if fault is not None:
                a, b = ends_a[fault[0]], ends_b[fault[0]]
                raise GraphConstructionError({
                    "endpoint": f"edge references unknown vertex {(a if a not in index else b)!r}",
                    "self-loop": f"self-loop at vertex {a!r}",
                    "duplicate": f"duplicate edge {a!r}-{b!r}",
                    "weight": f"edge {a!r}-{b!r} has nonpositive weight",
                }[fault[1]])
        tails, heads, weight = _checked_edges
        # every rate is positive, so the Laplacian's diagonal is finite exactly when its rates are
        with np.errstate(over="ignore"):
            diagonal = np.bincount(*_edge_rates(mu_arr, tails, heads, weight), len(ids))
        if not np.isfinite(diagonal).all():
            label = ids[int(np.argmin(np.isfinite(diagonal)))]
            raise GraphConstructionError(f"the edge weights over the measure of vertex {label!r} leave the float range")

        self.vertex_ids = ids
        self.mu = mu_arr
        self.volume = float(mu_arr.sum())
        self.edge_tail, self.edge_head, self.edge_weight = tails, heads, weight
        for arr in (self.mu, self.edge_tail, self.edge_head, self.edge_weight):
            arr.flags.writeable = False

        self._check_connected(np.concatenate((tails, heads)), np.concatenate((heads, tails)))
        self._neg_laplacian_cache: np.ndarray | None = None
        self._constants_cache: GraphConstants | None = None

    @property
    def n(self) -> int:
        return len(self.vertex_ids)

    @property
    def m(self) -> int:
        return self.edge_weight.size

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Indices of the vertices adjacent to vertex ``i``, ascending."""
        i = range(self.n)[i]  # a negative i counts from the end, as in a sequence
        ends = np.concatenate((self.edge_head[self.edge_tail == i], self.edge_tail[self.edge_head == i]))
        return tuple(np.sort(ends).tolist())

    def _check_connected(self, ends: np.ndarray, nbrs: np.ndarray) -> None:
        """Raise unless the pairs ``(ends, nbrs)`` join every vertex to vertex 0.

        Each round points every root at the smallest root paired with it, then
        follows pointers until each ends at a root.  Pointers never rise, so in
        the end each part's root is its smallest vertex, and vertex 0's is 0.
        """
        root = np.arange(self.n)
        while ((here := root[ends]) != (there := root[nbrs])).any():
            np.minimum.at(root, here, there)
            while ((up := root[root]) != root).any():
                root = up
        if root.any():
            raise DisconnectedGraphError(self.vertex_ids[0], self.vertex_ids[root.nonzero()[0][0]])

    def diameter_edges(self) -> int:
        """Largest shortest-path edge count over all vertex pairs.

        ``powers[k]`` marks the pairs joined by a walk of at most ``2**k``
        edges.  Squaring doubles the reach until every pair is joined, then
        a binary search back down the powers finds the last reach that
        misses a pair.
        """
        reach = np.eye(self.n, dtype=bool)
        reach[self.edge_tail, self.edge_head] = True
        reach[self.edge_head, self.edge_tail] = True
        powers = [reach]
        while not powers[-1].all():
            powers.append(_reach_product(powers[-1], powers[-1]))
        if len(powers) == 1:
            return int(self.n > 1)
        hops = 2 ** (len(powers) - 2)
        reach = powers[-2]
        for k in range(len(powers) - 3, -1, -1):
            trial = _reach_product(reach, powers[k])
            if not trial.all():
                reach, hops = trial, hops + 2**k
        return hops + 1

    def neg_laplacian(self) -> np.ndarray:
        """Matrix of ``-laplacian`` in the vertex ordering (read-only view)."""
        if self._neg_laplacian_cache is None:
            mat = -laplacian_matrix(self)
            mat.flags.writeable = False
            self._neg_laplacian_cache = mat
        return self._neg_laplacian_cache

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, volume={self.volume:.6g})"


EDGE_CHECKS = ("endpoint", "self-loop", "duplicate", "weight")


def _index_edges(index: dict, ends_a: Sequence, ends_b: Sequence, weights: Sequence[float]):
    """Endpoint index arrays (-1 if unknown) and weights of an edge list, and its first fault.

    The fault is None or ``(k, check)``: edge ``k`` is the first to fail one of ``EDGE_CHECKS``,
    each run on all edges at once, and ``check`` the first it fails, as a loop over edges finds.
    """
    n, m = len(index), len(ends_a)
    tails, heads = (np.fromiter(map(index.get, ends, repeat(-1)), int, m) for ends in (ends_a, ends_b))
    weight = np.asarray(weights, dtype=float)
    low, high = np.minimum(tails, heads), np.maximum(tails, heads)
    keys = low * n + high  # < 0 if an endpoint is unknown, one per unordered pair otherwise
    ordered = np.sort(keys)
    if not m or (ordered[0] >= 0 and (low < high).all() and (ordered[1:] > ordered[:-1]).all()
                 and weight.min() > 0.0 and weight.max() < np.inf):
        return tails, heads, weight, None
    repeats = np.ones(m, dtype=bool)  # every edge but the first of its pair
    repeats[np.unique(keys, return_index=True)[1]] = False
    # one row per check, one column per edge
    failing = np.stack((low < 0, low == high, repeats, ~((weight > 0.0) & (weight < np.inf))))
    k = int(failing.any(axis=0).argmax())
    return tails, heads, weight, (k, EDGE_CHECKS[int(failing[:, k].argmax())])


def _reach_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product on BLAS; float32 counts are exact below 2**24."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.0


@dataclass(frozen=True)
class GraphConstants:
    """Scalar invariants entering the elliptic estimate.

    ``ell`` is the vertex count of the longest shortest path (graph
    diameter in edges plus one), so ``ell - 1`` dominates the edge count of
    any extremal path an individual field could select.  ``lambda1`` is the
    smallest eigenvalue of ``-laplacian`` on the mu-mean-zero subspace; it
    is None for the single-vertex graph, where the spectral constants are
    undefined.  ``w0`` is None exactly when the graph has no edges.
    """

    volume: float
    w0: float | None
    mu0: float
    ell: int
    lambda1: float | None


def as_field(g: WeightedGraph, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a vertex field against the graph and return it as an array."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (g.n,):
        raise AlignmentError(f"field has shape {arr.shape}, graph has {g.n} vertices")
    if not np.all(np.isfinite(arr)):
        raise AlignmentError("field contains non-finite entries")
    return arr


def laplacian(g: WeightedGraph, u: Sequence[float] | np.ndarray) -> np.ndarray:
    """Pointwise weighted Laplacian: (1/mu) sum of w * neighbor differences."""
    return _laplacian_rows(g, as_field(g, u)[None])[0]


def _laplacian_rows(g: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """``laplacian`` of each row of an unchecked ``(k, n)`` block; each vertex sums in edge order."""
    out = np.zeros(u.shape)
    diff = g.edge_weight * (u[:, g.edge_head] - u[:, g.edge_tail])
    np.add.at(out, (slice(None), g.edge_tail), diff)
    np.add.at(out, (slice(None), g.edge_head), -diff)
    return out / g.mu


def _edge_rates(mu: np.ndarray, tails: np.ndarray, heads: np.ndarray, weight: np.ndarray):
    """Each edge's tail and head, and its ``w / mu`` at each: the tail's before the head's, in edge order."""
    ends = np.stack((tails, heads), axis=1).ravel()
    return ends, np.stack((weight / mu[tails], weight / mu[heads]), axis=1).ravel()


def laplacian_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense matrix L with L @ u == laplacian(g, u)."""
    ends, rates = _edge_rates(g.mu, g.edge_tail, g.edge_head, g.edge_weight)
    mat = np.zeros((g.n, g.n))
    mat[ends, ends.reshape(-1, 2)[:, ::-1].ravel()] = rates  # each unordered pair is one edge
    # bincount sums each vertex's terms in edge order, the tail's before the head's within an edge
    mat.flat[:: g.n + 1] -= np.bincount(ends, rates, g.n)
    return mat


def gradient_norm_sq(g: WeightedGraph, u: Sequence[float] | np.ndarray) -> np.ndarray:
    """Squared gradient length: (1/(2 mu)) sum of w * squared differences."""
    return _gradient_norm_sq_rows(g, as_field(g, u)[None])[0]


def _gradient_norm_sq_rows(g: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """``gradient_norm_sq`` of each row of an unchecked ``(k, n)`` block, summed like ``_laplacian_rows``."""
    out = np.zeros(u.shape)
    sq = g.edge_weight * (u[:, g.edge_head] - u[:, g.edge_tail]) ** 2
    np.add.at(out, (slice(None), g.edge_tail), sq)
    np.add.at(out, (slice(None), g.edge_head), sq)
    return out / (2.0 * g.mu)


def integrate(g: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Integral of a vertex field against the vertex measure."""
    return float(_integrals(g, as_field(g, f)[None])[0])


def _integrals(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    """``integrate`` of each row of an unchecked ``(k, n)`` block, one ``np.dot`` a row."""
    return np.array([np.dot(g.mu, row) for row in f])


def average(g: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Measure-weighted mean of a vertex field."""
    return integrate(g, f) / g.volume


def graph_constants(g: WeightedGraph) -> GraphConstants:
    """Volume, weight/measure minima, diameter-based ``ell``, and lambda1.

    Computed once per graph and cached on it, since graphs are immutable.
    The operator ``-laplacian`` is not symmetric under a nonuniform
    measure, so its spectrum is computed from the similarity transform by
    ``diag(sqrt(mu))``, which is symmetric with the same eigenvalues.
    """
    if g._constants_cache is None:
        lambda1 = None
        if g.n > 1:
            sqrt_mu = np.sqrt(g.mu)
            sym = g.neg_laplacian() * sqrt_mu[:, None] / sqrt_mu[None, :]
            lambda1 = float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[1])
        ell = g.diameter_edges() + 1
        w0 = float(g.edge_weight.min()) if g.m else None
        g._constants_cache = GraphConstants(g.volume, w0, float(g.mu.min()), ell, lambda1)
    return g._constants_cache

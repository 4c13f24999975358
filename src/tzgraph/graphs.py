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

from collections import deque
from operator import eq
from dataclasses import dataclass
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
        duplicate edges, or unknown endpoints.
    DisconnectedGraphError
        When the edge set does not connect all vertices; the error names
        two mutually unreachable labels.
    """

    def __init__(
        self,
        vertex_ids: Sequence[Hashable],
        mu: Sequence[float],
        edges: Iterable[tuple[Hashable, Hashable, float]],
    ):
        ids = tuple(vertex_ids)
        if not ids:
            raise GraphConstructionError("graph needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise GraphConstructionError("duplicate vertex labels")
        index = {label: i for i, label in enumerate(ids)}

        mu_arr = np.array(mu, dtype=float)
        if mu_arr.shape != (len(ids),):
            raise GraphConstructionError(f"measure has {mu_arr.size} entries for {len(ids)} vertices")
        if not np.all(np.isfinite(mu_arr)) or np.any(mu_arr <= 0.0):
            raise GraphConstructionError("vertex measure must be positive and finite")

        ends_a, ends_b, weights = tuple(zip(*edges)) or ((), (), ())
        tails, heads, weight, fault = _index_edges(index, ends_a, ends_b, weights)
        if fault is not None:
            a, b = ends_a[fault[0]], ends_b[fault[0]]
            raise GraphConstructionError({
                "endpoint": f"edge references unknown vertex {(a if a not in index else b)!r}",
                "self-loop": f"self-loop at vertex {a!r}",
                "duplicate": f"duplicate edge {a!r}-{b!r}",
                "weight": f"edge {a!r}-{b!r} has nonpositive weight",
            }[fault[1]])

        self.vertex_ids = ids
        self.mu = mu_arr
        self.volume = float(mu_arr.sum())
        tails, heads = np.array(tails, dtype=int), np.array(heads, dtype=int)
        self.edge_tail, self.edge_head, self.edge_weight = tails, heads, weight
        for arr in (self.mu, self.edge_tail, self.edge_head, self.edge_weight):
            arr.flags.writeable = False

        # each edge seen from both ends, sorted by vertex, then by neighbour
        ends, nbrs = np.concatenate((tails, heads)), np.concatenate((heads, tails))
        nbrs = nbrs[np.argsort(ends * len(ids) + nbrs)].tolist()
        stops = np.bincount(ends, minlength=len(ids)).cumsum().tolist()
        self._adjacency = tuple(tuple(nbrs[a:b]) for a, b in zip([0, *stops], stops))

        self._check_connected()
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
        return self._adjacency[i]

    def _check_connected(self) -> None:
        reached = {0}
        queue = deque([0])
        while queue:
            for w in self._adjacency[queue.popleft()]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        if len(reached) < self.n:
            far = min(set(range(self.n)) - reached)
            raise DisconnectedGraphError(self.vertex_ids[0], self.vertex_ids[far])

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
    """Endpoint indices (-1 if unknown) and weights of an edge list, and its first fault.

    The fault is None or ``(k, check)``: edge ``k`` is the first to fail one of ``EDGE_CHECKS``,
    each run on all edges at once, and ``check`` the first it fails, as a loop over edges finds.
    """
    n = len(index)
    tails = [index.get(a, -1) for a in ends_a]
    heads = [index.get(b, -1) for b in ends_b]
    keys = [i * n + j if i < j else j * n + i for i, j in zip(tails, heads)]  # < 0 if unknown
    weight = np.array(weights, dtype=float)
    bad_weight = ~(np.isfinite(weight) & (weight > 0.0))
    if min(keys, default=0) >= 0 and not any(map(eq, tails, heads)) and len(set(keys)) == len(keys):
        if not np.count_nonzero(bad_weight):
            return tails, heads, weight, None
    repeats = np.ones(len(keys), dtype=bool)  # every edge but the first of its pair
    repeats[np.unique(keys, return_index=True)[1]] = False
    # one row per check, one column per edge
    failing = np.array([[key < 0 for key in keys], list(map(eq, tails, heads)), repeats, bad_weight])
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
    u = as_field(g, u)
    out = np.zeros(g.n)
    diff = g.edge_weight * (u[g.edge_head] - u[g.edge_tail])
    np.add.at(out, g.edge_tail, diff)
    np.add.at(out, g.edge_head, -diff)
    return out / g.mu


def laplacian_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense matrix L with L @ u == laplacian(g, u)."""
    i, j = g.edge_tail, g.edge_head
    to_i, to_j = g.edge_weight / g.mu[i], g.edge_weight / g.mu[j]
    # each edge adds at (i,j), (j,i), (i,i), (j,j) in turn, and np.add.at adds in
    # sequence, so every diagonal entry sums its terms in edge order
    rows = np.stack((i, j, i, j), axis=1).ravel()
    cols = np.stack((j, i, i, j), axis=1).ravel()
    mat = np.zeros((g.n, g.n))
    np.add.at(mat, (rows, cols), np.stack((to_i, to_j, -to_i, -to_j), axis=1).ravel())
    return mat


def gradient_norm_sq(g: WeightedGraph, u: Sequence[float] | np.ndarray) -> np.ndarray:
    """Squared gradient length: (1/(2 mu)) sum of w * squared differences."""
    u = as_field(g, u)
    out = np.zeros(g.n)
    sq = g.edge_weight * (u[g.edge_head] - u[g.edge_tail]) ** 2
    np.add.at(out, g.edge_tail, sq)
    np.add.at(out, g.edge_head, sq)
    return out / (2.0 * g.mu)


def integrate(g: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Integral of a vertex field against the vertex measure."""
    return float(np.dot(g.mu, as_field(g, f)))


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

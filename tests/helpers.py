"""Shared test fixtures: graph generators and independent oracles.

The oracles deliberately avoid the library's vectorized code paths: they
loop over raw edge lists, use scalar math, and exist so expected values in
tests are computed along a second, independent route.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from tzgraph import Kind, ProblemSpec, WeightedGraph


# ---------------------------------------------------------------------------
# generators


def random_graph_data(
    rng: np.random.Generator,
    n: int,
    extra_edge_prob: float = 0.35,
    weight_range: tuple[float, float] = (0.5, 2.0),
):
    """Raw data for a random connected graph: labels, measures, edge list."""
    ids = [f"v{i}" for i in range(n)]
    mu = rng.uniform(0.5, 2.0, n).tolist()
    w_lo, w_hi = weight_range
    edges = []
    present = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((ids[i], ids[j], float(rng.uniform(w_lo, w_hi))))
        present.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < extra_edge_prob:
                edges.append((ids[i], ids[j], float(rng.uniform(w_lo, w_hi))))
                present.add((i, j))
    return {"ids": ids, "mu": mu, "edges": edges}


def build_graph(data) -> WeightedGraph:
    return WeightedGraph(data["ids"], data["mu"], data["edges"])


def random_graph(rng: np.random.Generator, n: int, **kw) -> WeightedGraph:
    return build_graph(random_graph_data(rng, n, **kw))


def k2(mu=(1.0, 1.0), w=1.0) -> WeightedGraph:
    return WeightedGraph(["a", "b"], list(mu), [("a", "b", w)])


def path3(mu=(1.0, 2.0, 1.0), w=(1.0, 3.0)) -> WeightedGraph:
    return WeightedGraph(
        ["a", "b", "c"], list(mu), [("a", "b", w[0]), ("b", "c", w[1])]
    )


def classic_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    return ProblemSpec(
        Kind.CLASSIC,
        rng.uniform(0.5, 2.0, n),
        rng.uniform(-2.0, -0.5, n),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(0.5, 2.0)),
    )


def classic_positive_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    return ProblemSpec(
        Kind.CLASSIC,
        rng.uniform(0.5, 2.0, n),
        rng.uniform(0.5, 2.0, n),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(0.5, 2.0)),
    )


def generalized_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    return ProblemSpec(
        Kind.GENERALIZED,
        rng.uniform(0.5, 2.0, n),
        rng.uniform(0.5, 2.0, n),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(0.5, 2.0)),
    )


def branch1_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    """Generalized instance with A*max(h1) < B*min(h2) by a safe margin."""
    return ProblemSpec(
        Kind.GENERALIZED,
        rng.uniform(0.5, 1.0, n),
        rng.uniform(2.2, 4.0, n),
        float(rng.uniform(0.5, 1.0)),
        float(rng.uniform(1.0, 2.0)),
    )


def mirror_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    """Generalized instance with A*min(h1) > B*max(h2) by a safe margin."""
    return ProblemSpec(
        Kind.GENERALIZED,
        rng.uniform(2.2, 4.0, n),
        rng.uniform(0.5, 1.0, n),
        float(rng.uniform(1.0, 2.0)),
        float(rng.uniform(0.5, 1.0)),
    )


# ---------------------------------------------------------------------------
# independent oracles


def laplacian_oracle(data, u):
    """Brute-force per-vertex summation over the raw edge list."""
    ids = data["ids"]
    index = {label: i for i, label in enumerate(ids)}
    out = []
    for xi, x in enumerate(ids):
        total = 0.0
        for a, b, w in data["edges"]:
            if a == x:
                total += w * (u[index[b]] - u[xi])
            elif b == x:
                total += w * (u[index[a]] - u[xi])
        out.append(total / data["mu"][xi])
    return np.array(out)


def gradient_sq_oracle(data, u):
    ids = data["ids"]
    index = {label: i for i, label in enumerate(ids)}
    out = []
    for xi, x in enumerate(ids):
        total = 0.0
        for a, b, w in data["edges"]:
            if a == x:
                total += w * (u[index[b]] - u[xi]) ** 2
            elif b == x:
                total += w * (u[index[a]] - u[xi]) ** 2
        out.append(total / (2.0 * data["mu"][xi]))
    return np.array(out)


def integrate_oracle(data, f):
    return sum(m * v for m, v in zip(data["mu"], f))


def pointwise_value(spec: ProblemSpec, vertex: int, c: float) -> float:
    """Scalar nonlinearity at one vertex, recomputed with math.exp."""
    h1 = float(spec.h1[vertex])
    h2 = float(spec.h2[vertex])
    e_up = math.exp(spec.A * c)
    e_dn = math.exp(-spec.B * c)
    if spec.kind is Kind.CLASSIC:
        return h1 * e_up + h2 * e_dn
    return h1 * e_up * (e_up - 1.0) + h2 * e_dn * (e_dn - 1.0)


def residual_oracle(data, spec: ProblemSpec, u):
    lap = laplacian_oracle(data, u)
    return np.array(
        [-lap[x] + pointwise_value(spec, x, float(u[x])) for x in range(len(u))]
    )


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    f_lo = f(lo)
    f_hi = f(hi)
    assert f_lo * f_hi < 0.0, "bisection bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def constant_root_oracle(spec: ProblemSpec, lo: float, hi: float) -> float:
    """Root of the pointwise equation for constant-coefficient instances."""
    assert float(spec.h1.max()) == float(spec.h1.min())
    assert float(spec.h2.max()) == float(spec.h2.min())
    return bisect_root(lambda c: pointwise_value(spec, 0, c), lo, hi)


def classic_sweep_oracle(data, spec: ProblemSpec, sweeps: int = 2000, tol: float = 1e-12):
    """Per-vertex monotone bisection sweeps for the classic equation, h2 < 0.

    With h2 < 0 the single-vertex update equation is strictly increasing in
    the unknown, so each inner solve is a clean bisection and the sweep is
    a nonlinear Gauss-Seidel iteration, fully independent of the Newton
    path it cross-checks.
    """
    ids = data["ids"]
    index = {label: i for i, label in enumerate(ids)}
    n = len(ids)
    neighbor_weights = [[] for _ in range(n)]
    for a, b, w in data["edges"]:
        neighbor_weights[index[a]].append((index[b], w))
        neighbor_weights[index[b]].append((index[a], w))

    u = [0.0] * n
    for _ in range(sweeps):
        change = 0.0
        for x in range(n):
            mu_x = data["mu"][x]

            def g(c):
                flux = sum(w * (u[y] - c) for y, w in neighbor_weights[x])
                return -flux / mu_x + pointwise_value(spec, x, c)

            lo, hi = -1.0, 1.0
            while g(lo) > 0.0:
                lo *= 2.0
            while g(hi) < 0.0:
                hi *= 2.0
            new = bisect_root(g, lo, hi, iters=100)
            change = max(change, abs(new - u[x]))
            u[x] = new
        if change < tol:
            break
    return np.array(u)


def diameter_oracle(g: WeightedGraph) -> int:
    """Largest shortest-path edge count, by a breadth-first search from every vertex."""
    best = 0
    for source in range(g.n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


def lu_oracle(a, pivot_rtol: float = 1e-12):
    """Partial-pivoted elimination in Python: (lu, perm, parity, singular).

    Numerically singular when a pivot falls below ``pivot_rtol`` times the
    infinity norm of the matrix.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    threshold = pivot_rtol * (float(np.max(np.sum(np.abs(a), axis=1))) if n else 0.0)
    perm = np.arange(n)
    parity = 1
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) <= threshold:
            return a, perm, parity, True
        if p != k:
            a[[k, p]] = a[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            parity = -parity
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a, perm, parity, False


def lu_solve_oracle(a, b):
    """Solve A x = b by forward and back substitution on ``lu_oracle``."""
    lu, perm, _, singular = lu_oracle(a)
    assert not singular
    n = lu.shape[0]
    x = np.asarray(b, dtype=float)[perm].copy()
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def det_sign_oracle(a) -> int:
    """Sign of det(A) from ``lu_oracle``: the permutation parity times the signs of U's diagonal."""
    lu, _, parity, singular = lu_oracle(a)
    if singular:
        return 0
    return int(parity * np.prod(np.sign(np.diag(lu))))


def fd_jacobian(fun, u, tau: float = 1e-6):
    n = len(u)
    base = np.asarray(fun(u))
    out = np.zeros((len(base), n))
    for x in range(n):
        bump = np.zeros(n)
        bump[x] = tau
        out[:, x] = (np.asarray(fun(u + bump)) - np.asarray(fun(u - bump))) / (2 * tau)
    return out


def fd_gradient(fun, u, tau: float = 1e-6):
    n = len(u)
    out = np.zeros(n)
    for x in range(n):
        bump = np.zeros(n)
        bump[x] = tau
        out[x] = (fun(u + bump) - fun(u - bump)) / (2 * tau)
    return out

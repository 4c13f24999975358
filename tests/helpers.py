"""Shared test fixtures: graph generators and independent oracles.

The oracles deliberately avoid the library's vectorized code paths: they
loop over raw edge lists, use scalar math, and exist so expected values in
tests are computed along a second, independent route.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from tzgraph import Kind, ProblemSpec, WeightedGraph, average, residual
from tzgraph.cli import GraphDocument
from tzgraph.errors import DisconnectedGraphError, GraphConstructionError, ParseError


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


# malformed graph files: each maker returns the text of a file that fails
# validation, every one but the disconnected three-vertex file while parsing
MALFORMED_MAKERS = (
    lambda r: "vertex a 1 1 -1\nvertex a 1 1 -1\n",
    lambda r: f"vertex a {-r.uniform(0.1, 5):.3f} 1 -1\n",
    lambda r: "vertex a 1 1 -1\nedge a ghost 1\n",
    lambda r: "".join(chr(int(c)) for c in r.integers(33, 500, 30)) + "\n",
    lambda r: "vertex a 1 1 -1\nvertex b 1 1 -1\nedge a b 0\n",
    lambda r: "vertex a 1 1 -1\nvertex b 1 1 -1\nedge a b 1\nedge b a 1\n",
    lambda r: "vertex a 1 1 -1\nedge a a 1\n",
    lambda r: "vertex a 1 1 -1\nvertex b 1 1 -1\nvertex c 1 1 -1\nedge a b 1\n",
    lambda r: "vertex a 1 one -1\n",
    lambda r: "vertex a 1 1\n",
    lambda r: "record x y z\n",
    lambda r: "vertex a nan 1 -1\n",
    lambda r: "",
    lambda r: "edge a b 1\nvertex a 1 1 -1\nvertex b 1 1 -1\nedge a b 2\n",
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


def laplacian_matrix_oracle(g: WeightedGraph) -> np.ndarray:
    """The edge loop that built ``laplacian_matrix`` before it was vectorised."""
    n = g.n
    mat = np.zeros((n, n))
    for i, j, w in zip(g.edge_tail, g.edge_head, g.edge_weight):
        mat[i, j] += w / g.mu[i]
        mat[j, i] += w / g.mu[j]
        mat[i, i] -= w / g.mu[i]
        mat[j, j] -= w / g.mu[j]
    return mat


def _exponentials_oracle(spec: ProblemSpec, u):
    return np.exp(spec.A * u), np.exp(-spec.B * u)


def residual_formula_oracle(spec: ProblemSpec, g: WeightedGraph, u, hp=None):
    """The residual formulas as the public functions wrote them out before the
    shared kernel: ``hp=None`` is ``residual``, otherwise ``residual_homotopy``."""
    u = np.asarray(u, dtype=float)
    e_up, e_dn = _exponentials_oracle(spec, u)
    if hp is None:
        if spec.kind is Kind.CLASSIC:
            nonlinear = spec.h1 * e_up + spec.h2 * e_dn
        else:
            nonlinear = spec.h1 * e_up * np.expm1(spec.A * u) + spec.h2 * e_dn * np.expm1(
                -spec.B * u
            )
    elif spec.kind is Kind.CLASSIC:
        c1 = hp.t * hp.epsilon + (1.0 - hp.t) * spec.h1
        c2 = -hp.t * hp.epsilon + (1.0 - hp.t) * spec.h2
        nonlinear = c1 * e_up + c2 * e_dn
    else:
        nonlinear = spec.h1 * e_up * (np.expm1(spec.A * u) + (1.0 - hp.t)) + (
            spec.h2 * e_dn * (np.expm1(-spec.B * u) + (1.0 - hp.t))
        )
    return g.neg_laplacian() @ u + nonlinear


def jacobian_formula_oracle(spec: ProblemSpec, g: WeightedGraph, u, hp=None):
    """``jacobian`` (``hp=None``) and ``jacobian_homotopy`` as written out before the shared kernel."""
    u = np.asarray(u, dtype=float)
    e_up, e_dn = _exponentials_oracle(spec, u)
    t = (0.0 if spec.kind is Kind.CLASSIC else 1.0) if hp is None else hp.t
    if spec.kind is Kind.CLASSIC:
        c1, c2 = spec.h1, spec.h2
        if hp is not None:
            c1 = t * hp.epsilon + (1.0 - t) * spec.h1
            c2 = -t * hp.epsilon + (1.0 - t) * spec.h2
        diag = spec.A * c1 * e_up - spec.B * c2 * e_dn
    else:
        diag = spec.h1 * spec.A * e_up * (2.0 * e_up - t) + (
            spec.h2 * spec.B * e_dn * (t - 2.0 * e_dn)
        )
    mat = g.neg_laplacian().copy()
    mat[np.diag_indices_from(mat)] += diag
    return mat


def deflation_terms_oracle(u, known):
    """Deflation multiplier prod_k(1 + 1/||u-u_k||^2) and its gradient, both built on every call."""
    factor = 1.0
    grad = np.zeros_like(u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for root in known:
            diff = u - root
            d2 = float(np.dot(diff, diff))
            if d2 == 0.0:
                return math.inf, grad
            factor *= 1.0 + 1.0 / d2
            grad += -2.0 * diff / (d2 * d2 + d2)
    return factor, factor * grad


def deflated_jacobian_oracle(fun, jac_fun, known, u):
    """Jacobian of the deflated residual with ``F(u)`` evaluated afresh."""
    factor, grad = deflation_terms_oracle(u, known)
    return factor * jac_fun(u) + np.outer(fun(u), grad)


def graph_arrays_oracle(vertex_ids, mu, edges):
    """The edge-by-edge loop that built ``WeightedGraph`` before the bulk checks.

    Raises what the constructor raised; otherwise returns the edge arrays
    and the adjacency lists it stored.
    """
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

    tails, heads, weights = [], [], []
    seen = set()
    for a, b, w in edges:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise GraphConstructionError(f"edge references unknown vertex {missing!r}")
        i, j = index[a], index[b]
        if i == j:
            raise GraphConstructionError(f"self-loop at vertex {a!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphConstructionError(f"duplicate edge {a!r}-{b!r}")
        seen.add(key)
        w = float(w)
        if not np.isfinite(w) or w <= 0.0:
            raise GraphConstructionError(f"edge {a!r}-{b!r} has nonpositive weight")
        tails.append(i)
        heads.append(j)
        weights.append(w)

    adjacency = [[] for _ in ids]
    for i, j in zip(tails, heads):
        adjacency[i].append(j)
        adjacency[j].append(i)
    reached = {0}
    queue = deque([0])
    while queue:
        for w in adjacency[queue.popleft()]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) < len(ids):
        far = min(set(range(len(ids))) - reached)
        raise DisconnectedGraphError(ids[0], ids[far])
    return {
        "edge_tail": np.asarray(tails, dtype=int),
        "edge_head": np.asarray(heads, dtype=int),
        "edge_weight": np.asarray(weights, dtype=float),
        "adjacency": tuple(tuple(nbrs) for nbrs in adjacency),
    }


def _parse_number_oracle(token, line, what):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line)
    return value


def parse_graph_oracle(path) -> GraphDocument:
    """``cli.parse_graph`` as it was written before the bulk edge checks: one loop per line, then one per edge."""
    try:
        text = open(path, "rb").read().decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("file is not valid UTF-8") from None

    vertices = []
    seen = {}
    pending_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 5:
                raise ParseError(
                    f"vertex record needs 'vertex <label> <mu> <h1> <h2>', got {len(tokens) - 1} fields",
                    lineno,
                )
            label = tokens[1]
            if label in seen:
                raise ParseError(f"duplicate vertex {label!r} (first declared on line {seen[label]})", lineno)
            mu = _parse_number_oracle(tokens[2], lineno, "vertex measure")
            if mu <= 0.0:
                raise ParseError(f"vertex measure must be positive, got {mu:g}", lineno)
            h1 = _parse_number_oracle(tokens[3], lineno, "h1 value")
            h2 = _parse_number_oracle(tokens[4], lineno, "h2 value")
            seen[label] = lineno
            vertices.append((label, mu, h1, h2))
        elif kind == "edge":
            if len(tokens) != 4:
                raise ParseError(
                    f"edge record needs 'edge <labelA> <labelB> <weight>', got {len(tokens) - 1} fields",
                    lineno,
                )
            pending_edges.append((lineno, tokens[1:]))
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno)

    if not vertices:
        raise ParseError("file declares no vertices")

    edges = []
    used = set()
    for lineno, (a, b, w_token) in pending_edges:
        for endpoint in (a, b):
            if endpoint not in seen:
                raise ParseError(f"edge endpoint {endpoint!r} is not a declared vertex", lineno)
        if a == b:
            raise ParseError(f"self-loop at vertex {a!r}", lineno)
        key = frozenset((a, b))
        if key in used:
            raise ParseError(f"duplicate edge {a!r}-{b!r}", lineno)
        used.add(key)
        w = _parse_number_oracle(w_token, lineno, "edge weight")
        if w <= 0.0:
            raise ParseError(f"edge weight must be positive, got {w:g}", lineno)
        edges.append((a, b, w))
    return GraphDocument(vertices, edges)


def mean_constant_root_oracle(spec: ProblemSpec, g: WeightedGraph, lo: float, hi: float) -> float:
    """``solvers._mean_constant_root`` as it was before it ran on the kernel:
    a bisection of ``average(g, residual(...))`` on constant fields."""
    f_lo = average(g, residual(spec, g, np.full(g.n, lo)))
    f_hi = average(g, residual(spec, g, np.full(g.n, hi)))
    if f_lo * f_hi >= 0.0:
        return 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = average(g, residual(spec, g, np.full(g.n, mid)))
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)

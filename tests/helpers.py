"""Shared test fixtures: graph generators and independent oracles.

The oracles deliberately avoid the library's vectorized code paths: they
loop over raw edge lists, use scalar math, and exist so expected values in
tests are computed along a second, independent route.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import replace
from typing import Callable

import numpy as np

from tzgraph import (
    HomotopyParams,
    Kind,
    ProblemSpec,
    WeightedGraph,
    average,
    bounds_classic,
    bounds_generalized,
    continuation,
    default_epsilon,
    default_t_grid,
    degree,
    elliptic_constant,
    energy,
    energy_gradient,
    gradient_norm_sq,
    integrate,
    jacobian,
    jacobian_homotopy,
    laplacian,
    linalg,
    residual,
)
from tzgraph.cli import GraphDocument, _float_token, _Parser
from tzgraph.errors import (
    DegenerateRootError,
    DisconnectedGraphError,
    ExponentOverflowError,
    GraphConstructionError,
    ParseError,
)
from tzgraph.solvers import (
    _ARMIJO,
    _MIN_STEP,
    _SHRINK,
    BarrierPair,
    SolveReport,
    SolverConfig,
    _deflated_system,
    _freeze,
    _row_dots,
    _safe_eval,
)


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


def adjacency_oracle(g: WeightedGraph) -> list[list[int]]:
    """Each vertex's neighbours, ascending, by a loop over the edge list."""
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in zip(g.edge_tail.tolist(), g.edge_head.tolist()):
        adjacency[i].append(j)
        adjacency[j].append(i)
    return [sorted(nbrs) for nbrs in adjacency]


def diameter_oracle(g: WeightedGraph) -> int:
    """Largest shortest-path edge count, by a breadth-first search from every vertex."""
    adjacency = adjacency_oracle(g)
    best = 0
    for source in range(g.n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
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


def det_sign_factored_oracle(a) -> int:
    """``linalg.det_sign`` before its dominance certificate: it factors every matrix."""
    if linalg.lu_factor(a).singular:
        return 0
    return int(np.linalg.slogdet(a)[0])


def row_dominant_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly row-dominant matrix with margins of 1e-14 to 2 times each row's
    off-diagonal magnitude sum; a quarter of them get random diagonal signs."""
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 1.0))
    np.fill_diagonal(a, 0.0)
    rows = np.abs(a).sum(axis=1)
    rows[rows == 0.0] = 1.0
    diag = rows * (1.0 + 10.0 ** rng.uniform(-14.0, 0.0) * rng.uniform(1.0, 2.0, n))
    if rng.random() < 0.25:
        diag *= rng.choice([-1.0, 1.0], n)
    return a + np.diag(diag)


def varah_bound(a) -> float:
    """``n ||A||_1 / min_i (a_ii - sum_{j != i} |a_ij|)``, with exactly rounded row sums."""
    n = len(a)
    margins = [a[i, i] - math.fsum(abs(x) for j, x in enumerate(a[i]) if j != i) for i in range(n)]
    return n * max(math.fsum(np.abs(a[:, j])) for j in range(n)) / min(margins)


def varah_edge_matrix(rng: np.random.Generator, n: int, ratio: float) -> np.ndarray:
    """Row-dominant matrix with a positive diagonal whose Varah bound is about
    ``ratio`` times ``linalg._VARAH_LIMIT``: every row has the same margin m,
    and m is the fixed point of ``m = n ||A(m)||_1 / (ratio * limit)``.  Needs
    n >= 2: at n = 1 the bound is 1."""
    a = -np.abs(rng.normal(size=(n, n)))
    np.fill_diagonal(a, 0.0)
    rows = np.abs(a).sum(axis=1)
    margin = 1.0
    for _ in range(8):
        b = a + np.diag(rows + margin)
        margin = n * float(np.abs(b).sum(axis=0).max()) / (ratio * linalg._VARAH_LIMIT)
    return a + np.diag(rows + margin)


def classic_neg_stage_jacobians(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """The Jacobian at the solution of every stage of a continuation on a
    random classic instance with h2 < 0."""
    g, spec = random_graph(rng, n), classic_spec(rng, n)
    grid = default_t_grid()
    reports = continuation(spec, g, grid, SolverConfig())
    return [
        jacobian_homotopy(spec, g, r.solution, HomotopyParams(float(t)))
        for t, r in zip(grid, reports)
    ]


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


def laplacian_matrix_add_at_oracle(g: WeightedGraph) -> np.ndarray:
    """``laplacian_matrix`` as it was before the direct assignment: one ``np.add.at`` that
    adds each edge's four entries at (i, j), (j, i), (i, i) and (j, j), in edge order."""
    i, j = g.edge_tail, g.edge_head
    to_i, to_j = g.edge_weight / g.mu[i], g.edge_weight / g.mu[j]
    rows = np.stack((i, j, i, j), axis=1).ravel()
    cols = np.stack((j, i, i, j), axis=1).ravel()
    mat = np.zeros((g.n, g.n))
    np.add.at(mat, (rows, cols), np.stack((to_i, to_j, -to_i, -to_j), axis=1).ravel())
    return mat


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
        eps = default_epsilon(spec)
        c1 = hp.t * eps + (1.0 - hp.t) * spec.h1
        c2 = -hp.t * eps + (1.0 - hp.t) * spec.h2
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
            eps = default_epsilon(spec)
            c1 = t * eps + (1.0 - t) * spec.h1
            c2 = -t * eps + (1.0 - t) * spec.h2
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


def deflated_system_oracle(fun, jac_fun, known):
    """The deflated system as it was before the step scale: ``M F`` and its full Jacobian.

    Returns ``(dfun, djac, None)`` in the shape of ``solvers._deflated_system``,
    so that ``_newton_system`` factors the deflated Jacobian at every step.
    """
    if not known:
        return fun, jac_fun, None

    def dfun(u):
        factor, _ = deflation_terms_oracle(u, known)
        if not math.isfinite(factor):
            return np.full_like(u, math.inf)
        return factor * fun(u)

    return dfun, lambda u: deflated_jacobian_oracle(fun, jac_fun, known, u), None


def deflated_newton_oracle(fun, jac_fun, known, start, cfg, **kwargs):
    """Deflated Newton on the deflated Jacobian, with no step scale; signs from ``jac_fun``."""
    dfun, djac, _ = deflated_system_oracle(fun, jac_fun, known)
    return newton_system_oracle(dfun, djac, start, cfg, sign_jac_fun=jac_fun, true_fun=fun, **kwargs)


def newton_system_oracle(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    cfg: SolverConfig,
    *,
    sign_jac_fun: Callable[[np.ndarray], np.ndarray] | None = None,
    true_fun: Callable[[np.ndarray], np.ndarray] | None = None,
    escape_radius: float | None = None,
    step_scale: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> SolveReport:
    """``solvers._newton_system`` as it was while it took ``sign_jac_fun``.

    Armijo backtracking on the squared 2-norm of the residual times a power of two;
    a step matrix with condition number >= 1/PIVOT_RTOL aborts with ``jac_sign=0``.
    With ``step_scale``, ``fun`` is a deflated residual ``M F`` and ``jac_fun``
    the Jacobian of ``F``: the step solves ``J s = -M F`` and is divided by
    ``step_scale(u, s)``, which makes it the Newton step of ``M F``; a divisor
    that is zero or not finite aborts like a singular matrix.
    ``true_fun`` certifies a deflated solve against the undeflated residual;
    ``sign_jac_fun`` takes the determinant sign when ``jac_fun`` is not ``F``'s.
    """
    sign_jac = sign_jac_fun or jac_fun
    u = np.array(start, dtype=float)
    # overflow and inf * 0 in a wild trial only make its merit inf or nan,
    # which fails the Armijo test
    with np.errstate(over="ignore", invalid="ignore"):
        r = _safe_eval(fun, u)
        if r is None:
            return SolveReport(_freeze(u), math.inf, 0, 0, False, (math.inf,))
        norm = float(np.max(np.abs(r)))
        history = [norm]
        iterations = 0
        failed = False
        prev_alpha = 1.0
        stalled = 0

        while norm >= cfg.tol:
            if iterations >= cfg.max_iter:
                failed = True
                break
            jac_value = _safe_eval(jac_fun, u)
            if jac_value is None:
                failed = True
                break
            factors = linalg.lu_factor(jac_value)
            if factors.singular:
                return SolveReport(_freeze(u), norm, iterations, 0, False, tuple(history))
            step = linalg.lu_solve(factors, -r)
            if step_scale is not None:
                divisor = step_scale(u, step)
                if divisor == 0.0 or not math.isfinite(divisor):
                    return SolveReport(_freeze(u), norm, iterations, 0, False, tuple(history))
                step /= divisor
            # scaling by a power of two is exact and keeps the merit finite
            scale = math.ldexp(1.0, -math.frexp(norm)[1])
            phi0 = float(np.dot(scale * r, scale * r))
            alpha = 1.0
            accepted = False
            while alpha >= _MIN_STEP:
                trial = u + alpha * step
                try:
                    r_trial = fun(trial)
                except ExponentOverflowError:
                    pass
                else:
                    scaled = scale * r_trial
                    if float(np.dot(scaled, scaled)) <= (1.0 - 2.0 * _ARMIJO * alpha) * phi0:
                        u, r = trial, r_trial
                        accepted = True
                        break
                # the full and half steps are always tried; after that, resume
                # near the previously accepted length instead of re-walking down
                if alpha == _SHRINK and 2.0 * prev_alpha < alpha * _SHRINK:
                    alpha = 2.0 * prev_alpha
                else:
                    alpha *= _SHRINK
            if not accepted:
                failed = True
                break
            prev_alpha = alpha
            iterations += 1
            new_norm = float(np.max(np.abs(r)))
            # crawling lines (sub-0.1% progress) cannot reach tolerance within
            # any reasonable budget; cut them off early
            stalled = stalled + 1 if new_norm > 0.999 * norm else 0
            norm = new_norm
            history.append(norm)
            if stalled >= 12:
                failed = True
                break
            if escape_radius is not None and float(np.max(np.abs(u))) > escape_radius:
                failed = True
                break
            if norm > 1e12:
                failed = True
                break

        if true_fun is not None:
            r_true = _safe_eval(true_fun, u)
            norm = float(np.max(np.abs(r_true))) if r_true is not None else math.inf

        converged = not failed and norm < cfg.tol
        jac_sign = 0
        if converged:
            final_jac = _safe_eval(sign_jac, u)
            if final_jac is None:
                converged = False
            else:
                jac_sign = linalg.det_sign(final_jac)
                if jac_sign == 0:
                    converged = False
    return SolveReport(_freeze(u), norm, iterations, jac_sign, converged, tuple(history))


def van_der_corput_oracle(index: int, base: int) -> float:
    """Radical inverse of one index, digit by digit; an index below 1 maps to 0."""
    x = 0.0
    f = 1.0 / base
    while index > 0:
        x += (index % base) * f
        index //= base
        f /= base
    return x


def halton_ball_oracle(dim: int, count: int, radius: float, seed: int = 0) -> np.ndarray:
    """``linalg.halton_ball`` as a loop over points, one radical inverse at a time."""
    if count <= 0:
        return np.zeros((0, dim))
    offset = 1 + seed * count
    points = np.empty((count, dim))
    for j, base in enumerate(linalg.first_primes(dim)):
        points[:, j] = [van_der_corput_oracle(offset + i, base) for i in range(count)]
    return radius * (2.0 * points - 1.0)


def probe_offsets_oracle(dim: int) -> list[np.ndarray]:
    """The enumerator's probe offsets: the constant 1 and each coordinate, both signs, as sorted tuples."""
    offsets: list[np.ndarray] = [np.ones(dim), -np.ones(dim)]
    for x in range(dim):
        bump = np.zeros(dim)
        bump[x] = 1.0
        offsets.extend((bump, -bump))
    unique = {tuple(o) for o in offsets}
    return [np.array(o) for o in sorted(unique)]


def central_difference_oracle(fun, u, tau: float = 1e-6) -> np.ndarray:
    """``cli._central_difference`` as it was written twice: one unit vector per column."""
    n = u.size
    rows = []
    for x in range(n):
        bump = tau * np.eye(n)[x]
        rows.append((fun(u + bump) - fun(u - bump)) / (2 * tau))
    return np.array(rows)


def field_audits_oracle(spec: ProblemSpec, g: WeightedGraph, seed: int) -> list[tuple]:
    """``cli._field_audits`` as it was written: one field at a time through the public, validating
    functions, with a column scale alone in ``jacobian_fd``; ``(name, passed, detail)`` records."""
    rng = np.random.default_rng(seed)
    n = g.n
    total_weight = float(g.edge_weight.sum())
    checks = []

    worst = 0.0
    for _ in range(20):
        u = rng.normal(0.0, 0.75, n)
        bound = 1e-10 * (1.0 + float(np.maximum.reduce(np.abs(u))) * total_weight)
        worst = max(worst, abs(integrate(g, laplacian(g, u))) / bound)
    checks.append(("divergence_identity", worst <= 1.0, f"worst ratio {worst:.3e}"))

    worst = 0.0
    for _ in range(20):
        u = rng.normal(0.0, 0.75, n)
        lhs = integrate(g, gradient_norm_sq(g, u))
        rhs = -integrate(g, u * laplacian(g, u))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    checks.append(("integration_by_parts", worst <= 1e-10, f"worst relative gap {worst:.3e}"))

    c_elliptic = elliptic_constant(g)
    violations = 0
    for _ in range(50):
        u = rng.normal(0.0, 1.0, n)
        spread = float(u.max() - u.min())
        if spread > c_elliptic * float(np.maximum.reduce(np.abs(laplacian(g, u)))) + 1e-12:
            violations += 1
    checks.append(("elliptic_estimate", violations == 0, f"{violations} violations over 50 fields"))

    worst = 0.0
    for _ in range(2):
        u = rng.normal(0.0, 0.4, n)
        jac = jacobian(spec, g, u)
        for x, column in enumerate(central_difference_oracle(lambda v: residual(spec, g, v), u)):
            scale = max(float(np.maximum.reduce(np.abs(jac[:, x]))), 1.0)
            worst = max(worst, float(np.maximum.reduce(np.abs(column - jac[:, x]))) / scale)
    checks.append(("jacobian_fd", worst <= 5e-5, f"worst relative error {worst:.3e}"))

    if spec.kind is Kind.CLASSIC and np.all(spec.h2 >= 0.0):
        worst_integral = math.inf
        for _ in range(100):
            u = rng.normal(0.0, 1.0, n)
            worst_integral = min(worst_integral, integrate(g, residual(spec, g, u)))
        detail = f"smallest residual integral {worst_integral:.3e}"
        checks.append(("integral_obstruction", worst_integral > 0.0, detail))

    if spec.kind is Kind.GENERALIZED and np.all(spec.h2 > 0.0):
        worst = 0.0
        for _ in range(20):
            u = rng.normal(0.0, 0.4, n)
            grad = energy_gradient(spec, g, u)
            fd = central_difference_oracle(lambda v: energy(spec, g, v), u) / g.mu
            scale = max(float(np.maximum.reduce(np.abs(grad))), 1e-8)
            worst = max(worst, float(np.maximum.reduce(np.abs(fd - grad))) / scale)
        checks.append(("energy_gradient_fd", worst <= 1e-5, f"worst relative error {worst:.3e}"))
    return checks


def enumerate_signed_roots_oracle(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    dim: int,
    radius: float,
    cfg: SolverConfig,
    n_starts: int,
    deflate=_deflated_system,
    newton=newton_system_oracle,
) -> tuple[list[np.ndarray], list[int], int]:
    """``degree._enumerate_signed_roots`` before the block screen: one start at a time.

    ``deflate`` builds the deflated system and ``newton`` runs it, in the
    shapes of ``solvers._deflated_system`` and ``newton_system_oracle``.

    Wave one: low-discrepancy starts at several scales.  Wave two, around
    every discovered root with that root deflated away: coordinate and
    constant offsets, plus a ladder of offsets along the near-singular
    eigendirection of the root's Jacobian, which is where an annihilation
    partner hides near a fold.  Returns the roots, their determinant
    signs, and the number of Newton runs spent.
    """
    starts = [np.zeros(dim)]
    if n_starts > 1:
        points = linalg.halton_ball(dim, n_starts - 1, radius, cfg.seed)
        starts.extend(p * degree._START_SCALES[i % len(degree._START_SCALES)] for i, p in enumerate(points))
    escape = max(8.0 * radius, 10.0)
    # enumeration runs are throwaway probes: converging runs need far fewer
    # than the configured solver budget, so failing ones get cut off sooner
    run_cfg = replace(cfg, max_iter=min(cfg.max_iter, 60))
    roots: list[np.ndarray] = []
    signs: list[int] = []
    runs = 0

    def try_start(start: np.ndarray) -> np.ndarray | None:
        nonlocal runs
        runs += 1
        dfun, jac, step_scale = deflate(fun, jac_fun, roots)
        report = newton(
            dfun,
            jac,
            start,
            run_cfg,
            true_fun=fun,
            escape_radius=escape,
            step_scale=step_scale,
        )
        if report.residual_norm >= cfg.tol:
            return None
        u = np.array(report.solution)
        if float(np.max(np.abs(u))) >= radius:
            return None
        if roots:
            closest = min(float(np.max(np.abs(u - r))) for r in roots)
            if closest <= degree.DEDUP_RADIUS:
                if closest > cfg.deflation_radius:
                    warnings.warn(
                        f"two roots within {closest:.2e} sup-distance merged",
                        stacklevel=3,
                    )
                return None
        sign = report.jac_sign
        if sign == 0:
            sign = linalg.det_sign(jac_fun(u))
        if sign == 0:
            raise DegenerateRootError(
                "a root has a numerically singular Jacobian; the degree is "
                "undefined at this tolerance"
            )
        roots.append(u)
        signs.append(sign)
        return u

    probe_queue: list[np.ndarray] = []
    for start in starts:
        found = try_start(start)
        if found is not None:
            probe_queue.append(found)

    offsets = probe_offsets_oracle(dim)

    def fold_direction(center: np.ndarray) -> np.ndarray | None:
        try:
            jac = np.asarray(jac_fun(center), dtype=float)
            eigenvalues, eigenvectors = np.linalg.eig(jac)
        except (ExponentOverflowError, np.linalg.LinAlgError):
            return None
        vector = np.real(eigenvectors[:, int(np.argmin(np.abs(eigenvalues)))])
        peak = float(np.max(np.abs(vector)))
        return vector / peak if peak > 0.0 else None

    probed = 0
    while probe_queue and probed < degree._MAX_PROBED_ROOTS:
        center = probe_queue.pop(0)
        probed += 1
        for scale in degree._PROBE_SCALES:
            for offset in offsets:
                found = try_start(center + scale * radius * offset)
                if found is not None:
                    probe_queue.append(found)
        direction = fold_direction(center)
        if direction is None:
            continue
        distances = [4.0 * degree.DEDUP_RADIUS] + [s * radius for s in degree._FOLD_RELATIVE_SCALES]
        for distance in distances:
            for orientation in (1.0, -1.0):
                found = try_start(center + orientation * distance * direction)
                if found is not None:
                    probe_queue.append(found)
    return roots, signs, runs



def newton_block_oracle(fun, jac_fun, starts, cfg, known, escape_radius):
    """``solvers._newton_block`` before the lanes: every row of the block steps at once.

    Row ``i`` makes, bit for bit, the run ``_newton_system`` makes from ``starts[i]`` on
    ``_deflated_system(..., known)`` with ``true_fun`` and ``escape_radius``.  A row passes if
    its run ends with the undeflated residual below ``cfg.tol``.  The root of the first row
    that passes would deflate the rows after it, so they stop: returns the final iterates,
    iteration counts and pass flags of the rows up to that one, or of all rows.
    """
    u = np.array(starts, dtype=float)
    k, n = u.shape
    roots = np.reshape(known, (len(known), n))
    iterations, stalled = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    prev_alpha, passed = np.ones(k), np.zeros(k, dtype=bool)

    def deflation(x):
        diff = x[:, None, :] - roots
        d2 = _row_dots(diff, diff)
        factor = np.ones(len(x))
        for d2_root in d2.T:
            factor *= 1.0 + 1.0 / d2_root
        return factor, diff, d2

    def deflated(x):
        value = fun(x)
        return deflation(x)[0][:, None] * value if len(roots) else value

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = deflated(u)
        norm = np.maximum.reduce(np.abs(r), axis=1)
        live = np.isfinite(r).all(axis=1)
        ending = live & (norm < cfg.tol)
        while True:
            live &= ~ending
            if ending.any():
                done = np.flatnonzero(ending)
                passed[done] = np.maximum.reduce(np.abs(fun(u[done])), axis=1) < cfg.tol
                ending[:] = False
                if passed.any():
                    live[np.argmax(passed) + 1 :] = False
            rows = np.flatnonzero(live)
            if not rows.size:
                break
            live[rows] = False
            jac = jac_fun(u[rows])
            bad = ~np.isfinite(jac).all(axis=(1, 2))
            ending[rows[bad]] = True
            inverse, singular = linalg.inverse_block(jac[~bad])
            rows = rows[~bad][~singular]
            step = (inverse[~singular] @ -r[rows][:, :, None])[:, :, 0]
            factor, diff, d2 = deflation(u[rows])
            slope = np.zeros(rows.size)
            for dots, d2_root in zip(_row_dots(diff, step[:, None, :]).T, d2.T):
                slope += -2.0 * dots / (d2_root * d2_root + d2_root)
            divisor = factor - slope
            fine = (divisor != 0.0) & np.isfinite(divisor)
            rows, step = rows[fine], step[fine] / divisor[fine, None]
            scale = np.ldexp(1.0, -np.frexp(norm[rows])[1])
            scaled = scale[:, None] * r[rows]
            phi0 = _row_dots(scaled, scaled)
            alpha, taken = np.ones(rows.size), np.zeros(rows.size)
            search, width = np.arange(rows.size), 1
            while search.size:
                lengths = np.empty((search.size, width))
                a, twice = alpha[search], 2.0 * prev_alpha[rows[search]]
                for j in range(width):
                    lengths[:, j] = a
                    a = np.where((a == _SHRINK) & (twice < a * _SHRINK), twice, a * _SHRINK)
                alpha[search] = a
                at, lengths = np.repeat(search, width), lengths.ravel()
                trial = u[rows[at]] + lengths[:, None] * step[at]
                r_trial = deflated(trial)
                scaled = scale[at, None] * r_trial
                armijo = (1.0 - 2.0 * _ARMIJO * lengths) * phi0[at]
                ok = np.flatnonzero((_row_dots(scaled, scaled) <= armijo) & (lengths >= _MIN_STEP))
                if width > 1:
                    ok = ok[np.unique(at[ok], return_index=True)[1]]
                took = rows[at[ok]]
                u[took], r[took], taken[at[ok]] = trial[ok], r_trial[ok], lengths[ok]
                search = search[(taken[search] == 0.0) & (alpha[search] >= _MIN_STEP)]
                width *= 2
            ending[rows[taken == 0.0]] = True
            took = rows[taken > 0.0]
            prev_alpha[took] = taken[taken > 0.0]
            iterations[took] += 1
            new_norm = np.maximum.reduce(np.abs(r[took]), axis=1)
            stalled[took] = np.where(new_norm > 0.999 * norm[took], stalled[took] + 1, 0)
            norm[took] = new_norm
            ends = (stalled[took] >= 12) | (np.maximum.reduce(np.abs(u[took]), axis=1) > escape_radius)
            ends |= (new_norm > 1e12) | (new_norm < cfg.tol) | (iterations[took] >= cfg.max_iter)
            ending[took[ends]] = True
            live[took[~ends]] = True
    end = int(np.argmax(passed)) + 1 if passed.any() else k
    return u[:end], iterations[:end], passed[:end]


def enumerate_wave_blocks_oracle(spec, g, hp, radius, cfg, n_starts, block=newton_block_oracle):
    """``degree._enumerate_signed_roots`` with one lockstep block per wave.

    Wave one, then the probes of each root in the order the roots were
    found, each run as blocks by ``block`` (in the shape of
    ``newton_block_oracle``) until every start has run.  Kernels,
    certification runs and constants are looked up in ``degree`` at call
    time, so a test can count them on both enumerators alike.
    """
    fun, jac_fun = degree._kernels(spec, g, hp)
    dim = g.n
    starts = [np.zeros(dim)]
    if n_starts > 1:
        points = linalg.halton_ball(dim, n_starts - 1, radius, cfg.seed)
        starts.extend(p * degree._START_SCALES[i % len(degree._START_SCALES)] for i, p in enumerate(points))
    escape = max(8.0 * radius, 10.0)
    run_cfg = replace(cfg, max_iter=min(cfg.max_iter, 60))
    roots: list[np.ndarray] = []
    signs: list[int] = []
    runs = 0
    probe_queue: list[np.ndarray] = []

    def certify(start: np.ndarray) -> None:
        dfun, jac, step_scale = degree._deflated_system(fun, jac_fun, roots)
        report = degree._newton_system(
            dfun, jac, start, run_cfg, true_fun=fun, escape_radius=escape, step_scale=step_scale
        )
        if report.residual_norm >= cfg.tol:
            return
        u = np.array(report.solution)
        if float(np.maximum.reduce(np.abs(u))) >= radius:
            return
        if roots:
            closest = min(float(np.maximum.reduce(np.abs(u - r))) for r in roots)
            if closest <= degree.DEDUP_RADIUS:
                if closest > cfg.deflation_radius:
                    warnings.warn(f"two roots within {closest:.2e} sup-distance merged", stacklevel=4)
                return
        sign = report.jac_sign
        if sign == 0:
            sign = linalg.det_sign(jac_fun(u))
        if sign == 0:
            raise DegenerateRootError(
                "a root has a numerically singular Jacobian; the degree is "
                "undefined at this tolerance"
            )
        roots.append(u)
        signs.append(sign)
        probe_queue.append(u)

    def run_block(starts: list[np.ndarray]) -> None:
        nonlocal runs
        pending = np.array(starts)
        while len(pending):
            passed = block(fun, jac_fun, pending, run_cfg, roots, escape)[2]
            runs += len(passed)
            if passed[-1]:
                certify(pending[len(passed) - 1])
            pending = pending[len(passed) :]

    run_block(starts)

    offsets = probe_offsets_oracle(dim)
    distances = [4.0 * degree.DEDUP_RADIUS] + [s * radius for s in degree._FOLD_RELATIVE_SCALES]

    def fold_direction(center: np.ndarray) -> np.ndarray | None:
        try:
            jac = np.asarray(jac_fun(center), dtype=float)
            eigenvalues, eigenvectors = np.linalg.eig(jac)
        except (ExponentOverflowError, np.linalg.LinAlgError):
            return None
        vector = np.real(eigenvectors[:, int(np.argmin(np.abs(eigenvalues)))])
        peak = float(np.maximum.reduce(np.abs(vector)))
        return vector / peak if peak > 0.0 else None

    probed = 0
    while probe_queue and probed < degree._MAX_PROBED_ROOTS:
        center = probe_queue.pop(0)
        probed += 1
        probes = [center + scale * radius * offset for scale in degree._PROBE_SCALES for offset in offsets]
        direction = fold_direction(center)
        if direction is not None:
            probes += [center + side * d * direction for d in distances for side in (1.0, -1.0)]
        run_block(probes)
    return roots, signs, runs

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


def parse_graph_oracle(path):
    """``cli.parse_graph`` as it was written before the bulk edge checks: one loop per line, then one per edge.

    Returns the document as rows, ``(vertices, edges)`` with a ``(label, mu, h1, h2)`` tuple per
    vertex and a ``(label, label, weight)`` tuple per edge, in file order.
    """
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
    return vertices, edges


def document_rows(doc: GraphDocument):
    """A columnar ``cli.GraphDocument`` as the rows ``parse_graph_oracle`` returns."""
    vertices = list(zip(doc.labels, doc.mu, doc.h1, doc.h2))
    ends = zip(doc.tails.tolist(), doc.heads.tolist(), doc.weight.tolist())
    return vertices, [(doc.labels[i], doc.labels[j], w) for i, j, w in ends]


def graph_text(vertices, edges) -> str:
    """A graph file holding the given rows, numbers at 17 significant digits."""
    lines = [" ".join(["vertex", label, *map(_float_token, values)]) for label, *values in vertices]
    lines += [f"edge {a} {b} {_float_token(w)}" for a, b, w in edges]
    return "\n".join(lines) + "\n"


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


def negative_crossings_oracle(spec: ProblemSpec, g: WeightedGraph) -> np.ndarray:
    """``solvers._negative_crossings`` before it ran on ``model._pointwise``: one
    vertex at a time on ``pointwise_value``, with 120 fixed halvings and a
    two-sided exponent guard (``|A c|`` and ``|B c|`` at most 350)."""

    def value(x: int, c: float) -> float:
        if abs(spec.A * c) > 350.0 or abs(spec.B * c) > 350.0:
            raise ExponentOverflowError(f"scalar exponent out of range at c={c:.3g}")
        return pointwise_value(spec, x, c)

    crossings = np.empty(g.n)
    for x in range(g.n):
        near = None
        s = 0.5
        for _ in range(60):
            if value(x, -s) < 0.0:
                near = s
                break
            s *= 0.5
        far = None
        s = 1.0
        for _ in range(60):
            if value(x, -s) > 0.0:
                far = s
                break
            s *= 2.0
        assert near is not None and far is not None, "no negative-side sign change"
        lo, hi = -far, -near
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if value(x, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        crossings[x] = 0.5 * (lo + hi)
    return crossings


def positive_barriers_oracle(spec: ProblemSpec, g: WeightedGraph) -> BarrierPair:
    """``solvers.choose_barriers`` on the positive branch before the per-vertex search: on
    whole-graph residuals at constant fields, the first of 2**-1, ..., 2**-60 where the
    residual is strictly negative at every vertex, and the first of 1, 2, ..., 2**60 where
    it is strictly positive at every vertex."""
    delta = beta = None
    for k in range(1, 61):
        if np.all(residual(spec, g, np.full(g.n, 2.0**-k)) < 0.0):
            delta = 2.0**-k
            break
    for k in range(61):
        if np.all(residual(spec, g, np.full(g.n, 2.0**k)) > 0.0):
            beta = 2.0**k
            break
    assert delta is not None and beta is not None, "barrier search did not terminate"
    return BarrierPair(delta, beta, side=1)


def _scalar_values_oracle(spec: ProblemSpec, c: np.ndarray) -> np.ndarray:
    h1 = float(spec.h1[0])
    h2 = float(spec.h2[0])
    with np.errstate(over="ignore"):
        e_up = np.exp(spec.A * c)
        e_dn = np.exp(-spec.B * c)
        if spec.kind is Kind.CLASSIC:
            return h1 * e_up + h2 * e_dn
        return h1 * e_up * (e_up - 1.0) + h2 * e_dn * (e_dn - 1.0)


def degree_single_vertex_oracle(spec: ProblemSpec) -> degree.DegreeReport:
    """``degree.degree_single_vertex`` before it ran on ``model._pointwise``: a
    scan of 4097 points, then one bracket at a time bisected 200 times on the
    term written out with ``e^x - 1``."""
    k1 = WeightedGraph(("o",), (1.0,), ())
    if spec.kind is Kind.CLASSIC and float(spec.h2[0]) >= 0.0:
        return degree.DegreeReport((), (), 0, math.inf, 0, degree.Confidence.PROVEN)
    box = bounds_classic(spec) if spec.kind is Kind.CLASSIC else bounds_generalized(spec, k1)
    grid = np.linspace(box.lower - 1.0, box.upper + 1.0, 4097)
    values = _scalar_values_oracle(spec, grid)
    roots: list[float] = []
    for i in range(grid.size - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(values[i]), float(values[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = float(_scalar_values_oracle(spec, np.array([mid]))[0])
            if fm == 0.0:
                a = b = mid
                break
            if (fm < 0.0) == (fa < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    if float(values[-1]) == 0.0:
        roots.append(float(grid[-1]))
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    signs = []
    for r in deduped:
        derivative = float(jacobian(spec, k1, np.array([r]))[0, 0])
        if abs(derivative) < 1e-12:
            raise DegenerateRootError(f"scalar root {r:.12g} has derivative below 1e-12")
        signs.append(1 if derivative > 0.0 else -1)
    solutions = tuple(np.array([r]) for r in deduped)
    return degree.DegreeReport(
        solutions, tuple(signs), int(sum(signs)), box.radius, 0, degree.Confidence.PROVEN
    )


def build_parser_oracle() -> _Parser:
    """The CLI parser as a tree: a top parser, a parent of shared flags, one subparser per command."""
    parser = _Parser(
        prog="tzgraph",
        description="Solve, bound, and count solutions of Tzitzeica-type equations on weighted graphs.",
    )
    common = _Parser(add_help=False)
    common.add_argument("graph", help="path to a graph file")
    common.add_argument(
        "--equation",
        required=True,
        choices=[k.value for k in Kind],
        help="equation kind",
    )
    common.add_argument("--A", type=float, required=True, help="exponent A > 0")
    common.add_argument("--B", type=float, required=True, help="exponent B > 0")
    common.add_argument("--tol", type=float, default=1e-10, help="residual sup-norm target")
    common.add_argument("--max-iter", type=int, default=200, help="Newton iteration cap")
    common.add_argument("--starts", type=int, default=64, help="multi-start count for degree estimation")
    common.add_argument("--seed", type=int, default=0, help="start-point sampling seed")
    common.add_argument("--radius", type=float, default=None, help="override the search ball radius")
    common.add_argument("--output", default=None, help="write the report here instead of stdout")
    common.add_argument("--format", choices=["json", "text"], default="json", help="report format")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and wall time for reproducible diffs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    subparsers.add_parser("solve", parents=[common], help="find one solution")
    subparsers.add_parser("degree", parents=[common], help="estimate the topological degree")
    subparsers.add_parser("bounds", parents=[common], help="report a priori bounds and graph constants")
    subparsers.add_parser("multiplicity", parents=[common], help="find two distinct solutions")
    subparsers.add_parser("check", parents=[common], help="run the invariant audit")
    return parser

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
    Kind,
    ProblemSpec,
    WeightedGraph,
    average,
    bounds_classic,
    bounds_generalized,
    degree,
    jacobian,
    linalg,
    residual,
)
from tzgraph.cli import GraphDocument, _Parser
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
    SolveReport,
    SolverConfig,
    _deflated_system,
    _freeze,
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

    offsets: list[np.ndarray] = [np.ones(dim), -np.ones(dim)]
    for x in range(dim):
        bump = np.zeros(dim)
        bump[x] = 1.0
        offsets.extend((bump, -bump))
    unique = {tuple(o) for o in offsets}
    offsets = [np.array(o) for o in sorted(unique)]

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

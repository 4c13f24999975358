"""Root finding and variational minimization for both equation kinds.

Provides damped Newton iteration, deflation against known roots, homotopy
continuation along the two deformations, barrier selection, and projected
gradient descent of the energy over a box.  All solvers are deterministic:
identical configuration and inputs produce identical reports.

Each public solver validates its inputs once and hands the unchecked
residual and Jacobian kernels of ``model`` to ``_newton_system``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    BarrierInapplicableError,
    ContinuationBrokenError,
    ExponentOverflowError,
    InteriorViolationError,
    MultiplicityFailureError,
    SolveFailedError,
    SpecValidationError,
)
from .estimates import bounds_generalized
from .graphs import WeightedGraph, as_field
from .model import (
    HomotopyParams,
    Kind,
    ProblemSpec,
    _energy_kernel,
    _exponents,
    _kernels,
    _pointwise,
    default_epsilon,
    energy,
    residual,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "BarrierPair",
    "newton",
    "newton_deflated",
    "continuation",
    "default_t_grid",
    "multiplicity_branch",
    "choose_barriers",
    "minimize_box",
    "find_two_solutions",
]

_ARMIJO = 1e-4
# backtracking multiplies a step length by _SHRINK and gives up below _MIN_STEP
_SHRINK = 0.5
_MIN_STEP = 2.0**-30
_MAX_BISECT_DEPTH = 10  # stage halving cap: effective grid of 2**10 points
_BARRIER_SEARCH_STEPS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs; the defaults match the CLI defaults."""

    tol: float = 1e-10
    max_iter: int = 200
    deflation_radius: float = 5e-6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise SpecValidationError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise SpecValidationError("max_iter must be at least 1")
        if not self.deflation_radius > 0.0:
            raise SpecValidationError("deflation_radius must be positive")
        if self.seed < 0:
            raise SpecValidationError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: the iterate, certification data, and traces.

    ``converged`` implies ``residual_norm < tol`` and ``jac_sign != 0``; a
    residual below tolerance at a numerically singular Jacobian (1-norm
    condition number >= 1/PIVOT_RTOL) reports ``converged=False, jac_sign=0``.
    """

    solution: np.ndarray
    residual_norm: float
    iterations: int
    jac_sign: int
    converged: bool
    residual_history: tuple[float, ...] = ()
    energy_history: tuple[float, ...] = ()


@dataclass(frozen=True)
class BarrierPair:
    """Constant barriers confining a one-signed solution.

    ``side=+1`` describes the box ``(delta, beta)`` on the positive axis,
    where the pointwise nonlinearity is strictly negative at ``delta`` and
    strictly positive at ``beta``.  ``side=-1`` describes the mirrored box
    ``(-beta, -delta)`` used for negative solutions.
    """

    delta: float
    beta: float
    side: int = 1

    def __post_init__(self):
        if not 0.0 < self.delta < self.beta:
            raise SpecValidationError("barriers must satisfy 0 < delta < beta")
        if self.side not in (1, -1):
            raise SpecValidationError("side must be +1 or -1")

    def box(self) -> tuple[float, float]:
        if self.side == 1:
            return (self.delta, self.beta)
        return (-self.beta, -self.delta)


def _freeze(u: np.ndarray) -> np.ndarray:
    out = np.array(u, dtype=float)
    out.flags.writeable = False
    return out


def _safe_eval(fun: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray | None:
    try:
        value = fun(u)
    except ExponentOverflowError:
        return None
    if not np.isfinite(value).all():
        return None
    return value


def _newton_system(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    cfg: SolverConfig,
    *,
    true_fun: Callable[[np.ndarray], np.ndarray] | None = None,
    escape_radius: float | None = None,
    step_scale: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> SolveReport:
    """Damped Newton on a callable system.

    Armijo backtracking on the squared 2-norm of the residual times a power of two;
    a step matrix with condition number >= 1/PIVOT_RTOL aborts with ``jac_sign=0``.
    With ``step_scale``, ``fun`` is a deflated residual ``M F`` and ``jac_fun``
    the Jacobian of ``F``: the step solves ``J s = -M F`` and is divided by
    ``step_scale(u, s)``, which makes it the Newton step of ``M F``; a divisor
    that is zero or not finite aborts like a singular matrix.
    ``true_fun`` certifies a deflated solve against the undeflated residual.
    """
    u = np.array(start, dtype=float)
    # overflow and inf * 0 in a wild trial only make its merit inf or nan,
    # which fails the Armijo test
    with np.errstate(over="ignore", invalid="ignore"):
        r = _safe_eval(fun, u)
        if r is None:
            return SolveReport(_freeze(u), math.inf, 0, 0, False, (math.inf,))
        norm = float(np.maximum.reduce(np.abs(r)))
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
            new_norm = float(np.maximum.reduce(np.abs(r)))
            # crawling lines (sub-0.1% progress) cannot reach tolerance within
            # any reasonable budget; cut them off early
            stalled = stalled + 1 if new_norm > 0.999 * norm else 0
            norm = new_norm
            history.append(norm)
            if stalled >= 12:
                failed = True
                break
            if escape_radius is not None and float(np.maximum.reduce(np.abs(u))) > escape_radius:
                failed = True
                break
            if norm > 1e12:
                failed = True
                break

        if true_fun is not None:
            r_true = _safe_eval(true_fun, u)
            norm = float(np.maximum.reduce(np.abs(r_true))) if r_true is not None else math.inf

        converged = not failed and norm < cfg.tol
        jac_sign = 0
        if converged:
            final_jac = _safe_eval(jac_fun, u)
            if final_jac is None:
                converged = False
            else:
                jac_sign = linalg.det_sign(final_jac)
                if jac_sign == 0:
                    converged = False
    return SolveReport(_freeze(u), norm, iterations, jac_sign, converged, tuple(history))


def newton(spec: ProblemSpec, g: WeightedGraph, start, cfg: SolverConfig) -> SolveReport:
    """Damped Newton on the residual from the given start field."""
    return _newton_system(*_kernels(spec, g), as_field(g, start), cfg)


def _deflated_system(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    known: Sequence[np.ndarray],
):
    """Residual ``M(u) F(u)`` deflated against ``known``, ``F``'s Jacobian and a step scale.

    ``M = prod_k (1 + 1/d_k)`` with ``d_k = ||u - u_k||^2``.  The Newton step
    of ``M F`` is the step ``s`` that solves ``J s = -M F`` divided by
    ``M - g.s``, where ``g = grad log M = sum_k -2 (u - u_k) / (d_k^2 + d_k)``
    (Farrell, Birkisson & Funke 2015), so the deflated Jacobian is never
    formed; ``_newton_system`` takes the divisor from the third callable.
    """
    if not known:
        return fun, jac_fun, None

    def dfun(u: np.ndarray) -> np.ndarray:
        value = fun(u)  # the exponent guard turns wild trials away first
        factor = 1.0
        for root in known:
            diff = u - root
            d2 = float(np.dot(diff, diff))
            if d2 == 0.0:
                return np.full_like(u, math.inf)
            factor *= 1.0 + 1.0 / d2
        return factor * value

    def step_divisor(u: np.ndarray, step: np.ndarray) -> float:
        factor, slope = 1.0, 0.0
        for root in known:
            diff = u - root
            d2 = float(np.dot(diff, diff))
            factor *= 1.0 + 1.0 / d2
            slope += -2.0 * float(np.dot(diff, step)) / (d2 * d2 + d2)
        return factor - slope

    return dfun, jac_fun, step_divisor


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis vectors, each with the bits of ``np.dot``."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _newton_block(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    cfg: SolverConfig,
    known: Sequence[np.ndarray],
    escape_radius: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep screen of a ``(k, n)`` block of starts for deflated Newton, on block kernels.

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
        """Per row: the multiplier (infinite where ``d_k = 0``), the ``x - u_k`` and the ``d_k``."""
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
        ending = live & (norm < cfg.tol)  # leaving the loop, other than by an early return
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
            live[rows] = False  # until the row takes a step
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
            # Armijo backtracking: each round tries the next ``width`` step
            # lengths of a row at once, and the row takes the first that passes
            alpha, taken = np.ones(rows.size), np.zeros(rows.size)
            search, width = np.arange(rows.size), 1
            while search.size:
                lengths = np.empty((search.size, width))
                a, twice = alpha[search], 2.0 * prev_alpha[rows[search]]
                for j in range(width):  # 1 and shrink, then on from near the last accepted length
                    lengths[:, j] = a
                    a = np.where((a == _SHRINK) & (twice < a * _SHRINK), twice, a * _SHRINK)
                alpha[search] = a
                at, lengths = np.repeat(search, width), lengths.ravel()
                trial = u[rows[at]] + lengths[:, None] * step[at]
                r_trial = deflated(trial)
                scaled = scale[at, None] * r_trial
                armijo = (1.0 - 2.0 * _ARMIJO * lengths) * phi0[at]
                ok = np.flatnonzero((_row_dots(scaled, scaled) <= armijo) & (lengths >= _MIN_STEP))
                if width > 1:  # the first length that passes, per row
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
            # crawling, escaped, blown up, converged or out of budget
            ends = (stalled[took] >= 12) | (np.maximum.reduce(np.abs(u[took]), axis=1) > escape_radius)
            ends |= (new_norm > 1e12) | (new_norm < cfg.tol) | (iterations[took] >= cfg.max_iter)
            ending[took[ends]] = True
            live[took[~ends]] = True
    end = int(np.argmax(passed)) + 1 if passed.any() else k
    return u[:end], iterations[:end], passed[:end]


def newton_deflated(
    spec: ProblemSpec,
    g: WeightedGraph,
    known: Sequence[np.ndarray],
    start,
    cfg: SolverConfig,
) -> SolveReport:
    """Newton on the residual deflated against the known solutions.

    The deflation multiplier preserves roots while making every known root
    repel the iteration, so a converged report is a *new* solution: it is
    certified against the undeflated residual and must sit at sup-distance
    greater than ``cfg.deflation_radius`` from every known root.
    """
    start = as_field(g, start)
    known = [as_field(g, k) for k in known]
    base_fun, base_jac = _kernels(spec, g)
    dfun, jac, step_scale = _deflated_system(base_fun, base_jac, known)
    report = _newton_system(dfun, jac, start, cfg, true_fun=base_fun, step_scale=step_scale)
    if report.converged and known:
        closest = min(float(np.maximum.reduce(np.abs(report.solution - k))) for k in known)
        if closest <= cfg.deflation_radius:
            report = replace(report, converged=False, jac_sign=0)
    return report


def default_t_grid(count: int = 21) -> np.ndarray:
    """Uniform deformation grid from t = 1 down to t = 0."""
    if count < 2:
        raise SpecValidationError("continuation grid needs at least two points")
    return np.linspace(1.0, 0.0, count)


def continuation(
    spec: ProblemSpec,
    g: WeightedGraph,
    t_grid: Sequence[float],
    cfg: SolverConfig = SolverConfig(),
) -> list[SolveReport]:
    """Track the deformed equation from t = 1 down to t = 0.

    Each converged stage seeds the next; a failing stage is retried across
    recursively halved parameter steps (down to an effective grid of 2**10
    points) before :class:`ContinuationBrokenError` is raised with the
    partial reports attached.  For the classic kind t = 0 is the target
    equation and the path normally completes; for the generalized kind the
    t = 0 member has no solution, so the path must break along the way.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise SpecValidationError("t_grid must be a 1-d grid with at least two points")
    if grid[0] != 1.0 or grid[-1] != 0.0 or np.any(np.diff(grid) >= 0.0):
        raise SpecValidationError("t_grid must decrease strictly from 1 to 0")

    eps = default_epsilon(spec) if spec.kind is Kind.CLASSIC else None

    def solve_at(t: float, start: np.ndarray) -> SolveReport:
        return _newton_system(*_kernels(spec, g, HomotopyParams(float(t), eps)), start, cfg)

    reports: list[SolveReport] = []

    def advance(start: np.ndarray, t_from: float, t_to: float, depth: int) -> SolveReport:
        report = solve_at(t_to, start)
        if report.converged:
            return report
        if depth >= _MAX_BISECT_DEPTH:
            raise ContinuationBrokenError(t_to, reports)
        mid = 0.5 * (t_from + t_to)
        mid_report = advance(start, t_from, mid, depth + 1)
        return advance(mid_report.solution, mid, t_to, depth + 1)

    first = solve_at(grid[0], np.zeros(g.n))
    if not first.converged:
        raise ContinuationBrokenError(float(grid[0]), reports)
    reports.append(first)
    for prev_t, next_t in zip(grid[:-1], grid[1:]):
        reports.append(advance(reports[-1].solution, float(prev_t), float(next_t), 0))
    return reports


def multiplicity_branch(spec: ProblemSpec) -> int:
    """Which two-solution hypothesis holds: +1, -1, or 0 for neither.

    +1 stands for ``A * max h1 < B * min h2`` (extra solution on the
    positive side), -1 for ``A * min h1 > B * max h2`` (negative side).
    """
    if spec.A * float(spec.h1.max()) < spec.B * float(spec.h2.min()):
        return 1
    if spec.A * float(spec.h1.min()) > spec.B * float(spec.h2.max()):
        return -1
    return 0


def _bisect(
    fun: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray
) -> np.ndarray:
    """Bisection of every lane of the brackets ``[lo, hi]`` at once (floats make one lane).

    ``f_lo`` holds ``fun(lo)``, whose sign ``fun(hi)`` must not share.  A lane
    keeps the half whose end has the sign of its ``f_lo`` and stops at a
    midpoint where ``fun`` is exactly zero.  Returns the midpoints after 200
    halvings, or sooner, once no lane's midpoint differs from both its ends:
    from then on halving changes no bit.
    """
    lo, hi, lo_negative = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), f_lo < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not ((mid != lo) & (mid != hi)).any():
            break
        f_mid = fun(mid)
        low = (f_mid < 0.0) == lo_negative  # the midpoint replaces lo, or both ends at a zero
        lo, hi = np.where(low | (f_mid == 0.0), mid, lo), np.where(low & (f_mid != 0.0), hi, mid)
    return 0.5 * (lo + hi)


def _negative_crossings(spec: ProblemSpec, g: WeightedGraph) -> np.ndarray:
    """Per-vertex sign change of the pointwise nonlinearity on the negative axis.

    Under ``A h1(x) > B h2(x)`` the pointwise term is negative just below
    zero and grows without bound far below, so each vertex has a crossing;
    bisection brackets it between a halved near point and a doubled far
    point.  Every vertex is searched and bisected at once, under the
    kernels' exponent guard.
    """
    pointwise, _, cap = _pointwise(spec)

    def term(c: np.ndarray) -> np.ndarray:
        return pointwise(*_exponents(spec.A, spec.B, cap, c))

    def search(first: float, factor: float, sign: float) -> np.ndarray:
        """Per vertex, the first ``s = first * factor**k`` with ``sign * term(-s) > 0``."""
        s = np.full(g.n, first)
        for _ in range(_BARRIER_SEARCH_STEPS):
            found = sign * term(-s) > 0.0
            if found.all():
                return s
            s[~found] *= factor
        raise BarrierInapplicableError(
            "could not bracket the negative-side sign change of the nonlinearity"
        )

    near, far = search(0.5, 0.5, -1.0), search(1.0, 2.0, 1.0)
    return _bisect(term, -far, -near, term(-far))


def choose_barriers(spec: ProblemSpec, g: WeightedGraph) -> BarrierPair:
    """Deterministic power-of-two barriers for the applicable branch.

    Positive branch (``A max h1 < B min h2``): halve trial values until the
    constant field ``delta`` makes the residual strictly negative at every
    vertex, and double until ``beta`` makes it strictly positive.

    Negative branch (``A min h1 > B max h2``): the pointwise term is
    negative *near* zero and positive *far* below it, which is the opposite
    wall pattern from the positive side, so the box ``(-beta, -delta)`` is
    built around the per-vertex crossing envelope instead: ``delta`` is a
    power of two below the crossing nearest zero and ``beta`` a power of
    two beyond both the deepest crossing and the uniform lower solution
    bound.
    """
    if spec.kind is not Kind.GENERALIZED:
        raise BarrierInapplicableError("barriers are defined for the generalized kind only")
    if np.any(spec.h2 <= 0.0):
        raise BarrierInapplicableError(
            "the two-solution hypotheses require h2 > 0 at every vertex"
        )
    branch = multiplicity_branch(spec)
    if branch == 0:
        raise BarrierInapplicableError(
            "neither A*max(h1) < B*min(h2) nor A*min(h1) > B*max(h2) holds"
        )
    if branch == 1:
        # on a constant field the Laplacian term of the residual vanishes exactly
        fun, _ = _kernels(spec, g)
        delta = None
        for k in range(1, _BARRIER_SEARCH_STEPS + 1):
            trial = 2.0**-k
            if np.all(fun(np.full(g.n, trial)) < 0.0):
                delta = trial
                break
        beta = None
        for k in range(_BARRIER_SEARCH_STEPS + 1):
            trial = 2.0**k
            if np.all(fun(np.full(g.n, trial)) > 0.0):
                beta = trial
                break
        if delta is None or beta is None:
            raise BarrierInapplicableError("barrier search did not terminate")
        return BarrierPair(delta, beta, side=1)

    crossings = _negative_crossings(spec, g)
    nearest = float(np.abs(crossings).min())
    deepest = float(np.abs(crossings).max())
    delta = 2.0 ** (math.floor(math.log2(nearest)) - 1)
    reach = max(2.0 * deepest, abs(bounds_generalized(spec, g).lower))
    beta = 2.0 ** math.ceil(math.log2(reach))
    return BarrierPair(delta, beta, side=-1)


def _mean_constant_root(
    fun: Callable[[np.ndarray], np.ndarray], g: WeightedGraph, lo: float, hi: float
) -> float:
    """Bisect the measure-averaged residual kernel on constant fields over [lo, hi]."""

    def mean(c: float) -> float:
        return float(np.dot(g.mu, fun(np.full(g.n, c)))) / g.volume

    f_lo = mean(lo)
    if f_lo * mean(hi) >= 0.0:
        return 0.5 * (lo + hi)
    return float(_bisect(mean, lo, hi, f_lo))


def minimize_box(
    spec: ProblemSpec,
    g: WeightedGraph,
    bp: BarrierPair,
    cfg: SolverConfig,
    _trace: list | None = None,
) -> SolveReport:
    """Projected gradient descent of the energy over the barrier box.

    Trial steps use a Barzilai-Borwein length inside monotone Armijo
    backtracking, and the projection onto the box is exact, so every
    accepted iterate satisfies the bounds exactly and the energy never
    increases.  Once the gradient is small the iterate is polished by the
    unconstrained Newton solver; the polish must stay strictly inside the
    box.  Convergence requires the *unconstrained* gradient below ``tol``
    at a strictly interior point: a projected-stationary iterate pinned to
    a wall raises :class:`InteriorViolationError` instead, since the
    barrier construction promises an interior minimizer.
    """
    if spec.kind is not Kind.GENERALIZED:
        raise SpecValidationError("box minimization applies to the generalized kind only")
    lo, hi = bp.box()
    mu = g.mu
    fun, jac = _kernels(spec, g)
    energy_of = _energy_kernel(spec, g)

    u = np.full(g.n, _mean_constant_root(fun, g, lo, hi))
    np.clip(u, lo, hi, out=u)
    # the public functions check the start once; the loops run on the kernels
    j_val = energy(spec, g, u)
    grad = residual(spec, g, u)
    energies = [j_val]
    if _trace is not None:
        _trace.append(u.copy())

    alpha = 1.0
    steps = 0
    status = "budget"
    max_steps = max(20000, 100 * cfg.max_iter)
    noise_floor = 1e-14

    while steps < max_steps:
        grad_norm = float(np.maximum.reduce(np.abs(grad)))
        if grad_norm < cfg.tol:
            status = "converged"
            break
        projected_move = u - np.clip(u - grad, lo, hi)
        if float(np.maximum.reduce(np.abs(projected_move))) < cfg.tol:
            raise InteriorViolationError(
                "projected-stationary point has an active box constraint"
            )

        a = alpha
        accepted = False
        while a >= _MIN_STEP:
            trial = np.clip(u - a * grad, lo, hi)
            direction = trial - u
            if not np.any(direction):
                a *= _SHRINK
                continue
            try:
                j_trial = energy_of(trial)
            except ExponentOverflowError:
                a *= _SHRINK
                continue
            decrease = float(np.dot(mu * grad, direction))
            if j_trial <= j_val + _ARMIJO * decrease + noise_floor * (1.0 + abs(j_val)):
                accepted = True
                break
            a *= _SHRINK
        if not accepted:
            status = "stalled"
            break

        new_grad = fun(trial)
        s = direction
        y = new_grad - grad
        sy = float(np.dot(mu * s, y))
        ss = float(np.dot(mu * s, s))
        alpha = min(max(ss / sy, 1e-10), 1e10) if sy > 0.0 else min(a * 2.0, 1e6)
        u, j_val, grad = trial, j_trial, new_grad
        energies.append(j_val)
        if _trace is not None:
            _trace.append(u.copy())
        steps += 1

    grad_norm = float(np.maximum.reduce(np.abs(grad)))
    polish_iterations = 0
    if status in ("stalled", "budget") and grad_norm <= 1e-5 and np.all(u > lo) and np.all(u < hi):
        polish = _newton_system(fun, jac, u, cfg)
        if polish.converged and np.all(polish.solution > lo) and np.all(polish.solution < hi):
            u = np.array(polish.solution)
            grad = fun(u)
            grad_norm = float(np.maximum.reduce(np.abs(grad)))
            j_val = energy_of(u)
            energies.append(j_val)
            polish_iterations = polish.iterations
            if _trace is not None:
                _trace.append(u.copy())
            status = "converged" if grad_norm < cfg.tol else status

    converged = status == "converged" and grad_norm < cfg.tol
    if converged and (np.any(u <= lo) or np.any(u >= hi)):
        raise InteriorViolationError("minimizer converged on the box boundary")
    jac_sign = 0
    if converged:
        jac_sign = linalg.det_sign(jac(u))
        if jac_sign == 0:
            converged = False
    return SolveReport(
        _freeze(u),
        grad_norm,
        steps + polish_iterations,
        jac_sign,
        converged,
        energy_history=tuple(energies),
    )


def find_two_solutions(
    spec: ProblemSpec, g: WeightedGraph, cfg: SolverConfig
) -> list[SolveReport]:
    """The zero solution plus a one-signed second solution.

    The zero field solves the generalized equation identically.  Under the
    positive-branch hypothesis the second solution is the interior
    minimizer of the energy over the barrier box.  Under the negative
    branch the energy has its local minimum *at* zero, so the second
    (negative) solution is not a box minimizer; it is found by Newton
    deflated against zero, warm-started at the pointwise crossing profile
    and constant fields in the mirrored box, with a full multi-start
    enumeration as fallback (weak graph coupling can scatter the negative
    solutions far from any constant profile).
    """
    if spec.kind is not Kind.GENERALIZED:
        raise BarrierInapplicableError("two-solution search applies to the generalized kind only")
    branch = multiplicity_branch(spec)
    if branch == 0:
        raise BarrierInapplicableError(
            "neither A*max(h1) < B*min(h2) nor A*min(h1) > B*max(h2) holds"
        )
    zero_report = newton(spec, g, np.zeros(g.n), cfg)
    if not zero_report.converged:
        raise MultiplicityFailureError("the zero solution failed to certify (degenerate Jacobian)")

    barriers = choose_barriers(spec, g)
    lo, hi = barriers.box()
    if branch == 1:
        second = minimize_box(spec, g, barriers, cfg)
        if not second.converged:
            raise SolveFailedError("box minimization did not converge")
        if not (np.all(second.solution > lo) and np.all(second.solution < hi)):
            raise MultiplicityFailureError("minimizer escaped the barrier box")
    else:
        fun, _ = _kernels(spec, g)
        crossings = _negative_crossings(spec, g)
        starts = [crossings, np.full(g.n, _mean_constant_root(fun, g, lo, hi))]
        starts += [
            np.full(g.n, c)
            for c in (
                float(np.mean(crossings)),
                -math.sqrt(barriers.delta * barriers.beta),
                float(crossings.min()),
                float(crossings.max()),
            )
        ]
        second = None
        for start in starts:
            attempt = newton_deflated(
                spec, g, [np.zeros(g.n)], np.clip(start, lo, hi), cfg
            )
            if attempt.converged and np.all(attempt.solution < 0.0):
                second = attempt
                break
        if second is None:
            # weakly coupled graphs can scatter the negative solutions far
            # from any constant profile; fall back to full enumeration
            from .degree import _enumerate_signed_roots

            roots, _, _ = _enumerate_signed_roots(
                spec, g, None, bounds_generalized(spec, g).radius, cfg, n_starts=48
            )
            for root in roots:
                if np.all(root < 0.0):
                    second = newton(spec, g, root, cfg)
                    if second.converged:
                        break
                    second = None
        if second is None:
            raise SolveFailedError("no strictly negative second solution found")

    separation = float(np.maximum.reduce(np.abs(second.solution - zero_report.solution)))
    if separation <= cfg.deflation_radius:
        raise MultiplicityFailureError(
            f"second solution coincides with zero within {cfg.deflation_radius:.3g}"
        )
    return [zero_report, second]

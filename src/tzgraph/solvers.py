"""Root finding and variational minimization for both equation kinds.

Provides damped Newton iteration, deflation against known roots, homotopy
continuation along the two deformations, barrier selection, and projected
gradient descent of the energy over a box.  All solvers are deterministic:
identical configuration and inputs produce identical reports.

Each public solver validates its inputs once and hands the unchecked
residual and Jacobian kernels of ``model`` to ``_newton_system``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

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
    _check_spec_alignment,
    _energy_kernel,
    _exponents,
    _kernels,
    _pointwise,
    energy,
    residual,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "BarrierPair",
    "newton",
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
# a run crawls once _STALL_STEPS steps in a row each leave the residual above
# _STALL_RATIO times its value before, and blows up beyond _BLOW_UP
_STALL_RATIO = 0.999
_STALL_STEPS = 12
_BLOW_UP = 1e12
_MAX_BISECT_DEPTH = 10  # stage halving cap: effective grid of 2**10 points
_BARRIER_SEARCH_STEPS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs; the defaults match the CLI defaults."""

    tol: float = 1e-10
    max_iter: int = 200
    seed: int = 0
    # not a field: roots closer than this are one root
    deflation_radius: ClassVar[float] = 5e-6

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise SpecValidationError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise SpecValidationError("max_iter must be at least 1")
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
    ``(-beta, -delta)`` used for negative solutions; ``choose_barriers``
    keeps the per-vertex crossings it built that box from in ``crossings``.
    """

    delta: float
    beta: float
    side: int = 1
    crossings: np.ndarray | None = field(default=None, compare=False, repr=False)

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


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis vectors, each with the bits of ``np.dot``."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _deflation(x: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``x``: Farrell's multiplier ``M = prod_k (1 + 1/d_k)``, infinite where a
    ``d_k`` is 0, and the squared distances ``d_k = ||x - u_k||^2`` to the rows of ``roots``."""
    diff = x[:, None, :] - roots
    d2 = _row_dots(diff, diff)
    factor = np.ones(len(x))
    for d2_root in d2.T:
        factor *= 1.0 + 1.0 / d2_root
    return factor, d2


def _step_divisor(x: np.ndarray, step: np.ndarray, roots: np.ndarray, factor: np.ndarray, d2: np.ndarray):
    """Per row: ``M - g.s`` for the ``M`` and ``d_k`` of ``_deflation`` at ``x``, where
    ``g = grad log M = sum_k -2 (x - u_k) / (d_k^2 + d_k)``; dividing by it turns the step
    ``s`` that solves ``J s = -M F`` into the Newton step of ``M F``."""
    slope = np.zeros(len(x))
    for dots, d2_root in zip(_row_dots(x[:, None, :] - roots, step[:, None, :]).T, d2.T):
        slope += -2.0 * dots / (d2_root * d2_root + d2_root)
    return factor - slope


@functools.cache
def _step_lengths(prev: float) -> tuple[float, ...]:
    """The lengths Armijo backtracking tries after a run last took ``prev``: 1 and ``_SHRINK``,
    then on from near ``prev``, ``min(2 prev, _SHRINK**2)``, halved down to ``_MIN_STEP``."""
    lengths, alpha = [1.0, _SHRINK], min(2.0 * prev, _SHRINK * _SHRINK)
    while alpha >= _MIN_STEP:
        lengths.append(alpha)
        alpha *= _SHRINK
    return tuple(lengths)


# every length a run takes is 2**-j, 0 <= j <= 30; row j holds the lengths tried after it, zero-padded
_LADDERS = np.array([(*_step_lengths(2.0**-j), *[0.0] * 31)[:31] for j in range(31)])


def _cut_off(stalled, norm, new_norm):
    """After a step that took a residual's sup norm from ``norm`` to ``new_norm``: the count
    of stalled steps in a row, and whether the run ends, crawling or blown up.

    Crawling lines (sub-0.1% progress) cannot reach tolerance within any
    reasonable budget; they are cut off early.
    """
    stalled = (stalled + 1) * (new_norm > _STALL_RATIO * norm)
    return stalled, (stalled >= _STALL_STEPS) | (new_norm > _BLOW_UP)


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
        iterations, stalled, prev_alpha, failed = 0, 0, 1.0, True

        while norm >= cfg.tol:  # every other way out is a failure
            if iterations >= cfg.max_iter:
                break
            jac_value = _safe_eval(jac_fun, u)
            if jac_value is None:
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
            for alpha in _step_lengths(prev_alpha):
                trial = u + alpha * step
                try:
                    r_trial = fun(trial)
                except ExponentOverflowError:
                    continue
                scaled = scale * r_trial
                if float(np.dot(scaled, scaled)) <= (1.0 - 2.0 * _ARMIJO * alpha) * phi0:
                    u, r, prev_alpha = trial, r_trial, alpha
                    break
            else:
                break
            iterations += 1
            new_norm = float(np.maximum.reduce(np.abs(r)))
            stalled, cut = _cut_off(stalled, norm, new_norm)
            norm = new_norm
            history.append(norm)
            if cut or (escape_radius is not None and float(np.maximum.reduce(np.abs(u))) > escape_radius):
                break
        else:
            failed = False

        if true_fun is not None:
            r_true = _safe_eval(true_fun, u)
            norm = float(np.maximum.reduce(np.abs(r_true))) if r_true is not None else math.inf

        jac_sign = 0
        if not failed and norm < cfg.tol:
            final_jac = _safe_eval(jac_fun, u)
            jac_sign = 0 if final_jac is None else linalg.det_sign(final_jac)
    return SolveReport(_freeze(u), norm, iterations, jac_sign, jac_sign != 0, tuple(history))


def newton(spec: ProblemSpec, g: WeightedGraph, start, cfg: SolverConfig) -> SolveReport:
    """Damped Newton on the residual from the given start field."""
    return _newton_system(*_kernels(spec, g), as_field(g, start), cfg)


def _deflated_system(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    known: Sequence[np.ndarray],
):
    """Residual ``M(u) F(u)`` deflated against ``known``, ``F``'s Jacobian and a step scale.

    ``M`` is Farrell's multiplier of ``_deflation`` (Farrell, Birkisson & Funke 2015),
    infinite with the residual on a root; the step scale is ``_step_divisor``, so the
    deflated Jacobian is never formed.  Both read ``known`` at every call.
    """
    if not known:
        return fun, jac_fun, None

    def dfun(u: np.ndarray) -> np.ndarray:
        value = fun(u)  # the exponent guard turns wild trials away first
        with np.errstate(divide="ignore"):
            factor = _deflation(u[None], np.array(known))[0][0]
        return factor * value if factor < math.inf else np.full_like(u, math.inf)

    def step_divisor(u: np.ndarray, step: np.ndarray) -> float:
        x, roots = u[None], np.array(known)
        return float(_step_divisor(x, step[None], roots, *_deflation(x, roots))[0])

    return dfun, jac_fun, step_divisor


def _newton_block(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    cfg: SolverConfig,
    known: Sequence[np.ndarray],
    escape_radius: float,
    lanes: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep screen of a ``(k, n)`` queue of starts for deflated Newton, on block kernels.

    Row ``i`` makes, bit for bit, the run ``_newton_system`` makes from ``starts[i]`` on
    ``_deflated_system(..., known)`` with ``true_fun`` and ``escape_radius``.  A row passes if
    its run ends with the undeflated residual below ``cfg.tol``.  At most ``lanes`` rows step
    at once: the first ones, in order, still running, so a row starts when one before it ends.
    The root of the first row that passes would deflate the rows after it, so they stop:
    returns the final iterates, iteration counts and pass flags of the rows up to that one,
    or of all rows.
    """
    u = np.array(starts, dtype=float)
    k, n = u.shape
    roots = np.reshape(known, (len(known), n))
    # at each row's iterate: the deflated and the undeflated residual, the
    # multiplier and the d_k, kept from the evaluation that reached it
    r, value, factor, d2 = np.empty((k, n)), np.empty((k, n)), np.empty(k), np.empty((k, len(roots)))
    norm, iterations, stalled = np.empty(k), np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    prev_alpha, passed = np.ones(k), np.zeros(k, dtype=bool)
    # ending: leaving the loop other than by an early return; rows from started on have not run
    running, ending, started = np.ones(k, dtype=bool), np.zeros(k, dtype=bool), 0

    def deflated(x):
        """Per row: ``M F``, ``F`` and ``_deflation``'s multiplier ``M`` and ``d_k``."""
        f = fun(x)
        mult, dist = _deflation(x, roots)
        return (mult[:, None] * f if len(roots) else f), f, mult, dist

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            if ending.any():
                done = np.flatnonzero(ending)
                passed[done] = np.maximum.reduce(np.abs(value[done]), axis=1) < cfg.tol
                running[done] = ending[done] = False
                if passed.any():
                    running[np.argmax(passed) + 1 :] = False
            rows = np.flatnonzero(running)[:lanes]
            if not rows.size:
                break
            if rows[-1] >= started:  # rows entering the lanes: residuals at their starts
                fresh = np.arange(started, rows[-1] + 1)
                started = rows[-1] + 1
                r[fresh], value[fresh], factor[fresh], d2[fresh] = deflated(u[fresh])
                norm[fresh] = np.maximum.reduce(np.abs(r[fresh]), axis=1)
                finite = np.isfinite(r[fresh]).all(axis=1)
                running[fresh[~finite]] = False
                ending[fresh[finite & (norm[fresh] < cfg.tol)]] = True
                continue
            jac = jac_fun(u[rows])
            bad = ~np.isfinite(jac).all(axis=(1, 2))
            ending[rows[bad]] = True
            inverse, singular = linalg.inverse_block(jac[~bad])
            running[rows[~bad][singular]] = False
            rows = rows[~bad][~singular]
            step = (inverse[~singular] @ -r[rows][:, :, None])[:, :, 0]
            divisor = _step_divisor(u[rows], step, roots, factor[rows], d2[rows])
            fine = (divisor != 0.0) & np.isfinite(divisor)
            running[rows[~fine]] = False
            rows, step = rows[fine], step[fine] / divisor[fine, None]
            scale = np.ldexp(1.0, -np.frexp(norm[rows])[1])
            scaled = scale[:, None] * r[rows]
            phi0 = _row_dots(scaled, scaled)
            # Armijo backtracking over each row's _step_lengths.  Rounds try
            # the next 1, 2, 4, 8 and 16 lengths of a row at once, and the row
            # takes the first that passes
            ladder = _LADDERS[1 - np.frexp(prev_alpha[rows])[1]]
            taken, search, first = np.zeros(rows.size), np.arange(rows.size), 0
            while first < ladder.shape[1]:
                search = search[ladder[search, first] > 0.0]
                if not search.size:
                    break
                lengths = ladder[search, first : 2 * first + 1]
                at, col = np.nonzero(lengths)
                length, row = lengths[at, col], search[at]
                trial = u[rows[row]] + length[:, None] * step[row]
                r_trial, value_trial, factor_trial, d2_trial = deflated(trial)
                scaled = scale[row, None] * r_trial
                ok = np.zeros(lengths.shape, dtype=bool)
                ok[at, col] = _row_dots(scaled, scaled) <= (1.0 - 2.0 * _ARMIJO * length) * phi0[row]
                hit = ok.any(axis=1)
                trial_of = np.zeros(lengths.shape, dtype=int)
                trial_of[at, col] = np.arange(at.size)
                pick = trial_of[hit, np.argmax(ok[hit], axis=1)]
                took = rows[row[pick]]
                u[took], r[took], value[took] = trial[pick], r_trial[pick], value_trial[pick]
                factor[took], d2[took], taken[row[pick]] = factor_trial[pick], d2_trial[pick], length[pick]
                search, first = search[~hit], 2 * first + 1
            ending[rows[taken == 0.0]] = True
            took = rows[taken > 0.0]
            prev_alpha[took] = taken[taken > 0.0]
            iterations[took] += 1
            new_norm = np.maximum.reduce(np.abs(r[took]), axis=1)
            stalled[took], ends = _cut_off(stalled[took], norm[took], new_norm)
            norm[took] = new_norm
            # escaped, converged or out of budget
            ends |= np.maximum.reduce(np.abs(u[took]), axis=1) > escape_radius
            ends |= (new_norm < cfg.tol) | (iterations[took] >= cfg.max_iter)
            ending[took[ends]] = True
    end = int(np.argmax(passed)) + 1 if passed.any() else k
    return u[:end], iterations[:end], passed[:end]


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

    def solve_at(t: float, start: np.ndarray) -> SolveReport:
        return _newton_system(*_kernels(spec, g, HomotopyParams(float(t))), start, cfg)

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


def _barrier_powers(spec: ProblemSpec, n: int, side: int) -> tuple[Callable, np.ndarray, np.ndarray]:
    """The pointwise term, then per vertex its first ``side * 2**-k`` (k >= 1) where the
    term is negative and its first ``side * 2**k`` (k >= 0) where it is positive.

    Every vertex is searched at once, 60 powers each way, under the kernels'
    exponent guard.
    """
    pointwise, _, cap = _pointwise(spec)

    def term(c: np.ndarray) -> np.ndarray:
        return pointwise(*_exponents(spec.A, spec.B, cap, c))

    def search(first: float, factor: float, sign: float) -> np.ndarray:
        s = np.full(n, first)
        for _ in range(_BARRIER_SEARCH_STEPS):
            found = sign * term(s) > 0.0
            if found.all():
                return s
            s[~found] *= factor
        raise BarrierInapplicableError("barrier search did not terminate")

    return term, search(0.5 * side, 0.5, -1.0), search(float(side), 2.0, 1.0)


def _negative_crossings(spec: ProblemSpec, g: WeightedGraph) -> np.ndarray:
    """Per-vertex sign change of the pointwise nonlinearity on the negative axis.

    Under ``A h1(x) > B h2(x)`` the term is negative just below zero and
    grows without bound far below, so bisection between each vertex's two
    powers of ``_barrier_powers`` finds its crossing.
    """
    term, near, far = _barrier_powers(spec, g.n, -1)
    return _bisect(term, far, near, term(far))


def choose_barriers(spec: ProblemSpec, g: WeightedGraph) -> BarrierPair:
    """Deterministic power-of-two barriers for the applicable branch.

    Positive branch (``A max h1 < B min h2``): each vertex's pointwise term
    is negative below its one positive zero and positive above it, so the
    term is negative at every vertex at ``delta``, the smallest of the
    vertices' first powers of ``_barrier_powers`` with a negative term, and
    positive at ``beta``, the largest of those with a positive term.

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
    _check_spec_alignment(spec, g)
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
        _, near, far = _barrier_powers(spec, g.n, 1)
        return BarrierPair(float(near.min()), float(far.max()), side=1)

    crossings = _negative_crossings(spec, g)
    nearest = float(np.abs(crossings).min())
    deepest = float(np.abs(crossings).max())
    delta = 2.0 ** (math.floor(math.log2(nearest)) - 1)
    reach = max(2.0 * deepest, abs(bounds_generalized(spec, g).lower))
    beta = 2.0 ** math.ceil(math.log2(reach))
    return BarrierPair(delta, beta, side=-1, crossings=crossings)


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
        while a >= _MIN_STEP:
            trial = np.clip(u - a * grad, lo, hi)
            direction = trial - u
            if np.any(direction):
                try:
                    j_trial = energy_of(trial)
                except ExponentOverflowError:
                    j_trial = math.inf  # fails the Armijo test
                decrease = float(np.dot(mu * grad, direction))
                if j_trial <= j_val + _ARMIJO * decrease + noise_floor * (1.0 + abs(j_val)):
                    break
            a *= _SHRINK
        else:
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
            status = "converged" if grad_norm < cfg.tol else status

    converged = status == "converged" and grad_norm < cfg.tol
    if converged and (np.any(u <= lo) or np.any(u >= hi)):
        raise InteriorViolationError("minimizer converged on the box boundary")
    jac_sign = linalg.det_sign(jac(u)) if converged else 0
    return SolveReport(
        _freeze(u),
        grad_norm,
        steps + polish_iterations,
        jac_sign,
        jac_sign != 0,
        energy_history=tuple(energies),
    )


def find_two_solutions(
    spec: ProblemSpec, g: WeightedGraph, cfg: SolverConfig
) -> list[SolveReport]:
    """The zero solution plus a one-signed second solution.

    The zero field solves the generalized equation identically.  The
    branch is the side of ``choose_barriers``' pair, which checks the
    hypotheses.  Under the positive branch the second solution is the
    interior minimizer of the energy over the barrier box.  Under the
    negative branch the energy has its local minimum *at* zero, so the
    second (negative) solution is not a box minimizer; it is found by
    Newton deflated against zero, warm-started at the pointwise crossing
    profile and constant fields in the mirrored box, with a full
    multi-start enumeration as fallback (weak graph coupling can scatter
    the negative solutions far from any constant profile).
    """
    return _two_solutions(spec, g, cfg, choose_barriers(spec, g))


def _two_solutions(
    spec: ProblemSpec, g: WeightedGraph, cfg: SolverConfig, barriers: BarrierPair
) -> list[SolveReport]:
    """``find_two_solutions`` with ``choose_barriers(spec, g)`` already in hand."""
    zero_report = newton(spec, g, np.zeros(g.n), cfg)
    if not zero_report.converged:
        raise MultiplicityFailureError("the zero solution failed to certify (degenerate Jacobian)")

    if barriers.side == 1:
        second = minimize_box(spec, g, barriers, cfg)
        if not second.converged:
            raise SolveFailedError("box minimization did not converge")
    else:
        lo, hi = barriers.box()
        fun, jac = _kernels(spec, g)
        deflated, _, step_scale = _deflated_system(fun, jac, [np.zeros(g.n)])
        crossings = barriers.crossings
        starts = [crossings, np.full(g.n, _mean_constant_root(fun, g, lo, hi))]
        middle = -math.sqrt(barriers.delta * barriers.beta)
        starts += [np.full(g.n, c) for c in (np.mean(crossings), middle, crossings.min(), crossings.max())]

        def candidates():
            for start in starts:
                start = np.clip(start, lo, hi)
                yield _newton_system(deflated, jac, start, cfg, true_fun=fun, step_scale=step_scale)
            # weakly coupled graphs can scatter the negative solutions far
            # from any constant profile; fall back to full enumeration
            from .degree import _enumerate_signed_roots

            radius = bounds_generalized(spec, g).radius
            for root in _enumerate_signed_roots(spec, g, None, radius, cfg, n_starts=48)[0]:
                if np.all(root < 0.0):
                    yield newton(spec, g, root, cfg)

        def negative(r: SolveReport) -> bool:
            # strictly negative, and not zero itself: beyond the deflation radius around it
            return r.converged and bool(np.all(r.solution < 0.0)) and r.solution.min() < -cfg.deflation_radius

        second = next(filter(negative, candidates()), None)
        if second is None:
            raise SolveFailedError("no strictly negative second solution found")

    separation = float(np.maximum.reduce(np.abs(second.solution - zero_report.solution)))
    if separation <= cfg.deflation_radius:
        raise MultiplicityFailureError(
            f"second solution coincides with zero within {cfg.deflation_radius:.3g}"
        )
    return [zero_report, second]

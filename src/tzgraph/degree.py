"""Empirical Brouwer degree estimation.

The degree of the residual map over a ball that provably contains every
solution equals the sum of Jacobian determinant signs over the
(nondegenerate) zeros inside it.  On multi-vertex graphs the zeros are
enumerated heuristically: deflated Newton runs from low-discrepancy start
points, each certified root repels subsequent runs, and the signed count
is reported together with an honesty marker.  On a single vertex the
Laplacian vanishes, the equation is scalar, and sign-change bisection over
the a priori interval enumerates the zeros exhaustively.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    BoundsInapplicableError,
    DegenerateRootError,
    ExponentOverflowError,
    SpecValidationError,
)
from .estimates import bounds_classic, bounds_generalized
from .graphs import WeightedGraph
from .model import (
    HomotopyParams,
    Kind,
    ProblemSpec,
    _kernels,
    default_epsilon,
    jacobian,
)
from .solvers import SolverConfig, _newton_system, _deflated_system

__all__ = [
    "Confidence",
    "DegreeReport",
    "estimate_degree",
    "degree_single_vertex",
    "verify_homotopy_invariance",
]

# two roots closer than this in sup norm are merged (with a warning);
# an order above the default Newton tolerance
DEDUP_RADIUS = 1e-5
_SCAN_POINTS = 4097
_DERIVATIVE_FLOOR = 1e-12


class Confidence(str, enum.Enum):
    PROVEN = "proven"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class DegreeReport:
    """Deduplicated zeros inside the ball, their signs, and the signed sum."""

    solutions: tuple[np.ndarray, ...]
    signs: tuple[int, ...]
    degree: int
    radius: float
    starts_used: int
    exhaustive_confidence: Confidence


def _canonical_order(
    roots: list[np.ndarray], signs: list[int]
) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    order = sorted(range(len(roots)), key=lambda i: tuple(np.round(roots[i], 9)))
    return tuple(roots[i] for i in order), tuple(signs[i] for i in order)


# start points cycle through these radius fractions: roots of the
# generalized kind cluster near the zero solution, so coverage is needed at
# several scales, not just near the ball boundary
_START_SCALES = (1.0, 0.25, 0.0625, 0.015625)
# per-root probing offsets, as fractions of the ball radius: near the
# degree-zero fold roots annihilate in pairs, so each found root gets its
# neighborhood searched for a partner
_PROBE_SCALES = (0.02, 0.1)
# a root's annihilation partner lies along the near-singular direction of
# its Jacobian; that eigenvector gets its own ladder of probe distances
# (one absolute rung just above dedup range, the rest radius-relative)
_FOLD_RELATIVE_SCALES = (1e-3, 1e-2, 5e-2, 0.2)
_MAX_PROBED_ROOTS = 64


def _enumerate_signed_roots(
    fun: Callable[[np.ndarray], np.ndarray],
    jac_fun: Callable[[np.ndarray], np.ndarray],
    dim: int,
    radius: float,
    cfg: SolverConfig,
    n_starts: int,
) -> tuple[list[np.ndarray], list[int], int]:
    """Deflated multi-start root enumeration inside the sup-norm ball.

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
        starts.extend(p * _START_SCALES[i % len(_START_SCALES)] for i, p in enumerate(points))
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
        dfun, djac = _deflated_system(fun, jac_fun, roots)
        report = _newton_system(
            dfun,
            djac,
            start,
            run_cfg,
            sign_jac_fun=jac_fun,
            true_fun=fun,
            escape_radius=escape,
        )
        if report.residual_norm >= cfg.tol:
            return None
        u = np.array(report.solution)
        if float(np.max(np.abs(u))) >= radius:
            return None
        if roots:
            closest = min(float(np.max(np.abs(u - r))) for r in roots)
            if closest <= DEDUP_RADIUS:
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
    while probe_queue and probed < _MAX_PROBED_ROOTS:
        center = probe_queue.pop(0)
        probed += 1
        for scale in _PROBE_SCALES:
            for offset in offsets:
                found = try_start(center + scale * radius * offset)
                if found is not None:
                    probe_queue.append(found)
        direction = fold_direction(center)
        if direction is None:
            continue
        distances = [4.0 * DEDUP_RADIUS] + [s * radius for s in _FOLD_RELATIVE_SCALES]
        for distance in distances:
            for orientation in (1.0, -1.0):
                found = try_start(center + orientation * distance * direction)
                if found is not None:
                    probe_queue.append(found)
    return roots, signs, runs


def _check_search(radius: float | None, n_starts: int) -> None:
    if n_starts < 1:
        raise SpecValidationError(f"the search needs at least one start, got {n_starts}")
    if radius is not None and not 0.0 < radius < math.inf:
        raise SpecValidationError(f"the search radius must be finite and positive, got {radius}")


def _default_radius(spec: ProblemSpec, g: WeightedGraph) -> float:
    if spec.kind is Kind.CLASSIC:
        return bounds_classic(spec).radius
    return bounds_generalized(spec, g).radius


def estimate_degree(
    spec: ProblemSpec,
    g: WeightedGraph,
    cfg: SolverConfig = SolverConfig(),
    n_starts: int = 64,
    radius: float | None = None,
) -> DegreeReport:
    """Signed count of residual zeros inside the a priori ball.

    The ball radius comes from the applicable a priori box unless
    overridden.  For the classic kind with ``h2 >= 0`` everywhere the
    integral of the residual is strictly positive for every field, so no
    zeros exist in any ball: the report short-circuits to degree 0 with no
    search and is marked proven.
    """
    _check_search(radius, n_starts)
    if spec.kind is Kind.CLASSIC and float(spec.h2.min()) >= 0.0:
        ball = radius if radius is not None else math.inf
        return DegreeReport((), (), 0, ball, 0, Confidence.PROVEN)
    if radius is None:
        try:
            radius = _default_radius(spec, g)
        except BoundsInapplicableError as exc:
            raise BoundsInapplicableError(
                f"no a priori ball available ({exc}); supply a radius explicitly"
            ) from exc
    roots, signs, runs = _enumerate_signed_roots(
        *_kernels(spec, g), g.n, float(radius), cfg, n_starts
    )
    ordered_roots, ordered_signs = _canonical_order(roots, signs)
    return DegreeReport(
        ordered_roots,
        ordered_signs,
        int(sum(ordered_signs)),
        float(radius),
        runs,
        Confidence.HEURISTIC,
    )


def _scalar_values(spec: ProblemSpec, c: np.ndarray) -> np.ndarray:
    h1 = float(spec.h1[0])
    h2 = float(spec.h2[0])
    with np.errstate(over="ignore"):
        e_up = np.exp(spec.A * c)
        e_dn = np.exp(-spec.B * c)
        if spec.kind is Kind.CLASSIC:
            return h1 * e_up + h2 * e_dn
        return h1 * e_up * (e_up - 1.0) + h2 * e_dn * (e_dn - 1.0)


def degree_single_vertex(spec: ProblemSpec) -> DegreeReport:
    """Exhaustive scalar enumeration for one-vertex problems.

    With no edges the Laplacian vanishes and the equation reduces to a
    scalar root-finding problem, solved by sign-change bisection over the
    a priori interval padded by one on each side.  Every root's derivative
    sign is evaluated in closed form, so the result is proven rather than
    heuristic (up to roots of even multiplicity, which surface as
    degeneracy errors).
    """
    if spec.n != 1:
        raise SpecValidationError("scalar enumeration needs a single-vertex problem")
    k1 = WeightedGraph(("o",), (1.0,), ())
    if spec.kind is Kind.CLASSIC and float(spec.h2[0]) >= 0.0:
        return DegreeReport((), (), 0, math.inf, 0, Confidence.PROVEN)
    box = bounds_classic(spec) if spec.kind is Kind.CLASSIC else bounds_generalized(spec, k1)
    lo, hi = box.lower - 1.0, box.upper + 1.0

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    values = _scalar_values(spec, grid)
    roots: list[float] = []
    for i in range(_SCAN_POINTS - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(values[i]), float(values[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = float(_scalar_values(spec, np.array([mid]))[0])
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

    signs: list[int] = []
    for r in deduped:
        derivative = float(jacobian(spec, k1, np.array([r]))[0, 0])
        if abs(derivative) < _DERIVATIVE_FLOOR:
            raise DegenerateRootError(
                f"scalar root {r:.12g} has derivative below {_DERIVATIVE_FLOOR:g}"
            )
        signs.append(1 if derivative > 0.0 else -1)
    solutions = tuple(np.array([r]) for r in deduped)
    return DegreeReport(
        solutions,
        tuple(signs),
        int(sum(signs)),
        box.radius,
        0,
        Confidence.PROVEN,
    )


def verify_homotopy_invariance(
    spec: ProblemSpec,
    g: WeightedGraph,
    cfg: SolverConfig = SolverConfig(),
    t_values: Sequence[float] = (0.0, 0.5, 1.0),
    n_starts: int = 64,
) -> bool:
    """True when the estimated degree of the deformed map agrees at every t.

    Classic: each deformation member is itself a classic equation with
    shifted coefficients and a negative second coefficient, so each stage
    gets its own valid a priori ball.  Generalized: all stages share the
    single t-uniform ball; the t = 0 member has a strictly positive
    pointwise part for every field, so its degree is 0 with no search.
    """
    _check_search(None, n_starts)
    degrees: list[int] = []
    if spec.kind is Kind.CLASSIC:
        eps = default_epsilon(spec)
        for t in t_values:
            t = float(t)
            shifted = ProblemSpec(
                Kind.CLASSIC,
                t * eps + (1.0 - t) * spec.h1,
                -t * eps + (1.0 - t) * spec.h2,
                spec.A,
                spec.B,
            )
            degrees.append(estimate_degree(shifted, g, cfg, n_starts).degree)
        return len(set(degrees)) == 1

    if np.any(spec.h2 <= 0.0):
        raise BoundsInapplicableError(
            "the t-uniform ball requires h2 > 0 at every vertex"
        )
    ball = bounds_generalized(spec, g).radius
    for t in t_values:
        t = float(t)
        if t == 0.0:
            degrees.append(0)
            continue
        _, signs, _ = _enumerate_signed_roots(
            *_kernels(spec, g, HomotopyParams(t)), g.n, ball, cfg, n_starts
        )
        degrees.append(int(sum(signs)))
    return len(set(degrees)) == 1

"""Empirical Brouwer degree estimation.

The degree of the residual map over a ball that provably contains every
solution equals the sum of Jacobian determinant signs over the
(nondegenerate) zeros inside it.  On multi-vertex graphs the zeros are
enumerated heuristically: deflated Newton runs from low-discrepancy start
points, each certified root repels subsequent runs, and the signed count
is reported together with an honesty marker.  A block of starts runs in
lockstep (``solvers._newton_block``), each with the bits of its own run; a
start whose run ends at a zero is run again alone to certify the root, and
the starts after it are screened again with that root known.  On a single
vertex the Laplacian vanishes, the equation is scalar, and sign-change
bisection over the a priori interval enumerates the zeros exhaustively.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

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
    _pointwise,
    default_epsilon,
    jacobian,
)
from .solvers import SolverConfig, _bisect, _deflated_system, _newton_block, _newton_system

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
    spec: ProblemSpec,
    g: WeightedGraph,
    hp: HomotopyParams | None,
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
    signs, and the number of Newton runs spent.  Wave one and the probes of
    each root are each screened as one block (``solvers._newton_block``).
    """
    fun, jac_fun = _kernels(spec, g, hp)
    block_fun, block_jac = _kernels(spec, g, hp, block=True)
    dim = g.n
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
    probe_queue: list[np.ndarray] = []

    def certify(start: np.ndarray) -> None:
        dfun, jac, step_scale = _deflated_system(fun, jac_fun, roots)
        report = _newton_system(
            dfun,
            jac,
            start,
            run_cfg,
            true_fun=fun,
            escape_radius=escape,
            step_scale=step_scale,
        )
        if report.residual_norm >= cfg.tol:
            return
        u = np.array(report.solution)
        if float(np.maximum.reduce(np.abs(u))) >= radius:
            return
        if roots:
            closest = min(float(np.maximum.reduce(np.abs(u - r))) for r in roots)
            if closest <= DEDUP_RADIUS:
                if closest > cfg.deflation_radius:
                    warnings.warn(
                        f"two roots within {closest:.2e} sup-distance merged",
                        stacklevel=4,
                    )
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

    def run_block(block: list[np.ndarray]) -> None:
        nonlocal runs
        pending = np.array(block)
        while len(pending):
            passed = _newton_block(block_fun, block_jac, pending, run_cfg, roots, escape)[2]
            runs += len(passed)
            if passed[-1]:
                certify(pending[len(passed) - 1])
            pending = pending[len(passed) :]

    run_block(starts)

    offsets: list[np.ndarray] = [np.ones(dim), -np.ones(dim)]
    for x in range(dim):
        bump = np.zeros(dim)
        bump[x] = 1.0
        offsets.extend((bump, -bump))
    unique = {tuple(o) for o in offsets}
    offsets = [np.array(o) for o in sorted(unique)]
    distances = [4.0 * DEDUP_RADIUS] + [s * radius for s in _FOLD_RELATIVE_SCALES]

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
    while probe_queue and probed < _MAX_PROBED_ROOTS:
        center = probe_queue.pop(0)
        probed += 1
        probes = [center + scale * radius * offset for scale in _PROBE_SCALES for offset in offsets]
        direction = fold_direction(center)
        if direction is not None:
            probes += [center + side * d * direction for d in distances for side in (1.0, -1.0)]
        run_block(probes)
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
    roots, signs, runs = _enumerate_signed_roots(spec, g, None, float(radius), cfg, n_starts)
    ordered_roots, ordered_signs = _canonical_order(roots, signs)
    return DegreeReport(
        ordered_roots,
        ordered_signs,
        int(sum(ordered_signs)),
        float(radius),
        runs,
        Confidence.HEURISTIC,
    )


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

    pointwise = _pointwise(spec)[0]

    def term(c: np.ndarray) -> np.ndarray:
        return pointwise(spec.A * c, -spec.B * c)

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    # beyond the exponent range the term is an infinity of the right sign; the
    # signs are multiplied, not the values, whose product can overflow
    with np.errstate(over="ignore"):
        values = term(grid)
        brackets = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0.0)
        found = _bisect(term, grid[brackets], grid[brackets + 1], values[brackets])
    roots = np.concatenate((grid[values == 0.0], found)).tolist()

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


def _homotopy_degrees(
    spec: ProblemSpec, g: WeightedGraph, cfg: SolverConfig, t_values: Sequence[float], n_starts: int
) -> list[int]:
    """Estimated degree of the deformed map at each t, in the order given.

    Classic at t = 0 and generalized at t = 1 are the undeformed map, with
    the ball ``estimate_degree`` uses, so those entries are its degree.
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
        return degrees

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
        _, signs, _ = _enumerate_signed_roots(spec, g, HomotopyParams(t), ball, cfg, n_starts)
        degrees.append(int(sum(signs)))
    return degrees


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
    return len(set(_homotopy_degrees(spec, g, cfg, t_values, n_starts))) == 1

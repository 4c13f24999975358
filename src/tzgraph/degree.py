"""Empirical Brouwer degree estimation.

The degree of the residual map over a ball that provably contains every
solution equals the sum of Jacobian determinant signs over the
(nondegenerate) zeros inside it.  Where a theorem gives the degree (see
``estimate_degree``) the report carries the proven value.  Otherwise, on
multi-vertex graphs, the zeros are enumerated heuristically: deflated
Newton runs from low-discrepancy start points, each certified root repels
subsequent runs, and the signed count is reported together with an
honesty marker.  The starts form one queue, each root's probes joining it
as the root is certified, and run in lockstep (``solvers._newton_block``),
each with the bits of its own run; a start whose run ends at a zero is run
again alone to certify the root, and the starts after it are screened
again with that root known.  On a single
vertex the Laplacian vanishes, the equation is scalar, and sign-change
bisection over the a priori interval enumerates the zeros exhaustively.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import (
    BoundsInapplicableError,
    DegenerateRootError,
    SpecValidationError,
)
from .estimates import AprioriBox, _apriori_box, _hypothesis_holds, _obstructed
from .graphs import WeightedGraph
from .model import (
    Kind,
    ProblemSpec,
    _classic_member,
    _kernels,
    _pointwise,
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
# the multi-start count when the caller names none, here and on the CLI
N_STARTS = 64
_SCAN_POINTS = 4097


class Confidence(str, enum.Enum):
    PROVEN = "proven"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class DegreeReport:
    """Deduplicated zeros found inside the ball, their signs, and the degree.

    ``degree`` is the value a theorem gives where one applies, else the
    signed count of the zeros found; ``exhaustive_confidence`` says whether
    ``solutions`` are provably every zero in the ball.
    """

    solutions: tuple[np.ndarray, ...]
    signs: tuple[int, ...]
    degree: int
    radius: float
    starts_used: int
    exhaustive_confidence: Confidence

    @property
    def enumerated_degree(self) -> int:
        """Signed count of the zeros found."""
        return int(sum(self.signs))


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


def _run_limits(cfg: SolverConfig, radius: float) -> tuple[SolverConfig, float]:
    """Budget and escape radius of every root-finding run in a ball of ``radius``."""
    # enumeration runs are throwaway probes: converging runs need far fewer
    # than the configured solver budget, so failing ones get cut off sooner
    return replace(cfg, max_iter=min(cfg.max_iter, 60)), max(8.0 * radius, 10.0)


def _enumerate_signed_roots(
    spec: ProblemSpec,
    g: WeightedGraph,
    t: float | None,
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
    signs, and the number of Newton runs spent.  Both waves form one queue:
    each root's probes join its end as the root is certified, and
    ``solvers._newton_block`` screens the queue on twice as many lanes as
    wave one has starts, so wave one and the first probes run together.
    """
    fun, jac_fun = _kernels(spec, g, t)
    dim = g.n
    queue = [np.zeros(dim)]
    if n_starts > 1:
        points = linalg.halton_ball(dim, n_starts - 1, radius, cfg.seed)
        queue.extend(p * _START_SCALES[i % len(_START_SCALES)] for i, p in enumerate(points))
    lanes = 2 * len(queue)
    run_cfg, escape = _run_limits(cfg, radius)
    roots: list[np.ndarray] = []
    signs: list[int] = []

    # the constant and the coordinate vectors, both signs, in lexicographic order:
    # -1, -e_0, ..., -e_{n-1}, e_{n-1}, ..., e_0, 1, where in one dimension 1 is e_0
    eye = np.eye(dim)
    offsets = np.vstack((-eye, eye[::-1]) if dim == 1 else (-np.ones(dim), -eye, eye[::-1], np.ones(dim)))
    distances = [4.0 * DEDUP_RADIUS] + [s * radius for s in _FOLD_RELATIVE_SCALES]

    def fold_direction(center: np.ndarray) -> np.ndarray | None:
        try:
            jac = np.asarray(jac_fun(center), dtype=float)
            eigenvalues, eigenvectors = np.linalg.eig(jac)
        except np.linalg.LinAlgError:
            return None
        vector = np.real(eigenvectors[:, int(np.argmin(np.abs(eigenvalues)))])
        peak = float(np.maximum.reduce(np.abs(vector)))
        return vector / peak if peak > 0.0 else None

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
                        stacklevel=3,
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
        if len(roots) <= _MAX_PROBED_ROOTS:
            queue.extend(u + scale * radius * offset for scale in _PROBE_SCALES for offset in offsets)
            direction = fold_direction(u)
            if direction is not None:
                queue.extend(u + side * d * direction for d in distances for side in (1.0, -1.0))

    runs = 0
    while runs < len(queue):
        passed = _newton_block(fun, jac_fun, np.array(queue[runs:]), run_cfg, roots, escape, lanes)[2]
        runs += len(passed)
        if passed[-1]:
            certify(queue[runs - 1])
    return roots, signs, runs


def _check_search(radius: float | None, n_starts: int) -> None:
    if n_starts < 1:
        raise SpecValidationError(f"the search needs at least one start, got {n_starts}")
    if radius is not None and not 0.0 < radius < math.inf:
        raise SpecValidationError(f"the search radius must be finite and positive, got {radius}")


def estimate_degree(
    spec: ProblemSpec,
    g: WeightedGraph,
    cfg: SolverConfig = SolverConfig(),
    n_starts: int = N_STARTS,
    radius: float | None = None,
) -> DegreeReport:
    """Degree of the residual map over the a priori ball, and the zeros found in it.

    The ball radius comes from the applicable a priori box unless
    overridden.  Where a proof settles the degree, the report gives the
    proven value:

    - Classic, ``h2 >= 0`` everywhere: the integral of the residual is
      strictly positive for every field, so no ball holds a zero.  Degree 0,
      no search.
    - Classic, ``h2 < 0`` everywhere: ``f'(u) = A h1 e^{Au} - B h2 e^{-Bu} > 0``,
      so with ``D = diag(mu)`` the matrix ``D J = -D lap + D diag(f')`` is
      symmetric positive definite (``-D lap`` is the weighted graph
      Laplacian, positive semidefinite).  ``J`` is similar to the symmetric
      ``D^{-1/2} (D J) D^{-1/2}``, so ``det J > 0`` and every zero has sign
      +1.  And for ``u != v``, ``<F(u) - F(v), u - v>_mu`` is the integral
      over ``s`` in [0, 1] of ``(u - v)^T D J(v + s (u - v)) (u - v) > 0``,
      so there is at most one zero, and the box of ``bounds_classic``
      holds it.  One Newton run from 0, the run the enumeration certifies
      first, finds it: if it converges with sign +1 the report holds that
      root, degree 1 and one start, or, when the root lies outside a given
      radius, no root and degree 0.  A failed run leaves the root list to
      the enumeration; on the default ball the degree stays 1.
    - Generalized, default ball (which needs ``h2 > 0``): the ball strictly
      holds the ``bounds_generalized`` box, which bounds the zeros of every
      member ``t`` in [0, 1] of the deformation, so no zero crosses the
      sphere and the degree is the same for every ``t``.  At ``t = 0`` the
      pointwise term ``h1 e^{2Au} + h2 e^{-2Bu}`` is positive and the
      Laplacian integrates to 0, so the residual's integral is positive for
      every field: no zeros, degree 0.  The enumerated roots are still
      listed, and their signed count is ``enumerated_degree``.
    - One vertex, default ball: the exact scalar scan of
      ``degree_single_vertex``.

    Elsewhere the degree is the signed count of the deflated multi-start
    enumeration.  Its root set, like the generalized one, is heuristic.
    """
    _check_search(radius, n_starts)
    if _obstructed(spec):
        ball = radius if radius is not None else math.inf
        return DegreeReport((), (), 0, ball, 0, Confidence.PROVEN)
    default_ball = radius is None
    if default_ball:
        try:
            radius = _apriori_box(spec, g).radius
        except BoundsInapplicableError as exc:
            raise BoundsInapplicableError(
                f"no a priori ball available ({exc}); supply a radius explicitly"
            ) from exc
        if g.n == 1:
            return degree_single_vertex(spec)
    radius = float(radius)
    if spec.kind is Kind.CLASSIC and _hypothesis_holds(spec):
        fun, jac_fun = _kernels(spec, g)
        run_cfg, escape = _run_limits(cfg, radius)
        run = _newton_system(fun, jac_fun, np.zeros(g.n), run_cfg, escape_radius=escape)
        if run.converged and run.jac_sign == 1:
            if float(np.maximum.reduce(np.abs(run.solution))) < radius:
                return DegreeReport((np.array(run.solution),), (1,), 1, radius, 1, Confidence.PROVEN)
            if not default_ball:
                return DegreeReport((), (), 0, radius, 1, Confidence.PROVEN)
    roots, signs, runs = _enumerate_signed_roots(spec, g, None, radius, cfg, n_starts)
    ordered_roots, ordered_signs = _canonical_order(roots, signs)
    # on the default ball a proof above gives the degree: classic reaches here only with h2 < 0
    proven = (1 if spec.kind is Kind.CLASSIC else 0) if default_ball else None
    return DegreeReport(
        ordered_roots,
        ordered_signs,
        int(sum(ordered_signs)) if proven is None else proven,
        radius,
        runs,
        Confidence.HEURISTIC,
    )


def degree_single_vertex(spec: ProblemSpec) -> DegreeReport:
    """Exhaustive scalar enumeration for one-vertex problems.

    With no edges the Laplacian vanishes and the equation reduces to a
    scalar root-finding problem, solved by ``_scalar_roots``.  Every root's
    derivative sign is evaluated in closed form, so the result is proven
    rather than heuristic (up to roots of even multiplicity, which surface
    as degeneracy errors).
    """
    if spec.n != 1:
        raise SpecValidationError("scalar enumeration needs a single-vertex problem")
    if _obstructed(spec):
        return DegreeReport((), (), 0, math.inf, 0, Confidence.PROVEN)
    roots, signs, box = _scalar_roots(spec, None)
    solutions = tuple(np.array([r]) for r in roots)
    return DegreeReport(solutions, tuple(signs), int(sum(signs)), box.radius, 0, Confidence.PROVEN)


def _scalar_roots(spec: ProblemSpec, t: float | None) -> tuple[list, list[int], AprioriBox]:
    """The zeros of a one-vertex spec's deformation member ``t`` in its padded box, ascending, their signs, the box.

    The equation on one vertex holds no measure: the box is a unit-measure vertex's, padded by one.  The
    residual is the pointwise term, so sign-change bisection between the points of a grid finds every
    simple zero, and the sign of the term's slope is the zero's degree contribution.
    """
    box = _apriori_box(spec, WeightedGraph(("o",), (1.0,), ()))
    pointwise, slope = _pointwise(spec, t)

    def term(c: np.ndarray) -> np.ndarray:
        return pointwise(spec.A * c, -spec.B * c)

    # 0 solves the undeformed generalized kind: on the grid it is found exactly, not as a bisection's
    # end; the generalized boxes hold 0, and the classic term is monotone, so 0 off its box adds no root
    grid = np.union1d(np.linspace(box.lower - 1.0, box.upper + 1.0, _SCAN_POINTS), 0.0)
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

    # the Laplacian of one vertex is 0, so the derivative is the slope of the term; it is lost in rounding
    # where small against its terms, slope(Au, -inf) and slope(-inf, -Bu), which h1 and h2 scale alike
    signs: list[int] = []
    for r in deduped:
        au, bu = spec.A * r, -spec.B * r
        derivative = float(slope(au, bu)[0])
        size = float(abs(slope(au, -math.inf)[0]) + abs(slope(-math.inf, bu)[0]))
        if abs(derivative) <= linalg.PIVOT_RTOL * size:
            raise DegenerateRootError(f"scalar root {r:.12g} is degenerate: slope {derivative:.3g}, terms {size:.3g}")
        signs.append(1 if derivative > 0.0 else -1)
    return deduped, signs, box


def _homotopy_degrees(spec: ProblemSpec, g: WeightedGraph, cfg: SolverConfig, n_starts: int) -> list[tuple]:
    """``(t, degree)`` pairs: the signed count of the zeros found of the deformed map at t = 0, 0.5 and 1.

    The undeformed member comes first: t = 0 on the classic kind, t = 1 on the generalized kind.  Each count
    is of the zeros in an a priori box: classic members in their own, generalized ones in the t-uniform one,
    on one vertex by ``degree_single_vertex``'s scan.  Elsewhere the enumeration counts the undeformed member,
    as the degree ``check`` reports and the one audit of the enumerator on the equation as given, and the
    generalized t = 0.5.  The classic t = 0.5 and 1 (h2 < 0: one zero, of sign +1) take ``estimate_degree``'s
    Newton run from 0, enumerated only where it fails, and count its ``enumerated_degree``, never ``degree``.
    """
    _check_search(None, n_starts)

    def signed_count(member: ProblemSpec, t: float | None) -> int:
        if g.n == 1:  # the scan takes the member's box itself
            return int(sum(_scalar_roots(member, t)[1]))
        radius = _apriori_box(member, g).radius
        return int(sum(_enumerate_signed_roots(member, g, t, radius, cfg, n_starts)[1]))

    if spec.kind is Kind.CLASSIC:
        members = ((t, ProblemSpec(Kind.CLASSIC, *_classic_member(spec, t), spec.A, spec.B)) for t in (0.0, 0.5, 1.0))
        return [(t, estimate_degree(m, g, cfg, n_starts).enumerated_degree if t else signed_count(m, None))
                for t, m in members]
    return [(t, 0 if t == 0.0 else signed_count(spec, t)) for t in (1.0, 0.5, 0.0)]


def verify_homotopy_invariance(
    spec: ProblemSpec,
    g: WeightedGraph,
    cfg: SolverConfig = SolverConfig(),
    n_starts: int = N_STARTS,
) -> bool:
    """True when the signed count of the zeros found agrees at t = 0, 0.5 and 1.

    Classic: each member is a classic equation with a negative second coefficient, in its own a priori ball.
    t = 0, the equation as given, is enumerated to audit the enumerator; t = 0.5 and 1 take ``estimate_degree``'s
    one Newton run from 0 to their one zero, enumerated only where it fails.  Generalized: all stages share the
    t-uniform ball; t = 1 and 0.5 are enumerated, and t = 0 has a positive pointwise part, so degree 0, no search.
    """
    return len({d for _, d in _homotopy_degrees(spec, g, cfg, n_starts)}) == 1

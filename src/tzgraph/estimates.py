"""Closed-form a priori bounds delimiting the search ball for solvers, and the sign tests on h2.

Every bound here is solution-independent: it is evaluated from the
coefficient extremes and graph constants alone, and every exact solution
of the applicable equation is guaranteed to lie inside the resulting box.
The ``radius`` field inflates the box so degree estimation works on a ball
whose boundary provably carries no zeros.  The results split on the sign of
h2, and ``_obstructed`` and ``_hypothesis_holds`` are the package's tests of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BoundsInapplicableError
from .graphs import WeightedGraph, graph_constants
from .model import Kind, ProblemSpec

__all__ = ["AprioriBox", "bounds_classic", "bounds_generalized", "elliptic_constant"]

# radius = max(|lower|, |upper|) * RADIUS_FACTOR + RADIUS_PAD keeps all
# solutions strictly interior with a deterministic margin
RADIUS_FACTOR = 1.5
RADIUS_PAD = 1.0


@dataclass(frozen=True)
class AprioriBox:
    """Pointwise bounds on solutions plus an inflated ball radius."""

    lower: float
    upper: float
    radius: float
    margin: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("box has lower > upper")
        if self.radius <= max(abs(self.lower), abs(self.upper)):
            raise ValueError("radius does not strictly contain the box")

    def contains(self, u: np.ndarray, slack: float = 0.0) -> bool:
        """Pointwise membership, with optional slack for converged iterates."""
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lower - slack) and np.all(u <= self.upper + slack))


def _make_box(lower: float, upper: float) -> AprioriBox:
    extent = max(abs(lower), abs(upper))
    radius = extent * RADIUS_FACTOR + RADIUS_PAD
    if not math.isfinite(radius):
        raise BoundsInapplicableError(f"the a priori box [{lower:.6g}, {upper:.6g}] leaves the float range")
    return AprioriBox(lower, upper, radius, radius - extent)


def _apriori_box(spec: ProblemSpec, g: WeightedGraph) -> AprioriBox:
    """The box of the spec's kind: ``bounds_classic`` or ``bounds_generalized``."""
    return bounds_classic(spec) if spec.kind is Kind.CLASSIC else bounds_generalized(spec, g)


def _hypothesis_holds(spec: ProblemSpec) -> bool:
    """The sign of h2 that the box of the spec's kind needs: h2 < 0 (classic) or h2 > 0 at every vertex."""
    return bool(np.all(spec.h2 < 0.0 if spec.kind is Kind.CLASSIC else spec.h2 > 0.0))


def _obstructed(spec: ProblemSpec) -> bool:
    """The integral obstruction: classic kind with h2 >= 0 at every vertex, where no solution exists."""
    return spec.kind is Kind.CLASSIC and bool(np.all(spec.h2 >= 0.0))


def bounds_classic(spec: ProblemSpec) -> AprioriBox:
    """Sup-norm box for the classic equation with negative h2.

    Evaluating the equation at a minimizing vertex (where the Laplacian
    term has a sign) gives
        lower = log(-max h2 / max h1) / (A + B)
    and the maximizing vertex symmetrically gives
        upper = log(-min h2 / min h1) / (A + B).
    """
    if spec.kind is not Kind.CLASSIC:
        raise BoundsInapplicableError("classic bounds apply to the classic kind only")
    if not _hypothesis_holds(spec):
        raise BoundsInapplicableError(
            "classic bounds require h2 < 0 at every vertex "
            f"(max h2 = {float(spec.h2.max()):.6g})"
        )
    denom = spec.A + spec.B
    lower = _log_ratio(-float(spec.h2.max()), float(spec.h1.max())) / denom
    upper = _log_ratio(-float(spec.h2.min()), float(spec.h1.min())) / denom
    return _make_box(lower, upper)


def _log_ratio(num: float, den: float) -> float:
    """``log(num / den)`` of two positive floats, also where the quotient overflows or underflows."""
    ratio = num / den
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    return math.log(num) - math.log(den)


def bounds_generalized(spec: ProblemSpec, g: WeightedGraph) -> AprioriBox:
    """Sup-norm box for the generalized equation with positive h2.

    Valid uniformly for every member of the generalized deformation
    (parameter t in [0, 1]), which is what makes single-ball degree
    arguments and continuation audits possible.  The chain is

        upper = (1/A) log(1/2 + sqrt(max h2 / (4 min h1) + 1/4))
        C2    = max h2 * Vol + max h1 * max(1/4, e^{2 A upper}) * Vol
        lower = -(1/B) log(1/2 + sqrt(C2 / (min h2 * mu0) + 1/4))

    and the box always contains 0, which solves the equation identically.
    Where a quotient or ``e^{2 A upper}`` leaves the normal floats, it runs in logs.
    """
    if spec.kind is not Kind.GENERALIZED:
        raise BoundsInapplicableError("generalized bounds apply to the generalized kind only")
    if not _hypothesis_holds(spec):
        raise BoundsInapplicableError(
            "generalized bounds require h2 > 0 at every vertex "
            f"(min h2 = {float(spec.h2.min()):.6g})"
        )
    max_h1 = float(spec.h1.max())
    min_h1 = float(spec.h1.min())
    max_h2 = float(spec.h2.max())
    min_h2 = float(spec.h2.min())
    volume = g.volume
    mu0 = float(g.mu.min())

    log = math.log
    upper = _log_root(max_h2 / (4.0 * min_h1), log(max_h2) - log(4.0) - log(min_h1)) / spec.A
    growth = 2.0 * spec.A * upper  # e^growth overflows past 709.78
    majorant = max_h2 * volume + max_h1 * max(0.25, math.exp(growth)) * volume if growth < 709.0 else math.inf
    log_majorant = log(volume) + float(np.logaddexp(log(max_h2), log(max_h1) + max(log(0.25), growth)))
    lower = -_log_root(majorant / (min_h2 * mu0), log_majorant - log(min_h2) - log(mu0)) / spec.B
    return _make_box(lower, upper)


def _log_root(q: float, log_q: float) -> float:
    """``log(1/2 + sqrt(q + 1/4))``, from ``log q`` where the computed ``q`` is not a normal float."""
    if not sys.float_info.min <= q < math.inf:
        if log_q > 700.0:
            return 0.5 * log_q  # sqrt(q) > e^350 swamps the 1/2 and the 1/4
        q = math.exp(log_q)
    return math.log(0.5 + math.sqrt(q + 0.25))


def elliptic_constant(g: WeightedGraph) -> float:
    """Constant C with max(u) - min(u) <= C * ||laplacian(u)||_inf for all u.

        C = sqrt(D * Vol(G) / (w0 * lambda1)),   D = diameter in edges.

    D dominates the edge count of the extremal shortest path of any
    individual field, so the bound holds field-independently.  Returns 0
    for the single-vertex graph, where max - min is identically zero.
    Where ``w0 * lambda1`` is not a normal float the roots are taken apart.
    """
    if g.n == 1:
        return 0.0
    constants = graph_constants(g)
    spread, w0, lambda1 = (constants.ell - 1) * constants.volume, constants.w0, constants.lambda1
    if w0 * lambda1 >= sys.float_info.min:
        return math.sqrt(spread / (w0 * lambda1))
    return math.sqrt(spread / w0) / math.sqrt(lambda1)

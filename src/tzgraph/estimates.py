"""Closed-form a priori bounds delimiting the search ball for solvers.

Every bound here is solution-independent: it is evaluated from the
coefficient extremes and graph constants alone, and every exact solution
of the applicable equation is guaranteed to lie inside the resulting box.
The ``radius`` field inflates the box so degree estimation works on a ball
whose boundary provably carries no zeros.
"""

from __future__ import annotations

import math
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
    return AprioriBox(lower, upper, radius, radius - extent)


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
    if np.any(spec.h2 >= 0.0):
        raise BoundsInapplicableError(
            "classic bounds require h2 < 0 at every vertex "
            f"(max h2 = {float(spec.h2.max()):.6g})"
        )
    denom = spec.A + spec.B
    lower = math.log(-float(spec.h2.max()) / float(spec.h1.max())) / denom
    upper = math.log(-float(spec.h2.min()) / float(spec.h1.min())) / denom
    return _make_box(lower, upper)


def bounds_generalized(spec: ProblemSpec, g: WeightedGraph) -> AprioriBox:
    """Sup-norm box for the generalized equation with positive h2.

    Valid uniformly for every member of the generalized deformation
    (parameter t in [0, 1]), which is what makes single-ball degree
    arguments and continuation audits possible.  The chain is

        upper = (1/A) log(1/2 + sqrt(max h2 / (4 min h1) + 1/4))
        C2    = max h2 * Vol + max h1 * max(1/4, e^{2 A upper}) * Vol
        lower = -(1/B) log(1/2 + sqrt(C2 / (min h2 * mu0) + 1/4))

    and the box always contains 0, which solves the equation identically.
    """
    if spec.kind is not Kind.GENERALIZED:
        raise BoundsInapplicableError("generalized bounds apply to the generalized kind only")
    if np.any(spec.h2 <= 0.0):
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

    upper = math.log(0.5 + math.sqrt(max_h2 / (4.0 * min_h1) + 0.25)) / spec.A
    majorant = max_h2 * volume + max_h1 * max(0.25, math.exp(2.0 * spec.A * upper)) * volume
    lower = -math.log(0.5 + math.sqrt(majorant / (min_h2 * mu0) + 0.25)) / spec.B
    return _make_box(lower, upper)


def elliptic_constant(g: WeightedGraph) -> float:
    """Constant C with max(u) - min(u) <= C * ||laplacian(u)||_inf for all u.

        C = sqrt(D * Vol(G) / (w0 * lambda1)),   D = diameter in edges.

    D dominates the edge count of the extremal shortest path of any
    individual field, so the bound holds field-independently.  Returns 0
    for the single-vertex graph, where max - min is identically zero.
    """
    if g.n == 1:
        return 0.0
    constants = graph_constants(g)
    return math.sqrt(
        (constants.ell - 1) * constants.volume / (constants.w0 * constants.lambda1)
    )

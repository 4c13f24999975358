"""Solvers, a priori bounds, and empirical Brouwer degrees for
Tzitzeica-type equations on finite connected weighted graphs.

The classic equation reads ``-laplacian(u) + h1 e^{Au} + h2 e^{-Bu} = 0``
and the generalized variant replaces each exponential ``E`` by
``E (E - 1)``.  The package computes solutions (Newton, deflation,
continuation, box-constrained energy minimization), solution-independent
sup-norm boxes containing every solution, and the signed count of zeros
inside the corresponding ball.
"""

from .degree import (
    Confidence,
    DegreeReport,
    degree_single_vertex,
    estimate_degree,
    verify_homotopy_invariance,
)
from .errors import (
    AlignmentError,
    BarrierInapplicableError,
    BoundsInapplicableError,
    ContinuationBrokenError,
    DegenerateRootError,
    DisconnectedGraphError,
    ExponentOverflowError,
    GraphConstructionError,
    HomotopyInfeasibleError,
    InputError,
    InteriorViolationError,
    MultiplicityFailureError,
    NoSolutionError,
    NumericalError,
    ParseError,
    SolveFailedError,
    SpecValidationError,
    TzgraphError,
)
from .estimates import AprioriBox, bounds_classic, bounds_generalized, elliptic_constant
from .graphs import (
    GraphConstants,
    WeightedGraph,
    as_field,
    average,
    gradient_norm_sq,
    graph_constants,
    integrate,
    laplacian,
    laplacian_matrix,
)
from .model import (
    Kind,
    ProblemSpec,
    default_epsilon,
    energy,
    energy_gradient,
    jacobian,
    jacobian_homotopy,
    residual,
    residual_homotopy,
)
from .solvers import (
    BarrierPair,
    SolveReport,
    SolverConfig,
    choose_barriers,
    continuation,
    find_two_solutions,
    minimize_box,
    multiplicity_branch,
    newton,
)

__version__ = "0.1.0"

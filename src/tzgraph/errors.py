"""Exception types shared across the package.

Two families matter to callers: :class:`InputError` covers rejected input
(bad files, infeasible coefficients, violated hypotheses) while
:class:`NumericalError` covers failures of a numerical procedure
(divergence, degeneracy, broken continuation).  The CLI maps them to exit
codes 2 and 3 respectively.
"""

from __future__ import annotations


class TzgraphError(Exception):
    """Base class for all package-specific errors."""


class InputError(TzgraphError):
    """Invalid input data or an inapplicable hypothesis."""


class NumericalError(TzgraphError):
    """A numerical procedure failed to produce a usable result."""


class AlignmentError(InputError, ValueError):
    """A vertex field does not match the graph's vertex ordering."""


class GraphConstructionError(InputError, ValueError):
    """Graph data violates a structural invariant."""


class DisconnectedGraphError(GraphConstructionError):
    """The vertex set splits into at least two components."""

    def __init__(self, label_a: object, label_b: object):
        self.label_a = label_a
        self.label_b = label_b
        super().__init__(
            f"graph is disconnected: no path between {label_a!r} and {label_b!r}"
        )


class ParseError(InputError, ValueError):
    """A graph file could not be parsed or fails per-line validation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpecValidationError(InputError, ValueError):
    """Problem coefficients violate an invariant of the equation kind."""


class BoundsInapplicableError(InputError):
    """The hypothesis behind the requested a priori bound does not hold."""


class BarrierInapplicableError(InputError):
    """Neither multiplicity hypothesis holds for the given coefficients."""


class HomotopyInfeasibleError(InputError):
    """No deformation parameter satisfies the required sign constraints."""


class ExponentOverflowError(NumericalError, OverflowError):
    """A public residual, Jacobian or energy is not finite: a term left the float range."""


class SolveFailedError(NumericalError):
    """An iterative solver did not converge."""


class NoSolutionError(NumericalError):
    """The equation provably has no solution (integral obstruction)."""


class ContinuationBrokenError(NumericalError):
    """A continuation stage failed even after maximal step refinement.

    Carries the failing deformation parameter and the reports of the stages
    that did succeed, in grid order.
    """

    def __init__(self, t_failed: float, reports: list):
        self.t_failed = t_failed
        self.reports = reports
        super().__init__(f"continuation broke at t={t_failed:.6g}")


class DegenerateRootError(NumericalError):
    """A root has a numerically singular Jacobian; its sign is undefined."""


class InteriorViolationError(NumericalError):
    """A box-constrained minimizer converged with an active constraint."""


class MultiplicityFailureError(NumericalError):
    """The two-solution search could not certify two distinct solutions."""

"""Residual maps, homotopy deformations, Jacobians, and the energy functional.

Two equation kinds on a weighted graph, both driven by a positive field
``h1``, a field ``h2`` (sign unconstrained here; the theorems branch on
it), and exponents ``A, B > 0``:

    classic:      -laplacian(u) + h1 e^{A u}            + h2 e^{-B u}
    generalized:  -laplacian(u) + h1 e^{A u}(e^{A u}-1) + h2 e^{-B u}(e^{-B u}-1)

Each kind has a one-parameter deformation used for degree arguments and
continuation:

    classic:      coefficients slide to (eps, -eps) as t goes 0 -> 1, so the
                  original equation sits at t = 0 and the t = 1 member has
                  the unique solution u == 0;
    generalized:  the inner "-1" factors become "-t", so the original
                  equation sits at t = 1 and the t = 0 member has positive
                  pointwise terms and hence no solution at all.

The generalized kind is variational: the energy functional defined here
has the generalized residual as its gradient in the mu-weighted inner
product, which is why ``energy_gradient`` and ``residual`` share one code
path.

The four residual and Jacobian functions validate their inputs, then run
one kernel with the deformation as a parameter (``_kernels``); ``energy``
does the same with ``_energy_kernel``.  Solvers validate once per entry
point and iterate on the kernels' unchecked callables, which keep only the
exponent guard.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ExponentOverflowError,
    HomotopyInfeasibleError,
    SpecValidationError,
)
from .graphs import WeightedGraph, as_field

__all__ = [
    "Kind",
    "ProblemSpec",
    "HomotopyParams",
    "residual",
    "residual_homotopy",
    "jacobian",
    "jacobian_homotopy",
    "energy",
    "energy_gradient",
    "default_epsilon",
    "validate_homotopy",
]

# exp() overflows just above 709; the squared-exponential terms of the
# generalized kind halve the usable range
EXP_CAP_CLASSIC = 700.0
EXP_CAP_GENERALIZED = 350.0


class Kind(str, enum.Enum):
    CLASSIC = "classic"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class ProblemSpec:
    """Equation kind, coefficient fields, and exponents.

    ``h1`` must be strictly positive everywhere for both kinds; no sign
    constraint is stored on ``h2``.
    """

    kind: Kind
    h1: np.ndarray
    h2: np.ndarray
    A: float
    B: float

    def __post_init__(self):
        h1 = np.array(self.h1, dtype=float)
        h2 = np.array(self.h2, dtype=float)
        if h1.ndim != 1 or h1.shape != h2.shape:
            raise SpecValidationError(
                f"coefficient fields must be 1-d and aligned, got {h1.shape} and {h2.shape}"
            )
        if not (np.all(np.isfinite(h1)) and np.all(np.isfinite(h2))):
            raise SpecValidationError("coefficient fields must be finite")
        if np.any(h1 <= 0.0):
            raise SpecValidationError("h1 must be strictly positive at every vertex")
        if not (0.0 < self.A < math.inf and 0.0 < self.B < math.inf):
            raise SpecValidationError("exponents A and B must be positive and finite")
        h1.flags.writeable = False
        h2.flags.writeable = False
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", float(self.B))

    @property
    def n(self) -> int:
        return self.h1.size


@dataclass(frozen=True)
class HomotopyParams:
    """Deformation parameter, plus the coefficient shift used by the classic kind."""

    t: float
    epsilon: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise SpecValidationError(f"homotopy parameter t={self.t} outside [0, 1]")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise SpecValidationError("epsilon must be positive")


def default_epsilon(spec: ProblemSpec) -> float:
    """Feasible coefficient shift for the classic deformation.

    Any positive value keeps ``t*eps + (1-t)*h1 > 0``; staying well below
    both ``min h1`` and ``-max h2`` also keeps the shifted equation deep in
    the sign regime the uniqueness argument at t = 1 needs.
    """
    max_h2 = float(spec.h2.max())
    if max_h2 >= 0.0:
        raise HomotopyInfeasibleError(
            "classic deformation requires -t*eps + (1-t)*h2(x) < 0 for all t, "
            f"which fails at t=0 because max h2 = {max_h2:.6g} >= 0"
        )
    return min(float(spec.h1.min()), -max_h2) / 4.0


def validate_homotopy(spec: ProblemSpec, hp: HomotopyParams) -> None:
    """Check the sign constraints of the deformation for this spec.

    The classic constraints are convex in t, so the endpoints decide:
    ``t*eps + (1-t)*h1 > 0`` holds for any ``eps > 0`` given ``h1 > 0``,
    and ``-t*eps + (1-t)*h2 < 0`` for all t forces ``h2 < 0`` everywhere.
    """
    if spec.kind is Kind.GENERALIZED:
        return
    if hp.epsilon is None:
        raise SpecValidationError("classic deformation requires an epsilon")
    default_epsilon(spec)  # exists exactly when h2 < 0 everywhere


def _check_spec_alignment(spec: ProblemSpec, g: WeightedGraph) -> None:
    if spec.n != g.n:
        raise SpecValidationError(
            f"coefficients have {spec.n} entries for a graph with {g.n} vertices"
        )


def _exponents(A: float, B: float, cap: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A u`` and ``-B u``, with a range guard instead of silent infinities later."""
    au, bu = A * u, -B * u
    up, down = float(au.max()), float(bu.max())
    if up > cap or down > cap:
        raise ExponentOverflowError(
            f"exponent {max(up, down):.3g} exceeds the cap {cap:.0f}; "
            "the iterate has left the trusted range"
        )
    return au, bu


def _kernels(
    spec: ProblemSpec, g: WeightedGraph, hp: HomotopyParams | None = None
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Unchecked residual and Jacobian callables of the deformation ``hp``.

    ``hp=None`` is the equation itself: t = 0 with eps = 0 (which leaves the
    coefficients bitwise unchanged) for the classic kind, t = 1 for the
    generalized kind.  The spec, the graph and the deformation are checked
    once, here; the callables trust their argument to be a finite field on
    ``g`` and keep only the exponent guard.
    """
    _check_spec_alignment(spec, g)
    if hp is not None:
        validate_homotopy(spec, hp)
    A, B, h1, h2 = spec.A, spec.B, spec.h1, spec.h2
    neg_lap = g.neg_laplacian()
    diagonal = slice(None, None, g.n + 1)
    if spec.kind is Kind.CLASSIC:
        t, eps = (0.0, 0.0) if hp is None else (hp.t, hp.epsilon)
        c1 = t * eps + (1.0 - t) * h1
        c2 = -t * eps + (1.0 - t) * h2
        a_c1, b_c2 = A * c1, B * c2

        def pointwise(u):
            au, bu = _exponents(A, B, EXP_CAP_CLASSIC, u)
            return c1 * np.exp(au) + c2 * np.exp(bu)

        def slope(u):
            au, bu = _exponents(A, B, EXP_CAP_CLASSIC, u)
            return a_c1 * np.exp(au) - b_c2 * np.exp(bu)

    else:
        t = 1.0 if hp is None else hp.t
        shift, h1_a, h2_b = 1.0 - t, h1 * A, h2 * B

        def pointwise(u):
            au, bu = _exponents(A, B, EXP_CAP_GENERALIZED, u)
            return h1 * np.exp(au) * (np.expm1(au) + shift) + (
                h2 * np.exp(bu) * (np.expm1(bu) + shift)
            )

        def slope(u):
            au, bu = _exponents(A, B, EXP_CAP_GENERALIZED, u)
            e_up, e_dn = np.exp(au), np.exp(bu)
            return h1_a * e_up * (2.0 * e_up - t) + h2_b * e_dn * (t - 2.0 * e_dn)

    def fun(u: np.ndarray) -> np.ndarray:
        nonlinear = pointwise(u)
        return neg_lap @ u + nonlinear

    def jac(u: np.ndarray) -> np.ndarray:
        diag = slope(u)
        mat = neg_lap.copy()
        mat.flat[diagonal] += diag
        return mat

    return fun, jac


def _energy_kernel(spec: ProblemSpec, g: WeightedGraph) -> Callable[[np.ndarray], float]:
    """Unchecked ``energy`` callable; like ``_kernels`` it checks the spec once, here."""
    _check_spec_alignment(spec, g)
    A, B, mu, h1_a, h2_b = spec.A, spec.B, g.mu, spec.h1 / spec.A, spec.h2 / spec.B
    tail, head, weight = g.edge_tail, g.edge_head, g.edge_weight

    def energy_of(u: np.ndarray) -> float:
        # range guard; the squares below double exponents
        au, bu = _exponents(A, B, EXP_CAP_GENERALIZED, u)
        up, dn = np.expm1(au), np.expm1(bu)
        # integral of |grad u|^2 d(mu) collapses to a plain edge sum
        diff = u[head] - u[tail]
        pointwise = h1_a * up * up - h2_b * dn * dn
        return 0.5 * (float(np.dot(weight, diff * diff)) + float(np.dot(mu, pointwise)))

    return energy_of


def residual(spec: ProblemSpec, g: WeightedGraph, u) -> np.ndarray:
    """Pointwise residual of the equation at u (zero exactly at solutions)."""
    return _kernels(spec, g)[0](as_field(g, u))


def residual_homotopy(spec: ProblemSpec, g: WeightedGraph, u, hp: HomotopyParams) -> np.ndarray:
    """Residual of the deformed equation at parameter ``hp.t``.

    Classic: coefficients ``t*eps + (1-t)*h1`` and ``-t*eps + (1-t)*h2``
    (reduces to ``residual`` at t = 0).  Generalized: inner factors
    ``e^{A u} - t`` and ``e^{-B u} - t`` (reduces to ``residual`` at t = 1).
    """
    return _kernels(spec, g, hp)[0](as_field(g, u))


def jacobian(spec: ProblemSpec, g: WeightedGraph, u) -> np.ndarray:
    """Derivative of the residual: ``-laplacian`` plus a pointwise diagonal."""
    return _kernels(spec, g)[1](as_field(g, u))


def jacobian_homotopy(spec: ProblemSpec, g: WeightedGraph, u, hp: HomotopyParams) -> np.ndarray:
    """Derivative of the deformed residual at parameter ``hp.t``."""
    return _kernels(spec, g, hp)[1](as_field(g, u))


def energy(spec: ProblemSpec, g: WeightedGraph, u) -> float:
    """Variational energy of the generalized equation.

        J(u) = (1/2) * integral of
               |grad u|^2 + (h1/A)(e^{A u}-1)^2 - (h2/B)(e^{-B u}-1)^2

    The single leading 1/2 covers the whole integrand; differentiating in
    the mu-weighted inner product then yields exactly the generalized
    residual, the identity the box minimization relies on.
    """
    if spec.kind is not Kind.GENERALIZED:
        raise SpecValidationError("the energy functional is defined for the generalized kind only")
    return _energy_kernel(spec, g)(as_field(g, u))


def energy_gradient(spec: ProblemSpec, g: WeightedGraph, u) -> np.ndarray:
    """Gradient of the energy in the mu-weighted inner product.

    Shares the residual's code path, so the two agree bitwise; exposed
    separately so minimization code depends only on the variational
    interface.
    """
    if spec.kind is not Kind.GENERALIZED:
        raise SpecValidationError("the energy functional is defined for the generalized kind only")
    return residual(spec, g, u)

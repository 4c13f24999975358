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

The pointwise term of both kinds and its derivative live in one place,
``_pointwise``; everything else that evaluates the term (the kernels below,
the barrier crossings of ``solvers`` and the scalar scan of ``degree``)
builds on it.  The four residual and Jacobian functions validate their
inputs, then run one kernel with the deformation as a parameter
(``_kernels``); ``energy`` does the same with ``_energy_kernel``.  Solvers
validate once per entry point and iterate on the kernels' unchecked
callables, which take a field or a ``(k, n)`` block of fields at once.  The
float range is the one exponent guard: a term past it is not finite, which
the public functions raise on and the solvers and audits test for.
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
]

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
        # the deformation members' coefficients are bounded by these, so their products stay finite too
        A, B = float(self.A), float(self.B)
        top = np.maximum.reduce
        scaled = (A * float(top(h1, initial=0.0)), B * float(top(np.abs(h2), initial=0.0)), A + B)
        if not all(map(math.isfinite, scaled)):
            raise SpecValidationError(
                f"exponents A = {A:g}, B = {B:g} too large: A * max h1, B * max |h2| and A + B must be finite"
            )
        h1.flags.writeable = False
        h2.flags.writeable = False
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.h1.size


@dataclass(frozen=True)
class HomotopyParams:
    """Deformation parameter; the classic shift is ``default_epsilon`` of the spec."""

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise SpecValidationError(f"homotopy parameter t={self.t} outside [0, 1]")


def default_epsilon(spec: ProblemSpec) -> float:
    """Coefficient shift of the classic deformation.

    Any ``eps > 0`` keeps ``t*eps + (1-t)*h1 > 0``, and ``-t*eps + (1-t)*h2 < 0``
    holds for every t in [0, 1] exactly when ``h2 < 0`` everywhere.  Staying well
    below both ``min h1`` and ``-max h2`` also keeps the shifted equation deep in
    the sign regime the uniqueness argument at t = 1 needs.
    """
    max_h2 = float(spec.h2.max())
    if max_h2 >= 0.0:
        raise HomotopyInfeasibleError(
            "classic deformation requires -t*eps + (1-t)*h2(x) < 0 for all t, "
            f"which fails at t=0 because max h2 = {max_h2:.6g} >= 0"
        )
    return min(float(spec.h1.min()), -max_h2) / 4.0


def _classic_member(spec: ProblemSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the classic deformation's member at ``t``; at t = 0 they have
    the bits of ``h1`` and ``h2``."""
    eps = default_epsilon(spec)
    return t * eps + (1.0 - t) * spec.h1, -t * eps + (1.0 - t) * spec.h2


def _check_spec_alignment(spec: ProblemSpec, g: WeightedGraph) -> None:
    if spec.n != g.n:
        raise SpecValidationError(
            f"coefficients have {spec.n} entries for a graph with {g.n} vertices"
        )


def _pointwise(spec: ProblemSpec, hp: HomotopyParams | None = None) -> tuple[Callable, Callable]:
    """The pointwise term of the deformation ``hp`` and its derivative.

    The two callables take ``A u`` and ``-B u`` and broadcast against the
    coefficient fields, so one call evaluates every vertex, or many points of
    a one-vertex spec; past the float range they return an infinity or a
    NaN.  A classic ``hp`` needs ``h2 < 0`` everywhere (``default_epsilon``).
    """
    A, B, h1, h2 = spec.A, spec.B, spec.h1, spec.h2
    if spec.kind is Kind.CLASSIC:
        c1, c2 = (h1, h2) if hp is None else _classic_member(spec, hp.t)
        a_c1, b_c2 = A * c1, B * c2

        def pointwise(au, bu):
            return c1 * np.exp(au) + c2 * np.exp(bu)

        def slope(au, bu):
            return a_c1 * np.exp(au) - b_c2 * np.exp(bu)

        return pointwise, slope

    t = 1.0 if hp is None else hp.t
    shift, h1_a, h2_b = 1.0 - t, h1 * A, h2 * B

    def pointwise(au, bu):
        return h1 * np.exp(au) * (np.expm1(au) + shift) + (
            h2 * np.exp(bu) * (np.expm1(bu) + shift)
        )

    def slope(au, bu):
        e_up, e_dn = np.exp(au), np.exp(bu)
        return h1_a * e_up * (2.0 * e_up - t) + h2_b * e_dn * (t - 2.0 * e_dn)

    return pointwise, slope


def _kernels(
    spec: ProblemSpec, g: WeightedGraph, hp: HomotopyParams | None = None
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Unchecked residual and Jacobian callables of the deformation ``hp``.

    ``hp=None`` is the equation itself: t = 0 for the classic kind, t = 1
    for the generalized kind.  The spec, the graph and the deformation are checked
    once, here; the callables trust their argument to be a finite field on
    ``g``, or a ``(k, n)`` block of them, each row with the bits of one field.
    A field whose terms leave the float range gets a value that is not finite.
    """
    _check_spec_alignment(spec, g)
    pointwise, slope = _pointwise(spec, hp)
    A, B, n = spec.A, spec.B, g.n
    neg_lap = g.neg_laplacian()
    flat = neg_lap.ravel()

    def fun(u: np.ndarray) -> np.ndarray:
        nonlinear = pointwise(A * u, -B * u)
        return (neg_lap @ u[..., None])[..., 0] + nonlinear

    def jac(u: np.ndarray) -> np.ndarray:
        diag = slope(A * u, -B * u)
        mats = np.empty(u.shape[:-1] + (n * n,))
        mats[...] = flat
        mats[..., :: n + 1] += diag
        return mats.reshape(u.shape + (n,))

    return fun, jac


def _energy_kernel(spec: ProblemSpec, g: WeightedGraph) -> Callable[[np.ndarray], float]:
    """Unchecked ``energy`` callable; like ``_kernels`` it checks the spec once, here."""
    _check_spec_alignment(spec, g)
    A, B, h1, h2, mu = spec.A, spec.B, spec.h1, spec.h2, g.mu
    tail, head, weight = g.edge_tail, g.edge_head, g.edge_weight
    with np.errstate(over="ignore"):
        h1_a, h2_b = h1 / A, h2 / B
    # a tiny exponent overflows the quotients; then the terms, which stay in range, are divided
    tiny = not (np.isfinite(h1_a).all() and np.isfinite(h2_b).all())

    def energy_of(u: np.ndarray) -> float:
        up, dn = np.expm1(A * u), np.expm1(-B * u)
        # integral of |grad u|^2 d(mu) collapses to a plain edge sum
        diff = u[head] - u[tail]
        density = (h1 * up) * (up / A) - (h2 * dn) * (dn / B) if tiny else h1_a * up * up - h2_b * dn * dn
        return 0.5 * (float(np.dot(weight, diff * diff)) + float(np.dot(mu, density)))

    return energy_of


def _in_range(kernel: Callable, g: WeightedGraph, u):
    """``kernel`` at the checked field ``u``, which must be a finite float wherever it is evaluated."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = kernel(as_field(g, u))
    if not np.isfinite(value).all():
        raise ExponentOverflowError("a term left the float range at this field; the value is not finite")
    return value


def residual(spec: ProblemSpec, g: WeightedGraph, u) -> np.ndarray:
    """Pointwise residual of the equation at u (zero exactly at solutions)."""
    return _in_range(_kernels(spec, g)[0], g, u)


def residual_homotopy(spec: ProblemSpec, g: WeightedGraph, u, hp: HomotopyParams) -> np.ndarray:
    """Residual of the deformed equation at parameter ``hp.t``.

    Classic: the coefficients slide linearly from ``(h1, h2)`` at t = 0,
    where this is ``residual``, to ``(eps, -eps)`` at t = 1, with ``eps =
    default_epsilon(spec)``.  Generalized: inner factors ``e^{A u} - t`` and
    ``e^{-B u} - t`` (reduces to ``residual`` at t = 1).
    """
    return _in_range(_kernels(spec, g, hp)[0], g, u)


def jacobian(spec: ProblemSpec, g: WeightedGraph, u) -> np.ndarray:
    """Derivative of the residual: ``-laplacian`` plus a pointwise diagonal."""
    return _in_range(_kernels(spec, g)[1], g, u)


def jacobian_homotopy(spec: ProblemSpec, g: WeightedGraph, u, hp: HomotopyParams) -> np.ndarray:
    """Derivative of the deformed residual at parameter ``hp.t``."""
    return _in_range(_kernels(spec, g, hp)[1], g, u)


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
    return _in_range(_energy_kernel(spec, g), g, u)


def energy_gradient(spec: ProblemSpec, g: WeightedGraph, u) -> np.ndarray:
    """Gradient of the energy in the mu-weighted inner product.

    Shares the residual's code path, so the two agree bitwise; exposed
    separately so minimization code depends only on the variational
    interface.
    """
    if spec.kind is not Kind.GENERALIZED:
        raise SpecValidationError("the energy functional is defined for the generalized kind only")
    return residual(spec, g, u)

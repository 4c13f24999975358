"""Dense linear algebra and sampling utilities shared by the solvers.

Factorizations go to LAPACK through ``numpy.linalg``.  A step system is
factored once, by inversion, which also gives its 1-norm condition number
``||A||_1 ||A^-1||_1``.  A matrix is numerically singular when LAPACK meets
a zero pivot or that number reaches ``1 / PIVOT_RTOL``, instead of dividing
through by noise; scaling does not change it, so ``1e-200 * I`` is regular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class LUFactors:
    inverse: np.ndarray | None
    singular: bool


def lu_factor(a: np.ndarray) -> LUFactors:
    """Factor a square matrix; singular when its condition number is at least 1/PIVOT_RTOL."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return LUFactors(None, True)
    # Python floats: an overflowing product is inf, without a warning
    kappa = float(np.abs(a).sum(axis=0).max()) * float(np.abs(inverse).sum(axis=0).max())
    return LUFactors(inverse, not kappa * PIVOT_RTOL < 1.0)


def inverse_block(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a ``(k, n, n)`` stack, with ``lu_factor``'s bits, and which are singular."""
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack; its inverse is nan
        inverse = np.full_like(a, np.nan)
        for i, mat in enumerate(a):
            try:
                inverse[i] = np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                pass
    kappa = np.abs(a).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)
    return inverse, ~(kappa * PIVOT_RTOL < 1.0)


def lu_solve(factors: LUFactors, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the factorization of A."""
    if factors.singular:
        raise np.linalg.LinAlgError("matrix is numerically singular")
    return factors.inverse @ np.asarray(b, dtype=float)


def det_sign(a: np.ndarray) -> int:
    """Sign of det(A): +1, -1, or 0 when numerically singular."""
    if lu_factor(a).singular:
        return 0
    return int(np.linalg.slogdet(a)[0])


def first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _van_der_corput(index: int, base: int) -> float:
    x = 0.0
    f = 1.0 / base
    while index > 0:
        x += (index % base) * f
        index //= base
        f /= base
    return x


def halton_ball(dim: int, count: int, radius: float, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in the sup-norm ball of the given radius.

    Deterministic for fixed ``(dim, count, radius, seed)``; the seed shifts
    the Halton index window so distinct seeds draw distinct point sets.
    """
    if count <= 0:
        return np.zeros((0, dim))
    bases = first_primes(dim)
    offset = 1 + seed * count
    points = np.empty((count, dim))
    for j, base in enumerate(bases):
        points[:, j] = [_van_der_corput(offset + i, base) for i in range(count)]
    return radius * (2.0 * points - 1.0)

"""Dense linear algebra and sampling utilities shared by the solvers.

Factorizations go to LAPACK through ``numpy.linalg``.  A step system is
factored once, by inversion, which also gives its 1-norm condition number
``||A||_1 ||A^-1||_1``.  A matrix is numerically singular when LAPACK meets
a zero pivot or that number reaches ``1 / PIVOT_RTOL``, instead of dividing
through by noise; scaling does not change it, so ``1e-200 * I`` is regular.
``det_sign`` settles strictly row-dominant matrices with a positive
diagonal without factoring them (``_dominant_positive``).

``det_sign`` factors a copy scaled by a power of two; ``lu_factor`` does
not.  So where ``A`` is so small that ``np.linalg.inv`` overflows
(``1e-309 * I`` at n = 2), the Newton step calls ``A`` singular while
``det_sign`` gives its sign, and a Newton run that takes its step from
``lu_factor`` and its final sign from ``det_sign`` can report a converged
root with a Jacobian on which it could not step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PIVOT_RTOL = 1e-12
# Varah's bound on the condition number that ``_dominant_positive`` accepts
_VARAH_LIMIT = 1.0 / (16.0 * PIVOT_RTOL)
_EPS = 2.0**-52


@dataclass(frozen=True)
class LUFactors:
    inverse: np.ndarray | None
    singular: bool


def lu_factor(a: np.ndarray) -> LUFactors:
    """Factor a square float matrix; singular when its condition number is at least 1/PIVOT_RTOL."""
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


def _dominant_positive(a: np.ndarray) -> bool:
    """Whether ``a`` is strictly row-dominant with a positive diagonal, with
    Varah's bound on its 1-norm condition number at most ``_VARAH_LIMIT``.

    Such a matrix has ``det A > 0``: by Gershgorin's theorem every eigenvalue
    lies in a disc about some ``a_ii > 0`` of radius ``r_i < a_ii``, so it has
    a positive real part, and the complex ones come in conjugate pairs.  With
    margins ``m_i = a_ii - r_i``, Varah (Linear Algebra Appl. 11, 1975) gives
    ``||A^-1||_inf <= 1 / min m``, and ``||B||_1 <= n ||B||_inf`` gives
    ``kappa_1(A) <= n ||A||_1 / min m``.

    Rounding.  The test runs on ``|A| 2^-e`` with ``max |a_ij| 2^-e`` in
    [1/2, 1), so no sum or product in it comes near overflow, whatever the
    scale of ``A``.  Scaling by a power of two changes neither the sign nor
    the condition number and is exact, except that an entry that lands
    among the subnormals moves by at most ``2^-1075``.  With
    ``u = 2^-53``, a computed row sum of ``|A|`` is ``s_i (1 + t)`` with
    ``|t| <= (n-1) u / (1 - (n-1) u)`` in any order of summation, and the
    test asks ``fl(2 a_ii - fl((1 + 2 (n+4) u) s^_i)) = l_i`` to satisfy
    ``fl(min l * LIMIT) >= fl(n c^)``, ``c^`` the computed ``||A||_1``.
    The allowance ``2 (n+4) u s^_i`` exceeds the summation error and the
    three roundings, so ``l_i > 0`` means ``2 a_ii > s_i``, that is
    ``m_i > 0``, and ``m_i >= l_i / (1 + u)``.  Hence Varah's bound is at most
    ``LIMIT (1 + (n+3) u)``.  The limit itself asks ``l_i >= n / (2 LIMIT)``,
    about ``8e-12 n``, so the subnormal moves, ``n 2^-1075`` per row at most,
    are far inside the allowance.  Non-finite entries fail the test.
    """
    if not a.diagonal().min() > 0.0:  # the cheap rejection, nan included
        return False
    size = np.abs(a)
    top = float(size.max())
    if not top < math.inf:
        return False
    size = np.ldexp(size, -math.frexp(top)[1])
    n = a.shape[0]
    lower = 2.0 * size.diagonal() - (1.0 + (n + 4) * _EPS) * size.sum(axis=1)
    least = float(lower.min())
    return least > 0.0 and least * _VARAH_LIMIT >= n * float(size.sum(axis=0).max())


def det_sign(a: np.ndarray) -> int:
    """Sign of det(A) for a square float matrix: +1, -1, or 0 when numerically singular.

    A matrix that ``_dominant_positive`` accepts gets +1 without a
    factorization, and that is the answer the factoring path gives it.
    Its condition number is at most ``LIMIT (1 + (n+3) u)``, a sixteenth
    of the singular threshold up to rounding.  LU with partial pivoting
    is backward stable, with growth factor at most 2 on a row-dominant
    matrix, so the computed factors and inverse are those of some
    ``A + E`` with ``||E|| ||A^-1||`` of order ``n u kappa``, below
    ``1e-5 n``.  So the computed inverse is within that relative distance
    of ``A^-1``, and the computed condition number stays below
    ``1 / PIVOT_RTOL``; and ``A + tE`` is regular for every t in [0, 1],
    so no pivot is zero and the factored determinant keeps the sign of
    ``det A``, which is positive.

    Every other matrix is factored as ``A 2^-e``, its largest entry in
    [1/2, 1): exact up to subnormals, with the same sign and condition
    number, so ``np.linalg.inv`` cannot overflow on a tiny regular matrix.
    """
    if _dominant_positive(a):
        return 1
    a = np.ldexp(a, -math.frexp(float(np.abs(a).max()))[1])
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


def halton_ball(dim: int, count: int, radius: float, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in the sup-norm ball of the given radius.

    Deterministic for fixed ``(dim, count, radius, seed)``; the seed shifts
    the Halton index window so distinct seeds draw distinct point sets.
    Coordinate j is the index's radical inverse in the j-th prime; indices below 1 give 0.
    """
    if count <= 0:
        return np.zeros((0, dim))
    offset = 1 + seed * count  # past int64, the window holds Python ints
    window = np.arange(offset, offset + count, dtype=np.int64 if abs(offset) + count < 2**62 else object)
    bases = np.array(first_primes(dim))
    index, f, points = window[:, None], 1.0 / bases, np.zeros((count, dim))
    while (index > 0).any():  # a negative seed's window lies wholly below 1, so its points stay 0
        points += (index % bases).astype(float) * f
        index, f = index // bases, f / bases
    return radius * (2.0 * points - 1.0)

"""LU determinant signs, solves, and low-discrepancy sampling."""

import warnings

import numpy as np
import pytest

import helpers
from tzgraph import linalg
from tzgraph.linalg import det_sign, first_primes, halton_ball, lu_factor, lu_solve


def test_det_sign_matches_slogdet_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n))
        expected, _ = np.linalg.slogdet(a)
        assert det_sign(a) == int(expected)


def test_det_sign_flags_singular():
    exact = [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3))]
    rng = np.random.default_rng(3)
    for n in (2, 5, 12, 40):
        deficient = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        exact.append(deficient)
        # a relative perturbation of 1e-14 leaves the condition number near
        # 1e14, so the matrix stays singular; the oracle's pivot floor is a
        # weaker test and misses this at n = 12
        noisy = deficient + 1e-14 * float(np.max(np.abs(deficient))) * rng.normal(size=(n, n))
        assert lu_factor(noisy).singular
        assert det_sign(noisy) == 0
    for a in exact:
        assert lu_factor(a).singular and helpers.lu_oracle(a)[3]
        assert det_sign(a) == helpers.det_sign_oracle(a) == 0
    # the threshold sits at condition number 1e12, as the oracle's pivot floor does here
    for a, singular in ((np.diag([1.0, 1e-11]), False), (np.diag([1.0, 1e-13]), True)):
        assert lu_factor(a).singular == helpers.lu_oracle(a)[3] == singular
    # scaling does not change the condition number
    tiny = 1e-200 * np.eye(3)
    assert not lu_factor(tiny).singular and not helpers.lu_oracle(tiny)[3]
    assert det_sign(tiny) == helpers.det_sign_oracle(tiny) == 1
    # nor at scales where the inverse overflows, subnormal ones included: the
    # dominance certificate settles the first three without inverting, and the
    # last two are factored scaled by a power of two
    near = np.ldexp(np.array([[1.0 + 1e-8, -1.0], [-1.0, 1.0 + 1e-8]]), -1000)
    regular = 1e-309 * np.array([[1.0, 2.0], [3.0, 1.0]])
    signed = [(1e-310 * np.eye(1), 1), (1e-309 * np.eye(2), 1), (near, 1), (regular, -1), (-1e-309 * np.eye(2), 1)]
    for scaled, sign in signed:
        assert det_sign(scaled) == helpers.det_sign_oracle(scaled) == sign
        assert helpers.det_sign_factored_oracle(scaled) == 0


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = lu_solve(lu_factor(a), b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)
        assert np.allclose(x, helpers.lu_solve_oracle(a, b), atol=1e-10)


def test_singular_flags_and_signs_match_elimination_oracle():
    rng = np.random.default_rng(2)
    matrices = []
    for _ in range(300):
        n = int(rng.integers(1, 41))
        a = rng.normal(size=(n, n))
        if rng.random() < 0.5:
            # a Newton Jacobian: -L + diag(f') on a random graph
            g = helpers.random_graph(rng, n)
            a = g.neg_laplacian() + np.diag(rng.uniform(-3.0, 3.0, n))
        matrices.append(a)
    # the inputs of the dominance certificate: on both sides of its limit,
    # and classic-neg continuation stages
    matrices += [helpers.row_dominant_matrix(rng, int(rng.integers(1, 41))) for _ in range(100)]
    for ratio in (1.0 - 1e-4, 1.0 + 1e-4):
        matrices += [helpers.varah_edge_matrix(rng, int(rng.integers(2, 41)), ratio) for _ in range(20)]
    for n in (1, 3, 12):
        matrices += helpers.classic_neg_stage_jacobians(rng, n)
    for a in matrices:
        assert lu_factor(a).singular == helpers.lu_oracle(a)[3]
        assert det_sign(a) == helpers.det_sign_oracle(a)


def test_det_sign_matches_the_factoring_path_on_and_off_the_certificate():
    rng = np.random.default_rng(13)
    cases = []  # (matrix, whether the certificate must settle it, or None)
    for _ in range(1200):
        a = helpers.row_dominant_matrix(rng, int(rng.integers(1, 101)))
        cases.append((np.ldexp(a, int(rng.integers(-1000, 1001))), None))
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 100):
        cases += [(j, True) for j in helpers.classic_neg_stage_jacobians(rng, n)]
    for _ in range(150):
        n = int(rng.integers(2, 101))
        below = helpers.varah_edge_matrix(rng, n, 1.0 - 1e-4)
        above = helpers.varah_edge_matrix(rng, n, 1.0 + 1e-4)
        assert helpers.varah_bound(below) < linalg._VARAH_LIMIT < helpers.varah_bound(above)
        cases += [(below, True), (above, False)]
    for _ in range(400):
        n = int(rng.integers(2, 101))
        a = rng.normal(size=(n, n))
        if rng.random() < 0.5:  # a larger diagonal, dominant in some rows
            a += np.diag(np.abs(a).sum(axis=1) * rng.uniform(0.0, 1.0, n))
        # the first row is not dominant
        a[0, 0] = (np.abs(a[0]).sum() - abs(a[0, 0])) * rng.uniform(-1.0, 1.0)
        cases.append((a, False))
    # factored scaled by a power of two, ordinary scales give the unscaled answer,
    # near the singular threshold too
    for _ in range(300):
        n = int(rng.integers(1, 30))
        cases.append((rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-100.0, 100.0), None))
    for n in (2, 5, 12):
        deficient = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        cases += [(deficient + size * rng.normal(size=(n, n)), None) for size in (1e-14, 1e-12, 1e-10)]
    for k in (-600, -3, 0, 7, 600):
        cases += [(np.ldexp(np.diag([1.0, d]), k), None) for d in (1e-11, 1e-12, 1.0001e-12, 1e-13, -1e-11)]
    assert len(cases) >= 2000
    settled = 0
    for a, certified in cases:
        assert det_sign(a) == helpers.det_sign_factored_oracle(a)
        if certified is not None:
            assert linalg._dominant_positive(a) == certified
        settled += linalg._dominant_positive(a)
    assert 0 < settled < len(cases)


def test_det_sign_certificate_neither_overflows_nor_warns_at_the_ends_of_the_range():
    huge = np.array([[1e308, -1e307], [-1e307, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (huge, 2.0**-1074 * np.eye(3), np.diag([1e308, 5e-324])):
            det_sign(a)
        assert det_sign(huge) == helpers.det_sign_factored_oracle(huge) == 1
        assert linalg._dominant_positive(huge)
    # non-finite entries are left to the factoring path
    for bad in (np.nan, np.inf):
        a = np.eye(2)
        a[0, 1] = bad
        assert not linalg._dominant_positive(a)


def test_det_sign_does_not_factor_a_certified_matrix(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("inv", "slogdet"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    assert det_sign(np.array([[3.0, -1.0], [-1.0, 2.0]])) == 1
    assert calls == []
    # a dominant matrix with a negative diagonal entry still factors
    assert det_sign(np.array([[-3.0, -1.0], [-1.0, 2.0]])) == -1
    assert calls == ["inv", "slogdet"]


def test_lu_solve_rejects_singular():
    factors = lu_factor(np.zeros((2, 2)))
    assert factors.singular
    with pytest.raises(np.linalg.LinAlgError):
        lu_solve(factors, np.ones(2))


def test_first_primes():
    assert first_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_halton_ball_deterministic_and_bounded():
    pts = halton_ball(4, 33, 2.5, seed=3)
    again = halton_ball(4, 33, 2.5, seed=3)
    assert np.array_equal(pts, again)
    assert pts.shape == (33, 4)
    assert np.max(np.abs(pts)) <= 2.5
    other = halton_ball(4, 33, 2.5, seed=4)
    assert not np.array_equal(pts, other)


def test_halton_ball_first_point_is_center_in_dim_one():
    pts = halton_ball(1, 3, 1.0, seed=0)
    assert pts[0, 0] == 0.0


@pytest.mark.parametrize("seed", [0, 3, -1, 2**62, 10**20])
def test_halton_ball_matches_the_point_loop_oracle_bitwise(seed):
    # every dimension at one count, every count at one dimension, and both large;
    # a negative seed puts indices below 1, and the large ones put the window past int64
    cases = [(dim, 3) for dim in range(1, 201)] + [(2, count) for count in range(0, 201)] + [(200, 64)]
    for dim, count in cases:
        got = halton_ball(dim, count, 2.5, seed)
        want = helpers.halton_ball_oracle(dim, count, 2.5, seed)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (dim, count)

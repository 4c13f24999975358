"""LU determinant signs, solves, and low-discrepancy sampling."""

import numpy as np
import pytest

import helpers
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
    for _ in range(300):
        n = int(rng.integers(1, 41))
        a = rng.normal(size=(n, n))
        if rng.random() < 0.5:
            # a Newton Jacobian: -L + diag(f') on a random graph
            g = helpers.random_graph(rng, n)
            a = g.neg_laplacian() + np.diag(rng.uniform(-3.0, 3.0, n))
        assert lu_factor(a).singular == helpers.lu_oracle(a)[3]
        assert det_sign(a) == helpers.det_sign_oracle(a)


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

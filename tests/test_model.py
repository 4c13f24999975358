"""Residual maps, deformations, Jacobians, and the energy functional."""

import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from tzgraph import (
    ExponentOverflowError,
    HomotopyInfeasibleError,
    Kind,
    ProblemSpec,
    SpecValidationError,
    default_epsilon,
    energy,
    energy_gradient,
    integrate,
    jacobian,
    jacobian_homotopy,
    laplacian_matrix,
    residual,
    residual_homotopy,
)
from tzgraph import cli, degree, estimates, graphs, linalg, model, solvers
from tzgraph.errors import AlignmentError
from tzgraph.model import _classic_member, _kernels


def constant_spec(kind, n, h1, h2, A=1.0, B=1.0):
    return ProblemSpec(kind, np.full(n, h1), np.full(n, h2), A, B)


# ---------------------------------------------------------------------------
# residual


@given(st.integers(0, 10**6))
def test_generalized_zero_field_is_a_solution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    g = helpers.random_graph(rng, n)
    spec = helpers.generalized_spec(rng, n)
    assert np.all(residual(spec, g, np.zeros(n)) == 0.0)


def test_classic_balanced_zero():
    g = helpers.path3()
    spec = constant_spec(Kind.CLASSIC, 3, 1.0, -1.0)
    assert np.all(residual(spec, g, np.zeros(3)) == 0.0)


def test_classic_residual_matches_per_vertex_oracle():
    rng = np.random.default_rng(41)
    data = helpers.random_graph_data(rng, 5)
    g = helpers.build_graph(data)
    spec = helpers.classic_spec(rng, 5)
    u = rng.normal(0.0, 0.8, 5)
    assert np.allclose(
        residual(spec, g, u), helpers.residual_oracle(data, spec, u), atol=1e-13
    )


def test_generalized_residual_matches_per_vertex_oracle():
    rng = np.random.default_rng(43)
    data = helpers.random_graph_data(rng, 6)
    g = helpers.build_graph(data)
    spec = helpers.generalized_spec(rng, 6)
    u = rng.normal(0.0, 0.8, 6)
    assert np.allclose(
        residual(spec, g, u), helpers.residual_oracle(data, spec, u), atol=1e-13
    )


def test_exponent_overflow_guard():
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    with pytest.raises(ExponentOverflowError):
        residual(spec, g, [800.0, 0.0])
    gen = constant_spec(Kind.GENERALIZED, 2, 1.0, 1.0)
    with pytest.raises(ExponentOverflowError):
        residual(gen, g, [0.0, -400.0])


# ---------------------------------------------------------------------------
# homotopy deformations


@given(st.integers(0, 10**6))
def test_classic_deformation_t0_is_residual_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    g = helpers.random_graph(rng, n)
    spec = helpers.classic_spec(rng, n)
    u = rng.normal(0.0, 0.7, n)
    assert np.array_equal(residual_homotopy(spec, g, u, 0.0), residual(spec, g, u))


@given(st.integers(0, 10**6))
def test_generalized_deformation_t1_is_residual_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    g = helpers.random_graph(rng, n)
    spec = helpers.generalized_spec(rng, n)
    u = rng.normal(0.0, 0.7, n)
    assert np.array_equal(
        residual_homotopy(spec, g, u, 1.0), residual(spec, g, u)
    )


def test_classic_deformation_t1_zero_field():
    rng = np.random.default_rng(47)
    g = helpers.random_graph(rng, 5)
    spec = helpers.classic_spec(rng, 5)
    assert np.allclose(residual_homotopy(spec, g, np.zeros(5), 1.0), 0.0, atol=1e-16)


def test_generalized_deformation_t0_squares_exponentials():
    rng = np.random.default_rng(53)
    g = helpers.random_graph(rng, 4)
    spec = helpers.generalized_spec(rng, 4)
    u = rng.normal(0.0, 0.5, 4)
    lap = laplacian_matrix(g) @ u
    expected = (
        -lap
        + spec.h1 * np.exp(2.0 * spec.A * u)
        + spec.h2 * np.exp(-2.0 * spec.B * u)
    )
    got = residual_homotopy(spec, g, u, 0.0)
    assert np.allclose(got, expected, rtol=1e-13)


def test_classic_deformation_infeasible_for_positive_h2():
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, 1.0)
    with pytest.raises(HomotopyInfeasibleError):
        default_epsilon(spec)
    with pytest.raises(HomotopyInfeasibleError):
        residual_homotopy(spec, helpers.k2(), np.zeros(2), 0.5)


def test_homotopy_params_validation():
    spec, g = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0), helpers.k2()
    for t in (1.5, -0.1, math.nan):
        for deformed in (residual_homotopy, jacobian_homotopy):
            with pytest.raises(SpecValidationError, match=r"homotopy parameter t=.* outside \[0, 1\]"):
                deformed(spec, g, np.zeros(2), t)


# ---------------------------------------------------------------------------
# Jacobians


def test_jacobian_epsilon_instance_positive_definite_shift():
    g = helpers.k2()
    eps = 1e-3
    spec = constant_spec(Kind.CLASSIC, 2, eps, -eps)
    jac = jacobian(spec, g, np.zeros(2))
    neg_lap = -laplacian_matrix(g)
    assert np.allclose(jac, neg_lap + 2.0 * eps * np.eye(2), atol=1e-15)
    # eigenvalues of -laplacian are nonnegative, so the shifted determinant is positive
    assert np.linalg.det(jac) > 0.0


def test_generalized_jacobian_at_zero():
    rng = np.random.default_rng(59)
    g = helpers.random_graph(rng, 5)
    spec = helpers.generalized_spec(rng, 5)
    jac = jacobian(spec, g, np.zeros(5))
    expected = -laplacian_matrix(g) + np.diag(spec.A * spec.h1 - spec.B * spec.h2)
    assert np.allclose(jac, expected, atol=1e-14)


@pytest.mark.parametrize("maker", [helpers.classic_spec, helpers.generalized_spec])
def test_jacobian_matches_finite_differences(maker):
    rng = np.random.default_rng(61)
    g = helpers.random_graph(rng, 5)
    spec = maker(rng, 5)
    u = rng.normal(0.0, 0.5, 5)
    fd = helpers.fd_jacobian(lambda v: residual(spec, g, v), u)
    jac = jacobian(spec, g, u)
    assert np.max(np.abs(fd - jac)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


def test_homotopy_jacobian_matches_finite_differences():
    rng = np.random.default_rng(67)
    g = helpers.random_graph(rng, 4)
    t = 0.37
    for spec in (helpers.classic_spec(rng, 4), helpers.generalized_spec(rng, 4)):
        u = rng.normal(0.0, 0.5, 4)
        fd = helpers.fd_jacobian(lambda v: residual_homotopy(spec, g, v, t), u)
        jac = jacobian_homotopy(spec, g, u, t)
        assert np.max(np.abs(fd - jac)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


def test_jacobian_mu_weighted_symmetry():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = helpers.random_graph(rng, n)
        spec = helpers.generalized_spec(rng, n)
        u = rng.normal(0.0, 0.6, n)
        weighted = np.diag(g.mu) @ jacobian(spec, g, u)
        assert np.max(np.abs(weighted - weighted.T)) <= 1e-12 * max(
            1.0, np.max(np.abs(weighted))
        )


# ---------------------------------------------------------------------------
# energy functional


def test_energy_zero_field():
    rng = np.random.default_rng(73)
    g = helpers.random_graph(rng, 6)
    spec = helpers.generalized_spec(rng, 6)
    assert energy(spec, g, np.zeros(6)) == 0.0


def test_energy_constant_field_closed_form():
    g = helpers.k2()
    h1, h2, A, B, c = 1.3, 0.7, 1.1, 0.9, 0.4
    spec = constant_spec(Kind.GENERALIZED, 2, h1, h2, A, B)
    expected = 0.5 * g.volume * (
        h1 / A * (math.exp(A * c) - 1.0) ** 2 - h2 / B * (math.exp(-B * c) - 1.0) ** 2
    )
    assert energy(spec, g, np.full(2, c)) == pytest.approx(expected, rel=1e-13)


def test_energy_matches_direct_summation_oracle():
    rng = np.random.default_rng(79)
    data = helpers.random_graph_data(rng, 5)
    g = helpers.build_graph(data)
    spec = helpers.generalized_spec(rng, 5)
    u = rng.normal(0.0, 0.6, 5)
    grads = helpers.gradient_sq_oracle(data, u)
    density = [
        grads[x]
        + spec.h1[x] / spec.A * (math.exp(spec.A * u[x]) - 1.0) ** 2
        - spec.h2[x] / spec.B * (math.exp(-spec.B * u[x]) - 1.0) ** 2
        for x in range(5)
    ]
    expected = 0.5 * helpers.integrate_oracle(data, density)
    assert energy(spec, g, u) == pytest.approx(expected, rel=1e-12)


def test_energy_rejects_classic_kind():
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    with pytest.raises(SpecValidationError):
        energy(spec, helpers.k2(), np.zeros(2))
    with pytest.raises(SpecValidationError):
        energy_gradient(spec, helpers.k2(), np.zeros(2))


def test_energy_gradient_is_residual_bitwise():
    rng = np.random.default_rng(83)
    g = helpers.random_graph(rng, 6)
    spec = helpers.generalized_spec(rng, 6)
    u = rng.normal(0.0, 0.6, 6)
    assert np.array_equal(energy_gradient(spec, g, u), residual(spec, g, u))


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(89)
    g = helpers.random_graph(rng, 5)
    spec = helpers.generalized_spec(rng, 5)
    worst = 0.0
    for _ in range(50):
        u = rng.normal(0.0, 0.5, 5)
        fd = helpers.fd_gradient(lambda v: energy(spec, g, v), u) / g.mu
        grad = energy_gradient(spec, g, u)
        worst = max(worst, np.max(np.abs(fd - grad)) / max(np.max(np.abs(grad)), 1e-8))
    assert worst <= 1e-5


def test_integral_obstruction_strictly_positive():
    rng = np.random.default_rng(97)
    g = helpers.random_graph(rng, 6)
    spec = helpers.classic_positive_spec(rng, 6)
    for _ in range(100):
        u = rng.normal(0.0, 1.2, 6)
        assert integrate(g, residual(spec, g, u)) > 0.0


def test_problem_spec_validation():
    with pytest.raises(SpecValidationError):
        ProblemSpec(Kind.CLASSIC, np.array([1.0, -0.5]), np.array([-1.0, -1.0]), 1.0, 1.0)
    with pytest.raises(SpecValidationError):
        ProblemSpec(Kind.CLASSIC, np.array([1.0]), np.array([-1.0]), 0.0, 1.0)
    with pytest.raises(SpecValidationError):
        ProblemSpec(Kind.CLASSIC, np.array([1.0, 1.0]), np.array([-1.0]), 1.0, 1.0)
    for A, B in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -math.inf)):
        with pytest.raises(SpecValidationError):
            ProblemSpec(Kind.CLASSIC, np.array([1.0]), np.array([-1.0]), A, B)
    # exponents too large for the coefficients: A * max h1, B * max |h2| and A + B in turn leave
    # the float range, each alone; at the edge of the range the spec stands
    for kind in Kind:
        for h1, h2, A, B in (
            ([1.0, 1e10], [-1.0, 1.0], 1e300, 1.0),
            ([1.0, 1.0], [1.0, -1e10], 1.0, 1e300),
            ([1e-300, 1e-300], [-1e-300, 1e-300], 1e308, 1e308),
        ):
            with pytest.raises(SpecValidationError, match="must be finite"):
                ProblemSpec(kind, np.array(h1), np.array(h2), A, B)
        assert ProblemSpec(kind, np.array([1.0, 0.5]), np.array([-1.0, -0.0]), 1e308, 1.0).A == 1e308


# ---------------------------------------------------------------------------
# unchecked kernels


def _deformations(spec):
    """The identity (None) and t in {0, 0.5, 1} of the spec's deformation."""
    return [None, 0.0, 0.5, 1.0]


@pytest.mark.parametrize("kind", [Kind.CLASSIC, Kind.GENERALIZED])
def test_kernels_equal_public_functions_and_old_formulas_bitwise(kind):
    rng = np.random.default_rng(101 if kind is Kind.CLASSIC else 103)
    make_spec = helpers.classic_spec if kind is Kind.CLASSIC else helpers.generalized_spec
    for _ in range(30):
        n = int(rng.integers(1, 9))
        g = helpers.random_graph(rng, n)
        spec = make_spec(rng, n)
        u = rng.normal(0.0, 0.7, n)
        for t in _deformations(spec):
            fun, jac = _kernels(spec, g, t)
            if t is None:
                public = (residual(spec, g, u), jacobian(spec, g, u))
            else:
                public = (residual_homotopy(spec, g, u, t), jacobian_homotopy(spec, g, u, t))
            old = (
                helpers.residual_formula_oracle(spec, g, u, t),
                helpers.jacobian_formula_oracle(spec, g, u, t),
            )
            for got, pub, ref in zip((fun(u), jac(u)), public, old):
                assert got.tobytes() == pub.tobytes() == ref.tobytes()


def test_public_functions_still_validate():
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    t = 0.5
    public = [
        lambda s, u: residual(s, g, u),
        lambda s, u: jacobian(s, g, u),
        lambda s, u: residual_homotopy(s, g, u, t),
        lambda s, u: jacobian_homotopy(s, g, u, t),
    ]
    misaligned = constant_spec(Kind.CLASSIC, 3, 1.0, -1.0)
    for call in public:
        with pytest.raises(AlignmentError):
            call(spec, [0.0, 0.0, 0.0])
        with pytest.raises(AlignmentError):
            call(spec, [0.0, math.nan])
        with pytest.raises(SpecValidationError):
            call(misaligned, [0.0, 0.0])
    with pytest.raises(SpecValidationError):
        _kernels(misaligned, g)


def test_kernels_keep_the_exponent_guard():
    # the float range is the guard: past it a kernel's value is not finite
    g = helpers.k2()
    fun, jac = _kernels(constant_spec(Kind.CLASSIC, 2, 1.0, -1.0), g)
    for call in (fun, jac):
        with np.errstate(over="ignore"):
            assert not np.isfinite(call(np.array([800.0, 0.0]))).all()
    fun, jac = _kernels(constant_spec(Kind.GENERALIZED, 2, 1.0, 1.0), g, 0.5)
    for call in (fun, jac):
        with np.errstate(over="ignore"):
            assert not np.isfinite(call(np.array([0.0, -400.0]))).all()


@pytest.mark.parametrize("kind", [Kind.CLASSIC, Kind.GENERALIZED])
def test_a_block_through_the_kernels_has_the_bits_of_its_fields(kind):
    # one residual and one Jacobian take a field or a (k, n) block: row 3 is past the float range,
    # so it comes back non-finite while the other rows keep their bits, and alone the public
    # functions raise on it
    rng = np.random.default_rng(107 if kind is Kind.CLASSIC else 113)
    make_spec = helpers.classic_spec if kind is Kind.CLASSIC else helpers.generalized_spec
    top = math.log(np.finfo(float).max)  # e^top is the largest float
    for trial in range(20):
        n = int(rng.integers(1, 9))
        g = helpers.random_graph(rng, n)
        spec = make_spec(rng, n)
        block = rng.normal(0.0, 0.7, (5, n))
        block[3, rng.integers(n)] = 1.01 * top / spec.A if trial % 2 else -1.01 * top / spec.B
        for t in _deformations(spec):
            fun, jac = _kernels(spec, g, t)
            with np.errstate(over="ignore", invalid="ignore"):
                values, mats = fun(block), jac(block)
            assert values.shape == (5, n) and mats.shape == (5, n, n)
            if t is None:
                public = (lambda u: residual(spec, g, u), lambda u: jacobian(spec, g, u))
            else:
                public = (lambda u: residual_homotopy(spec, g, u, t), lambda u: jacobian_homotopy(spec, g, u, t))
            for row, u in enumerate(block):
                if row == 3:
                    assert not np.isfinite(values[row]).all() and not np.isfinite(mats[row]).all()
                    for call in public:
                        with pytest.raises(ExponentOverflowError, match="left the float range"):
                            call(u)
                else:
                    assert values[row].tobytes() == fun(u).tobytes()
                    assert mats[row].tobytes() == jac(u).tobytes()


def _guard_uses(source: str) -> set[tuple[str, str]]:
    """``("cap", f)`` where the top-level definition ``f`` names an ``EXP_CAP_*`` constant or
    ``_exponents``, ``("catches", f)`` where it handles ``ExponentOverflowError``, and
    ``("raises", f)`` where it raises it."""
    uses = set()
    for statement in ast.parse(source).body:
        name = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            word = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(word, str) and (word.startswith("EXP_CAP") or word == "_exponents"):
                uses.add(("cap", name))
            # the exception a handler names or a raise raises
            named = getattr(node, "type", None) if isinstance(node, ast.ExceptHandler) else getattr(node, "exc", None)
            if isinstance(node, (ast.ExceptHandler, ast.Raise)) and named is not None:
                words = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(named)}
                if "ExponentOverflowError" in words:
                    uses.add(("catches" if isinstance(node, ast.ExceptHandler) else "raises", name))
    return uses


def test_the_float_range_is_the_one_exponent_guard():
    # the detector sees the spellings of a cap, a handler and a raise
    assert _guard_uses("def f(u):\n    return np.max(u) > model.EXP_CAP_CLASSIC\n") == {("cap", "f")}
    assert _guard_uses("def _exponents(u):\n    pass\n") == {("cap", "_exponents")}
    handler = "def g(u):\n    try:\n        f(u)\n    except (errors.ExponentOverflowError, KeyError):\n        pass\n"
    assert _guard_uses(handler) == {("catches", "g")}
    assert _guard_uses("def h(u):\n    raise ExponentOverflowError('x')\n") == {("raises", "h")}
    for module in (cli, degree, estimates, graphs, linalg, solvers):
        assert _guard_uses(inspect.getsource(module)) == set(), module.__name__
    # no cap and no handler: the public functions' one helper raises on a value that is not finite
    assert _guard_uses(inspect.getsource(model)) == {("raises", "_in_range")}
    # one residual and one Jacobian closure, for a field and a block alike
    assert "block" not in inspect.signature(_kernels).parameters
    closures = [n.name for n in ast.walk(ast.parse(inspect.getsource(_kernels))) if isinstance(n, ast.FunctionDef)]
    assert closures == ["_kernels", "fun", "jac"]


def test_a_classic_member_is_the_classic_equation_with_its_coefficients():
    # the members the degree audit builds as specs have the bits of the deformation
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        g = helpers.random_graph(rng, n)
        spec = helpers.classic_spec(rng, n)
        u = rng.normal(0.0, 0.7, n)
        for t in (0.0, 0.3, 0.5, 1.0):
            member = ProblemSpec(Kind.CLASSIC, *_classic_member(spec, t), spec.A, spec.B)
            assert residual(member, g, u).tobytes() == residual_homotopy(spec, g, u, t).tobytes()
            assert jacobian(member, g, u).tobytes() == jacobian_homotopy(spec, g, u, t).tobytes()
        eps = default_epsilon(spec)
        assert np.array_equal(np.concatenate(_classic_member(spec, 1.0)), np.repeat([eps, -eps], n))


def test_infeasible_deformation_has_one_error():
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, 0.5)
    with pytest.raises(HomotopyInfeasibleError) as from_default:
        default_epsilon(spec)
    with pytest.raises(HomotopyInfeasibleError) as from_deformation:
        residual_homotopy(spec, helpers.k2(), np.zeros(2), 0.5)
    assert str(from_default.value) == str(from_deformation.value)

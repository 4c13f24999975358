"""A priori boxes, the sign tests on h2, and the elliptic estimate constant."""

import ast
import inspect
import math

import numpy as np
import pytest

import helpers
from tzgraph import (
    BoundsInapplicableError,
    Kind,
    ProblemSpec,
    SolverConfig,
    bounds_classic,
    bounds_generalized,
    elliptic_constant,
    laplacian,
    newton,
    residual,
)
from tzgraph import cli, degree, estimate_degree, estimates, graphs, linalg, model, solvers
from tzgraph.errors import BarrierInapplicableError, NoSolutionError, TzgraphError
from tzgraph.graphs import WeightedGraph


def constant_spec(kind, n, h1, h2, A=1.0, B=1.0):
    return ProblemSpec(kind, np.full(n, h1), np.full(n, h2), A, B)


def test_classic_balanced_coefficients_pin_zero():
    box = bounds_classic(constant_spec(Kind.CLASSIC, 3, 1.0, -1.0))
    assert box.lower == 0.0 and box.upper == 0.0
    assert box.radius == 1.0 and box.margin == 1.0


def test_classic_constant_coefficients_log_bound():
    spec = constant_spec(Kind.CLASSIC, 2, 2.0, -8.0)
    box = bounds_classic(spec)
    assert box.lower == pytest.approx(math.log(2.0), rel=1e-15)
    assert box.upper == pytest.approx(math.log(2.0), rel=1e-15)
    # the constant log 2 really solves the equation
    g = helpers.k2()
    assert np.allclose(residual(spec, g, np.full(2, math.log(2.0))), 0.0, atol=1e-14)


def test_classic_box_contains_newton_solution():
    rng = np.random.default_rng(101)
    data = helpers.random_graph_data(rng, 4)
    g = helpers.build_graph(data)
    spec = helpers.classic_spec(rng, 4)
    box = bounds_classic(spec)
    report = newton(spec, g, np.zeros(4), SolverConfig())
    assert report.converged
    assert box.contains(report.solution, slack=1e-9)


def test_classic_bounds_reject_nonnegative_h2():
    with pytest.raises(BoundsInapplicableError):
        bounds_classic(constant_spec(Kind.CLASSIC, 2, 1.0, 1.0))
    mixed = ProblemSpec(Kind.CLASSIC, np.ones(2), np.array([-1.0, 0.5]), 1.0, 1.0)
    with pytest.raises(BoundsInapplicableError):
        bounds_classic(mixed)
    with pytest.raises(BoundsInapplicableError):
        bounds_classic(constant_spec(Kind.GENERALIZED, 2, 1.0, 1.0))


def test_classic_scaling_monotonicity():
    rng = np.random.default_rng(103)
    spec = helpers.classic_spec(rng, 5)
    box = bounds_classic(spec)
    doubled = ProblemSpec(Kind.CLASSIC, spec.h1, 2.0 * spec.h2, spec.A, spec.B)
    box2 = bounds_classic(doubled)
    shift = math.log(2.0) / (spec.A + spec.B)
    assert box2.lower - box.lower == pytest.approx(shift, rel=1e-12)
    assert box2.upper - box.upper == pytest.approx(shift, rel=1e-12)


def test_generalized_box_contains_zero():
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        g = helpers.random_graph(rng, n)
        spec = helpers.generalized_spec(rng, n)
        box = bounds_generalized(spec, g)
        assert box.lower <= 0.0 <= box.upper
        assert box.radius > max(abs(box.lower), abs(box.upper))


def test_generalized_formula_regression():
    rng = np.random.default_rng(109)
    g = helpers.random_graph(rng, 6)
    spec = helpers.generalized_spec(rng, 6)
    box = bounds_generalized(spec, g)

    # independent re-derivation of the bound chain
    h1_min, h1_max = spec.h1.min(), spec.h1.max()
    h2_min, h2_max = spec.h2.min(), spec.h2.max()
    vol = float(np.sum(g.mu))
    mu0 = float(np.min(g.mu))
    c1 = (1.0 / spec.A) * math.log(0.5 + math.sqrt(h2_max / (4.0 * h1_min) + 0.25))
    c2 = h2_max * vol + h1_max * max(0.25, math.exp(2.0 * spec.A * c1)) * vol
    c3 = -(1.0 / spec.B) * math.log(0.5 + math.sqrt(c2 / (h2_min * mu0) + 0.25))
    assert box.upper == pytest.approx(c1, rel=1e-12)
    assert box.lower == pytest.approx(c3, rel=1e-12)


def test_generalized_bounds_reject_nonpositive_h2():
    with pytest.raises(BoundsInapplicableError):
        bounds_generalized(constant_spec(Kind.GENERALIZED, 2, 1.0, -1.0), helpers.k2())
    with pytest.raises(BoundsInapplicableError):
        bounds_generalized(constant_spec(Kind.CLASSIC, 2, 1.0, -1.0), helpers.k2())


def test_elliptic_constant_k2_tight():
    g = helpers.k2()
    c = elliptic_constant(g)
    assert c == pytest.approx(1.0, abs=1e-12)
    u = np.array([0.0, 1.0])
    spread = float(u.max() - u.min())
    assert spread == pytest.approx(c * np.max(np.abs(laplacian(g, u))), abs=1e-12)


def test_elliptic_constant_single_vertex():
    assert elliptic_constant(WeightedGraph(["x"], [1.0], [])) == 0.0


def test_elliptic_estimate_random_audit():
    rng = np.random.default_rng(113)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        g = helpers.random_graph(rng, n)
        c = elliptic_constant(g)
        u = rng.normal(0.0, 2.0, n)
        spread = float(u.max() - u.min())
        assert spread <= c * float(np.max(np.abs(laplacian(g, u)))) + 1e-12
        assert 0.0 <= c * float(np.max(np.abs(laplacian(g, np.full(n, 3.3)))))


# 40-digit references for one vertex with mu = 1 and A = B = 1
@pytest.mark.parametrize(
    "h1,h2,lower,upper",
    [
        (1e-300, 1e300, -0.5450791389023874298584076799056509394195, 690.0823807176537598959802042838510857123),
        (1e300, 1e-300, -690.7755278982137052053974364053092622803, 0.0),
    ],
)
def test_generalized_box_on_extreme_ratios_runs_in_logs(h1, h2, lower, upper):
    # max h2 / (4 min h1) or C2 / (min h2 mu0) overflows, and e^{2 A upper} with it
    box = bounds_generalized(constant_spec(Kind.GENERALIZED, 1, h1, h2), WeightedGraph(["o"], [1.0]))
    assert box.lower == pytest.approx(lower, rel=1e-12)
    assert box.upper == pytest.approx(upper, rel=1e-12)


def test_generalized_log_chain_meets_the_float_chain():
    for q in np.geomspace(1e-300, 1e300, 61):
        from_log = estimates._log_root(math.inf, math.log(q))
        assert from_log == pytest.approx(estimates._log_root(q, math.nan), rel=1e-12, abs=1e-16)
    assert estimates._log_root(math.inf, 2000.0) == 1000.0


def test_generalized_box_is_finite_and_continuous_across_the_float_range():
    g = helpers.k2(mu=(1.0, 2.0))
    for h1 in (1e-300, 1e-5, 1.0, 1e5, 1e300):
        boxes = [
            bounds_generalized(constant_spec(Kind.GENERALIZED, 2, h1, 10.0**k), g)
            for k in np.arange(-300.0, 300.01, 0.25)
        ]
        for box in boxes:
            assert -math.inf < box.lower <= 0.0 <= box.upper < math.inf
        # h2 grows by 10^0.25 a step, so neither bound moves by more than log(10^0.25) / 2 ~ 0.29,
        # also where the chain switches to logs
        uppers = [box.upper for box in boxes]
        lowers = [box.lower for box in boxes]
        assert uppers == sorted(uppers)
        assert max(np.abs(np.diff(uppers))) < 0.3 and max(np.abs(np.diff(lowers))) < 0.3


def test_generalized_box_keeps_the_float_chain_bits_in_the_normal_range():
    rng = np.random.default_rng(113)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        g = helpers.random_graph(rng, n)
        spec = ProblemSpec(
            Kind.GENERALIZED, 10.0 ** rng.uniform(-8, 8, n), 10.0 ** rng.uniform(-8, 8, n),
            float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)),
        )
        box = bounds_generalized(spec, g)
        upper = math.log(0.5 + math.sqrt(spec.h2.max() / (4.0 * spec.h1.min()) + 0.25)) / spec.A
        c2 = spec.h2.max() * g.volume + spec.h1.max() * max(0.25, math.exp(2.0 * spec.A * upper)) * g.volume
        lower = -math.log(0.5 + math.sqrt(c2 / (spec.h2.min() * g.mu.min()) + 0.25)) / spec.B
        assert (box.lower, box.upper) == (lower, upper)


@pytest.mark.parametrize(
    "kind,h1,h2,A,B",
    [
        (Kind.GENERALIZED, 1.0, 1.0, 1e-310, 1.0),
        (Kind.CLASSIC, 1.0, -2.0, 1e-310, 1e-310),
        (Kind.GENERALIZED, 1e-300, 1e300, 1e-307, 1.0),
    ],
)
def test_a_box_past_the_float_range_is_inapplicable(kind, h1, h2, A, B):
    spec = constant_spec(kind, 1, h1, h2, A, B)
    with pytest.raises(BoundsInapplicableError, match="leaves the float range"):
        estimates._apriori_box(spec, WeightedGraph(("o",), (1.0,), ()))


def test_the_apriori_box_is_the_box_of_the_kind():
    rng = np.random.default_rng(127)
    for n in (1, 2, 5):
        g = helpers.random_graph(rng, n)
        classic, generalized = helpers.classic_spec(rng, n), helpers.generalized_spec(rng, n)
        assert estimates._apriori_box(classic, g) == bounds_classic(classic)
        assert estimates._apriori_box(generalized, g) == bounds_generalized(generalized, g)


def _h2_sign_tests(source: str) -> list[str]:
    """The comparisons with 0 in ``source``'s code of an expression that reads a name holding ``h2``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = [n.attr if isinstance(n, ast.Attribute) else n.id
                 for o in operands for n in ast.walk(o) if isinstance(n, (ast.Attribute, ast.Name))]
        zero = any(isinstance(o, ast.Constant) and type(o.value) in (int, float) and o.value == 0
                   for o in operands)
        if zero and any("h2" in name for name in names):
            found.append(ast.unparse(node))
    return found


def test_the_sign_tests_on_h2_live_in_estimates():
    # the detector sees the spellings that the two predicates stand for
    for spelled in ("float(spec.h2.min()) >= 0.0", "float(spec.h2.max()) < 0.0", "float(spec.h2[0]) >= 0.0",
                    "np.any(spec.h2 <= 0.0)", "np.all(spec.h2 > 0)"):
        assert len(_h2_sign_tests(spelled)) == 1, spelled
    for module in (cli, degree, solvers, graphs, linalg):
        assert _h2_sign_tests(inspect.getsource(module)) == [], module.__name__
    # model sits below estimates and keeps the classic deformation's own condition, for any kind
    assert _h2_sign_tests(inspect.getsource(model)) == ["max_h2 >= 0.0"]
    assert _h2_sign_tests(inspect.getsource(model.default_epsilon)) == ["max_h2 >= 0.0"]
    estimates_tests = sorted(_h2_sign_tests(inspect.getsource(estimates)))
    assert estimates_tests == ["spec.h2 < 0.0", "spec.h2 > 0.0", "spec.h2 >= 0.0"]


# h2 by sign, on n vertices; the mixed patterns are mixed from n = 2 on
H2_SIGNS = {
    "negative": lambda rng, n: -rng.uniform(0.5, 2.0, n),
    "zero": lambda rng, n: np.zeros(n),
    "negative zero": lambda rng, n: np.full(n, -0.0),
    "positive": lambda rng, n: rng.uniform(0.5, 2.0, n),
    "mixed": lambda rng, n: rng.uniform(0.5, 2.0, n) * np.resize([-1.0, 1.0], n),
    "zero and negative": lambda rng, n: -rng.uniform(0.5, 2.0, n) * (np.arange(n) > 0),
    "zero and positive": lambda rng, n: rng.uniform(0.5, 2.0, n) * (np.arange(n) > 0),
}


def _raised(call) -> TzgraphError | None:
    try:
        call()
    except TzgraphError as exc:
        return exc
    return None


@pytest.mark.parametrize("kind", list(Kind))
def test_the_sign_tests_on_h2_predict_what_the_commands_do(kind):
    rng = np.random.default_rng(131)
    cfg = SolverConfig()
    for name, h2_of in H2_SIGNS.items():
        for n in (1, 2, 3):
            g = helpers.random_graph(rng, n)
            spec = ProblemSpec(kind, rng.uniform(0.5, 2.0, n), h2_of(rng, n),
                               float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            obstructed = kind is Kind.CLASSIC and all(h >= 0.0 for h in spec.h2.tolist())
            holds = all(h < 0.0 if kind is Kind.CLASSIC else h > 0.0 for h in spec.h2.tolist())
            case = (name, n)
            assert estimates._obstructed(spec) is obstructed and estimates._hypothesis_holds(spec) is holds, case

            exc = _raised(lambda: cli._cmd_solve(spec, g, cfg, None))
            assert isinstance(exc, NoSolutionError) == obstructed, case
            exc = _raised(lambda: cli._cmd_bounds(spec, g, cfg, None))
            assert isinstance(exc, BoundsInapplicableError) == (not holds), case
            exc = _raised(lambda: solvers.choose_barriers(spec, g))
            barred = kind is Kind.CLASSIC or not holds or solvers.multiplicity_branch(spec) == 0
            assert isinstance(exc, BarrierInapplicableError) == barred, case

            reports = []
            exc = _raised(lambda: reports.append(estimate_degree(spec, g, cfg, n_starts=8)))
            assert isinstance(exc, BoundsInapplicableError) == (not obstructed and not holds), case
            if obstructed:
                assert (reports[0].degree, reports[0].solutions) == (0, ()), case
            proven = bool(reports) and reports[0].exhaustive_confidence is degree.Confidence.PROVEN
            assert proven == (obstructed or (holds and (kind is Kind.CLASSIC or n == 1))), case

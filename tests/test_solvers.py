"""Newton, deflation, continuation, barriers, and box minimization."""

import math
import warnings

import numpy as np
import pytest

import helpers
from tzgraph import (
    BarrierInapplicableError,
    ContinuationBrokenError,
    Kind,
    ProblemSpec,
    SolverConfig,
    bounds_generalized,
    choose_barriers,
    continuation,
    default_t_grid,
    energy,
    find_two_solutions,
    minimize_box,
    multiplicity_branch,
    newton,
    newton_deflated,
    residual,
)
from tzgraph.linalg import halton_ball
from tzgraph.model import _kernels
from tzgraph.errors import SpecValidationError
from tzgraph.solvers import _deflated_system, _mean_constant_root, _newton_system

CFG = SolverConfig()


def constant_spec(kind, n, h1, h2, A=1.0, B=1.0):
    return ProblemSpec(kind, np.full(n, h1), np.full(n, h2), A, B)


# ---------------------------------------------------------------------------
# newton


def test_newton_classic_trivial_root():
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    report = newton(spec, g, np.full(2, 0.3), CFG)
    assert report.converged
    assert report.residual_norm < 1e-10
    assert np.max(np.abs(report.solution)) < 1e-10
    assert report.jac_sign == 1


def test_newton_generalized_near_zero_start():
    rng = np.random.default_rng(211)
    g = helpers.random_graph(rng, 4)
    spec = helpers.generalized_spec(rng, 4)
    report = newton(spec, g, np.full(4, 0.01), CFG)
    assert report.converged
    assert np.max(np.abs(report.solution)) < 1e-8


def test_newton_matches_gauss_seidel_oracle():
    rng = np.random.default_rng(223)
    data = helpers.random_graph_data(rng, 3)
    g = helpers.build_graph(data)
    spec = helpers.classic_spec(rng, 3)
    report = newton(spec, g, np.zeros(3), CFG)
    assert report.converged
    oracle = helpers.classic_sweep_oracle(data, spec)
    assert np.max(np.abs(report.solution - oracle)) < 1e-6


def test_newton_quadratic_tail():
    rng = np.random.default_rng(227)
    g = helpers.random_graph(rng, 5)
    spec = helpers.classic_spec(rng, 5)
    report = newton(spec, g, np.full(5, 0.4), CFG)
    assert report.converged
    history = report.residual_history
    for prev, cur in zip(history, history[1:]):
        if 0.0 < prev < 1e-4 and cur > 0.0:
            assert cur <= 10.0 * prev * prev


def test_newton_reports_nonconvergence_on_iteration_cap():
    rng = np.random.default_rng(229)
    g = helpers.random_graph(rng, 4)
    spec = helpers.classic_spec(rng, 4)
    report = newton(spec, g, np.full(4, 3.0), SolverConfig(max_iter=1))
    assert not report.converged


def test_newton_from_a_residual_beyond_1e154_warns_nothing_and_descends():
    # the generalized residual is about e^(2Au) = 5e173 here, so its square
    # overflows a double
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = newton(spec, helpers.k2(), np.array([200.0, 199.0]), CFG)
    assert report.residual_history[0] > 1e154
    assert report.residual_history[1] < report.residual_history[0]


def test_armijo_rejects_a_growing_step_at_a_huge_residual():
    # a full Newton step on arctan overshoots from u = 2 to |arctan| 1.30 > 1.11;
    # the line search must halve it even though the squared residual overflows
    report = _newton_system(
        lambda u: 1e160 * np.arctan(u),
        lambda u: np.diag(1e160 / (1.0 + u * u)),
        np.array([2.0]),
        CFG,
    )
    assert report.residual_history[1] < report.residual_history[0]


# ---------------------------------------------------------------------------
# deflation


def test_deflated_with_no_known_roots_matches_newton():
    rng = np.random.default_rng(233)
    g = helpers.random_graph(rng, 4)
    spec = helpers.classic_spec(rng, 4)
    start = rng.normal(0.0, 0.3, 4)
    plain = newton(spec, g, start, CFG)
    deflated = newton_deflated(spec, g, [], start, CFG)
    assert np.array_equal(plain.solution, deflated.solution)
    assert plain.residual_history == deflated.residual_history
    assert plain.jac_sign == deflated.jac_sign


def test_deflation_finds_second_generalized_root():
    rng = np.random.default_rng(239)
    g = helpers.random_graph(rng, 3)
    spec = helpers.branch1_spec(rng, 3)
    report = newton_deflated(spec, g, [np.zeros(3)], np.full(3, 0.2), CFG)
    assert report.converged
    assert np.max(np.abs(report.solution)) > CFG.deflation_radius
    assert np.max(np.abs(residual(spec, g, report.solution))) < CFG.tol


def test_deflating_the_unique_classic_root_never_converges():
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    known = [np.zeros(2)]
    starts = list(halton_ball(2, 10, 1.0, seed=0)) + [np.full(2, 0.5), np.full(2, -0.5)]
    for start in starts:
        report = newton_deflated(spec, g, known, start, CFG)
        assert not report.converged


def _deflation_case():
    rng = np.random.default_rng(241)
    g = helpers.random_graph(rng, 4)
    spec = helpers.generalized_spec(rng, 4)
    known = [np.zeros(4), rng.normal(0.0, 0.3, 4)]
    return rng, g, spec, known


def test_deflated_jacobian_matches_the_old_terms_bitwise():
    rng, g, spec, known = _deflation_case()
    fun, jac = _kernels(spec, g)
    dfun, djac = _deflated_system(fun, jac, known)
    for _ in range(20):
        u = rng.normal(0.0, 0.5, 4)
        expected = helpers.deflated_jacobian_oracle(fun, jac, known, u).tobytes()
        assert djac(u).tobytes() == expected  # no dfun call at u yet: F is evaluated
        factor, _ = helpers.deflation_terms_oracle(u, known)
        assert dfun(u).tobytes() == (factor * fun(u)).tobytes()
        assert djac(u).tobytes() == expected  # F reused from that dfun call
        assert djac(u.copy()).tobytes() == expected  # another array: F evaluated again


def test_deflated_newton_evaluates_the_residual_once_per_deflated_residual():
    _, g, spec, known = _deflation_case()
    fun, jac = _kernels(spec, g)
    calls = {"base": 0, "deflated": 0}

    def base(u):
        calls["base"] += 1
        return fun(u)

    dfun, djac = _deflated_system(base, jac, known)

    def deflated(u):
        calls["deflated"] += 1
        return dfun(u)

    report = _newton_system(deflated, djac, np.full(4, 0.4), CFG)
    assert report.iterations >= 3
    assert calls["base"] == calls["deflated"]


def test_newton_validates_its_start_once(monkeypatch):
    import tzgraph.graphs
    import tzgraph.model
    import tzgraph.solvers

    calls = []
    original = tzgraph.graphs.as_field

    def counted(g, values):
        calls.append(1)
        return original(g, values)

    for module in (tzgraph.graphs, tzgraph.model, tzgraph.solvers):
        monkeypatch.setattr(module, "as_field", counted)
    rng = np.random.default_rng(251)
    g = helpers.random_graph(rng, 5)
    spec = helpers.classic_spec(rng, 5)
    counts = []
    for scale in (0.1, 2.0):
        calls.clear()
        report = newton(spec, g, np.full(5, scale), CFG)
        assert report.converged
        counts.append((report.iterations, len(calls)))
    assert counts[0][0] != counts[1][0]
    assert counts[0][1] == counts[1][1] == 1


# ---------------------------------------------------------------------------
# continuation


def test_continuation_classic_endpoint_and_agreement():
    rng = np.random.default_rng(241)
    data = helpers.random_graph_data(rng, 4)
    g = helpers.build_graph(data)
    spec = helpers.classic_spec(rng, 4)
    reports = continuation(spec, g, default_t_grid(), None, CFG)
    assert len(reports) == 21
    # t = 1 member has the unique solution zero
    assert np.max(np.abs(reports[0].solution)) < 1e-10
    assert all(r.converged for r in reports)
    direct = newton(spec, g, np.zeros(4), CFG)
    assert np.max(np.abs(reports[-1].solution - direct.solution)) < 1e-8


def test_continuation_generalized_breaks_before_t0():
    rng = np.random.default_rng(251)
    g = helpers.random_graph(rng, 3)
    spec = helpers.generalized_spec(rng, 3)
    box = bounds_generalized(spec, g)
    with pytest.raises(ContinuationBrokenError) as info:
        continuation(spec, g, default_t_grid(11), None, CFG)
    err = info.value
    assert 0.0 <= err.t_failed < 1.0
    assert err.reports, "at least the t=1 stage must have solved"
    for report in err.reports:
        assert report.converged
        assert box.contains(report.solution, slack=1e-8)


def test_continuation_rejects_bad_grids():
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    for grid in ([0.0, 1.0], [1.0, 0.5], [1.0, 0.5, 0.5, 0.0], [1.0]):
        with pytest.raises(Exception):
            continuation(spec, g, grid, None, CFG)


# ---------------------------------------------------------------------------
# barriers


def test_choose_barriers_first_branch_signs():
    g = helpers.k2(w=1.5)
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 3.0)
    barriers = choose_barriers(spec, g)
    assert barriers.side == 1
    assert 0.0 < barriers.delta < 1.0
    assert math.isfinite(barriers.beta)
    assert np.all(residual(spec, g, np.full(2, barriers.delta)) < 0.0)
    assert np.all(residual(spec, g, np.full(2, barriers.beta)) > 0.0)
    # the scalar root sits strictly between the barriers
    root = helpers.constant_root_oracle(spec, barriers.delta, barriers.beta)
    assert barriers.delta < root < barriers.beta


def test_choose_barriers_rejects_balanced_coefficients():
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 1.0)
    assert multiplicity_branch(spec) == 0
    with pytest.raises(BarrierInapplicableError):
        choose_barriers(spec, helpers.k2())


def test_choose_barriers_terminates_near_hypothesis_edge():
    # ratio B*min(h2) / A*max(h1) barely above 1 forces a deep delta search
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 1.05)
    barriers = choose_barriers(spec, helpers.k2(w=1.5))
    assert np.all(residual(spec, helpers.k2(w=1.5), np.full(2, barriers.delta)) < 0.0)
    assert barriers.delta < 0.3


def test_choose_barriers_mirror_side():
    rng = np.random.default_rng(257)
    g = helpers.random_graph(rng, 3)
    spec = helpers.mirror_spec(rng, 3)
    barriers = choose_barriers(spec, g)
    assert barriers.side == -1
    lo, hi = barriers.box()
    assert lo < hi < 0.0
    # every per-vertex scalar crossing lies inside the mirrored box
    for x in range(3):
        crossing = helpers.bisect_root(
            lambda c, x=x: helpers.pointwise_value(spec, x, c), lo, hi
        )
        assert lo < crossing < hi


# ---------------------------------------------------------------------------
# box minimization


def test_minimize_box_constant_instance_matches_scalar_oracle():
    g = helpers.k2(mu=(1.0, 2.0), w=1.5)
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 3.0)
    barriers = choose_barriers(spec, g)
    report = minimize_box(spec, g, barriers, CFG)
    assert report.converged
    root = helpers.constant_root_oracle(spec, barriers.delta, barriers.beta)
    assert np.max(np.abs(report.solution - root)) < 1e-8


def test_minimize_box_monotone_energy_and_box_invariance():
    rng = np.random.default_rng(263)
    g = helpers.random_graph(rng, 4)
    spec = helpers.branch1_spec(rng, 4)
    barriers = choose_barriers(spec, g)
    trace = []
    report = minimize_box(spec, g, barriers, CFG, _trace=trace)
    assert report.converged
    energies = report.energy_history
    tolerance = 5e-13 * (1.0 + abs(energies[0]))
    assert all(b <= a + tolerance for a, b in zip(energies, energies[1:]))
    lo, hi = barriers.box()
    for iterate in trace:
        assert np.all(iterate >= lo) and np.all(iterate <= hi)


def test_minimize_box_result_is_minimal_among_random_fields():
    rng = np.random.default_rng(269)
    g = helpers.random_graph(rng, 3)
    spec = helpers.branch1_spec(rng, 3)
    barriers = choose_barriers(spec, g)
    report = minimize_box(spec, g, barriers, CFG)
    lo, hi = barriers.box()
    j_star = energy(spec, g, report.solution)
    for _ in range(100):
        v = rng.uniform(lo, hi, 3)
        assert j_star <= energy(spec, g, v) + 1e-12


def test_minimize_box_validates_only_at_entry(monkeypatch):
    import tzgraph.graphs
    import tzgraph.model
    import tzgraph.solvers

    calls = []
    original = tzgraph.graphs.as_field

    def counted(g, values):
        calls.append(1)
        return original(g, values)

    for module in (tzgraph.graphs, tzgraph.model, tzgraph.solvers):
        monkeypatch.setattr(module, "as_field", counted)
    rng = np.random.default_rng(281)
    g = helpers.random_graph(rng, 6)
    spec = helpers.branch1_spec(rng, 6)
    barriers = choose_barriers(spec, g)
    calls.clear()
    report = minimize_box(spec, g, barriers, CFG)
    assert report.converged and report.iterations > 0
    # the entry evaluates energy and residual once each through the public functions
    assert len(calls) == 2


def test_minimize_box_energies_are_the_public_energy_bitwise():
    rng = np.random.default_rng(283)
    for n in (1, 3, 6, 9):
        g = helpers.random_graph(rng, n)
        spec = helpers.branch1_spec(rng, n)
        trace = []
        report = minimize_box(spec, g, choose_barriers(spec, g), CFG, _trace=trace)
        assert len(trace) == len(report.energy_history) > (n > 1)
        assert [energy(spec, g, u) for u in trace] == list(report.energy_history)
        assert np.array_equal(residual(spec, g, report.solution), residual(spec, g, trace[-1]))


def test_mean_constant_root_matches_the_average_bisection():
    rng = np.random.default_rng(293)
    for n in (1, 2, 5, 8):
        g = helpers.random_graph(rng, n)
        spec = helpers.branch1_spec(rng, n)
        lo, hi = choose_barriers(spec, g).box()
        fun = _kernels(spec, g)[0]
        assert _mean_constant_root(fun, g, lo, hi) == helpers.mean_constant_root_oracle(
            spec, g, lo, hi
        )


def test_negative_seed_is_rejected():
    with pytest.raises(SpecValidationError):
        SolverConfig(seed=-1)
    # a negative seed would put every start on one corner of the ball
    assert np.unique(halton_ball(3, 6, 2.0, seed=-1), axis=0).shape[0] == 1
    assert np.unique(halton_ball(3, 6, 2.0, seed=0), axis=0).shape[0] == 6


# ---------------------------------------------------------------------------
# two solutions


def test_find_two_solutions_first_branch():
    g = helpers.k2(w=1.5)
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 3.0)
    zero_report, second = find_two_solutions(spec, g, CFG)
    assert np.max(np.abs(zero_report.solution)) < 1e-12
    barriers = choose_barriers(spec, g)
    assert np.all(second.solution > barriers.delta)
    assert np.all(second.solution < barriers.beta)
    assert np.max(np.abs(second.solution - zero_report.solution)) > CFG.deflation_radius
    assert zero_report.jac_sign + second.jac_sign == 0


def test_find_two_solutions_mirror_branch():
    g = helpers.k2(w=1.5)
    spec = constant_spec(Kind.GENERALIZED, 2, 3.0, 1.0)
    zero_report, second = find_two_solutions(spec, g, CFG)
    assert np.max(np.abs(zero_report.solution)) < 1e-12
    assert np.all(second.solution < 0.0)
    lo, hi = choose_barriers(spec, g).box()
    assert np.all(second.solution > lo) and np.all(second.solution < hi)
    assert zero_report.jac_sign + second.jac_sign == 0
    # constant coefficients: the negative solution is the scalar crossing
    root = helpers.bisect_root(lambda c: helpers.pointwise_value(spec, 0, c), lo, hi)
    assert np.max(np.abs(second.solution - root)) < 1e-8


def test_find_two_solutions_rejects_balanced():
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 1.0)
    with pytest.raises(BarrierInapplicableError):
        find_two_solutions(spec, helpers.k2(), CFG)
    classic = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    with pytest.raises(BarrierInapplicableError):
        find_two_solutions(classic, helpers.k2(), CFG)


def test_solver_determinism():
    rng = np.random.default_rng(271)
    g = helpers.random_graph(rng, 4)
    spec = helpers.branch1_spec(rng, 4)
    first = find_two_solutions(spec, g, CFG)
    second = find_two_solutions(spec, g, CFG)
    for a, b in zip(first, second):
        assert np.array_equal(a.solution, b.solution)
        assert a.residual_norm == b.residual_norm
        assert a.iterations == b.iterations
        assert a.jac_sign == b.jac_sign
        assert a.energy_history == b.energy_history

"""Newton, deflation, continuation, barriers, and box minimization."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import helpers
from tzgraph import (
    BarrierInapplicableError,
    ContinuationBrokenError,
    Kind,
    ProblemSpec,
    SolverConfig,
    WeightedGraph,
    bounds_generalized,
    choose_barriers,
    continuation,
    default_t_grid,
    energy,
    find_two_solutions,
    minimize_box,
    multiplicity_branch,
    newton,
    residual,
)
from tzgraph import linalg
from tzgraph.linalg import halton_ball, lu_factor
from tzgraph.model import _kernels
from tzgraph.errors import ExponentOverflowError, SpecValidationError
import tzgraph.degree
import tzgraph.model
import tzgraph.solvers
from tzgraph.solvers import (
    _bisect,
    _deflated_system,
    _mean_constant_root,
    _negative_crossings,
    _newton_block,
    _newton_system,
)

CFG = SolverConfig()


def constant_spec(kind, n, h1, h2, A=1.0, B=1.0):
    return ProblemSpec(kind, np.full(n, h1), np.full(n, h2), A, B)


# ---------------------------------------------------------------------------
# newton


def test_sup_norms_by_maximum_reduce_have_the_bits_of_np_max():
    rng = np.random.default_rng(271)
    for n in range(1, 40):
        x = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-300, 300, (3, n))
        for special in (None, math.nan, math.inf, -math.inf, -0.0, 5e-324):
            y = x.copy()
            if special is not None:
                y[:, rng.integers(n)] = special
            assert np.maximum.reduce(np.abs(y[0])).tobytes() == np.max(np.abs(y[0])).tobytes()
            rows = np.array([np.max(np.abs(row)) for row in y])
            assert np.maximum.reduce(np.abs(y), axis=1).tobytes() == rows.tobytes()


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


def deflated_run(spec, g, known, start, cfg):
    """The run the mirror branch of ``find_two_solutions`` makes from ``start``: Newton on
    ``_deflated_system`` against ``known``, certified on the undeflated residual."""
    fun, jac = _kernels(spec, g)
    deflated, _, step_scale = _deflated_system(fun, jac, known)
    return _newton_system(deflated, jac, start, cfg, true_fun=fun, step_scale=step_scale)


def _events(fun, jac, log):
    """``fun`` and ``jac`` that log an ``F`` or a ``J`` per evaluation."""
    return (lambda u: log.append("F") or fun(u)), (lambda u: log.append("J") or jac(u))


def test_newton_follows_the_pre_change_loop_bit_for_bit():
    rng = np.random.default_rng(281)
    makers = (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec, helpers.mirror_spec)
    below_half = compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(32):
            n = 1 + trial % 6
            g = helpers.random_graph(rng, n)
            fun, jac = _kernels(makers[trial % len(makers)](rng, n), g)
            cfg = SolverConfig(max_iter=4 if trial % 7 == 0 else 200)
            escape = 6.0 if trial % 3 == 0 else None
            for start in (rng.uniform(-4.0, 4.0, n), rng.uniform(-1.0, 1.0, n), np.full(n, 3.0)):
                logs = [], []
                report = _newton_system(*_events(fun, jac, logs[0]), start, cfg, escape_radius=escape)
                oracle = helpers.newton_system_oracle(*_events(fun, jac, logs[1]), start, cfg, escape_radius=escape)
                assert report.solution.tobytes() == oracle.solution.tobytes()
                assert report.residual_history == oracle.residual_history
                assert (report.iterations, report.jac_sign, report.converged, report.residual_norm) == (
                    oracle.iterations, oracle.jac_sign, oracle.converged, oracle.residual_norm
                )
                assert logs[0] == logs[1]
                # three or more residuals between two Jacobians: a step shorter than 1/2 was tried
                below_half += any(len(run) >= 3 for run in "".join(logs[0]).split("J"))
                compared += 1
    assert 0 < below_half < compared


def test_deflated_system_matches_the_oracles_on_one_to_four_roots():
    rng = np.random.default_rng(283)
    makers = (helpers.classic_spec, helpers.generalized_spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(16):
            n = 1 + trial % 5
            g = helpers.random_graph(rng, n)
            fun, jac = _kernels(makers[trial % 2](rng, n), g)
            known = [rng.normal(0.0, 0.5, n) for _ in range(1 + trial % 4)]
            dfun, _, step_scale = _deflated_system(fun, jac, known)
            oracle_fun, oracle_jac, _ = helpers.deflated_system_oracle(fun, jac, known)
            points = [rng.normal(0.0, 0.5, n) for _ in range(4)]
            points += [k + 1e-3 * rng.uniform(-1.0, 1.0, n) for k in known]
            for u in points:
                r = dfun(u)
                assert r.tobytes() == oracle_fun(u).tobytes()
                step = np.linalg.solve(jac(u), -r)
                factor, grad = helpers.deflation_terms_oracle(u, known)
                # M - g.s with g = grad log M, which is the oracle's grad M over M
                slope = float(np.dot(grad, step)) / factor
                assert abs(step_scale(u, step) - (factor - slope)) <= 1e-12 * (factor + abs(slope))
            # a start exactly on a root: the deflated residual is infinite and the run ends there
            start = known[trial % len(known)].copy()
            assert np.isinf(dfun(start)).all() and dfun(start).tobytes() == oracle_fun(start).tobytes()
            report = _newton_system(dfun, jac, start, CFG, true_fun=fun, step_scale=step_scale)
            oracle = helpers.newton_system_oracle(oracle_fun, oracle_jac, start, CFG, sign_jac_fun=jac, true_fun=fun)
            for run in (report, oracle):
                assert (run.iterations, run.residual_history, run.converged, run.jac_sign) == (0, (math.inf,), False, 0)


def test_deflated_with_no_known_roots_matches_newton():
    rng = np.random.default_rng(233)
    g = helpers.random_graph(rng, 4)
    spec = helpers.classic_spec(rng, 4)
    start = rng.normal(0.0, 0.3, 4)
    plain = newton(spec, g, start, CFG)
    deflated = deflated_run(spec, g, [], start, CFG)
    assert np.array_equal(plain.solution, deflated.solution)
    assert plain.residual_history == deflated.residual_history
    assert plain.jac_sign == deflated.jac_sign


def test_deflation_finds_second_generalized_root():
    rng = np.random.default_rng(239)
    g = helpers.random_graph(rng, 3)
    spec = helpers.branch1_spec(rng, 3)
    report = deflated_run(spec, g, [np.zeros(3)], np.full(3, 0.2), CFG)
    assert report.converged
    assert np.max(np.abs(report.solution)) > CFG.deflation_radius
    assert np.max(np.abs(residual(spec, g, report.solution))) < CFG.tol


def test_deflating_the_unique_classic_root_never_converges():
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    known = [np.zeros(2)]
    starts = list(halton_ball(2, 10, 1.0, seed=0)) + [np.full(2, 0.5), np.full(2, -0.5)]
    for start in starts:
        report = deflated_run(spec, g, known, start, CFG)
        assert not report.converged


def _deflation_case():
    rng = np.random.default_rng(241)
    g = helpers.random_graph(rng, 4)
    spec = helpers.generalized_spec(rng, 4)
    known = [np.zeros(4), rng.normal(0.0, 0.3, 4)]
    return rng, g, spec, known


def test_scaled_step_is_the_newton_step_of_the_deflated_system():
    rng = np.random.default_rng(251)
    makers = (helpers.classic_spec, helpers.generalized_spec)
    for trial in range(16):
        n = int(rng.integers(2, 6))
        g = helpers.random_graph(rng, n)
        fun, jac = _kernels(makers[trial % 2](rng, n), g)
        known = [rng.normal(0.0, 0.5, n) for _ in range(1 + trial % 4)]
        dfun, base_jac, step_scale = _deflated_system(fun, jac, known)
        assert base_jac is jac
        points = [rng.normal(0.0, 0.5, n) for _ in range(4)]
        # close to a known root the multiplier is about 1e6 and its gradient large
        points += [k + 1e-3 * rng.uniform(-1.0, 1.0, n) for k in known]
        for u in points:
            r = dfun(u)
            step = np.linalg.solve(jac(u), -r)
            step = step / step_scale(u, step)
            expected = np.linalg.solve(helpers.deflated_jacobian_oracle(fun, jac, known, u), -r)
            assert np.max(np.abs(step - expected)) <= 1e-10 * np.max(np.abs(expected))
            factor, _ = helpers.deflation_terms_oracle(u, known)
            assert r.tobytes() == (factor * fun(u)).tobytes()


def test_deflated_newton_evaluates_the_residual_once_per_deflated_residual(monkeypatch):
    _, g, spec, known = _deflation_case()
    fun, jac = _kernels(spec, g)
    calls = {"base": 0, "deflated": 0}
    jacobians, factored = [], []

    def base(u):
        calls["base"] += 1
        return fun(u)

    def counted_jac(u):
        jacobians.append(u.copy())
        return jac(u)

    def factor(a, *args):
        factored.append(a.copy())
        return lu_factor(a, *args)

    dfun, _, step_scale = _deflated_system(base, counted_jac, known)

    def deflated(u):
        calls["deflated"] += 1
        return dfun(u)

    monkeypatch.setattr(linalg, "lu_factor", factor)
    report = _newton_system(
        deflated, counted_jac, np.full(4, 0.2), CFG, true_fun=fun, step_scale=step_scale
    )
    assert report.converged and report.iterations >= 3
    assert calls["base"] == calls["deflated"]
    # one Jacobian and one factorization per iteration, plus the final sign,
    # which factors the Jacobian scaled by a power of two
    assert len(jacobians) == len(factored) == report.iterations + 1
    for u, a in zip(jacobians[:-1], factored[:-1]):
        assert a.tobytes() == jac(u).tobytes()
    final = jac(jacobians[-1])
    assert 0.5 <= np.abs(factored[-1]).max() < 1.0
    assert np.ldexp(factored[-1], math.frexp(np.abs(final).max())[1]).tobytes() == final.tobytes()


def test_a_zero_or_infinite_step_divisor_ends_the_run_as_singular():
    # F(u) = J u - c around the deflated point 0: at u = 0.5 the multiplier
    # is 5 and, with c = 0.1875 and J = 1, M - g.s is exactly 5 - 5; with
    # J = 1e-308 the step overflows and the divisor is infinite
    known = [np.zeros(1)]
    for slope, c in ((1.0, 0.1875), (1e-308, -1.0)):
        fun = lambda u, slope=slope, c=c: slope * u - c
        jac = lambda u, slope=slope: np.full((1, 1), slope)
        dfun, _, step_scale = _deflated_system(fun, jac, known)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _newton_system(
                dfun, jac, np.array([0.5]), CFG, true_fun=fun, step_scale=step_scale
            )
        assert (report.converged, report.jac_sign, report.iterations) == (False, 0, 0)


def test_newton_deflated_matches_the_deflated_jacobian_oracle():
    rng = np.random.default_rng(257)
    n, compared = 3, 0
    for maker in (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec):
        g = helpers.random_graph(rng, n)
        spec = maker(rng, n)
        fun, jac = _kernels(spec, g)
        known = [np.zeros(n)] if maker is not helpers.classic_spec else [np.full(n, 0.3)]
        for start in halton_ball(n, 8, 1.0, seed=1):
            report = deflated_run(spec, g, known, start, CFG)
            oracle = helpers.deflated_newton_oracle(fun, jac, known, start, CFG)
            assert report.converged == oracle.converged
            assert report.jac_sign == oracle.jac_sign
            if report.converged:
                assert np.max(np.abs(report.solution - oracle.solution)) <= 1e-12
                compared += 1
    assert compared > 0


@pytest.mark.parametrize("deflate", [False, True])
def test_newton_from_a_start_near_the_largest_double_warns_nothing(deflate):
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0, A=10.0)
    start = np.full(2, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if deflate:
            report = deflated_run(spec, g, [np.zeros(2)], start, CFG)
        else:
            report = newton(spec, g, start, CFG)
    assert not report.converged
    assert report.jac_sign == 0


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
# the lockstep block screen


def _screen_against_runs(fun, jac, block_fun, block_jac, starts, known, cfg, escape):
    """Screen ``starts`` block by block on 1, 2, 3 and unbounded lanes; check every row against its own run."""
    reports = []
    for start in starts:
        dfun, djac, step_scale = _deflated_system(fun, jac, known)
        reports.append(
            _newton_system(dfun, djac, start, cfg, true_fun=fun, escape_radius=escape, step_scale=step_scale)
        )
    for lanes in (1, 2, 3, None):
        screened, rest = [], np.array(starts)
        while len(rest):
            screened.append(_newton_block(block_fun, block_jac, rest, cfg, known, escape, lanes))
            assert screened[-1][2][:-1].sum() == 0  # a screen stops at the first row that passes
            rest = rest[len(screened[-1][2]) :]
        u, iterations, passed = (np.concatenate(part) for part in zip(*screened))
        for i, report in enumerate(reports):
            assert u[i].tobytes() == report.solution.tobytes()
            assert iterations[i] == report.iterations
            assert passed[i] == (report.residual_norm < cfg.tol)
    return reports


def _screen_case(spec, g, starts, known, cfg=CFG, escape=20.0):
    return _screen_against_runs(*_kernels(spec, g), *_kernels(spec, g, block=True), starts, known, cfg, escape)


def test_block_screen_follows_every_run_bit_for_bit():
    rng = np.random.default_rng(263)
    makers = (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec, helpers.mirror_spec)
    exits = dict.fromkeys(("converged", "passed unconverged", "cap at start", "d2 = 0", "budget", "escape"), 0)
    for trial in range(40):
        n = 1 + trial % 8
        g = helpers.random_graph(rng, n)
        spec = makers[trial % len(makers)](rng, n)
        known = []
        for _ in range(trial % 4):
            report = deflated_run(spec, g, known, rng.uniform(-1.0, 1.0, n), CFG)
            known.append(np.array(report.solution) if report.converged else rng.uniform(-1.0, 1.0, n))
        starts = [rng.uniform(-s, s, n) for s in (4.0, 1.0, 0.25, 0.0625) for _ in range(3)]
        starts += [k + rng.uniform(-1e-3, 1e-3, n) for k in known] + known[:1]
        if len(known) == 3:
            # deflate a point 1e-5 from the third root, as a fold partner
            # would be, and start next to that root: F can reach tol there,
            # the deflated residual cannot
            starts.append(known[2] - 1e-10)
            known[2] = known[2] + 1e-5
        starts += [np.full(n, 2000.0), np.full(n, -2000.0)]
        cfg = SolverConfig(max_iter=3 if trial % 5 == 0 else 60)
        escape = 1.5 if trial % 3 == 0 else 20.0
        for start, report in zip(starts, _screen_case(spec, g, starts, known, cfg, escape)):
            passed = report.residual_norm < cfg.tol
            exits["converged"] += report.converged
            # the runs a screen for converged runs would miss
            exits["passed unconverged"] += passed and not report.converged
            exits["cap at start"] += report.residual_history == (math.inf,) and abs(start[0]) == 2000.0
            exits["d2 = 0"] += any(start is k for k in known) and report.residual_history == (math.inf,)
            exits["budget"] += report.iterations == cfg.max_iter and not passed
            exits["escape"] += float(np.max(np.abs(report.solution))) > escape
    assert min(exits.values()) > 0, exits


def _linear_system(slope, shift, n=1, jac_slope=None):
    """``F(u) = slope u - shift`` and a Jacobian ``jac_slope I``, as 1-d and block callables."""
    mat = (slope if jac_slope is None else jac_slope) * np.eye(n)
    return (
        lambda u: slope * u - shift,
        lambda u: mat.copy(),
        lambda u: slope * u - shift,
        lambda u: np.repeat(mat[None], len(u), axis=0),
    )


def test_block_screen_follows_runs_through_constructed_exits():
    # the exponent cap in a trial step: next to the zero of the slope of
    # 0.5 e^{3u} + 0.5 e^{-u} the Newton step is about 1e8 long
    g = helpers.random_graph(np.random.default_rng(269), 3)
    spec = constant_spec(Kind.CLASSIC, 3, 0.5, 0.5, A=3.0, B=1.0)
    fun, jac = _kernels(spec, g)
    capped = []

    def guarded(u):
        try:
            return fun(u)
        except ExponentOverflowError:
            capped.append(u)
            raise

    starts = [np.full(3, -math.log(3.0) / 4.0 + 1e-9), np.full(3, 0.5), np.full(3, -3.0)]
    _screen_against_runs(guarded, jac, *_kernels(spec, g, block=True), starts, [], CFG, 20.0)
    assert capped

    # an exactly singular Jacobian next to regular ones: the stacked inverse
    # fails as a whole and falls back to one matrix at a time
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, 1.0)
    block_fun, block_jac = _kernels(spec, helpers.k2(), block=True)
    starts = [np.full(2, 0.3), np.zeros(2), np.array([0.2, -0.1])]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(block_jac(np.array(starts)))
    singular = _screen_case(spec, helpers.k2(), starts, [])[1]
    assert (singular.iterations, singular.jac_sign, singular.residual_norm) == (0, 0, 2.0)

    # early returns, each in a block with regular rows: an exactly singular
    # Jacobian and a step divisor M - g.s of exactly zero, both where F is
    # below tol and the deflated residual 17 F is not, so that a run going on
    # to any other exit would pass; and a divisor of infinity (see the
    # sequential test above)
    cases = ((0.0, 1e-11, 0.25), (2.0**-34, 15 * 2.0**-41, 0.25), (1e-308, -1.0, 0.5))
    for slope, shift, start in cases:
        starts = [np.array([start]), np.array([0.3]), np.array([-2.0])]
        runs = _screen_against_runs(*_linear_system(slope, shift), starts, [np.zeros(1)], CFG, 20.0)
        assert (runs[0].iterations, runs[0].jac_sign, runs[0].residual_norm >= CFG.tol) == (0, 0, True)

    # a stall with |F| < tol: a Jacobian 2000 times too steep cuts the
    # residual by 0.05 % a step, which F, at 5e-12, does not need and the
    # deflated residual, 5000 times larger, cannot afford
    system = _linear_system(1.0, 0.0, 2, jac_slope=2000.0)
    starts = [np.full(2, 5e-12), np.full(2, 0.3)]
    stall = _screen_against_runs(*system, starts, [np.full(2, 0.01)], CFG, 20.0)[0]
    assert stall.residual_norm < CFG.tol and not stall.converged and stall.iterations == 12


# ---------------------------------------------------------------------------
# continuation


def test_continuation_classic_endpoint_and_agreement():
    rng = np.random.default_rng(241)
    data = helpers.random_graph_data(rng, 4)
    g = helpers.build_graph(data)
    spec = helpers.classic_spec(rng, 4)
    reports = continuation(spec, g, default_t_grid(), CFG)
    assert len(reports) == 21
    # t = 1 member has the unique solution zero
    assert np.max(np.abs(reports[0].solution)) < 1e-10
    assert all(r.converged for r in reports)
    direct = newton(spec, g, np.zeros(4), CFG)
    assert np.max(np.abs(reports[-1].solution - direct.solution)) < 1e-8


def test_classic_neg_continuation_factors_once_per_newton_iteration(monkeypatch):
    # every stage's final Jacobian is row-dominant with a positive diagonal
    # (f' > 0), so its sign needs no factorization
    rng = np.random.default_rng(257)
    g = helpers.random_graph(rng, 40)
    spec = helpers.classic_spec(rng, 40)
    factored, runs = [], []

    def factor(a):
        factored.append(1)
        return lu_factor(a)

    def newton_system(*args, **kwargs):
        runs.append(_newton_system(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(linalg, "lu_factor", factor)
    monkeypatch.setattr(tzgraph.solvers, "_newton_system", newton_system)
    reports = continuation(spec, g, default_t_grid(), CFG)
    assert len(reports) == 21 and all(r.converged and r.jac_sign == 1 for r in reports)
    assert len(factored) == sum(r.iterations for r in runs) > 0


def test_continuation_generalized_breaks_before_t0():
    rng = np.random.default_rng(251)
    g = helpers.random_graph(rng, 3)
    spec = helpers.generalized_spec(rng, 3)
    box = bounds_generalized(spec, g)
    with pytest.raises(ContinuationBrokenError) as info:
        continuation(spec, g, default_t_grid(11), CFG)
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
            continuation(spec, g, grid, CFG)


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


@pytest.mark.parametrize("A", [400.0, 2000.0])
def test_mirror_branch_at_large_A(A):
    # on the negative axis A u is negative, so only -B u can leave the
    # exponent range, however large A is
    g = helpers.k2(w=1.5)
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 1.0, A=A, B=1.0)
    barriers = choose_barriers(spec, g)
    assert barriers.side == -1
    lo, hi = barriers.box()
    for x in range(2):
        crossing = helpers.bisect_root(lambda c, x=x: helpers.pointwise_value(spec, x, c), lo, hi)
        assert lo < crossing < hi
    second = find_two_solutions(spec, g, CFG)[1]
    assert second.converged and np.all(second.solution < 0.0)
    assert np.max(np.abs(residual(spec, g, second.solution))) < CFG.tol


def test_negative_crossings_match_the_per_vertex_oracle():
    rng = np.random.default_rng(307)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(3):
            g = helpers.random_graph(rng, n)
            spec = helpers.mirror_spec(rng, n)
            crossings = _negative_crossings(spec, g)
            oracle = helpers.negative_crossings_oracle(spec, g)
            assert np.all(np.abs(crossings - oracle) <= 2.0 * np.finfo(float).eps * np.abs(oracle))


def test_barrier_pairs_are_those_of_the_per_vertex_crossings(monkeypatch):
    rng = np.random.default_rng(311)
    cases = [(n, helpers.mirror_spec(rng, n)) for n in (1, 2, 3, 5, 8, 12) for _ in range(3)]
    cases = [(helpers.random_graph(rng, n), spec) for n, spec in cases]
    pairs = [choose_barriers(spec, g) for g, spec in cases]
    monkeypatch.setattr(tzgraph.solvers, "_negative_crossings", helpers.negative_crossings_oracle)
    assert pairs == [choose_barriers(spec, g) for g, spec in cases]
    # the positive branch, against its search on whole-graph residuals at constant fields
    rng = np.random.default_rng(317)
    for n in range(1, 41):
        g = helpers.random_graph(rng, n)
        for scale in (1e-3, 1.0, 30.0):
            spec = helpers.branch1_spec(rng, n)
            spec = replace(spec, A=scale * spec.A, B=scale * spec.B)
            assert choose_barriers(spec, g) == helpers.positive_barriers_oracle(spec, g)


def test_bisect_stops_early_with_the_bits_of_200_halvings():
    rng = np.random.default_rng(313)
    cubes = rng.uniform(-50.0, 50.0, 40)
    cubes[0] = 0.125  # on [0, 2] the second midpoint is an exact zero
    lo, hi = np.full(40, -4.0), np.full(40, 4.0)
    lo[0], hi[0] = 0.0, 2.0
    flip = np.where(rng.random(40) < 0.5, -1.0, 1.0)  # half the lanes fall from lo to hi
    calls = []

    def fun(c):
        calls.append(1)
        return flip * (c * c * c - cubes)

    f_lo = fun(lo)
    roots = _bisect(fun, lo, hi, f_lo)
    oracle = [
        helpers.bisect_root(lambda c, i=i: flip[i] * (c * c * c - cubes[i]), lo[i], hi[i])
        for i in range(40)
    ]
    assert roots.tobytes() == np.array(oracle).tobytes()
    assert roots[0] == 0.5 and len(calls) < 100
    # one scalar lane, as _mean_constant_root runs it
    for i in range(40):
        one = _bisect(lambda c, i=i: flip[i] * (c * c * c - cubes[i]), lo[i], hi[i], f_lo[i])
        assert float(one) == oracle[i]


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


def _minimize_recorded(spec, g, barriers):
    """``minimize_box``'s report, and each field whose energy it evaluated, in order, with that
    energy (None where the exponent guard raised): ``_energy_kernel`` is wrapped both where the
    minimizer binds it and where the public ``energy`` it calls at entry does."""
    original, evaluated = tzgraph.model._energy_kernel, []

    def recording(spec, g):
        energy_of = original(spec, g)

        def recorded(u):
            evaluated.append((u.copy(), None))
            value = energy_of(u)
            evaluated[-1] = (evaluated[-1][0], value)
            return value

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        for module in (tzgraph.model, tzgraph.solvers):
            patch.setattr(module, "_energy_kernel", recording)
        report = minimize_box(spec, g, barriers, CFG)
    return report, evaluated


def test_minimize_box_monotone_energy_and_box_invariance():
    rng = np.random.default_rng(263)
    g = helpers.random_graph(rng, 4)
    spec = helpers.branch1_spec(rng, 4)
    barriers = choose_barriers(spec, g)
    report, evaluated = _minimize_recorded(spec, g, barriers)
    assert report.converged
    energies = report.energy_history
    tolerance = 5e-13 * (1.0 + abs(energies[0]))
    assert all(b <= a + tolerance for a, b in zip(energies, energies[1:]))
    lo, hi = barriers.box()
    assert len(evaluated) >= len(energies)
    for field, _ in evaluated:
        assert np.all(field >= lo) and np.all(field <= hi)


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
        report, evaluated = _minimize_recorded(spec, g, choose_barriers(spec, g))
        assert len(report.energy_history) > (n > 1)
        assert all(value is None or value == energy(spec, g, u) for u, value in evaluated)
        # the history is the energies of the accepted fields, in the order they were evaluated
        remaining = iter(evaluated)
        accepted = [next((u for u, value in remaining if value == j), None) for j in report.energy_history]
        assert all(u is not None for u in accepted)
        assert np.array_equal(residual(spec, g, report.solution), residual(spec, g, accepted[-1]))


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


def test_deflation_radius_is_a_class_constant_not_a_field():
    assert [f.name for f in fields(SolverConfig)] == ["tol", "max_iter", "seed"]
    assert SolverConfig().deflation_radius == replace(CFG, max_iter=3).deflation_radius == 5e-6
    with pytest.raises(TypeError):
        SolverConfig(deflation_radius=1e-3)


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


def test_mirror_branch_falls_back_to_the_enumerator(monkeypatch):
    # the benchmark generator's mirror instance n=3, seed 5: no deflated warm start
    # reaches a strictly negative solution, so the multi-start enumeration runs
    g = WeightedGraph(
        ("v0", "v1", "v2"),
        (0.5272185755359486, 1.530708599787895, 1.2136559986505895),
        (("v1", "v0", 0.738285431732328), ("v2", "v0", 1.2807515875422295), ("v1", "v2", 1.010678134022432)),
    )
    h1 = (2.7809837290078345, 2.5327493897415807, 3.9681152258478387)
    h2 = (0.974959217041801, 0.7573634324208223, 0.737558266776337)
    spec = ProblemSpec(Kind.GENERALIZED, h1, h2, 1.6508621100337488, 0.8549665302560487)
    calls = []
    enumerate_roots = tzgraph.degree._enumerate_signed_roots

    def counted(*args, **kwargs):
        calls.append(1)
        return enumerate_roots(*args, **kwargs)

    monkeypatch.setattr(tzgraph.degree, "_enumerate_signed_roots", counted)
    second = find_two_solutions(spec, g, CFG)[1]
    assert len(calls) == 1
    assert second.converged and np.all(second.solution < 0.0)
    assert np.max(np.abs(residual(spec, g, second.solution))) < CFG.tol


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

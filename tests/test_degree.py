"""Degree estimation: expected signed counts, scalar enumeration, stability."""

import collections
import inspect
import math
import warnings
from functools import partial

import numpy as np
import pytest

import helpers
from tzgraph import (
    BoundsInapplicableError,
    Confidence,
    DegenerateRootError,
    Kind,
    ProblemSpec,
    SolverConfig,
    WeightedGraph,
    degree_single_vertex,
    estimate_degree,
    jacobian,
    residual,
    verify_homotopy_invariance,
)
from tzgraph import degree
from tzgraph.degree import _canonical_order
from tzgraph.estimates import _apriori_box
from tzgraph.model import _kernels
from tzgraph.errors import SpecValidationError

CFG = SolverConfig()


def constant_spec(kind, n, h1, h2, A=1.0, B=1.0):
    return ProblemSpec(kind, np.full(n, h1), np.full(n, h2), A, B)


def _enumerated(spec, g, n_starts):
    """The enumerator's canonical roots, signs and run count in the default ball."""
    radius = _apriori_box(spec, g).radius
    roots, signs, runs = degree._enumerate_signed_roots(spec, g, None, radius, CFG, n_starts)
    return (*_canonical_order(roots, signs), runs)


def _assert_degree_contract(spec, report, solutions, signs, runs):
    """``estimate_degree`` in the default ball against the enumerator's outcome there.

    Classic with h2 < 0: the one root the enumerator finds, from one run,
    proven.  Generalized: the enumerator's report with the proven degree 0.
    """
    assert [u.tobytes() for u in report.solutions] == [u.tobytes() for u in solutions]
    assert report.signs == signs and report.enumerated_degree == sum(signs)
    if spec.kind is Kind.CLASSIC:
        assert (report.degree, report.signs, report.starts_used) == (1, (1,), 1)
        assert report.exhaustive_confidence is Confidence.PROVEN
    else:
        assert (report.degree, report.starts_used) == (0, runs)
        assert report.exhaustive_confidence is Confidence.HEURISTIC


def test_classic_negative_h2_degree_one():
    rng = np.random.default_rng(307)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        g = helpers.random_graph(rng, n)
        spec = helpers.classic_spec(rng, n)
        _assert_degree_contract(spec, estimate_degree(spec, g, CFG, n_starts=24), *_enumerated(spec, g, 24))


def test_classic_negative_h2_jacobian_is_symmetric_positive_definite_in_the_mu_product():
    # D^{1/2} J D^{-1/2} with D = diag(mu) is symmetric, and f' > 0 makes it
    # positive definite: the map is strictly monotone and every zero has sign +1
    rng = np.random.default_rng(373)
    smallest = []
    for _ in range(60):
        n = int(rng.integers(1, 41))
        g = helpers.random_graph(rng, n)
        spec = helpers.classic_spec(rng, n)
        root_mu = np.sqrt(g.mu)
        for scale in (0.1, 1.0, 3.0):
            jac = jacobian(spec, g, rng.normal(0.0, scale, n))
            sym = root_mu[:, None] * jac / root_mu[None, :]
            assert np.allclose(sym, sym.T, rtol=1e-12, atol=1e-12 * np.max(np.abs(sym)))
            smallest.append(np.linalg.eigvalsh(sym).min())
    assert min(smallest) > 0.0


def test_classic_negative_h2_root_is_the_enumerator_oracles_root():
    # one Newton run from 0 gives the root the start-by-start enumerator
    # certifies, bit for bit
    rng = np.random.default_rng(379)
    for trial in range(16):
        n = int(rng.integers(2, 13)) if trial < 14 else 40
        g = helpers.random_graph(rng, n)
        spec = helpers.classic_spec(rng, n)
        report = estimate_degree(spec, g, CFG, n_starts=16)
        roots, signs, _ = helpers.enumerate_signed_roots_oracle(
            lambda u: residual(spec, g, u), lambda u: jacobian(spec, g, u), n, report.radius, CFG, 16
        )
        assert (report.degree, report.signs, report.starts_used) == (1, (1,), 1) and signs == [1]
        assert report.exhaustive_confidence is Confidence.PROVEN
        assert report.solutions[0].tobytes() == roots[0].tobytes()


def test_classic_negative_h2_root_outside_a_given_radius_is_proven_degree_zero():
    rng = np.random.default_rng(383)
    g = helpers.random_graph(rng, 4)
    spec = helpers.classic_spec(rng, 4)
    (root,) = estimate_degree(spec, g, CFG).solutions
    inside = estimate_degree(spec, g, CFG, radius=1.5 * float(np.max(np.abs(root))))
    outside = estimate_degree(spec, g, CFG, radius=0.5 * float(np.max(np.abs(root))))
    assert inside.solutions[0].tobytes() == root.tobytes() and inside.degree == 1
    assert (outside.solutions, outside.degree, outside.enumerated_degree, outside.starts_used) == ((), 0, 0, 1)
    assert outside.exhaustive_confidence is Confidence.PROVEN


def test_classic_positive_h2_short_circuits_to_zero():
    rng = np.random.default_rng(311)
    g = helpers.random_graph(rng, 5)
    spec = helpers.classic_positive_spec(rng, 5)
    report = estimate_degree(spec, g, CFG)
    assert report.degree == 0
    assert report.solutions == ()
    assert report.exhaustive_confidence is Confidence.PROVEN


def test_generalized_degree_zero():
    rng = np.random.default_rng(313)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        g = helpers.random_graph(rng, n)
        spec = helpers.generalized_spec(rng, n)
        report = estimate_degree(spec, g, CFG, n_starts=48)
        assert report.degree == 0


def test_generalized_degree_is_proven_zero_only_in_the_default_ball():
    # on branch-1 at n = 8 the enumeration misses roots, and its signed
    # count is not the degree; a given radius reports that count
    rng = np.random.default_rng(389)
    g = helpers.random_graph(rng, 8)
    spec = helpers.branch1_spec(rng, 8)
    report = estimate_degree(spec, g, CFG, n_starts=16)
    given = estimate_degree(spec, g, CFG, n_starts=16, radius=report.radius)
    assert report.degree == 0 and report.enumerated_degree != 0
    assert report.exhaustive_confidence is given.exhaustive_confidence is Confidence.HEURISTIC
    assert given.degree == given.enumerated_degree == report.enumerated_degree
    assert [u.tobytes() for u in given.solutions] == [u.tobytes() for u in report.solutions]


def test_reported_roots_recertify():
    rng = np.random.default_rng(317)
    g = helpers.random_graph(rng, 4)
    spec = helpers.branch1_spec(rng, 4)
    report = estimate_degree(spec, g, CFG, n_starts=32)
    assert report.solutions, "expected at least the zero root"
    for root in report.solutions:
        assert np.max(np.abs(residual(spec, g, root))) < CFG.tol
        assert np.max(np.abs(root)) < report.radius


def test_degree_stable_across_seeds():
    rng = np.random.default_rng(331)
    for maker in (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec):
        n = int(rng.integers(2, 5))
        g = helpers.random_graph(rng, n)
        spec = maker(rng, n)
        degrees = {
            estimate_degree(spec, g, SolverConfig(seed=s), n_starts=24).degree
            for s in range(5)
        }
        assert len(degrees) == 1


def test_degree_invariant_under_radius_doubling():
    rng = np.random.default_rng(337)
    g = helpers.random_graph(rng, 3)
    spec = helpers.branch1_spec(rng, 3)
    base = estimate_degree(spec, g, CFG, n_starts=32)
    doubled = estimate_degree(spec, g, CFG, n_starts=32, radius=2.0 * base.radius)
    assert base.degree == doubled.degree


def test_estimate_degree_matches_the_enumerator_on_public_functions():
    rng = np.random.default_rng(347)
    makers = (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec)
    for trial in range(6):
        n = int(rng.integers(2, 5))
        g = helpers.random_graph(rng, n)
        spec = makers[trial % len(makers)](rng, n)
        found, found_signs, found_runs = _enumerated(spec, g, 16)
        roots, signs, runs = helpers.enumerate_signed_roots_oracle(
            lambda u: residual(spec, g, u),
            lambda u: jacobian(spec, g, u),
            g.n,
            _apriori_box(spec, g).radius,
            CFG,
            16,
        )
        solutions, ordered = _canonical_order(roots, signs)
        assert [u.tobytes() for u in found] == [u.tobytes() for u in solutions]
        assert (found_signs, found_runs) == (ordered, runs)
        report = estimate_degree(spec, g, CFG, n_starts=16)
        _assert_degree_contract(spec, report, found, found_signs, found_runs)


def _differential_instances():
    """The six instances of the public-function test, plus four generalized n=2."""
    rng = np.random.default_rng(347)
    makers = (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec)
    for trial in range(6):
        n = int(rng.integers(2, 5))
        g = helpers.random_graph(rng, n)
        yield makers[trial % len(makers)](rng, n), g
    rng = np.random.default_rng(349)
    for _ in range(4):
        g = helpers.random_graph(rng, 2)
        yield helpers.generalized_spec(rng, 2), g


def test_estimate_degree_matches_the_enumerator_on_the_deflated_jacobian():
    # the enumerator before the step scale: every run factors the deflated
    # Jacobian and takes its sign from the undeflated one
    for spec, g in _differential_instances():
        found, found_signs, found_runs = _enumerated(spec, g, 16)
        fun, jac = _kernels(spec, g)
        roots, signs, runs = helpers.enumerate_signed_roots_oracle(
            fun,
            jac,
            g.n,
            _apriori_box(spec, g).radius,
            CFG,
            16,
            deflate=helpers.deflated_system_oracle,
            newton=partial(helpers.newton_system_oracle, sign_jac_fun=jac),
        )
        solutions, ordered = _canonical_order(roots, signs)
        assert (found_signs, found_runs) == (ordered, runs)
        assert len(found) == len(solutions)
        for u, v in zip(found, solutions):
            assert np.max(np.abs(u - v)) <= 1e-12
        report = estimate_degree(spec, g, CFG, n_starts=16)
        _assert_degree_contract(spec, report, found, found_signs, found_runs)


def test_merged_roots_warn_once_at_the_caller(monkeypatch):
    # a root closer than DEDUP_RADIUS to a known one is merged with a
    # warning; with no probing around roots, one of the two runs lands on it
    rng = np.random.default_rng(349)
    g = helpers.random_graph(rng, 2)
    spec = helpers.generalized_spec(rng, 2)
    first, second = estimate_degree(spec, g, CFG, n_starts=8).solutions
    gap = float(np.max(np.abs(first - second)))
    monkeypatch.setattr(degree, "DEDUP_RADIUS", 1.01 * gap)
    monkeypatch.setattr(degree, "_MAX_PROBED_ROOTS", 0)
    with pytest.warns(UserWarning) as caught:
        report = estimate_degree(spec, g, CFG, n_starts=2)
    assert len(caught) == 1 and len(report.solutions) == 1
    assert str(caught[0].message) == f"two roots within {gap:.2e} sup-distance merged"
    lines, first_line = inspect.getsourcelines(degree.estimate_degree)
    call = next(i for i, line in enumerate(lines) if "_enumerate_signed_roots(" in line)
    assert (caught[0].filename, caught[0].lineno) == (degree.__file__, first_line + call)


def _enumeration(enumerate_roots, spec, g, n_starts):
    """Root bytes, signs and runs, or the ``DegenerateRootError`` message; and every warning."""
    radius = _apriori_box(spec, g).radius
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            roots, signs, runs = enumerate_roots(spec, g, None, radius, CFG, n_starts)
            outcome = ([u.tobytes() for u in roots], signs, runs)
        except DegenerateRootError as exc:
            outcome = str(exc)
    return outcome, [(w.category, str(w.message)) for w in caught]


def _one_queue_matches_wave_blocks(spec, g, n_starts):
    queue = _enumeration(degree._enumerate_signed_roots, spec, g, n_starts)
    assert queue == _enumeration(helpers.enumerate_wave_blocks_oracle, spec, g, n_starts)
    return queue


def test_one_queue_enumerates_as_one_block_per_wave(monkeypatch):
    rng = np.random.default_rng(353)
    makers = (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec, helpers.mirror_spec)
    roots = 0
    for n in range(1, 9):
        for maker in makers:
            spec, g = maker(rng, n), helpers.random_graph(rng, n)
            roots += len(_one_queue_matches_wave_blocks(spec, g, 16)[0][0])
    assert roots > 64  # most instances have several roots, so probes queue up

    # a singular root stops both enumerations with the same error
    degenerate = _one_queue_matches_wave_blocks(constant_spec(Kind.GENERALIZED, 2, 1.0, 3.0), helpers.k2(), 8)
    assert isinstance(degenerate[0], str)

    # roots merged by a widened dedup radius, found by wave one and by probes
    rng = np.random.default_rng(349)
    g = helpers.random_graph(rng, 2)
    spec = helpers.generalized_spec(rng, 2)
    first, second = estimate_degree(spec, g, CFG, n_starts=8).solutions
    monkeypatch.setattr(degree, "DEDUP_RADIUS", 1.01 * float(np.max(np.abs(first - second))))
    merged = _one_queue_matches_wave_blocks(spec, g, 8)[1]
    assert len(merged) > 1 and all("merged" in message for _, message in merged)


def test_one_queue_screens_with_fewer_lockstep_iterations(monkeypatch):
    rng = np.random.default_rng(359)
    g = helpers.random_graph(rng, 4)
    spec = helpers.classic_spec(rng, 4)
    radius = _apriori_box(spec, g).radius
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    kernels = degree._kernels

    def counted_kernels(*args):
        fun, jac = kernels(*args)

        def jac_counted(u):  # a Jacobian on a block is one lockstep iteration
            calls["lockstep iterations"] += u.ndim == 2
            return jac(u)

        return fun, jac_counted

    monkeypatch.setattr(degree, "_kernels", counted_kernels)
    monkeypatch.setattr(degree, "_newton_system", counted("certifications", degree._newton_system))
    monkeypatch.setattr(degree, "_newton_block", counted("screens", degree._newton_block))
    found = degree._enumerate_signed_roots(spec, g, None, radius, CFG, 48)
    queue = calls.copy()
    calls.clear()
    block = counted("screens", helpers.newton_block_oracle)
    expected = helpers.enumerate_wave_blocks_oracle(spec, g, None, radius, CFG, 48, block=block)
    assert [u.tobytes() for u in found[0]] == [u.tobytes() for u in expected[0]]
    assert found[1:] == expected[1:]
    assert queue["certifications"] == calls["certifications"] > 0
    assert queue["screens"] < calls["screens"]
    assert queue["lockstep iterations"] < calls["lockstep iterations"]


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_search_radius_must_be_finite_and_positive(radius):
    g = helpers.k2()
    for h2 in (-1.0, 1.0):  # searched, and short-circuited by the obstruction
        with pytest.raises(SpecValidationError):
            estimate_degree(constant_spec(Kind.CLASSIC, 2, 1.0, h2), g, CFG, radius=radius)


@pytest.mark.parametrize("n_starts", [0, -5])
def test_search_needs_a_start(n_starts):
    g = helpers.k2()
    spec = constant_spec(Kind.CLASSIC, 2, 1.0, -1.0)
    with pytest.raises(SpecValidationError):
        estimate_degree(spec, g, CFG, n_starts=n_starts)
    with pytest.raises(SpecValidationError):
        verify_homotopy_invariance(spec, g, CFG, n_starts=n_starts)


@pytest.mark.parametrize("t_values", [(), (-0.5, 0.0), (0.0, 1.5), (math.nan,)])
@pytest.mark.parametrize("kind", [Kind.CLASSIC, Kind.GENERALIZED])
def test_homotopy_t_grid_is_checked_before_any_degree(monkeypatch, kind, t_values):
    calls = []
    monkeypatch.setattr(degree, "_enumerate_signed_roots", lambda *args: calls.append(args))
    spec = constant_spec(kind, 2, 1.0, -1.0 if kind is Kind.CLASSIC else 1.0)
    with pytest.raises(SpecValidationError):
        verify_homotopy_invariance(spec, helpers.k2(), CFG, t_values=t_values, n_starts=8)
    assert not calls


def test_degenerate_root_raises():
    # on unit-weight K2, A*h1 - B*h2 = -2 exactly cancels lambda1 = 2, so the
    # Jacobian at the zero root is singular
    g = helpers.k2()
    spec = constant_spec(Kind.GENERALIZED, 2, 1.0, 3.0)
    with pytest.raises(DegenerateRootError):
        estimate_degree(spec, g, CFG, n_starts=8)


def test_scalar_double_root_raises():
    # A h1 = B h2: the generalized term h e^{u} (e^{u} - 1) + h e^{-u} (e^{-u} - 1)
    # vanishes to second order at 0, a root of even multiplicity
    spec = constant_spec(Kind.GENERALIZED, 1, 1.0, 1.0)
    with pytest.raises(DegenerateRootError, match="scalar root 0 has derivative below"):
        degree_single_vertex(spec)


def test_homotopy_invariance_needs_the_t_uniform_ball():
    g = helpers.k2()
    for h2 in ([1.0, 0.0], [1.0, -0.5]):
        spec = ProblemSpec(Kind.GENERALIZED, np.ones(2), np.array(h2), 1.0, 1.0)
        with pytest.raises(BoundsInapplicableError, match="generalized bounds require h2 > 0"):
            verify_homotopy_invariance(spec, g, CFG, n_starts=8)


def test_mixed_sign_h2_needs_explicit_radius():
    g = helpers.k2()
    spec = ProblemSpec(Kind.CLASSIC, np.ones(2), np.array([-1.0, 0.5]), 1.0, 1.0)
    with pytest.raises(BoundsInapplicableError):
        estimate_degree(spec, g, CFG)
    report = estimate_degree(spec, g, CFG, n_starts=16, radius=3.0)
    assert report.radius == 3.0


# ---------------------------------------------------------------------------
# single-vertex exhaustive enumeration


def test_scalar_classic_monotone_root():
    spec = constant_spec(Kind.CLASSIC, 1, 1.0, -1.0)
    report = degree_single_vertex(spec)
    assert report.degree == 1
    assert len(report.solutions) == 1
    assert abs(report.solutions[0][0]) < 1e-10
    assert report.exhaustive_confidence is Confidence.PROVEN


def test_scalar_generalized_two_roots_cancel():
    spec = constant_spec(Kind.GENERALIZED, 1, 1.0, 3.0)
    report = degree_single_vertex(spec)
    roots = sorted(float(r[0]) for r in report.solutions)
    assert len(roots) == 2
    assert abs(roots[0]) < 1e-10
    assert roots[1] == pytest.approx(math.log(3.0) / 3.0, abs=1e-9)
    assert report.degree == 0


def test_scalar_scan_reports_the_generalized_zero_root_as_zero():
    # 0 solves the generalized kind identically; before it was a scan point the
    # first spec listed it as -2.104600847249108e-64, the end of a bisection
    rng = np.random.default_rng(401)
    specs = [constant_spec(Kind.GENERALIZED, 1, 1.3, 0.7, A=1.2, B=0.9)]
    specs += [make(rng, 1) for make in (helpers.generalized_spec, helpers.branch1_spec, helpers.mirror_spec) * 20]
    for spec in specs:
        near_zero = [u.tobytes() for u in degree_single_vertex(spec).solutions if abs(u[0]) < 1e-9]
        assert near_zero == [np.zeros(1).tobytes()]


def test_scalar_classic_positive_h2_no_roots():
    spec = constant_spec(Kind.CLASSIC, 1, 1.0, 1.0)
    report = degree_single_vertex(spec)
    assert report.degree == 0
    assert report.solutions == ()


def test_scalar_agreement_heuristic_vs_proven():
    rng = np.random.default_rng(347)
    g1 = helpers.build_graph({"ids": ["o"], "mu": [float(rng.uniform(0.5, 2.0))], "edges": []})
    for trial in range(200):
        if trial % 2 == 0:
            spec = helpers.classic_spec(rng, 1)
        else:
            spec = helpers.generalized_spec(rng, 1)
        assert sum(_enumerated(spec, g1, 6)[1]) == degree_single_vertex(spec).degree


def test_one_vertex_degree_is_the_scalar_scan_in_the_default_ball():
    rng = np.random.default_rng(397)
    g1 = helpers.build_graph({"ids": ["o"], "mu": [1.7], "edges": []})
    for maker in (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec):
        spec = maker(rng, 1)
        report, scan = estimate_degree(spec, g1, CFG, n_starts=6), degree_single_vertex(spec)
        assert [u.tobytes() for u in report.solutions] == [u.tobytes() for u in scan.solutions]
        assert (report.signs, report.degree, report.radius, report.starts_used) == (
            scan.signs, scan.degree, scan.radius, 0)
        assert report.exhaustive_confidence is Confidence.PROVEN
    given = estimate_degree(spec, g1, CFG, n_starts=6, radius=scan.radius)
    assert given.exhaustive_confidence is Confidence.HEURISTIC and given.starts_used > 1


def scalar_differential_specs():
    """The ensemble of the test above, then classic instances whose scan leaves the exponent range."""
    rng = np.random.default_rng(347)
    rng.uniform(0.5, 2.0)  # the measure of the one-vertex graph
    for trial in range(200):
        yield helpers.classic_spec(rng, 1) if trial % 2 == 0 else helpers.generalized_spec(rng, 1)
    for B in (700.0, 800.0, 1500.0):
        yield constant_spec(Kind.CLASSIC, 1, 1.0, -1.0, B=B)


def test_scalar_roots_match_the_one_bracket_at_a_time_oracle():
    for spec in scalar_differential_specs():
        report, oracle = degree_single_vertex(spec), helpers.degree_single_vertex_oracle(spec)
        assert report.signs == oracle.signs and report.degree == oracle.degree
        roots, expected = np.concatenate(report.solutions), np.concatenate(oracle.solutions)
        assert np.all(np.abs(roots - expected) <= 1e-13)


# ---------------------------------------------------------------------------
# homotopy invariance


def test_homotopy_invariance_classic():
    rng = np.random.default_rng(349)
    g = helpers.random_graph(rng, 3)
    spec = helpers.classic_spec(rng, 3)
    assert verify_homotopy_invariance(spec, g, CFG, n_starts=24)


def test_homotopy_invariance_generalized():
    rng = np.random.default_rng(353)
    g = helpers.random_graph(rng, 3)
    spec = helpers.generalized_spec(rng, 3)
    assert verify_homotopy_invariance(spec, g, CFG, n_starts=32)


def test_homotopy_invariance_single_vertex_matches_proven():
    rng = np.random.default_rng(359)
    g1 = helpers.build_graph({"ids": ["o"], "mu": [1.3], "edges": []})
    spec = helpers.generalized_spec(rng, 1)
    assert verify_homotopy_invariance(spec, g1, CFG, n_starts=16)
    assert estimate_degree(spec, g1, CFG, n_starts=16).degree == degree_single_vertex(spec).degree


def test_one_vertex_homotopy_degrees_scan_the_members_without_newton(monkeypatch):
    def no_newton(*args, **kwargs):
        raise AssertionError("a one-vertex audit ran Newton")

    scans, scalar_roots = [], degree._scalar_roots

    def recorded(*args):
        scans.append(scalar_roots(*args))
        return scans[-1]

    monkeypatch.setattr(degree, "_enumerate_signed_roots", no_newton)
    monkeypatch.setattr(degree, "_newton_system", no_newton)
    monkeypatch.setattr(degree, "_scalar_roots", recorded)
    rng = np.random.default_rng(367)
    makers = (helpers.classic_spec, helpers.generalized_spec, helpers.branch1_spec)
    for trial in range(300):
        # the last bits of the generalized box, and so of the roots, can depend on the measure
        g1 = helpers.build_graph({"ids": ["o"], "mu": [float(rng.uniform(0.1, 10.0))], "edges": []})
        classic = trial % 3 == 0
        spec = makers[trial % 3](rng, 1)
        # the undeformed member first: t = 0 on the classic kind, t = 1 on the generalized one,
        # whose t = 0 member has no zero and is not scanned
        scans.clear()
        degrees = degree._homotopy_degrees(spec, g1, CFG, (0.0, 0.5, 1.0) if classic else (1.0, 0.5, 0.0), 8)
        assert len(scans) == (3 if classic else 2)
        (roots, signs, box), report = scans[0], degree_single_vertex(spec)
        assert degrees == [report.degree] * 3 and sum(signs) == report.degree and box.radius == report.radius
        assert [np.array([r]).tobytes() for r in roots] == [u.tobytes() for u in report.solutions]


def test_each_root_queues_its_probes_along_the_offset_oracle_bitwise(monkeypatch):
    # the first start passes and every later one fails, so the second block the enumerator
    # screens holds the other starts, then the root's probes in the order they were queued
    blocks = []

    def screen(fun, jac, starts, cfg, known, escape, lanes):
        blocks.append(starts)
        passed = np.array([True]) if len(blocks) == 1 else np.zeros(len(starts), dtype=bool)
        return starts[: len(passed)], np.zeros(len(passed), dtype=int), passed

    monkeypatch.setattr(degree, "_newton_block", screen)
    rng = np.random.default_rng(359)
    n_starts = 8
    for dim in [*range(1, 65), 100, 200]:
        g = helpers.random_graph(rng, dim, extra_edge_prob=0.0)
        spec = helpers.classic_spec(rng, dim)
        radius = _apriori_box(spec, g).radius
        blocks.clear()
        (root,), _, _ = degree._enumerate_signed_roots(spec, g, None, radius, CFG, n_starts)
        offsets = helpers.probe_offsets_oracle(dim)
        want = np.array([root + s * radius * o for s in degree._PROBE_SCALES for o in offsets])
        assert blocks[1][n_starts - 1 : n_starts - 1 + len(want)].tobytes() == want.tobytes(), dim


@pytest.mark.parametrize("n", [2, 3])
def test_classic_degree_stays_proven_when_the_run_from_zero_fails(n):
    # the root sits at log(1e60) / 2 ~ 69.08 on every vertex; from 0 Newton takes about one
    # unit step an iteration, and enumeration runs stop after 60
    g = WeightedGraph(range(n), np.ones(n), [(i, i + 1, 1.0) for i in range(n - 1)])
    spec = constant_spec(Kind.CLASSIC, n, 1e-30, -1e30)
    report = estimate_degree(spec, g, CFG)
    assert report.degree == 1 and report.exhaustive_confidence is Confidence.HEURISTIC
    assert report.enumerated_degree == sum(report.signs) and report.starts_used == 64
    # a given radius has no proof behind it and keeps the signed count
    given = estimate_degree(spec, g, CFG, radius=100.0)
    assert given.degree == given.enumerated_degree == sum(given.signs)

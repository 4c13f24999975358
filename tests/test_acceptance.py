"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE <n> PASS`` line on success (visible
with ``pytest -s`` or in captured output).  Ensembles are seeded, so the
suite is deterministic run to run.
"""

import json
import math

import numpy as np
import pytest

import helpers
from tzgraph import (
    Confidence,
    ContinuationBrokenError,
    Kind,
    ProblemSpec,
    SolverConfig,
    bounds_classic,
    bounds_generalized,
    choose_barriers,
    continuation,
    default_t_grid,
    degree_single_vertex,
    elliptic_constant,
    energy,
    energy_gradient,
    estimate_degree,
    find_two_solutions,
    integrate,
    laplacian,
    minimize_box,
    newton,
    residual,
)
from tzgraph import degree as degree_module
from tzgraph.cli import main
from tzgraph.estimates import _apriori_box

CFG = SolverConfig()


def constant_spec(kind, n, h1, h2, A=1.0, B=1.0):
    return ProblemSpec(kind, np.full(n, h1), np.full(n, h2), A, B)


def write_graph(tmp_path, g, h1, h2, name="g.graph"):
    lines = [
        f"vertex {label} {float(g.mu[i])!r} {float(h1[i])!r} {float(h2[i])!r}"
        for i, label in enumerate(g.vertex_ids)
    ]
    lines += [
        f"edge {g.vertex_ids[i]} {g.vertex_ids[j]} {float(w)!r}"
        for i, j, w in zip(g.edge_tail, g.edge_head, g.edge_weight)
    ]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_criterion_1_existence_branch():
    """Classic equation with h2 < 0: continuation converges, the solution
    obeys the a priori box, and the estimated degree is 1."""
    rng = np.random.default_rng(1001)
    trials = 50
    for trial in range(trials):
        n = int(rng.integers(2, 9))
        g = helpers.random_graph(rng, n)
        spec = helpers.classic_spec(rng, n)
        box = bounds_classic(spec)

        reports = continuation(spec, g, default_t_grid(), CFG)
        final = reports[-1]
        assert final.converged and final.residual_norm < 1e-10
        assert box.contains(final.solution, slack=1e-8)

        degree = estimate_degree(spec, g, CFG, n_starts=24).degree
        assert degree == 1, f"trial {trial}: degree {degree} != 1"
    print(f"\nACCEPTANCE 1 PASS: existence branch over {trials} classic instances "
          "(residual < 1e-10, box containment, degree 1)")


def test_criterion_2_nonexistence_branch(tmp_path):
    """Classic equation with h2 > 0: positive residual integral for every
    field, reported degree 0, and the documented no-solution exit."""
    rng = np.random.default_rng(1002)
    trials = 50
    for trial in range(trials):
        n = int(rng.integers(2, 9))
        g = helpers.random_graph(rng, n)
        spec = helpers.classic_positive_spec(rng, n)

        for _ in range(100):
            u = rng.normal(0.0, 1.2, n)
            assert integrate(g, residual(spec, g, u)) > 0.0

        report = estimate_degree(spec, g, CFG)
        assert report.degree == 0 and report.solutions == ()

        path = write_graph(tmp_path, g, spec.h1, spec.h2, f"c2_{trial}.graph")
        code = main(
            ["solve", path, "--equation", "classic",
             "--A", repr(spec.A), "--B", repr(spec.B), "--no-timestamp"]
        )
        assert code == 3
    print(f"\nACCEPTANCE 2 PASS: non-existence branch over {trials} instances "
          "(obstruction positive on 100 fields each, degree 0, exit code 3)")


def test_criterion_3_generalized_degree_zero():
    """Generalized equation with positive coefficients: estimated degree 0
    on multi-vertex graphs, confirmed exactly by scalar enumeration on
    single-vertex instances."""
    rng = np.random.default_rng(1003)
    multi = 20
    for trial in range(multi):
        n = int(rng.integers(2, 7))
        g = helpers.random_graph(rng, n)
        spec = helpers.generalized_spec(rng, n)
        degree = estimate_degree(spec, g, CFG, n_starts=48).degree
        assert degree == 0, f"trial {trial}: degree {degree} != 0"

    scalar = 50
    for _ in range(scalar):
        spec = helpers.generalized_spec(rng, 1)
        report = degree_single_vertex(spec)
        assert report.exhaustive_confidence is Confidence.PROVEN
        assert sum(report.signs) == 0
    print(f"\nACCEPTANCE 3 PASS: degree 0 on {multi} multi-vertex generalized "
          f"instances; proven signed root sum 0 on {scalar} scalar instances")


def test_criterion_4_multiplicity():
    """Two solutions under either hypothesis: zero plus a one-signed
    solution strictly inside the barrier box (or its mirror)."""
    rng = np.random.default_rng(1004)
    per_branch = 20
    for maker, side in ((helpers.branch1_spec, 1), (helpers.mirror_spec, -1)):
        for trial in range(per_branch):
            n = int(rng.integers(2, 7))
            # the mirrored pointwise sandwich of the negative solution holds
            # when graph coupling dominates the coefficient variation, so the
            # negative-branch ensemble draws strongly coupled graphs
            weights = (4.0, 12.0) if side == -1 else (0.5, 2.0)
            g = helpers.build_graph(
                helpers.random_graph_data(rng, n, weight_range=weights)
            )
            spec = maker(rng, n)
            zero_report, second = find_two_solutions(spec, g, CFG)
            barriers = choose_barriers(spec, g)
            assert barriers.side == side
            lo, hi = barriers.box()

            separation = float(np.max(np.abs(second.solution - zero_report.solution)))
            assert separation > 1e-3
            assert float(np.max(np.abs(zero_report.solution))) <= 1e-10
            if side == 1:
                assert np.all(second.solution > 0.0)
            else:
                assert np.all(second.solution < 0.0)
            assert np.all(second.solution > lo) and np.all(second.solution < hi)
    print(f"\nACCEPTANCE 4 PASS: two solutions on {per_branch}+{per_branch} "
          "instances (separation > 1e-3, zero root, one-signed interior root)")


def test_criterion_5_elliptic_estimate():
    """Oscillation bound max(u)-min(u) <= C ||lap(u)||_inf with the
    closed-form constant; tight with ratio 1 on unit K2."""
    rng = np.random.default_rng(1005)
    pairs = 500
    violations = 0
    for _ in range(pairs):
        n = int(rng.integers(2, 13))
        g = helpers.random_graph(rng, n)
        c = elliptic_constant(g)
        u = rng.normal(0.0, rng.uniform(0.2, 3.0), n)
        spread = float(u.max() - u.min())
        if spread > c * float(np.max(np.abs(laplacian(g, u)))) + 1e-12:
            violations += 1
    assert violations == 0

    g = helpers.k2()
    u = np.array([0.0, 1.0])
    ratio = (u.max() - u.min()) / (
        elliptic_constant(g) * float(np.max(np.abs(laplacian(g, u))))
    )
    assert abs(ratio - 1.0) <= 1e-12
    print(f"\nACCEPTANCE 5 PASS: elliptic estimate on {pairs} random pairs, "
          "0 violations; K2 bound attained with ratio 1")


def test_criterion_6_homotopy_uniform_bounds():
    """Every solved stage of the generalized continuation stays inside the
    single t-uniform box; the path must break before t = 0."""
    rng = np.random.default_rng(1006)
    trials = 12
    stages_audited = 0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        g = helpers.random_graph(rng, n)
        spec = helpers.generalized_spec(rng, n)
        box = bounds_generalized(spec, g)
        with pytest.raises(ContinuationBrokenError) as info:
            continuation(spec, g, default_t_grid(11), CFG)
        for report in info.value.reports:
            assert report.converged
            assert box.contains(report.solution, slack=1e-8)
            stages_audited += 1
        assert info.value.reports, "the t=1 stage must solve"
    print(f"\nACCEPTANCE 6 PASS: {stages_audited} continuation stages across "
          f"{trials} instances all inside the t-uniform box; 0 violations")


def test_criterion_7_variational_identity():
    """Finite differences of the energy reproduce its gradient to 1e-5,
    and the box minimization never increases the energy."""
    rng = np.random.default_rng(1007)
    instances = 6
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 7))
        g = helpers.random_graph(rng, n)
        spec = helpers.generalized_spec(rng, n)
        for _ in range(50):
            u = rng.normal(0.0, 0.5, n)
            fd = helpers.fd_gradient(lambda v: energy(spec, g, v), u, tau=1e-6) / g.mu
            grad = energy_gradient(spec, g, u)
            worst = max(
                worst, float(np.max(np.abs(fd - grad))) / max(float(np.max(np.abs(grad))), 1e-8)
            )
    assert worst <= 1e-5

    monotone_checked = 0
    for _ in range(6):
        n = int(rng.integers(2, 6))
        g = helpers.random_graph(rng, n)
        spec = helpers.branch1_spec(rng, n)
        report = minimize_box(spec, g, choose_barriers(spec, g), CFG)
        assert report.converged
        energies = report.energy_history
        tolerance = 5e-13 * (1.0 + abs(energies[0]))
        assert all(b <= a + tolerance for a, b in zip(energies, energies[1:]))
        monotone_checked += len(energies)
    print(f"\nACCEPTANCE 7 PASS: energy gradient matches finite differences "
          f"(worst rel err {worst:.2e} <= 1e-5); {monotone_checked} accepted "
          "minimization steps monotone")


def test_criterion_8_oracle_equivalence():
    """Constant-coefficient and single-vertex instances agree with the
    independent scalar bisection oracles and exhaustive enumeration."""
    rng = np.random.default_rng(1008)

    # classic, constant coefficients: Newton vs scalar bisection
    for _ in range(8):
        n = int(rng.integers(2, 7))
        g = helpers.random_graph(rng, n)
        h1, h2 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2.0, -0.5))
        A, B = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        spec = constant_spec(Kind.CLASSIC, n, h1, h2, A, B)
        report = newton(spec, g, np.zeros(n), CFG)
        assert report.converged
        root = helpers.bisect_root(lambda c: helpers.pointwise_value(spec, 0, c), -20.0, 20.0)
        assert float(np.max(np.abs(report.solution - root))) <= 1e-6

    # generalized, constant coefficients: box minimizer vs scalar root
    for _ in range(8):
        n = int(rng.integers(2, 6))
        g = helpers.random_graph(rng, n)
        h1, h2 = float(rng.uniform(0.5, 1.0)), float(rng.uniform(2.5, 4.0))
        spec = constant_spec(Kind.GENERALIZED, n, h1, h2)
        barriers = choose_barriers(spec, g)
        report = minimize_box(spec, g, barriers, CFG)
        assert report.converged
        root = helpers.constant_root_oracle(spec, barriers.delta, barriers.beta)
        assert float(np.max(np.abs(report.solution - root))) <= 1e-6

    # degree: the multi-start enumerator's signed count vs proven scalar enumeration
    agreements = 0
    for trial in range(40):
        maker = helpers.classic_spec if trial % 2 == 0 else helpers.generalized_spec
        spec = maker(rng, 1)
        g1 = helpers.build_graph(
            {"ids": ["o"], "mu": [float(rng.uniform(0.5, 2.0))], "edges": []}
        )
        radius = _apriori_box(spec, g1).radius
        signs = degree_module._enumerate_signed_roots(spec, g1, None, radius, CFG, 6)[1]
        assert sum(signs) == degree_single_vertex(spec).degree
        agreements += 1
    print(f"\nACCEPTANCE 8 PASS: solver/oracle agreement to 1e-6 on 16 "
          f"constant-coefficient instances; degree agreement on {agreements} "
          "scalar instances")


def test_criterion_9_determinism_and_robustness(tmp_path, capsys):
    """Byte-identical reports for fixed seeds; 1000 fuzzed malformed files
    all yield located validation errors and exit code 2."""
    rng = np.random.default_rng(1009)
    g = helpers.random_graph(rng, 5)
    spec = helpers.classic_spec(rng, 5)
    path = write_graph(tmp_path, g, spec.h1, spec.h2)
    for command in ("solve", "degree", "bounds", "check"):
        argv = [
            command, path, "--equation", "classic",
            "--A", repr(spec.A), "--B", repr(spec.B),
            "--seed", "11", "--starts", "16", "--no-timestamp",
        ]
        outs = []
        for _ in range(2):
            code = main(argv)
            outs.append(capsys.readouterr().out.encode())
            assert code == 0
        assert outs[0] == outs[1], f"{command} output not byte-identical"

    fuzz_total = 1000
    for trial in range(fuzz_total):
        text = helpers.MALFORMED_MAKERS[trial % len(helpers.MALFORMED_MAKERS)](rng)
        fuzz_path = tmp_path / f"fuzz{trial}.graph"
        fuzz_path.write_text(text)
        code = main(
            ["degree", str(fuzz_path), "--equation", "classic", "--A", "1", "--B", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2, f"fuzz {trial}: expected exit 2, got {code}"
        assert err.startswith("error: validation:")
    print(f"\nACCEPTANCE 9 PASS: byte-identical reports for 4 commands; "
          f"{fuzz_total} fuzzed files all exit 2 with located errors")

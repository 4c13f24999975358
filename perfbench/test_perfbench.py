"""Self-tests of the benchmark: tracing is exact, transparent and removable."""

import importlib
import math

import pytest

import gen
import run
import tracing
import workloads
from workloads import Command

# one command of every kind, small enough to run in a few seconds
MIX = (
    ("degree", "classic-neg", 2),
    ("degree", "generalized", 2),
    ("check", "classic-neg", 2),
    ("solve", "classic-neg", 4),
    ("solve", "classic-pos", 4),
    ("bounds", "generalized", 4),
    ("multiplicity", "branch1", 4),
    ("multiplicity", "mirror", 4),
)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Commands, instance paths, an untraced pass and two traced passes."""
    directory = tmp_path_factory.mktemp("instances")
    cmds = [Command(kind, gen.make_instance(family, n, seed=7)) for kind, family, n in MIX]
    paths = {c.instance.name: gen.write_instance(c.instance, directory) for c in cmds}
    argvs = [c.argv(paths[c.instance.name]) for c in cmds]
    traced = []
    for _ in range(2):
        tracer = tracing.Tracer()
        plain, traced_pass = run.run_paired(argvs, tracer)
        traced.append((tracer, traced_pass))
    return cmds, paths, plain, traced


def test_answers_are_right(passes):
    cmds, paths, plain, _ = passes
    assert workloads.check_answers(cmds, paths, plain.outcomes) == [None] * len(cmds)


def test_counters_repeat_exactly(passes):
    (first, _), (second, _) = passes[3]
    assert first.counts == second.counts
    assert first.counts["degree.enumerate.runs"] > 0
    assert first.counts["degree.enumerate.roots"] > 0
    assert first.counts["solvers.newton.exit.converged"] > 0


def test_traced_reports_are_byte_identical(passes):
    _, _, plain, traced = passes
    for _, traced_pass in traced:
        assert traced_pass.outcomes == plain.outcomes


def test_self_time_within_wall_time(passes):
    for tracer, traced_pass in passes[3]:
        assert all(0.0 <= t <= traced_pass.wall for t in tracer.self_time.values())
        assert sum(tracer.self_time.values()) <= traced_pass.wall


def test_uninstall_restores_every_binding():
    names = ("tzgraph", *(f"tzgraph.{m}" for m in tracing.MODULES))
    modules = {name: importlib.import_module(name) for name in names}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    graph_cls = modules["tzgraph.graphs"].WeightedGraph
    graph_init = graph_cls.__init__
    with tracing.Tracer():
        model = modules["tzgraph.model"]
        assert model.residual is not before["tzgraph.model"]["residual"]
        assert modules["tzgraph.cli"].residual is model.residual
        assert modules["tzgraph.solvers"].residual is model.residual
    assert {name: dict(vars(m)) for name, m in modules.items()} == before
    assert graph_cls.__init__ is graph_init


def test_wrong_answers_are_counted(passes):
    cmds, paths, plain, _ = passes
    outcomes = list(plain.outcomes)
    code, out, err = outcomes[0]
    outcomes[0] = (code, out.replace('"degree":1', '"degree":-1'), err)
    outcomes[4] = (0, outcomes[3][1], "")  # the obstruction must exit 3
    outcomes[5] = (0, "Traceback", "")
    verdicts = workloads.check_answers(cmds, paths, outcomes)
    assert None not in (verdicts[0], verdicts[4], verdicts[5])
    assert verdicts[1:4] == [None] * 3


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in (20, 36, 560, 5600):
        p = run.tail_percentile(count)
        assert count - math.ceil(p / 100 * count) >= 10
    assert run.tail_percentile(14) == 50


def test_times_scale_with_the_host_speed_factor(passes):
    cmds, _, plain, _ = passes
    base = run.time_metrics(cmds, [plain, plain], [0.5, 0.25, 1.0], 1.0)
    doubled = run.time_metrics(cmds, [plain, plain], [0.5, 0.25, 1.0], 2.0)
    assert base["setup_s"][0] == 0.5
    for name in ("setup_s", "cmd_p50_ms", "cmd_tail_ms"):
        assert doubled[name][0] == pytest.approx(2.0 * base[name][0])
    assert doubled["cmds_per_s"][0] == pytest.approx(base["cmds_per_s"][0] / 2.0)


def test_host_speed_samples_at_most_every_interval(monkeypatch):
    monkeypatch.setattr(run, "reference_loop", lambda: run.REFERENCE_NOMINAL_S / 2.0)
    host = run.HostSpeed()
    host.sample()
    host.sample()
    assert len(host.samples) == 1
    assert host.factor == pytest.approx(2.0)

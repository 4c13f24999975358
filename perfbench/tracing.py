"""Per-layer tracing of tzgraph, installed from outside the package.

The package imports names by value across modules (``from .model import
residual`` appears in ``solvers``, ``degree`` and ``cli``), so a wrapper
only takes effect if every module-level reference to the original
function is rebound.  :meth:`Tracer.install` scans every ``tzgraph``
module for such references and :meth:`Tracer.uninstall` restores them.

Layers are the package's modules.  A span records name, start, end and
the span that caused it; a layer's self time is its span time minus the
time of its child spans.  Hot leaf calls (model, linalg, deflation) are
kept as one aggregate record per (parent span, name) instead of one
record each, which bounds memory on the enumeration workload.

The only private binding wrapped is ``_newton_system``, the damped-Newton
core: every Newton run enters there, including the enumerator's, which no
public function exposes.  Runs entered through the binding in ``degree``
are the enumerator's and get the span ``degree.enumerate``; all others
get ``solvers.newton``.  The system callables a run receives are wrapped
too, which counts residual and Jacobian evaluations per run and, for a
deflated system, times the deflation around the undeflated evaluation.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "graphs", "estimates", "model", "linalg", "solvers", "degree")

# (module, function, span name, leaf)
SPANS = (
    ("cli", "main", "cli.main", False),
    ("cli", "parse_graph", "cli.parse_graph", False),
    ("cli", "canonical_json", "cli.render", False),
    ("cli", "canonical_text", "cli.render", False),
    ("graphs", "graph_constants", "graphs.graph_constants", False),
    ("graphs", "laplacian_matrix", "graphs.laplacian_matrix", False),
    ("estimates", "bounds_classic", "estimates.bounds", False),
    ("estimates", "bounds_generalized", "estimates.bounds", False),
    ("estimates", "elliptic_constant", "estimates.elliptic_constant", False),
    ("model", "residual", "model.residual", True),
    ("model", "jacobian", "model.jacobian", True),
    ("model", "residual_homotopy", "model.residual_homotopy", True),
    ("model", "jacobian_homotopy", "model.jacobian_homotopy", True),
    ("model", "energy", "model.energy", True),
    ("linalg", "lu_solve", "linalg.lu_solve", True),
    ("linalg", "det_sign", "linalg.det_sign", True),
    ("linalg", "halton_ball", "linalg.halton_ball", False),
    ("solvers", "find_two_solutions", "solvers.find_two_solutions", False),
    ("solvers", "choose_barriers", "solvers.barriers", False),
    ("degree", "estimate_degree", "degree.estimate_degree", False),
    ("degree", "verify_homotopy_invariance", "degree.homotopy_invariance", False),
)


class Tracer:
    """Spans and work counters for one or more traced passes."""

    def __init__(self):
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # finished spans: (command, name, start, end, parent id); a None
        # entry is a span still open
        self.spans: list[tuple | None] = []
        # hot leaf spans, folded per nearest full span:
        # (command, parent id, name) -> [calls, total, self]
        self.leaves: defaultdict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.command = 0
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._saved: list[tuple[object, str, object]] = []
        self._factor_singular = False
        self._enum_fun = None
        self._enum_known: list | None = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, leaf: bool) -> None:
        if leaf:
            # a folded leaf is attributed to the nearest enclosing full span
            span_id = self._stack[-1][3] if self._stack else -1
        else:
            span_id = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, time.perf_counter(), 0.0, span_id])

    def _exit(self, leaf: bool) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        own = duration - child
        self.self_time[name] += own
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        parent_id = parent[3] if parent is not None else -1
        if leaf:
            record = self.leaves[(self.command, parent_id, name)]
            record[0] += 1
            record[1] += duration
            record[2] += own
        else:
            self.spans[span_id] = (self.command, name, start, end, parent_id)

    def _span(self, name: str, fn, leaf: bool, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            tracer._enter(name, leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(leaf)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- the Newton core -------------------------------------------------------

    def _system(self, fn, counter: str, deflated: bool):
        """A run's residual or Jacobian callable, counted and, if deflated, timed."""
        tracer = self
        counts = self.counts

        def wrapper(u):
            counts[counter] += 1
            if not deflated:
                return fn(u)
            tracer._enter("solvers.deflation", True)
            try:
                return fn(u)
            finally:
                tracer._exit(True)

        return wrapper

    def _newton(self, fn, span_name: str):
        tracer = self
        counts = self.counts
        enumerator = span_name == "degree.enumerate"

        @functools.wraps(fn)
        def wrapper(fun, jac_fun, start, cfg, **kwargs):
            true_fun = kwargs.get("true_fun")
            deflated = true_fun is not None and fun is not true_fun
            if enumerator:
                tracer._track_enumeration(fun, true_fun, deflated)
            tracer._factor_singular = False
            tracer._enter(span_name, False)
            try:
                report = fn(
                    tracer._system(fun, "solvers.newton.residuals", deflated),
                    tracer._system(jac_fun, "solvers.newton.jacobians", deflated),
                    start,
                    cfg,
                    **kwargs,
                )
            finally:
                tracer._exit(False)
            counts["solvers.newton.runs"] += 1
            if enumerator:
                counts["degree.enumerate.runs"] += 1
            counts["solvers.newton.iterations"] += report.iterations
            if report.converged:
                exit_reason = "converged"
            elif tracer._factor_singular or report.residual_norm < cfg.tol:
                exit_reason = "singular"
            elif report.iterations >= cfg.max_iter:
                exit_reason = "budget"
            else:
                exit_reason = "other"
            counts["solvers.newton.exit." + exit_reason] += 1
            return report

        return wrapper

    def _track_enumeration(self, fun, true_fun, deflated: bool) -> None:
        """Roots of an enumeration: the length of its deflation list at the end.

        All runs of one enumeration share the undeflated residual callable,
        and a deflated system closes over the enumerator's list of accepted
        roots, which the enumerator extends in place.
        """
        if true_fun is not self._enum_fun:
            self.end_enumeration()
            self._enum_fun = true_fun
        if deflated:
            cells = dict(zip(fun.__code__.co_freevars, fun.__closure__ or ()))
            if "known" in cells:
                self._enum_known = cells["known"].cell_contents

    def end_enumeration(self) -> None:
        if self._enum_known is not None:
            self.counts["degree.enumerate.roots"] += len(self._enum_known)
        self._enum_fun = None
        self._enum_known = None

    def _on_factor(self, factors) -> None:
        self._factor_singular = bool(factors.singular)
        if factors.singular:
            self.counts["linalg.singular"] += 1

    def _on_minimize(self, report) -> None:
        self.counts["solvers.minimize_box.steps"] += report.iterations

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"tzgraph.{name}") for name in MODULES}
        everywhere = [importlib.import_module("tzgraph"), *modules.values()]
        # keyed by id of the original, which each wrapper keeps alive
        wrappers: dict[int, object] = {}
        for module, attr, name, leaf in SPANS:
            original = getattr(modules[module], attr)
            wrappers[id(original)] = self._span(name, original, leaf)
        as_field = modules["graphs"].as_field
        wrappers[id(as_field)] = self._counted("graphs.as_field", as_field)
        factor = modules["linalg"].lu_factor
        wrappers[id(factor)] = self._span("linalg.lu_factor", factor, True, self._on_factor)
        minimize = modules["solvers"].minimize_box
        wrappers[id(minimize)] = self._span("solvers.minimize_box", minimize, False, self._on_minimize)
        continuation = modules["solvers"].continuation
        wrappers[id(continuation)] = self._continuation(continuation)

        for module in everywhere:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, attr, wrappers[id(value)])
        core = modules["solvers"]._newton_system
        self._rebind(modules["solvers"], "_newton_system", self._newton(core, "solvers.newton"))
        if getattr(modules["degree"], "_newton_system", None) is core:
            self._rebind(modules["degree"], "_newton_system", self._newton(core, "degree.enumerate"))
        graph_cls = modules["graphs"].WeightedGraph
        self._rebind(graph_cls, "__init__", self._span("graphs.construct", graph_cls.__init__, False))

    def _continuation(self, fn):
        inner = self._span("solvers.continuation", fn, False)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counts["solvers.newton.runs"]
            try:
                return inner(*args, **kwargs)
            finally:
                counts["solvers.continuation.newton_runs"] += counts["solvers.newton.runs"] - before

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.end_enumeration()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines: full spans first, then folded leaf records."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, (command, name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": span_id, "command": command, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
            for (command, parent, name), (calls, total, own) in self.leaves.items():
                out.write(json.dumps({
                    "command": command, "name": name, "parent": parent,
                    "calls": calls, "total_s": total, "self_s": own,
                }) + "\n")

"""The public names of the package, and the boundary checks of its types."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import tzgraph
from tzgraph import GraphConstructionError, Kind, SpecValidationError


def test_every_name_in_a_module_all_resolves_and_the_package_re_exports_it():
    modules = [
        importlib.import_module(f"tzgraph.{info.name}")
        for info in pkgutil.iter_modules(tzgraph.__path__)
        if not info.name.startswith("_")
    ]
    exported = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    assert {module.__name__ for module, _ in exported} >= {
        "tzgraph.degree", "tzgraph.estimates", "tzgraph.graphs", "tzgraph.model", "tzgraph.solvers"
    }
    for module, name in exported:
        assert hasattr(module, name), f"{module.__name__}.__all__ names the missing {name}"
        assert getattr(tzgraph, name, None) is getattr(module, name), f"tzgraph does not export {name}"


def _spec(kind, h1, h2):
    return tzgraph.ProblemSpec(kind, np.array(h1), np.array(h2), 1.0, 1.0)


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: tzgraph.SolverConfig(max_iter=0), SpecValidationError, "max_iter must be at least 1"),
        (lambda: tzgraph.BarrierPair(0.0, 1.0), SpecValidationError, "0 < delta < beta"),
        (lambda: tzgraph.BarrierPair(2.0, 1.0), SpecValidationError, "0 < delta < beta"),
        (lambda: tzgraph.BarrierPair(0.5, 1.0, side=0), SpecValidationError, "side must be"),
        (
            lambda: tzgraph.minimize_box(
                _spec(Kind.CLASSIC, [1.0, 1.0], [-1.0, -1.0]),
                tzgraph.WeightedGraph(["a", "b"], [1.0, 1.0], [("a", "b", 1.0)]),
                tzgraph.BarrierPair(0.5, 1.0),
                tzgraph.SolverConfig(),
            ),
            SpecValidationError,
            "generalized kind only",
        ),
        (lambda: _spec(Kind.CLASSIC, [1.0, math.nan], [-1.0, -1.0]), SpecValidationError, "must be finite"),
        (lambda: _spec(Kind.GENERALIZED, [1.0], [math.inf]), SpecValidationError, "must be finite"),
        (lambda: tzgraph.WeightedGraph(["a", "b"], [1.0], []), GraphConstructionError, "1 entries for 2 vertices"),
        (lambda: tzgraph.AprioriBox(1.0, 0.0, 2.0, 1.0), ValueError, "lower > upper"),
        (lambda: tzgraph.AprioriBox(-1.0, 0.5, 1.0, 0.0), ValueError, "does not strictly contain"),
        (
            lambda: tzgraph.degree_single_vertex(_spec(Kind.CLASSIC, [1.0, 1.0], [-1.0, -1.0])),
            SpecValidationError,
            "single-vertex problem",
        ),
    ],
)
def test_the_boundary_checks_of_the_public_types_raise(make, error, message):
    with pytest.raises(error, match=message):
        make()

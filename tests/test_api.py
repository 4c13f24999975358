"""The public names of the package."""

import importlib
import pkgutil

import tzgraph


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

"""Deterministic instance generator: graph files in the CLI's format.

Coefficient families follow the ranges of ``tests/helpers.py``:

    classic-neg   classic,     h2 < 0          (degree 1, unique solution)
    classic-pos   classic,     h2 > 0          (integral obstruction, no solution)
    generalized   generalized, h1, h2 > 0      (degree 0)
    branch1       generalized, A max h1 < B min h2  (second solution > 0)
    mirror        generalized, A min h1 > B max h2  (second solution < 0)

Every instance draws from its own generator keyed by ``(seed, tag, n,
index)``, so an instance does not depend on which other instances a
workload asks for.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (kind, h1 range, h2 range, A range, B range)
FAMILIES = {
    "classic-neg": ("classic", (0.5, 2.0), (-2.0, -0.5), (0.5, 2.0), (0.5, 2.0)),
    "classic-pos": ("classic", (0.5, 2.0), (0.5, 2.0), (0.5, 2.0), (0.5, 2.0)),
    "generalized": ("generalized", (0.5, 2.0), (0.5, 2.0), (0.5, 2.0), (0.5, 2.0)),
    "branch1": ("generalized", (0.5, 1.0), (2.2, 4.0), (0.5, 1.0), (1.0, 2.0)),
    "mirror": ("generalized", (2.2, 4.0), (0.5, 1.0), (1.0, 2.0), (0.5, 1.0)),
}
EXTRA_EDGE_PROB = 0.35
WEIGHT_RANGE = (0.5, 2.0)
MEASURE_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class Instance:
    """One generated problem: the graph file text plus the CLI flags it needs."""

    family: str
    n: int
    index: int
    equation: str
    A: float
    B: float
    text: str

    @property
    def name(self) -> str:
        return f"{self.family}-n{self.n}-{self.index}"


def _rng(seed: int, family: str, n: int, index: int) -> np.random.Generator:
    tag = zlib.crc32(family.encode())
    return np.random.default_rng([seed, tag, n, index])


def make_instance(family: str, n: int, seed: int, index: int = 0) -> Instance:
    """Random connected graph with coefficients drawn from ``family``."""
    kind, h1_range, h2_range, a_range, b_range = FAMILIES[family]
    rng = _rng(seed, family, n, index)
    mu = rng.uniform(*MEASURE_RANGE, n).tolist()
    h1 = rng.uniform(*h1_range, n).tolist()
    h2 = rng.uniform(*h2_range, n).tolist()
    a = float(rng.uniform(*a_range))
    b = float(rng.uniform(*b_range))
    # a random spanning tree keeps the graph connected; extra edges on top
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    tree = {(j, i) for i, j in edges}
    extra = rng.random((n, n)) < EXTRA_EDGE_PROB
    edges += [(i, j) for i in range(n) for j in range(i + 1, n) if extra[i, j] and (i, j) not in tree]
    weights = rng.uniform(*WEIGHT_RANGE, len(edges))
    lines = [f"# tzgraph benchmark instance {family} n={n} seed={seed} index={index}"]
    lines += [f"vertex v{x} {mu[x]!r} {h1[x]!r} {h2[x]!r}" for x in range(n)]
    lines += [f"edge v{i} v{j} {w!r}" for (i, j), w in zip(edges, weights.tolist())]
    return Instance(family, n, index, kind, a, b, "\n".join(lines) + "\n")


def write_instance(inst: Instance, directory: Path) -> Path:
    path = directory / f"{inst.name}.graph"
    path.write_text(inst.text, encoding="utf-8")
    return path


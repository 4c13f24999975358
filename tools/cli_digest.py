#!/usr/bin/env python3
"""SHA-256 digests of the CLI's answers on the benchmark's commands.

Runs every distinct command of the three ``perfbench`` workloads at the
given seeds, plus all five commands on each ``perfbench/gen.py`` family at
n = 1, 2 and 3 and, under both kinds, on fixed files where h2 is zero,
-0.0, of mixed sign or at the ends of the float range, which no generated
family reaches; then ``check`` once more on each family at n = 1 and 2 for
each of the ``--seed`` values in ``CHECK_SEEDS`` (every other command runs
at the default seed 0); then all five commands under both kinds on the
fixed files of ``EXTREMES``; then ``multiplicity`` on the mirror instances
of ``MIRROR_STARTS``; then all five commands under the classic kind on the
fixed files of ``CLASSIC_PINS``; then all five commands on the tiny-weight
pairs of ``TINY_WEIGHTS`` and ``TINY_PAIRS``, each under its own kind; then
each command with ``--format text`` on one ``branch1`` instance; last,
``degree --radius 4`` on the classic pair whose h2 changes sign; in-process
and with BLAS pinned to one thread.  Each command's exit code, standard
output, standard error and captured warnings go into the digest, in a
fixed order.  Instance files are written to a temporary directory and
named by relative paths, so two checkouts print the same digests exactly
when their CLI answers agree byte for byte.  One line per command gives
its own digest and argv, so a ``diff`` of two checkouts' outputs names the
commands whose answers moved; the last line is the digest over all of
them::

    python3 tools/cli_digest.py --seeds 7 11
    python3 tools/cli_digest.py --seeds 7 11 --root ../parent-checkout

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are
imported; it defaults to the one holding this script.  Neither is changed.
"""

from __future__ import annotations

import os

# the pin only takes effect if it is in the environment when numpy loads BLAS
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
import warnings
from pathlib import Path

KINDS = ("solve", "degree", "bounds", "multiplicity", "check")
SMALL_SIZES = (1, 2, 3)
# check draws its random fields from --seed
CHECK_SEEDS = (1, 12345)
# the sign boundaries of h2: two vertices with mu = (1, 2), h1 = (1, 0.5) and one unit edge,
# and one vertex with each ``h1 h2`` pair
BOUNDARY_PAIR_H2 = (("0", "0"), ("0", "-2"), ("0", "2"), ("-0.0", "-0.0"), ("-1", "1"))
BOUNDARY_VERTEX = (
    ("1", "0"), ("1e-300", "-1e300"), ("1e300", "-1e-300"), ("1e-300", "1e300"), ("1e300", "1e-300"),
)

# vertex count, file and A (B = 1): exponents so tiny that h1 / A overflows, a graph whose
# w / mu overflows, and terms that overflow inside the exponent cap
EXTREMES = (
    (1, "vertex o 1 1e10 1e20\n", 1e-300),
    (1, "vertex o 1 1 1\n", 1e-310),
    (2, "vertex a 1e-300 1 -1\nvertex b 1e-300 0.5 -2\nedge a b 1e300\n", 1.0),
    (2, "vertex a 1 1e300 -1\nvertex b 2 1e300 -2\nedge a b 1\n", 500.0),
)
# (n, seed, index) of ``gen.make_instance("mirror", ...)``: the mirror branch of ``multiplicity``
# takes its second solution from warm starts 2, 3, 4, 5 and 6 in turn, then from the enumerator
MIRROR_STARTS = ((2, 17, 1), (2, 37, 2), (12, 1, 0), (12, 31, 0), (2, 5, 1), (2, 14, 1))
# vertex count and file, classic with A = B = 1: a path continuation follows only by halving a
# stage, and a simple one-vertex root whose slope, 2e-13, is tiny only because h1 and h2 are
CLASSIC_PINS = (
    (2, "vertex a 1 1e6 -1e6\nvertex b 1 0.01 -1\nedge a b 1\n"),
    (1, "vertex o 1 1e-13 -1e-13\n"),
)
# edge weights so tiny that w0 * lambda1 leaves the normal floats, on a classic and a branch-1
# generalized pair (A = B = 1); at 1e-310 the elliptic constant itself leaves the float range
TINY_WEIGHTS = ("1e-160", "1e-200", "1e-310")
TINY_PAIRS = (("classic", "-1", "-2"), ("generalized", "3", "2"))


def boundary_instances() -> list:
    """The fixed sign-boundary files under both kinds, with A = B = 1; both kinds of a file share its name."""
    from gen import Instance

    texts = [(2, f"vertex a 1 1 {a}\nvertex b 2 0.5 {b}\nedge a b 1\n") for a, b in BOUNDARY_PAIR_H2]
    texts += [(1, f"vertex o 1 {h1} {h2}\n") for h1, h2 in BOUNDARY_VERTEX]
    return [
        Instance("boundary", n, index, equation, 1.0, 1.0, text)
        for equation in ("classic", "generalized")
        for index, (n, text) in enumerate(texts)
    ]


def extreme_instances() -> list:
    """The files of ``EXTREMES`` under both kinds; both kinds of a file share its name."""
    from gen import Instance

    return [
        Instance("extreme", n, index, equation, A, 1.0, text)
        for equation in ("classic", "generalized")
        for index, (n, text, A) in enumerate(EXTREMES)
    ]


def commands(seeds: list[int]) -> list:
    """Distinct ``(file stem, Command, extra flags)`` triples, first occurrence first."""
    from gen import FAMILIES, Instance, make_instance
    from workloads import WORKLOADS, Command, build

    listed = [(seed, cmd) for seed in seeds for workload in WORKLOADS for cmd in build(workload, seed)]
    listed += [
        (seed, Command(kind, make_instance(family, n, seed)))
        for seed in seeds
        for family in FAMILIES
        for n in SMALL_SIZES
        for kind in KINDS
    ]
    seen, distinct = set(), []
    for seed, cmd in listed:
        if cmd not in seen:
            seen.add(cmd)
            distinct.append((f"s{seed}-{cmd.instance.name}", cmd, ()))
    distinct += [(inst.name, Command(kind, inst), ()) for inst in boundary_instances() for kind in KINDS]
    distinct += [
        (f"s{seed}-{inst.name}", Command("check", inst), ("--seed", str(check_seed)))
        for seed in seeds
        for inst in (make_instance(family, n, seed) for family in FAMILIES for n in SMALL_SIZES[:2])
        for check_seed in CHECK_SEEDS
    ]
    distinct += [(inst.name, Command(kind, inst), ()) for inst in extreme_instances() for kind in KINDS]
    mirrors = [(seed, make_instance("mirror", n, seed, index)) for n, seed, index in MIRROR_STARTS]
    distinct += [(f"s{seed}-{inst.name}", Command("multiplicity", inst), ()) for seed, inst in mirrors]
    pins = [Instance("pinned", n, index, "classic", 1.0, 1.0, text) for index, (n, text) in enumerate(CLASSIC_PINS)]
    tiny = [
        Instance("tiny", 2, index, equation, 1.0, 1.0, f"vertex a 1 1 {a}\nvertex b 2 0.5 {b}\nedge a b {weight}\n")
        for index, (weight, (equation, a, b)) in enumerate(itertools.product(TINY_WEIGHTS, TINY_PAIRS))
    ]
    distinct += [(inst.name, Command(kind, inst), ()) for inst in pins + tiny for kind in KINDS]
    rendered = make_instance("branch1", 2, seeds[0])
    distinct += [(f"s{seeds[0]}-{rendered.name}", Command(kind, rendered), ("--format", "text")) for kind in KINDS]
    # the classic pair whose h2 changes sign has no a priori box, so only a given radius bounds its search
    mixed = boundary_instances()[BOUNDARY_PAIR_H2.index(("-1", "1"))]
    return distinct + [(mixed.name, Command("degree", mixed), ("--radius", "4"))]


def run(argv: list[str]) -> list:
    """Exit code, stdout, stderr and warnings of one in-process CLI call."""
    from tzgraph import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11], help="benchmark seeds")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ to import")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import tzgraph

    if Path(tzgraph.__file__).resolve().parent != root / "src" / "tzgraph":
        sys.exit(f"error: imported tzgraph from {tzgraph.__file__}, not from {root / 'src'}")

    digest = hashlib.sha256()
    listed = commands(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for stem, cmd, extra in listed:
            path = Path(f"{stem}.graph")
            if not path.exists():
                path.write_text(cmd.instance.text, encoding="utf-8")
            argv = [*cmd.argv(path), *extra]
            record = json.dumps([argv, *run(argv)]).encode()
            digest.update(record)
            print(f"{hashlib.sha256(record).hexdigest()}  {' '.join(argv)}")
        os.chdir(root)
    print(f"{digest.hexdigest()}  {len(listed)} commands, seeds {' '.join(map(str, args.seeds))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

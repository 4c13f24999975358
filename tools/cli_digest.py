#!/usr/bin/env python3
"""One SHA-256 over the CLI's answers on the benchmark's commands.

Runs every distinct command of the three ``perfbench`` workloads at the
given seeds, plus all five commands on each ``perfbench/gen.py`` family at
n = 1, 2 and 3, in-process and with BLAS pinned to one thread.  Each
command's exit code, standard output, standard error and captured warnings
go into the digest, in a fixed order.  Instance files are written to a
temporary directory and named by relative paths, so two checkouts print
the same digest exactly when their CLI answers agree byte for byte::

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
import json
import sys
import tempfile
import warnings
from pathlib import Path

KINDS = ("solve", "degree", "bounds", "multiplicity", "check")
SMALL_SIZES = (1, 2, 3)


def commands(seeds: list[int]) -> list:
    """Distinct ``(seed, Command)`` pairs, first occurrence first."""
    from gen import FAMILIES, make_instance
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
            distinct.append((seed, cmd))
    return distinct


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
        for seed, cmd in listed:
            path = Path(f"s{seed}-{cmd.instance.name}.graph")
            if not path.exists():
                path.write_text(cmd.instance.text, encoding="utf-8")
            argv = cmd.argv(path)
            digest.update(json.dumps([argv, *run(argv)]).encode())
        os.chdir(root)
    print(f"{digest.hexdigest()}  {len(listed)} commands, seeds {' '.join(map(str, args.seeds))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

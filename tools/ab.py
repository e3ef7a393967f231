"""Time two source trees of weightmult against each other in one process.

    python tools/ab.py TREE_A TREE_B --workload {char,mult,verify} [--seed N] [--passes N] [--depth D]

Each tree is a checkout holding ``src/weightmult``.  The first tree's
package is imported as ``weightmult`` and the second's under the name
``weightmult_b``, so both run in one process on one op list: the
workload's, from this checkout's ``bench/workloads.py`` at ``--seed``.
Each side builds its root systems once.  A first untimed pass per side
fills the caches and checks that the two sides' outputs are equal op by
op (for ``mult`` the multiplicity, not the trace); any difference is
printed and the run exits 1.  Then come ``--passes`` pairs of timed
passes, alternating which side runs first.  A pass is the whole op list,
timed by `time.process_time` after a `gc.collect`.

``--depth D`` runs every pass under ``D`` extra Python frames.  In-process
timings depend on the caller's stack depth: CPython 3.11 can free and
allocate a data-stack chunk each time a frame at its base returns, which
shows as minor page faults at a few base depths.  So an A/B of a change to
the shape of the recursion should run at two or more depths.

Prints each side's median pass and then the median of the per-pair ratios
B/A, their quartiles and the number of pairs in which B was faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(tree: Path, name: str):
    """The package in ``tree/src/weightmult``, imported as ``name``."""
    init = tree / "src" / "weightmult" / "__init__.py"
    if not init.is_file():
        sys.exit(f"ab: no package source at {init}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def plain(x):
    """``x`` with its dataclasses as dicts and errors as their repr, comparable across the two packages."""
    if is_dataclass(x):
        return type(x).__name__, asdict(x)
    if isinstance(x, BaseException):
        return repr(x)
    if isinstance(x, tuple):
        return tuple(map(plain, x))
    return x


def at_depth(depth: int, fn, *args):
    """``fn(*args)`` called under ``depth`` more frames."""
    if depth > 0:
        return at_depth(depth - 1, fn, *args)
    return fn(*args)


class Side:
    """One tree's package, its systems, and its timed passes over the op list."""

    def __init__(self, tree: Path, wm, wl, ops, keys):
        self.tree = tree
        self.wm = wm
        self.wl = wl
        self.ops = ops
        self.systems = {key: self.wm.build_root_system(*key) for key in keys}
        self.times: list = []

    def run(self) -> list:
        out = []
        for op in self.ops:
            try:
                out.append(self.wl.call(self.wm, self.systems[op.system], op))
            except self.wm.WeightMultError as exc:
                out.append(exc)
        return out

    def timed(self, depth: int) -> None:
        gc.collect()
        start = time.process_time()
        at_depth(depth, self.run)
        self.times.append(time.process_time() - start)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--depth", type=int, default=0)
    args = ap.parse_args(argv)
    if args.passes < 1 or args.depth < 0:
        ap.error("--passes must be at least 1 and --depth at least 0")
    if args.depth + 100 > sys.getrecursionlimit():
        ap.error(f"--depth must leave room under the recursion limit of {sys.getrecursionlimit()}")

    wl = WORKLOADS[args.workload]
    wm_a = load(args.tree_a, "weightmult")
    ops = wl.ops(wm_a, args.seed)
    keys = sorted({op.system for op in ops})
    a = Side(args.tree_a, wm_a, wl, ops, keys)
    b = Side(args.tree_b, load(args.tree_b, "weightmult_b"), wl, ops, keys)

    differ = [op.name for op, x, y in zip(ops, a.run(), b.run()) if not wl.same(plain(x), plain(y))]
    for name in differ:
        print(f"outputs differ: {name}")
    if differ:
        return 1

    ratios = []
    for k in range(args.passes):
        first, second = (a, b) if k % 2 == 0 else (b, a)
        first.timed(args.depth)
        second.timed(args.depth)
        ratios.append(b.times[-1] / a.times[-1])

    print(f"workload {wl.name}, seed {args.seed}, {len(ops)} ops, {args.passes} pairs at depth {args.depth}; "
          f"outputs equal")
    for label, side in (("A", a), ("B", b)):
        print(f"{label}  median pass {statistics.median(side.times):.4f} s  {side.tree}")
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r < 1 for r in ratios)
    print(f"B/A {med:.3f} [{q1:.3f}-{q3:.3f}], B faster in {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

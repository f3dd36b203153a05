"""Times the validity solver on hard 3-CNF encodings, one formula at a time.

    python3 tools/solve_scale.py [--src DIR]

Draws each formula with `bench/oracles.random_3cnf`, encodes it as
`slam gen-hard` does (s2 + 1 <= s1, valid exactly when the formula is
unsatisfiable) and decides it with an in-process `is_valid`.  The points
are those of ROADMAP item 6: n = 24 at ratio 4.26 with seeds 7, 8 and 9,
and ratio 1.0 with seed 7 at n = 600, 900 and 1500.

For each formula it prints the verdict, the first 16 hex digits of a
SHA-256 over the sorted witness (`-` for valid), the seconds, the search
nodes and the arm checks per node.  A search node is the root of a
`_solve` call or an arm it commits after undoing to a mark; an arm check
is a call of `DifferenceGraph.admits`.  Both are counted by wrapping
those methods in this process, which adds to the seconds.  Two runs, one
with `--src` set to another checkout's `src/`, compare a change with its
parent: the verdicts and witness digests should agree.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (n, ratio, seed) of each formula
POINTS = [(24, 4.26, 7), (24, 4.26, 8), (24, 4.26, 9),
          (600, 1.0, 7), (900, 1.0, 7), (1500, 1.0, 7)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory slam is imported from")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "bench"))
    from oracles import random_3cnf
    from slam import constraints
    from slam.constraints import (
        DifferenceGraph, SizeConstraint, encode_3cnf, is_valid,
    )
    from slam.syntax import Succ

    counts = {"checks": 0, "nodes": 0}
    admits, undo, solve = (DifferenceGraph.admits, DifferenceGraph.undo,
                           constraints._solve)

    def counting_admits(g, atoms):
        counts["checks"] += 1
        return admits(g, atoms)

    def counting_undo(g, mark):
        counts["nodes"] += sys._getframe(1).f_code is solve.__code__
        return undo(g, mark)

    def counting_solve(g, splits):
        counts["nodes"] += 1
        return solve(g, splits)

    DifferenceGraph.admits = counting_admits
    DifferenceGraph.undo = counting_undo
    constraints._solve = counting_solve

    print(f"{'n':>5} {'ratio':>5} {'seed':>4}  {'verdict':<7}  "
          f"{'witness':<16}  {'seconds':>7}  {'nodes':>7}  checks/node")
    for n, ratio, seed in POINTS:
        clauses = [[(f"x{abs(lit)}", lit > 0) for lit in cl]
                   for cl in random_3cnf(random.Random(seed), n, ratio)]
        s1, s2 = encode_3cnf(clauses)
        c = SizeConstraint({}, [(Succ(s2), s1)])
        counts.update(checks=0, nodes=0)
        t0 = time.perf_counter()
        res = is_valid(c)
        seconds = time.perf_counter() - t0
        if res.valid:
            digest = "-"
        else:
            text = repr(sorted(res.witness.items()))
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        nodes = counts["nodes"]
        per_node = counts["checks"] / nodes if nodes else 0.0
        verdict = "valid" if res.valid else "invalid"
        print(f"{n:>5} {ratio:>5} {seed:>4}  {verdict:<7}  {digest:<16}  "
              f"{seconds:>7.2f}  {nodes:>7}  {per_node:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

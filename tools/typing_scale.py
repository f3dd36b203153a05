"""Times type inference on long binder chains, one chain at a time.

    python3 tools/typing_scale.py [--src DIR]

Parses each chain over `corpus/streams.slam` and runs an in-process
`typecheck.infer` on it five times; the parse is not timed.  The chains,
at n = 1,000, 2,000 and 4,000:

- distinct: `/\\i0. \\x0 : Nat^i0. /\\i1. \\x1 : Nat^i1. ... x0`, n size
  binders of n names;
- one-name: `/\\i. \\x0 : Nat^i. /\\i. \\x1 : Nat^i. ... x0`, n size binders
  of one name, which typing renames apart as i, i_1, i_2, ...;
- lambdas: `\\x0 : Nat. \\x1 : Nat. ... x0`, the chain in the README;
- nested: `(/\\i. \\x : Nat^i. x) [oo] ((/\\i. \\x : Nat^i. x) [oo] (...
  zero))`, n instantiations of a quantified type.

For each it prints whether the term typed, the median seconds of the
five runs and the ratio of that median to the one at half the n.  A
ratio near 2 is linear cost, near 4 quadratic.  Two runs, one with
`--src` set to another checkout's `src/`, compare a change with its
parent: the verdicts should agree.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1000, 2000, 4000)
RUNS = 5


def chain(kind: str, n: int) -> str:
    """The source of the chain `kind` of length n."""
    if kind == "distinct":
        return "".join(f"/\\i{k}. \\x{k} : Nat^i{k}. "
                       for k in range(n)) + "x0"
    if kind == "one-name":
        return "".join(f"/\\i. \\x{k} : Nat^i. " for k in range(n)) + "x0"
    if kind == "lambdas":
        return "".join(f"\\x{k} : Nat. " for k in range(n)) + "x0"
    src = "zero"
    for _ in range(n):
        src = f"(/\\i. \\x : Nat^i. x) [oo] ({src})"
    return src


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory slam is imported from")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from slam import parse_slam, parse_term
    from slam.typecheck import infer

    reg = parse_slam((ROOT / "corpus" / "streams.slam").read_text()).registry
    print(f"{'chain':<9} {'n':>5}  {'typed':<5}  {'seconds':>7}  ratio")
    for kind in ("distinct", "one-name", "lambdas", "nested"):
        last = None
        for n in SIZES:
            t = parse_term(chain(kind, n), reg)
            seconds = []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                failed = infer(reg, {}, t).failed
                seconds.append(time.perf_counter() - t0)
            median = statistics.median(seconds)
            ratio = f"{median / last:.1f}" if last else "-"
            last = median
            typed = "no" if failed else "yes"
            print(f"{kind:<9} {n:>5}  {typed:<5}  {median:>7.3f}  {ratio}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four seeded workloads.

Each workload grows along one parameter and is a list of columns: the
distinct inputs the benchmark sends, each with its reference verdict.
Round r of a run sends column r mod len(columns) in an order drawn from
the seed.  The program sees only generated files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from oracles import (
    dimacs, numeral, odd_stream, productivity_pass, random_3cnf, rename,
    solve_ok, zero_tree,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# Reads the CLI's exit code and stdout, and says whether the verdict is right.
Verify = Callable[[int, str], bool]
# Runs `slam gen-hard` on a DIMACS file and returns what it printed.
GenHard = Callable[[Path], str]


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    size: int
    verify: Verify


@dataclass(frozen=True)
class Workload:
    name: str
    # A run sends whole blocks of this many rounds, each block the same
    # inputs; one block fixes the tail percentile and is what the traced
    # run measures.  A multiple of the number of columns.
    block_rounds: int
    prepare: Callable[[random.Random, Path, GenHard], list[list[Case]]]


def _expect(rc: int, out: str) -> Verify:
    return lambda got_rc, got_out: got_rc == rc and got_out == out


# ---------------------------------------------------------------------------
# cnf-solve: the coNP-hard core, growing in CNF variables

CNF_SIZES = (4, 5, 6, 7, 8)
CNF_RATIO = 4.26
CNF_PER_SIZE = 4
# The formulas are fixed; a seed renames their variables.  Solve time
# differs between formulas (and between structural variants of one
# formula) by a factor of several, so formulas drawn per seed would make
# the seed, not the program, decide the run's total.
CNF_POOL_SEED = 1808


def _cnf(rng: random.Random, work: Path, gen_hard: GenHard) -> list[list[Case]]:
    pool = random.Random(CNF_POOL_SEED)
    columns: list[list[Case]] = [[] for _ in range(CNF_PER_SIZE)]
    for n in CNF_SIZES:
        for j, column in enumerate(columns):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            clauses = rename(random_3cnf(pool, n, CNF_RATIO), perm)
            cnf = work / f"n{n}_{j}.cnf"
            cnf.write_text(dimacs(n, clauses))
            sc = work / f"n{n}_{j}.sc"
            sc.write_text(gen_hard(cnf))
            column.append(Case(("--porcelain", "solve", str(sc)), n,
                               partial(solve_ok, n, clauses)))
    return columns


# ---------------------------------------------------------------------------
# chain-infer: a binding chain that doubles the linked term at each step.
# k = 12 (about 4 s per command) would leave room for one round in a run,
# and the median would then rest on three timings; with k <= 11 a block
# is two rounds and the median is the middle of six k = 9 timings.

CHAIN_SIZES = (6, 8, 9, 10, 11)


def _chain(rng: random.Random, work: Path, gen_hard: GenHard) -> list[list[Case]]:
    streams = (CORPUS / "streams.slam").read_text()
    column = []
    for k in CHAIN_SIZES:
        chain = ["d0 = succ zero;"]
        chain += [f"d{i} = plus d{i - 1} d{i - 1};" for i in range(1, k + 1)]
        f = work / f"chain{k}.slam"
        f.write_text(streams + "\n" + "\n".join(chain) + "\n")
        d = f"d{k}"
        column += [
            Case(("infer", str(f), d), k, _expect(0, "Nat\n")),
            Case(("check", str(f), d, ":", "Nat"), k, _expect(0, "yes\n")),
            Case(("check", str(f), d, ":", "Nat^1"), k, _expect(1, "no\n")),
        ]
    return [column]


# ---------------------------------------------------------------------------
# productivity: observation depth; only the rewrite layer works here

SP_DEPTHS = (5, 10, 15, 20)
TREE_DEPTHS = (6, 8, 10, 12)


def _productivity(rng: random.Random, work: Path,
                  gen_hard: GenHard) -> list[list[Case]]:
    column = []
    programs = [("sp.slam", "run odd nats", "Strm", SP_DEPTHS, odd_stream),
                ("trees.slam", "bzeros", "BTree", TREE_DEPTHS, zero_tree)]
    for file, term, ty, depths, expected in programs:
        f = str(CORPUS / file)
        for d in depths:
            column += [
                Case(("--porcelain", "productivity", f, term, "--type", ty,
                      "--depth", str(d)), d,
                     _expect(0, productivity_pass(d))),
                Case(("eval", f, term, "--depth", str(d)), d,
                     _expect(0, expected(d) + "\n")),
            ]
    return [column]


# ---------------------------------------------------------------------------
# deep-terms: nesting depth through the parser, printer and erasure.
# At k >= 400 the recursive parser raises RecursionError; those inputs
# stay in the workload and count as undecided.

DEEP_SIZES = (100, 200, 300, 400, 800, 1600)


def _deep(rng: random.Random, work: Path, gen_hard: GenHard) -> list[list[Case]]:
    f = str(CORPUS / "streams.slam")
    column = []
    for k in DEEP_SIZES:
        column += [
            Case(("infer", f, numeral(k)), k, _expect(0, f"Nat^{k + 1}\n")),
            Case(("eval", f, numeral(k)), k, _expect(0, f"{k}\n")),
        ]
    return [column]


WORKLOADS = {w.name: w for w in (
    Workload("cnf-solve", CNF_PER_SIZE, _cnf),
    Workload("chain-infer", 2, _chain),
    Workload("productivity", 4, _productivity),
    Workload("deep-terms", 50, _deep),
)}


def round_cases(columns: list[list[Case]], seed: int, r: int) -> list[Case]:
    """Round r: column r mod len(columns), in an order drawn from the seed."""
    column = list(columns[r % len(columns)])
    random.Random(f"{seed}/{r}").shuffle(column)
    return column

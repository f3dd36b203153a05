"""Reference verdicts computed without calling slam.

Each oracle takes what the benchmark generated and what the CLI printed
and says whether the printed verdict is right.  None of them imports
slam: the truth table decides 3-CNF satisfiability directly, and the
expected texts for the other workloads are built here from their
definitions.
"""

from __future__ import annotations

import itertools
import random

Clause = tuple[int, int, int]  # DIMACS literals: +k is x_k, -k is not x_k


def random_3cnf(rng: random.Random, n: int, ratio: float) -> list[Clause]:
    """Uniform random 3-CNF over x1..xn with round(ratio*n) clauses of
    three distinct variables."""
    clauses = []
    for _ in range(round(ratio * n)):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def rename(clauses: list[Clause], perm: list[int]) -> list[Clause]:
    """Rename variable k to perm[k-1], keeping every sign."""
    return [tuple(perm[abs(l) - 1] * (1 if l > 0 else -1) for l in c)
            for c in clauses]


def dimacs(n: int, clauses: list[Clause]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def satisfies(assignment: dict[int, bool], clauses: list[Clause]) -> bool:
    return all(any(assignment.get(abs(l)) == (l > 0) for l in c)
               for c in clauses)


def satisfiable(n: int, clauses: list[Clause]) -> bool:
    """Truth table over all 2^n assignments."""
    return any(satisfies(dict(zip(range(1, n + 1), bits)), clauses)
               for bits in itertools.product((False, True), repeat=n))


def porcelain(out: str) -> dict[str, str]:
    """The `key: value` lines of --porcelain output."""
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs[key] = value
    return pairs


def decode_witness(out: str) -> dict[int, bool]:
    """x_k is true exactly when the witness gives it size 0.

    The encoding asks some literal of every clause to be 0 and, per
    variable, exactly one of x and its primed copy x' to be 0.
    """
    assignment = {}
    for key, value in porcelain(out).items():
        name = key.removeprefix("witness.")
        if name != key and name.startswith("x") and name[1:].isdigit():
            assignment[int(name[1:])] = value == "0"
    return assignment


def solve_ok(n: int, clauses: list[Clause], rc: int, out: str) -> bool:
    """`slam --porcelain solve` on the encoding of a 3-CNF is right when
    it says valid (exit 0) for an unsatisfiable formula, and invalid
    (exit 1) with a witness that decodes to a model otherwise."""
    verdict = porcelain(out).get("verdict")
    if not satisfiable(n, clauses):
        return rc == 0 and verdict == "valid"
    return (rc == 1 and verdict == "invalid"
            and satisfies(decode_witness(out), clauses))


def odd_stream(depth: int) -> str:
    """`slam eval` of `run odd nats`: the first `depth` odd numerals."""
    return " :: ".join([str(2 * i + 1) for i in range(depth)] + ["_|_"])


def zero_tree(depth: int, atom: bool = False) -> str:
    """`slam eval` of `bzeros`: the complete binary tree of zeros."""
    if depth == 0:
        return "_|_"
    kid = zero_tree(depth - 1, True)
    s = f"bnode 0 {kid} {kid}"
    return f"({s})" if atom else s


def productivity_pass(depth: int) -> str:
    """`slam --porcelain productivity` of a productive term."""
    return "".join(f"report.{i}: ok\n" for i in range(depth + 1)) \
        + "verdict: PASS\n"


def numeral(k: int) -> str:
    """`succ (succ (... zero))` nested k deep."""
    return "succ (" * k + "zero" + ")" * k

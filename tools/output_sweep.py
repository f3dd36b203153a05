"""Output check for changes to the rewrite and constraints layers.

    python3 tools/output_sweep.py [--src DIR] [--dump FILE]

Runs `slam eval` and `slam productivity`, plain and with --porcelain,
in-process on every binding of the three corpus files and the extra
terms below, at depths 0-12, with the default fuel and fuel 50, 200 and
1000, and `productivity` with every `--type` listed for the file.  It
prints the number of commands and the SHA-256 over (argv, exit code,
stdout, first line of stderr) of each, in a fixed order; files appear
in argv by their base name, so the digest does not depend on where the
checkout lives.

A second line does the same for `slam solve`, plain and with
--porcelain, on the `slam gen-hard` encodings of seeded random 3-CNF
formulas at n = 4..14 variables, on `corpus/bad.sc`, on the inference
triple (U, S) of every binding of the corpus, written out with
`format_constraint`, and on seeded random constraints whose nested
min/max give disjunct arms of several atoms.

A change that should not alter any output gives the same digests as its
parent: run the script once with the change's `src/` and once with the
parent's (`--src`).  With --dump, each command's record is also written
to FILE, one per line, so two runs can be compared line by line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# per corpus file: the terms beyond its bindings, and the --type values
EXTRA_TERMS = {
    "streams.slam": ["plus (succ (succ zero)) (succ zero)", "tl [oo] zeros",
                     "from zero"],
    "sp.slam": ["run odd nats", "tl [oo] nats", "hd [oo] nats"],
    "trees.slam": ["singleton zero", "cons zero (cons (succ zero) nil)"],
}
TYPES = {
    "streams.slam": ["Strm", "Nat"],
    "sp.slam": ["Strm", "SP", "Nat"],
    "trees.slam": ["BTree", "FTree", "Tree", "Nat", "Even"],
}
DEPTHS = range(13)
FUELS = [None, 50, 200, 1000]  # None: the default fuel

# solve: random 3-CNF at the clause ratio of the hard region
CNF_SIZES = range(4, 15)
CNF_PER_SIZE = 3
CNF_RATIO = 4.26
CNF_SEED = 2006
# solve: random constraints over four size variables
RANDOM_CONSTRAINTS = 300
RANDOM_SEED = 31
SIZE_VARS = ("i", "j", "k", "l")


def commands(parse_slam) -> list[list[str]]:
    """Every command of the sweep, with corpus files by base name."""
    out = []
    for file, extra in EXTRA_TERMS.items():
        sf = parse_slam((CORPUS / file).read_text())
        for term in [*sf.bindings, *extra]:
            for depth in DEPTHS:
                for fuel in FUELS:
                    budget = ["--depth", str(depth)]
                    if fuel is not None:
                        budget += ["--fuel", str(fuel)]
                    runs = [["eval", file, term, *budget]]
                    runs += [["productivity", file, term, "--type", ty,
                              *budget] for ty in TYPES[file]]
                    for argv in runs:
                        out += [argv, ["--porcelain", *argv]]
    return out


def cnf_files() -> dict[str, str]:
    """DIMACS text of each seeded random 3-CNF formula, by file name."""
    rng = random.Random(CNF_SEED)
    files = {}
    for n in CNF_SIZES:
        for j in range(CNF_PER_SIZE):
            clauses = [" ".join(str(v if rng.random() < 0.5 else -v)
                                for v in rng.sample(range(1, n + 1), 3))
                       + " 0" for _ in range(round(CNF_RATIO * n))]
            files[f"n{n}_{j}.cnf"] = \
                f"p cnf {n} {len(clauses)}\n" + "\n".join(clauses) + "\n"
    return files


def random_size(rng: random.Random, names: tuple[str, ...],
                depth: int) -> str:
    """A size expression over `names` in constraint-file syntax."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice([*names, *names, "0", "oo"])
    if r < 0.45:
        return f"({random_size(rng, names, depth - 1)})+{rng.randint(1, 2)}"
    op = "min" if r < 0.7 else "max"
    args = [random_size(rng, names, depth - 1) for _ in range(2)]
    return f"{op}({', '.join(args)})"


def random_constraints() -> dict[str, str]:
    """Seeded constraint files; each let uses only later variables, so
    the definition map is acyclic."""
    rng = random.Random(RANDOM_SEED)
    files = {}
    for n in range(RANDOM_CONSTRAINTS):
        lines = [f"let {x} = {random_size(rng, SIZE_VARS[k + 1:], 2)};"
                 for k, x in enumerate(SIZE_VARS[:rng.randint(0, 2)])]
        lines += [f"assert {random_size(rng, SIZE_VARS, 3)} <= "
                  f"{random_size(rng, SIZE_VARS, 3)};"
                  for _ in range(rng.randint(1, 3))]
        files[f"random_{n}.sc"] = "\n".join(lines) + "\n"
    return files


def solve_files(run, parse_slam, tmp: Path) -> dict[str, str]:
    """Every constraint file of the solve sweep, by file name; the CNF
    formulas go through `slam gen-hard` in `tmp`."""
    from slam.constraints import format_constraint
    from slam.typecheck import infer

    files = {}
    for name, text in cnf_files().items():
        cnf = tmp / name
        cnf.write_text(text)
        code, out, err = run(["gen-hard", str(cnf)])
        if code != 0:
            raise SystemExit(f"gen-hard {name}: {err}")
        files[cnf.with_suffix(".sc").name] = out
    files["bad.sc"] = (CORPUS / "bad.sc").read_text()
    for file in EXTRA_TERMS:
        sf = parse_slam((CORPUS / file).read_text())
        for name in sf.bindings:
            c = infer(sf.registry, {}, sf.linked(name)).constraint
            # fresh size variables are named $1, $s2, ..., which a
            # constraint file cannot spell
            text = format_constraint(c).replace("$", "_")
            files[f"{file}.{name}.sc"] = text
    return files | random_constraints()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory slam is imported from")
    ap.add_argument("--dump", type=Path,
                    help="also write each command's record to this file")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from slam.cli import main as slam
    from slam.parser import parse_slam

    def run(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = slam(argv)
        return code, out.getvalue(), err.getvalue()

    def sweep(cmds: list[list[str]], real, dump) -> str:
        """SHA-256 over the record of each command; `real` maps an argv
        word to what is passed to slam."""
        digest = hashlib.sha256()
        for argv in cmds:
            code, out, err = run([real(a) for a in argv])
            record = repr((argv, code, out, err.split("\n", 1)[0]))
            digest.update(record.encode() + b"\n")
            dump.write(record + "\n")
        return digest.hexdigest()

    with open(args.dump or os.devnull, "w") as dump, \
            tempfile.TemporaryDirectory() as tmp:
        cmds = commands(parse_slam)
        rewrite = sweep(cmds, lambda a: str(CORPUS / a) if a in TYPES else a,
                        dump)
        files = solve_files(run, parse_slam, Path(tmp))
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        solves = [[*flag, "solve", name]
                  for name in files for flag in ([], ["--porcelain"])]
        solve = sweep(solves, lambda a: str(Path(tmp, a)) if a in files else a,
                      dump)
    print(f"commands: {len(cmds)}")
    print(f"sha256: {rewrite}")
    print(f"solve commands: {len(solves)} sha256: {solve}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

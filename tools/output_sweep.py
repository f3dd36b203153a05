"""Output check for changes that should not alter what slam prints.

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
triple (U, S) of every binding of the corpus, with the earlier
bindings it reaches substituted in, written out with
`format_constraint`, and on seeded random constraints whose nested
min/max give disjunct arms of several atoms.

A third line does the same, over (argv, exit code, first line of
stderr), for every one-token mutation of an input: each token dropped,
doubled, or swapped with the next.  It runs `slam infer` of the first
binding on the mutations of each corpus `.slam` file, `slam check` of a
corpus binding against the mutations of a type, and `slam solve` on the
mutations of `corpus/bad.sc` and of the two n = 4 encodings above, so
every `line:col: message` of a parse error is compared.

A fourth line does the same as the first for `slam infer` and
`slam check`, plain and with --porcelain: `infer` of every binding and
extra term, `check` of each against every `--type` of its file and every
type `check`ed in that file below, and `infer` of the numeral
`succ (... zero)` at the depths in NUMERALS.  It also runs them on
copies of the files in REVERSED with their bindings in reverse order, so
that every reference between bindings points forward, and on the
bindings of CYCLE, which reach a binding cycle.

A change that should not alter any output gives the same digests as its
parent: run the script once with the change's `src/` and once with the
parent's (`--src`).  `tools/sweep_digests.txt` holds what it prints for
the checked-in `src/`, and CI diffs the script's output against it,
once as is and once under PYTHONHASHSEED=12345, so a digest that
depends on the hash seed fails there; a change that means to alter the
output updates that file.  With --dump, each command's record is also written
to FILE, one per line, so two runs can be compared line by line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import re
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
# parse errors: the types whose mutations `check` a binding against, and
# the constraint files whose mutations are solved
CHECKS = [
    ("streams.slam", "tl", "forall i. Strm^(i+1) -> Strm^i"),
    ("streams.slam", "plus", "Nat -> Nat -> Nat"),
    ("sp.slam", "run", "SP -> Strm -> Strm"),
    ("trees.slam", "singleton", "Nat -> List(Nat)"),
    ("trees.slam", "wtree", "Tree^oo"),
]
MUTATED_SC = ["bad.sc", "n4_0.sc", "n4_1.sc"]
# typing: the depths of the numerals inferred in streams.slam, the files
# typed again with their bindings in reverse order, and the bindings
# added to streams.slam to make cycle.slam, with the terms inferred there
NUMERALS = [0, 1, 100, 1600]
REVERSED = ["sp.slam", "trees.slam"]
CYCLE = "loop = succ loop;\nca = succ cb;\ncb = succ ca;\n"
CYCLE_TERMS = ["loop", "ca", "cb", "plus ca zero"]
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


def typing_files() -> dict[str, str]:
    """The text of each file the typing sweep makes, by file name: the
    REVERSED copies and cycle.slam."""
    files = {}
    for file in REVERSED:
        src = (CORPUS / file).read_text()
        starts = [m.start() for m in re.finditer(r"^\w+ *=", src, re.M)]
        chunks = [src[a:b] for a, b in zip(starts, starts[1:] + [len(src)])]
        files[f"reversed_{file}"] = src[:starts[0]] + "".join(reversed(chunks))
    files["cycle.slam"] = (CORPUS / "streams.slam").read_text() + CYCLE
    return files


def typing_commands(parse_slam) -> list[list[str]]:
    """Every command of the typing sweep, with files by base name."""
    runs = []

    def add(file: str, types_of: str, terms: list[str]) -> None:
        types = TYPES[types_of] + [ty for f, _n, ty in CHECKS if f == types_of]
        for term in terms:
            runs.append(["infer", file, term])
            runs.extend(["check", file, term, ":", ty] for ty in types)

    for file, extra in EXTRA_TERMS.items():
        sf = parse_slam((CORPUS / file).read_text())
        add(file, file, [*sf.bindings, *extra])
    runs += [["infer", "streams.slam", "succ (" * k + "zero" + ")" * k]
             for k in NUMERALS]
    for file in REVERSED:
        sf = parse_slam((CORPUS / file).read_text())
        add(f"reversed_{file}", file, [*sf.bindings, *EXTRA_TERMS[file]])
    add("cycle.slam", "streams.slam", CYCLE_TERMS)
    return [[*flag, *argv] for argv in runs for flag in ([], ["--porcelain"])]


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
    from slam.syntax import subst_term
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
        linked = {}  # each binding with the earlier ones it reaches put in
        for name, t in sf.bindings.items():
            for prev in sf.reached(t):
                if prev in linked:
                    t = subst_term(t, linked[prev], prev)
            linked[name] = t
            c = infer(sf.registry, {}, t).constraint
            # fresh size variables are named $1, $s2, ..., which a
            # constraint file cannot spell
            text = format_constraint(c).replace("$", "_")
            files[f"{file}.{name}.sc"] = text
    return files | random_constraints()


def mutations(src: str, tokenize) -> list[tuple[str, str]]:
    """(label, text) of src with one token dropped, doubled or swapped
    with the next, token by token."""
    line_starts = [0]
    for line in src.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)
    toks = [(line_starts[t.line - 1] + t.col - 1, t.text)
            for t in tokenize(src) if t.kind != "eof"]
    out = []
    for i, (at, text) in enumerate(toks):
        end = at + len(text)
        out.append((f"drop {i}", src[:at] + src[end:]))
        out.append((f"double {i}", src[:end] + " " + text + src[end:]))
        if i + 1 < len(toks):
            at2, text2 = toks[i + 1]
            out.append((f"swap {i}", src[:at] + text2 + src[end:at2] + text
                        + src[at2 + len(text2):]))
    return out


def parse_error_commands(parse_slam, tokenize, sc_files: dict[str, str]
                         ) -> list[tuple[str, list[str], str, str]]:
    """(label, argv, file name, file text) of each command of the
    parse-error sweep; argv names the file by its base name."""
    out = []
    for file in EXTRA_TERMS:
        src = (CORPUS / file).read_text()
        first = next(iter(parse_slam(src).bindings))
        out += [(label, ["infer", file, first], file, text)
                for label, text in mutations(src, tokenize)]
    for file, name, ty in CHECKS:
        src = (CORPUS / file).read_text()
        out += [(label, ["check", file, name, ":", text], file, src)
                for label, text in mutations(ty, tokenize)]
    for file in MUTATED_SC:
        out += [(label, ["solve", file], file, text)
                for label, text in mutations(sc_files[file], tokenize)]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory slam is imported from")
    ap.add_argument("--dump", type=Path,
                    help="also write each command's record to this file")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from slam.cli import main as slam
    from slam.parser import parse_slam, tokenize

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
        def corpus(a: str) -> str:
            return str(CORPUS / a) if a in TYPES else a

        cmds = commands(parse_slam)
        rewrite = sweep(cmds, corpus, dump)
        files = solve_files(run, parse_slam, Path(tmp))
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        solves = [[*flag, "solve", name]
                  for name in files for flag in ([], ["--porcelain"])]
        solve = sweep(solves, lambda a: str(Path(tmp, a)) if a in files else a,
                      dump)
        mutated = parse_error_commands(parse_slam, tokenize, files)
        digest = hashlib.sha256()
        for label, argv, file, text in mutated:
            path = Path(tmp, "mutated", file)
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            code, _out, err = run([str(path) if a == file else a
                                   for a in argv])
            record = repr((label, argv, code, err.split("\n", 1)[0]))
            digest.update(record.encode() + b"\n")
            dump.write(record + "\n")
        made = typing_files()
        for name, text in made.items():
            Path(tmp, name).write_text(text)
        typed = typing_commands(parse_slam)
        typing = sweep(typed, lambda a: str(Path(tmp, a)) if a in made
                       else corpus(a), dump)
    print(f"commands: {len(cmds)}")
    print(f"sha256: {rewrite}")
    print(f"solve commands: {len(solves)} sha256: {solve}")
    print(f"parse-error commands: {len(mutated)} sha256: "
          f"{digest.hexdigest()}")
    print(f"typing commands: {len(typed)} sha256: {typing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output check for changes to the rewrite layer.

    python3 tools/output_sweep.py [--src DIR] [--dump FILE]

Runs `slam eval` and `slam productivity`, plain and with --porcelain,
in-process on every binding of the three corpus files and the extra
terms below, at depths 0-12, with the default fuel and fuel 50, 200 and
1000, and `productivity` with every `--type` listed for the file.  It
prints the number of commands and the SHA-256 over (argv, exit code,
stdout, first line of stderr) of each, in a fixed order; files appear
in argv by their base name, so the digest does not depend on where the
checkout lives.

A change that should not alter any output gives the same digest as its
parent: run the script once with the change's `src/` and once with the
parent's (`--src`).  With --dump, each command's record is also written
to FILE, one per line, so two runs can be compared line by line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
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

    digest = hashlib.sha256()
    dump = open(args.dump, "w") if args.dump else None
    cmds = commands(parse_slam)
    for argv in cmds:
        real = [str(CORPUS / a) if a in TYPES else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = slam(real)
        record = repr((argv, code, out.getvalue(),
                       err.getvalue().split("\n", 1)[0]))
        digest.update(record.encode() + b"\n")
        if dump:
            dump.write(record + "\n")
    if dump:
        dump.close()
    print(f"commands: {len(cmds)}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

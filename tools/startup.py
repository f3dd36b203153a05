"""Start-up cost of slam: how long `import slam.cli` takes in a fresh
interpreter.

    python3 tools/startup.py [--python EXE] [--runs N] [--src DIR]

Copies the `slam` package from DIR (default: this checkout's `src/`) to
a temporary directory and starts N fresh interpreters, one at a time,
that each time `import slam.cli`.  It does so twice: from source, with
PYTHONDONTWRITEBYTECODE=1 and no bytecode cache for slam, so that every
module of slam is compiled, as a fresh checkout runs it; and with
bytecode, after one import has written the caches.  The standard
library loads from its own caches both times.  Prints the interpreter's
version, then the median and quartiles of each, in ms.  EXE defaults to
the interpreter running this script.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = ("import time; t0 = time.perf_counter(); import slam.cli; "
         "print((time.perf_counter() - t0) * 1000)")


def import_ms(python: str, path: Path, write_bytecode: bool) -> float:
    env = dict(os.environ, PYTHONPATH=str(path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([python, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def summary(label: str, times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4)
    return (f"{label}: median {med:.1f} ms, quartiles {q1:.1f}-{q3:.1f} ms"
            f" ({len(times)} interpreters)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--python", default=sys.executable)
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    version = subprocess.run(
        [args.python, "-c", "import sys; print(sys.version.split()[0])"],
        check=True, capture_output=True, text=True).stdout.strip()
    print(f"python {version} ({args.python})")
    with tempfile.TemporaryDirectory(prefix="slam-startup-") as tmp:
        path = Path(tmp)
        shutil.copytree(args.src / "slam", path / "slam",
                        ignore=shutil.ignore_patterns("__pycache__"))
        print(summary("from source", [import_ms(args.python, path, False)
                                      for _ in range(args.runs)]))
        import_ms(args.python, path, True)  # writes the caches
        print(summary("with bytecode", [import_ms(args.python, path, True)
                                        for _ in range(args.runs)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

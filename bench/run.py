"""Benchmark of slam's verdicts, driven through the CLI entry point.

    python3 bench/run.py --workload cnf-solve --seed 1 --seconds 20 --trace 0

One closed-loop client (this process, one thread) calls
`slam.cli.main(argv)` in-process with stdout captured, sending the next
input only after the previous verdict.  Every verdict is checked
against a reference computed in `oracles.py`.  Every time of --trace 0
is corrected for the host's speed at that moment, measured by a fixed
calibration kernel timed right before and right after it (see
`HostClock`).  An
input is undecided when it crashes, exits with an error, gives a wrong
verdict or runs past LIMIT_S; it is then charged 2 * LIMIT_S on top of
the time it ran (PAR-2).

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
sends each input of the workload's fixed rounds twice, untraced and with
every layer function wrapped (`spans.py`), and prints per-layer metrics
per round.  The last line of stdout is one JSON object.  Spans of the traced
pass go to bench/out/spans-<workload>.tsv, replacing the last run's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from spans import PER_LAYER, Recorder  # noqa: E402
from workloads import WORKLOADS, Case, Workload, round_cases  # noqa: E402

LIMIT_S = 30.0
# The calibration kernel's time on a quiet 2-core Intel Xeon VM.  A
# corrected time is raw time * CAL_REF_S / (the kernel's time around it).
CAL_REF_S = 0.0035
CAL_EVERY_S = 0.1
SETUP_REPS = 11
# No input is sent after this, so that a run ends within 180 s even when
# the program under test has become much slower (a traced run sends each
# input twice, 2 * LIMIT_S at most).
HARD_STOP_S = 100.0

END_TO_END = (
    ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms"), ("par2_s", "s"),
    ("decided_share", "share"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


class InputTimeout(BaseException):
    """Raised by SIGALRM inside the CLI call that ran past LIMIT_S."""


def _on_alarm(signum, frame):
    raise InputTimeout()


@dataclass
class Outcome:
    case: Case
    status: str  # ok | wrong | error | timeout | crash:<exception>
    seconds: float  # as measured
    out: str
    scale: float = 1.0  # host-speed correction, see host_scale

    @property
    def charged_s(self) -> float:
        seconds = self.seconds * self.scale
        return seconds if self.status == "ok" else 2 * LIMIT_S + seconds


# ---------------------------------------------------------------------------
# Host speed
#
# The host is shared, and its speed drifts by a fifth or more over
# seconds to minutes; CPU time drifts with it.  A fixed pure-Python
# kernel, timed right before and right after an input, slows down in
# step with slam, so the ratio of the two is steady: over 20 s windows
# the median time of a fixed input spread by 0.10-0.32 raw and by
# 0.03-0.07 corrected.

def _kernel() -> int:
    """Interpreter work of the kind slam does: calls, tuples, dicts."""
    def fib(n):
        return n if n < 2 else fib(n - 1) + fib(n - 2)
    table = {}
    for i in range(8000):
        table[(i, i % 7)] = (i, str(i))
    s = 0
    for key, value in table.items():
        s += key[0] * value[0] % 11
    return fib(17) + s


def calibrate() -> float:
    """Median of three kernel runs, so that one preempted run does not
    set the scale."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    the time it would take at the reference speed."""
    return 2 * CAL_REF_S / (before + after)


class HostClock:
    """Calibrates between inputs, once at least CAL_EVERY_S has passed
    since the last calibration, and gives every input in between the
    scale of the calibrations on either side."""

    def __init__(self) -> None:
        self.pending: list[Outcome] = []
        self.cal = calibrate()
        self.at = time.perf_counter()

    def add(self, o: Outcome) -> None:
        self.pending.append(o)
        if time.perf_counter() - self.at >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        after = calibrate()
        for o in self.pending:
            o.scale = host_scale(self.cal, after)
        self.pending = []
        self.cal = after
        self.at = time.perf_counter()


def send(cli, case: Case) -> Outcome:
    """One CLI call, looked up as `cli.main` so that a traced pass sees
    the wrapped entry point.

    A real CLI call starts with an empty heap.  Collecting the garbage
    left by earlier inputs first keeps it from being charged to this one,
    which would make each time depend on the order the seed chose."""
    out, err = io.StringIO(), io.StringIO()
    rc, status = None, None
    signal.signal(signal.SIGALRM, _on_alarm)
    gc.collect()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(case.argv))
    except InputTimeout:
        status = "timeout"
    except SystemExit:
        status = "error"
    except Exception as e:  # a crash is undecided, never a verdict
        status = "crash:" + type(e).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    if status is None:
        if rc not in (0, 1):
            status = "error"
        else:
            status = "ok" if case.verify(rc, out.getvalue()) else "wrong"
    return Outcome(case, status, seconds, out.getvalue())


# ---------------------------------------------------------------------------
# Set-up

def _fresh_cli():
    for name in [m for m in sys.modules if m == "slam" or m.startswith("slam.")]:
        del sys.modules[name]
    return importlib.import_module("slam.cli")


def _gen_hard(cli):
    def gen_hard(cnf: Path) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["gen-hard", str(cnf)])
        if rc != 0:
            raise RuntimeError(f"slam gen-hard {cnf} exited {rc}")
        return out.getvalue()
    return gen_hard


def setup(workload: Workload, seed: int, work: Path):
    """Import slam.cli afresh and write the seeded inputs, SETUP_REPS
    times; returns the median time, the CLI module and the inputs."""
    times = []
    cal = calibrate()
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        gc.collect()
        t0 = time.perf_counter()
        rep_dir.mkdir()
        cli = _fresh_cli()
        columns = workload.prepare(random.Random(seed), rep_dir, _gen_hard(cli))
        seconds = time.perf_counter() - t0
        after = calibrate()
        times.append(seconds * host_scale(cal, after))
        cal = after
    return statistics.median(times), cli, columns


# ---------------------------------------------------------------------------
# Measuring

def block_cases(workload: Workload, columns, seed: int, b: int) -> list[Case]:
    """Block b: rounds b*B .. b*B+B-1 for B = workload.block_rounds."""
    n = workload.block_rounds
    return [c for r in range(b * n, (b + 1) * n)
            for c in round_cases(columns, seed, r)]


def measure(cli, workload: Workload, columns, seed: int,
            seconds: float) -> list[Outcome]:
    """Closed loop over blocks, which all send the same inputs: one
    block, then more while another block as long as the last still fits
    in `seconds`.  Each input's time is corrected by the calibrations
    on either side of it."""
    outcomes: list[Outcome] = []
    clock = HostClock()
    t0 = time.perf_counter()
    last, b = 0.0, 0
    try:
        while b == 0 or time.perf_counter() - t0 + last <= seconds:
            b0 = time.perf_counter()
            for case in block_cases(workload, columns, seed, b):
                if time.perf_counter() - t0 > HARD_STOP_S:
                    return outcomes
                outcomes.append(send(cli, case))
                clock.add(outcomes[-1])
            last = time.perf_counter() - b0
            b += 1
        return outcomes
    finally:
        clock.flush()


def traced(cli, cases: list[Case], rounds: int):
    """Each input untraced and traced, back to back in alternating order,
    so that the overhead is measured under the same machine load."""
    rec = Recorder()
    plain, outcomes = [], []
    t0 = time.perf_counter()
    for i, case in enumerate(cases):
        if time.perf_counter() - t0 > HARD_STOP_S:
            break
        if i % 2:
            plain.append(send(cli, case))
        rec.input_id = i
        rec.install()
        try:
            outcomes.append(send(cli, case))
        finally:
            rec.uninstall()
        if not i % 2:
            plain.append(send(cli, case))
    base = sum(o.seconds for o in plain)
    overhead = (sum(o.seconds for o in outcomes) - base) / base
    rounds *= len(outcomes) / len(cases)
    return plain, outcomes, rec, rec.layer_metrics(rounds, overhead)


# ---------------------------------------------------------------------------
# Statistics

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz, as in Numerical Recipes' betacf)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return float(x >= 1)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1 - front * _betacf(b, a, 1 - x) / b


def percentile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a mean of all order
    statistics, weighted by a beta distribution centred on rank p/100.
    It estimates the same quantile as the sample percentile, but rests on
    many timings instead of the one or two next to rank p/100, so the
    noise of single timings averages out."""
    xs = sorted(xs)
    n, q = len(xs), p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def tail_percentile(workload: Workload, columns) -> int:
    """The highest whole percentile with at least ten of one block's
    inputs beyond it, and never below the median."""
    n = workload.block_rounds * len(columns[0])
    return max(50, math.floor(100 * (1 - 10 / n)))


def end_to_end(outcomes: list[Outcome], tail_p: int, setup_s: float) -> dict:
    charged = [o.charged_s for o in outcomes]
    decided = sum(o.status == "ok" for o in outcomes)
    return {
        "latency_ms_p50": percentile(charged, 50) * 1000,
        "latency_ms_tail": percentile(charged, tail_p) * 1000,
        "par2_s": statistics.fmean(charged),
        "decided_share": decided / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def report_sizes(outcomes: list[Outcome]) -> None:
    by_size: dict[int, list[Outcome]] = {}
    for o in outcomes:
        by_size.setdefault(o.case.size, []).append(o)
    for size in sorted(by_size):
        os_ = by_size[size]
        undecided = [o.status for o in os_ if o.status != "ok"]
        print(f"  size {size}: {len(os_)} inputs, median "
              f"{statistics.median(o.seconds * o.scale for o in os_) * 1000:.1f}"
              f" ms ({statistics.median(o.seconds for o in os_) * 1000:.1f} ms "
              f"raw), undecided {len(undecided)}"
              + (f" ({', '.join(sorted(set(undecided)))})" if undecided else ""))


def result_line(outcomes: list[Outcome], metrics: dict, units: dict,
                extra_wrong: int = 0) -> str:
    wrong = sum(o.status == "wrong" for o in outcomes) + extra_wrong
    return json.dumps({
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "slam" / "cli.py").is_file():
        print(f"error: no slam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        setup_s, cli, columns = setup(workload, args.seed, work)
        print(f"{workload.name} seed {args.seed}: setup_s {setup_s:.4f} s "
              f"(median of {SETUP_REPS})")
        if args.trace:
            return _trace_run(cli, workload, columns, args.seed)
        return _timed_run(cli, workload, columns, args.seed, args.seconds,
                          setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _timed_run(cli, workload, columns, seed, seconds, setup_s) -> int:
    outcomes = measure(cli, workload, columns, seed, seconds)
    tail_p = tail_percentile(workload, columns)
    metrics = end_to_end(outcomes, tail_p, setup_s)
    units = dict(END_TO_END)
    report_sizes(outcomes)
    for name, unit in END_TO_END:
        note = ""
        if name == "latency_ms_tail":
            beyond = sum(1 for o in outcomes
                         if o.charged_s * 1000 > metrics[name])
            note = f"  (p{tail_p} of {len(outcomes)} inputs, {beyond} beyond)"
        print(f"{name}: {metrics[name]:.6g} {unit}{note}")
    failed = sum(o.status != "ok" for o in outcomes)
    print(f"failed_share: {failed / len(outcomes):.6g} share")
    print(f"wrong_verdicts: {sum(o.status == 'wrong' for o in outcomes)} count")
    raw = [o.seconds if o.status == "ok" else 2 * LIMIT_S + o.seconds
           for o in outcomes]
    print(f"host_scale: median {statistics.median(o.scale for o in outcomes):.4g}"
          f"; uncorrected latency_ms_p50 {statistics.median(raw) * 1000:.6g} ms,"
          f" par2_s {statistics.fmean(raw):.6g} s")
    print(result_line(outcomes, metrics, units))
    return 0


def _trace_run(cli, workload, columns, seed) -> int:
    cases = block_cases(workload, columns, seed, 0)
    plain, outcomes, rec, metrics = traced(cli, cases, workload.block_rounds)
    rec.write(OUT / f"spans-{workload.name}.tsv")
    differ = sum(a.status != b.status or a.out != b.out
                 for a, b in zip(plain, outcomes))
    units = dict(PER_LAYER)
    for name, unit in PER_LAYER:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(f"traced verdicts differing from untraced: {differ}")
    print(result_line(outcomes, metrics, units,
                      extra_wrong=sum(o.status == "wrong" for o in plain)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: its oracles, its outcome rules, and
that its inputs and counts are determined by the seed alone.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

# Sizes small enough to run every workload twice in a few seconds; deep
# terms keep one size that crashes at the seed.
SMALL = {"cnf-solve": 5, "chain-infer": 8, "productivity": 8,
         "deep-terms": 400}


def _prepare(name: str, seed: int, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    cli = run._fresh_cli()
    return cli, WORKLOADS[name].prepare(random.Random(seed), work,
                                        run._gen_hard(cli))


def summary(name: str, seed: int) -> dict:
    """Verdicts and count metrics of a traced pass over small inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        cli, columns = _prepare(name, seed, Path(tmp))
        cases = [c for col in columns for c in col if c.size <= SMALL[name]]
        _plain, outcomes, _rec, metrics = run.traced(cli, cases, 1)
    return {
        "outputs": [[o.status, o.out] for o in outcomes],
        "counts": {k: v for k, v in metrics.items()
                   if not k.endswith("self_s") and k != "trace.overhead_share"},
    }


def _summary_in_process(name: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    p = subprocess.run([sys.executable, __file__, name, str(seed)],
                       capture_output=True, text=True, env=env, timeout=300)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


# ---------------------------------------------------------------------------
# Oracles

def test_truth_table():
    assert not oracles.satisfiable(1, [(1,), (-1,)])
    assert oracles.satisfiable(3, [(1, -2, 3), (1, -3, 2)])
    assert not oracles.satisfiable(
        2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])


def test_witness_decoding():
    clauses = [(1, -2, 3), (-1, -3, 2)]
    good = "verdict: invalid\nwitness.x1: 0\nwitness.x1': 1\n" \
        "witness.x2: 0\nwitness.x2': 1\nwitness.x3: 1\nwitness.x3': 0\n"
    assert oracles.decode_witness(good) == {1: True, 2: True, 3: False}
    assert oracles.solve_ok(3, clauses, 1, good)
    bad = good.replace("witness.x1: 0", "witness.x1: oo")
    assert not oracles.solve_ok(3, clauses, 1, bad)  # !x1 & x2 & !x3
    assert not oracles.solve_ok(3, clauses, 0, "verdict: valid\n")


def test_expected_texts():
    assert oracles.odd_stream(3) == "1 :: 3 :: 5 :: _|_"
    assert oracles.zero_tree(1) == "bnode 0 _|_ _|_"
    assert oracles.zero_tree(2) == \
        "bnode 0 (bnode 0 _|_ _|_) (bnode 0 _|_ _|_)"
    assert oracles.productivity_pass(1) == \
        "report.0: ok\nreport.1: ok\nverdict: PASS\n"
    assert oracles.numeral(2) == "succ (succ (zero))"


# ---------------------------------------------------------------------------
# Statistics and host-speed correction

def test_harrell_davis_percentile():
    assert abs(run.beta_cdf(0.5, 7.5, 7.5) - 0.5) < 1e-12
    assert abs(run.percentile([3.0] * 9, 84) - 3.0) < 1e-12
    xs = [float(i) for i in range(1, 22)]
    random.Random(0).shuffle(xs)
    assert abs(run.percentile(xs, 50) - 11.0) < 1e-9  # symmetric sample
    assert run.percentile(xs, 50) < run.percentile(xs, 84) < 21.0
    assert run.percentile([5.0], 98) == 5.0


def test_every_timed_input_is_host_corrected(monkeypatch):
    assert run.host_scale(run.CAL_REF_S, run.CAL_REF_S) == 1.0
    o = run.Outcome(None, "ok", 2.0, "", scale=0.5)
    assert o.charged_s == 1.0
    o.status = "timeout"
    assert o.charged_s == 2 * run.LIMIT_S + 1.0
    cli = run._fresh_cli()
    one_round = dataclasses.replace(WORKLOADS["deep-terms"], block_rounds=1)
    with tempfile.TemporaryDirectory() as tmp:
        columns = one_round.prepare(random.Random(1), Path(tmp),
                                    run._gen_hard(cli))
        monkeypatch.setattr(run, "CAL_EVERY_S", 0.02)
        outcomes = run.measure(cli, one_round, columns, 1, 0.1)
    assert len(outcomes) == 12
    assert all(o.scale != 1.0 for o in outcomes)


# ---------------------------------------------------------------------------
# Outcomes

def test_crash_error_and_timeout_are_undecided(tmp_path, monkeypatch):
    cli = run._fresh_cli()
    cyclic = tmp_path / "cyclic.sc"
    cyclic.write_text("let i = j; let j = i; assert i <= j;\n")
    anything = lambda rc, out: True  # noqa: E731
    crash = run.send(cli, Case(("solve", str(cyclic)), 0, anything))
    assert crash.status == "crash:CyclicDefMap"
    missing = run.send(cli, Case(("solve", str(tmp_path / "no.sc")), 0, anything))
    assert missing.status == "error"
    monkeypatch.setattr(run, "LIMIT_S", 0.05)
    slow = run.send(cli, Case(("eval", str(run.ROOT / "corpus" / "trees.slam"),
                               "bzeros", "--depth", "14"), 0, anything))
    assert slow.status == "timeout"
    assert slow.charged_s > 2 * run.LIMIT_S


def test_mismatch_is_a_wrong_verdict(tmp_path):
    cli = run._fresh_cli()
    bad = tmp_path / "bad.sc"
    bad.write_text("assert i+1 <= i;\n")
    wrong = run.send(cli, Case(("solve", str(bad)), 0, lambda rc, out: rc == 0))
    assert wrong.status == "wrong"
    assert wrong.charged_s > 2 * run.LIMIT_S


def test_references_match_the_cli_on_small_inputs(tmp_path):
    for name, limit in SMALL.items():
        cli, columns = _prepare(name, 1, tmp_path / name)
        for case in (c for col in columns for c in col if c.size <= limit):
            o = run.send(cli, case)
            expected = "crash:RecursionError" if case.size >= 400 else "ok"
            assert o.status == expected, (name, case.argv[:3], o.out)


# ---------------------------------------------------------------------------
# Seeds

def test_same_seed_same_verdicts_and_counts():
    for name in WORKLOADS:
        a = _summary_in_process(name, 7, "1")
        b = _summary_in_process(name, 7, "2")
        assert a == b, name


def test_seed_fixes_inputs_and_a_held_out_seed_changes_them(tmp_path):
    def inputs(name, seed, tag):
        _cli, columns = _prepare(name, seed, tmp_path / f"{name}-{seed}{tag}")
        cases = run.block_cases(WORKLOADS[name], columns, seed, 0)
        argv = [tuple(Path(a).name for a in c.argv) for c in cases]
        files = [Path(a).read_text() for c in cases for a in c.argv
                 if a.endswith(".sc")]
        return argv, files

    for name in WORKLOADS:
        assert inputs(name, 1, "a") == inputs(name, 1, "b"), name
        assert inputs(name, 1, "a") != inputs(name, 2, "a"), name
    assert inputs("cnf-solve", 1, "a")[1] != inputs("cnf-solve", 2, "a")[1]


if __name__ == "__main__":
    print(json.dumps(summary(sys.argv[1], int(sys.argv[2]))))

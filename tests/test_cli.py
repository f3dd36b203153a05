import random
import time
import tracemalloc

import pytest

from helpers import CORPUS_DIR
from slam.cli import main
from slam.constraints import parse_constraint_file

STREAMS = str(CORPUS_DIR / "streams.slam")
SP = str(CORPUS_DIR / "sp.slam")
TREES = str(CORPUS_DIR / "trees.slam")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_infer_golden(capsys):
    code, out, _ = run(capsys, "infer", STREAMS, "tl")
    assert code == 0 and out.strip() == "forall i. Strm^(i+1) -> Strm^i"


def test_infer_untypable(capsys):
    code, out, _ = run(capsys, "infer", STREAMS, "omega")
    assert code == 1 and out.strip() == "untypable"


def test_infer_porcelain(capsys):
    code, out, _ = run(capsys, "--porcelain", "infer", SP, "run")
    assert code == 0 and out.strip() == "type: SP -> Strm -> Strm"


def test_infer_bot_rendering(capsys):
    code, out, _ = run(capsys, "infer", TREES, "nil")
    assert code == 0 and out.strip() == "List^1(_|_)"


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", STREAMS, "tl", ":",
                       "forall i. Strm^(i+1) -> Strm^i")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "check", STREAMS, "tl", ":", "Strm -> Strm")
    assert code == 1 and out.strip() == "no"
    code, _, err = run(capsys, "check", STREAMS, "tl", ":", "NoSuch")
    assert code == 2 and "error" in err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", STREAMS,
                       "plus (succ zero) (succ (succ zero))", "--depth", "4")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "eval", STREAMS, "nats", "--depth", "3")
    assert code == 0 and out.strip() == "1 :: 2 :: 3 :: _|_"


def test_eval_fuel_limited_note(capsys):
    code, out, _ = run(capsys, "eval", STREAMS, "omega",
                       "--depth", "1", "--fuel", "50")
    assert code == 0
    assert "_|_" in out and "fuel-limited" in out


def test_productivity(capsys):
    code, out, _ = run(capsys, "productivity", SP, "run odd nats",
                       "--type", "Strm", "--depth", "3")
    assert code == 0
    assert out.strip().endswith("PASS")
    code, out, _ = run(capsys, "productivity", STREAMS, "omega",
                       "--type", "Strm", "--depth", "1", "--fuel", "300")
    assert code == 1 and "FAIL at n=1" in out


def test_productivity_on_a_deep_unobservable_type(capsys):
    # the message prints the type as it is written, a run of 5000
    # successors as one numeral
    code, out, err = run(capsys, "productivity", TREES, "wtree",
                         "--type", "Tree^5000")
    assert code == 2 and out == ""
    assert err == "error: type is not observable: Tree^5000\n"


def test_productivity_porcelain(capsys):
    code, out, _ = run(capsys, "--porcelain", "productivity", STREAMS,
                       "zeros", "--type", "Strm", "--depth", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "report.0: ok"
    assert lines[-1] == "verdict: PASS"


@pytest.mark.parametrize("args", [
    (TREES, "bzeros", "--type", "BTree", "--depth", "16"),
    (STREAMS, "omega", "--type", "Strm", "--depth", "2", "--fuel", "300"),
    (STREAMS, "cons zero zero", "--type", "Strm", "--depth", "2"),
], ids=["bzeros", "omega", "no_stream"])
def test_productivity_porcelain_marks_fuel_limited_fails(capsys, args):
    # a depth that fails because fuel ran out reads `fail fuel-limited`,
    # as the plain report marks it; an observed counterexample reads
    # `fail`, and an ok stays `ok` even where fuel cut a branch
    code, plain, _ = run(capsys, "productivity", *args)
    pcode, porcelain, _ = run(capsys, "--porcelain", "productivity", *args)
    assert code == pcode == 1
    rows = plain.splitlines()[:-1]
    want = [f"report.{n}: " + ("ok" if ": ok " in row else
                               "fail fuel-limited" if "fuel-limited" in row
                               else "fail")
            for n, row in enumerate(rows)]
    assert porcelain.splitlines() == want + ["verdict: FAIL"]
    if args[1] == "bzeros":  # the gas tank binds from depth 15 on
        assert want[14:] == ["report.14: ok", "report.15: fail fuel-limited",
                             "report.16: fail fuel-limited"]
    if args[1] == "cons zero zero":
        assert want[-1] == "report.2: fail"


@pytest.mark.parametrize("cmd", [
    ("infer",), ("check", ":", "Nat"), ("eval",),
    ("productivity", "--type", "Strm"),
])
def test_repeated_branch_binder_exit_2(tmp_path, capsys, cmd):
    # typing would read the second x, reduction the first: rejected
    term = "case zeros of { cons x x => x }"
    f = tmp_path / "twice.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text()
                 + f"\ntwice = {term};\n")
    for file, src in ((STREAMS, term), (str(f), "twice")):
        argv = [cmd[0], file, src, *cmd[1:]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "binds x twice" in err, argv


def test_solve(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", str(CORPUS_DIR / "bad.sc"))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "invalid" and "i = 0" in lines[1]
    good = tmp_path / "good.sc"
    good.write_text("let i = min(j, 1);\nassert i <= 1;\n")
    code, out, _ = run(capsys, "solve", str(good))
    assert code == 0 and out.strip() == "valid"


def test_solve_porcelain(tmp_path, capsys):
    code, out, _ = run(capsys, "--porcelain", "solve",
                       str(CORPUS_DIR / "bad.sc"))
    lines = out.strip().splitlines()
    assert code == 1
    assert lines[0] == "verdict: invalid"
    assert "witness.i: 0" in lines


def test_gen_hard_solve_roundtrip(tmp_path, capsys):
    # the bundled formula is satisfiable, so the constraint is invalid
    code, out, _ = run(capsys, "gen-hard", str(CORPUS_DIR / "example.cnf"))
    assert code == 0 and out.startswith("assert ")
    sc = tmp_path / "hard.sc"
    sc.write_text(out)
    code, out, _ = run(capsys, "solve", str(sc))
    assert code == 1 and out.splitlines()[0] == "invalid"
    # the witness, pinned: x = 0 reads as true, so x1 = x2 = x3 = true
    code, out, _ = run(capsys, "--porcelain", "solve", str(sc))
    assert code == 1 and out.splitlines() == [
        "verdict: invalid", "witness.x1: 0", "witness.x1': 2",
        "witness.x2: 0", "witness.x2': 2", "witness.x3: 0", "witness.x3': 2"]
    # an unsatisfiable formula flips the verdict
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    code, out, _ = run(capsys, "gen-hard", str(cnf))
    sc.write_text(out)
    code, out, _ = run(capsys, "solve", str(sc))
    assert code == 0 and out.strip() == "valid"


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.slam"
    bad.write_text("inductive D { }")
    code, _, err = run(capsys, "infer", str(bad), "x")
    assert code == 2 and "empty constructor list" in err


def test_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "neg.slam"
    bad.write_text("inductive Nat { zero : Nat }\n"
                   "coinductive T { mk : (T -> Nat) -> T }\n")
    code, _, err = run(capsys, "infer", str(bad), "zero")
    assert code == 2 and "strictly positive" in err


def test_solve_cyclic_exit_2(tmp_path, capsys):
    cyclic = tmp_path / "cyclic.sc"
    cyclic.write_text("let i = j;\nlet j = i;\nassert i <= j;\n")
    code, out, err = run(capsys, "solve", str(cyclic))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cyclic definition map" in err


def test_gen_hard_bad_token_exit_2(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 0\n1 x2 0\n")
    code, out, err = run(capsys, "gen-hard", str(cnf))
    assert code == 2 and out == ""
    assert err.startswith("error: 3:3: ") and "'x2'" in err


def test_gen_hard_empty_clause_exit_2(tmp_path, capsys):
    # the second 0 ends an empty clause, which makes the formula
    # unsatisfiable; dropping it would make `solve` print invalid
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("1 0 0 2 0\n")
    code, out, err = run(capsys, "gen-hard", str(cnf))
    assert code == 2 and out == ""
    assert err.startswith("error: 1:5: ") and "empty clause" in err


@pytest.mark.parametrize("argv", [
    ("check", "MISSING", "tl", ":", "Strm"),
    ("solve", "MISSING"),
    ("gen-hard", "MISSING"),
    ("check", STREAMS, "tl", "=", "Strm -> Strm"),
    ("productivity", STREAMS, "zeros", "--type", "Nat -> Nat"),
    ("productivity", STREAMS, "zeros", "--type", "Nat"),
    ("gen-hard", "NO_CLAUSES"),
])
def test_error_paths_exit_2(tmp_path, capsys, argv):
    # a missing file, `check` without its `:`, a type productivity cannot
    # observe and a CNF with no clause are errors, not verdicts
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("c no clause follows\np cnf 3 0\n")
    files = {"MISSING": str(tmp_path / "missing"), "NO_CLAUSES": str(cnf)}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_gen_hard_reads_satlib_trailer(tmp_path, capsys):
    # SATLIB files end in a '%' line and a lone 0: the clause list ends
    # at the '%', so the 0 is no empty clause
    body = "p cnf 2 2\n1 -2 0\n2 0\n"
    outs = []
    for name, text in (("plain", body), ("satlib", body + "%\n0\n\n")):
        cnf = tmp_path / f"{name}.cnf"
        cnf.write_text(text)
        outs.append(run(capsys, "gen-hard", str(cnf)))
    assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize("size", ["1000001", "99999999999999999999",
                                  "9" * 5000])
def test_huge_size_numeral_exit_2(tmp_path, capsys, size):
    # a numeral above the parser's limit is refused (and one of 5,000
    # digits is past int()'s default digit limit)
    sc = tmp_path / "big.sc"
    sc.write_text(f"assert i + {size} <= i;")
    code, out, err = run(capsys, "solve", str(sc))
    assert code == 2 and out == ""
    assert err.startswith("error: 1:12: ") and "above the limit" in err
    code, out, err = run(capsys, "check", STREAMS, "zero", ":", f"Nat^{size}")
    assert code == 2 and out == ""
    assert err.startswith("error: 1:5: ") and "above the limit" in err


def test_size_numeral_at_the_limit(tmp_path, capsys, monkeypatch):
    from slam import parser

    monkeypatch.setattr(parser, "MAX_SIZE_NUMERAL", 10)
    sc = tmp_path / "limit.sc"
    sc.write_text("assert i + 10 <= i + 0009;")
    code, out, err = run(capsys, "solve", str(sc))
    assert (code, out, err) == (1, "invalid\ni = 0\n", "")
    sc.write_text("assert i + 11 <= i;")
    code, out, err = run(capsys, "solve", str(sc))
    assert code == 2 and "1:12: size numeral above the limit of 10" in err
    # the cap holds for the sum of a run of +n, at the numeral crossing it
    sc.write_text("assert i+6+4 <= i;")
    code, out, err = run(capsys, "solve", str(sc))
    assert (code, out, err) == (1, "invalid\ni = 0\n", "")
    sc.write_text("assert i+6+5 <= i;")
    code, out, err = run(capsys, "solve", str(sc))
    assert code == 2 and "1:12: size numeral above the limit of 10" in err


def test_too_deep_input_exit_2(capsys, monkeypatch):
    # no input for any command is known to reach a RecursionError: no
    # function in src/ calls itself; the net that maps one to exit 2 stays
    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("slam.cli._cmd_infer", too_deep)
    for porcelain in ((), ("--porcelain",)):
        code, out, err = run(capsys, *porcelain, "infer", STREAMS, "zero")
        assert code == 2 and out == ""
        assert err == "error: input nested too deeply\n"  # no traceback


def test_internal_error_exit_2(capsys, monkeypatch):
    # any other exception is a crash, not a "no": exit 2, one line
    def crash(args):
        raise ValueError("bad state")

    monkeypatch.setattr("slam.cli._cmd_check", crash)
    for porcelain in ((), ("--porcelain",)):
        code, out, err = run(capsys, *porcelain, "check", STREAMS, "zero",
                             ":", "Nat")
        assert (code, out) == (2, "")
        assert err == "error: internal error: ValueError: bad state\n"


def _numeral(k):
    return "succ (" * k + "zero" + ")" * k


@pytest.mark.parametrize("k", [1000, 10_000])
def test_deep_numerals_infer_and_eval(capsys, k):
    # nesting depth is bounded by memory, not by Python's recursion limit
    code, out, err = run(capsys, "infer", STREAMS, _numeral(k))
    assert (code, out, err) == (0, f"Nat^{k + 1}\n", "")
    code, out, err = run(capsys, "eval", STREAMS, _numeral(k))
    assert (code, out, err) == (0, f"{k}\n", "")


def test_eval_binding_chain(tmp_path, capsys):
    # d10 is a 1024-deep numeral built by a 12-line file
    chain = ["d0 = succ zero;"] + [f"d{i} = plus d{i - 1} d{i - 1};"
                                   for i in range(1, 11)]
    f = tmp_path / "chain.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text() + "\n"
                 + "\n".join(chain) + "\n")
    code, out, err = run(capsys, "eval", str(f), "d10")
    assert (code, out, err) == (0, "1024\n", "")


def test_eval_binding_chain_erases_each_binding_once(tmp_path, capsys,
                                                    monkeypatch):
    # d_i = plus d_(i-1) d_(i-1): substituted in, d_k is a tree of 2^k
    # copies of d0 (73,713 nodes erased at k = 12); as one thunk per
    # binding, each binding is erased once, so the nodes erased grow
    # linearly in k.  Nodes are counted, not timed.
    from slam import rewrite

    chain = ["d0 = succ zero;"] + [f"d{i} = plus d{i - 1} d{i - 1};"
                                   for i in range(1, 13)]
    f = tmp_path / "chain.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text() + "\n"
                 + "\n".join(chain) + "\n")
    nodes = {}
    erase_node = rewrite._erase

    def counted(*args):
        nodes[k] += 1
        return erase_node(*args)

    monkeypatch.setattr(rewrite, "_erase", counted)
    for k in (6, 12):
        nodes[k] = 0
        code, out, err = run(capsys, "--porcelain", "eval", str(f), f"d{k}",
                             "--depth", "0", "--fuel", "1000000")
        assert (code, out, err) == (0, f"report.0: {2 ** k}\n", "")
    # `plus d d` is 5 nodes: at most 8 more per binding
    assert nodes[12] - nodes[6] <= 8 * 6


RESOLVED_COMMANDS = [("eval",), ("productivity", "--type", "Strm"),
                     ("infer",), ("check", ":", "Nat")]


@pytest.mark.parametrize("cmd", RESOLVED_COMMANDS)
@pytest.mark.parametrize("defs,cycle", [
    ("loop = succ loop;", "loop -> loop"),
    ("ca = succ cb;\ncb = succ ca;", "ca -> cb -> ca"),
])
def test_a_binding_cycle_is_an_error(tmp_path, capsys, cmd, defs, cycle):
    # a binding that reaches itself has no finite unfolding to run and no
    # finite linked form to type: an error for every command, not a "no"
    f = tmp_path / "cycle.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text() + "\n" + defs
                 + "\n")
    for name in cycle.split(" -> ")[:-1]:
        code, out, err = run(capsys, cmd[0], str(f), name, *cmd[1:])
        assert (code, out, err) == (2, "", f"error: binding cycle: {cycle}\n")


@pytest.mark.parametrize("cmd", RESOLVED_COMMANDS)
def test_an_ill_formed_binding_is_reported_once(tmp_path, capsys, cmd):
    # each reached binding is checked once, in file order, then the query
    f = tmp_path / "bad.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text()
                 + "\nworse = case zero of { nada => zero };\n"
                 + "bad = case zero of { zero => zero; nope => zero };\n"
                 + "twice = plus (plus bad bad) worse;\n")
    code, out, err = run(capsys, cmd[0], str(f),
                         "case twice of { zip => twice }", *cmd[1:])
    assert (code, out) == (2, "")
    assert err == "error: " + "\n".join(
        f"unknown constructor {c} in case" for c in ("nada", "nope", "zip")
    ) + "\n"


def test_non_ascii_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "infer", STREAMS, "tl [\u00b2] zeros")
    assert code == 2 and out == ""
    assert err == "error: 1:5: unexpected character '\u00b2'\n"


def _let_chain(last: str, assertion: str) -> str:
    # written last to first: each definition uses the next line's variable
    lines = [f"let i{k} = i{k - 1}+1;" for k in range(1999, 0, -1)]
    return "\n".join(lines + [f"let i0 = {last};", assertion]) + "\n"


def test_solve_long_definition_chain(tmp_path, capsys):
    sc = tmp_path / "chain.sc"
    sc.write_text(_let_chain("0", "assert i1999 <= i1999+1;"))
    code, out, err = run(capsys, "solve", str(sc))
    assert (code, out, err) == (0, "valid\n", "")
    sc.write_text(_let_chain("j", "assert i1999 <= j+5;"))
    code, out, err = run(capsys, "--porcelain", "solve", str(sc))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "verdict: invalid"
    witness = {}
    for line in lines[1:]:
        key, value = line.split(": ")
        witness[key.removeprefix("witness.")] = int(value)
    assert set(witness) == {f"i{k}" for k in range(2000)} | {"j"}
    assert witness["i0"] == witness["j"]
    assert all(witness[f"i{k}"] == witness[f"i{k - 1}"] + 1
               for k in range(1, 2000))
    assert not witness["i1999"] <= witness["j"] + 5


def test_eval_deep_value(capsys):
    # the printed value is scanned for fuel-cut branches without recursion
    code, out, err = run(capsys, "eval", STREAMS, "zeros", "--depth", "450")
    assert code == 0 and err == ""
    assert out == "0 :: " * 450 + "_|_\n"


@pytest.mark.parametrize("budget", [("--fuel", "0"), ("--depth", "-1")])
@pytest.mark.parametrize("cmd", [("eval", STREAMS, "zeros"),
                                 ("productivity", STREAMS, "zeros",
                                  "--type", "Strm")])
def test_bad_budget_exit_2(capsys, cmd, budget):
    for porcelain in ((), ("--porcelain",)):
        code, out, err = run(capsys, *porcelain, *cmd, *budget)
        assert code == 2 and out == ""
        assert err == ("error: fuel must be positive "
                       "and depth non-negative\n")  # no traceback


@pytest.mark.parametrize("depth", [2000, 10000])
def test_eval_deeper_than_the_recursion_limit(capsys, depth):
    code, out, err = run(capsys, "eval", STREAMS, "zeros", "--depth",
                         str(depth))
    assert (code, err) == (0, "")
    assert out == "0 :: " * depth + "_|_\n"


def test_main_called_repeatedly_matches_single_calls(tmp_path, capsys):
    # the parser is built once per process; parsing it again must not
    # carry anything from one call into the next
    from slam.cli import _parser

    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    calls = [
        ("infer", STREAMS, "tl"),
        ("--porcelain", "infer", SP, "run"),
        ("check", STREAMS, "tl", ":", "Strm -> Strm"),
        ("eval", STREAMS, "nats", "--depth", "3"),
        ("eval", STREAMS, "omega", "--depth", "1", "--fuel", "50"),
        ("--porcelain", "productivity", STREAMS, "zeros", "--type", "Strm",
         "--depth", "2"),
        ("productivity", SP, "run odd nats", "--type", "Strm"),
        ("solve", str(CORPUS_DIR / "bad.sc")),
        ("--porcelain", "solve", str(CORPUS_DIR / "bad.sc")),
        ("gen-hard", str(cnf)),
        ("eval", STREAMS, "zeros", "--fuel", "0"),
        ("infer", STREAMS, "no_such_name"),
    ]
    single = []
    for argv in calls:
        _parser.cache_clear()
        single.append(run(capsys, *argv))
    assert _parser() is _parser()
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == single
    assert [run(capsys, *argv) for argv in reversed(calls)] == single[::-1]
    assert len({code for code, _, _ in single}) == 3  # 0, 1 and 2 all seen


# Deep sizes and types: each of these ran into Python's recursion limit
# while sizes and types were walked recursively.

def test_check_deep_numeral(capsys):
    code, out, err = run(capsys, "check", STREAMS, _numeral(10_000), ":",
                         "Nat^10001")
    assert (code, out, err) == (0, "yes\n", "")


def test_infer_plus_of_deep_numeral(capsys):
    code, out, err = run(capsys, "infer", STREAMS,
                         f"plus ({_numeral(10_000)}) zero")
    assert (code, out, err) == (0, "Nat\n", "")


def test_deep_arrow_type(capsys):
    arrows = " -> ".join(["Nat"] * 10_001)
    code, out, err = run(capsys, "infer", STREAMS, f"\\x : {arrows} . x")
    assert (code, out, err) == (0, f"({arrows}) -> {arrows}\n", "")
    code, out, err = run(capsys, "check", STREAMS, f"\\x : {arrows} . x",
                         ":", f"({arrows}) -> {arrows}")
    assert (code, out, err) == (0, "yes\n", "")


@pytest.mark.parametrize("assertion, want", [
    ("max({})+1 <= i0", (1, "invalid\n")),
    ("min({}) <= i0", (0, "valid\n")),
])
def test_solve_wide_min_max(tmp_path, capsys, assertion, want):
    sc = tmp_path / "wide.sc"
    names = ", ".join(f"i{k}" for k in range(10_000))
    sc.write_text(f"assert {assertion.format(names)};\n")
    code, out, err = run(capsys, "solve", str(sc))
    assert (code, out.splitlines(True)[0], err) == (*want, "")


def test_gen_hard_output_parses_back(tmp_path, capsys):
    from slam import SizeConstraint, Succ, encode_3cnf, parse_constraint_file
    from slam.constraints import parse_cnf_dimacs

    rng = random.Random(7)
    lines = ["p cnf 40 1200"] + [
        " ".join(str(rng.choice((-1, 1)) * rng.randint(1, 40))
                 for _ in range(3)) + " 0" for _ in range(1200)]
    cnf = tmp_path / "f.cnf"
    cnf.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "gen-hard", str(cnf))
    assert code == 0 and err == ""
    s1, s2 = encode_3cnf(parse_cnf_dimacs(cnf.read_text()))
    assert parse_constraint_file(out) == SizeConstraint({}, [(Succ(s2), s1)])


def test_productivity_deep(capsys):
    # every depth up to 400 is observed and checked afresh, so the cost
    # grows with the square of the depth; 10^4 is checked in the library
    code, out, err = run(capsys, "productivity", STREAMS, "zeros", "--type",
                         "Strm", "--depth", "400")
    assert (code, err) == (0, "")
    assert out.endswith("400: ok (nodes=801, fuelUsed=1203)\nPASS\n")


# Deep terms: each of these ran into Python's recursion limit while the
# term and plain-term walkers recursed.

def _succs(k, x):
    return "succ (" * k + x + ")" * k


def test_eval_beta_into_a_deep_body(capsys):
    # substitution into a 3,000-deep body
    code, out, err = run(capsys, "eval", STREAMS,
                         f"(\\x : Nat. {_succs(3000, 'x')}) zero")
    assert (code, out, err) == (0, "3000\n", "")
    # a 10,000-binder chain, applied to 10,000 arguments
    chain = "".join(f"\\x{i} : Nat. " for i in range(10_000))
    code, out, err = run(capsys, "eval", STREAMS,
                         f"({chain}x0) (succ zero)" + " zero" * 9_999)
    assert (code, out, err) == (0, "1\n", "")


def test_eval_links_a_deep_binding(tmp_path, capsys):
    # a 3,000-deep binding over z, both erased once and entered as thunks
    f = tmp_path / "deep.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text()
                 + f"\nz = zero;\nd = {_succs(3000, 'z')};\n")
    code, out, err = run(capsys, "eval", str(f), "d")
    assert (code, out, err) == (0, "3000\n", "")


def test_infer_untypable_deep_application(capsys):
    # the failure message prints the whole failing term
    code, out, err = run(capsys, "infer", STREAMS,
                         f"({_succs(5000, 'zero')}) zero")
    assert (code, out, err) == (1, "untypable\n", "")


def test_eval_nested_case_heads(capsys):
    # whnf of a case whose scrutinee is a case, 3,000 deep
    t = "zero"
    for _ in range(3000):
        t = f"case {t} of {{ zero => succ zero; succ y => y }}"
    code, out, err = run(capsys, "eval", STREAMS, t)
    assert (code, out, err) == (0, "0\n", "")


def test_eval_long_binding_chain(tmp_path, capsys):
    # b_i = succ b_(i-1): each binding one thunk, whose argument is the
    # thunk of the one before
    f = tmp_path / "chain.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text() + "\nb0 = zero;\n"
                 + "".join(f"b{i} = succ b{i - 1};\n" for i in range(1, 401)))
    code, out, err = run(capsys, "eval", str(f), "b400")
    assert (code, out, err) == (0, "400\n", "")


def test_productivity_of_a_rational_tree_is_not_exponential(capsys,
                                                             monkeypatch):
    # bzeros = bnode zero t t has 3*2^n - 2 approximant nodes at depth n
    # but about 3n distinct subterms; the report reduces each thunk once
    # and observes each shared one once per depth, so the machine runs
    # O(depth) times and the approximants share their nodes.  Calls are
    # counted, not timed.
    from slam import rewrite
    from slam.rewrite import Constr

    depth = 14
    counts = {"runs": 0, "Constr": 0}
    machine, init = rewrite._run, Constr.__init__

    def counted_run(*args):
        counts["runs"] += 1
        return machine(*args)

    def counted_init(self, *args, **kw):
        counts["Constr"] += 1
        init(self, *args, **kw)

    monkeypatch.setattr(rewrite, "_run", counted_run)
    monkeypatch.setattr(Constr, "__init__", counted_init)
    code, out, err = run(capsys, "--porcelain", "productivity", TREES,
                         "bzeros", "--type", "BTree", "--depth", str(depth))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "verdict: PASS"
    assert counts["runs"] <= 2 * (depth + 1)
    # O(depth) nodes per depth, against 3*2^depth for the tree at depth 14
    assert counts["Constr"] <= 3 * sum(n + 1 for n in range(depth + 1))
    counts.update(runs=0, Constr=0)
    code, out, err = run(capsys, "productivity", TREES, "bzeros", "--type",
                         "BTree", "--depth", str(depth))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{n}: ok (nodes={3 * 2 ** n - 2}, fuelUsed={6 * 2 ** n - 3})"
        for n in range(depth + 1)] + ["PASS"]
    assert counts["runs"] <= 2 * (depth + 1)
    assert counts["Constr"] <= 3 * sum(n + 1 for n in range(depth + 1))


def test_infer_finds_the_reach_sets_once_per_query(tmp_path, capsys,
                                                   monkeypatch):
    # b_i = succ b_(i-1): a scan of the bindings per binding made infer
    # quadratic in the chain; the reach sets are found once per query.
    # Calls are counted, not timed.
    from slam.parser import SlamFile

    n = 200
    f = tmp_path / "chain.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text() + "\nb0 = zero;\n"
                 + "".join(f"b{i} = succ b{i - 1};\n" for i in range(1, n + 1)))
    calls = []
    reached = SlamFile.reached
    monkeypatch.setattr(SlamFile, "reached",
                        lambda self, *a, **k: calls.append(a) or
                        reached(self, *a, **k))
    code, out, err = run(capsys, "infer", str(f), f"b{n}")
    assert (code, out, err) == (0, f"Nat^{n + 1}\n", "")
    assert len(calls) == 1
    calls.clear()
    code, out, err = run(capsys, "check", str(f), f"b{n}", ":", f"Nat^{n + 1}")
    assert (code, out, err) == (0, "yes\n", "")
    assert len(calls) == 1


def test_infer_makes_size_binders_unique_once(capsys, monkeypatch):
    # inference makes a query's size binders unique in one walk of the
    # numeral; a query that refers to no context entry costs no walk for
    # its size names and renames no context quantifier
    from slam import typecheck

    calls = {}
    for name in ("uniquify_size_binders", "size_names",
                 "rename_binders_apart"):
        calls[name] = []
        monkeypatch.setattr(typecheck, name,
                            lambda t, *a, f=getattr(typecheck, name),
                            seen=calls[name]: seen.append(t) or f(t, *a))
    k = 1600
    code, out, err = run(capsys, "infer", STREAMS,
                         "succ (" * k + "zero" + ")" * k)
    assert (code, out, err) == (0, f"Nat^{k + 1}\n", "")
    assert {name: len(seen) for name, seen in calls.items()} == \
        {"uniquify_size_binders": 1, "size_names": 0,
         "rename_binders_apart": 0}


def test_infer_joins_deep_branch_types(capsys):
    # the branch types are 1,500 arrows deep; their join is one loop
    chain = "".join(f"\\x{i} : Nat. " for i in range(1, 1501)) + "zero"
    code, out, err = run(capsys, "infer", STREAMS, f"\\n : Nat. case n of "
                         f"{{ zero => {chain}; succ m => {chain} }}")
    assert (code, out, err) == (0, "Nat -> " * 1501 + "Nat^1\n", "")


def test_traced_benchmark_finds_every_layer_function():
    # the traced benchmark run (bench/spans.py, stdlib only) wraps each
    # layer function by name in its slam module; one that is gone makes
    # `Recorder.install` fail
    import importlib
    import importlib.util

    path = CORPUS_DIR.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fns in spans.LAYERS.items()
               for fn in fns if not callable(getattr(
                   importlib.import_module(f"slam.{mod}"), fn, None))]
    assert spans.LAYERS and missing == []


# A run of successors is one node, so typing and parsing cost no more for
# a long run than for a short one.  The budgets are several times what
# the inputs take.

def test_infer_a_binding_chain_of_successors(tmp_path, capsys):
    # b1500 links to a 1500-deep numeral; each typing step extends a run
    chain = ["b0 = zero;"] + [f"b{i} = succ b{i - 1};"
                              for i in range(1, 1501)]
    f = tmp_path / "chain.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text() + "\n"
                 + "\n".join(chain) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "infer", str(f), "b1500")
    assert (code, out, err) == (0, "Nat^1501\n", "")
    assert time.perf_counter() - start < 1.0


def test_a_parenthesised_run_continues_the_run(tmp_path, capsys):
    # each numeral is within the parser's limit; their sum is not
    text = "assert ((i+1000000)+1000000) <= i;\n"
    tracemalloc.start()
    try:
        parse_constraint_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    sc = tmp_path / "runs.sc"
    sc.write_text(text)
    code, out, err = run(capsys, "solve", str(sc))
    assert (code, out, err) == (1, "invalid\ni = 0\n", "")


def test_infer_an_annotation_with_a_long_run(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "infer", STREAMS,
                         "\\x : Nat^((999999)+999999). x")
    assert (code, out, err) == (0, "Nat^1999998 -> Nat^1999998\n", "")
    assert time.perf_counter() - start < 2.0


def test_check_and_infer_do_not_depend_on_size_binder_spelling(capsys):
    # beside the annotation's `i`, the term's `/\i` becomes i_1 and its
    # `/\i_1` becomes i_1_1; the annotation `Nat^i` must follow the outer
    # binder to i_1, not both renamings on to i_1_1
    from slam import alpha_eq, parse_slam, parse_type

    with open(STREAMS) as f:
        reg = parse_slam(f.read()).registry
    want = "(forall i. Nat^i -> Nat^i) -> forall i. forall j. Nat^i -> Nat^i"
    types = []
    for ann, inner in (("i", "i_1"), ("k", "i_1"), ("i", "k")):
        term = (f"\\y : forall {ann}. Nat^{ann} -> Nat^{ann}. "
                f"/\\i. /\\{inner}. \\x : Nat^i. x")
        assert run(capsys, "check", STREAMS, term, ":", want) == \
            (0, "yes\n", ""), term
        code, out, err = run(capsys, "infer", STREAMS, term)
        assert (code, err) == (0, ""), term
        types.append(parse_type(out, reg))
    assert all(alpha_eq(types[0], ty) for ty in types), types
    assert alpha_eq(types[0], parse_type(want, reg))


def test_a_case_of_quantified_branches_instantiates_both(tmp_path, capsys):
    # the branches' join has one binder, aliased from both sides, so the
    # size application reaches each; inline or as a binding, the same
    f = tmp_path / "pick.slam"
    f.write_text((CORPUS_DIR / "streams.slam").read_text()
                 + "idn = /\\k. \\y : Nat^k. y;\n"
                 "pick = \\b : Nat. case b of { zero => /\\i. \\x : Nat^i. x;"
                 " succ m => idn };\n")
    for term in ("(\\b : Nat. case b of { zero => /\\i. \\x : Nat^i. x; "
                 "succ m => idn }) zero [2] (succ zero)",
                 "pick zero [2] (succ zero)"):
        assert run(capsys, "infer", str(f), term) == (0, "Nat^2\n", ""), term


def test_a_shape_quantifier_does_not_escape_into_the_type(tmp_path, capsys):
    f = tmp_path / "gt.slam"
    f.write_text("inductive Nat { zero : Nat; succ : Nat -> Nat }\n"
                 "coinductive GT(A) { gn : (forall i. Nat^i -> A) -> GT(A) }\n"
                 "g = /\\i. \\m : Nat^i. gn (/\\k. \\n : Nat^k. n);\n")
    assert run(capsys, "infer", str(f), "g") == \
        (0, "forall i. Nat^i -> GT(Nat)\n", "")
    assert run(capsys, "check", str(f), "g", ":",
               "forall i. Nat^i -> GT(Nat^i)") == (1, "no\n", "")


def test_a_quantifier_stored_in_a_pair_is_instantiated_afresh(tmp_path,
                                                              capsys):
    # f's type enters the context from a case binder, so each size
    # application opens its quantifier on a copy of U; reading the first
    # application's size at the second gave `Strm^5` for snd, which fails
    # to be productive at n=1
    f = tmp_path / "reuse.slam"
    f.write_text("inductive P(A, B) { mk : A -> B -> P(A, B) }\n"
                 + (CORPUS_DIR / "streams.slam").read_text()
                 + "one = cons zero stuckstream;\n"
                 "both = case mk (/\\i. \\s : Strm^(i+1). case s of "
                 "{ cons x t => t }) zero of "
                 "{ mk f y => mk (f [5] zeros) (f [0] one) };\n"
                 "snd = case both of { mk a b => b };\n")
    assert run(capsys, "infer", str(f), "both") == \
        (0, "P^1(Strm^5, Strm^0)\n", "")
    assert run(capsys, "check", str(f), "snd", ":", "Strm^5") == \
        (1, "no\n", "")
    assert run(capsys, "check", str(f), "snd", ":", "Strm^0") == \
        (0, "yes\n", "")
    code, out, _ = run(capsys, "productivity", str(f), "snd", "--type", "Strm")
    assert code == 1 and out.endswith("FAIL at n=1\n")

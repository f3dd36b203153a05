"""Command-line frontend.

Subcommands: check, infer, eval, productivity, solve, gen-hard.  Exit
codes are the success signal: 0 for yes/valid/PASS, 1 for no/invalid/FAIL
or untypable, 2 for errors (diagnostics on stderr): parse and validation
errors, a binding cycle the query reaches, and any crash.
With --porcelain the output is line-oriented `key: value` text with keys
`type`, `verdict`, `witness.<var>`, `report.<n>`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .constraints import (
    CyclicDefMap, SizeConstraint, encode_3cnf, format_constraint, is_valid,
    parse_cnf_dimacs, parse_constraint_file,
)
from .parser import ParseError, SlamFile, parse_slam, parse_term, parse_type
from .printer import print_type
from .rewrite import (
    Approximant, Bottom, Constr, EvalBudget, NonObservableType, Opaque,
    approximant, closure, erase, productivity_check,
)
from .sizes import INF
from .syntax import (
    Coind, DefRegistry, PLam, RegistryError, Succ, Term, Type, check_term_wf,
    check_type_wf, depth_first_order, fsv, rename_binders_apart,
    size_names, substitute, tv, uniquify_size_binders, validate_registry,
)
from .typecheck import check, minimal_type


class CliError(Exception):
    pass


def _load_slam(path: str) -> SlamFile:
    try:
        with open(path) as f:
            src = f.read()
    except OSError as e:
        raise CliError(str(e))
    sf = parse_slam(src)
    diags = validate_registry(sf.registry)
    if diags:
        raise CliError("\n".join(f"{path}: {d}" for d in diags))
    return sf


def _check_wf(ts: list[Term], reg: DefRegistry) -> None:
    diags = [d for t in ts for d in check_term_wf(t, reg)]
    if diags:
        raise CliError("\n".join(map(str, diags)))


def _resolve(sf: SlamFile, src: str) -> tuple[Term, list[str]]:
    """The query and the bindings it reaches, each after the bindings it
    refers to.  The bindings are checked in file order, then the query,
    and all their diagnostics are listed at once.  A cycle among them is
    an error."""
    t = parse_term(src, sf.registry)
    reached = sf.reached(t)
    _check_wf([*(sf.bindings[n] for n in reached), t], sf.registry)
    order, cycle = depth_first_order(reached, sf.refs)
    if cycle is not None:
        raise CliError("binding cycle: " + " -> ".join(cycle))
    return t, order


def _resolve_term(sf: SlamFile, src: str):
    """The query as a closure over the bindings it reaches, each erased
    once and shared by every use."""
    t, order = _resolve(sf, src)
    return closure(erase(t), {n: erase(sf.bindings[n]) for n in order})


def _typing_problem(sf: SlamFile, src: str) -> tuple[dict[str, Type], Term]:
    """The query with the bindings it reaches inlined or typed once, and
    a context of the typed ones it refers to.

    Each binding is visited after the bindings it refers to, with the
    inlined ones among those substituted into it.  It enters the context
    with its minimal type when its body types in the context built so
    far, has a type without free size variables, and none of the body's
    free size variables is named around its uses: in the query or in a
    binding the query reaches without going through it.  Any other
    binding (untypable, or meant to have a size variable captured where
    it is used) is inlined by substitution, so the query gets the minimal
    type it has with every binding linked in.
    """
    q, order = _resolve(sf, src)
    named: dict[Optional[str], frozenset[str]] = {}
    gamma: dict[str, Type] = {}
    inlined: dict[str, Term] = {}
    for name in order:
        body = _inline(sf.bindings[name], sf.refs(name), inlined)
        shared = fsv(body)
        if shared:
            shared &= _names_around(sf, q, name, named)
        ty = None if shared else minimal_type(sf.registry,
                                              *_apart(gamma, body))
        if ty is None or fsv(ty):
            inlined[name] = body
        else:
            gamma[name] = ty
    return _apart(gamma, _inline(q, sorted(q.fv), inlined))


def _inline(t: Term, refs: list[str], inlined: dict[str, Term]) -> Term:
    """t with the inlined body of each binding in `refs`, the bindings t
    refers to, put in at once; each body already holds its own."""
    return substitute(t, [(n, inlined[n]) for n in refs if n in inlined])


def _names_around(sf: SlamFile, q: Term, name: str,
                  named: dict[Optional[str], frozenset[str]]
                  ) -> frozenset[str]:
    """The size variables named in the query or in a binding it reaches
    without going through binding `name`.  `named` keeps the names of
    each binding, and of the query under None, found once per query."""
    around = [None, *sf.reached(q, avoid=name)]
    for n in around:
        if n not in named:
            named[n] = size_names(q if n is None else sf.bindings[n])
    return frozenset().union(*(named[n] for n in around))


def _apart(gamma: dict[str, Type], t: Term) -> tuple[dict[str, Type], Term]:
    """t with unique size binders, and the context entries t refers to
    with their quantifiers renamed apart from every size variable t
    names, as linking renames the binders of an inlined body.  A term
    that refers to none is returned as it is: inference makes its size
    binders unique."""
    if gamma.keys().isdisjoint(t.fv):
        return {}, t
    t = uniquify_size_binders(t)
    avoid = size_names(t)
    return {n: rename_binders_apart(gamma[n], avoid)
            for n in t.fv if n in gamma}, t


def _parse_checked_type(sf: SlamFile, src: str):
    ty = parse_type(src, sf.registry)
    diags = check_type_wf(ty, sf.registry)
    if diags or tv(ty):
        raise CliError("type is not well-formed: " + src)
    return ty


# ---------------------------------------------------------------------------
# Approximant rendering

def render_approximant(a: Approximant, reg: DefRegistry) -> str:
    """The text of an approximant.

    A node that occurs more than once is rendered once: where its text
    begins and ends in `out` is kept, and the text is joined into one
    string when the node is met again.  A numeral's value is kept too,
    so a longer numeral that shares its tail stops counting there."""
    sugar_nat = reg.constructor("zero") is not None \
        and reg.constructor("succ") is not None
    sugar_cons = reg.constructor("cons") is not None
    numerals: dict[int, int] = {}  # id of a succ node -> its numeral

    def succ_chain(a: Approximant) -> tuple[int, Optional[Approximant]]:
        """(n, tail) with a = succ^n tail; tail is None when a is a
        numeral, and then n is its value."""
        n = 0
        while isinstance(a, Constr) and a.con == "succ" and len(a.children) == 1:
            if numerals and id(a) in numerals:
                return n + numerals[id(a)], None
            n += 1
            a = a.children[0]
        if isinstance(a, Constr) and a.con == "zero" and not a.children:
            return n, None
        return n, a

    # An explicit stack of text pieces, (node, atom) items still to
    # render and the keys of nodes whose text ends there, pushed last
    # piece first, so deep values need no deep Python stack.  The text
    # of a node rendered as an atom or not differs: its key is 2*id +
    # atom.
    out: list[str] = []
    begins: dict[int, object] = {}  # key -> index in out, or its text
    ends: dict[int, int] = {}
    work: list = [(a, False)]
    push = work.append
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is int:
            ends[item] = len(out)
            continue
        a, atom = item
        if type(a) is Bottom:
            out.append("_|_")
            continue
        if type(a) is Opaque:
            out.append("<fun>" if isinstance(a.term, PLam) else "<stuck>")
            continue
        con, kids = a.con, a.children
        if not kids:
            out.append("0" if sugar_nat and con == "zero" else con)
            continue
        key = 2 * id(a) + atom
        text = begins.get(key)
        if text is not None:  # met before: where its text begins, or it
            if type(text) is int:
                text = begins[key] = "".join(out[text:ends[key]])
            out.append(text)
            continue
        n = 0
        if sugar_nat and con == "succ":
            n, tail = succ_chain(a)
            if tail is None:
                numerals[id(a)] = n
                out.append(str(n))
                continue
        begins[key] = len(out)
        push(key)
        if atom:
            push(")")
        if n:  # a chain that is no numeral is pushed whole: linear time
            push(")" * (n - 1))
            push((tail, True))
            push("succ " + "(succ " * (n - 1))
        elif sugar_cons and con == "cons" and len(kids) == 2:
            push((kids[1], False))
            push(" :: ")
            push((kids[0], True))
        else:
            for k in reversed(kids):
                push((k, True))
                push(" ")
            push(con)
        if atom:
            push("(")
    return "".join(out)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_check(args) -> int:
    sf = _load_slam(args.file)
    if args.colon != ":":
        raise CliError("usage: check FILE TERM : TYPE")
    gamma, t = _typing_problem(sf, args.term)
    ty = _parse_checked_type(sf, args.type)
    ok = check(sf.registry, gamma, t, ty)
    if args.porcelain:
        print(f"verdict: {'ok' if ok else 'fail'}")
    else:
        print("yes" if ok else "no")
    return 0 if ok else 1


def _cmd_infer(args) -> int:
    sf = _load_slam(args.file)
    gamma, t = _typing_problem(sf, args.term)
    ty = minimal_type(sf.registry, gamma, t)
    if ty is None:
        print("verdict: untypable" if args.porcelain else "untypable")
        return 1
    rendered = print_type(ty)
    print(f"type: {rendered}" if args.porcelain else rendered)
    return 0


def _budget(args) -> EvalBudget:
    try:
        return EvalBudget(fuel=args.fuel, depth=args.depth)
    except ValueError as e:
        raise CliError(str(e)) from None


def _cmd_eval(args) -> int:
    budget = _budget(args)
    sf = _load_slam(args.file)
    t = _resolve_term(sf, args.term)
    a = approximant(t, budget, sf.registry)
    rendered = render_approximant(a, sf.registry)
    if args.porcelain:
        print(f"report.0: {rendered}")
    else:
        print(rendered)
        if a.limited:
            print("note: some branches were cut by the fuel limit "
                  "(fuel-limited)")
    return 0


def _cmd_productivity(args) -> int:
    budget = _budget(args)
    sf = _load_slam(args.file)
    t = _resolve_term(sf, args.term)
    ty = _parse_checked_type(sf, args.type)
    if not isinstance(ty, Coind):
        raise CliError("--type must name a coinductive type")
    try:
        report = productivity_check(t, ty, sf.registry, budget)
    except NonObservableType as e:
        raise CliError(str(e))
    if args.porcelain:
        for d in report.verdicts:
            verdict = "ok" if d.ok else \
                "fail fuel-limited" if d.fuel_limited else "fail"
            print(f"report.{d.depth}: {verdict}")
        print(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    else:
        print(report.render())
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    try:
        with open(args.constraints) as f:
            src = f.read()
    except OSError as e:
        raise CliError(str(e))
    c = parse_constraint_file(src)
    try:
        res = is_valid(c)
    except CyclicDefMap as e:
        raise CliError(f"{args.constraints}: {e}") from None
    if res.valid:
        print("verdict: valid" if args.porcelain else "valid")
        return 0
    print("verdict: invalid" if args.porcelain else "invalid")
    for name, value in sorted(res.witness.items()):
        shown = "oo" if value == INF else int(value)
        if args.porcelain:
            print(f"witness.{name}: {shown}")
        else:
            print(f"{name} = {shown}")
    return 1


def _cmd_gen_hard(args) -> int:
    try:
        with open(args.cnffile) as f:
            src = f.read()
    except OSError as e:
        raise CliError(str(e))
    clauses = parse_cnf_dimacs(src)
    if not clauses:
        raise CliError("no clauses in CNF input")
    s1, s2 = encode_3cnf(clauses)
    # the formula is unsatisfiable exactly when s1 >= s2+1 is valid
    sys.stdout.write(format_constraint(SizeConstraint({}, [(Succ(s2), s1)])))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each `main` call only parses."""
    ap = argparse.ArgumentParser(
        prog="slam",
        description="sized (co)inductive lambda calculus tools")
    ap.add_argument("--porcelain", action="store_true",
                    help="machine-readable line-oriented output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="check a term against a type")
    p.add_argument("file")
    p.add_argument("term")
    p.add_argument("colon", metavar=":")
    p.add_argument("type")

    p = sub.add_parser("infer", help="print the minimal type of a term")
    p.add_argument("file")
    p.add_argument("term")

    p = sub.add_parser("eval", help="print a depth-bounded approximant")
    p.add_argument("file")
    p.add_argument("term")
    _budget_options(p)

    p = sub.add_parser("productivity",
                       help="depth-by-depth productivity report")
    p.add_argument("file")
    p.add_argument("term")
    p.add_argument("--type", required=True)
    _budget_options(p)

    p = sub.add_parser("solve", help="decide a size-constraint file")
    p.add_argument("constraints")

    p = sub.add_parser("gen-hard",
                       help="encode a DIMACS CNF as a size constraint")
    p.add_argument("cnffile")
    return ap


def _budget_options(p: argparse.ArgumentParser) -> None:
    """--depth and --fuel, defaulting to those of `EvalBudget`."""
    default = EvalBudget()
    p.add_argument("--depth", type=int, default=default.depth)
    p.add_argument("--fuel", type=int, default=default.fuel)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name at each call, not kept in the cached parser
    command = globals()["_cmd_" + args.cmd.replace("-", "_")]
    try:
        return command(args)
    except (ParseError, RegistryError, CliError, NonObservableType) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except Exception as e:  # a crash is no verdict: exit 2, never 1
        print(f"error: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

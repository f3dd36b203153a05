"""Differential tests: the iterative walkers against recursive references.

Parser, tokenizer, term and size walkers, inference and approximants
keep their own stacks so that nesting depth costs heap, not Python
stack.  Each must give exactly what the recursive form it replaced
gives (kept in `helpers`), on every corpus term and every subterm, and
on seeded random input.
"""

import random

import pytest

from helpers import (
    CORPUS_DIR, annotation_binders_reference, approx_reference,
    check_term_wf_reference, const_value_reference, context_terms,
    corpus_terms, erase_reference, expand_reference, fsv_term_reference,
    infer_state, link_all, load, parse_term_reference, rand_plain,
    rand_size, rand_term, rand_type, render_approximant_reference,
    sv_reference, term_free_vars_reference,
    tokenize_reference, topo_order_reference,
    uniquify_size_binders_reference,
)
from slam import (
    INFTY, ZERO, App, Branch, Case, Cofix, Coind, Con, Fix, Lam, PLam,
    PVar, ParseError, SVar, SizeApp, SizeLam, Succ, TyVar, Var, parse_term,
    print_term, size_const, sv,
)
from slam.constraints import _topo_order, check_acyclic, expand
from slam.cli import render_approximant
from slam.parser import tokenize
from slam.rewrite import (
    Bottom, Constr, EvalBudget, Opaque, _approx, approximant, erase,
)
from slam.sizes import const_value
from slam.syntax import (
    _annotation_binders, check_term_wf, fsv_term, term_free_vars,
    uniquify_size_binders,
)


def subterms(t):
    """Every subterm of a decorated term, t first."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, App):
            stack += [t.fun, t.arg]
        elif isinstance(t, SizeApp):
            stack.append(t.fun)
        elif isinstance(t, Case):
            stack.append(t.scrutinee)
            stack += [b.body for b in t.branches]
        elif isinstance(t, (Lam, SizeLam, Fix, Cofix)):
            stack.append(t.body)
        else:
            assert isinstance(t, (Var, Con))
    return out


def _terms():
    """(registry, term): every corpus term and subterm, then random terms."""
    out = [(reg, s) for _label, reg, t in corpus_terms() for s in subterms(t)]
    reg = load("streams").registry
    rng = random.Random(5)
    out += [(reg, rand_term(rng, reg, rng.randint(1, 5))) for _ in range(400)]
    return out


TERMS = _terms()


# ---------------------------------------------------------------------------
# Tokenizer and parser

_ALPHABET = (list("abxyz_'019 \t\n()[]{}^,;:.=+-#<>/\\@") + ["->", "=>", "/\\",
             "<=", "--", "é", "ß", "Ⅻ", "½", "²", "٣", "\r", "succ", "case",
             "of", "zero", "tl", "oo"])


def _non_ascii_digit(ch: str) -> bool:
    return ch.isdigit() and ch not in "0123456789"


def _tokens(toks):
    return [(t.kind, t.text, t.line, t.col) for t in toks]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ParseError as e:
        return "error", (e.message, e.line, e.col)


def _random_sources(seed: int, n: int):
    rng = random.Random(seed)
    return ["".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 30)))
            for _ in range(n)]


def test_tokenize_matches_reference():
    sources = [p.read_text() for p in sorted(CORPUS_DIR.iterdir())]
    sources += ["", "x -- trailing comment", "x # comment\n  y", "a\tb\r\nc",
                "f' x_1 é", "1x", "<", "/", "-x"]
    sources += _random_sources(3, 3000)
    differ = 0
    for src in sources:
        want = _outcome(tokenize_reference, src)
        got = _outcome(tokenize, src)
        if want[0] == "ok":
            want = "ok", _tokens(want[1])
        if got[0] == "ok":
            got = "ok", _tokens(got[1])
        if got == want:
            continue
        # the one allowed difference: a non-ASCII digit outside an
        # identifier is no longer read as a number
        differ += 1
        assert got[0] == "error", src
        message, line, col = got[1]
        ch = src.split("\n")[line - 1][col - 1]
        assert message == f"unexpected character {ch!r}", src
        assert _non_ascii_digit(ch), src
    assert differ  # the random sources reach that difference


@pytest.mark.parametrize("src", ["[²]", "1²", "٣", "tl [²] zeros"])
def test_non_ascii_digits_are_not_numbers(src):
    assert any(t.kind == "num" for t in tokenize_reference(src))
    with pytest.raises(ParseError, match="unexpected character"):
        tokenize(src)


def test_parse_term_matches_reference():
    sources = [print_term(t) for _reg, t in TERMS]
    reg = load("streams").registry
    rng = random.Random(11)
    # token-level mutations: dropped, doubled and swapped tokens
    mutated = []
    for src in sources[:600]:
        toks = src.split(" ")
        for _ in range(3):
            t2 = list(toks)
            i = rng.randrange(len(t2))
            op = rng.random()
            if op < 0.4:
                del t2[i]
            elif op < 0.7:
                t2.insert(i, t2[i])
            else:
                j = rng.randrange(len(t2))
                t2[i], t2[j] = t2[j], t2[i]
            mutated.append(" ".join(t2))
    errors = 0
    for src in sources + mutated:
        want = _outcome(parse_term_reference, src, reg)
        got = _outcome(parse_term, src, reg)
        assert got == want, src
        errors += want[0] == "error"
    assert errors > 100


# ---------------------------------------------------------------------------
# Term walkers

def _ill_formed(rng, reg, n):
    """Terms with malformed case branches around ill-formed subterms, so
    diagnostics of different nodes interleave."""
    bad = [Con("bogus"), Lam("x", Coind("Nat", ZERO, (TyVar("A"),)), Var("x")),
           Fix("f", Coind("Nope", INFTY, ()), Var("f"))]
    out = []
    for _ in range(n):
        def part():
            return App(rand_term(rng, reg, 2), rng.choice(bad))
        out.append(Case(part(), (
            Branch("zero", ("x",), part()), Branch("zero", (), part()),
            Branch("nope", (), part()), Branch("succ", ("n",), part()))))
    return out


def test_term_walkers_match_reference():
    reg = load("streams").registry
    terms = TERMS + [(reg, t) for t in _ill_formed(random.Random(2), reg, 60)]
    for reg, t in terms:
        assert term_free_vars(t) == term_free_vars_reference(t), t
        assert fsv_term(t) == fsv_term_reference(t), t
        assert _annotation_binders(t) == annotation_binders_reference(t), t
        assert list(map(str, check_term_wf(t, reg))) == \
            list(map(str, check_term_wf_reference(t, reg))), t
        for avoid in ((), ("i", "j", "k")):
            assert uniquify_size_binders(t, avoid) == \
                uniquify_size_binders_reference(t, avoid), t
        assert erase(t) == erase_reference(t), t


def test_infer_matches_recursive_reference():
    problems = [(reg, {}, t) for reg, t in TERMS]
    problems += [(reg, gamma, t) for _label, reg, gamma, t in context_terms()]
    failed = 0
    for reg, gamma, t in problems:
        got = infer_state(reg, gamma, t, recursive=False)
        want = infer_state(reg, gamma, t, recursive=True)
        assert repr(got) == repr(want), print_term(t)
        failed += got[0] is None
    assert 0 < failed < len(problems)


# ---------------------------------------------------------------------------
# Size walkers

CONSTANTS = {"i": INFTY, "j": ZERO, "k": size_const(3), "l": Succ(INFTY)}


def test_size_walkers_match_reference():
    rng = random.Random(4)
    reg = load("trees").registry
    for _ in range(1500):
        s = rand_size(rng, 4)
        assert sv(s) == sv_reference(s), s
        assert const_value(s) == const_value_reference(s), s
        closed = expand(CONSTANTS, s)
        assert const_value(closed) == const_value_reference(closed), closed
        assert const_value(closed) is not None
    for _ in range(300):
        ty = rand_type(rng, reg, 3)
        assert sv(ty) == sv_reference(ty), ty


def _rand_defs(rng, names, acyclic: bool):
    u = {}
    for k, name in enumerate(names):
        pool = names[k + 1:] if acyclic else names
        u[name] = rand_size(rng, 3, vars=tuple(pool) + ("free",)) \
            if pool else rand_size(rng, 2, vars=("free",))
    return u


def test_expand_and_topological_order_match_reference():
    rng = random.Random(8)
    names = ["a", "b", "c", "d", "e", "f"]
    cyclic = 0
    for _ in range(800):
        order = list(names)
        rng.shuffle(order)
        u = _rand_defs(rng, order, acyclic=rng.random() < 0.6)
        want = topo_order_reference(u)
        assert _topo_order(u) == want, u
        assert check_acyclic(u) == (want is not None)
        if want is None:
            cyclic += 1
            continue
        s = rand_size(rng, 3, vars=tuple(names) + ("free",))
        assert expand(u, s) == expand_reference(u, s), (u, s)
    assert 0 < cyclic < 800


# ---------------------------------------------------------------------------
# Approximants

def test_approx_matches_reference():
    cases = []
    for fname, src in [("sp", "run odd nats"), ("streams", "nats"),
                       ("streams", "plus (succ zero) (succ (succ zero))"),
                       ("trees", "bzeros"), ("trees", "fpair"),
                       ("trees", "wtree"), ("streams", "omega"),
                       ("streams", "cons omega (cons (succ zero) zeros)")]:
        sf = load(fname)
        cases.append((erase(link_all(sf, parse_term(src, sf.registry))),
                      sf.registry))
    rng = random.Random(6)
    cases += [(rand_plain(rng, 5), rng.choice([None, load("sp").registry]))
              for _ in range(300)]
    limited = 0
    for t, reg in cases:
        for fuel in (20, 200, 10000):
            for depth in (0, 1, 2, 4, 7):
                budget = EvalBudget(fuel=fuel, depth=depth)
                gas1 = [budget.fuel * (budget.depth + 2)]
                gas2 = list(gas1)
                got = _approx(t, depth, fuel, reg, gas1)
                want = approx_reference(t, depth, fuel, reg, gas2)
                assert repr(got) == repr(want) and gas1 == gas2, \
                    (t, reg is None, fuel, depth)
                limited += got[2]
    assert limited


def _rand_approximant(rng, depth: int):
    """A random approximant over Nat and stream/list constructor names,
    with succ chains that end in zero and chains that do not."""
    r = rng.random()
    if depth <= 0 or r < 0.15:
        return rng.choice([Bottom(), Opaque(PLam("x", PVar("x"))),
                           Opaque(PVar("y")), Constr("zero"), Constr("nil")])
    if r < 0.45:
        k = rng.randint(1, 4)
        a = _rand_approximant(rng, depth - 1)
        for _ in range(k):
            a = Constr("succ", (a,))
        return a
    con, arity = rng.choice([("cons", 2), ("node", 3), ("succ", 2),
                             ("zero", 1), ("so", 1)])
    return Constr(con, tuple(_rand_approximant(rng, depth - 1)
                             for _ in range(arity)))


def test_render_approximant_matches_reference():
    regs = [load(f).registry for f in ("streams", "sp", "trees")]
    cases = []
    for fname, src in [("sp", "run odd nats"), ("streams", "nats"),
                       ("streams", "plus (succ zero) (succ (succ zero))"),
                       ("trees", "bzeros"), ("trees", "fpair"),
                       ("trees", "wtree"), ("streams", "omega"),
                       ("streams", "cons omega (cons (succ zero) zeros)")]:
        sf = load(fname)
        t = erase(link_all(sf, parse_term(src, sf.registry)))
        for depth in (0, 1, 2, 4, 7):
            cases.append((approximant(t, EvalBudget(fuel=200, depth=depth),
                                      sf.registry), sf.registry))
    rng = random.Random(8)
    cases += [(_rand_approximant(rng, 6), rng.choice(regs))
              for _ in range(500)]
    for a, reg in cases:
        assert render_approximant(a, reg) == \
            render_approximant_reference(a, reg), a


def test_render_deep_succ_chain():
    # a succ chain that ends in bottom renders in one pass, not one
    # numeral scan per level
    reg = load("streams").registry
    a = Bottom()
    for _ in range(20000):
        a = Constr("succ", (a,))
    s = render_approximant(a, reg)
    assert s == "succ " + "(succ " * 19999 + "_|_" + ")" * 19999
    assert render_approximant(Constr("cons", (a, Bottom())), reg) == \
        "(" + s + ") :: _|_"


def test_no_recursion_limit_or_thread_stack_tricks_in_src():
    # depth safety comes from explicit stacks, never from a raised
    # recursion limit or a big-stack thread
    src = CORPUS_DIR.parent / "src"
    files = [p for p in sorted(src.rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    offenders = [f"{p.relative_to(src)}: {word}" for p in files
                 for word in ("setrecursionlimit", "stack_size")
                 if word.encode() in p.read_bytes()]
    assert files and offenders == []

"""Differential tests: the iterative walkers against recursive references.

Parser, tokenizer, term walkers, the size and type walks, inference,
approximants and membership keep their own stacks so that nesting depth
costs heap, not Python stack.  Each must give exactly what the
recursive form it replaced gives (kept in `helpers`), on every corpus
term and every subterm, on the annotations, inference triples and
definitions of the corpus, and on seeded random input.  The functions
that still call themselves are listed here, and the list only shrinks.
"""

import ast
import itertools
import random

import pytest

from helpers import (
    CORPUS_DIR, DEFAULT_VARS, PLAIN_VARS, aeq_size_reference,
    alpha_eq_plain_reference, alpha_eq_term_reference,
    alpha_eq_type_reference, annotation_binders_reference, approx_reference,
    check_arities_reference, check_term_wf_reference,
    check_type_wf_reference, chgtgt_reference,
    context_terms, corpus_terms, dataclass_repr_reference,
    dependency_cycle_reference, dependents_reference, erase_reference,
    eval_size_reference,
    expand_reference, expand_superfluous_reference, expand_type_reference,
    flatten_reference, fold_reference, fold_size_reference,
    forall_binders_reference,
    fsv_reference, fsv_term_reference, fsv_u_reference,
    gen_sub_constraints_reference, infer_state, lattice_reference,
    link_all, load,
    member_reference, mentioned_defs_reference, node_count_reference,
    nodes_reference,
    normalize_succ_reference, observable_reference, parse_size_reference,
    parse_term_reference, parse_type_reference, peel_reference,
    plain_free_vars_reference, prettify_reference, print_plain_reference,
    print_size_reference, print_term_reference,
    psubst_sharing_reference,
    rand_plain, rand_size, rand_term, rand_type, rand_valuation,
    refines_reference, same_whnf, rename_binders_apart_reference,
    render_approximant_reference, render_type_reference, reshape_sizes,
    simplify_infty_reference, size_ge_const_reference,
    size_names_reference,
    strictly_positive_reference,
    subst_size_reference, subst_type_multi_reference,
    subst_term_reference, subst_type_size_reference, subtype_of,
    supertype_of, sv_reference,
    term_free_vars_reference, tgt_reference, tokenize_reference,
    topo_order_reference, topological_order_reference, tv_reference,
    uniquify_size_binders_reference, whnf_recursive_reference,
    whnf_reference,
)
from slam import (
    INFTY, ZERO, App, Arrow, Branch, Case, Cofix, Coind, Con, Fix, Forall,
    Lam, PApp, PBranch, PCase, PCon, PLam, PVar, ParseError, SMax, SMin, SVar,
    SizeApp, SizeLam, Succ, TyVar, Var, alpha_eq, chgtgt, eval_size,
    gen_sub_constraints, join, meet,
    member, normalize_succ, observable, parse_defs, parse_size, parse_term,
    parse_type, print_size, print_term, print_type, refines,
    simplify_infty, size_const, size_ge_const, strictly_positive,
    subst_term, sv, tgt, tv,
    validate_registry, whnf,
)
from slam import typecheck
from slam.constraints import (
    SizeConstraint, _flatten, _topo_order, check_acyclic, expand,
    expand_type, is_valid,
)
from slam.cli import render_approximant
from slam.parser import tokenize
from slam.rewrite import (
    Bottom, Constr, EvalBudget, Opaque, _approx, approximant, erase,
    productivity_check, psubst,
)
from slam.sizes import _peel
from slam.syntax import (
    Infty, _annotation_binders, _check_arities, check_term_wf, check_type_wf,
    fold, forall_binders, fsv, node_count, nodes, rebuilt,
    rename_binders_apart, size_names, size_plus, subst_type_sizes,
    uniquify_size_binders,
)
from slam.typecheck import _fold_size, _prettify


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


@pytest.mark.parametrize("src", [
    "\\succ : Nat. succ",
    "(\\succ : Nat. succ zero) (succ zero)",
    "(fix succ : Nat -> Nat. succ) (succ zero)",
    "cofix[j] zero : Strm. cons zero (zero)",
    "case zero of { succ zero => zero; zero => succ zero }",
    "case (case zero of { succ succ => succ }) of { zero => succ }",
    "\\x : Nat. \\x : Nat. (\\zero : Nat. x zero) x zero",
])
def test_binders_scope_as_written(src):
    # a name is a variable from its binder to the end of the binder's
    # body, and a constructor again after it
    reg = load("streams").registry
    assert parse_term(src, reg) == parse_term_reference(src, reg)


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
        assert t.fv == term_free_vars_reference(t), t
        assert fsv(t) == fsv_term_reference(t), t
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


def test_size_binders_are_fresh_for_the_context():
    # `_Infer` checks no /\v or cofix[v] against the context: renaming
    # the term's size binders makes v fresh.  The recursive reference
    # keeps both side conditions.  The contexts here name the i and j
    # the terms bind, and i_1, a name renaming picks, free and under
    # forall, so a binder that renaming left in place would be refused
    # by the reference alone.
    rng = random.Random(29)
    reg = load("streams").registry
    names = ("i", "j", "k", "i_1")
    clashes = typed = 0
    for _ in range(2500):
        gamma = {x: rand_type(rng, reg, 2, names)
                 for x in rng.sample(("x", "y"), rng.randint(1, 2))}
        t = rand_term(rng, reg, rng.randint(1, 5), tuple(gamma))
        got = infer_state(reg, gamma, t, recursive=False)
        want = infer_state(reg, gamma, t, recursive=True)
        assert repr(got) == repr(want), (gamma, print_term(t))
        if got[0] is not None:
            typed += 1
            bound = {x.var if type(x) is SizeLam else x.size_var
                     for x in nodes(t) if type(x) in (SizeLam, Cofix)}
            clashes += any(bound & fsv(ty) for ty in gamma.values())
    assert typed > 500 and clashes > 40, (typed, clashes)


# ---------------------------------------------------------------------------
# Size walkers

def test_size_walkers_match_reference():
    rng = random.Random(4)
    reg = load("trees").registry
    for _ in range(1500):
        s = rand_size(rng, 4)
        assert sv(s) == sv_reference(s), s
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
                a = _approx(t, depth, fuel, reg, gas1)
                got = (a, a.steps, a.limited, a.nodes)
                want = approx_reference(t, depth, fuel, reg, gas2)
                assert repr(got) == repr(want) and gas1 == gas2, \
                    (t, reg is None, fuel, depth)
                limited += got[2]
    assert limited


def _rand_approximant(rng, depth: int, pool=None):
    """A random approximant over Nat and stream/list constructor names,
    with succ chains that end in zero and chains that do not.

    With a pool, nodes are shared, as in the approximants `_approx`
    builds: a child may repeat its left sibling, or be a node built
    before, of this approximant or an earlier one.  The pool keeps the
    nodes by the depth they were built with, so that the tree a value
    stands for stays within `depth`."""
    if pool is not None and rng.random() < 0.2:
        built = pool.get(rng.randint(0, depth))
        if built:
            return rng.choice(built)
    r = rng.random()
    if depth <= 0 or r < 0.15:
        a = rng.choice([Bottom(), Opaque(PLam("x", PVar("x"))),
                        Opaque(PVar("y")), Constr("zero"), Constr("nil")])
    elif r < 0.45:
        k = rng.randint(1, 4)
        a = _rand_approximant(rng, depth - 1, pool)
        for _ in range(k):
            a = Constr("succ", (a,))
    else:
        con, arity = rng.choice([("cons", 2), ("node", 3), ("succ", 2),
                                 ("zero", 1), ("so", 1)])
        kids = []
        for _ in range(arity):
            if pool is not None and kids and rng.random() < 0.3:
                kids.append(kids[-1])
            else:
                kids.append(_rand_approximant(rng, depth - 1, pool))
        a = Constr(con, tuple(kids))
    if pool is not None:
        pool.setdefault(depth, []).append(a)
    return a


def _shares(a) -> bool:
    """Whether some node of a occurs in it more than once."""
    seen, todo = set(), [a]
    while todo:
        a = todo.pop()
        if id(a) in seen:
            return True
        seen.add(id(a))
        todo.extend(getattr(a, "children", ()))
    return False


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
    pool = {}
    cases += [(_rand_approximant(rng, 6, pool), rng.choice(regs))
              for _ in range(500)]
    assert sum(_shares(a) for a, _reg in cases) > 200
    for a, reg in cases:
        assert render_approximant(a, reg) == \
            render_approximant_reference(a, reg), a


def test_render_shared_nodes():
    # a value that doubles at each level, and numerals that share their
    # tails, render as their trees do
    reg = load("trees").registry
    a, text = Bottom(), "_|_"
    for _ in range(16):
        a = Constr("bnode", (Constr("zero"), a, a))
        text = f"bnode 0 ({text}) ({text})"
    assert render_approximant(a, reg) == text.replace("(_|_)", "_|_")
    nums = [Constr("zero")]
    for _ in range(2000):
        nums.append(Constr("succ", (nums[-1],)))
    for order in (nums, nums[::-1][:50] + nums[:50]):
        lst = Constr("nil")
        for c in reversed(order):
            lst = Constr("cons", (c, lst))
        want = " :: ".join(render_approximant(c, reg) for c in order)
        assert render_approximant(lst, reg) == want + " :: nil"
    assert render_approximant(lst, reg).startswith("2000 :: 1999 :: ")


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


# The functions in src/slam that call themselves by name: none.  Every
# walk and search keeps its own stack, so input depth is bounded by
# memory, not by Python's recursion limit.  A change may not add names.
RECURSIVE: set[str] = set()


def _self_calls(tree: ast.Module, module: str) -> set[str]:
    """Qualified names of the functions in a module that call themselves
    by name: a plain call of the name anywhere in the function (nested
    functions included), or self.name(...) and cls.name(...) in a method."""
    out = set()

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    f = getattr(call, "func", None)
                    if isinstance(f, ast.Name) and f.id == name or (
                            in_class and isinstance(f, ast.Attribute)
                            and f.attr == name
                            and isinstance(f.value, ast.Name)
                            and f.value.id in ("self", "cls")):
                        out.add(prefix + name)
                        break
                visit(child, f"{prefix}{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, f"{module}.", False)
    return out


def test_recursive_functions_are_the_allowed_ones():
    src = CORPUS_DIR.parent / "src" / "slam"
    found = set()
    for p in sorted(src.glob("*.py")):
        found |= _self_calls(ast.parse(p.read_text()), p.stem)
    assert sorted(found) == sorted(RECURSIVE)


def _unused_imports(tree: ast.Module) -> set[str]:
    """The names a module imports and never reads: not as a name, nor as
    the root of an attribute, nor in `__all__`."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    # `__init__` is exempt: its imports are the package's exports
    src = CORPUS_DIR.parent / "src" / "slam"
    found = {f"{p.stem}.{name}" for p in sorted(src.glob("*.py"))
             if p.name != "__init__.py"
             for name in _unused_imports(ast.parse(p.read_text()))}
    assert sorted(found) == []


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


# ---------------------------------------------------------------------------
# The one pre-order walk and the one fold, over every family

def _rename_binder(x, names: tuple):
    """A renaming `enter`: a forall, lambda or size abstraction takes the
    name of its binder followed by its depth, and the context is the
    names of the binders around."""
    cls = type(x)
    if cls is Forall or cls is SizeLam or cls is PLam:
        x = cls(f"{x.var}{len(names)}", x.body)
    elif cls is Lam:
        x = Lam(f"{x.var}{len(names)}", x.ty, x.body)
    else:
        return x, names
    return x, names + (x.var,)


def _logging(log: list, enter):
    """A fold's fn, and enter if there is one, that log their calls; fn's
    value shows its node, its children's values and its context."""
    def fn(y, kids, c):
        log.append(("fn", y, tuple(kids), c))
        return y, tuple(kids), c

    def logged_enter(y, c):
        log.append(("enter", y, c))
        return enter(y, c)
    return fn, enter and logged_enter


def test_nodes_and_fold_match_a_recursive_walk():
    # sizes, types, decorated and plain terms; every fn and enter call,
    # in order, is the recursive walk's
    reg = load("streams").registry
    rng = random.Random(21)
    trees = [rand_size(rng, 5) for _ in range(80)]
    trees += [rand_type(rng, reg, 4) for _ in range(80)]
    trees += [rand_term(rng, reg, 4) for _ in range(80)]
    trees += [rand_plain(rng, 5) for _ in range(80)]
    intos = (None, (SMin, SMax), (Succ,), (Arrow, Coind), (App, PApp),
             (Case, PCase, Lam, PLam))
    for x in trees:
        for into in intos:
            assert [id(y) for y in nodes(x, into)] == \
                [id(y) for y in nodes_reference(x, into)], (x, into)
            for enter, ctx in ((None, None), (_rename_binder, ())):
                got, want = [], []
                fn, ent = _logging(got, enter)
                value = fold(x, fn, into, enter=ent, ctx=ctx)
                fn, ent = _logging(want, enter)
                assert value == fold_reference(x, fn, into, ent, ctx), x
                assert got == want, (x, into)
        assert fold(x, rebuilt) is x


# ---------------------------------------------------------------------------
# Size and type walks against the recursive walkers they replaced

def _outcome_of(fn, *args, **kw):
    """fn's value, or the type and text of what it raised."""
    try:
        return "ok", fn(*args, **kw)
    except Exception as e:  # the references raise what the walks raise
        return "raised", type(e).__name__, str(e)


def _mix_in_tyvars(rng, t, names=("A", "B")):
    if rng.random() < 0.2:
        return TyVar(rng.choice(names))
    if isinstance(t, Arrow):
        return Arrow(_mix_in_tyvars(rng, t.dom, names),
                     _mix_in_tyvars(rng, t.cod, names))
    if isinstance(t, Forall):
        return Forall(t.var, _mix_in_tyvars(rng, t.body, names))
    if isinstance(t, Coind) and t.params:
        return Coind(t.defname, t.size, tuple(_mix_in_tyvars(rng, p, names)
                                              for p in t.params))
    return t


def _type_sizes(t):
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Coind):
            out.append(t.size)
            stack += t.params
        elif isinstance(t, Arrow):
            stack += [t.dom, t.cod]
        elif isinstance(t, Forall):
            stack.append(t.body)
    return out


def _corpus_inputs():
    """(registry, types, sizes, triples): every annotation type and size
    of the corpus terms, every constructor argument type, and the
    inference triples of the corpus terms with their types and sizes."""
    types, sizes, triples = [], [], []
    regs = {}
    for _label, reg, t in corpus_terms():
        regs[id(reg)] = reg
        for s in subterms(t):
            if isinstance(s, (Lam, Fix, Cofix)):
                types.append((reg, s.ty))
            elif isinstance(s, SizeApp):
                sizes.append(s.size)
        trip = typecheck.infer(reg, {}, t)
        triples.append((reg, trip))
        if trip.tau is not None:
            types.append((reg, trip.tau))
        sizes += list(trip.u.values())
        sizes += [s for pair in trip.pairs for s in pair]
    for reg in regs.values():
        for d in reg.defs.values():
            types += [(reg, a) for c in d.constructors for a in c.arg_types]
    sizes += [s for _reg, t in types for s in _type_sizes(t)]
    return types, sizes, triples


CORPUS_TYPES, CORPUS_SIZES, CORPUS_TRIPLES = _corpus_inputs()


def _sizes():
    rng = random.Random(17)
    return CORPUS_SIZES + [rand_size(rng, rng.randint(0, 5))
                           for _ in range(1500)]


def _types():
    rng = random.Random(19)
    regs = [load(f).registry for f in ("streams", "sp", "trees")]
    out = list(CORPUS_TYPES)
    for _ in range(800):
        reg = rng.choice(regs)
        t = rand_type(rng, reg, rng.randint(0, 4))
        out.append((reg, _mix_in_tyvars(rng, t) if rng.random() < 0.4
                    else t))
    return out


SIZES = _sizes()
TYPES = _types()


def test_corpus_inputs_are_there():
    assert len(CORPUS_TYPES) > 100 and len(CORPUS_SIZES) > 300
    assert any(trip.u for _reg, trip in CORPUS_TRIPLES)


def test_size_walks_match_reference():
    rng = random.Random(23)
    for s in SIZES:
        v = rand_valuation(rng, DEFAULT_VARS + tuple(sv(s)))
        assert eval_size(v, s) == eval_size_reference(v, s), s
        assert simplify_infty(s) == simplify_infty_reference(s), s
        assert _outcome_of(normalize_succ, s) == \
            _outcome_of(normalize_succ_reference, s), s
        for bump in (False, True):
            assert _peel(s, bump=bump) == peel_reference(s, bump=bump), s
        by = rand_size(rng, 2)
        for var in ("i", "j", "$s1"):
            assert subst_type_sizes(s, {var: by}) == \
                subst_size_reference(s, by, var)
        for cls in (SMin, SMax):
            if isinstance(s, cls):
                assert _flatten(s, cls) == flatten_reference(s, cls), s
                ok, *ns = _outcome_of(normalize_succ_reference, s)
                if ok == "ok":  # oo-free: no run over a node of cls is left
                    assert flatten_reference(ns[0], cls) == \
                        _plain_arms(ns[0], cls), s
        assert print_size(s) == print_size_reference(s), s
        assert _fold_size(s) == fold_size_reference(s), s
        assert node_count(s) == node_count_reference(s), s
        assert sv(s) == sv_reference(s), s


def _plain_arms(s, cls):
    # the largest subtrees of s that are of another class: the arms of
    # a size with no successor run over a node of cls
    if isinstance(s, cls):
        return _plain_arms(s.left, cls) + _plain_arms(s.right, cls)
    return [s]


def _env(reg, u):
    """An `_Infer` whose U is u, written entry by entry through `define`
    as typing writes it."""
    st = typecheck._Infer(reg)
    for v, s in u.items():
        st.define(v, s)
    return st


def test_size_walks_through_u_match_reference():
    aliased = 0
    for reg, trip in CORPUS_TRIPLES:
        u = trip.u
        st = _env(reg, u)
        for s in list(u.values()) + [s for pair in trip.pairs for s in pair]:
            assert st._expand_superfluous(s) == \
                expand_superfluous_reference(u, s, False), s
            for k in (0, 1, 2):
                assert size_ge_const(u, s, k) == \
                    size_ge_const_reference(u, s, k), s
            assert expand(u, s) == expand_reference(u, s), s
        for name in u:
            assert st._fsv_u(SVar(name)) == fsv_u_reference(u, SVar(name))
        # U built entry by entry through `define`, as typing builds it,
        # then a free size variable of U aliased to a fresh binder, as an
        # owned binder is aligned: the dependents read off the maintained
        # reverse index agree with a walk of all of U
        free = sorted(set().union(*map(sv, u.values())) - u.keys())
        if free:
            st.define(free[0], SVar("$b0"))
            aliased += 1
        for name in [*st.u, *free, "$b0"]:
            assert st._dependents(name) == dependents_reference(st.u, name)
    assert aliased > 10


def test_type_walks_match_reference():
    rng = random.Random(29)
    for reg, t in TYPES:
        assert fsv(t) == fsv_reference(t), t
        assert tv(t) == tv_reference(t), t
        assert forall_binders(t) == forall_binders_reference(t), t
        assert reg.mentioned_defs(t) == mentioned_defs_reference(t), t
        assert strictly_positive(t, reg) == \
            strictly_positive_reference(t, reg), t
        for tyvars in (frozenset(), frozenset({"A"})):
            assert list(map(str, check_type_wf(t, reg, tyvars))) == \
                list(map(str, check_type_wf_reference(t, reg, tyvars))), t
        d = next(iter(reg.defs.values()))
        c = d.constructors[0]
        assert list(map(str, _check_arities(t, reg, c, d))) == \
            list(map(str, check_arities_reference(t, reg, c, d))), t
        for by in (SVar("i"), SVar("k"), Succ(SVar("j")), rand_size(rng, 2)):
            for var in ("i", "j", "l"):
                assert subst_type_sizes(t, {var: by}) == \
                    subst_type_size_reference(t, by, var), (t, by, var)
        mapping = {"A": rand_type(rng, reg, 2), "B": TyVar("A")}
        assert subst_type_sizes(t, {}, mapping) == \
            subst_type_multi_reference(t, mapping), t
        for avoid in ((), ("i", "j", "i_1"), tuple(sv(t))):
            assert rename_binders_apart(t, avoid) == \
                rename_binders_apart_reference(t, avoid), t
        assert print_type(t) == render_type_reference(t), t
        assert tgt(t) == tgt_reference(t), t
        alpha = rand_type(rng, reg, 1)
        assert chgtgt(t, alpha) == chgtgt_reference(t, alpha), t
        assert observable(t, reg) == observable_reference(t, reg), t
        assert node_count(t) == node_count_reference(t), t
        assert sv(t) == sv_reference(t), t


def test_type_walks_through_u_match_reference():
    checked = 0
    for reg, trip in CORPUS_TRIPLES:
        if trip.tau is None:
            continue
        assert expand_type(trip.u, trip.tau) == \
            expand_type_reference(trip.u, trip.tau)
        out = expand_type(trip.u, trip.tau)
        assert _prettify(out) == prettify_reference(out)
        checked += 1
    assert checked > 20


def test_machine_binders_prettify_as_before():
    # binders named by inference, a clash with a nice name in the body,
    # and a binder name that no size mentions
    def nat(s):
        return Coind("Nat", s, ())

    cases = [
        Forall("$b1", Forall("i", Arrow(nat(SVar("$b1")), nat(ZERO)))),
        Forall("$b1", Arrow(nat(SVar("$b1")), Forall("$b2", Arrow(
            nat(SMin(SVar("$b2"), SVar("$b1"))), nat(SVar("i")))))),
        Forall("?e", Forall("j", Arrow(nat(SVar("j")), nat(Succ(
            SMax(SVar("?e"), ZERO)))))),
    ]
    for t in cases + [t for _reg, t in TYPES]:
        assert _prettify(t) == prettify_reference(t), t


def test_gen_sub_constraints_matches_reference():
    rng = random.Random(31)
    pairs = []
    for reg, t in TYPES:
        if tv(t):
            continue
        pairs += [(reg, t, supertype_of(rng, t, reg)),
                  (reg, subtype_of(rng, t, reg), t),
                  (reg, t, reshape_sizes(rng, t)),
                  (reg, t, rand_type(rng, reg, 2))]
    related = 0
    for reg, a, b in pairs:
        got = gen_sub_constraints(a, b, reg)
        want = gen_sub_constraints_reference(a, b, reg)
        assert got == want, (a, b)
        related += got is not None
    assert 100 < related < len(pairs)


def test_gen_sub_constraints_with_env_matches_reference():
    # with a binder environment, alignment updates U and the owned
    # binders as it goes: both walks must make the same updates in the
    # same order
    for reg, trip in CORPUS_TRIPLES:
        if trip.tau is None:
            continue
        for a, b in ((trip.tau, trip.tau), (trip.tau,
                     rename_binders_apart(trip.tau, ("i", "j")))):
            envs = [_env(reg, trip.u) for _ in range(2)]
            for env in envs:
                env.linear = set(forall_binders(a))
            got = gen_sub_constraints(a, b, reg, env=envs[0])
            want = gen_sub_constraints_reference(a, b, reg, env=envs[1])
            assert got == want and envs[0].u == envs[1].u \
                and envs[0].linear == envs[1].linear, a


def test_join_and_meet_match_reference():
    rng = random.Random(41)
    pairs = []
    for reg, t in TYPES:
        # binders renamed apart align to fresh names, counted in the
        # order the pairs are met
        twice = Arrow(t, t)
        pairs += [(reg, t, reshape_sizes(rng, t)), (reg, t, t),
                  (reg, t, rand_type(rng, reg, 2)),
                  (reg, twice, rename_binders_apart(twice, forall_binders(t)))]
    defined = 0
    for reg, a, b in pairs:
        for up, fn in ((True, join), (False, meet)):
            got = fn(a, b, reg)
            assert got == lattice_reference(a, b, reg, up), (up, a, b)
            defined += got is not None
    assert len(pairs) < defined < 2 * len(pairs)


def test_join_and_meet_with_env_match_reference():
    # aligning binders through a binder environment updates U and the
    # owned binders as it goes: both walks must make the same updates
    for reg, trip in CORPUS_TRIPLES:
        if trip.tau is None:
            continue
        for a, b in ((trip.tau, trip.tau), (trip.tau,
                     rename_binders_apart(trip.tau, ("i", "j")))):
            for up, fn in ((True, join), (False, meet)):
                envs = [_env(reg, trip.u) for _ in range(2)]
                for env in envs:
                    env.linear = set(forall_binders(a))
                got = fn(a, b, reg, env=envs[0])
                want = lattice_reference(a, b, reg, up, env=envs[1])
                assert got == want and envs[0].u == envs[1].u \
                    and envs[0].linear == envs[1].linear, (up, a)


def test_parse_sizes_and_types_match_reference():
    rng = random.Random(37)
    size_srcs = [print_size(s) for s in SIZES]
    type_srcs = []
    for _reg, t in TYPES:
        if not tv(t) and _outcome_of(print_type, t)[0] == "ok":
            type_srcs.append(print_type(t))
    type_srcs += ["forall i j. Nat^i -> Nat^j", "(Nat)", "Nat^(i+1", "Nat ->",
                  "Strm(Nat, Nat)", "Nat^min(i)", "forall . Nat", "Nat^i+1",
                  "List(Nat -> Nat)", "(Nat -> Nat) -> Nat", "Nat^(min(i,j)+2)"]
    size_srcs += ["min(i)", "max(i, j, k)+2", "(i", "i+", "i+j", "((i))+1",
                  "min(i, (j+1))", "oo+3", "", ")"]

    def mutate(src):
        toks = src.replace("(", " ( ").replace(")", " ) ").replace(
            ",", " , ").split()
        if not toks:
            return src
        i = rng.randrange(len(toks))
        op = rng.random()
        if op < 0.4:
            del toks[i]
        elif op < 0.7:
            toks.insert(i, toks[i])
        else:
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
        return " ".join(toks)

    errors = 0
    for src in size_srcs + [mutate(s) for s in size_srcs[:800]]:
        want = _outcome(parse_size_reference, src)
        assert _outcome(parse_size, src) == want, src
        errors += want[0] == "error"
    regs = [load(f).registry for f in ("streams", "sp", "trees")]
    for src in type_srcs + [mutate(s) for s in type_srcs[:800]]:
        for reg in regs:
            want = _outcome(parse_type_reference, src, reg)
            assert _outcome(parse_type, src, reg) == want, src
            errors += want[0] == "error"
    assert errors > 300


def test_registry_order_matches_reference():
    rng = random.Random(41)
    names = ["A", "B", "C", "D", "E"]
    cyclic = 0
    for _ in range(300):
        src = []
        for n in names:
            deps = rng.sample(names, rng.randint(0, 2))
            ctors = [f"c{n}{k} : {d} -> {n}" for k, d in enumerate(deps)]
            src.append(f"inductive {n} {{ z{n} : {n}"
                       + "".join(f"; {c}" for c in ctors) + " }")
        rng.shuffle(src)
        reg = parse_defs("\n".join(src))
        want_cycle = dependency_cycle_reference(reg)
        diags = validate_registry(reg)
        if want_cycle is None:
            assert diags == [] and reg.order == \
                topological_order_reference(reg), src
        else:
            cyclic += 1
            assert [str(d) for d in diags] == [
                "definition dependency cycle: " + " -> ".join(want_cycle)]
    assert 0 < cyclic < 300


def _approximants():
    out = []
    for fname, src, depths in [("sp", "run odd nats", (0, 1, 3, 6)),
                               ("streams", "nats", (0, 2, 5)),
                               ("streams", "zeros", (0, 3)),
                               ("trees", "bzeros", (0, 2, 4)),
                               ("trees", "fpair", (0, 2, 3)),
                               ("streams", "omega", (1,))]:
        sf = load(fname)
        t = erase(link_all(sf, parse_term(src, sf.registry)))
        for d in depths:
            for fuel in (30, 10000):
                out.append((sf.registry, approximant(
                    t, EvalBudget(fuel=fuel, depth=d), sf.registry)))
    rng = random.Random(43)
    regs = [load(f).registry for f in ("streams", "sp", "trees")]
    out += [(rng.choice(regs), _rand_approximant(rng, 5)) for _ in range(400)]
    pool = {}
    out += [(rng.choice(regs), _rand_approximant(rng, 5, pool))
            for _ in range(400)]
    trees = load("trees").registry
    out += [(trees, _rand_btree(rng, rng.randint(0, 6))) for _ in range(100)]
    return out


def _chop(rng, a):
    """a rebuilt as a tree, each occurrence of a node on its own, with
    some subtrees cut to bottom and, rarely, a constructor renamed: a
    shared node of a then meets different nodes in the two values."""
    if not isinstance(a, Constr) or rng.random() < 0.1:
        return Bottom() if rng.random() < 0.5 else a
    con = a.con if rng.random() < 0.97 else "so"
    return Constr(con, tuple(_chop(rng, k) for k in a.children))


def _rand_btree(rng, depth: int):
    """A random binary-tree approximant in which a node's subtrees may be
    one node, or nodes shared with other levels, as `bnode zero t t`
    gives them; now and then a leaf is cut early or ill-formed."""
    levels = [Bottom()]
    for _ in range(depth):
        pick = [rng.choice(levels) if rng.random() < 0.3 else levels[-1]
                for _ in range(2)]
        if rng.random() < 0.5:
            pick[1] = pick[0]
        head = Constr("zero") if rng.random() < 0.97 else Bottom()
        levels.append(Constr("bnode", (head, *pick)))
    return levels[-1]


def test_member_and_refines_match_reference():
    cases = _approximants()
    taus = {}
    for reg, _a in cases:
        taus[id(reg)] = [Coind(d.name, s, tuple(Coind("Nat", INFTY, ())
                                                for _ in d.params))
                         for d in reg.defs.values()
                         for s in (ZERO, size_const(2), SVar("i"), INFTY)]
        taus[id(reg)] += [Coind("Strm", SVar("i"), ())] \
            if "Strm" in reg.defs else []
    rng = random.Random(47)
    seen = set()
    for reg, a in cases:
        for tau in taus[id(reg)]:
            for strict in (False, True):
                v = {"i": rng.randint(0, 4)}
                got = _outcome_of(member, a, tau, reg, v, strict)
                want = _outcome_of(member_reference, a, tau, reg, v, strict)
                assert got == want, (a, tau, strict)
                seen.add(got[:2])
        b = rng.choice(cases)[1]
        c = _chop(rng, a)
        for x, y in ((a, a), (a, b), (b, a), (a, Bottom()), (a, c), (c, a)):
            assert refines(x, y) == refines_reference(x, y), (x, y)
    assert {("ok", True), ("ok", False)} <= seen
    assert any(o[0] == "raised" for o in seen)
    assert sum(_shares(a) for _reg, a in cases) > 200


def test_size_equality_does_not_rest_on_the_hash():
    # hashes are compared first; equal hashes (forced here, on nodes of
    # this test's own) never make different sizes equal, and deep sizes
    # compare and hash in a loop
    i, j = SVar("i"), SVar("j")
    pairs = [(size_const(2), size_const(3)), (Succ(i), Succ(j)),
             (SMin(i, j), SMin(j, i)), (SMin(i, j), SMax(i, j)),
             (Succ(Succ(i)), Succ(i)), (ZERO, Infty())]
    for a, b in pairs:
        object.__setattr__(b, "_hash", hash(a))
        assert a != b and not a == b
    deep = size_const(100_000)
    assert deep == size_const(100_000) != size_const(99_999)
    assert len({deep, size_const(100_000), SMax(deep, i)}) == 2


# ---------------------------------------------------------------------------
# Term walks, substitution and alpha-equality against the recursive
# walkers they replaced

def _plain_subterms(t):
    """Every subterm of a plain term, t first."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, PLam):
            stack.append(t.body)
        elif isinstance(t, PApp):
            stack += [t.fun, t.arg]
        elif isinstance(t, PCase):
            stack.append(t.scrutinee)
            stack += [b.body for b in t.branches]
    return out


def _bindings():
    """(registry, term): every binding of the corpus files as written,
    other bindings free."""
    return [(sf.registry, t) for sf in map(load, ("streams", "sp", "trees"))
            for t in sf.bindings.values()]


def _decorated_inputs():
    """Every binding and its subterms, every corpus term and subterm,
    and seeded random terms whose binders capture and shadow (x and y
    free)."""
    out = [(reg, s) for reg, t in _bindings() for s in subterms(t)]
    out += TERMS
    reg = load("streams").registry
    rng = random.Random(53)
    out += [(reg, rand_term(rng, reg, rng.randint(1, 5), ("x", "y"),
                            PLAIN_VARS)) for _ in range(400)]
    return out


def _plain_inputs():
    """Every subterm of the erased corpus terms, and seeded random plain
    terms."""
    out = [s for _label, _reg, t in corpus_terms()
           for s in _plain_subterms(erase(t))]
    rng = random.Random(59)
    return out + [rand_plain(rng, 5) for _ in range(600)]


DECORATED = _decorated_inputs()
PLAIN = _plain_inputs()


def _alpha_variant(t):
    """t with every term binder renamed to a name it does not use, by the
    reference substitutions: alpha-equal to t, and not equal when t binds
    a term variable."""
    counter = itertools.count()

    def fresh(v):
        return f"{v}~{next(counter)}"

    def go(t):
        if isinstance(t, (Lam, Fix, Cofix)):
            nv = fresh(t.var)
            body = go(subst_term_reference(t.body, Var(nv), t.var))
            return Cofix(t.size_var, nv, t.ty, body) if isinstance(t, Cofix) \
                else type(t)(nv, t.ty, body)
        if isinstance(t, PLam):
            nv = fresh(t.var)
            return PLam(nv, go(psubst_sharing_reference(t.body, t.var,
                                                        PVar(nv))))
        if isinstance(t, (Case, PCase)):
            subst = subst_term_reference if isinstance(t, Case) \
                else lambda b, v, x: psubst_sharing_reference(b, x, v)
            mk = Var if isinstance(t, Case) else PVar
            brs = []
            for b in t.branches:
                names = tuple(fresh(x) for x in b.binders)
                body = b.body
                for x, nv in zip(b.binders, names):
                    body = subst(body, mk(nv), x)
                brs.append(type(b)(b.con, names, go(body)))
            return type(t)(go(t.scrutinee), tuple(brs))
        if isinstance(t, (App, PApp)):
            return type(t)(go(t.fun), go(t.arg))
        if isinstance(t, SizeApp):
            return SizeApp(go(t.fun), t.size)
        if isinstance(t, SizeLam):
            return SizeLam(t.var, go(t.body))
        return t

    return go(t)


def test_term_inputs_are_there():
    assert len(_bindings()) == 22 and len(DECORATED) > 1500
    assert len(PLAIN) > 1500
    # the random terms capture: some binder is named like a free variable
    assert any(isinstance(s, (Lam, Fix, Cofix)) and s.var in ("x", "y")
               for _reg, t in DECORATED[-400:] for s in subterms(t))


def test_decorated_walks_match_reference():
    rng = random.Random(67)
    for reg, t in DECORATED:
        assert t.fv == term_free_vars_reference(t), t
        assert size_names(t) == size_names_reference(t), t
        assert print_term(t) == print_term_reference(t), t
        assert node_count(t) == node_count_reference(t), t
        other = rng.choice(DECORATED)[1]
        for a, b in ((t, t), (t, _alpha_variant(t)), (t, other)):
            assert alpha_eq(a, b) == alpha_eq_term_reference(a, b), \
                (a, b)
        assert alpha_eq(t, _alpha_variant(t))


def test_plain_walks_match_reference():
    rng = random.Random(71)
    stuck = reduced = 0
    for t in PLAIN:
        assert print_term(t) == print_plain_reference(t), t
        for fuel in (1, 6, 40):
            want = whnf_reference(t, fuel)
            assert want == whnf_recursive_reference(t, fuel), (t, fuel)
            assert same_whnf(whnf(t, fuel), want), (t, fuel)
        stuck += want.stuck
        reduced += want.steps > 0
        other = rng.choice(PLAIN)
        for a, b in ((t, t), (t, _alpha_variant(t)), (t, other)):
            assert alpha_eq(a, b) == alpha_eq_plain_reference(a, b), \
                (a, b)
    assert stuck and reduced


def test_substitution_matches_reference():
    # values name the binders of the term, so binders must be renamed
    rng = random.Random(73)
    reg = load("streams").registry
    renamed = 0
    for _reg, t in DECORATED:
        names = sorted(t.fv) + ["x", "y", "f", "x_1"]
        for var in sorted(t.fv) + ["unused"]:
            value = App(Var(rng.choice(names)),
                        rand_term(rng, reg, 2, ("y", "x_1"), PLAIN_VARS))
            got = subst_term(t, value, var)
            assert got.fv == term_free_vars_reference(got)
            want = subst_term_reference(t, value, var)
            assert alpha_eq_term_reference(got, want), (t, var, value)
            # the same renaming as the sharing plain substitution makes
            assert erase(got) == psubst_sharing_reference(
                erase(t), var, erase(value)), (t, var, value)
            if var not in t.fv:
                assert got is t
            renamed += got != want
    assert renamed  # the old subst_term renamed where nothing was free
    for t in PLAIN:
        for var in sorted(t.fv) + ["unused"]:
            value = PApp(PVar(rng.choice(PLAIN_VARS)), rand_plain(rng, 2))
            got = psubst(t, var, value)
            assert got == psubst_sharing_reference(t, var, value), \
                (t, var, value)
            assert got.fv == plain_free_vars_reference(got)


def test_substituting_a_variable_not_free_returns_the_term():
    reg = load("streams").registry
    t = parse_term("\\x : Nat. succ (plus x y)", reg)
    assert subst_term(t, Con("zero"), "x") is t
    assert subst_term(t, Con("zero"), "z") is t
    e = erase(t)
    assert psubst(e, "x", PCon("zero")) is e
    # only the path to the occurrence is rebuilt
    got = subst_term(t, Con("zero"), "y")
    assert got.body.fun is t.body.fun
    assert print_term(got) == "\\x : Nat. succ (plus x zero)"


def test_alpha_eq_matches_reference_on_types_and_sizes():
    rng = random.Random(79)
    for _reg, t in TYPES:
        variant = rename_binders_apart(t, fsv(t) | forall_binders(t))
        other = rng.choice(TYPES)[1]
        for a, b in ((t, t), (t, variant), (t, other), (other, variant)):
            assert alpha_eq(a, b) == alpha_eq_type_reference(a, b), \
                (a, b)
        assert alpha_eq(t, variant)
    for s in SIZES:
        other = rng.choice(SIZES)
        for a, b in ((s, s), (s, other)):
            assert alpha_eq(a, b) == \
                aeq_size_reference(a, b, {}, {}), (a, b)


def test_alpha_eq_on_a_deep_size():
    # the reference recursed once per +1; the walk takes a run in a step
    deep = size_plus(SVar("i"), 10_000)
    a = Forall("i", Coind("Nat", deep, ()))
    b = Forall("j", Coind("Nat", size_plus(SVar("j"), 10_000), ()))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Forall("j", Coind(
        "Nat", size_plus(SVar("j"), 9_999), ())))
    assert alpha_eq(Coind("Nat", size_const(10_000), ()),
                         Coind("Nat", size_const(10_000), ()))


def test_repr_of_a_deep_size():
    # a run of +1 prints in one step: printed one level at a time, 5000
    # levels would reach the recursion limit
    assert repr(size_plus(SVar("i"), 5000)) == "i" + "+1" * 5000
    assert repr(SMax(Succ(SVar("i")), size_plus(SMin(ZERO, INFTY), 2))) \
        == "max(i+1,min(0,oo)+1+1)"
    # min and max print in a loop too
    deep = SVar("i")
    for _ in range(10_000):
        deep = SMin(deep, SMax(ZERO, SVar("j")))
    assert repr(deep) == "min(" * 10_000 + "i" + ",max(0,j))" * 10_000


def numeral(k, con, app):
    t = con("zero")
    for _ in range(k):
        t = app(con("succ"), t)
    return t


def test_equality_of_deep_terms_and_approximants():
    # == on types, terms, plain terms and approximants compares in a
    # loop; the generated comparison recursed once per level
    n = 10_000
    for con, app in ((Con, App), (PCon, PApp),
                     (lambda name: Coind(name, INFTY), Arrow),
                     (Constr, lambda f, x: Constr(f.con, (x,)))):
        a, b = numeral(n, con, app), numeral(n, con, app)
        assert a == b and not a != b
        assert a != numeral(n - 1, con, app)
        assert a != app(con("succ"), numeral(n, con, app))
        assert app(a, con("x")) != app(b, con("y"))
    lam = Lam("x", TyVar("A"), numeral(n, Con, App))
    assert lam == Lam("x", TyVar("A"), numeral(n, Con, App))
    assert lam != Lam("y", TyVar("A"), numeral(n, Con, App))
    assert lam != Lam("x", TyVar("B"), numeral(n, Con, App))
    case = PCase(numeral(n, PCon, PApp), (PBranch("zero", (), PVar("x")),))
    assert case == PCase(numeral(n, PCon, PApp),
                         (PBranch("zero", (), PVar("x")),))
    assert case != PCase(numeral(n, PCon, PApp),
                         (PBranch("zero", ("y",), PVar("x")),))
    assert Constr("s", (Bottom(),)) == Constr("s", (Bottom(fuel_limited=True),))
    assert Constr("s", (Opaque(PVar("x")),)) != Constr("s", (Bottom(),))


def test_hash_and_repr_of_deep_terms_and_approximants():
    # hash of types, terms, plain terms and approximants, == of types,
    # and repr of approximants, run in a loop; the generated ones
    # recursed per level
    n = 10_000
    for con, app in ((Con, App), (PCon, PApp),
                     (lambda name: Coind(name, INFTY), Arrow),
                     (Constr, lambda f, x: Constr(f.con, (x,)))):
        a, b = numeral(n, con, app), numeral(n, con, app)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert hash(a) != hash(numeral(n - 1, con, app))
    a = numeral(n, Constr, lambda f, x: Constr(f.con, (x,)))
    assert repr(a) == "Constr(con='succ', children=(" * n + \
        "Constr(con='zero', children=())" + ",))" * n
    # types print in a loop: an arrow chain, a forall chain
    a = numeral(n, lambda name: Coind(name, INFTY), Arrow)
    assert repr(a) == "(succ^oo() -> " * n + "zero^oo()" + ")" * n
    a = TyVar("A")
    for _ in range(n):
        a = Forall("i", a)
    assert repr(a) == "(forall i. " * n + "A" + ")" * n


def test_hash_agrees_with_equality_and_repr_with_the_dataclass_form():
    # equal terms hash alike: each input against a copy built anew, and
    # the hashes of all inputs are nearly all distinct
    import copy
    terms = [t for _reg, t in DECORATED] + PLAIN
    for t in terms:
        u = copy.deepcopy(t)
        assert u == t and u is not t and hash(u) == hash(t), t
        assert repr(t) == dataclass_repr_reference(t)
    assert len({hash(t) for t in terms}) > 0.9 * len(set(terms))
    for _reg, a in _approximants():
        b = copy.deepcopy(a)
        assert b == a and hash(b) == hash(a)
        assert repr(a) == dataclass_repr_reference(a)
    # records: a refutation, a productivity report's depth, a budget, a
    # diagnostic and a constructor signature
    sf = load("sp")
    reg = sf.registry
    refuted = is_valid(SizeConstraint({}, [(size_const(2), SVar("i"))]))
    report = productivity_check(
        erase(link_all(sf, parse_term("run odd nats", reg))),
        parse_type("Strm", reg), reg, EvalBudget(fuel=50, depth=2))
    sig = reg.definition("Nat").constructors[1]
    wrong = validate_registry(parse_defs(
        "inductive Neg { mk : (Neg -> Neg) -> Neg }"))
    records = [refuted, report.verdicts[-1], EvalBudget(), wrong[0], sig]
    assert not refuted.valid and refuted.witness
    assert wrong[0].span is not None and sig.span is not None
    for r in records:
        assert repr(r) == dataclass_repr_reference(r)
    shared = Constr("s", (Constr("z"),) * 2)
    assert repr(Constr("t", (shared, Bottom(True), Opaque(PVar("x"))))) == (
        "Constr(con='t', children=(Constr(con='s', children=(Constr(con='z',"
        " children=()), Constr(con='z', children=()))), Bottom(fuel_limited="
        "True), Opaque(term=PVar(name='x'))))")


def test_alpha_eq_scopes_each_branch_apart():
    # a binder of one branch does not reach into the next one
    reg = load("trees").registry
    a = parse_term("\\x : Nat. \\s : List(Nat). "
                   "case s of { cons x t => x; nil => x }", reg)
    b = parse_term("\\x : Nat. \\s : List(Nat). "
                   "case s of { cons y t => y; nil => x }", reg)
    c = parse_term("\\x : Nat. \\s : List(Nat). "
                   "case s of { cons y t => x; nil => x }", reg)
    for u, v, want in ((a, b, True), (a, c, False), (b, c, False)):
        assert alpha_eq(u, v) == alpha_eq_term_reference(u, v) == want
        assert alpha_eq(erase(u), erase(v)) == want

"""Shared test utilities: corpus loading, random generators, oracles."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from slam import (
    App, Arrow, Bot, Branch, Case, Coind, Cofix, Con, Fix, Forall, INFTY,
    Lam, SMax, SMin, SVar, SizeApp, SizeExpr, SizeLam, Succ, TyVar, Type,
    Var, ZERO, eval_size, normalize_succ, parse_slam, parse_term,
    parse_type, print_size, print_type, simplify_infty, sv,
    validate_registry,
)
from slam.constraints import CyclicDefMap, check_acyclic, expand
from slam.parser import SlamFile
from slam.rewrite import WhnfResult
from slam.sizes import INF
from slam.syntax import (
    Infty, PApp, PBranch, PCase, PCon, PLam, PVar, Zero, alpha_eq,
    forall_binders, fresh_name,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

_cache: dict[str, SlamFile] = {}


def load(name: str) -> SlamFile:
    if name not in _cache:
        sf = parse_slam((CORPUS_DIR / f"{name}.slam").read_text())
        diags = validate_registry(sf.registry)
        assert not diags, diags
        _cache[name] = sf
    return _cache[name]


# ---------------------------------------------------------------------------
# Random size expressions

DEFAULT_VARS = ("i", "j", "k", "l")


def rand_size(rng: random.Random, depth: int = 3,
              vars: tuple[str, ...] = DEFAULT_VARS,
              allow_inf: bool = True, max_const: int = 3) -> SizeExpr:
    r = rng.random()
    if depth <= 0 or r < 0.35:
        leaves = [ZERO, SVar(rng.choice(vars)),
                  Succ(SVar(rng.choice(vars)))]
        for _ in range(rng.randint(0, max_const)):
            pass
        leaf = rng.choice(leaves + ([INFTY] if allow_inf else []))
        for _ in range(rng.randint(0, max_const - 1)):
            leaf = Succ(leaf)
        return leaf
    if r < 0.55:
        return Succ(rand_size(rng, depth - 1, vars, allow_inf, max_const))
    if r < 0.78:
        return SMin(rand_size(rng, depth - 1, vars, allow_inf, max_const),
                    rand_size(rng, depth - 1, vars, allow_inf, max_const))
    return SMax(rand_size(rng, depth - 1, vars, allow_inf, max_const),
                rand_size(rng, depth - 1, vars, allow_inf, max_const))


def rand_size_ge1(rng: random.Random, depth: int = 3,
                  vars: tuple[str, ...] = DEFAULT_VARS) -> SizeExpr:
    """A size expression that is >= 1 under every valuation."""
    r = rng.random()
    if depth <= 0 or r < 0.4:
        return Succ(rand_size(rng, depth - 1, vars))
    if r < 0.6:
        return SMin(rand_size_ge1(rng, depth - 1, vars),
                    rand_size_ge1(rng, depth - 1, vars))
    if r < 0.8:
        return SMax(rand_size_ge1(rng, depth - 1, vars),
                    rand_size(rng, depth - 1, vars))
    return INFTY


def rand_valuation(rng: random.Random,
                   vars: tuple[str, ...] = DEFAULT_VARS,
                   bound: int = 5, with_inf: bool = True) -> dict:
    vals = {}
    for v in vars:
        if with_inf and rng.random() < 0.15:
            vals[v] = INF
        else:
            vals[v] = rng.randint(0, bound)
    return vals


# ---------------------------------------------------------------------------
# Random types (over the streams registry unless stated otherwise)

def rand_type(rng: random.Random, reg, depth: int = 3,
              vars: tuple[str, ...] = DEFAULT_VARS) -> Type:
    r = rng.random()
    if depth <= 0 or r < 0.45:
        name = rng.choice([d for d in reg.defs if not reg.defs[d].params])
        return Coind(name, rand_size(rng, 2, vars), ())
    if r < 0.7:
        return Arrow(rand_type(rng, reg, depth - 1, vars),
                     rand_type(rng, reg, depth - 1, vars))
    if r < 0.85:
        v = rng.choice(vars)
        return Forall(v, rand_type(rng, reg, depth - 1, vars))
    name = rng.choice(list(reg.defs))
    d = reg.defs[name]
    params = tuple(rand_type(rng, reg, depth - 1, vars)
                   for _ in d.params)
    return Coind(name, rand_size(rng, 2, vars), params)


def reshape_sizes(rng: random.Random, t: Type,
                  vars: tuple[str, ...] = DEFAULT_VARS) -> Type:
    """Same skeleton, fresh random sizes: yields a join/meet-compatible pair."""
    if isinstance(t, Coind):
        return Coind(t.defname, rand_size(rng, 2, vars),
                     tuple(reshape_sizes(rng, p, vars) for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(reshape_sizes(rng, t.dom, vars),
                     reshape_sizes(rng, t.cod, vars))
    if isinstance(t, Forall):
        return Forall(t.var, reshape_sizes(rng, t.body, vars))
    return t


def supertype_of(rng: random.Random, t: Type, reg) -> Type:
    """A type that the input is a subtype of, by variance-correct mutation."""
    if isinstance(t, Coind):
        coind = reg.definition(t.defname).coinductive
        s = t.size
        if rng.random() < 0.6:
            if coind:
                s = SMin(s, rand_size(rng, 1))  # smaller guarantee
            else:
                s = rng.choice([Succ(s), SMax(s, rand_size(rng, 1))])
        return Coind(t.defname, s,
                     tuple(supertype_of(rng, p, reg) for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(subtype_of(rng, t.dom, reg),
                     supertype_of(rng, t.cod, reg))
    if isinstance(t, Forall):
        return Forall(t.var, supertype_of(rng, t.body, reg))
    return t


def subtype_of(rng: random.Random, t: Type, reg) -> Type:
    """A type that is a subtype of the input."""
    if isinstance(t, Coind):
        coind = reg.definition(t.defname).coinductive
        s = t.size
        if rng.random() < 0.6:
            if coind:
                s = rng.choice([Succ(s), SMax(s, rand_size(rng, 1))])
            else:
                s = SMin(s, rand_size(rng, 1))
        return Coind(t.defname, s,
                     tuple(subtype_of(rng, p, reg) for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(supertype_of(rng, t.dom, reg),
                     subtype_of(rng, t.cod, reg))
    if isinstance(t, Forall):
        return Forall(t.var, subtype_of(rng, t.body, reg))
    return t


# ---------------------------------------------------------------------------
# Plain-term references and generator

def plain_free_vars_reference(t) -> frozenset[str]:
    """Free variables of a plain term by a full walk: the reference for
    the cached `fv` field."""
    if isinstance(t, PVar):
        return frozenset({t.name})
    if isinstance(t, PCon):
        return frozenset()
    if isinstance(t, PLam):
        return frozenset(plain_free_vars_reference(t.body) - {t.var})
    if isinstance(t, PApp):
        return plain_free_vars_reference(t.fun) | plain_free_vars_reference(t.arg)
    if isinstance(t, PCase):
        acc = plain_free_vars_reference(t.scrutinee)
        for b in t.branches:
            acc |= plain_free_vars_reference(b.body) - set(b.binders)
        return acc
    raise TypeError(t)


def psubst_reference(t, var: str, value):
    """Capture-avoiding substitution that rebuilds the whole term and
    renames every binder free in `value`: the reference for the sharing
    `rewrite.psubst`."""
    free = plain_free_vars_reference(value)

    def rename(t, old, new):
        return psubst_reference(t, old, PVar(new))

    def go(t):
        if isinstance(t, PVar):
            return value if t.name == var else t
        if isinstance(t, PCon):
            return t
        if isinstance(t, PLam):
            if t.var == var:
                return t
            if t.var in free:
                nv = fresh_name(t.var, free | plain_free_vars_reference(t.body)
                                | {var})
                return PLam(nv, go(rename(t.body, t.var, nv)))
            return PLam(t.var, go(t.body))
        if isinstance(t, PApp):
            return PApp(go(t.fun), go(t.arg))
        if isinstance(t, PCase):
            brs = []
            for b in t.branches:
                if var in b.binders:
                    brs.append(b)
                    continue
                binders = list(b.binders)
                body = b.body
                for i, x in enumerate(binders):
                    if x in free:
                        nv = fresh_name(x, free | plain_free_vars_reference(body)
                                        | set(binders) | {var})
                        body = rename(body, x, nv)
                        binders[i] = nv
                brs.append(PBranch(b.con, tuple(binders), go(body)))
            return PCase(go(t.scrutinee), tuple(brs))
        raise TypeError(t)

    return go(t)


# few names, one of them what fresh_name picks first for "x", so binders
# capture, shadow and clash with renamed binders often
PLAIN_VARS = ("x", "y", "f", "x_1")


def rand_plain(rng: random.Random, depth: int = 4):
    """A random plain term, free variables allowed."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return rng.choice([PVar(v) for v in PLAIN_VARS] + [PCon("zero")])
    if r < 0.5:
        return PLam(rng.choice(PLAIN_VARS), rand_plain(rng, depth - 1))
    if r < 0.8:
        return PApp(rand_plain(rng, depth - 1), rand_plain(rng, depth - 1))
    return PCase(rand_plain(rng, depth - 1), tuple(
        PBranch(con, tuple(rng.sample(PLAIN_VARS, arity)),
                rand_plain(rng, depth - 1))
        for con, arity in (("zero", 0), ("cons", 2))[:rng.randint(1, 2)]))


_TERM_VARS = ("x", "y", "z", "w", "f", "g")


def rand_term(rng: random.Random, reg, depth: int = 3, bound: tuple = (),
              names: tuple = _TERM_VARS):
    """An arity-correct (not necessarily typable) decorated term whose
    free variables are among `bound`; lambda, fix and cofix binders are
    drawn from `names`.  With `PLAIN_VARS`, binders shadow each other
    and clash with the names substitution renames to."""
    def sub(extra=()):
        return rand_term(rng, reg, depth - 1, bound + extra, names)

    r = rng.random()
    if depth <= 0 or r < 0.25:
        atoms = [Con("zero"), App(Con("succ"), Con("zero"))]
        atoms += [Var(x) for x in bound]
        return rng.choice(atoms)
    if r < 0.4:
        v = rng.choice(names)
        return Lam(v, rand_type(rng, reg, 2), sub((v,)))
    if r < 0.5:
        return App(sub(), sub())
    if r < 0.6:
        return SizeApp(sub(), rand_size(rng, 2))
    if r < 0.7:
        return SizeLam(rng.choice(("i", "j")), sub())
    if r < 0.85:
        scrut = sub()
        if rng.random() < 0.5 and "Strm" in reg.defs:
            return Case(scrut, (Branch("cons", ("x", "y"), sub(("x", "y"))),))
        return Case(scrut, (Branch("zero", (), sub()),
                            Branch("succ", ("n",), sub(("n",)))))
    if r < 0.93:
        v = rng.choice(names)
        return Fix(v, rand_type(rng, reg, 2), sub((v,)))
    v = rng.choice(names)
    return Cofix(rng.choice(("i", "j")), v, rand_type(rng, reg, 2), sub((v,)))


# ---------------------------------------------------------------------------
# CNF oracles

Literal = tuple[str, bool]


def rand_cnf(rng: random.Random, max_vars: int = 6,
             max_clauses: int = 8) -> list[list[Literal]]:
    n = rng.randint(2, max_vars)
    vs = [f"v{i}" for i in range(1, n + 1)]
    return [[(rng.choice(vs), rng.random() < 0.5) for _ in range(3)]
            for _ in range(rng.randint(1, max_clauses))]


def truth_table_sat(clauses: list[list[Literal]]) -> bool:
    vs = sorted({x for cl in clauses for x, _ in cl})
    for bits in itertools.product([False, True], repeat=len(vs)):
        env = dict(zip(vs, bits))
        if all(any(env[x] == pos for x, pos in cl) for cl in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Brute-force validity oracle

def completeness_bound(c) -> int:
    """Testing bound: variable count times (max constant + 1) over the
    expanded, +1-normalized inequalities."""
    vs: set[str] = set()
    max_c = 0
    for a, b in c.pairs:
        for s in (expand(c.u, a), expand(c.u, b)):
            s = simplify_infty(s)
            if s == INFTY:
                continue
            s = normalize_succ(s)
            vs |= sv(s)
            max_c = max(max_c, _max_constant(s))
    return max(1, len(vs)) * (max_c + 1)


def _max_constant(s: SizeExpr) -> int:
    if isinstance(s, (SMin, SMax)):
        return max(_max_constant(s.left), _max_constant(s.right))
    n = 0
    while isinstance(s, Succ):
        n += 1
        s = s.arg
    return n


def brute_force_valid(c, bound: int) -> bool:
    """Exhaustively check validity over valuations into {0..bound, oo}.

    Complete when the bound is at least `completeness_bound(c)`.
    Evaluation is vectorised over the whole grid of valuations.
    """
    import numpy as np

    if not check_acyclic(c.u):
        raise CyclicDefMap(f"cyclic definition map: {sorted(c.u)}")
    pairs = [(expand(c.u, a), expand(c.u, b)) for a, b in c.pairs]
    vs = sorted(set().union(*[sv(a) | sv(b) for a, b in pairs]) if pairs else set())
    if not vs:
        return all(eval_size({}, a) <= eval_size({}, b) for a, b in pairs)
    values = np.array(list(range(bound + 1)) + [np.inf])
    grids = np.meshgrid(*[values] * len(vs), indexing="ij")
    env = dict(zip(vs, grids))

    def ev(s: SizeExpr):
        if isinstance(s, Zero):
            return 0.0
        if isinstance(s, Infty):
            return np.inf
        if isinstance(s, SVar):
            return env[s.name]
        if isinstance(s, Succ):
            return ev(s.arg) + 1
        if isinstance(s, SMin):
            return np.minimum(ev(s.left), ev(s.right))
        if isinstance(s, SMax):
            return np.maximum(ev(s.left), ev(s.right))
        raise TypeError(s)

    return all(bool(np.all(ev(a) <= ev(b))) for a, b in pairs)


# ---------------------------------------------------------------------------
# Difference-atom oracle

def sat_atoms_reference(atoms) -> dict[str, int] | None:
    """From-scratch Bellman-Ford over the difference graph of the atoms.

    The same encoding as `slam.constraints.sat_atoms` (edges y -> x of
    weight -c for x + c <= y, a zero node, x >= 0 for every variable),
    solved without any incremental state.
    """
    from slam.constraints import VarVar

    zero = "$zero"
    nodes: list[str] = [zero]
    seen = {zero}
    edges: list[tuple[str, str, int]] = []  # (w, u, b) meaning u - w <= b

    def node(x: str) -> str:
        if x not in seen:
            seen.add(x)
            nodes.append(x)
            edges.append((x, zero, 0))
        return x

    for a in atoms:
        if isinstance(a, VarVar):
            edges.append((node(a.y), node(a.x), -a.c))
        elif a.op == "<=":
            edges.append((zero, node(a.x), a.k))
        else:
            edges.append((node(a.x), zero, -a.k))

    dist = {n: 0 for n in nodes}  # virtual source at distance 0 to all
    for _ in range(len(nodes)):
        changed = False
        for w, u, b in edges:
            if dist[w] + b < dist[u]:
                dist[u] = dist[w] + b
                changed = True
        if not changed:
            break
    else:
        for w, u, b in edges:
            if dist[w] + b < dist[u]:
                return None  # negative cycle
    base = dist[zero]
    return {n: dist[n] - base for n in nodes if n != zero}


def solve_reference(g, disjs):
    """constraints._solve as it was before it remembered refused arms:
    every pass checks every arm of every split again."""
    while True:
        changed = False
        remaining = []
        for d in disjs:
            feasible = [i for i in range(len(d.arms))
                        if (delta := d.delta(i)) is not None
                        and g.admits(delta[0])]
            if not feasible:
                return None
            if len(feasible) == 1:
                da, dd = d.delta(feasible[0])
                g.extend(da)  # just admitted
                disjs = [x for x in disjs if x is not d] + dd
                changed = True
                break
            remaining.append((d, feasible))
        if not changed:
            break
    if not disjs:
        return g.model()
    remaining.sort(key=lambda df: len(df[1]))
    d, feasible = remaining[0]
    rest = [x for x in disjs if x is not d]
    for i in feasible:
        da, dd = d.delta(i)
        mark = g.mark()
        g.extend(da)  # admitted in the last pass, with g as it is now
        model = solve_reference(g, rest + dd)
        if model is not None:
            return model
        g.undo(mark)
    return None


# ---------------------------------------------------------------------------
# Term corpus

EXTRA_TERMS = [
    # (file, source)
    ("streams", "zero"),
    ("streams", "succ zero"),
    ("streams", "succ (succ zero)"),
    ("streams", "\\x : Nat. x"),
    ("streams", "\\x : Nat. succ x"),
    ("streams", "(\\x : Nat. succ x) zero"),
    ("streams", "/\\i. \\s : Strm^i. s"),
    ("streams", "/\\i. \\s : Strm^(i+2). tl [i] (tl [i+1] s)"),
    ("streams", "\\s : Strm. hd [oo] s"),
    ("streams", "cons zero zeros"),
    ("streams", "cons (succ zero) (cons zero zeros)"),
    ("streams", "hd [1] (cons zero zeros)"),
    ("streams", "plus (succ zero) (succ (succ zero))"),
    ("streams", "plus (plus (succ zero) zero) (succ zero)"),
    ("streams", "\\f : Nat -> Nat. \\x : Nat. f (f x)"),
    ("streams", "/\\i. \\f : Strm^(i+1) -> Nat. \\s : Strm^(i+1). f s"),
    ("streams", "omega"),
    ("streams", "\\x : Nat. x x"),
    ("streams", "case zero of { zero => zero; succ n => n }"),
    ("sp", "run odd"),
    ("sp", "run odd nats"),
    ("sp", "\\p : SP. run p nats"),
    ("trees", "so (so ezero)"),
    ("trees", "cons zero nil"),
    ("trees", "cons zero (cons zero nil)"),
]


def linked_reference(sf: SlamFile, name: str):
    """Binding `name` with every earlier binding it reaches substituted
    in, capture-avoiding and in file order.  A reference to a later
    binding (or to itself) stays a free variable.  The earlier
    bindings it reaches are linked first, in file order, each once.

    The oracle for evaluation, which shares one thunk per binding
    instead (`rewrite.closure`); linked terms are kept per file."""
    from slam import subst_term
    linked = vars(sf).setdefault("_linked_reference", {})
    if name not in linked:
        pos = {n: i for i, n in enumerate(sf.bindings)}
        for n in [*sf.reached(sf.bindings[name]), name]:
            if pos[n] > pos[name] or n in linked:
                continue
            t = sf.bindings[n]
            for prev in sf.reached(t):
                if pos[prev] < pos[n]:
                    t = subst_term(t, linked[prev], prev)
            linked[n] = t
    return linked[name]


def link_all(sf: SlamFile, t):
    """The term with every binding of the file linked in, in file order."""
    from slam import subst_term
    for name in sf.bindings:
        t = subst_term(t, linked_reference(sf, name), name)
    return t


def corpus_terms():
    """(label, registry, term) for every corpus binding and extra term."""
    out = []
    for fname in ("streams", "sp", "trees"):
        sf = load(fname)
        for name in sf.bindings:
            out.append((f"{fname}.{name}", sf.registry,
                        linked_reference(sf, name)))
    for fname, src in EXTRA_TERMS:
        sf = load(fname)
        t = link_all(sf, parse_term(src, sf.registry))
        out.append((f"{fname}:{src}", sf.registry, t))
    return out


CONTEXT_TERMS = [
    # (file, gamma source pairs, term source)
    ("streams", [("s", "Strm^(i+1)")], "case s of { cons x t => t }"),
    ("streams", [("f", "Nat -> Nat"), ("x", "Nat")], "f x"),
    ("streams", [("f", "forall i. Strm^(i+1) -> Strm^i"), ("s", "Strm")],
     "f [oo] s"),
    ("streams", [("g", "forall a. Nat^a -> Nat^a")], "/\\i. g [i+1]"),
    ("streams", [("x", "Nat^(k+1)")],
     "case x of { zero => zero; succ y => y }"),
    ("trees", [("xs", "List^(k+1)(Nat)")],
     "case xs of { nil => zero; cons h t => h }"),
    # binders that shadow a context name, which is read again after them;
    # the fix recurses on `a` because a context that mentions its premise
    # variable refuses it, and the stronger contexts that
    # test_context_monotonicity draws mention i, j, k and l
    ("streams", [("x", "Strm")], "cons ((\\x : Nat. x) zero) x"),
    ("streams", [("x", "Nat")], "case x of { succ x => x; zero => x }"),
    ("streams", [("f", "Nat -> Nat"), ("s", "Strm")],
     "cons ((fix f : Nat -> Nat . \\n : Nat^(a+1). case n of "
     "{ zero => zero; succ m => f m }) zero) (cons (f zero) s)"),
]


def context_terms():
    out = []
    for fname, gsrc, tsrc in CONTEXT_TERMS:
        sf = load(fname)
        gamma = {x: parse_type(ty, sf.registry) for x, ty in gsrc}
        out.append((f"{fname}:{tsrc}", sf.registry, gamma,
                    parse_term(tsrc, sf.registry)))
    return out


# ---------------------------------------------------------------------------
# Recursive references for the iterative walkers
#
# The library walks terms, sizes and constructor trees with loops and
# explicit stacks, so nesting depth costs heap instead of Python stack.
# These are the plain recursive forms they replaced, kept as oracles for
# the differential tests; they fail on deep input by design.

_REFERENCE_SYMBOLS = ["->", "=>", "/\\", "<=", "(", ")", "{", "}", "[", "]",
                      "^", ",", ";", ":", ".", "=", "\\", "+"]


KEYWORDS_REFERENCE = {
    "inductive", "coinductive", "case", "of", "fix", "cofix", "forall",
    "min", "max", "oo", "let", "assert",
}


class TokenParserReference:
    """The Token-based parser surface the recursive oracles read: one
    `Token` (kind, text, line, col) per token, a method call per look."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message):
        from slam.parser import ParseError

        t = self.peek()
        return ParseError(message, t.line, t.col)

    def at_sym(self, s):
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def at_word(self, w):
        t = self.peek()
        return t.kind == "ident" and t.text == w

    def eat_sym(self, s):
        if not self.at_sym(s):
            raise self.fail(f"expected {s!r}")
        return self.next()

    def eat_word(self, w):
        if not self.at_word(w):
            raise self.fail(f"expected {w!r}")
        return self.next()

    def eat_ident(self, what="identifier"):
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS_REFERENCE:
            raise self.fail(f"expected {what}")
        return self.next()


class TypeEnvReference:
    """Type names in scope; `resolve` reports errors at the name's Token."""

    def __init__(self, reg, tyvars=frozenset()):
        self.reg = reg
        self.tyvars = tyvars

    def resolve(self, p, tok, size, decorated, args, has_args):
        from slam.parser import ParseError

        name = tok.text
        if name in self.tyvars:
            if decorated or has_args:
                raise ParseError(f"type variable {name} takes no arguments",
                                 tok.line, tok.col)
            return TyVar(name)
        if name not in self.reg:
            raise ParseError(f"unknown type {name}", tok.line, tok.col)
        arity = len(self.reg.definition(name).params)
        if len(args) != arity:
            raise ParseError(
                f"{name} expects {arity} parameter(s), got {len(args)}",
                tok.line, tok.col)
        return Coind(name, size, args)


class TermEnvReference:
    """The term variables in scope, as a set copied per binder."""

    def __init__(self, reg, bound=frozenset()):
        self.reg = reg
        self.types = TypeEnvReference(reg)
        self.bound = bound

    def bind(self, x):
        return TermEnvReference(self.reg, self.bound | {x})

    def resolve(self, name):
        if name in self.bound or self.reg.constructor(name) is None:
            return Var(name)
        return Con(name)


def tokenize_reference(src: str):
    """The character-loop tokenizer: `str.isdigit` digits, so a
    non-ASCII digit becomes a number token (or part of one)."""
    from slam.parser import ParseError, Token

    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i) or ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _REFERENCE_SYMBOLS:
            if src.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def parse_term_reference(src: str, reg):
    """parse_term by recursive descent over the reference tokenizer."""
    class Recursive(_recursive_parser_class()):
        def term(self, env):
            from slam import Branch, Case, Cofix, Fix, Lam, SizeLam
            from slam.parser import ParseError

            if self.at_sym("\\"):
                self.next()
                x = self.eat_ident("variable").text
                self.eat_sym(":")
                ty = self.type_(env.types)
                self.eat_sym(".")
                return Lam(x, ty, self.term(env.bind(x)))
            if self.at_sym("/\\"):
                self.next()
                i = self.eat_ident("size variable").text
                self.eat_sym(".")
                return SizeLam(i, self.term(env))
            if self.at_word("fix"):
                self.next()
                f = self.eat_ident("variable").text
                self.eat_sym(":")
                ty = self.type_(env.types)
                self.eat_sym(".")
                return Fix(f, ty, self.term(env.bind(f)))
            if self.at_word("cofix"):
                self.next()
                self.eat_sym("[")
                j = self.eat_ident("size variable").text
                self.eat_sym("]")
                f = self.eat_ident("variable").text
                self.eat_sym(":")
                ty = self.type_(env.types)
                self.eat_sym(".")
                return Cofix(j, f, ty, self.term(env.bind(f)))
            if self.at_word("case"):
                self.next()
                scrut = self.term(env)
                self.eat_word("of")
                self.eat_sym("{")
                branches = []
                seen = set()
                while not self.at_sym("}"):
                    ctok = self.eat_ident("constructor")
                    if ctok.text in seen:
                        raise ParseError(
                            f"duplicate case branch for {ctok.text}",
                            ctok.line, ctok.col)
                    seen.add(ctok.text)
                    binders = []
                    while self.peek().kind == "ident" and not self.at_sym("=>"):
                        binders.append(self.eat_ident("variable").text)
                    self.eat_sym("=>")
                    benv = env
                    for b in binders:
                        benv = benv.bind(b)
                    branches.append(Branch(ctok.text, tuple(binders),
                                           self.term(benv)))
                    if self.at_sym(";"):
                        self.next()
                    else:
                        break
                self.eat_sym("}")
                return Case(scrut, tuple(branches))
            return self.app_term(env)

        def app_term(self, env):
            from slam import SizeApp

            t = self.atom_term(env)
            while True:
                if self.at_sym("["):
                    self.next()
                    s = self.size()
                    self.eat_sym("]")
                    t = SizeApp(t, s)
                elif self.at_sym("(") or (self.peek().kind == "ident"
                                          and self.peek().text
                                          not in KEYWORDS_REFERENCE):
                    t = App(t, self.atom_term(env))
                else:
                    break
            return t

        def atom_term(self, env):
            if self.at_sym("("):
                self.next()
                t = self.term(env)
                self.eat_sym(")")
                return t
            tok = self.eat_ident("term")
            return env.resolve(tok.text)

    p = Recursive(tokenize_reference(src))
    t = p.term(TermEnvReference(reg))
    if p.peek().kind != "eof":
        raise p.fail("trailing input after term")
    return t


def sv_reference(x) -> frozenset[str]:
    if isinstance(x, SVar):
        return frozenset({x.name})
    if isinstance(x, Succ):
        return sv_reference(x.arg)
    if isinstance(x, (SMin, SMax)):
        return sv_reference(x.left) | sv_reference(x.right)
    if isinstance(x, Coind):
        acc = sv_reference(x.size)
        for p in x.params:
            acc |= sv_reference(p)
        return acc
    if isinstance(x, Arrow):
        return sv_reference(x.dom) | sv_reference(x.cod)
    if isinstance(x, Forall):
        return sv_reference(x.body)
    return frozenset()


def term_free_vars_reference(t) -> frozenset[str]:
    from slam import Case, Cofix, Con, Fix, Lam, SizeApp, SizeLam

    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Con):
        return frozenset()
    if isinstance(t, Lam):
        return frozenset(term_free_vars_reference(t.body) - {t.var})
    if isinstance(t, App):
        return term_free_vars_reference(t.fun) | term_free_vars_reference(t.arg)
    if isinstance(t, SizeApp):
        return term_free_vars_reference(t.fun)
    if isinstance(t, SizeLam):
        return term_free_vars_reference(t.body)
    if isinstance(t, Case):
        acc = term_free_vars_reference(t.scrutinee)
        for b in t.branches:
            acc |= term_free_vars_reference(b.body) - set(b.binders)
        return acc
    if isinstance(t, (Fix, Cofix)):
        return frozenset(term_free_vars_reference(t.body) - {t.var})
    raise TypeError(t)


def fsv_term_reference(t) -> frozenset[str]:
    from slam import Case, Cofix, Con, Fix, Lam, SizeApp, SizeLam, fsv

    if isinstance(t, (Var, Con)):
        return frozenset()
    if isinstance(t, Lam):
        return fsv(t.ty) | fsv_term_reference(t.body)
    if isinstance(t, App):
        return fsv_term_reference(t.fun) | fsv_term_reference(t.arg)
    if isinstance(t, SizeApp):
        return fsv_term_reference(t.fun) | sv(t.size)
    if isinstance(t, SizeLam):
        return frozenset(fsv_term_reference(t.body) - {t.var})
    if isinstance(t, Case):
        acc = fsv_term_reference(t.scrutinee)
        for b in t.branches:
            acc |= fsv_term_reference(b.body)
        return acc
    if isinstance(t, Fix):
        return fsv(t.ty) | fsv_term_reference(t.body)
    if isinstance(t, Cofix):
        return frozenset((fsv(t.ty) | fsv_term_reference(t.body))
                         - {t.size_var})
    raise TypeError(t)


def annotation_binders_reference(t) -> frozenset[str]:
    from slam import Case, Cofix, Con, Fix, Lam, SizeApp, SizeLam
    from slam.syntax import forall_binders

    if isinstance(t, (Var, Con)):
        return frozenset()
    if isinstance(t, (Lam, Fix, Cofix)):
        return forall_binders(t.ty) | annotation_binders_reference(t.body)
    if isinstance(t, App):
        return (annotation_binders_reference(t.fun)
                | annotation_binders_reference(t.arg))
    if isinstance(t, SizeApp):
        return annotation_binders_reference(t.fun)
    if isinstance(t, SizeLam):
        return annotation_binders_reference(t.body)
    if isinstance(t, Case):
        acc = annotation_binders_reference(t.scrutinee)
        for b in t.branches:
            acc |= annotation_binders_reference(b.body)
        return acc
    raise TypeError(t)


def check_term_wf_reference(t, reg) -> list:
    from slam import (
        Case, Cofix, Con, Diagnostic, Fix, Lam, SizeApp, SizeLam,
        check_type_wf, tv,
    )

    out = []

    def check_ann(ty):
        out.extend(check_type_wf(ty, reg))
        extra = tv(ty)
        if extra:
            out.append(Diagnostic(
                f"annotation type must be closed, has type variable(s) "
                f"{', '.join(sorted(extra))}"))

    def go(t):
        if isinstance(t, (Var, Con)):
            if isinstance(t, Con) and reg.constructor(t.name) is None:
                out.append(Diagnostic(f"unknown constructor {t.name}"))
            return
        if isinstance(t, Lam):
            check_ann(t.ty)
            go(t.body)
        elif isinstance(t, App):
            go(t.fun)
            go(t.arg)
        elif isinstance(t, (SizeApp, SizeLam)):
            go(t.fun if isinstance(t, SizeApp) else t.body)
        elif isinstance(t, Case):
            go(t.scrutinee)
            seen = set()
            for b in t.branches:
                if b.con in seen:
                    out.append(Diagnostic(f"duplicate case branch for {b.con}"))
                seen.add(b.con)
                sig = reg.constructor(b.con)
                if sig is None:
                    out.append(Diagnostic(f"unknown constructor {b.con} in case"))
                elif len(sig.arg_types) != len(b.binders):
                    out.append(Diagnostic(
                        f"branch for {b.con} binds {len(b.binders)} variable(s), "
                        f"constructor has {len(sig.arg_types)} argument(s)"))
                go(b.body)
        elif isinstance(t, (Fix, Cofix)):
            check_ann(t.ty)
            go(t.body)
        else:
            raise TypeError(t)

    go(t)
    return out


def uniquify_size_binders_reference(t, avoid=()):
    """The renaming `ren` of the size binders in scope is applied to
    sizes and annotations at once, each old name to its new one.  The
    new names avoid every annotation binder, so no forall of an
    annotation captures one."""
    from slam.syntax import fsv

    used = set(fsv(t)) | annotation_binders_reference(t) | set(avoid)

    def size(s, ren):
        if isinstance(s, SVar):
            return SVar(ren.get(s.name, s.name))
        if isinstance(s, Succ):
            return Succ(size(s.arg, ren))
        if isinstance(s, (SMin, SMax)):
            return type(s)(size(s.left, ren), size(s.right, ren))
        return s

    def ty(x, ren):
        if isinstance(x, Forall):
            inner = {k: v for k, v in ren.items() if k != x.var}
            return Forall(x.var, ty(x.body, inner))
        if isinstance(x, Arrow):
            return Arrow(ty(x.dom, ren), ty(x.cod, ren))
        if isinstance(x, Coind):
            return Coind(x.defname, size(x.size, ren),
                         tuple(ty(p, ren) for p in x.params))
        return x

    def go(t, ren):
        if isinstance(t, (Var, Con)):
            return t
        if isinstance(t, Lam):
            return Lam(t.var, ty(t.ty, ren), go(t.body, ren))
        if isinstance(t, App):
            return App(go(t.fun, ren), go(t.arg, ren))
        if isinstance(t, SizeApp):
            return SizeApp(go(t.fun, ren), size(t.size, ren))
        if isinstance(t, SizeLam):
            nv = fresh_name(t.var, used)
            used.add(nv)
            return SizeLam(nv, go(t.body, {**ren, t.var: nv}))
        if isinstance(t, Case):
            return Case(go(t.scrutinee, ren),
                        tuple(Branch(b.con, b.binders, go(b.body, ren))
                              for b in t.branches))
        if isinstance(t, Fix):
            return Fix(t.var, ty(t.ty, ren), go(t.body, ren))
        if isinstance(t, Cofix):
            nv = fresh_name(t.size_var, used)
            used.add(nv)
            return Cofix(nv, t.var, ty(t.ty, {**ren, t.size_var: nv}),
                         go(t.body, {**ren, t.size_var: nv}))
        raise TypeError(t)

    return go(t, {})


def const_value_reference(s):
    if isinstance(s, Zero):
        return 0
    if isinstance(s, Infty):
        return INF
    if isinstance(s, Succ):
        v = const_value_reference(s.arg)
        return None if v is None else (v + 1 if v != INF else INF)
    if isinstance(s, (SMin, SMax)):
        l, r = const_value_reference(s.left), const_value_reference(s.right)
        if l is None or r is None:
            return None
        return min(l, r) if isinstance(s, SMin) else max(l, r)
    return None


def expand_reference(u, s):
    memo = {}

    def go(s):
        if isinstance(s, SVar):
            if s.name not in u:
                return s
            if s.name not in memo:
                memo[s.name] = go(u[s.name])
            return memo[s.name]
        if isinstance(s, Succ):
            return Succ(go(s.arg))
        if isinstance(s, SMin):
            return SMin(go(s.left), go(s.right))
        if isinstance(s, SMax):
            return SMax(go(s.left), go(s.right))
        return s

    return go(s)


def topo_order_reference(u):
    """Keys of u with dependencies first, or None on a cycle: the two
    recursive depth-first searches the solver used."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {i: WHITE for i in u}

    def acyclic(i):
        color[i] = GRAY
        for j in sv(u[i]):
            if j not in color:
                continue
            if color[j] == GRAY or (color[j] == WHITE and not acyclic(j)):
                return False
        color[i] = BLACK
        return True

    if not all(acyclic(i) for i in u if color[i] == WHITE):
        return None
    out, seen = [], set()

    def visit(i):
        if i in seen:
            return
        seen.add(i)
        for j in sv(u[i]):
            if j in u:
                visit(j)
        out.append(i)

    for i in u:
        visit(i)
    return out


def erase_reference(t):
    from slam import Case, Cofix, Con, Fix, Lam, SizeApp, SizeLam
    from slam.rewrite import Y_COMBINATOR

    if isinstance(t, Var):
        return PVar(t.name)
    if isinstance(t, Con):
        return PCon(t.name)
    if isinstance(t, Lam):
        return PLam(t.var, erase_reference(t.body))
    if isinstance(t, App):
        return PApp(erase_reference(t.fun), erase_reference(t.arg))
    if isinstance(t, SizeApp):
        return erase_reference(t.fun)
    if isinstance(t, SizeLam):
        return erase_reference(t.body)
    if isinstance(t, Case):
        return PCase(erase_reference(t.scrutinee),
                     tuple(PBranch(b.con, b.binders, erase_reference(b.body))
                           for b in t.branches))
    if isinstance(t, (Fix, Cofix)):
        return PApp(Y_COMBINATOR, PLam(t.var, erase_reference(t.body)))
    raise TypeError(t)


def approx_reference(t, depth, fuel, reg, gas, memo=None):
    """rewrite._approx by recursion, with the constructor lookups and
    the type-variable scan of every argument made at each node, and no
    observation kept: every occurrence of a subterm is observed anew."""
    from slam import tv
    from slam.rewrite import Bottom, Constr, Opaque, _FULL_DEPTH, whnf

    if reg is None and depth <= 0:
        return Bottom(), 0, False, 1
    if gas[0] <= 0:
        return Bottom(fuel_limited=True), 0, True, 1
    if memo is None:
        memo = {}
    limit = min(fuel, gas[0])
    key = (id(t), limit)
    hit = memo.get(key)
    if hit is None:
        r = whnf(t, limit)
        memo[key] = (t, r)
    else:
        r = hit[1]
    gas[0] -= r.steps
    if r.kind == "fuel":
        return Bottom(fuel_limited=True), r.steps, True, 1
    if r.kind != "head":
        return Opaque(r.term), r.steps, False, 1
    n = len(r.args)
    if reg is None:
        depths = [depth - 1] * n
    else:
        d, sig = reg.constructor_entry(r.head) or (None, None)
        if sig is None or len(sig.arg_types) != n:
            depths = None if depth <= 0 else [depth - 1] * n
        elif d.coinductive and depth <= 0:
            depths = None
        else:
            depths = [_FULL_DEPTH if not tv(sigma)
                      else depth - 1 if d.coinductive else depth
                      for sigma in sig.arg_types]
    if depths is None:
        return Bottom(), r.steps, False, 1
    kids, total, limited, nodes = [], r.steps, False, 1
    for arg, dep in zip(r.args, depths):
        k, st, lim, nd = approx_reference(arg, dep, fuel, reg, gas, memo)
        kids.append(k)
        total += st
        limited = limited or lim
        nodes += nd
    return Constr(r.head, tuple(kids)), total, limited, nodes


def render_approximant_reference(a, reg) -> str:
    """cli.render_approximant by recursion, with the numeral scan made
    again at every node."""
    from slam import PLam
    from slam.rewrite import Bottom, Constr, Opaque

    sugar_nat = reg.constructor("zero") is not None \
        and reg.constructor("succ") is not None
    sugar_cons = reg.constructor("cons") is not None

    def numeral(a):
        n = 0
        while isinstance(a, Constr) and a.con == "succ" and len(a.children) == 1:
            n += 1
            a = a.children[0]
        if isinstance(a, Constr) and a.con == "zero" and not a.children:
            return n
        return None

    def go(a, atom: bool) -> str:
        if isinstance(a, Bottom):
            return "_|_"
        if isinstance(a, Opaque):
            return "<fun>" if isinstance(a.term, PLam) else "<stuck>"
        if sugar_nat:
            n = numeral(a)
            if n is not None:
                return str(n)
        if sugar_cons and a.con == "cons" and len(a.children) == 2:
            s = f"{go(a.children[0], True)} :: {go(a.children[1], False)}"
            return f"({s})" if atom else s
        if not a.children:
            return a.con
        s = a.con + " " + " ".join(go(k, True) for k in a.children)
        return f"({s})" if atom else s

    return go(a, False)


def _recursive_infer_class():
    from typing import Optional

    from slam import (
        BOT, INFTY, ZERO, App, Arrow, Case, Coind, Cofix, Con, Fix, Forall,
        Lam, SMin, SVar, SizeApp, SizeLam, Succ, Term, Type, Var, join, sv,
    )
    from slam.sizes import size_ge_const, underline
    from slam.subtyping import chgtgt, tgt
    from slam.syntax import SizeExpr, smax, smin, subst_type_sizes
    from slam.typecheck import Decomposed, _Infer

    class RecursiveInfer(_Infer):
        """The inference rules as plain recursive methods."""

        def infer(self, t: Term, gamma: dict[str, Type]) -> Optional[Type]:
            if isinstance(t, Var):
                ty = gamma.get(t.name)
                if ty is None:
                    return self.fail("ax", t, f"unbound variable {t.name}")
                return ty
            if isinstance(t, Con):
                sig = self.reg.constructor(t.name)
                if sig is None:
                    return self.fail("con", t, f"unknown constructor {t.name}")
                if sig.arg_types:
                    return self.fail("con", t,
                                     f"constructor {t.name} is not fully applied")
                return self.con_rule(t.name, [], gamma, t)
            if isinstance(t, App):
                head = t
                spine: list[Term] = []
                while isinstance(head, App):
                    spine.append(head.arg)
                    head = head.fun
                spine.reverse()
                if isinstance(head, Con):
                    sig = self.reg.constructor(head.name)
                    if sig is None:
                        return self.fail("con", t,
                                         f"unknown constructor {head.name}")
                    ar = len(sig.arg_types)
                    if len(spine) < ar:
                        return self.fail(
                            "con", t, f"constructor {head.name} expects {ar} "
                            f"argument(s), got {len(spine)}")
                    res = self.con_rule(head.name, spine[:ar], gamma, t)
                    rest = spine[ar:]
                else:
                    res = self.infer(head, gamma)
                    rest = spine
                for arg in rest:
                    if res is None:
                        return None
                    res = self.app_rule(res, arg, gamma, t)
                return res
            if isinstance(t, Lam):
                body = self.infer(t.body, {**gamma, t.var: t.ty})
                return None if body is None else Arrow(t.ty, body)
            if isinstance(t, SizeApp):
                fun = self.infer(t.fun, gamma)
                if fun is None:
                    return None
                if not isinstance(fun, Forall):
                    return self.fail("inst", t, "size application needs a "
                                     "quantified type, got " + print_type(fun))
                out = self.instantiate(fun.var, fun.body, t.size)
                if out is None:
                    return self.fail("inst", t,
                                     "quantifier was already instantiated")
                return out
            if isinstance(t, SizeLam):
                if t.var in self._fsv_u_context(gamma):
                    return self.fail("gen", t,
                                     f"size variable {t.var} occurs in the context")
                body = self.infer(t.body, gamma)
                if body is None:
                    return None
                self.linear.add(t.var)
                return Forall(t.var, body)
            if isinstance(t, Case):
                return self.case_rule(t, gamma)
            if isinstance(t, Fix):
                return self.fix_rule(t, gamma)
            if isinstance(t, Cofix):
                return self.cofix_rule(t, gamma)
            raise TypeError(t)

        def app_rule(self, fun_ty: Type, arg: Term, gamma: dict[str, Type],
                     at: Term) -> Optional[Type]:
            if not isinstance(fun_ty, Arrow):
                return self.fail("app", at,
                                 "application of a non-arrow type "
                                 + print_type(fun_ty))
            arg_ty = self.infer(arg, gamma)
            if arg_ty is None:
                return None
            self.add_sub(arg_ty, fun_ty.dom)
            return fun_ty.cod

        def con_rule(self, cname: str, args: list[Term],
                     gamma: dict[str, Type], at: Term) -> Optional[Type]:
            entry = self.reg.constructor_entry(cname)
            assert entry is not None
            d, sig = entry
            neutral: SizeExpr = INFTY if d.coinductive else ZERO
            sizes: list[SizeExpr] = []
            per_arg: list[Decomposed] = []
            for arg, sigma in zip(args, sig.arg_types):
                theta = self.infer(arg, gamma)
                if theta is None:
                    return None
                dec = self.decompose(theta, sigma, d.name)
                if dec is None:
                    return self.fail(
                        "con", at, f"argument of {cname} does not match its "
                        f"declared shape (got {print_type(theta)})")
                per_arg.append(dec)
                sizes.append(dec.size if dec.size is not None else neutral)
                self.add_sub(dec.sigma_prime, sigma)
            taus: list[Type] = []
            for j, bname in enumerate(d.params):
                acc: Type = BOT
                for dec in per_arg:
                    for cand in ([dec.rec_params[j]] if dec.rec_params else []) \
                            + ([dec.param_insts[bname]]
                               if bname in dec.param_insts else []):
                        acc = join(acc, cand, self.reg, env=self)
                        if acc is None:
                            return self.fail("con", at,
                                             "parameter instances have no join")
                taus.append(acc)
            agg = (smin(*sizes) if d.coinductive else smax(*sizes)) \
                if sizes else neutral
            return Coind(d.name, Succ(agg), tuple(taus))

        def case_rule(self, t: Case, gamma: dict[str, Type]) -> Optional[Type]:
            scrut = self.infer(t.scrutinee, gamma)
            if scrut is None:
                return None
            if not isinstance(scrut, Coind):
                return self.fail("case", t, "scrutinee has non-data type "
                                 + print_type(scrut))
            d = self.reg.definition(scrut.defname)
            if not t.branches:
                return self.fail("case", t, "empty case")
            seen: set[str] = set()
            for b in t.branches:
                entry = self.reg.constructor_entry(b.con)
                if entry is None or entry[0].name != d.name:
                    return self.fail("case", t,
                                     f"branch {b.con} is not a constructor of {d.name}")
                if b.con in seen or len(entry[1].arg_types) != len(b.binders):
                    return self.fail("case", t, f"malformed branch for {b.con}")
                seen.add(b.con)
            if d.coinductive:
                if not size_ge_const(self.u, scrut.size, 1):
                    return self.fail("case", t,
                                     "coinductive scrutinee size is not >= 1")
                peeled = self._overline_u(scrut.size)
                if peeled is None:
                    return self.fail("case", t,
                                     "cannot peel the scrutinee size")
            else:
                peeled = underline(scrut.size)
            iv = self.fresh_size()
            self.u[iv] = peeled
            rec_inst = Coind(d.name, SVar(iv), scrut.params)
            subst_map: dict[str, Type] = {d.rec_var: rec_inst}
            subst_map.update({bn: p for bn, p in zip(d.params, scrut.params)})
            result: Optional[Type] = None
            for b in t.branches:
                sig = self.reg.constructor(b.con)
                g2 = dict(gamma)
                for x, sigma in zip(b.binders, sig.arg_types):
                    delta = subst_type_sizes(sigma, {}, subst_map)
                    self.store_type(delta)
                    g2[x] = delta
                tk = self.infer(b.body, g2)
                if tk is None:
                    return None
                if result is None:
                    result = tk
                else:
                    result = join(result, tk, self.reg, env=self)
                    if result is None:
                        return self.fail("case", t, "branch types have no join")
            return result

        def fix_rule(self, t: Fix, gamma: dict[str, Type]) -> Optional[Type]:
            js: list[str] = []
            core = t.ty
            while isinstance(core, Forall):
                js.append(core.var)
                core = core.body
            if not isinstance(core, Arrow) or not isinstance(core.dom, Coind):
                return self.fail("fix", t, "annotation must have shape "
                                 "forall js. mu -> tau with mu inductive")
            dom, cod = core.dom, core.cod
            if self.reg.definition(dom.defname).coinductive:
                return self.fail("fix", t, f"{dom.defname} is not inductive")
            if dom.size != INFTY:
                return self.fail("fix", t,
                                 "the recursive domain must be undecorated")
            iv = self.fresh_size()

            def wrap(dom_size: SizeExpr) -> Type:
                ty: Type = Arrow(Coind(dom.defname, dom_size, dom.params), cod)
                for j in reversed(js):
                    ty = Forall(j, ty)
                return ty

            prem = wrap(SVar(iv))
            self.store_type(prem)
            theta = self.infer(t.body, {**gamma, t.var: prem})
            if theta is None:
                return None
            k = self._premise_var(theta, len(js), dom.defname, gamma, t.ty)
            if k is not None:
                self.u[iv] = SVar(k)
            self.add_sub(theta, wrap(Succ(SVar(iv))))
            return t.ty

        def _premise_var(self, theta: Type, n_foralls: int, dname: str,
                         gamma: dict[str, Type], ann: Type) -> Optional[str]:
            """The size variable the body actually recursed on, when its
            inferred domain has the literal shape d^(k+1) for a suitable k."""
            core = theta
            for _ in range(n_foralls):
                if not isinstance(core, Forall):
                    return None
                core = core.body
            if not (isinstance(core, Arrow) and isinstance(core.dom, Coind)
                    and core.dom.defname == dname):
                return None
            s = core.dom.size
            if not (isinstance(s, Succ) and isinstance(s.arg, SVar)):
                return None
            k = s.arg.name
            if k.startswith(("$", "?")) or k in self.u or k in sv(ann):
                return None
            if k in self._fsv_u_context(gamma):
                return None
            return k

        def cofix_rule(self, t: Cofix, gamma: dict[str, Type]) -> Optional[Type]:
            target = tgt(t.ty)
            if not isinstance(target, Coind) or \
                    not self.reg.definition(target.defname).coinductive:
                return self.fail("cofix", t,
                                 "annotation target must be coinductive")
            j = t.size_var
            if j in self._fsv_u_context(gamma):
                return self.fail("cofix", t,
                                 f"size variable {j} occurs in the context")
            if j in sv(t.ty):
                return self.fail("cofix", t,
                                 f"size variable {j} occurs in the annotation")
            s = target.size
            prem = chgtgt(t.ty, Coind(target.defname, SMin(s, SVar(j)),
                                      target.params))
            self.store_type(prem)
            theta = self.infer(t.body, {**gamma, t.var: prem})
            if theta is None:
                return None
            self.add_sub(theta, chgtgt(t.ty, Coind(
                target.defname, SMin(s, Succ(SVar(j))), target.params)))
            return t.ty

    return RecursiveInfer


def infer_state(reg, gamma, t, recursive: bool):
    """Run inference as `typecheck.infer` does, with the iterative rules
    or with the recursive reference; returns every piece of the state."""
    from slam.syntax import forall_binders, fsv, uniquify_size_binders
    from slam.typecheck import _Infer

    ambient = set()
    for ty in gamma.values():
        ambient |= fsv(ty) | forall_binders(ty)
    t = uniquify_size_binders(t, ambient)
    st = (_recursive_infer_class() if recursive else _Infer)(reg, {})
    tau = st.infer(t, dict(gamma))
    return tau, st.u, st.pairs, st.linear, st.trail


# ---------------------------------------------------------------------------
# Recursive references for the size and type walks
#
# Sizes and types are walked by `syntax.nodes` and `syntax.fold`, and
# parsed on a frame stack.  These are the recursive walkers those
# replaced, as they were, renamed `<name>_reference`.

def children_reference(x) -> tuple:
    """The children of a size, type or term node, read off its fields: a
    run of successors has its base, a case its scrutinee and then its
    branch bodies."""
    if isinstance(x, Succ):
        return (x.base,)
    if isinstance(x, (SMin, SMax)):
        return (x.left, x.right)
    if isinstance(x, Coind):
        return tuple(x.params)
    if isinstance(x, Arrow):
        return (x.dom, x.cod)
    if isinstance(x, (App, PApp)):
        return (x.fun, x.arg)
    if isinstance(x, SizeApp):
        return (x.fun,)
    if isinstance(x, (Case, PCase)):
        return (x.scrutinee, *(b.body for b in x.branches))
    if isinstance(x, (Forall, Lam, Fix, Cofix, PLam, SizeLam)):
        return (x.body,)
    return ()


def nodes_reference(x, into=None) -> list:
    """`syntax.nodes`: pre-order, left to right, recursively."""
    out = [x]
    if into is None or type(x) in into:
        for k in children_reference(x):
            out += nodes_reference(k, into)
    return out


def fold_reference(x, fn, into=None, enter=None, ctx=None):
    """`syntax.fold` without `defs`: enter on the way down, then fn over
    the children's values, recursively."""
    if enter is not None:
        x, ctx = enter(x, ctx)
    kids = children_reference(x) if into is None or type(x) in into else ()
    return fn(x, [fold_reference(k, fn, into, enter, ctx) for k in kids],
              ctx)


def eval_size_reference(v, s):
    return _eval_reference(lambda n: v.get(n, 0), s)


def _eval_reference(get, s):
    if isinstance(s, Zero):
        return 0
    if isinstance(s, Infty):
        return INF
    if isinstance(s, SVar):
        return get(s.name)
    if isinstance(s, Succ):
        x = _eval_reference(get, s.arg)
        return x + 1 if x != INF else INF
    if isinstance(s, SMin):
        return min(_eval_reference(get, s.left), _eval_reference(get, s.right))
    if isinstance(s, SMax):
        return max(_eval_reference(get, s.left), _eval_reference(get, s.right))
    raise TypeError(s)


def size_ge_const_reference(u, s, k):
    memo = {}

    def val(name):
        if name in memo:
            return memo[name]
        if name in u:
            memo[name] = _eval_reference(val, u[name])
        else:
            memo[name] = 0
        return memo[name]

    return _eval_reference(val, s) >= k


def simplify_infty_reference(s):
    if isinstance(s, Succ):
        a = simplify_infty_reference(s.arg)
        return INFTY if a == INFTY else Succ(a)
    if isinstance(s, SMin):
        l, r = simplify_infty_reference(s.left), simplify_infty_reference(s.right)
        if l == INFTY:
            return r
        if r == INFTY:
            return l
        return SMin(l, r)
    if isinstance(s, SMax):
        l, r = simplify_infty_reference(s.left), simplify_infty_reference(s.right)
        if l == INFTY or r == INFTY:
            return INFTY
        return SMax(l, r)
    return s


def normalize_succ_reference(s):
    from slam.sizes import SizeError

    if isinstance(s, Infty):
        raise SizeError("normalize_succ needs an oo-free expression")
    if isinstance(s, (Zero, SVar)):
        return s
    if isinstance(s, Succ):
        return _plus1_reference(normalize_succ_reference(s.arg))
    if isinstance(s, SMin):
        return SMin(normalize_succ_reference(s.left),
                    normalize_succ_reference(s.right))
    if isinstance(s, SMax):
        return SMax(normalize_succ_reference(s.left),
                    normalize_succ_reference(s.right))
    raise TypeError(s)


def _plus1_reference(s):
    if isinstance(s, SMin):
        return SMin(_plus1_reference(s.left), _plus1_reference(s.right))
    if isinstance(s, SMax):
        return SMax(_plus1_reference(s.left), _plus1_reference(s.right))
    return Succ(s)


def peel_reference(s, *, bump):
    from slam.sizes import _SHAPE_INF, _SHAPE_SUCC, _SHAPE_ZERO

    if isinstance(s, Zero):
        return _SHAPE_ZERO, None
    if isinstance(s, Infty):
        return _SHAPE_INF, None
    if isinstance(s, SVar):
        # a superfluous variable occurrence
        if bump:
            return _SHAPE_SUCC, s  # i becomes i+1
        return _SHAPE_ZERO, None   # i becomes 0
    if isinstance(s, Succ):
        # everything below a +1 is kept verbatim
        return _SHAPE_SUCC, s.arg
    if isinstance(s, SMin):
        ls, lw = peel_reference(s.left, bump=bump)
        rs, rw = peel_reference(s.right, bump=bump)
        if ls == _SHAPE_ZERO or rs == _SHAPE_ZERO:
            return _SHAPE_ZERO, None
        if ls == _SHAPE_INF:
            return rs, rw
        if rs == _SHAPE_INF:
            return ls, lw
        return _SHAPE_SUCC, SMin(lw, rw)
    if isinstance(s, SMax):
        ls, lw = peel_reference(s.left, bump=bump)
        rs, rw = peel_reference(s.right, bump=bump)
        if ls == _SHAPE_INF or rs == _SHAPE_INF:
            return _SHAPE_INF, None
        if ls == _SHAPE_ZERO:
            return rs, rw
        if rs == _SHAPE_ZERO:
            return ls, lw
        return _SHAPE_SUCC, SMax(lw, rw)
    raise TypeError(s)


def subst_size_reference(s, by, var):
    if isinstance(s, SVar):
        return by if s.name == var else s
    if isinstance(s, Succ):
        return Succ(subst_size_reference(s.arg, by, var))
    if isinstance(s, SMin):
        return SMin(subst_size_reference(s.left, by, var),
                    subst_size_reference(s.right, by, var))
    if isinstance(s, SMax):
        return SMax(subst_size_reference(s.left, by, var),
                    subst_size_reference(s.right, by, var))
    return s


def flatten_reference(s, cls):
    if isinstance(s, cls):
        return flatten_reference(s.left, cls) + flatten_reference(s.right, cls)
    return [s]


def print_size_reference(s):
    if isinstance(s, Succ):
        n = 0
        base = s
        while isinstance(base, Succ):
            n += 1
            base = base.arg
        if isinstance(base, Zero):
            return str(n)
        return f"{_size_atom_reference(base)}+{n}"
    if isinstance(s, Zero):
        return "0"
    if isinstance(s, Infty):
        return "oo"
    if isinstance(s, SVar):
        return s.name
    if isinstance(s, SMin):
        return f"min({print_size_reference(s.left)}, {print_size_reference(s.right)})"
    if isinstance(s, SMax):
        return f"max({print_size_reference(s.left)}, {print_size_reference(s.right)})"
    raise TypeError(s)


def _size_atom_reference(s):
    # atoms may follow '^' or precede '+n' without parentheses
    if isinstance(s, (Zero, Infty, SVar, SMin, SMax)):
        return print_size_reference(s)
    if isinstance(s, Succ):
        p = print_size_reference(s)
        return p if p.isdigit() else f"({p})"
    raise TypeError(s)


def _caret_reference(s):
    if s == INFTY:
        return ""
    if isinstance(s, (Zero, SVar)):
        return f"^{print_size_reference(s)}"
    p = print_size_reference(s)
    if p.isdigit():
        return f"^{p}"
    return f"^({p})"


def print_type_reference(t):
    if isinstance(t, Forall):
        return f"forall {t.var}. {print_type_reference(t.body)}"
    if isinstance(t, Arrow):
        return f"{_type_atomish_reference(t.dom)} -> {print_type_reference(t.cod)}"
    return _type_atomish_reference(t)


def _type_atomish_reference(t):
    from slam import TyVar

    if isinstance(t, TyVar):
        return t.name
    if isinstance(t, Coind):
        head = t.defname + _caret_reference(t.size)
        if t.params:
            return head + "(" + ", ".join(print_type_reference(p) for p in t.params) + ")"
        return head
    if isinstance(t, (Arrow, Forall)):
        return f"({print_type_reference(t)})"
    raise TypeError(f"not a printable type: {t!r}")


def render_type_reference(ty):
    from slam.subtyping import Bot

    def go(t):
        if isinstance(t, Bot):
            return Coind("_|_", INFTY, ())
        if isinstance(t, Coind):
            return Coind(t.defname, t.size, tuple(go(p) for p in t.params))
        if isinstance(t, Arrow):
            return Arrow(go(t.dom), go(t.cod))
        if isinstance(t, Forall):
            return Forall(t.var, go(t.body))
        return t

    return print_type_reference(go(ty))


def fsv_reference(x):
    from slam import Bot, TyVar

    if isinstance(x, Forall):
        return frozenset(fsv_reference(x.body) - {x.var})
    if isinstance(x, Arrow):
        return fsv_reference(x.dom) | fsv_reference(x.cod)
    if isinstance(x, Coind):
        acc = fsv_reference(x.size)
        for p in x.params:
            acc |= fsv_reference(p)
        return acc
    if isinstance(x, (TyVar, Bot)):
        return frozenset()
    return sv_reference(x)


def tv_reference(t):
    from slam import Bot, TyVar

    if isinstance(t, TyVar):
        return frozenset({t.name})
    if isinstance(t, Coind):
        acc = frozenset()
        for p in t.params:
            acc |= tv_reference(p)
        return acc
    if isinstance(t, Arrow):
        return tv_reference(t.dom) | tv_reference(t.cod)
    if isinstance(t, Forall):
        return tv_reference(t.body)
    if isinstance(t, Bot):
        return frozenset()
    return frozenset()


def forall_binders_reference(t):
    if isinstance(t, Forall):
        return frozenset({t.var}) | forall_binders_reference(t.body)
    if isinstance(t, Arrow):
        return forall_binders_reference(t.dom) | forall_binders_reference(t.cod)
    if isinstance(t, Coind):
        acc = frozenset()
        for p in t.params:
            acc |= forall_binders_reference(p)
        return acc
    return frozenset()


def mentioned_defs_reference(t):
    if isinstance(t, Coind):
        acc = frozenset({t.defname})
        for p in t.params:
            acc |= mentioned_defs_reference(p)
        return acc
    if isinstance(t, Arrow):
        return mentioned_defs_reference(t.dom) | mentioned_defs_reference(t.cod)
    if isinstance(t, Forall):
        return mentioned_defs_reference(t.body)
    return frozenset()


def strictly_positive_reference(t, reg):
    from slam import TyVar

    if not tv_reference(t):
        return True
    if isinstance(t, TyVar):
        return True
    if isinstance(t, Arrow):
        return not tv_reference(t.dom) and strictly_positive_reference(t.cod, reg)
    if isinstance(t, Forall):
        return strictly_positive_reference(t.body, reg)
    if isinstance(t, Coind):
        return t.size == INFTY and all(strictly_positive_reference(p, reg)
                                       for p in t.params)
    return False


def check_type_wf_reference(t, reg, tyvars=frozenset()):
    from slam import Diagnostic, TyVar

    out = []
    if isinstance(t, TyVar):
        if t.name not in tyvars:
            out.append(Diagnostic(f"unknown type variable {t.name}"))
    elif isinstance(t, Coind):
        d = reg.defs.get(t.defname)
        if d is None:
            out.append(Diagnostic(f"unknown (co)inductive type {t.defname}"))
        elif len(d.params) != len(t.params):
            out.append(Diagnostic(
                f"{t.defname} expects {len(d.params)} parameter(s), "
                f"got {len(t.params)}"))
        for p in t.params:
            out.extend(check_type_wf_reference(p, reg, tyvars))
    elif isinstance(t, Arrow):
        out.extend(check_type_wf_reference(t.dom, reg, tyvars))
        out.extend(check_type_wf_reference(t.cod, reg, tyvars))
    elif isinstance(t, Forall):
        out.extend(check_type_wf_reference(t.body, reg, tyvars))
    return out


def check_arities_reference(t, reg, c, d):
    from slam import Diagnostic

    out = []
    if isinstance(t, Coind):
        other = reg.defs.get(t.defname)
        if other is None:
            out.append(Diagnostic(
                f"{d.name}.{c.name}: unknown type {t.defname}", c.span))
        elif len(other.params) != len(t.params):
            out.append(Diagnostic(
                f"{d.name}.{c.name}: {t.defname} expects "
                f"{len(other.params)} parameter(s)", c.span))
        for p in t.params:
            out.extend(check_arities_reference(p, reg, c, d))
    elif isinstance(t, Arrow):
        out.extend(check_arities_reference(t.dom, reg, c, d))
        out.extend(check_arities_reference(t.cod, reg, c, d))
    elif isinstance(t, Forall):
        out.extend(check_arities_reference(t.body, reg, c, d))
    return out


def subst_type_size_reference(t, by, var):
    from slam import Bot, TyVar

    if isinstance(t, (TyVar, Bot)):
        return t
    if isinstance(t, Coind):
        return Coind(t.defname, subst_size_reference(t.size, by, var),
                     tuple(subst_type_size_reference(p, by, var)
                           for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(subst_type_size_reference(t.dom, by, var),
                     subst_type_size_reference(t.cod, by, var))
    if isinstance(t, Forall):
        if t.var == var:
            return t
        if t.var in sv_reference(by):
            nv = fresh_name(t.var, sv_reference(by) | fsv_reference(t.body)
                            | {var})
            body = subst_type_size_reference(t.body, SVar(nv), t.var)
            return Forall(nv, subst_type_size_reference(body, by, var))
        return Forall(t.var, subst_type_size_reference(t.body, by, var))
    raise TypeError(t)


def subst_type_multi_reference(t, mapping):
    from slam import Bot, TyVar

    if isinstance(t, Bot):
        return t
    if isinstance(t, TyVar):
        return mapping.get(t.name, t)
    if isinstance(t, Coind):
        return Coind(t.defname, t.size,
                     tuple(subst_type_multi_reference(p, mapping)
                           for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(subst_type_multi_reference(t.dom, mapping),
                     subst_type_multi_reference(t.cod, mapping))
    if isinstance(t, Forall):
        clash = set()
        for rep in mapping.values():
            clash |= fsv_reference(rep)
        if t.var in clash:
            nv = fresh_name(t.var, clash | fsv_reference(t.body))
            body = subst_type_size_reference(t.body, SVar(nv), t.var)
            return Forall(nv, subst_type_multi_reference(body, mapping))
        return Forall(t.var, subst_type_multi_reference(t.body, mapping))
    raise TypeError(t)


def rename_binders_apart_reference(t, avoid):
    used = set(avoid) | fsv_reference(t)

    def size(s, ren):
        if isinstance(s, SVar):
            return SVar(ren.get(s.name, s.name))
        if isinstance(s, Succ):
            return Succ(size(s.arg, ren))
        if isinstance(s, (SMin, SMax)):
            return type(s)(size(s.left, ren), size(s.right, ren))
        return s

    def go(t, ren):
        if isinstance(t, Forall):
            nv = t.var
            if nv in used:
                base, _, n = nv.rpartition("_")
                nv = fresh_name(base if base and n.isdigit() else nv, used)
            used.add(nv)
            return Forall(nv, go(t.body, {**ren, t.var: nv}))
        if isinstance(t, Arrow):
            return Arrow(go(t.dom, ren), go(t.cod, ren))
        if isinstance(t, Coind):
            return Coind(t.defname, size(t.size, ren),
                         tuple(go(p, ren) for p in t.params))
        return t

    return go(t, {})


def expand_type_reference(u, t):
    from slam import TyVar

    if isinstance(t, TyVar):
        return t
    if isinstance(t, Coind):
        return Coind(t.defname, expand_reference(u, t.size),
                     tuple(expand_type_reference(u, p) for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(expand_type_reference(u, t.dom),
                     expand_type_reference(u, t.cod))
    if isinstance(t, Forall):
        return Forall(t.var, expand_type_reference(u, t.body))
    return t


def store_type_reference(st, ty):
    """`_Infer.store_type`, with the inference state passed in."""
    if isinstance(ty, Forall):
        if ty.var in st.linear and not st._u_mentions(ty.var):
            st.linear.discard(ty.var)
        store_type_reference(st, ty.body)
    elif isinstance(ty, Arrow):
        store_type_reference(st, ty.dom)
        store_type_reference(st, ty.cod)
    elif isinstance(ty, Coind):
        for p in ty.params:
            store_type_reference(st, p)


def expand_superfluous_reference(u, s, under):
    """`_Infer._expand_superfluous`, with U passed in."""
    if isinstance(s, SVar) and not under and s.name in u:
        return expand_superfluous_reference(u, u[s.name], False)
    if isinstance(s, Succ):
        return Succ(expand_superfluous_reference(u, s.arg, True))
    if isinstance(s, SMin):
        return SMin(expand_superfluous_reference(u, s.left, under),
                    expand_superfluous_reference(u, s.right, under))
    if isinstance(s, SMax):
        return SMax(expand_superfluous_reference(u, s.left, under),
                    expand_superfluous_reference(u, s.right, under))
    return s


def dependents_reference(u, name):
    """`_Infer._dependents`, with U passed in."""
    memo = {}

    def dep(v):
        if v in memo:
            return memo[v]
        memo[v] = False
        hit = False
        for w in sv(u[v]):
            if w == name or (w in u and dep(w)):
                hit = True
        memo[v] = hit
        return hit

    return [v for v in u if dep(v)]


def fsv_u_reference(u, x):
    """`_Infer._fsv_u`, with U passed in."""
    out = set()
    memo = {}

    def of_var(v):
        if v not in u:
            return frozenset({v})
        if v in memo:
            return memo[v]
        memo[v] = frozenset()
        acc = frozenset()
        for w in sv(u[v]):
            acc |= of_var(w)
        memo[v] = acc
        return acc

    for v in fsv_reference(x):
        out |= of_var(v)
    return out


_NICE_REFERENCE = ["i", "j", "k", "l", "m", "n"]


def prettify_reference(t):
    used = set(sv_reference(t)) | forall_binders_reference(t)
    supply = (nm for nm in _NICE_REFERENCE + [f"i{k}" for k in range(1, 100)]
              if nm not in used)

    def go(t):
        if isinstance(t, Forall):
            if t.var.startswith(("$", "?")):
                nv = next(supply)
                return Forall(nv, go(subst_type_size_reference(
                    t.body, SVar(nv), t.var)))
            return Forall(t.var, go(t.body))
        if isinstance(t, Arrow):
            return Arrow(go(t.dom), go(t.cod))
        if isinstance(t, Coind):
            return Coind(t.defname, fold_size_reference(t.size),
                         tuple(go(p) for p in t.params))
        return t

    return go(t)


def fold_size_reference(s):
    from slam import size_const

    c = const_value_reference(s)
    if c is not None:
        return INFTY if c == INF else size_const(int(c))
    if isinstance(s, Succ):
        n = 0
        while isinstance(s, Succ):
            n += 1
            s = s.arg
        s = fold_size_reference(s)
        for _ in range(n):
            s = Succ(s)
        return s
    if isinstance(s, SMin):
        l, r = fold_size_reference(s.left), fold_size_reference(s.right)
        if l == r:
            return l
        if l == INFTY or r == ZERO:
            return r
        if r == INFTY or l == ZERO:
            return l
        return SMin(l, r)
    if isinstance(s, SMax):
        l, r = fold_size_reference(s.left), fold_size_reference(s.right)
        if l == r:
            return l
        if l == INFTY or r == ZERO:
            return l
        if r == INFTY or l == ZERO:
            return r
        return SMax(l, r)
    return s


class FreshNamesReference:
    """The binder environment `gen_sub_constraints` makes for a call
    without one: nothing linear, and names $a1, $a2, ... that neither
    type holds as a size variable or a forall binder."""

    def __init__(self, *types):
        self.u, self.linear, self.n = {}, set(), 0
        self.taken = set()
        for t in types:
            self.taken |= sv_reference(t) | forall_binders_reference(t)

    def fresh_binder(self):
        self.n += 1
        while f"$a{self.n}" in self.taken:
            self.n += 1
        return f"$a{self.n}"


def gen_sub_constraints_reference(t1, t2, reg, env=None):
    from slam import Bot, TyVar
    from slam.subtyping import _align

    if env is None:
        env = FreshNamesReference(t1, t2)
    out = {}

    def go(a, b):
        if isinstance(a, Bot):
            return True
        if isinstance(a, TyVar) and isinstance(b, TyVar):
            return a.name == b.name
        if isinstance(a, Coind) and isinstance(b, Coind):
            if a.defname != b.defname or len(a.params) != len(b.params):
                return False
            if reg.definition(a.defname).coinductive:
                out[(b.size, a.size)] = None
            else:
                out[(a.size, b.size)] = None
            return all(go(p, q) for p, q in zip(a.params, b.params))
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return go(b.dom, a.dom) and go(a.cod, b.cod)
        if isinstance(a, Forall) and isinstance(b, Forall):
            aligned = _align(a.var, a.body, b.var, b.body, env)
            if aligned is None:
                return False
            _, abody, bbody = aligned
            return go(abody, bbody)
        return False

    return list(out) if go(t1, t2) else None


def lattice_reference(t1, t2, reg, up=True, env=None):
    """The join (up) or meet of two types, as the recursive
    `subtyping._lattice` computed it."""
    from slam import BOT, Bot, SMax, SMin, TyVar
    from slam.subtyping import _align

    if env is None:
        env = FreshNamesReference(t1, t2)

    def go(a, b, up):
        if isinstance(a, Bot):
            return b if up else BOT
        if isinstance(b, Bot):
            return a if up else BOT
        if isinstance(a, TyVar) and isinstance(b, TyVar):
            return a if a.name == b.name else None
        if isinstance(a, Coind) and isinstance(b, Coind):
            if a.defname != b.defname or len(a.params) != len(b.params):
                return None
            params = []
            for p, q in zip(a.params, b.params):
                r = go(p, q, up)
                if r is None:
                    return None
                params.append(r)
            minmax = SMin if up == reg.definition(a.defname).coinductive \
                else SMax
            return Coind(a.defname, minmax(a.size, b.size), tuple(params))
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            dom = go(a.dom, b.dom, not up)
            cod = go(a.cod, b.cod, up)
            return None if dom is None or cod is None else Arrow(dom, cod)
        if isinstance(a, Forall) and isinstance(b, Forall):
            aligned = _align(a.var, a.body, b.var, b.body, env)
            if aligned is None:
                return None
            v, abody, bbody = aligned
            body = go(abody, bbody, up)
            return None if body is None else Forall(v, body)
        return None

    return go(t1, t2, up)


def tgt_reference(t):
    if isinstance(t, Arrow):
        return tgt_reference(t.cod)
    if isinstance(t, Forall):
        return tgt_reference(t.body)
    return t


def chgtgt_reference(t, alpha):
    if isinstance(t, Arrow):
        return Arrow(t.dom, chgtgt_reference(t.cod, alpha))
    if isinstance(t, Forall):
        return Forall(t.var, chgtgt_reference(t.body, alpha))
    return alpha


def node_count_reference(x):
    from slam import (
        Bot, Case, Cofix, Con, Fix, Lam, SizeApp, SizeLam, TyVar,
    )

    if isinstance(x, (Zero, Infty, SVar, TyVar, Bot, Var, Con, PVar, PCon)):
        return 1
    if isinstance(x, Succ):
        return 1 + node_count_reference(x.arg)
    if isinstance(x, (SMin, SMax)):
        return 1 + node_count_reference(x.left) + node_count_reference(x.right)
    if isinstance(x, Coind):
        return 1 + node_count_reference(x.size) + sum(
            node_count_reference(p) for p in x.params)
    if isinstance(x, Arrow):
        return 1 + node_count_reference(x.dom) + node_count_reference(x.cod)
    if isinstance(x, Forall):
        return 1 + node_count_reference(x.body)
    if isinstance(x, Lam):
        return 1 + node_count_reference(x.ty) + node_count_reference(x.body)
    if isinstance(x, (App, PApp)):
        return 1 + node_count_reference(x.fun) + node_count_reference(x.arg)
    if isinstance(x, SizeApp):
        return 1 + node_count_reference(x.fun) + node_count_reference(x.size)
    if isinstance(x, (SizeLam, PLam)):
        return 1 + node_count_reference(x.body)
    if isinstance(x, (Case, PCase)):
        return 1 + node_count_reference(x.scrutinee) + sum(
            1 + node_count_reference(b.body) for b in x.branches)
    if isinstance(x, Fix):
        return 1 + node_count_reference(x.ty) + node_count_reference(x.body)
    if isinstance(x, Cofix):
        return 1 + node_count_reference(x.ty) + node_count_reference(x.body)
    raise TypeError(x)


def dependency_cycle_reference(reg):
    from slam.syntax import _dependencies

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in reg.defs}
    stack = []

    def visit(n):
        color[n] = GRAY
        stack.append(n)
        for m in sorted(_dependencies(reg, n)):
            if m not in color:
                continue
            if color[m] == GRAY:
                i = stack.index(m)
                return stack[i:] + [m]
            if color[m] == WHITE:
                r = visit(m)
                if r is not None:
                    return r
        stack.pop()
        color[n] = BLACK
        return None

    for n in reg.defs:
        if color[n] == WHITE:
            r = visit(n)
            if r is not None:
                return r
    return None


def topological_order_reference(reg):
    from slam.syntax import _dependencies

    out = []
    seen = set()

    def visit(n):
        if n in seen:
            return
        seen.add(n)
        for m in sorted(_dependencies(reg, n)):
            if m in reg.defs:
                visit(m)
        out.append(n)

    for n in reg.defs:
        visit(n)
    return tuple(out)


def observable_reference(tau, reg):
    from slam import TyVar

    seen = set()

    def ok_type(t):
        if isinstance(t, TyVar):
            return True
        if isinstance(t, Coind):
            return all(ok_type(p) for p in t.params) and ok_def(t.defname)
        return False

    def ok_def(dn):
        if dn in seen:
            return True
        seen.add(dn)
        return all(ok_type(a) for c in reg.constructors(dn)
                   for a in c.arg_types)

    return ok_type(tau)


def refines_reference(a1, a2):
    from slam import Bottom, Constr, Opaque, alpha_eq

    if isinstance(a2, Bottom):
        return True
    if isinstance(a1, Constr) and isinstance(a2, Constr):
        return (a1.con == a2.con
                and len(a1.children) == len(a2.children)
                and all(refines_reference(x, y)
                        for x, y in zip(a1.children, a2.children)))
    if isinstance(a1, Opaque) and isinstance(a2, Opaque):
        return alpha_eq(a1.term, a2.term)
    return False


def member_reference(a, tau, reg, v=None, strict=False):
    from slam import NonObservableType

    if not observable_reference(tau, reg):
        raise NonObservableType(
            f"type is not observable: {print_type_reference(tau)}")
    if v is None:
        v = {}
    if not isinstance(tau, Coind):
        raise NonObservableType("membership needs a (co)inductive type")
    level = eval_size_reference(v, tau.size)
    return _member_def_reference(
        a, tau.defname, [_closure_reference(p, {}, reg, v) for p in tau.params],
        level, strict, reg, v)


def _closure_reference(t, env, reg, v):
    def pred(a):
        return _member_type_reference(a, t, env, reg, v)
    return pred


def _member_type_reference(a, t, env, reg, v):
    from slam import NonObservableType, TyVar

    if isinstance(t, TyVar):
        return env[t.name](a)
    if isinstance(t, Coind):
        level = eval_size_reference(v, t.size)
        preds = [_closure_reference(p, env, reg, v) for p in t.params]
        return _member_def_reference(a, t.defname, preds, level, False, reg, v)
    raise NonObservableType(
        f"non-observable position: {print_type_reference(t)}")


def _member_def_reference(a, dn, preds, level, strict, reg, v):
    from slam import Bottom, Constr

    d = reg.definition(dn)
    if d.coinductive:
        if strict and level == INF:
            raise ValueError("strict membership needs a finite level")
        if level <= 0:
            return isinstance(a, Bottom) if strict else True
    else:
        if level <= 0:
            return False
    if not isinstance(a, Constr):
        return False
    entry = reg.constructor_entry(a.con)
    if entry is None or entry[0].name != dn:
        return False
    sig = entry[1]
    if len(sig.arg_types) != len(a.children):
        return False
    child_level = level - 1 if level != INF else INF

    def rec_pred(k):
        return _member_def_reference(k, dn, preds, child_level, strict, reg, v)

    env = {d.rec_var: rec_pred}
    env.update({bn: p for bn, p in zip(d.params, preds)})
    return all(_member_type_reference(k, sigma, env, reg, v)
               for k, sigma in zip(a.children, sig.arg_types))


def _succs_reference(s, n):
    for _ in range(n):
        s = Succ(s)
    return s


def _recursive_parser_class():
    """The parser with sizes and types by recursive descent."""
    from slam import size_const

    class RecursiveSizesAndTypes(TokenParserReference):
        def size(self, atom=False):
            if atom:
                return self.size_atom()
            s = self.size_atom()
            while self.at_sym("+"):
                self.next()
                t = self.peek()
                if t.kind != "num":
                    raise self.fail("expected a number after '+'")
                self.next()
                s = _succs_reference(s, int(t.text))
            return s

        def size_atom(self):
            t = self.peek()
            if t.kind == "num":
                self.next()
                return size_const(int(t.text))
            if self.at_word("oo"):
                self.next()
                return INFTY
            if self.at_word("min") or self.at_word("max"):
                op = self.next().text
                self.eat_sym("(")
                args = [self.size()]
                while self.at_sym(","):
                    self.next()
                    args.append(self.size())
                self.eat_sym(")")
                if len(args) < 2:
                    raise self.fail(f"{op} needs at least two arguments")
                acc = args[0]
                for a in args[1:]:
                    acc = SMin(acc, a) if op == "min" else SMax(acc, a)
                return acc
            if self.at_sym("("):
                self.next()
                s = self.size()
                self.eat_sym(")")
                return s
            if t.kind == "ident" and t.text not in KEYWORDS_REFERENCE:
                self.next()
                return SVar(t.text)
            raise self.fail("expected a size expression")

        def type_(self, env):
            if self.at_word("forall"):
                self.next()
                names = [self.eat_ident("size variable").text]
                while self.peek().kind == "ident" and not self.at_sym("."):
                    if self.peek().text in KEYWORDS_REFERENCE:
                        break
                    names.append(self.next().text)
                self.eat_sym(".")
                body = self.type_(env)
                for nm in reversed(names):
                    body = Forall(nm, body)
                return body
            dom = self.type_atom(env)
            if self.at_sym("->"):
                self.next()
                return Arrow(dom, self.type_(env))
            return dom

        def type_atom(self, env):
            if self.at_sym("("):
                self.next()
                t = self.type_(env)
                self.eat_sym(")")
                return t
            tok = self.eat_ident("type")
            size = INFTY
            decorated = False
            if self.at_sym("^"):
                self.next()
                size = self.size_atom()
                decorated = True
            args = []
            has_args = False
            if self.at_sym("("):
                # lookahead: '(' after a name is a parameter list
                self.next()
                has_args = True
                args.append(self.type_(env))
                while self.at_sym(","):
                    self.next()
                    args.append(self.type_(env))
                self.eat_sym(")")
            return env.resolve(self, tok, size, decorated, tuple(args), has_args)

    return RecursiveSizesAndTypes


def parse_size_reference(src):
    p = _recursive_parser_class()(tokenize_reference(src))
    s = p.size()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after size expression")
    return s


def parse_type_reference(src, reg, tyvars=frozenset()):
    p = _recursive_parser_class()(tokenize_reference(src))
    t = p.type_(TypeEnvReference(reg, tyvars))
    if p.peek().kind != "eof":
        raise p.fail("trailing input after type")
    return t


# ---------------------------------------------------------------------------
# Recursive references for the term walks
#
# The term and plain-term walkers the walks of `syntax.py` (`nodes`,
# `fold`) and the one substitution and alpha-equality replaced, kept as
# they were.  `psubst_sharing_reference` is the sharing
# plain substitution that `substitute` now is for both families; the
# older `psubst_reference` above rebuilds the whole term and is equal to
# it only up to renaming.


def subst_term_reference(t: Term, replacement: Term, var: str) -> Term:
    """Capture-avoiding substitution of a decorated term for a free variable.

    Used to link file bindings; typing itself never substitutes terms.
    """
    free = replacement.fv

    def go(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var):
            return replacement if (t.name == var and t.name not in bound) else t
        if isinstance(t, Con):
            return t
        if isinstance(t, Lam):
            if t.var == var:
                return t
            if t.var in free:
                nv = fresh_name(t.var, free | t.body.fv | {var})
                body = rename_term_var_reference(t.body, t.var, nv)
                return Lam(nv, t.ty, go(body, bound))
            return Lam(t.var, t.ty, go(t.body, bound))
        if isinstance(t, App):
            return App(go(t.fun, bound), go(t.arg, bound))
        if isinstance(t, SizeApp):
            return SizeApp(go(t.fun, bound), t.size)
        if isinstance(t, SizeLam):
            return SizeLam(t.var, go(t.body, bound))
        if isinstance(t, Case):
            brs = []
            for b in t.branches:
                if var in b.binders:
                    brs.append(b)
                    continue
                binders = list(b.binders)
                body = b.body
                for i, x in enumerate(binders):
                    if x in free:
                        nv = fresh_name(x, free | body.fv | set(binders) | {var})
                        body = rename_term_var_reference(body, x, nv)
                        binders[i] = nv
                brs.append(Branch(b.con, tuple(binders), go(body, bound)))
            return Case(go(t.scrutinee, bound), tuple(brs))
        if isinstance(t, Fix):
            if t.var == var:
                return t
            if t.var in free:
                nv = fresh_name(t.var, free | t.body.fv | {var})
                return Fix(nv, t.ty, go(rename_term_var_reference(t.body, t.var, nv), bound))
            return Fix(t.var, t.ty, go(t.body, bound))
        if isinstance(t, Cofix):
            if t.var == var:
                return t
            if t.var in free:
                nv = fresh_name(t.var, free | t.body.fv | {var})
                return Cofix(t.size_var, nv, t.ty,
                             go(rename_term_var_reference(t.body, t.var, nv), bound))
            return Cofix(t.size_var, t.var, t.ty, go(t.body, bound))
        raise TypeError(t)

    return go(t, frozenset())


def rename_term_var_reference(t: Term, old: str, new: str) -> Term:
    return subst_term_reference(t, Var(new), old)


def size_names_reference(t: Term) -> frozenset[str]:
    """Every size variable a term names: free, bound or binding,
    annotations included."""
    out: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, (Var, Con)):
            continue
        if isinstance(t, (Lam, Fix, Cofix)):
            out |= sv(t.ty) | forall_binders(t.ty)
        if isinstance(t, Cofix):
            out.add(t.size_var)
        elif isinstance(t, SizeLam):
            out.add(t.var)
        if isinstance(t, App):
            stack += [t.fun, t.arg]
        elif isinstance(t, SizeApp):
            out |= sv(t.size)
            stack.append(t.fun)
        elif isinstance(t, Case):
            stack.append(t.scrutinee)
            stack += [b.body for b in t.branches]
        else:
            stack.append(t.body)
    return frozenset(out)


def print_term_reference(t: Term) -> str:
    if isinstance(t, Lam):
        return f"\\{t.var} : {print_type(t.ty)}. {print_term_reference(t.body)}"
    if isinstance(t, SizeLam):
        return f"/\\{t.var}. {print_term_reference(t.body)}"
    if isinstance(t, Fix):
        return f"fix {t.var} : {print_type(t.ty)} . {print_term_reference(t.body)}"
    if isinstance(t, Cofix):
        return (f"cofix[{t.size_var}] {t.var} : {print_type(t.ty)} . "
                f"{print_term_reference(t.body)}")
    if isinstance(t, Case):
        brs = "; ".join(print_branch_reference(b) for b in t.branches)
        return f"case {term_app_reference(t.scrutinee)} of {{ {brs} }}"
    return term_app_reference(t)


def print_branch_reference(b: Branch) -> str:
    head = " ".join((b.con,) + b.binders)
    return f"{head} => {print_term_reference(b.body)}"


def term_app_reference(t: Term) -> str:
    if isinstance(t, App):
        return f"{term_app_reference(t.fun)} {term_atom_reference(t.arg)}"
    if isinstance(t, SizeApp):
        return f"{term_app_reference(t.fun)} [{print_size(t.size)}]"
    return term_atom_reference(t)


def term_atom_reference(t: Term) -> str:
    if isinstance(t, (Var, Con)):
        return t.name
    return f"({print_term_reference(t)})"


def print_plain_reference(t: PlainTerm) -> str:
    if isinstance(t, PLam):
        return f"\\{t.var}. {plain_app_reference(t.body)}" \
            if isinstance(t.body, (PVar, PCon, PApp)) \
            else f"\\{t.var}. {print_plain_reference(t.body)}"
    if isinstance(t, PCase):
        brs = "; ".join(
            " ".join((b.con,) + b.binders) + " => " + print_plain_reference(b.body)
            for b in t.branches)
        return f"case {plain_atom_reference(t.scrutinee)} of {{ {brs} }}"
    return plain_app_reference(t)


def plain_app_reference(t: PlainTerm) -> str:
    if isinstance(t, PApp):
        return f"{plain_app_reference(t.fun)} {plain_atom_reference(t.arg)}"
    return plain_atom_reference(t)


def plain_atom_reference(t: PlainTerm) -> str:
    if isinstance(t, (PVar, PCon)):
        return t.name
    return f"({print_plain_reference(t)})"


def psubst_sharing_reference(t: PlainTerm, var: str, value: PlainTerm) -> PlainTerm:
    """Capture-avoiding substitution of `value` for `var` in `t`.

    A subterm in which `var` is not free is returned as it is, the same
    object, so the result shares every untouched part of `t`."""
    free = value.fv

    def go(t: PlainTerm) -> PlainTerm:
        if var not in t.fv:
            return t
        if isinstance(t, PVar):
            return value
        if isinstance(t, PLam):
            if t.var in free:
                nv = fresh_name(t.var, free | t.body.fv | {var})
                return PLam(nv, go(prename_reference(t.body, t.var, nv)))
            return PLam(t.var, go(t.body))
        if isinstance(t, PApp):
            return PApp(go(t.fun), go(t.arg))
        if isinstance(t, PCase):
            brs = []
            for b in t.branches:
                if var in b.binders or var not in b.body.fv:
                    brs.append(b)
                    continue
                binders = list(b.binders)
                body = b.body
                for i, x in enumerate(binders):
                    if x in free:
                        nv = fresh_name(x, free | body.fv | set(binders) | {var})
                        body = prename_reference(body, x, nv)
                        binders[i] = nv
                brs.append(PBranch(b.con, tuple(binders), go(body)))
            return PCase(go(t.scrutinee), tuple(brs))
        raise TypeError(t)

    return go(t)


def prename_reference(t: PlainTerm, old: str, new: str) -> PlainTerm:
    return psubst_sharing_reference(t, old, PVar(new))


def _spine(t: PlainTerm) -> tuple[PlainTerm, list[PlainTerm]]:
    args: list[PlainTerm] = []
    while isinstance(t, PApp):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def _apply(t: PlainTerm, args) -> PlainTerm:
    for a in args:
        t = PApp(t, a)
    return t


def iota_branch_reference(t: PCase):
    """The paper's iota rule: (branch, arguments) when t's scrutinee is
    a constructor applied to arguments, the branch constructors are
    pairwise distinct, and one branch is for that constructor and binds
    as many names as it has arguments; else None."""
    head, args = _spine(t.scrutinee)
    if not isinstance(head, PCon):
        return None
    cons = [b.con for b in t.branches]
    if len(cons) != len(set(cons)):
        return None
    hits = [b for b in t.branches
            if b.con == head.name and len(b.binders) == len(args)]
    return (hits[0], args) if hits else None


def iota_reference(b: PBranch, args) -> PlainTerm:
    """The contractum of an iota step into branch b: its binders renamed
    apart from the free variables of the constructor's arguments, then
    the arguments put for them one binder after the other, which is then
    the same as all at once.  The first of two equal binders wins."""
    free = frozenset().union(*map(plain_free_vars_reference, args))
    binders = list(b.binders)
    body = b.body
    for i, x in enumerate(binders):
        if x in free:
            nv = fresh_name(x, free | plain_free_vars_reference(body)
                            | set(binders))
            body = prename_reference(body, x, nv)
            binders[i] = nv
    for x, a in zip(binders, args):
        body = psubst_sharing_reference(body, x, a)
    return body


def step1_reference(t: PlainTerm) -> Optional[PlainTerm]:
    if isinstance(t, PApp):
        if isinstance(t.fun, PLam):
            return psubst_sharing_reference(t.fun.body, t.fun.var, t.arg)
        r = step1_reference(t.fun)
        if r is not None:
            return PApp(r, t.arg)
        r = step1_reference(t.arg)
        return None if r is None else PApp(t.fun, r)
    if isinstance(t, PCase):
        hit = iota_branch_reference(t)
        if hit is not None:
            return iota_reference(*hit)
        r = step1_reference(t.scrutinee)
        if r is not None:
            return PCase(r, t.branches)
        for i, b in enumerate(t.branches):
            r = step1_reference(b.body)
            if r is not None:
                brs = list(t.branches)
                brs[i] = PBranch(b.con, b.binders, r)
                return PCase(t.scrutinee, tuple(brs))
        return None
    if isinstance(t, PLam):
        r = step1_reference(t.body)
        return None if r is None else PLam(t.var, r)
    return None


def same_whnf(got: WhnfResult, want: WhnfResult) -> bool:
    """Whether two whnf results agree: kind, head, steps and stuck
    equal, term and arguments equal up to the names of bound variables."""
    return ((got.kind, got.head, got.steps, got.stuck)
            == (want.kind, want.head, want.steps, want.stuck)
            and alpha_eq(got.term, want.term)
            and len(got.args) == len(want.args)
            and all(map(alpha_eq, got.args, want.args)))


# the fields the generated dataclass repr of each term, approximant and
# record class showed, in order; sizes and types print in their own form
DATACLASS_REPR_FIELDS = {
    "Var": ("name",), "Con": ("name",), "Lam": ("var", "ty", "body"),
    "App": ("fun", "arg"), "SizeApp": ("fun", "size"),
    "SizeLam": ("var", "body"), "Case": ("scrutinee", "branches"),
    "Branch": ("con", "binders", "body"), "Fix": ("var", "ty", "body"),
    "Cofix": ("size_var", "var", "ty", "body"),
    "PVar": ("name",), "PCon": ("name",), "PLam": ("var", "body"),
    "PApp": ("fun", "arg"), "PCase": ("scrutinee", "branches"),
    "PBranch": ("con", "binders", "body"),
    "Constr": ("con", "children"), "Bottom": ("fuel_limited",),
    "Opaque": ("term",),
    "ConstructorSig": ("name", "arg_types", "span"),
    "Definition": ("name", "coinductive", "params", "constructors", "span"),
    "Diagnostic": ("message", "span"), "EvalBudget": ("fuel", "depth"),
    "VarVar": ("x", "c", "y"), "VarConst": ("x", "op", "k"),
    "Validity": ("valid", "witness", "violated"),
    "SizeConstraint": ("u", "pairs"),
    "DepthVerdict": ("depth", "ok", "nodes", "fuel_used", "fuel_limited",
                     "approx"),
    "ProductivityReport": ("verdicts", "chain_ok", "passed", "fail_at"),
    "WhnfResult": ("kind", "term", "head", "args", "stuck", "steps"),
    "InferenceTriple": ("u", "pairs", "tau", "failed", "trail"),
    "Decomposed": ("size", "rec_params", "param_insts", "sigma_prime"),
    "Token": ("kind", "text", "line", "col"),
}


def dataclass_repr_reference(x) -> str:
    """repr of a term, approximant or record by recursion, in the form
    the generated dataclass repr had: `Name(field=value, ...)` over the
    fields in `DATACLASS_REPR_FIELDS`, with tuples, lists and dicts
    written out around their items."""
    name = type(x).__name__
    if name in DATACLASS_REPR_FIELDS:
        inner = ", ".join(f"{f}={dataclass_repr_reference(getattr(x, f))}"
                          for f in DATACLASS_REPR_FIELDS[name])
        return f"{name}({inner})"
    if type(x) is tuple:
        inner = ", ".join(map(dataclass_repr_reference, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if type(x) is list:
        return f"[{', '.join(map(dataclass_repr_reference, x))}]"
    if type(x) is dict:
        return "{" + ", ".join(f"{dataclass_repr_reference(k)}: "
                               f"{dataclass_repr_reference(v)}"
                               for k, v in x.items()) + "}"
    return repr(x)


# rewrite.whnf by substitution, as it was before the closure machine:
# the reference for its steps, kinds and, up to renaming, its terms
def whnf_reference(t: PlainTerm, fuel: int) -> WhnfResult:
    """Head-reduce until a constructor application, a value, or fuel runs
    out.  Values are abstractions, variable-headed spines, and stuck
    cases.

    The term is kept as its head and arguments, and built whole only for
    the result (t is None while it is not built).  A case at the head
    waits, with the arguments it is applied to, on a stack of pending
    frames while its scrutinee is head-reduced under the fuel left; the
    scrutinee's result then decides the case."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps = 0
    frames: list[tuple[PCase, list[PlainTerm]]] = []
    head, args = _spine(t)
    while True:
        if isinstance(head, PCon):
            kind = "head"
        elif isinstance(head, PLam) and args:
            if steps < fuel:
                steps += 1
                head, more = _spine(psubst_sharing_reference(
                    head.body, head.var, args[0]))
                args = more + args[1:]
                t = None
                continue
            kind = "fuel"
        elif isinstance(head, PCase):
            if steps < fuel:
                frames.append((head, args))
                t = head.scrutinee
                head, args = _spine(t)
                continue
            kind = "fuel"
        else:
            kind = "value"
        if t is None:
            t = _apply(head, args)
        res = WhnfResult(kind, t, head.name, tuple(args), False, steps) \
            if kind == "head" else WhnfResult(kind, t, steps=steps)
        # the result of a scrutinee decides the case waiting on it
        while frames:
            case, args = frames.pop()
            case = PCase(res.term, case.branches)
            if res.kind == "fuel":
                res = WhnfResult("fuel", _apply(case, args), steps=steps)
                continue
            hit = iota_branch_reference(case)
            if hit is None:
                stuck = res.kind == "head" or isinstance(res.term, PLam) \
                    or (res.kind == "value" and res.stuck)
                res = WhnfResult("value", _apply(case, args), stuck=stuck,
                                 steps=steps)
            elif steps >= fuel:
                res = WhnfResult("fuel", _apply(case, args), steps=steps)
            else:
                steps += 1
                head, more = _spine(iota_reference(*hit))
                args = more + args
                t = None
                break
        else:
            return res


def whnf_recursive_reference(t: PlainTerm, fuel: int) -> WhnfResult:
    """`whnf_reference` by recursion on case heads."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps = 0
    while True:
        head, args = _spine(t)
        if isinstance(head, PCon):
            return WhnfResult("head", t, head.name, tuple(args), False, steps)
        if isinstance(head, PLam):
            if not args:
                return WhnfResult("value", t, steps=steps)
            if steps >= fuel:
                return WhnfResult("fuel", t, steps=steps)
            steps += 1
            t = _apply(psubst_sharing_reference(head.body, head.var, args[0]), args[1:])
            continue
        if isinstance(head, PVar):
            return WhnfResult("value", t, steps=steps)
        assert isinstance(head, PCase)
        remaining = fuel - steps
        if remaining <= 0:
            return WhnfResult("fuel", t, steps=steps)
        inner = whnf_recursive_reference(head.scrutinee, remaining)
        steps += inner.steps
        rebuilt = _apply(PCase(inner.term, head.branches), args)
        if inner.kind == "fuel":
            return WhnfResult("fuel", rebuilt, steps=steps)
        case2 = PCase(inner.term, head.branches)
        hit = iota_branch_reference(case2)
        if hit is None:
            stuck = inner.kind == "head" or isinstance(inner.term, PLam) \
                or (inner.kind == "value" and inner.stuck)
            return WhnfResult("value", rebuilt, stuck=stuck, steps=steps)
        if steps >= fuel:
            return WhnfResult("fuel", rebuilt, steps=steps)
        steps += 1
        t = _apply(iota_reference(*hit), args)


def alpha_eq_type_reference(a: Type, b: Type) -> bool:
    return aeq_ty_reference(a, b, {}, {})


def aeq_ty_reference(a: Type, b: Type, ra: dict, rb: dict) -> bool:
    if isinstance(a, Bot) and isinstance(b, Bot):
        return True
    if isinstance(a, TyVar) and isinstance(b, TyVar):
        return a.name == b.name
    if isinstance(a, Coind) and isinstance(b, Coind):
        return (a.defname == b.defname
                and aeq_size_reference(a.size, b.size, ra, rb)
                and len(a.params) == len(b.params)
                and all(aeq_ty_reference(p, q, ra, rb) for p, q in zip(a.params, b.params)))
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return aeq_ty_reference(a.dom, b.dom, ra, rb) and aeq_ty_reference(a.cod, b.cod, ra, rb)
    if isinstance(a, Forall) and isinstance(b, Forall):
        mark = object()
        return aeq_ty_reference(a.body, b.body, {**ra, a.var: mark}, {**rb, b.var: mark})
    return False


def aeq_size_reference(a: SizeExpr, b: SizeExpr, ra: dict, rb: dict) -> bool:
    if isinstance(a, SVar) and isinstance(b, SVar):
        return ra.get(a.name, a.name) is rb.get(b.name, object()) \
            if a.name in ra or b.name in rb \
            else a.name == b.name
    if isinstance(a, Zero) and isinstance(b, Zero):
        return True
    if isinstance(a, Infty) and isinstance(b, Infty):
        return True
    if isinstance(a, Succ) and isinstance(b, Succ):
        return aeq_size_reference(a.arg, b.arg, ra, rb)
    if isinstance(a, SMin) and isinstance(b, SMin):
        return aeq_size_reference(a.left, b.left, ra, rb) and aeq_size_reference(a.right, b.right, ra, rb)
    if isinstance(a, SMax) and isinstance(b, SMax):
        return aeq_size_reference(a.left, b.left, ra, rb) and aeq_size_reference(a.right, b.right, ra, rb)
    return False


def alpha_eq_term_reference(a: Term, b: Term) -> bool:
    return aeq_tm_reference(a, b, {}, {})


def aeq_tm_reference(a: Term, b: Term, ra: dict, rb: dict) -> bool:
    if isinstance(a, Var) and isinstance(b, Var):
        if a.name in ra or b.name in rb:
            return ra.get(a.name) is rb.get(b.name) and a.name in ra and b.name in rb
        return a.name == b.name
    if isinstance(a, Con) and isinstance(b, Con):
        return a.name == b.name
    if isinstance(a, Lam) and isinstance(b, Lam):
        if not alpha_eq_type_reference(a.ty, b.ty):
            return False
        m = object()
        return aeq_tm_reference(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    if isinstance(a, App) and isinstance(b, App):
        return aeq_tm_reference(a.fun, b.fun, ra, rb) and aeq_tm_reference(a.arg, b.arg, ra, rb)
    if isinstance(a, SizeApp) and isinstance(b, SizeApp):
        return aeq_tm_reference(a.fun, b.fun, ra, rb) and a.size == b.size
    if isinstance(a, SizeLam) and isinstance(b, SizeLam):
        # size binders compare by name; size alpha handled at the type level
        return a.var == b.var and aeq_tm_reference(a.body, b.body, ra, rb)
    if isinstance(a, Case) and isinstance(b, Case):
        if len(a.branches) != len(b.branches):
            return False
        if not aeq_tm_reference(a.scrutinee, b.scrutinee, ra, rb):
            return False
        for ba, bb in zip(a.branches, b.branches):
            if ba.con != bb.con or len(ba.binders) != len(bb.binders):
                return False
            ra2, rb2 = dict(ra), dict(rb)
            for xa, xb in zip(ba.binders, bb.binders):
                m = object()
                ra2[xa] = m
                rb2[xb] = m
            if not aeq_tm_reference(ba.body, bb.body, ra2, rb2):
                return False
        return True
    if isinstance(a, Fix) and isinstance(b, Fix):
        if not alpha_eq_type_reference(a.ty, b.ty):
            return False
        m = object()
        return aeq_tm_reference(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    if isinstance(a, Cofix) and isinstance(b, Cofix):
        if a.size_var != b.size_var or not alpha_eq_type_reference(a.ty, b.ty):
            return False
        m = object()
        return aeq_tm_reference(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    return False


def alpha_eq_plain_reference(a: PlainTerm, b: PlainTerm) -> bool:
    return aeq_pl_reference(a, b, {}, {})


def aeq_pl_reference(a: PlainTerm, b: PlainTerm, ra: dict, rb: dict) -> bool:
    if isinstance(a, PVar) and isinstance(b, PVar):
        if a.name in ra or b.name in rb:
            return ra.get(a.name) is rb.get(b.name) and a.name in ra and b.name in rb
        return a.name == b.name
    if isinstance(a, PCon) and isinstance(b, PCon):
        return a.name == b.name
    if isinstance(a, PLam) and isinstance(b, PLam):
        m = object()
        return aeq_pl_reference(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    if isinstance(a, PApp) and isinstance(b, PApp):
        return aeq_pl_reference(a.fun, b.fun, ra, rb) and aeq_pl_reference(a.arg, b.arg, ra, rb)
    if isinstance(a, PCase) and isinstance(b, PCase):
        if len(a.branches) != len(b.branches):
            return False
        if not aeq_pl_reference(a.scrutinee, b.scrutinee, ra, rb):
            return False
        for ba, bb in zip(a.branches, b.branches):
            if ba.con != bb.con or len(ba.binders) != len(bb.binders):
                return False
            ra2, rb2 = dict(ra), dict(rb)
            for xa, xb in zip(ba.binders, bb.binders):
                m = object()
                ra2[xa] = m
                rb2[xb] = m
            if not aeq_pl_reference(ba.body, bb.body, ra2, rb2):
                return False
        return True
    return False

"""Shared test utilities: corpus loading, random generators, oracles."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from slam import (
    App, Arrow, Coind, Forall, INFTY, SMax, SMin, SVar, SizeExpr, Succ,
    Type, Var, ZERO, eval_size, normalize_succ, parse_slam, parse_term,
    parse_type, simplify_infty, sv, validate_registry,
)
from slam.constraints import CyclicDefMap, check_acyclic, expand
from slam.parser import SlamFile
from slam.sizes import INF, SizeValuation
from slam.syntax import (
    Infty, PApp, PBranch, PCase, PCon, PLam, PVar, Zero, fresh_name,
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
                   bound: int = 5, with_inf: bool = True) -> SizeValuation:
    vals = {}
    for v in vars:
        if with_inf and rng.random() < 0.15:
            vals[v] = INF
        else:
            vals[v] = rng.randint(0, bound)
    return SizeValuation(vals)


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


_TERM_VARS = ("x", "y", "z", "w", "f", "g")


def rand_term(rng: random.Random, reg, depth: int = 3, bound: tuple = ()):
    """A well-scoped, arity-correct (not necessarily typable) term."""
    from slam import (
        Branch, Case, Cofix, Con, Fix, Lam, SizeApp, SizeLam, Var,
    )

    r = rng.random()
    if depth <= 0 or r < 0.25:
        atoms = [Con("zero"), App(Con("succ"), Con("zero"))]
        atoms += [Var(x) for x in bound]
        return rng.choice(atoms)
    if r < 0.4:
        v = rng.choice(_TERM_VARS)
        return Lam(v, rand_type(rng, reg, 2),
                   rand_term(rng, reg, depth - 1, bound + (v,)))
    if r < 0.5:
        return App(rand_term(rng, reg, depth - 1, bound),
                   rand_term(rng, reg, depth - 1, bound))
    if r < 0.6:
        return SizeApp(rand_term(rng, reg, depth - 1, bound),
                       rand_size(rng, 2))
    if r < 0.7:
        return SizeLam(rng.choice(("i", "j")),
                       rand_term(rng, reg, depth - 1, bound))
    if r < 0.85:
        scrut = rand_term(rng, reg, depth - 1, bound)
        if rng.random() < 0.5 and "Strm" in reg.defs:
            return Case(scrut, (Branch("cons", ("x", "y"),
                                       rand_term(rng, reg, depth - 1,
                                                 bound + ("x", "y"))),))
        return Case(scrut, (
            Branch("zero", (), rand_term(rng, reg, depth - 1, bound)),
            Branch("succ", ("n",),
                   rand_term(rng, reg, depth - 1, bound + ("n",)))))
    if r < 0.93:
        v = rng.choice(_TERM_VARS)
        return Fix(v, rand_type(rng, reg, 2),
                   rand_term(rng, reg, depth - 1, bound + (v,)))
    v = rng.choice(_TERM_VARS)
    return Cofix(rng.choice(("i", "j")), v, rand_type(rng, reg, 2),
                 rand_term(rng, reg, depth - 1, bound + (v,)))


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
        v0 = SizeValuation({})
        return all(eval_size(v0, a) <= eval_size(v0, b) for a, b in pairs)
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


def link_all(sf: SlamFile, t):
    """The term with every binding of the file linked in, in file order."""
    from slam import subst_term
    for name in sf.bindings:
        t = subst_term(t, sf.linked(name), name)
    return t


def corpus_terms():
    """(label, registry, term) for every corpus binding and extra term."""
    out = []
    for fname in ("streams", "sp", "trees"):
        sf = load(fname)
        for name in sf.bindings:
            out.append((f"{fname}.{name}", sf.registry, sf.linked(name)))
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
]


def context_terms():
    out = []
    for fname, gsrc, tsrc in CONTEXT_TERMS:
        sf = load(fname)
        gamma = {x: parse_type(ty, sf.registry) for x, ty in gsrc}
        out.append((f"{fname}:{tsrc}", sf.registry, gamma,
                    parse_term(tsrc, sf.registry)))
    return out

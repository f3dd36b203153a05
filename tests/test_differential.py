"""Differential tests: inference versus rule-by-rule constructions.

The generator builds terms together with types justified constructor by
constructor from the declarative rules (subsumption checks delegated to
the solver), so every generated pair is derivable.  Inference must then
succeed and return something at least as strong.  A second battery
fuzzes arbitrary ill-typed terms for crashes and self-consistency, and a
third checks that inferred inductive size bounds are honoured by
evaluation.
"""

import random

from helpers import corpus_terms, rand_size, rand_term, rand_type
from slam import (
    App, Arrow, Branch, Case, Coind, Con, Forall, INFTY, Lam, SVar, Succ,
    Var, ZERO, eval_size, join, parse_defs, subtype, underline,
    validate_registry,
)
from slam.rewrite import EvalBudget, _approx, member, observable
from slam.sizes import INF
from slam.typecheck import check, infer, minimal_type

SRC = """
inductive Nat { zero : Nat; succ : Nat -> Nat }
coinductive Strm { scons : Nat -> Strm -> Strm }
inductive List(B) { nil : List(B); lcons : B -> List(B) -> List(B) }
coinductive BTree { bnode : Nat -> BTree -> BTree -> BTree }
"""


def _registry():
    reg = parse_defs(SRC)
    assert not validate_registry(reg)
    return reg


def _typed(rng, reg, gamma, depth):
    """A term/type pair justified by the declarative rules."""
    candidates = []
    if gamma:
        candidates.append("var")
    candidates += ["zero", "succ", "nil"]
    if depth > 0:
        candidates += ["lam", "case", "lcons", "scons", "bnode", "app",
                       "gen", "inst", "sub"]
    kind = rng.choice(candidates)

    if kind == "gen":
        # a fresh quantifier over whatever the body's type mentions
        from slam import SizeLam, fsv as _fsv
        body, bty = _typed(rng, reg, gamma, depth - 1)
        free_in_gamma = set()
        for g in gamma.values():
            free_in_gamma |= _fsv(g)
        for v in ("i", "j", "k", "l"):
            if v not in free_in_gamma:
                from slam import Forall as _Forall
                return SizeLam(v, body), _Forall(v, bty)
        return body, bty
    if kind == "inst":
        from slam import SizeApp, subst_type_sizes
        t, ty = _typed(rng, reg, gamma, depth - 1)
        if isinstance(ty, Forall):
            s = rand_size(rng, 1)
            return SizeApp(t, s), subst_type_sizes(ty.body, {ty.var: s})
        return t, ty
    if kind == "sub":
        from helpers import supertype_of
        t, ty = _typed(rng, reg, gamma, depth - 1)
        return t, supertype_of(rng, ty, reg)

    if kind == "var":
        x = rng.choice(sorted(gamma))
        return Var(x), gamma[x]
    if kind == "zero":
        return Con("zero"), Coind("Nat", Succ(ZERO), ())
    if kind == "succ":
        t, ty = _typed_of_def(rng, reg, gamma, depth - 1, "Nat")
        return App(Con("succ"), t), Coind("Nat", Succ(ty.size), ())
    if kind == "nil":
        elem = rand_type(rng, reg, 1)
        # nil inhabits List^1(beta) for every beta
        return Con("nil"), Coind("List", Succ(ZERO), (elem,))
    if kind == "lcons":
        head, hty = _typed(rng, reg, gamma, depth - 1)
        tail, tty = _typed_of_def(rng, reg, gamma, depth - 1, "List")
        elem = join(hty, tty.params[0], reg)
        if elem is None:
            return _typed(rng, reg, gamma, depth - 1)
        return (App(App(Con("lcons"), head), tail),
                Coind("List", Succ(tty.size), (elem,)))
    if kind == "scons":
        head, _ = _typed_of_def(rng, reg, gamma, depth - 1, "Nat")
        tail, tty = _typed_of_def(rng, reg, gamma, depth - 1, "Strm")
        if not (isinstance(tty, Coind) and tty.defname == "Strm"):
            return head, Coind("Nat", Succ(ZERO), ())
        return (App(App(Con("scons"), head), tail),
                Coind("Strm", Succ(tty.size), ()))
    if kind == "bnode":
        n, _ = _typed_of_def(rng, reg, gamma, depth - 1, "Nat")
        l, lty = _typed_of_def(rng, reg, gamma, depth - 1, "BTree")
        r, rty = _typed_of_def(rng, reg, gamma, depth - 1, "BTree")
        if not all(isinstance(ty, Coind) and ty.defname == "BTree"
                   for ty in (lty, rty)):
            return n, Coind("Nat", Succ(ZERO), ())
        common = join(lty, rty, reg)
        return (App(App(App(Con("bnode"), n), l), r),
                Coind("BTree", Succ(common.size), ()))
    if kind == "lam":
        x = f"x{rng.randint(0, 4)}"
        ann = rand_type(rng, reg, 1)
        body, bty = _typed(rng, reg, {**gamma, x: ann}, depth - 1)
        return Lam(x, ann, body), Arrow(ann, bty)
    if kind == "app":
        # an applicable function comes from the context, if any fits
        arg, aty = _typed(rng, reg, gamma, depth - 1)
        for x, ty in gamma.items():
            if isinstance(ty, Arrow) and subtype(aty, ty.dom, reg):
                return App(Var(x), arg), ty.cod
        return arg, aty
    if kind == "case":
        scrut, sty = _typed_of_def(rng, reg, gamma, depth - 1, "Nat")
        peeled = underline(sty.size)
        z, zty = _typed(rng, reg, gamma, depth - 1)
        n = f"n{rng.randint(0, 4)}"
        s, sty2 = _typed(rng, reg, {**gamma, n: Coind("Nat", peeled, ())},
                         depth - 1)
        common = join(zty, sty2, reg)
        if common is None:
            return scrut, sty
        return Case(scrut, (Branch("zero", (), z),
                            Branch("succ", (n,), s))), common
    raise AssertionError(kind)


def _typed_of_def(rng, reg, gamma, depth, defname):
    """A term whose justified type is the given definition."""
    for x, ty in gamma.items():
        if isinstance(ty, Coind) and ty.defname == defname \
                and rng.random() < 0.4:
            return Var(x), ty
    if defname == "Nat":
        t, ty = (Con("zero"), Coind("Nat", Succ(ZERO), ()))
        for _ in range(rng.randint(0, 2 + depth)):
            t, ty = App(Con("succ"), t), Coind("Nat", Succ(ty.size), ())
        return t, ty
    if defname == "List":
        t, ty = Con("nil"), Coind("List", Succ(ZERO),
                                  (Coind("Nat", INFTY, ()),))
        for _ in range(rng.randint(0, depth)):
            h, _ = _typed_of_def(rng, reg, gamma, 0, "Nat")
            t = App(App(Con("lcons"), h), t)
            ty = Coind("List", Succ(ty.size), ty.params)
        return t, ty
    if defname == "Strm":
        if depth <= 0:
            for x, ty in gamma.items():
                if isinstance(ty, Coind) and ty.defname == "Strm":
                    return Var(x), ty
            # the everywhere-zero stream, derivable by the corecursion rule
            from slam import Cofix
            zeros = Cofix("j", "z", Coind("Strm", INFTY, ()),
                          App(App(Con("scons"), Con("zero")), Var("z")))
            return zeros, Coind("Strm", INFTY, ())
        h, _ = _typed_of_def(rng, reg, gamma, depth - 1, "Nat")
        t, ty = _typed_of_def(rng, reg, gamma, depth - 1, "Strm")
        return (App(App(Con("scons"), h), t),
                Coind("Strm", Succ(ty.size), ()))
    if defname == "BTree":
        n, _ = _typed_of_def(rng, reg, gamma, 0, "Nat")
        if depth <= 0:
            for x, ty in gamma.items():
                if isinstance(ty, Coind) and ty.defname == "BTree":
                    return Var(x), ty
            from slam import Cofix
            btz = Cofix("j", "t", Coind("BTree", INFTY, ()),
                        App(App(App(Con("bnode"), Con("zero")), Var("t")),
                            Var("t")))
            return btz, Coind("BTree", INFTY, ())
        l, lty = _typed_of_def(rng, reg, gamma, depth - 1, "BTree")
        r, rty = _typed_of_def(rng, reg, gamma, depth - 1, "BTree")
        return (App(App(App(Con("bnode"), n), l), r),
                Coind("BTree", Succ(join(lty, rty, reg).size), ()))


def test_derivable_terms_are_accepted():
    reg = _registry()
    rng = random.Random(2024)
    accepted = 0
    for _ in range(300):
        gamma = {}
        for k in range(rng.randint(0, 2)):
            gamma[f"g{k}"] = rand_type(rng, reg, 1)
        t, ty = _typed(rng, reg, gamma, rng.randint(1, 3))
        # the construction followed the declarative rules, so the term
        # checks at the constructed type, and the minimal type is below it
        assert check(reg, gamma, t, ty), (t, ty)
        m = minimal_type(reg, gamma, t)
        assert m is not None and subtype(m, ty, reg), (t, ty, m)
        accepted += 1
    assert accepted == 300


def test_fuzz_minimal_type_never_crashes_and_is_self_consistent():
    reg = _registry()
    rng = random.Random(77)
    typable = 0
    for _ in range(400):
        t = rand_term(rng, reg, depth=3)
        trip = infer(reg, {}, t)  # must not raise
        m = minimal_type(reg, {}, t)
        if m is not None and not _mentions_bot(m):
            typable += 1
            assert check(reg, {}, t, m), t
    assert typable >= 20  # the generator does produce typable terms


def _mentions_bot(t):
    from slam.subtyping import Bot
    if isinstance(t, Bot):
        return True
    if isinstance(t, Coind):
        return any(_mentions_bot(p) for p in t.params)
    if isinstance(t, Arrow):
        return _mentions_bot(t.dom) or _mentions_bot(t.cod)
    if hasattr(t, "body"):
        return _mentions_bot(t.body)
    return False


def test_inductive_size_bounds_are_honoured():
    # a closed term of finite inductive size mu^s evaluates within s layers
    from slam.rewrite import erase

    checked = 0
    for label, reg, term in corpus_terms():
        m = minimal_type(reg, {}, term)
        if not (isinstance(m, Coind) and not reg.definition(m.defname).coinductive
                and not m.params and observable(m, reg)):
            continue
        level = eval_size({}, m.size)
        gas = [200000]
        a = _approx(erase(term), 1, 100000, reg, gas)
        if a.limited:
            continue
        assert member(a, Coind(m.defname, SVar("n"), ()), reg,
                      {"n": level if level != INF else INF}), (label, level)
        checked += 1
    assert checked >= 3

import random

import pytest

from helpers import (
    CORPUS_DIR, EXTRA_TERMS, PLAIN_VARS, approx_reference, corpus_terms,
    link_all, linked_reference, load, plain_free_vars_reference,
    psubst_reference, rand_plain, same_whnf, step1_reference,
    whnf_recursive_reference, whnf_reference,
)
from slam import (
    App, Coind, INFTY, PApp, PBranch, PCase, PCon, PLam, PVar, SVar, ZERO,
    alpha_eq, parse_term, parse_type,
)
from slam.rewrite import (
    Bottom, Constr, EvalBudget, NonObservableType, OMEGA, Opaque,
    Y_COMBINATOR, _Thunk, _approx, approximant, erase, member, observable,
    productivity_check, psubst, refines, whnf,
)
from slam.syntax import DefRegistry, nodes, substitute

def _nat_tree(n):
    a = Constr("zero")
    for _ in range(n):
        a = Constr("succ", (a,))
    return a


# -- erasure -----------------------------------------------------------------

def test_erase_examples(streams):
    reg = streams.registry
    t = parse_term("/\\i. \\s : Strm^(i+1). case s of { cons x t => t }", reg)
    assert erase(t) == PLam("s", PCase(PVar("s"), (
        PBranch("cons", ("x", "t"), PVar("t")),)))
    t2 = parse_term("tl [oo]", reg)
    from slam import subst_term
    t2 = subst_term(t2, linked_reference(streams, "tl"), "tl")
    assert alpha_eq(erase(t2),
                          erase(linked_reference(streams, "tl")))
    cz = erase(parse_term("cofix[j] f : Strm . cons zero f", reg))
    assert cz == PApp(Y_COMBINATOR, PLam("f", PApp(
        PApp(PCon("cons"), PCon("zero")), PVar("f"))))


def test_erase_fix_uses_turing_combinator(streams):
    e = erase(linked_reference(streams, "plus"))
    assert isinstance(e, PApp) and e.fun == Y_COMBINATOR


# -- substitution ------------------------------------------------------------

def _subterms(t):
    stack, out = [t], []
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


def _binders(t):
    names = set()
    for u in _subterms(t):
        if isinstance(u, PLam):
            names.add(u.var)
        elif isinstance(u, PCase):
            for b in u.branches:
                names.update(b.binders)
    return sorted(names)


def _check_subst(t, var, value):
    got = psubst(t, var, value)
    assert alpha_eq(got, psubst_reference(t, var, value)), (t, var, value)
    assert got.fv == plain_free_vars_reference(got)
    if var not in t.fv:
        assert got is t


def test_psubst_and_fv_match_reference():
    rng = random.Random(4)
    checked = 0
    # open subterms of the erased corpus, with values that name the
    # term's own binders, so substitution has to rename to avoid capture
    for _label, _reg, term in corpus_terms():
        e = erase(term)
        names = _binders(e)
        for u in _subterms(e):
            assert u.fv == plain_free_vars_reference(u)
            for var in sorted(u.fv) + ["unused"]:
                value = PApp(PVar(rng.choice(names or ["x"])),
                             rand_plain(rng, 2))
                _check_subst(u, var, value)
                checked += 1
    for _ in range(3000):
        t = rand_plain(rng, 5)
        assert t.fv == plain_free_vars_reference(t)
        for var in PLAIN_VARS:
            _check_subst(t, var, rand_plain(rng, 2))
    assert checked > 1000


def test_psubst_renames_captured_binders():
    t = PLam("y", PApp(PVar("x"), PVar("y")))
    got = psubst(t, "x", PVar("y"))
    assert got == PLam("y_1", PApp(PVar("y"), PVar("y_1")))
    case = PCase(PVar("x"), (PBranch("c", ("y", "z"), PApp(PVar("x"), PVar("y"))),))
    got = psubst(case, "x", PVar("y"))
    assert got == PCase(PVar("y"), (
        PBranch("c", ("y_1", "z"), PApp(PVar("y"), PVar("y_1"))),))
    # a binder that would capture but has nothing to capture stays as is
    lam = PLam("y", PCon("zero"))
    t = PApp(PVar("x"), lam)
    assert psubst(t, "x", PVar("y")).arg is lam


def test_substitute_keeps_the_single_pair_names():
    # renaming y to y_1 renames the inner y_1 to y_1_1 first, and putting
    # y y_1_1 for x then renames that one again; a walker that renames
    # both at once names the inner binder y_1_2
    t = PLam("y", PLam("y_1", PApp(PApp(PVar("x"), PVar("y")),
                                   PVar("y_1"))))
    got = psubst(t, "x", PApp(PVar("y"), PVar("y_1_1")))
    assert got == PLam("y_1", PLam("y_1_1_1", PApp(PApp(
        PApp(PVar("y"), PVar("y_1_1")), PVar("y_1")), PVar("y_1_1_1"))))


def test_substitute_puts_several_values_at_once():
    t = PApp(PVar("x"), PVar("y"))
    assert substitute(t, [("x", PVar("y")), ("y", PCon("c"))]) == \
        PApp(PVar("y"), PCon("c"))
    # the first pair that names a variable gives its value
    assert substitute(t, [("x", PCon("a")), ("x", PCon("b"))]) == \
        PApp(PCon("a"), PVar("y"))
    assert substitute(t, [("z", PCon("a"))]) is t


def _multi_subst_reference(t, pairs):
    """Simultaneous substitution by the one-variable reference: each name
    is first renamed to a name free in neither t nor any value, then the
    values are put for those one after the other."""
    first = {}
    for y, v in pairs:
        first.setdefault(y, v)
    for n, y in enumerate(first):
        t = psubst_reference(t, y, PVar(f"k{n}"))
    for n, v in enumerate(first.values()):
        t = psubst_reference(t, f"k{n}", v)
    return t


def test_multi_pair_substitute_matches_reference():
    rng = random.Random(29)
    renamed = 0
    for _ in range(3000):
        t = rand_plain(rng, 5)
        pairs = [(rng.choice(PLAIN_VARS), rand_plain(rng, 2))
                 for _ in range(rng.randint(2, 4))]
        got = substitute(t, pairs)
        want = _multi_subst_reference(t, pairs)
        assert alpha_eq(got, want), (t, pairs)
        assert got.fv == plain_free_vars_reference(got)
        if t.fv.isdisjoint(y for y, _v in pairs):
            assert got is t
        renamed += got != want
    assert renamed  # binders were renamed, differently from the reference


# -- single steps -------------------------------------------------------------

def test_step_iota():
    t = PCase(PApp(PApp(PCon("c"), PVar("t1")), PVar("t2")),
              (PBranch("c", ("x", "y"), PVar("x")),
               PBranch("d", ("x", "y"), PVar("y"))))
    r = whnf(t, 5)
    assert r.term == PVar("t1") and r.steps == 1


def test_iota_puts_the_arguments_for_the_binders_at_once():
    # the first binder's argument names the second binder, so putting
    # the arguments one binder after the other would give z
    t = PCase(PApp(PApp(PCon("c"), PVar("y")), PVar("z")),
              (PBranch("c", ("x", "y"), PVar("x")),))
    # of two equal binders the first wins
    u = PCase(PApp(PApp(PCon("c"), PVar("a")), PVar("b")),
              (PBranch("c", ("x", "x"), PVar("x")),))
    for case, want in ((t, PVar("y")), (u, PVar("a"))):
        assert whnf(case, 5).term == want
        assert step1_reference(case) == want
        assert whnf_reference(case, 5).term == want
        assert whnf_recursive_reference(case, 5).term == want


def test_step_beta():
    t = PApp(PLam("x", PVar("x")), PCon("c"))
    r = whnf(t, 5)
    assert r.term == PCon("c") and r.steps == 1


def test_step_non_redex_case_shapes():
    # arity mismatch
    t1 = PCase(PApp(PCon("c"), PVar("t1")),
               (PBranch("c", ("x", "y"), PVar("x")),))
    # constructor not covered
    t2 = PCase(PApp(PApp(PCon("e"), PVar("t1")), PVar("t2")),
               (PBranch("c", ("x", "y"), PVar("x")),
                PBranch("d", ("x", "y"), PVar("y"))))
    # duplicated branch constructors
    t3 = PCase(PApp(PApp(PCon("c"), PVar("t1")), PVar("t2")),
               (PBranch("c", ("x", "y"), PVar("x")),
                PBranch("c", ("x", "y"), PVar("y"))))
    for t in (t1, t2, t3):
        r = whnf(t, 5)
        assert (r.kind, r.stuck, r.steps) == ("value", True, 0)
        assert r.term is t


def test_step_is_leftmost_outermost():
    redex = PApp(PLam("x", PVar("x")), PCon("c"))
    r = whnf(PApp(redex, redex), 5)
    assert (r.head, r.args, r.steps) == ("c", (redex,), 1)


def test_y_unfolds():
    u = PLam("z", PApp(PApp(PCon("cons"), PCon("zero")), PVar("z")))
    t = PApp(Y_COMBINATOR, u)
    r = whnf(t, 10)
    assert r.kind == "head" and r.head == "cons"
    unfolded = t
    for _ in range(10):
        nxt = step1_reference(unfolded)
        if nxt is None:
            break
        unfolded = nxt
        if alpha_eq(unfolded, PApp(u, PApp(Y_COMBINATOR, u))):
            return
    raise AssertionError("Y t did not reduce to t (Y t)")


# -- weak head normalisation -----------------------------------------------------

def test_whnf_examples():
    zeros = PApp(Y_COMBINATOR,
                 PLam("z", PApp(PApp(PCon("cons"), PCon("zero")), PVar("z"))))
    r = whnf(zeros, 100)
    assert r.kind == "head" and r.head == "cons"
    assert r.args[0] == PCon("zero")
    r2 = whnf(OMEGA, 100)
    assert r2.kind == "fuel"
    r3 = whnf(PLam("x", PVar("x")), 1)
    assert r3.kind == "value" and not r3.stuck


def test_whnf_stuck_case():
    t = PCase(PLam("x", PVar("x")), (PBranch("c", (), PCon("d")),))
    r = whnf(t, 50)
    assert r.kind == "value" and r.stuck


def test_whnf_fuel_accounting():
    r = whnf(PApp(PLam("x", PVar("x")), PCon("c")), 10)
    assert r.steps == 1 and r.kind == "head"


def _whnf_inputs():
    """Every subterm of the erased corpus terms; cases whose branches
    repeat a constructor, which no iota step may take; seeded random
    plain terms, open, with binders that capture, shadow and clash with
    the names a renaming picks (x, y, f, x_1), and cases that get stuck;
    and the same made closed by applying abstractions over those names
    to random values."""
    out = [s for _label, _reg, t in corpus_terms()
           for s in nodes(erase(t))]
    rng = random.Random(89)
    for _ in range(100):
        t = PCon(rng.choice(("zero", "cons")))
        for _ in range(rng.randint(0, 2)):
            t = PApp(t, rand_plain(rng, 2))
        cons = rng.choice((("zero", "zero"), ("cons", "cons"),
                           ("cons", "zero", "cons"), ("zero", "cons", "zero")))
        t = PCase(t, tuple(
            PBranch(c, tuple(rng.sample(PLAIN_VARS, rng.randint(0, 2))),
                    rand_plain(rng, 3)) for c in cons))
        out.append(PApp(PLam("x", t), rand_plain(rng, 2))
                   if rng.random() < 0.5 else t)
    rng = random.Random(83)
    out += [rand_plain(rng, 5) for _ in range(500)]
    for _ in range(300):
        t = rand_plain(rng, 5)
        for v in PLAIN_VARS:
            t = PApp(PLam(v, t), rand_plain(rng, 2) if rng.random() < 0.5
                     else PLam("x", PVar("x")))
        out.append(t)
    return out


def test_whnf_matches_substitution_reference():
    # the closure machine takes the reference's steps and reads back its
    # terms up to renaming, at every fuel until both reach a weak head
    # normal form (more fuel then changes nothing), and at the default
    kinds, renamed = set(), 0
    for t in _whnf_inputs():
        for fuel in [*range(1, 51), EvalBudget().fuel]:
            got, want = whnf(t, fuel), whnf_reference(t, fuel)
            assert same_whnf(got, want), (t, fuel, got, want)
            kinds.add((got.kind, got.stuck))
            renamed += got.term != want.term
            if got.kind != "fuel" and fuel < 50:
                break
    assert kinds == {("head", False), ("value", False), ("value", True),
                     ("fuel", False)}
    assert renamed  # some binder was renamed, differently from the reference


def test_forcing_a_thunk_again_gives_what_normal_order_gives():
    # a thunk remembers its weak head normal form with its cost, or the
    # most fuel it ran out under; forced again under any fuel, it gives
    # the kind and steps a fresh reduction by name gives, also where the
    # new fuel is one more than the fuel it ran out under
    from slam.rewrite import _force

    rng = random.Random(11)
    inputs = [erase(t) for _label, _reg, t in corpus_terms()]
    inputs += [t for t in _whnf_inputs() if not t.fv][-150:]
    inputs += [PApp(Y_COMBINATOR, PLam("z", rand_plain(rng, 4)))
               for _ in range(100)]
    retried = 0
    for t in inputs:
        want = {f: whnf(t, f) for f in range(1, 16)}
        for first in range(1, 14):
            th = _Thunk(t)
            _force(th, first)
            for f in (first, first + 1, first + 2, 1):
                kind, steps, _, _ = _force(th, f)
                assert (kind, steps) == (want[f].kind, want[f].steps), \
                    (t, first, f)
                retried += kind != "fuel" and want[first].kind == "fuel"
    assert retried


def test_whnf_reads_a_shared_argument_back_once(trees):
    # cofix t. bnode zero t t: both recursive arguments are the closure
    # of t, read back as one object
    r = whnf(erase(linked_reference(trees, "bzeros")), 100)
    assert r.head == "bnode" and r.args[1] is r.args[2]
    assert r.term.fun.arg is r.args[1] and r.term.arg is r.args[2]


def test_whnf_without_a_step_returns_its_input():
    t = PApp(PApp(PCon("cons"), PVar("x")),
             PApp(PLam("y", PVar("y")), PCon("z")))
    r = whnf(t, 5)
    assert r.steps == 0 and r.term is t
    assert r.args[0] is t.fun.arg and r.args[1] is t.arg
    stuck = PApp(PCase(PLam("x", PVar("x")), (PBranch("c", (), PCon("d")),)),
                 PCon("e"))
    r = whnf(stuck, 5)
    assert r.kind == "value" and r.stuck and r.term is stuck


def test_whnf_self_application_runs_in_constant_space():
    # the argument x of x x is pushed as x's closure, not as a new
    # closure around x, so no chain of closures grows with the steps
    import tracemalloc
    tracemalloc.start()
    try:
        r = whnf(OMEGA, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.kind == "fuel" and r.steps == 2000 and peak < 64_000
    r = whnf(OMEGA, 10**5)
    assert r.kind == "fuel" and r.steps == 10**5 and r.term == OMEGA


def test_whnf_reads_back_a_deep_chain_of_closures():
    # (\x0. (\x1. ... (\xn. xn) (succ x_{n-1}) ...) (succ x0)) zero:
    # the result's argument is a chain of n closures, each needing the
    # one before, read back on a stack
    n = 10_000
    t = PVar(f"x{n}")
    for k in range(n, 0, -1):
        t = PApp(PLam(f"x{k}", t), PApp(PCon("succ"), PVar(f"x{k - 1}")))
    r = whnf(PApp(PLam("x0", t), PCon("zero")), 10**5)
    want = PCon("zero")
    for _ in range(n):
        want = PApp(PCon("succ"), want)
    assert r.kind == "head" and r.steps == n + 1 and r.term == want


# -- approximants ------------------------------------------------------------------

def test_approximant_zeros(streams):
    reg = streams.registry
    z = erase(linked_reference(streams, "zeros"))
    a = approximant(z, EvalBudget(fuel=1000, depth=2), reg)
    assert a == Constr("cons", (Constr("zero"),
                                Constr("cons", (Constr("zero"), Bottom()))))


def test_approximant_omega():
    a = approximant(OMEGA, EvalBudget(fuel=200, depth=5))
    assert a == Bottom()
    assert a.fuel_limited


def test_approximant_partial_divergence(streams):
    reg = streams.registry
    t = PApp(PApp(PCon("cons"), PCon("zero")), OMEGA)
    a = approximant(t, EvalBudget(fuel=200, depth=2), reg)
    assert a == Constr("cons", (Constr("zero"), Bottom()))


def test_approximant_depth_zero():
    assert approximant(PCon("zero"), EvalBudget(fuel=10, depth=0)) == Bottom()


def test_approximant_value():
    a = approximant(PLam("x", PVar("x")), EvalBudget(fuel=10, depth=3))
    assert isinstance(a, Opaque)


def test_eval_budget_validation():
    assert EvalBudget() == EvalBudget(10000, 5)
    assert EvalBudget(depth=0) == EvalBudget(fuel=10000, depth=0)
    with pytest.raises(ValueError):
        EvalBudget(fuel=0, depth=1)
    with pytest.raises(ValueError):
        EvalBudget(fuel=10, depth=-1)


# -- refinement ---------------------------------------------------------------------

def test_refines_examples():
    a = Constr("cons", (Constr("zero"), Opaque(PVar("x"))))
    assert refines(a, Bottom())
    assert not refines(Bottom(), Constr("zero"))
    assert refines(a, a)
    assert refines(a, Constr("cons", (Bottom(), Opaque(PVar("x")))))
    assert not refines(Constr("zero"), Constr("succ", (Bottom(),)))


def test_refines_opaque_alpha():
    a = Opaque(PLam("x", PVar("x")))
    b = Opaque(PLam("y", PVar("y")))
    assert refines(a, b) and refines(b, a)


def test_refinement_chain_on_corpus():
    budget_fuel = 4000
    for label, reg, t in corpus_terms():
        e = erase(t)
        prev = None
        for n in range(0, 4):
            a = approximant(e, EvalBudget(fuel=budget_fuel, depth=n), reg)
            if prev is not None and not _fuel_limited(a) and not _fuel_limited(prev):
                assert refines(a, prev), (label, n)
            prev = a


def _fuel_limited(a):
    if isinstance(a, Bottom):
        return a.fuel_limited
    if isinstance(a, Constr):
        return any(_fuel_limited(k) for k in a.children)
    return False


# -- membership ------------------------------------------------------------------------

def test_member_inductive_levels(streams):
    reg = streams.registry
    two = _nat_tree(2)
    nat = Coind("Nat", SVar("n"), ())
    assert member(two, nat, reg, {"n": 3})
    assert not member(two, nat, reg, {"n": 2})
    assert member(two, Coind("Nat", INFTY, ()), reg)
    assert not member(Bottom(), Coind("Nat", INFTY, ()), reg)


def test_member_strict_base(streams):
    reg = streams.registry
    strm0 = Coind("Strm", ZERO, ())
    assert member(Bottom(), strm0, reg, strict=True)
    assert not member(Constr("cons", (Constr("zero"), Bottom())), strm0, reg,
                      strict=True)


def test_member_nonstrict_base(streams):
    reg = streams.registry
    a = Constr("cons", (Constr("zero"), Bottom()))
    strm = Coind("Strm", SVar("n"), ())
    assert member(a, strm, reg, {"n": 1})          # tail lands in level 0
    assert not member(a, strm, reg, {"n": 2})
    assert member(Opaque(PVar("x")), strm, reg, {"n": 0})


def test_member_strict_exact(streams):
    reg = streams.registry
    a2 = Constr("cons", (Constr("zero"),
                         Constr("cons", (Constr("zero"), Bottom()))))
    strm = Coind("Strm", SVar("n"), ())
    assert member(a2, strm, reg, {"n": 2}, strict=True)
    assert not member(a2, strm, reg, {"n": 1}, strict=True)
    assert not member(a2, strm, reg, {"n": 3}, strict=True)


def test_member_strict_needs_finite_level(streams):
    reg = streams.registry
    with pytest.raises(ValueError):
        member(Bottom(), Coind("Strm", INFTY, ()), reg, strict=True)


def test_member_rejects_non_observable(sp):
    reg = sp.registry
    with pytest.raises(NonObservableType):
        member(Bottom(), Coind("SP", INFTY, ()), reg)
    assert not observable(parse_type("SP", reg), reg)
    assert observable(parse_type("Strm", reg), reg)


def test_member_through_parameters(trees):
    reg = trees.registry
    # fnode zero (cons t nil) with t a full leaf tree
    leaf = Constr("fnode", (Constr("zero"), Constr("nil")))
    one = Constr("fnode", (Constr("zero"),
                           Constr("cons", (leaf, Constr("nil")))))
    ftree = Coind("FTree", SVar("n"), ())
    assert member(one, ftree, reg, {"n": 2})
    assert member(leaf, ftree, reg, {"n": 5})  # finite tree: every level
    chopped = Constr("fnode", (Constr("zero"),
                               Constr("cons", (Bottom(), Constr("nil")))))
    assert member(chopped, ftree, reg, {"n": 1})
    assert not member(chopped, ftree, reg, {"n": 2})


def _rand_approx(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return rng.choice([Bottom(), Constr("cons", (Bottom(), Bottom()))])
    if r < 0.5:
        return Constr("cons", (_nat_tree(rng.randint(0, 2)),
                               _rand_approx(rng, depth - 1)))
    if r < 0.6:
        return Opaque(PVar("x"))
    if r < 0.8:
        # exact strict chain of the remaining depth
        a = Bottom()
        for _ in range(depth):
            a = Constr("cons", (_nat_tree(rng.randint(0, 2)), a))
        return a
    return Constr("cons", (Bottom(), _rand_approx(rng, depth - 1)))


def test_strict_implies_nonstrict_coherence(streams):
    reg = streams.registry
    rng = random.Random(61)
    strm = Coind("Strm", SVar("n"), ())
    for _ in range(200):
        a = _rand_approx(rng, rng.randint(0, 4))
        for n in range(0, 5):
            if member(a, strm, reg, {"n": n}, strict=True):
                for m in range(n + 1):
                    assert member(a, strm, reg, {"n": m})


def test_nonstrict_antitone(streams):
    reg = streams.registry
    rng = random.Random(62)
    strm = Coind("Strm", SVar("n"), ())
    for _ in range(200):
        a = _rand_approx(rng, rng.randint(0, 4))
        for n in range(0, 5):
            if member(a, strm, reg, {"n": n}):
                for m in range(n + 1):
                    assert member(a, strm, reg, {"n": m})


# -- productivity -----------------------------------------------------------------------

def test_productivity_zeros(streams):
    reg = streams.registry
    rep = productivity_check(erase(linked_reference(streams, "zeros")),
                             parse_type("Strm", reg), reg,
                             budget=EvalBudget(depth=5))
    assert rep.passed and rep.chain_ok
    assert [d.ok for d in rep.verdicts] == [True] * 6


def test_productivity_checks_observability_once(streams, monkeypatch):
    # the type is checked once per report, not again by each depth's
    # membership; a lone `member` call still checks it
    import slam.rewrite as rewrite
    calls = []
    seen = rewrite.observable
    monkeypatch.setattr(rewrite, "observable",
                        lambda *a: calls.append(a) or seen(*a))
    reg = streams.registry
    rep = productivity_check(erase(linked_reference(streams, "zeros")),
                             parse_type("Strm", reg), reg,
                             budget=EvalBudget(depth=8))
    assert rep.passed and len(calls) == 1
    member(rep.verdicts[-1].approx, parse_type("Strm", reg), reg)
    assert len(calls) == 2


def test_productivity_omega(streams):
    reg = streams.registry
    rep = productivity_check(OMEGA, parse_type("Strm", reg), reg,
                             budget=EvalBudget(fuel=300, depth=1))
    assert not rep.passed and rep.fail_at == 1
    assert "FAIL at n=1" in rep.render()


def test_productivity_run_odd_nats(sp):
    reg = sp.registry
    t = App(App(linked_reference(sp, "run"), linked_reference(sp, "odd")),
            linked_reference(sp, "nats"))
    rep = productivity_check(erase(t), parse_type("Strm", reg), reg,
                             budget=EvalBudget(depth=3))
    assert rep.passed
    assert rep.verdicts[3].approx == Constr("cons", (_nat_tree(1), Constr(
        "cons", (_nat_tree(3), Constr("cons", (_nat_tree(5), Bottom()))))))


@pytest.mark.parametrize("observe", ["productivity", "eval"])
def test_run_odd_nats_takes_steps_linear_in_depth(sp, monkeypatch, observe):
    # fuel is charged by name, so fuelUsed grows with the square of the
    # depth (element k alone is charged 12k + 6 steps); reduced by need,
    # each thunk once, the steps the machine takes grow linearly.  Steps
    # are counted, not timed.
    from slam import rewrite

    taken = []
    run = rewrite._run

    def counted(*args):
        out = run(*args)
        taken.append(out[-1])
        return out

    monkeypatch.setattr(rewrite, "_run", counted)
    reg = sp.registry
    t = erase(App(App(linked_reference(sp, "run"),
                      linked_reference(sp, "odd")),
                  linked_reference(sp, "nats")))
    steps = {}
    for depth in (20, 40):
        taken.clear()
        if observe == "eval":
            a = approximant(t, EvalBudget(depth=depth), reg)
            assert a.children[0] == _nat_tree(1)
        else:
            rep = productivity_check(t, parse_type("Strm", reg), reg,
                                     budget=EvalBudget(depth=depth))
            assert rep.passed
            assert [(v.nodes, v.fuel_used) for v in rep.verdicts] == [
                ((n + 1) ** 2, 6 * n * n + 30 * n + 30)
                for n in range(depth + 1)]
        steps[depth] = sum(taken)
    assert 0 < steps[40] <= 2.5 * steps[20]


class _NoMemo(dict):
    """A whnf memo for `approx_reference` that never keeps an entry."""

    def __setitem__(self, key, value):
        pass


PRODUCTIVITY_CASES = [
    ("sp", "run odd nats", "Strm"), ("streams", "nats", "Strm"),
    ("trees", "bzeros", "BTree"), ("trees", "fpair", "FTree"),
    ("trees", "wtree", "Tree"),
]


def test_whnf_memo_matches_fresh_approximants():
    # productivity_check shares its thunks across all depths, and
    # approximant observes a fresh term; each depth must read exactly as
    # a memo-free observation of that depth by name
    limited = unlimited = 0
    for fname, src, tyname in PRODUCTIVITY_CASES:
        sf = load(fname)
        reg = sf.registry
        t = erase(link_all(sf, parse_term(src, reg)))
        tau = parse_type(tyname, reg)
        for fuel in (20, 60, 200, 10000):
            fresh = [approx_reference(t, n, fuel, reg, [fuel * (n + 2)],
                                      _NoMemo()) for n in range(9)]
            for n, (a, _steps, lim, _n) in enumerate(fresh):
                got = approximant(t, EvalBudget(fuel=fuel, depth=n), reg)
                assert repr(got) == repr(a), (src, fuel, n)
                limited += lim
                unlimited += not lim
            if not observable(tau, reg):  # wtree: functions inside
                continue
            rep = productivity_check(t, tau, reg,
                                     budget=EvalBudget(fuel=fuel, depth=8))
            for v, (a, steps, lim, nodes) in zip(rep.verdicts, fresh):
                ok = member(a, Coind(tau.defname, SVar("n"), tau.params), reg,
                            {"n": v.depth})
                assert (v.ok, v.nodes, v.fuel_used, v.fuel_limited) == \
                    (ok, _nodes(a), steps, lim), (src, fuel, v.depth)
                assert nodes == v.nodes
                assert v.approx == a and repr(v.approx) == repr(a)
    assert limited and unlimited


def _nodes(a):
    return 1 + sum(_nodes(k) for k in a.children) if isinstance(a, Constr) else 1


SHARING_CASES = [
    ("trees", "bzeros", "BTree"), ("trees", "fpair", "FTree"),
    ("streams", "nats", "Strm"), ("sp", "run odd nats", "Strm"),
    # no member from depth 1 on, but only for a head every depth shares
    ("streams", "cons (succ (cons zero zero)) zeros", "Strm"),
]


@pytest.mark.parametrize("fname,src,tyname", SHARING_CASES)
def test_shared_observations_read_as_tree_walks(fname, src, tyname,
                                                monkeypatch):
    # one root thunk for all depths, as productivity_check keeps it,
    # keeps and reuses the reductions and observations of shared thunks;
    # each depth must read exactly as a walk of the tree by name that
    # keeps none: the same approximant, steps, fuel-limited flag, node
    # count and gas left, also where the gas tank binds (fuel 20: bzeros
    # from depth 5 on).  At fuel 20 the tree walk is the recursive
    # reference with a memo that keeps nothing; at the default fuel,
    # where such a walk of bzeros or fpair at depth 14 redoes whnf some
    # 10^5 times, the reference keeps a whnf memo of its own (whnf is
    # pure, and test_whnf_memo_matches_fresh_approximants ties the two
    # walks)
    from slam import rewrite

    sf = load(fname)
    reg = sf.registry
    t = erase(link_all(sf, parse_term(src, reg)))
    tau = parse_type(tyname, reg)
    level = Coind(tau.defname, SVar("n"), tau.params)
    whnf_only = {}
    for fuel, depths in ((20, range(11)), (EvalBudget().fuel, range(15))):
        root = _Thunk(t)
        fresh = []
        for n in depths:
            gas, gas0 = [fuel * (n + 2)], [fuel * (n + 2)]
            a = _approx(root, n, fuel, reg, gas)
            got = (a, a.steps, a.limited, a.nodes)
            if fuel == 20:
                want = approx_reference(t, n, fuel, reg, gas0, _NoMemo())
            else:
                want = approx_reference(t, n, fuel, reg, gas0, whnf_only)
            assert repr(got) == repr(want) and gas == gas0, (src, fuel, n)
            assert got[3] == _nodes(want[0]), (src, fuel, n)
            fresh.append(got)
        if src == "bzeros" and fuel == 20:
            assert [lim for _a, _s, lim, _n in fresh] == [False] * 5 + [True] * 6

    # a report grows each depth from the one before where the tank
    # cannot bind and walks from the root elsewhere; every depth must
    # read as a walk from a fresh root, tied above to the reference
    ran = {"extend": 0, "walk": 0}
    extend, approx = rewrite._extend, rewrite._approx
    extending = []

    def counted_extend(*args):
        ran["extend"] += 1
        extending.append(True)
        try:
            return extend(*args)
        finally:
            extending.pop()

    def counted_approx(*args):
        ran["walk"] += not extending
        return approx(*args)

    monkeypatch.setattr(rewrite, "_extend", counted_extend)
    monkeypatch.setattr(rewrite, "_approx", counted_approx)
    for fuel in (20, EvalBudget().fuel):
        ran.update(extend=0, walk=0)
        rep = productivity_check(t, tau, reg, EvalBudget(fuel=fuel, depth=20))
        assert ran["extend"] and ran["walk"], (src, fuel, ran)
        if src in ("bzeros", "fpair"):  # walks again where the tank binds
            assert ran["walk"] > 1, (src, fuel, ran)
        for v in rep.verdicts:
            n = v.depth
            a = approx(_Thunk(t), n, fuel, reg, [fuel * (n + 2)])
            steps, lim, nodes = a.steps, a.limited, a.nodes
            ok = member(a, level, reg, {"n": n})
            assert (v.ok, v.nodes, v.fuel_used, v.fuel_limited) == \
                (ok, nodes, steps, lim), (src, fuel, n)
            assert v.approx == a and repr(v.approx) == repr(a), (src, fuel, n)


def test_zeros_report_forces_linearly_in_depth(streams, monkeypatch):
    # depth n+1 grows from depth n, so a report forces the cells depth n
    # cut, not every cell again at every depth: calls are counted, not
    # timed
    from slam import rewrite

    calls = [0]
    force = rewrite._force

    def counted(*args):
        calls[0] += 1
        return force(*args)

    monkeypatch.setattr(rewrite, "_force", counted)
    reg = streams.registry
    t = erase(linked_reference(streams, "zeros"))
    made = {}
    for depth in (100, 200):
        calls[0] = 0
        rep = productivity_check(t, parse_type("Strm", reg), reg,
                                 EvalBudget(depth=depth))
        assert rep.passed
        made[depth] = calls[0]
    assert 0 < made[200] <= 2.1 * made[100]


GAS_CASES = [
    ("trees", "fpair", "FTree"),
    ("streams", "cofix[j] z : Strm . cons (plus (succ (succ zero)) "
                "(succ (succ zero))) z", "Strm"),
    ("trees", "cofix[j] t : BTree . bnode (succ (succ zero)) t t", "BTree"),
]


@pytest.mark.parametrize("fname,src,tyname", GAS_CASES,
                         ids=["fpair", "closed_stream_head", "bzeros_of_two"])
def test_shared_observations_keep_gas_exact(fname, src, tyname):
    # small fuels make the gas tank bind inside shared thunks: an
    # observation is kept only if every forcing in it had the full
    # limit, and reused only if a fresh walk would give each the full
    # limit; a thunk that ran out of fuel at one depth is reduced again,
    # under more fuel, at the next.  A report, growing depths from one
    # another where the tank cannot bind, reads the same at every depth,
    # also where a depth after a failed membership shares its subtrees
    sf = load(fname)
    reg = sf.registry
    t = erase(link_all(sf, parse_term(src, reg)))
    tau = parse_type(tyname, reg)
    level = Coind(tau.defname, SVar("n"), tau.params)
    limited = 0
    for fuel in range(1, 31):
        root = _Thunk(t)
        fresh = []
        for n in range(9):
            gas, gas0 = [fuel * (n + 2)], [fuel * (n + 2)]
            a = _approx(root, n, fuel, reg, gas)
            got = (a, a.steps, a.limited, a.nodes)
            want = approx_reference(t, n, fuel, reg, gas0, _NoMemo())
            assert repr(got) == repr(want) and gas == gas0, (fuel, n)
            limited += got[2]
            fresh.append(got)
        rep = productivity_check(t, tau, reg, EvalBudget(fuel=fuel, depth=8))
        for v, (a, steps, lim, nodes) in zip(rep.verdicts, fresh):
            ok = member(a, level, reg, {"n": v.depth})
            assert (v.ok, v.nodes, v.fuel_used, v.fuel_limited) == \
                (ok, nodes, steps, lim), (fuel, v.depth)
            assert repr(v.approx) == repr(a), (fuel, v.depth)
    assert limited


def test_shared_observation_is_one_object_per_depth(trees):
    # bnode zero t t: both children of a node are the same observation
    z = erase(linked_reference(trees, "bzeros"))
    a = approximant(z, EvalBudget(depth=12), trees.registry)
    distinct, todo = set(), [a]
    while todo:
        x = todo.pop()
        if id(x) not in distinct:
            distinct.add(id(x))
            todo.extend(getattr(x, "children", ()))
    assert len(distinct) == 4 * 12 + 2
    assert a.children[2].children[1] is a.children[2].children[2]


def test_productivity_report_format(streams):
    reg = streams.registry
    rep = productivity_check(erase(linked_reference(streams, "zeros")),
                             parse_type("Strm", reg), reg,
                             budget=EvalBudget(depth=2))
    lines = rep.render().splitlines()
    assert lines[0].startswith("0: ok (nodes=")
    assert lines[-1] == "PASS"


def test_productivity_rejects_non_coinductive(streams):
    reg = streams.registry
    with pytest.raises(NonObservableType):
        productivity_check(PCon("zero"), parse_type("Nat", reg), reg)


def test_unproductive_but_typed_at_size_zero(streams):
    # Strm^0 promises nothing, and the harness shows exactly that: the
    # term types but produces no layer
    reg = streams.registry
    t = linked_reference(streams, "stuckstream")
    rep = productivity_check(erase(t), parse_type("Strm", reg), reg,
                             budget=EvalBudget(fuel=300, depth=1))
    assert not rep.passed and rep.fail_at == 1


def test_member_checks_a_shared_node_once_per_goal(trees, monkeypatch):
    # a node of the bzeros DAG is checked once, not once per parent: each
    # check of a bnode pops its three children once, and a constructor is
    # looked up once per goal (once per level, as zero's goal is shared)
    z = erase(linked_reference(trees, "bzeros"))
    pops, lookups = [], []
    definition, entry = DefRegistry.definition, DefRegistry.constructor_entry
    monkeypatch.setattr(DefRegistry, "definition",
                        lambda self, dn: pops.append(dn) or definition(self, dn))
    monkeypatch.setattr(DefRegistry, "constructor_entry",
                        lambda self, c: lookups.append(c) or entry(self, c))
    btree = Coind("BTree", SVar("n"), ())
    for n in (6, 12):
        a = approximant(z, EvalBudget(depth=n), trees.registry)
        distinct, todo = set(), [a]
        while todo:
            x = todo.pop()
            if id(x) not in distinct:
                distinct.add(id(x))
                todo.extend(getattr(x, "children", ()))
        pops.clear()
        lookups.clear()
        assert member(a, btree, trees.registry, {"n": n})
        assert len(distinct) == 4 * n + 2
        assert len(pops) <= 3 * len(distinct)
        assert len(lookups) <= n + 1


def test_member_strict_through_branching(trees):
    reg = trees.registry
    z = erase(linked_reference(trees, "bzeros"))
    a2 = approximant(z, EvalBudget(fuel=2000, depth=2), reg)
    btree = Coind("BTree", SVar("n"), ())
    assert member(a2, btree, reg, {"n": 2}, strict=True)
    assert not member(a2, btree, reg, {"n": 1}, strict=True)
    assert not member(a2, btree, reg, {"n": 3}, strict=True)
    assert member(a2, btree, reg, {"n": 2})
    assert not member(a2, btree, reg, {"n": 3})


def test_member_strict_through_list_parameters(trees):
    # the strict chain runs through the elements of an inductive spine
    reg = trees.registry
    f = erase(linked_reference(trees, "fpair"))
    ftree = Coind("FTree", SVar("n"), ())
    a1 = approximant(f, EvalBudget(fuel=2000, depth=1), reg)
    assert member(a1, ftree, reg, {"n": 1}, strict=True)
    assert not member(a1, ftree, reg, {"n": 2}, strict=True)
    a2 = approximant(f, EvalBudget(fuel=2000, depth=2), reg)
    assert member(a2, ftree, reg, {"n": 2}, strict=True)
    assert refines(a2, a1)


def test_member_and_refines_on_a_deep_stream():
    # a 10^4-deep approximant is checked on an explicit stack
    reg = load("streams").registry
    n = 10_000
    a, shallow = Bottom(), Bottom()
    for k in range(n):
        a = Constr("cons", (Constr("zero"), a))
        if k == n // 2:
            shallow = a
    strm = Coind("Strm", SVar("i"), ())
    assert member(a, strm, reg, {"i": n})
    assert member(a, strm, reg, {"i": n}, strict=True)
    assert not member(a, strm, reg, {"i": n + 1}, strict=True)
    assert not member(a, Coind("Nat", INFTY, ()), reg)
    assert refines(a, a) and refines(a, shallow) and not refines(shallow, a)


# -- bindings as one shared thunk each ---------------------------------------

# forward references, a binding used several times, and lambda and case
# binders named like bindings
BINDING_FILE = """
f = g;
g = succ zero;
two = plus g g;
four = plus two two;
k = \\g : Nat. succ g;
m = case two of { zero => f; succ f => plus f g };
fours = cofix[j] s : Strm^j . cons four s;
"""
BINDING_QUERIES = ["f", "g", "two", "four", "k", "m", "k f", "fours",
                   "plus four (k two)", "\\f : Nat. plus f g",
                   "(\\four : Nat. plus four four) g"]


def _closure_and_linked(sf, src):
    """The query as the CLI hands it to the machine, a closure over one
    thunk per binding it reaches, and as linking gave it: the reached
    bindings substituted in, in file order, each linked first."""
    from slam import subst_term
    from slam.rewrite import closure

    q = parse_term(src, sf.registry)
    reached = sf.reached(q)
    t = q
    for n in reached:
        t = subst_term(t, linked_reference(sf, n), n)

    def fresh():
        return closure(erase(q), {n: erase(sf.bindings[n]) for n in reached})

    return fresh, erase(t)


# the coinductive types of each file; those with functions inside are
# not observable, and both paths must refuse them
COINDUCTIVE = {"streams": ["Strm"], "sp": ["Strm", "SP"],
               "trees": ["BTree", "FTree", "Tree"]}


def test_closure_matches_linked_reference():
    # a closure shares one thunk per binding and charges its cost by name
    # at every use, so it must observe as the linked term: every
    # approximant, node count, fuel use, fuel-limited flag and verdict
    from slam import parse_slam

    gen = parse_slam((CORPUS_DIR / "streams.slam").read_text()
                     + BINDING_FILE)
    cases = [(f, load(f), name) for f in COINDUCTIVE
             for name in load(f).bindings]
    cases += [(f, load(f), src) for f, src in EXTRA_TERMS]
    cases += [("streams", gen, src) for src in BINDING_QUERIES]
    shared = 0
    for fname, sf, src in cases:
        reg = sf.registry
        fresh, linked = _closure_and_linked(sf, src)
        shared += len(fresh().env) > 0
        for fuel in (50, 200, EvalBudget().fuel):
            for n in range(9):
                budget = EvalBudget(fuel=fuel, depth=n)
                got = approximant(fresh(), budget, reg)
                want = approximant(linked, budget, reg)
                assert got == want and repr(got) == repr(want), \
                    (src, fuel, n)
            for tyname in COINDUCTIVE[fname]:
                tau = parse_type(tyname, reg)
                budget = EvalBudget(fuel=fuel, depth=8)
                try:
                    want = productivity_check(linked, tau, reg, budget)
                except NonObservableType:
                    with pytest.raises(NonObservableType):
                        productivity_check(fresh(), tau, reg, budget)
                    continue
                got = productivity_check(fresh(), tau, reg, budget)
                assert got.render() == want.render(), (src, tyname, fuel)
                assert [(v.ok, v.nodes, v.fuel_used, v.fuel_limited,
                         v.approx) for v in got.verdicts] == \
                    [(v.ok, v.nodes, v.fuel_used, v.fuel_limited, v.approx)
                     for v in want.verdicts], (src, tyname, fuel)
                assert (got.passed, got.chain_ok, got.fail_at) == \
                    (want.passed, want.chain_ok, want.fail_at)
    assert shared > len(BINDING_QUERIES)

import random

from helpers import (
    rand_type, reshape_sizes, subst_type_multi_reference, subtype_of,
    supertype_of,
)
from slam import (
    Arrow, BOT, Coind, Forall, INFTY, SMin, SVar, Succ, TyVar, ZERO, chgtgt,
    gen_sub_constraints, join, meet, parse_type, strictly_positive, subtype,
    sv, tgt,
)

I, J = SVar("i"), SVar("j")


def _strm(s):
    return Coind("Strm", s, ())


def _nat(s=INFTY):
    return Coind("Nat", s, ())


# -- constraint generation ------------------------------------------------------

def test_gen_sub_constraints_examples(streams):
    reg = streams.registry
    # coinductive sizes flip: Strm^(i+1) <= Strm^i asks i <= i+1
    assert gen_sub_constraints(_strm(Succ(I)), _strm(I), reg) == [(I, Succ(I))]
    assert gen_sub_constraints(_nat(I), _nat(Succ(I)), reg) == [(I, Succ(I))]
    assert gen_sub_constraints(_nat(), _strm(INFTY), reg) is None
    assert gen_sub_constraints(_nat(), Arrow(_nat(), _nat()), reg) is None


def test_gen_sub_constraints_arrow_contravariance(streams):
    reg = streams.registry
    pairs = gen_sub_constraints(Arrow(_strm(I), _nat()),
                                Arrow(_strm(Succ(I)), _nat()), reg)
    assert (I, Succ(I)) in pairs


def test_gen_sub_forall_alignment(streams):
    reg = streams.registry
    a = Forall("i", _strm(I))
    b = Forall("j", _strm(J))
    assert subtype(a, b, reg) and subtype(b, a, reg)


def test_aligned_binder_names_are_made_per_call(streams):
    # without an environment, equal calls give equal pairs: each names
    # its common binders from $a1 on
    reg = streams.registry
    a = parse_type("forall i. Strm^(i+1) -> Strm^i", reg)
    b = parse_type("forall j. Strm^(j+1) -> Strm^j", reg)
    first = gen_sub_constraints(a, b, reg)
    assert gen_sub_constraints(a, b, reg) == first
    assert {x for p in first for s in p for x in sv(s)} == {"$a1"}
    # a type that already holds $a1 keeps it apart from the binder
    a1 = SVar("$a1")
    c = Forall("i", Arrow(_strm(I), _strm(a1)))
    d = Forall("j", Arrow(_strm(J), _strm(J)))
    pairs = gen_sub_constraints(c, d, reg)
    assert {x for p in pairs for s in p for x in sv(s)} == {"$a1", "$a2"}
    assert not subtype(c, d, reg)


def test_no_forall_instantiation(streams):
    reg = streams.registry
    a = parse_type("forall i. Strm^(i+1) -> Strm^i", reg)
    b = parse_type("Strm -> Strm", reg)
    assert gen_sub_constraints(a, b, reg) is None


def test_gen_sub_constraints_deduplicates(streams):
    reg = streams.registry
    t1 = Arrow(_strm(I), _strm(I))
    t2 = Arrow(_strm(Succ(I)), _strm(Succ(I)))
    # the contravariant and covariant sides yield the same two pairs once
    pairs = gen_sub_constraints(t1, t2, reg)
    assert len(pairs) == len(set(pairs)) == 2


# -- the decided order ------------------------------------------------------------

def test_subtype_examples(streams):
    reg = streams.registry
    assert subtype(_strm(Succ(I)), _strm(I), reg)
    assert not subtype(_strm(I), _strm(Succ(I)), reg)
    assert subtype(Arrow(_strm(I), _nat()), Arrow(_strm(Succ(I)), _nat()), reg)
    assert subtype(_nat(I), _nat(Succ(I)), reg)


def test_subtype_under_definition_map(streams):
    reg = streams.registry
    assert subtype(_strm(I), _strm(J), reg, u={"j": SMin(I, ZERO)})
    assert not subtype(_strm(I), _strm(J), reg)


# -- join / meet --------------------------------------------------------------------

def test_join_meet_examples(streams):
    reg = streams.registry
    assert join(_strm(I), _strm(J), reg) == _strm(SMin(I, J))
    m = meet(Arrow(_strm(I), _nat(SVar("a"))),
             Arrow(_strm(J), _nat(SVar("b"))), reg)
    # the meet is below both sides (checked by the solver)
    assert subtype(m, Arrow(_strm(I), _nat(SVar("a"))), reg)
    assert subtype(m, Arrow(_strm(J), _nat(SVar("b"))), reg)
    assert join(_nat(), Arrow(_nat(), _nat()), reg) is None
    assert join(BOT, _nat(), reg) == _nat()
    assert meet(BOT, _nat(), reg) == BOT


def test_tgt_chgtgt_examples(sp):
    reg = sp.registry
    t = parse_type("forall i. Strm^(i+1) -> Strm^(i+1)", reg)
    assert tgt(t) == _strm(Succ(I))
    run_ty = parse_type("SP -> Strm -> Strm", reg)
    out = chgtgt(run_ty, _strm(SMin(INFTY, J)))
    assert out == parse_type("SP -> Strm -> Strm^(min(oo, j))", reg)
    assert tgt(_nat()) == _nat()
    # capture of the new target's variables is intentional
    cap = chgtgt(Forall("j", Arrow(_strm(J), _strm(J))), _strm(J))
    assert cap == Forall("j", Arrow(_strm(J), _strm(J)))


# -- property suites -----------------------------------------------------------------

def test_reflexivity(trees):
    reg = trees.registry
    rng = random.Random(31)
    for _ in range(220):
        t = rand_type(rng, reg)
        assert subtype(t, t, reg), t


def test_transitivity_on_chains(trees):
    reg = trees.registry
    rng = random.Random(32)
    for _ in range(220):
        t1 = rand_type(rng, reg)
        t2 = supertype_of(rng, t1, reg)
        t3 = supertype_of(rng, t2, reg)
        assert subtype(t1, t2, reg)
        assert subtype(t2, t3, reg)
        assert subtype(t1, t3, reg)


def test_meet_join_bounds(trees):
    reg = trees.registry
    rng = random.Random(33)
    done = 0
    while done < 220:
        t1 = rand_type(rng, reg)
        t2 = reshape_sizes(rng, t1)
        up = join(t1, t2, reg)
        low = meet(t1, t2, reg)
        assert up is not None and low is not None
        for t in (t1, t2):
            assert subtype(low, t, reg)
            assert subtype(t, up, reg)
        done += 1


def test_join_is_least_upper_bound_facing(trees):
    reg = trees.registry
    rng = random.Random(34)
    for _ in range(220):
        t1 = rand_type(rng, reg)
        t2 = reshape_sizes(rng, t1)
        up = join(t1, t2, reg)
        # anything above the join is above both parts
        t = supertype_of(rng, up, reg)
        assert subtype(t1, t, reg) and subtype(t2, t, reg)
        # anything above both parts is above the join
        t_common = supertype_of(rng, supertype_of(rng, t1, reg), reg)
        if subtype(t2, t_common, reg):
            assert subtype(up, t_common, reg)
        # and dually for the meet
        low = meet(t1, t2, reg)
        t_low = subtype_of(rng, low, reg)
        assert subtype(t_low, t1, reg) and subtype(t_low, t2, reg)


def test_join_meet_monotone(trees):
    reg = trees.registry
    rng = random.Random(35)
    for _ in range(220):
        t1 = rand_type(rng, reg)
        t2 = reshape_sizes(rng, t1)
        t1p = supertype_of(rng, t1, reg)
        t2p = supertype_of(rng, t2, reg)
        assert subtype(join(t1, t2, reg), join(t1p, t2p, reg), reg)
        assert subtype(meet(t1, t2, reg), meet(t1p, t2p, reg), reg)


def test_substitution_compatibility(trees):
    # strictly positive tau with tau <= tau' and alpha <= beta gives
    # tau[alpha/A] <= tau'[beta/A]
    reg = trees.registry
    rng = random.Random(36)
    spots = [
        TyVar("A"),
        Arrow(Coind("Nat", INFTY, ()), TyVar("A")),
        Coind("List", INFTY, (TyVar("A"),)),
        Forall("i", Arrow(Coind("Nat", INFTY, ()), TyVar("A"))),
    ]
    for tau in spots:
        assert strictly_positive(tau, reg)
        for _ in range(30):
            alpha = rand_type(rng, reg, 2)
            beta = supertype_of(rng, alpha, reg)
            left = subst_type_multi_reference(tau, {"A": alpha})
            right = subst_type_multi_reference(tau, {"A": beta})
            assert subtype(left, right, reg)

import random
import time

import pytest

from helpers import rand_size, rand_type
from slam import (
    Arrow, Coind, Forall, INFTY, SMax, SMin, SVar, Succ, TyVar, ZERO,
    alpha_eq, fsv, parse_defs, parse_size, parse_slam,
    parse_term, parse_type, print_size, print_term, print_type,
    strictly_positive, subst_type_sizes, sv, tv,
    validate_registry,
)
from slam.constraints import expand
from slam.parser import MAX_SIZE_NUMERAL, ParseError
from slam.syntax import (
    RegistryError, check_term_wf, node_count, nodes, size_plus,
    uniquify_size_binders,
)

I, J, K = SVar("i"), SVar("j"), SVar("k")


# -- parsing definitions -------------------------------------------------------

def test_parse_defs_nat_strm():
    reg = parse_defs("inductive Nat { zero : Nat; succ : Nat -> Nat }\n"
                     "coinductive Strm { cons : Nat -> Strm -> Strm }")
    nat = reg.definition("Nat")
    assert not nat.coinductive and len(nat.constructors) == 2
    assert nat.constructors[1].arg_types == (TyVar("Nat"),)
    strm = reg.definition("Strm")
    assert strm.coinductive
    assert strm.constructors[0].arg_types == \
        (Coind("Nat", INFTY, ()), TyVar("Strm"))
    assert not validate_registry(reg)


def test_parse_defs_empty_constructor_list():
    with pytest.raises(ParseError, match="empty constructor list"):
        parse_defs("inductive D { }")


def test_parse_defs_duplicates():
    with pytest.raises(ParseError, match="duplicate definition"):
        parse_defs("inductive D { c : D }\ninductive D { d : D }")
    with pytest.raises(RegistryError, match="duplicate constructor"):
        parse_defs("inductive D { c : D }\ninductive E { c : E }")


def test_registry_accepts_paper_examples(streams, sp, trees):
    # fixtures already validate Nat, Strm, List, BTree, FTree, Tree,
    # Tree2, SPi/SP, the Odd0/Even reformulation
    assert streams.registry.validated
    assert sp.registry.validated
    assert trees.registry.validated


def test_registry_rejects_direct_mutual_recursion():
    reg = parse_defs("inductive Odd { so : Even -> Odd }\n"
                     "inductive Even { ezer : Even; se : Odd -> Even }")
    diags = validate_registry(reg)
    assert any("cycle" in str(d) for d in diags)
    assert any("Odd" in str(d) and "Even" in str(d) for d in diags)


def test_registry_rejects_negative_recursion():
    reg = parse_defs(
        "inductive Nat { zero : Nat; succ : Nat -> Nat }\n"
        "coinductive T2 { mk : (T2 -> Nat) -> T2 }")
    diags = validate_registry(reg)
    assert any("strictly positive" in str(d) for d in diags)


def test_registry_rejects_unused_parameter():
    reg = parse_defs("inductive P(B) { mk : P(B) }")
    diags = validate_registry(reg)
    assert any("parameter B" in str(d) for d in diags)


def test_registry_rejects_free_size_variable():
    import slam.syntax as sx
    reg = sx.DefRegistry()
    reg.add(sx.Definition("D", False, (), (
        sx.ConstructorSig("c", (Coind("D", SVar("i"), ()),)),)))
    # manual construction sidesteps the parser; validation still rejects
    diags = validate_registry(reg)
    assert diags


def test_recursive_occurrence_must_match_parameters():
    with pytest.raises(ParseError, match="must be applied to exactly"):
        parse_defs("inductive Nat { zero : Nat }\n"
                   "inductive L(B) { c : L(Nat) -> L(B) }")


# -- strict positivity ----------------------------------------------------------

def test_strictly_positive_examples(streams):
    reg = streams.registry
    assert strictly_positive(parse_type("Nat", reg), reg)
    assert strictly_positive(TyVar("A"), reg)
    assert not strictly_positive(Arrow(TyVar("A"), Coind("Nat", INFTY, ())), reg)
    assert strictly_positive(Arrow(Coind("Nat", INFTY, ()), TyVar("A")), reg)


def _sp_oracle(t, reg):
    # direct clause-by-clause transcription, used as a differential oracle
    if not tv(t):
        return True
    if isinstance(t, TyVar):
        return True
    if isinstance(t, Arrow):
        return not tv(t.dom) and _sp_oracle(t.cod, reg)
    if isinstance(t, Forall):
        return _sp_oracle(t.body, reg)
    if isinstance(t, Coind):
        return t.size == INFTY and all(_sp_oracle(p, reg) for p in t.params)
    return False


def test_strictly_positive_oracle_differential(trees):
    reg = trees.registry
    rng = random.Random(42)
    for _ in range(1000):
        t = _mix_in_tyvars(rng, rand_type(rng, reg, 3))
        assert strictly_positive(t, reg) == _sp_oracle(t, reg)


def _mix_in_tyvars(rng, t):
    if rng.random() < 0.25:
        return TyVar(rng.choice("AB"))
    if isinstance(t, Arrow):
        return Arrow(_mix_in_tyvars(rng, t.dom), _mix_in_tyvars(rng, t.cod))
    if isinstance(t, Forall):
        return Forall(t.var, _mix_in_tyvars(rng, t.body))
    if isinstance(t, Coind) and t.params:
        return Coind(t.defname, t.size,
                     tuple(_mix_in_tyvars(rng, p) for p in t.params))
    return t


# -- variable sets ----------------------------------------------------------------

def test_free_vars_examples(streams):
    reg = streams.registry
    t = parse_type("forall i. Strm^i -> Strm^j", reg)
    assert fsv(t) == {"j"}
    assert tv(Arrow(TyVar("B"), TyVar("A"))) == {"A", "B"}
    assert sv(SMax(I, Succ(J))) == {"i", "j"}


def test_fsv_subst_property():
    rng = random.Random(5)
    for _ in range(300):
        s = rand_size(rng)
        s2 = rand_size(rng)
        out = subst_type_sizes(s, {"i": s2})
        assert sv(out) <= (sv(s) - {"i"}) | sv(s2)


# -- substitution -----------------------------------------------------------------

def test_subst_examples(trees):
    reg = trees.registry
    lst = Coind("List", INFTY, (TyVar("B"),))
    nat = parse_type("Nat", reg)
    assert subst_type_sizes(lst, {}, {"B": nat}) == Coind("List", INFTY, (nat,))
    t = Forall("i", Coind("Strm", I, ()))
    assert subst_type_sizes(t, {"i": Succ(I)}) == t  # bound: no change
    assert subst_type_sizes(Coind("Strm", I, ()), {"i": SMin(J, K)}) == \
        Coind("Strm", SMin(J, K), ())


def test_subst_capture_avoidance():
    # substituting j+1 under forall j renames the binder
    t = Forall("j", Coind("Strm", SMin(I, J), ()))
    out = subst_type_sizes(t, {"i": Succ(J)})
    assert isinstance(out, Forall) and out.var != "j"
    assert alpha_eq(
        out, Forall("a", Coind("Strm", SMin(Succ(J), SVar("a")), ())))


def test_subst_type_sizes_puts_every_size_at_once():
    t = Forall("k", Coind("Strm", SMin(I, SMax(J, K)), ()))
    got = subst_type_sizes(t, {"i": J, "j": I})
    assert got == Forall("k", Coind("Strm", SMin(J, SMax(I, K)), ()))


def test_uniquify_renames_with_the_whole_renaming_at_once(streams):
    # the outer i becomes i_1, the name of the inner binder, which
    # becomes i_1_1: the annotation and the size argument follow the
    # outer binder only
    t = parse_term("/\\i. /\\i_1. \\x : Strm^i. tl [i] x", streams.registry)
    assert print_term(uniquify_size_binders(t, {"i"})) == \
        "/\\i_1. /\\i_1_1. \\x : Strm^i_1. tl [i_1] x"


def test_sizes_that_share_subtrees_compare_each_pair_once():
    # expanded, a0 is a DAG of n levels whose tree has 2^n leaves:
    # a_k = max(a_(k+1), a_(k+1)+1); two copies built apart compare in
    # time linear in n (before pairs were kept: 5 s at n = 22)
    n = 22
    u = {f"a{k}": SMax(SVar(f"a{k + 1}"), Succ(SVar(f"a{k + 1}")))
         for k in range(n)}
    a, b = expand(u, SVar("a0")), expand(u, SVar("a0"))
    assert a is not b and hash(a) == hash(b)
    start = time.perf_counter()
    assert a == b and not a != b
    assert a != expand(u, SVar("a1"))
    assert time.perf_counter() - start < 1.0


# -- printing round-trips -----------------------------------------------------------

def test_print_examples(streams):
    reg = streams.registry
    src = "forall i. Strm^(i+1) -> Strm^i"
    assert print_type(parse_type(src, reg)) == src
    assert print_size(INFTY) == "oo"
    assert print_size(Succ(Succ(ZERO))) == "2"
    t = parse_term("case s of { cons x t => t }", reg)
    assert print_term(t) == "case s of { cons x t => t }"


def test_roundtrip_sizes():
    rng = random.Random(1)
    for _ in range(400):
        s = rand_size(rng)
        assert parse_size(print_size(s)) == s


def test_roundtrip_types(trees):
    reg = trees.registry
    rng = random.Random(2)
    for _ in range(400):
        t = rand_type(rng, reg)
        assert parse_type(print_type(t), reg) == t


def test_roundtrip_terms(streams, sp, trees):
    for sf in (streams, sp, trees):
        for name, t in sf.bindings.items():
            assert alpha_eq(parse_term(print_term(t), sf.registry), t), name


def test_roundtrip_generated_terms(streams):
    from helpers import rand_term
    reg = streams.registry
    rng = random.Random(9)
    for _ in range(250):
        t = rand_term(rng, reg)
        back = parse_term(print_term(t), reg)
        assert alpha_eq(back, t), print_term(t)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_size("min(i,")
    assert e.value.line == 1 and e.value.col >= 6


# -- term well-formedness -------------------------------------------------------------

def test_check_term_wf(streams):
    reg = streams.registry
    t = parse_term("case zero of { succ => zero }", reg)
    diags = check_term_wf(t, reg)
    assert any("binds 0" in str(d) for d in diags)
    t2 = parse_term("\\x : Strm^(i+1). x", reg)
    assert not check_term_wf(t2, reg)


def test_case_duplicate_branch_rejected(streams):
    with pytest.raises(ParseError, match="duplicate case branch"):
        parse_term("case zero of { zero => zero; zero => zero }",
                   streams.registry)


def test_node_count():
    assert node_count(SMax(I, Succ(J))) == 4
    assert node_count(Arrow(TyVar("A"), Coind("Nat", ZERO, ()))) == 4


def test_long_definition_chain_validates():
    # each definition names the next one, defined below it
    n = 1500
    src = "\n".join(f"inductive D{k} {{ z{k} : D{k}; c{k} : D{k + 1} -> D{k} }}"
                    for k in range(n))
    src += f"\ninductive D{n} {{ z{n} : D{n} }}\n"
    reg = parse_defs(src)
    assert validate_registry(reg) == []
    assert reg.order == tuple(f"D{k}" for k in range(n, -1, -1))


# -- a run of successors is one node ------------------------------------------

def test_a_run_of_successors_is_one_node():
    for base in (ZERO, INFTY, I, SMin(I, Succ(J))):
        for n in (1, 2, 5, 1000):
            s = size_plus(base, n)
            assert type(s) is Succ and s.n == n and s.base is base
            assert list(nodes(s, into=(Succ,))) == [s, base]
            up, longer = Succ(s), size_plus(base, n + 1)
            assert up == longer and hash(up) == hash(longer)
            assert up.base is base and up.n == n + 1
            assert size_plus(s, 3).base is base
            assert size_plus(s, 3) == size_plus(base, n + 3)
            assert s.arg == size_plus(base, n - 1)
            assert size_plus(s, 0) is s
        assert size_plus(base, 1).arg is base


def _size_and_texts(rng, depth):
    """A random size with runs of up to MAX_SIZE_NUMERAL successors (the
    parser's limit), each built in one to three steps, and the repr and
    printed form expected of it, built alongside: (size, repr, printed)."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        s, text = rng.choice([(ZERO, "0"), (INFTY, "oo"), (I, "i"), (J, "j")])
        return s, text, text
    if r < 0.6:
        base, rep, printed = _size_and_texts(rng, 0) if rng.random() < 0.5 \
            else _min_max_and_texts(rng, depth - 1)
        s, n = base, 0
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3) if rng.random() < 0.9 \
                else round(10 ** rng.uniform(0, 6))
            k = min(k, MAX_SIZE_NUMERAL - n)
            if k:
                s = Succ(s) if k == 1 else size_plus(s, k)
                n += k
        if not n:
            return base, rep, printed
        return s, rep + "+1" * n, \
            str(n) if base is ZERO else f"{printed}+{n}"
    return _min_max_and_texts(rng, depth - 1)


def _min_max_and_texts(rng, depth):
    (a, ra, pa), (b, rb, pb) = (_size_and_texts(rng, depth) for _ in "ab")
    cls, op = rng.choice([(SMin, "min"), (SMax, "max")])
    return cls(a, b), f"{op}({ra},{rb})", f"{op}({pa}, {pb})"


def test_runs_repr_print_and_parse_as_written():
    rng = random.Random(17)
    long_runs = 0
    for k in range(3001):
        s, rep, printed = _size_and_texts(rng, 3) if k else (
            size_plus(I, MAX_SIZE_NUMERAL), "i" + "+1" * MAX_SIZE_NUMERAL,
            f"i+{MAX_SIZE_NUMERAL}")
        long_runs += "+1" * 1000 in rep
        assert repr(s) == rep
        assert print_size(s) == printed
        back = parse_size(printed)
        assert back == s and hash(back) == hash(s)
        assert print_size(back) == printed
    assert long_runs > 100


# -- public names -------------------------------------------------------------

def test_no_module_exports_one_object_under_two_names():
    import importlib
    import pkgutil

    import slam

    for info in pkgutil.iter_modules(slam.__path__):
        mod = importlib.import_module(f"slam.{info.name}")
        names: dict[int, str] = {}
        for name in getattr(mod, "__all__", ()):
            first = names.setdefault(id(getattr(mod, name)), name)
            assert first == name, (info.name, first, name)

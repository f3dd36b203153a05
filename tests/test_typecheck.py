import random
import re

from helpers import (
    CORPUS_DIR, EXTRA_TERMS, context_terms, corpus_terms, infer_state,
    link_all, linked_reference, rand_cnf, render_type_reference, subtype_of,
    supertype_of, truth_table_sat,
)
from slam import (
    App, Arrow, Branch, Case, Coind, Con, Forall, INFTY, ONE, SMax, SVar,
    SizeApp, SizeLam, Succ, TyVar, Var, ZERO, alpha_eq, node_count,
    parse_slam, parse_term, parse_type, print_type, subtype,
)
from slam.cli import _typing_problem, main
from slam.constraints import encode_3cnf
from slam.subtyping import BOT
from slam.typecheck import (
    _prettify, check, decompose_constructor_arg, infer, minimal_type,
)

I, J, K = SVar("i"), SVar("j"), SVar("k")


def _golden(sf, name, expected_src):
    reg = sf.registry
    got = minimal_type(reg, {}, linked_reference(sf, name))
    assert got is not None, name
    want = parse_type(expected_src, reg)
    assert alpha_eq(got, want), (name, got, want)


# -- golden typings -----------------------------------------------------------

def test_golden_tl_hd(streams):
    _golden(streams, "tl", "forall i. Strm^(i+1) -> Strm^i")
    _golden(streams, "hd", "forall i. Strm^(i+1) -> Nat")


def test_golden_streams(streams):
    _golden(streams, "zeros", "Strm")
    _golden(streams, "from", "Nat -> Strm")
    _golden(streams, "nats", "Strm")
    _golden(streams, "plus", "Nat -> Nat -> Nat")
    _golden(streams, "stuckstream", "Strm^0")


def test_golden_stream_processors(sp):
    _golden(sp, "odd", "SP")
    _golden(sp, "run", "SP -> Strm -> Strm")


def test_golden_cofix_size_zero(streams):
    reg = streams.registry
    t = parse_term("cofix[j] f : Strm^0 . f", reg)
    got = minimal_type(reg, {}, t)
    assert alpha_eq(got, parse_type("Strm^0", reg))


def test_constructor_sizes(streams):
    reg = streams.registry
    assert alpha_eq(minimal_type(reg, {}, Con("zero")),
                         Coind("Nat", ONE, ()))
    two = minimal_type(reg, {}, App(Con("succ"), Con("zero")))
    # empty max is 0, so zero : Nat^1 and succ zero : Nat^2
    assert alpha_eq(two, Coind("Nat", Succ(SMax(ONE, ONE)), ())) or \
        alpha_eq(two, Coind("Nat", Succ(ONE), ()))


def test_nullary_of_parameterised_def(trees):
    reg = trees.registry
    got = minimal_type(reg, {}, Con("nil"))
    assert got == Coind("List", ONE, (BOT,))


def test_untypable_terms(streams):
    reg = streams.registry
    assert minimal_type(reg, {}, streams.bindings["omega"]) is None
    trip = infer(reg, {}, streams.bindings["omega"])
    assert trip.failed and trip.trail
    # unsaturated constructor
    assert minimal_type(reg, {}, Con("succ")) is None
    # case on a non-recursive size-0 coinductive scrutinee
    t = parse_term("\\s : Strm^0. case s of { cons x t => x }", reg)
    assert minimal_type(reg, {}, t) is None


def test_non_decreasing_recursion_rejected(streams):
    reg = streams.registry
    bad = parse_term(
        "fix f : Nat -> Nat . \\a : Nat^(k+1). "
        "case a of { zero => zero; succ b => f (succ b) }", reg)
    assert minimal_type(reg, {}, bad) is None
    # recursion through the whole argument is just as bad
    bad2 = parse_term(
        "fix f : Nat -> Nat . \\a : Nat^(k+1). "
        "case a of { zero => zero; succ b => f a }", reg)
    assert minimal_type(reg, {}, bad2) is None
    # while the structurally decreasing variant is fine
    good = parse_term(
        "fix f : Nat -> Nat . \\a : Nat^(k+1). "
        "case a of { zero => zero; succ b => succ (f b) }", reg)
    assert alpha_eq(minimal_type(reg, {}, good),
                         parse_type("Nat -> Nat", reg))


def test_unguarded_corecursion_rejected(streams):
    reg = streams.registry
    # the body returns the recursive call bare: no new layer, no type
    bad = parse_term("cofix[j] z : Strm . z", reg)
    assert minimal_type(reg, {}, bad) is None
    # dropping a layer before producing one is also out
    bad2 = parse_term(
        "cofix[j] z : Strm . case z of { cons x t => cons x t }", reg)
    assert minimal_type(reg, {}, bad2) is None


# -- the failure sentinel ---------------------------------------------------------

def test_sentinel_triple(streams):
    reg = streams.registry
    trip = infer(reg, {}, Var("nope"))
    assert trip.failed and trip.tau is None
    assert (ONE, ZERO) in trip.pairs
    from slam.constraints import is_valid
    assert not is_valid(trip.constraint).valid


# -- decomposition -----------------------------------------------------------------

def test_decompose_examples(trees):
    reg = trees.registry
    # theta = Nat^1 against sigma = A for Nat
    dec = decompose_constructor_arg(reg, Coind("Nat", ONE, ()), TyVar("Nat"),
                                    "Nat")
    assert dec is not None and dec.size == ONE and dec.sigma_prime == TyVar("Nat")
    # theta = List^k(FTree^m) against sigma = List(A) for FTree
    theta = Coind("List", K, (Coind("FTree", SVar("m"), ()),))
    sigma = Coind("List", INFTY, (TyVar("FTree"),))
    dec = decompose_constructor_arg(reg, theta, sigma, "FTree")
    assert dec is not None
    assert dec.size == SVar("m") and dec.rec_params == ()
    assert dec.sigma_prime == Coind("List", K, (TyVar("FTree"),))
    # substituting the instance back reproduces theta
    from slam.syntax import subst_type_sizes
    assert subst_type_sizes(dec.sigma_prime, {},
                            {"FTree": Coind("FTree", SVar("m"), ())}) == theta
    # shape mismatch fails
    bad = Arrow(Coind("Nat", INFTY, ()), Coind("Nat", INFTY, ()))
    assert decompose_constructor_arg(reg, bad, TyVar("Nat"), "Nat") is None


def test_decompose_joins_repeated_occurrences(trees):
    reg = trees.registry
    # sigma mentioning B twice: both instances join
    sigma = Arrow(Coind("Nat", INFTY, ()),
                  Coind("List", INFTY, (TyVar("B"),)))
    # build the declared shape used by List's cons: (B, A)
    theta = Arrow(Coind("Nat", INFTY, ()),
                  Coind("List", ONE, (Coind("Nat", ONE, ()),)))
    dec = decompose_constructor_arg(reg, theta, sigma, "List")
    assert dec is not None
    assert dec.param_insts["B"] == Coind("Nat", ONE, ())


# -- checking ---------------------------------------------------------------------

def test_check_examples(streams):
    reg = streams.registry
    tl = streams.bindings["tl"]
    assert check(reg, {}, tl, parse_type("forall i. Strm^(i+1) -> Strm^i", reg))
    assert check(reg, {}, tl, parse_type("forall i. Strm^(i+2) -> Strm^i", reg))
    assert not check(reg, {}, tl, parse_type("Strm -> Strm", reg))
    assert not check(reg, {}, tl,
                     parse_type("forall i. Strm^i -> Strm^i", reg))


def test_check_hardness_judgment(streams):
    reg = streams.registry
    rng = random.Random(77)
    mu0 = Coind("Nat", ZERO, ())
    for _ in range(12):
        phi = rand_cnf(rng, max_vars=4, max_clauses=5)
        s1, s2 = encode_3cnf(phi)
        gamma = {"x": Coind("Strm", s1, ()),
                 "f": Arrow(Coind("Strm", Succ(s2), ()), mu0)}
        ok = check(reg, gamma, App(Var("f"), Var("x")), mu0)
        assert ok == (not truth_table_sat(phi))


# -- inference properties ------------------------------------------------------------

def test_soundness_on_corpus():
    # every typable corpus term checks against its own minimal type
    for label, reg, t in corpus_terms():
        m = minimal_type(reg, {}, t)
        if m is not None:
            assert check(reg, {}, t, m), label


def test_minimality_weakened_types_still_check():
    rng = random.Random(55)
    for label, reg, t in corpus_terms():
        m = minimal_type(reg, {}, t)
        if m is None or _has_bot(m):
            continue
        for _ in range(3):
            weaker = supertype_of(rng, m, reg)
            assert check(reg, {}, t, weaker), (label, weaker)


def _has_bot(t):
    if t is BOT:
        return True
    if isinstance(t, Coind):
        return any(_has_bot(p) for p in t.params)
    if isinstance(t, Arrow):
        return _has_bot(t.dom) or _has_bot(t.cod)
    if hasattr(t, "body"):
        return _has_bot(t.body)
    return False


def test_context_monotonicity():
    rng = random.Random(56)
    for label, reg, gamma, t in context_terms():
        m = minimal_type(reg, gamma, t)
        assert m is not None, label
        for _ in range(3):
            stronger = {x: subtype_of(rng, ty, reg)
                        for x, ty in gamma.items()}
            m2 = minimal_type(reg, stronger, t)
            assert m2 is not None, (label, stronger)
            assert subtype(m2, m, reg), (label, m2, m)


def test_inference_deterministic(sp):
    reg = sp.registry
    t = linked_reference(sp, "run")
    t1 = infer(reg, {}, t)
    t2 = infer(reg, {}, t)
    assert t1.u == t2.u and t1.pairs == t2.pairs
    assert alpha_eq(t1.tau, t2.tau)


def test_size_binder_shadowing_annotation_quantifier(streams):
    # a size-lambda binder written with the same name as a quantifier
    # inside an annotation must not alias it
    reg = streams.registry
    t = parse_term("\\x : (forall i. Nat^i -> Nat^i). /\\i. x [i+1]", reg)
    got = minimal_type(reg, {}, t)
    want = parse_type(
        "(forall i. Nat^i -> Nat^i) -> forall j. Nat^(j+1) -> Nat^(j+1)", reg)
    assert got is not None and alpha_eq(got, want), got


def test_nested_shadowed_size_lambdas(streams):
    reg = streams.registry
    t = parse_term("/\\i. /\\i. \\s : Strm^i. s", reg)
    got = minimal_type(reg, {}, t)
    want = parse_type("forall j. forall i. Strm^i -> Strm^i", reg)
    assert got is not None and alpha_eq(got, want), got


def test_shadowing_binder_cannot_capture_context_variable(streams):
    # the inner size-lambda shadows the free i of s's annotation; the
    # generalized variable is fresh, so the application must hold for
    # every value of it and fails
    reg = streams.registry
    t = parse_term(
        "\\f : (forall a. Strm^a -> Nat). \\s : Strm^(i+1). /\\i. f [i] s",
        reg)
    assert minimal_type(reg, {}, t) is None
    # without shadowing the same application is fine
    t2 = parse_term(
        "\\f : (forall a. Strm^a -> Nat). \\s : Strm^(i+1). f [i+1] s", reg)
    assert minimal_type(reg, {}, t2) is not None


# -- shared size expressions stay small ------------------------------------------------


def _triple_nodes(trip):
    total = node_count(trip.tau) if trip.tau is not None else 0
    for i, s in trip.u.items():
        total += 1 + node_count(s)
    for a, b in trip.pairs:
        total += node_count(a) + node_count(b)
    return total


def quantifier_family_sizes(reg, gamma, n_max):
    # t_0 = f, t_{k+1} = (size-gen i) (t_k applied to size max(i,i))
    sizes = []
    t = Var("f")
    for n in range(1, n_max + 1):
        t = SizeLam("i", SizeApp(t, SMax(I, I)))
        sizes.append(_triple_nodes(infer(reg, gamma, t)))
    return sizes


def nested_case_family_sizes(reg, n_max):
    from slam import size_const

    sizes = []
    t = Var("x")
    gamma = {"x": Coind("M", size_const(n_max), ())}
    for n in range(1, n_max + 1):
        t = Case(t, (Branch("c1", ("y",), Var("y")),
                     Branch("c2", ("y",), Var("y"))))
        sizes.append(_triple_nodes(infer(reg, gamma, t)))
    return sizes


def test_no_blowup_quantifier_family(streams):
    reg = streams.registry
    gamma = {"f": parse_type("forall a. Nat^a -> Nat^a", reg)}
    sizes = quantifier_family_sizes(reg, gamma, 20)
    diffs = [b - a for a, b in zip(sizes, sizes[1:])]
    assert max(diffs) == min(diffs), sizes  # exactly linear growth
    assert sizes[-1] <= 40 * 20


def test_no_blowup_nested_case_family():
    from slam import parse_defs, validate_registry

    reg = parse_defs("inductive M { c1 : M -> M; c2 : M -> M }")
    assert not validate_registry(reg)
    sizes = nested_case_family_sizes(reg, 20)
    diffs = [b - a for a, b in zip(sizes, sizes[1:])]
    # increments stabilise to a constant after the first level
    assert max(diffs[2:]) == min(diffs[2:]), sizes
    assert sizes[-1] <= 60 * 20


def test_memory_linear_in_binder_depth(streams):
    # the context is extended and restored in place, so a chain of n
    # binders keeps one context alive, not one per binder
    import tracemalloc

    reg = streams.registry
    peaks = []
    for n in (1500, 3000):
        t = parse_term("".join(f"\\x{k} : Nat. " for k in range(n)) + "x0",
                       reg)
        tracemalloc.start()
        try:
            assert minimal_type(reg, {}, t) is not None, n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0], peaks


def test_fix_reused_after_linking(streams):
    # linking duplicates the fix body, and with it the free size variable
    # its lambda annotation names; both copies must recover their premise
    reg = streams.registry
    t = parse_term("plus (plus (succ zero) zero) (succ zero)", reg)
    from slam import subst_term
    t = subst_term(t, linked_reference(streams, "plus"), "plus")
    m = minimal_type(reg, {}, t)
    assert m is not None and alpha_eq(m, parse_type("Nat", reg))


def test_fix_premise_variable_not_free_in_context(streams):
    # when the annotation's peel variable already occurs in the context
    # the premise cannot legally pick it, and the recursion fails
    reg = streams.registry
    t = parse_term(
        "\\g : Nat^k -> Nat. fix f : Nat -> Nat . \\a : Nat^(k+1). "
        "case a of { zero => zero; succ b => f b }", reg)
    assert minimal_type(reg, {}, t) is None
    # renaming the annotation variable apart restores typability
    t2 = parse_term(
        "\\g : Nat^k -> Nat. fix f : Nat -> Nat . \\a : Nat^(k2+1). "
        "case a of { zero => zero; succ b => f b }", reg)
    assert minimal_type(reg, {}, t2) is not None


def test_instantiation_specializes_type_not_inequalities(streams):
    # the quantified body's inequalities mention the bound variable; the
    # instantiated type must see the concrete size while the inequalities
    # stay universally quantified
    reg = streams.registry
    from slam import subst_term
    gamma = {"g": parse_type("forall a. Strm^a -> Strm^a", reg)}
    t = parse_term("(/\\i. \\w : Strm^(i+1). g [i] (tl [i] w)) [5]", reg)
    t = subst_term(t, linked_reference(streams, "tl"), "tl")
    m = minimal_type(reg, gamma, t)
    assert m is not None
    assert alpha_eq(m, parse_type("Strm^6 -> Strm^5", reg))
    # a body that only types for i >= 1 is not rescued by instantiating
    # the quantifier at 5: generalization demands every i
    bad = parse_term(
        "(/\\i. (\\f : Strm^(i+1) -> Nat. f) (\\s : Strm^2. zero)) [5]", reg)
    assert minimal_type(reg, {}, bad) is None


def test_context_quantifier_instantiated_twice(streams):
    # context types are reused; each size application renames the
    # quantifier apart before recording its instantiation
    reg = streams.registry
    gamma = {"g": parse_type("forall a. Nat^a -> Nat^a", reg)}
    t = parse_term("g [2] (g [1] zero)", reg)
    m = minimal_type(reg, gamma, t)
    assert m is not None and alpha_eq(m, parse_type("Nat^2", reg))
    # incompatible double use is still caught
    bad = parse_term("g [1] (g [2] (succ zero))", reg)
    assert minimal_type(reg, gamma, bad) is None


def test_context_quantifier_named_like_term_binder(streams):
    # a context quantifier and a size binder of the term that share a
    # name are different variables: instantiating the context's must not
    # bind the term's
    reg = streams.registry
    gamma = {"tl": parse_type("forall i. Strm^(i+1) -> Strm^i", reg),
             "zs": parse_type("Strm", reg)}
    for size in ("1", "oo"):
        t = parse_term(f"(\\p : Strm^{size}. /\\i. \\x : Nat^i. x) "
                       f"(tl [{size}] zs)", reg)
        m = minimal_type(reg, gamma, t)
        assert m is not None, size
        assert alpha_eq(m, parse_type("forall i. Nat^i -> Nat^i", reg))


def test_case_bound_quantified_variable_reused(trees):
    reg = trees.registry
    gamma = {"hs": parse_type("List^(k+1)(forall i. Nat^(i+1) -> Nat^i)", reg)}
    t = parse_term(
        "case hs of { nil => zero; "
        "cons h t => h [1] (h [2] (succ (succ zero))) }", reg)
    m = minimal_type(reg, gamma, t)
    assert m is not None
    assert subtype(m, parse_type("Nat^1", reg), reg)


# -- file bindings typed once, in the context ------------------------------------

CHAIN = ["d0 = succ zero;"] + [f"d{k} = plus d{k - 1} d{k - 1};"
                               for k in range(1, 9)]


SHADOW = ["g = (\\p : Strm^1. /\\i. \\x : Nat^i. x) (tl [1] zeros);",
          "h = /\\i. tl;", "h2 = /\\i. h;",
          "h3 = /\\j. \\x : Nat^j. h2 [j];"]


def _bindings_file(tmp_path, name, bindings):
    f = tmp_path / name
    f.write_text((CORPUS_DIR / "streams.slam").read_text() + "\n"
                 + "".join(f"{b}\n" for b in bindings))
    return f


def _reversed_file(tmp_path, name):
    """A copy of a corpus file with its bindings in reverse order, so
    every reference between bindings points forward."""
    src = (CORPUS_DIR / name).read_text()
    starts = [m.start() for m in re.finditer(r"^\w+ *=", src, re.M)]
    chunks = [src[a:b] for a, b in zip(starts, starts[1:] + [len(src)])]
    f = tmp_path / f"reversed_{name}"
    f.write_text(src[:starts[0]] + "".join(reversed(chunks)))
    bindings = parse_slam(src).bindings
    assert list(parse_slam(f.read_text()).bindings.items()) == \
        list(reversed(bindings.items()))
    return f


def test_context_typing_matches_inlining(tmp_path, capsys):
    # infer and check type the bindings a query reaches once and keep
    # them in the context; the answer must be the one the query gets
    # with every binding linked in
    chain = _bindings_file(tmp_path, "chain.slam", CHAIN)
    forward = _bindings_file(tmp_path, "forward.slam",
                             ["f = g;", "g = succ zero;", "h = plus f g;"])
    # bindings whose size binders share a name with a context quantifier
    shadow = _bindings_file(tmp_path, "shadow.slam", SHADOW)
    streams, sp = CORPUS_DIR / "streams.slam", CORPUS_DIR / "sp.slam"
    queries = [(CORPUS_DIR / f"{f}.slam", name)
               for f in ("streams", "sp", "trees")
               for name in parse_slam((CORPUS_DIR / f"{f}.slam")
                                      .read_text()).bindings]
    queries += [(CORPUS_DIR / f"{f}.slam", src) for f, src in EXTRA_TERMS]
    queries += [(chain, f"d{k}") for k in range(9)]
    queries += [(streams, "\\g : Nat^k -> Nat. plus"), (streams, "/\\k. plus"),
                (sp, "runi"), (sp, "run odd nats"), (forward, "f"),
                (forward, "h"), (shadow, "g"), (shadow, "h"),
                (shadow, "h2"), (shadow, "/\\i. h"), (shadow, "/\\i. h2")]
    # query size binders beside context quantifiers of the same name
    queries += [(streams, src) for src in (
        "(\\p : Strm^1. /\\i. \\x : Nat^i. x) (tl [1] zeros)",
        "(\\p : Strm^oo. /\\i. \\x : Nat^i. x) (tl [oo] zeros)",
        "(\\p : Strm^1. /\\i. /\\i. \\x : Nat^i. x) (tl [1] zeros)",
        "/\\i. tl", "\\s : Strm^i. tl", "/\\i. /\\i. tl",
        "/\\i_1. /\\i. tl")]
    # every reference points forward: runi is still inlined into run
    reversed_of = {_reversed_file(tmp_path, f"{f}.slam"): CORPUS_DIR
                   / f"{f}.slam" for f in ("sp", "trees")}
    queries += [(path, name) for path, orig in reversed_of.items()
                for name in parse_slam(orig.read_text()).bindings]
    for path, src in queries:
        # linked in the file order of the corpus file, where every
        # reference points back
        sf = parse_slam(reversed_of.get(path, path).read_text())
        reg = sf.registry
        m = minimal_type(reg, {}, link_all(sf, parse_term(src, reg)))
        code = main(["infer", str(path), src])
        want = (1, "untypable\n") if m is None \
            else (0, render_type_reference(m) + "\n")
        assert (code, capsys.readouterr().out) == want, (path.name, src)
        types = ["Nat", "Nat^1"]
        if m is not None and "_|_" not in want[1]:
            types.append(want[1].strip())
        for ty in types:
            ok = m is not None and subtype(m, parse_type(ty, reg), reg)
            code = main(["check", str(path), src, ":", ty])
            assert (code, capsys.readouterr().out) == \
                ((0, "yes\n") if ok else (1, "no\n")), (path.name, src, ty)


def test_context_typing_names_quantifiers_apart(tmp_path, capsys):
    # a quantifier of a context type is renamed apart from the query's
    # size variables and from the type's other quantifiers; its suffix
    # can differ from full linking's, which also counts binders that
    # were instantiated inside the binding (here h2's)
    path = _bindings_file(tmp_path, "shadow.slam", SHADOW)
    sf = parse_slam(path.read_text())
    src = "\\x : Nat^i. h3"
    assert main(["infer", str(path), src]) == 0
    out = capsys.readouterr().out
    assert out == ("Nat^i -> forall j. Nat^j -> forall i_1. forall i_2. "
                   "Strm^(i_2+1) -> Strm^i_2\n")
    reg = sf.registry
    m = minimal_type(reg, {}, link_all(sf, parse_term(src, reg)))
    assert alpha_eq(parse_type(out, reg), m)


def test_context_typing_keeps_capturing_bindings_inlined(tmp_path):
    chain = _bindings_file(tmp_path, "chain.slam", CHAIN)
    gamma, q = _typing_problem(parse_slam(chain.read_text()), "d8")
    assert set(gamma) == {"d8"} and q == Var("d8")
    streams = parse_slam((CORPUS_DIR / "streams.slam").read_text())
    # plus's annotation variable k would be captured or shared
    for src in ("\\g : Nat^k -> Nat. plus", "/\\k. plus"):
        gamma, _ = _typing_problem(streams, src)
        assert "plus" not in gamma, src
    # runi's j is meant to be bound by run's cofix[j]
    sp = parse_slam((CORPUS_DIR / "sp.slam").read_text())
    gamma, _ = _typing_problem(sp, "run odd nats")
    assert "runi" not in gamma and {"run", "odd", "nats"} <= set(gamma)
    # and so it is when run comes first in the file
    rsp = parse_slam(_reversed_file(tmp_path, "sp.slam").read_text())
    assert _typing_problem(rsp, "run odd nats")[0] == gamma


def test_prettify_keeps_an_inner_user_binder_name():
    # a machine binder's nice name avoids every forall binder of the
    # type, so the user's inner `i` is not renamed by the capture check
    t = Forall("$b1", Forall("i", Coind("Nat", SVar("$b1"), ())))
    assert print_type(_prettify(t)) == "forall j. forall i. Nat^j"


# Typing paths no other test or sweep command runs: `fresh_binder`, the
# forall branch of `decompose` and its join of several recursive
# instances, `_overline_u`'s fallback through `_expand_superfluous`,
# `fix_rule`'s leading foralls and `_premise_var`'s loop over them, and
# `_align` aliasing a linear second binder
PATH_DEFS = """inductive P(A, B) { mk : A -> B -> P(A, B) }
coinductive PT { pt : P(PT, PT) -> PT }
coinductive HT { hn : (forall i. Nat^i -> HT) -> HT }
coinductive GT(A) { gn : (forall i. Nat^i -> A) -> GT(A) }
"""
PATH_PROBES = [
    ("\\g : forall k. Nat^k -> Nat^k. (\\f : forall i. Nat^i -> Nat^i. f) g",
     "(forall k. Nat^k -> Nat^k) -> forall i. Nat^i -> Nat^i"),
    ("/\\i. \\s : Strm^(i+2). case s of { cons x t => "
     "case t of { cons y u => u } }", "forall i. Strm^(i+2) -> Strm^i"),
    ("fix f : forall i. Nat -> Strm^i -> Strm^i . /\\i. \\n : Nat^(k+1). "
     "\\s : Strm^i. case n of { zero => s; succ m => f [i] m s }",
     "forall i. Nat -> Strm^i -> Strm^i"),
    ("cofix[j] x : PT . pt (mk x x)", "PT"),
    ("cofix[j] t : HT . hn (/\\i. \\n : Nat^i. t)", "HT"),
    ("gn (/\\i. \\n : Nat^i. zero)", "GT(Nat^1)"),
    ("\\n : Nat. case n of { zero => /\\i. \\x : Nat^i. x; "
     "succ m => /\\j. \\y : Nat^j. y }", "Nat -> forall i. Nat^i -> Nat^i"),
    ("\\n : Nat. case n of { zero => \\f : forall i. Nat^i -> Nat^i. f; "
     "succ m => \\g : forall j. Nat^j -> Nat^j. g }",
     "Nat -> (forall i. Nat^i -> Nat^i) -> forall j. Nat^j -> Nat^j"),
]


def test_rarely_taken_typing_paths():
    # each probe prints its minimal type, checks against it, and infers
    # the same state with the iterative rules as with the recursive ones
    with open(CORPUS_DIR / "streams.slam") as f:
        reg = parse_slam(PATH_DEFS + f.read()).registry
    for src, want in PATH_PROBES:
        t = parse_term(src, reg)
        assert print_type(minimal_type(reg, {}, t)) == want, src
        assert check(reg, {}, t, parse_type(want, reg)), src
        assert infer_state(reg, {}, t, recursive=False) == \
            infer_state(reg, {}, t, recursive=True), src


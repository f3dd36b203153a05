import random
import re
import sys
import time

from helpers import (
    CORPUS_DIR, EXTRA_TERMS, context_terms, corpus_terms, infer_state,
    link_all, linked_reference, load, rand_cnf, rand_term, rand_type,
    render_type_reference, subtype_of, supertype_of, truth_table_sat,
)
from slam import (
    App, Arrow, Branch, Case, Coind, Con, Forall, INFTY, ONE, SMax, SMin,
    SVar, SizeApp, SizeLam, Succ, TyVar, Var, ZERO, alpha_eq, fsv, node_count,
    parse_slam, parse_term, parse_type, print_type, subst_type_sizes, subtype,
)
from slam.cli import _typing_problem, main
from slam.constraints import encode_3cnf
from slam.subtyping import BOT
from slam.syntax import forall_binders, size_names
from slam.typecheck import _Infer, _prettify, check, infer, minimal_type

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
    # theta = Nat^1 against sigma = A for Nat: no pair at a bare variable
    nat1 = Coind("Nat", ONE, ())
    assert _Infer(reg).decompose(nat1, TyVar("Nat"), "Nat") == \
        ({"Nat": nat1}, [])
    # theta = List^k(FTree^m) against sigma = List(A) for FTree: the
    # instance is read at the hole, and List^k <= List^oo is the one pair
    ftree = Coind("FTree", SVar("m"), ())
    theta = Coind("List", K, (ftree,))
    sigma = Coind("List", INFTY, (TyVar("FTree"),))
    assert _Infer(reg).decompose(theta, sigma, "FTree") == \
        ({"FTree": ftree}, [(K, INFTY)])
    # shape mismatch fails
    bad = Arrow(Coind("Nat", INFTY, ()), Coind("Nat", INFTY, ()))
    assert _Infer(reg).decompose(bad, TyVar("Nat"), "Nat") is None


def test_decompose_joins_repeated_occurrences(trees):
    reg = trees.registry
    # the instance of B is read in List's cons shape (B, A)
    sigma = Arrow(Coind("Nat", INFTY, ()),
                  Coind("List", INFTY, (TyVar("B"),)))
    theta = Arrow(Coind("Nat", INFTY, ()),
                  Coind("List", ONE, (Coind("Nat", ONE, ()),)))
    assert _Infer(reg).decompose(theta, sigma, "List") == \
        ({"B": Coind("Nat", ONE, ())}, [(INFTY, INFTY), (ONE, INFTY)])
    # PT's shape P(PT, PT) mentions the recursive variable twice: both
    # instances join, at the least of their sizes since PT is coinductive
    reg = _path_registry()
    theta = Coind("P", ONE, (Coind("PT", J, ()), Coind("PT", K, ())))
    sigma = Coind("P", INFTY, (TyVar("PT"), TyVar("PT")))
    assert _Infer(reg).decompose(theta, sigma, "PT") == \
        ({"PT": Coind("PT", SMin(J, K), ())}, [(ONE, INFTY)])


def test_decompose_fails_at_a_closed_mismatch(trees):
    # a closed position is related by the same walk as the holes, so a
    # mismatch there fails the match; Bot at an open position that is no
    # hole is below every type and fits
    reg = trees.registry
    sigma = Arrow(Coind("Nat", INFTY, ()), TyVar("Tree"))
    bad = Arrow(Coind("List", INFTY, (Coind("Nat", INFTY, ()),)),
                Coind("Tree", ONE, ()))
    assert _Infer(reg).decompose(bad, sigma, "Tree") is None
    assert _Infer(reg).decompose(BOT, sigma, "Tree") == ({}, [])


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


def _lines_run(fn, *args):
    """fn(*args) and the number of Python lines it ran: a measure of
    work that, unlike time, does not depend on the load of the host."""
    count = 0

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line)
    try:
        return fn(*args), count
    finally:
        sys.settrace(before)


def test_size_binders_cost_linear_in_their_number(streams):
    # renaming makes each /\ binder fresh, so no rule reads the context
    # for it, and renaming resumes each name's suffixes where it stopped:
    # a chain of n `/\i. \x : Nat^i.` pairs types in linear time, whether
    # its binders have n names or one
    reg = streams.registry
    for name in ("i{}", "i"):
        chains = {n: parse_term("".join(
            f"/\\{name.format(k)}. \\x{k} : Nat^{name.format(k)}. "
            for k in range(n)) + "x0", reg) for n in (1000, 2000)}
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert not infer(reg, {}, chains[2000]).failed
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.5, (name, seconds)
        work = [_lines_run(infer, reg, {}, chains[n])[1] for n in (1000, 2000)]
        assert work[1] <= 2.5 * work[0], (name, work)


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


def test_fix_premise_needs_a_peeled_domain_of_the_recursive_type(trees):
    # the premise names k only for a domain d^(k+1) of the annotation's
    # type d: an undecorated domain, a constant size or another inductive
    # type leave the fix's size undefined in U
    reg = trees.registry
    for src, typable in [
            ("fix f : Nat -> Nat . \\n : Nat. zero", True),
            ("fix f : Nat -> Nat . \\n : Nat. f n", False),
            ("fix f : Nat -> Nat . \\n : Nat^1. zero", False),
            ("fix f : Nat -> Nat . \\l : List^(k+1)(Nat). zero", False)]:
        t = parse_term(src, reg)
        trip = infer(reg, {}, t)
        assert not trip.failed and trip.u == {}, src
        assert (minimal_type(reg, {}, t) is not None) == typable, src


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


# f's quantifier, spelled as the term's free i, must not capture it: the
# result is forall k. Nat^k -> Nat^(max(k, i)) however f spells it
SPELLING_PROBE = ("\\x : Nat^i. \\b : Nat. case b of { zero => f; "
                  "succ m => /\\j. \\y : Nat^j. x }")


def _respellings(ty, names):
    """ty with one forall binder spelled as one of names, for each forall
    and each name; a spelling that captures is no alpha-variant of ty."""
    if isinstance(ty, Forall):
        for n in names:
            yield Forall(n, subst_type_sizes(ty.body, {ty.var: SVar(n)}))
        yield from (Forall(ty.var, b) for b in _respellings(ty.body, names))
    elif isinstance(ty, Arrow):
        yield from (Arrow(d, ty.cod) for d in _respellings(ty.dom, names))
        yield from (Arrow(ty.dom, c) for c in _respellings(ty.cod, names))
    elif isinstance(ty, Coind):
        for k, p in enumerate(ty.params):
            for q in _respellings(p, names):
                yield Coind(ty.defname, ty.size,
                            ty.params[:k] + (q,) + ty.params[k + 1:])


def test_verdicts_do_not_depend_on_context_quantifier_names():
    # each quantifier of a context entry the term refers to is respelled
    # as each size name of the term and as a fresh one: every spelling
    # gives the same minimal type and the same check verdicts
    rng = random.Random(30)
    reg = load("streams").registry
    problems = [(reg, {"f": parse_type("forall k. Nat^k -> Nat^k", reg)},
                 parse_term(SPELLING_PROBE, reg),
                 [parse_type("Nat^i -> Nat -> forall k. Nat^k -> Nat^k",
                             reg)])]
    problems += [(r, gamma, t, []) for _, r, gamma, t in context_terms()
                 if any(forall_binders(gamma[x]) for x in t.fv & gamma.keys())]
    while len(problems) < 200:
        gamma = {x: rand_type(rng, reg, 3) for x in ("f", "g")}
        t = rand_term(rng, reg, 3, bound=("f", "g"))
        if fsv(t) and any(forall_binders(gamma[x])
                          for x in t.fv & gamma.keys()):
            problems.append((reg, gamma, t, []))
    typed = 0
    for reg, gamma, t, types in problems:
        names = sorted(size_names(t)) + ["z"]
        spellings = [gamma] + [
            {**gamma, x: v} for x in sorted(t.fv & gamma.keys())
            for v in _respellings(gamma[x], names) if alpha_eq(v, gamma[x])]
        m = minimal_type(reg, gamma, t)
        for g in spellings[1:]:
            m2 = minimal_type(reg, g, t)
            assert (m2 is None) == (m is None) and \
                (m is None or alpha_eq(m2, m)), (g, t, m, m2)
        typed += m is not None
        for ty in types + ([m] if m is not None else []):
            assert len({check(reg, g, t, ty) for g in spellings}) == 1, \
                (gamma, t, ty)
    assert typed >= 10


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
# `_align` renaming two owned binders
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


def _path_registry():
    with open(CORPUS_DIR / "streams.slam") as f:
        return parse_slam(PATH_DEFS + f.read()).registry


def test_rarely_taken_typing_paths():
    # each probe prints its minimal type, checks against it, and infers
    # the same state with the iterative rules as with the recursive ones
    reg = _path_registry()
    for src, want in PATH_PROBES:
        t = parse_term(src, reg)
        assert print_type(minimal_type(reg, {}, t)) == want, src
        assert check(reg, {}, t, parse_type(want, reg)), src
        assert infer_state(reg, {}, t, recursive=False) == \
            infer_state(reg, {}, t, recursive=True), src



def _calls_of(fn, target, *args):
    """fn(*args) and the number of calls of the function `target` it
    made, however the caller names it."""
    code, count = target.__code__, 0

    def call(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is code

    before = sys.getprofile()
    sys.setprofile(call)
    try:
        return fn(*args), count
    finally:
        sys.setprofile(before)


def test_each_quantifier_of_a_declared_shape_is_aligned_once():
    # an argument is matched against a quantified declared shape by one
    # subtyping walk, which aligns the shape's quantifier once
    from slam.subtyping import _align

    reg = _path_registry()
    for src in ("cofix[j] t : HT . hn (/\\i. \\n : Nat^i. t)",
                "gn (/\\i. \\n : Nat^i. zero)",
                "gn (/\\k. \\n : Nat^k. n)"):
        trip, aligned = _calls_of(infer, _align, reg, {}, parse_term(src, reg))
        assert not trip.failed and aligned == 1, (src, aligned)


def test_nested_instantiations_cost_linear_in_their_number(streams):
    # U's reverse index is kept as U grows, so opening a quantifier reads
    # the slice of U that depends on it, not all of U: n nested
    # `(/\i. \x : Nat^i. x) [oo] (...)` make a number of `sv` calls
    # linear in n
    from slam import syntax

    reg = streams.registry
    work = []
    for n in (250, 500):
        src = "zero"
        for _ in range(n):
            src = f"(/\\i. \\x : Nat^i. x) [oo] ({src})"
        trip, calls = _calls_of(infer, syntax.sv, reg, {},
                                parse_term(src, reg))
        assert not trip.failed, n
        work.append(calls)
    assert work[1] <= 2.5 * work[0], work


# -- bound size variables stay in their scope ---------------------------------

def test_an_instance_under_a_shape_quantifier_does_not_escape():
    # the instance of A read under `forall i.` of gn's shape may mention
    # the aligned binder; it is then bounded (Nat^i at a positive
    # position becomes Nat^oo), never returned with the binder free
    reg = _path_registry()
    for src, want in [
            ("/\\i. \\m : Nat^i. gn (/\\k. \\n : Nat^k. n)",
             "forall i. Nat^i -> GT(Nat)"),
            ("gn (/\\k. \\n : Nat^k. n)", "GT(Nat)"),
            ("\\g : forall i. Nat^i -> Nat^i. gn g",
             "(forall i. Nat^i -> Nat^i) -> GT(Nat)"),
            ("\\m : Nat^i. gn (/\\k. \\n : Nat^k. m)", "Nat^i -> GT(Nat^i)"),
            # a negative position of an inductive type and a positive one
            # of a coinductive type take 0, and a forall of the instance
            # that binds i again keeps its own
            ("\\g : forall i. Nat^i -> Strm^i. gn g",
             "(forall i. Nat^i -> Strm^i) -> GT(Strm^0)"),
            ("\\g : forall i. Nat^i -> Nat^(i+1) -> Nat^i. gn g",
             "(forall i. Nat^i -> Nat^(i+1) -> Nat^i) -> GT(Nat^1 -> Nat)"),
            ("\\g : forall i. Nat^i -> Nat^i -> forall i. Nat^i. gn g",
             "(forall i. Nat^i -> Nat^i -> forall i. Nat^i) -> "
             "GT(Nat^0 -> forall i. Nat^i)")]:
        t = parse_term(src, reg)
        assert print_type(minimal_type(reg, {}, t)) == want, src
        assert check(reg, {}, t, parse_type(want, reg)), src
    g = parse_term("/\\i. \\m : Nat^i. gn (/\\k. \\n : Nat^k. n)", reg)
    assert not check(reg, {}, g, parse_type(
        "forall i. Nat^i -> GT(Nat^i)", reg))


def test_a_join_keeps_a_plain_binder_name_to_itself(streams):
    # joining a /\i (owned) with f's plain `forall j` aliases i to a
    # fresh binder, so instantiating j later reaches what U routes
    # through i; aliasing i to the shared name j would leave j free
    reg = streams.registry
    gamma = {"f": parse_type("forall j. Nat^j -> Nat^j", reg),
             "b": parse_type("Nat", reg)}
    t = parse_term("(case b of { zero => /\\i. \\x : Nat^i. x; "
                   "succ m => f }) [2]", reg)
    assert print_type(minimal_type(reg, gamma, t)) == "Nat^2 -> Nat^2"


def test_a_shape_binder_is_apart_from_a_term_binder_of_its_name():
    # mk's first argument leaves the term's /\i owned; gn's shape binds
    # its own i, which aliased through U as if it were that one would
    # make U cyclic or leave the first type's i free
    reg = _path_registry()
    t = parse_term("mk (/\\i. \\y : Nat^i. y) (gn (/\\k. \\n : Nat^k. n))",
                   reg)
    want = "P^1(forall i. Nat^i -> Nat^i, GT(Nat))"
    assert print_type(minimal_type(reg, {}, t)) == want
    assert check(reg, {}, t, parse_type(want, reg))


def test_a_quantifier_stored_in_a_pair_is_opened_at_each_use():
    # F's quantifier enters the context with f, so each use of f opens
    # it on a copy of U: an application leaves the stored type as it
    # was, and a second application sees its own size, not the first's
    reg = _path_registry()
    F = "/\\i. \\x : Nat^i. case x of { zero => zero; succ m => m }"
    for body, want in [
            ("mk (f [2] (succ zero)) f",
             "P^1(Nat^2, forall i. Nat^i -> Nat^(max(1, i)))"),
            ("mk (f [2] (succ zero)) (f [1] zero)", "P^1(Nat^2, Nat^1)")]:
        t = parse_term(f"case mk ({F}) zero of {{ mk f y => {body} }}", reg)
        assert print_type(minimal_type(reg, {}, t)) == want, body
        assert infer_state(reg, {}, t, recursive=False) == \
            infer_state(reg, {}, t, recursive=True), body


def test_a_case_binder_shape_is_apart_from_the_sizes_u_mentions():
    # g gets the shape's `forall i` over a size that U defines through
    # the term's own i (a peeled scrutinee, a parameter, or an owned
    # binder bound to i later); opening the shape's i must not copy that
    # slice of U, which would read the term's i as 3 or 5
    reg = _path_registry()
    for src, want, wrong in [
            ("/\\i. \\h : HT^(i+1). case h of { hn g => g [3] zero }",
             "forall i. HT^(i+1) -> HT^i", "forall i. HT^(i+1) -> HT^3"),
            ("/\\i. \\h : HT^(i+1). (/\\j. \\k : HT^(j+1). "
             "case k of { hn g => g }) [i] h [5] zero",
             "forall i. HT^(i+1) -> HT^i", "forall i. HT^(i+1) -> HT^5"),
            ("/\\i. \\x : Nat^(i+1). case x of { succ m => "
             "case gn (/\\k. \\n : Nat^k. m) of { gn g => g [3] zero } }",
             "forall i. Nat^(i+1) -> Nat^i", "forall i. Nat^(i+1) -> Nat^3"),
            ("\\x : Nat^i. case x of { succ m => "
             "case gn (/\\k. \\n : Nat^k. m) of { gn g => g [3] zero } }",
             "Nat^i -> Nat^i", "Nat^i -> Nat^3")]:
        t = parse_term(src, reg)
        assert print_type(minimal_type(reg, {}, t)) == want, src
        assert not check(reg, {}, t, parse_type(wrong, reg)), src
        assert infer_state(reg, {}, t, recursive=False) == \
            infer_state(reg, {}, t, recursive=True), src


def test_declared_shape_spelling_does_not_matter():
    # a declared shape is closed: each time a case binder or a
    # constructor argument opens it, its quantifier takes a fresh name,
    # so no printed type depends on how the definition spells it
    probes = ["/\\i. \\h : HT^(i+1). case h of { hn g => g }",
              "\\h : HT. case h of { hn g => g }",
              "\\h : GT(Nat). case h of { gn g => g }",
              "/\\j. \\x : Nat^j. case gn (/\\k. \\n : Nat^k. x) of "
              "{ gn g => g }"]
    streams = (CORPUS_DIR / "streams.slam").read_text()
    printed = {}
    for v in "ikj":
        defs = PATH_DEFS.replace("forall i. Nat^i", f"forall {v}. Nat^{v}")
        assert defs.count(f"forall {v}. Nat^{v}") == 2
        reg = parse_slam(defs + streams).registry
        for src in probes:
            t = parse_term(src, reg)
            got = print_type(minimal_type(reg, {}, t))
            assert printed.setdefault(src, got) == got, (v, src)
            assert check(reg, {}, t, parse_type(got, reg)), (v, src)
    assert printed[probes[0]] == "forall i. HT^(i+1) -> forall j. Nat^j -> HT^i"
    assert printed[probes[3]] == "forall j. Nat^j -> forall i. Nat^i -> Nat^j"


def test_quantifier_free_and_bare_shapes_take_no_walk(streams, trees):
    # a shape with no quantifier is used as it is, never renamed; and an
    # argument at a bare-variable position is matched without the
    # subtyping walk or a join
    from slam import subtyping, syntax

    for reg, src in [
            (streams.registry, "\\s : Strm. " + "cons zero (" * 200 + "s"
             + ")" * 200),
            (trees.registry, "\\t : FTree. " + "fnode zero (cons (" * 200
             + "t" + ") nil)" * 200)]:
        trip, calls = _calls_of(infer, syntax.subst_type_sizes,
                                reg, {}, parse_term(src, reg))
        assert not trip.failed and calls == 0, (src[:20], calls)
    reg = streams.registry
    numeral = parse_term("succ (" * 1600 + "zero" + ")" * 1600, reg)
    for target in (subtyping._relate, subtyping._lattice):
        ty, calls = _calls_of(minimal_type, target, reg, {}, numeral)
        assert ty is not None and calls == 0, (target.__name__, calls)


def test_forall_free_typing_renames_nothing(streams):
    # with no size binder in the term, no forall in the context and no
    # machine-named forall in the result, neither `infer` nor `_prettify`
    # walks a type to rename it
    from slam import syntax

    reg = streams.registry
    gamma = {"f": parse_type("Nat -> Nat", reg), "s": parse_type("Strm", reg),
             "g": parse_type("Strm -> Nat", reg)}
    for src, want in [("f (succ (g s))", "Nat"), ("cons (f zero) s", "Strm"),
                      ("\\x : Nat. f (succ x)", "Nat -> Nat"),
                      ("g (cons zero s)", "Nat")]:
        ty, calls = _calls_of(minimal_type, syntax.subst_type_sizes,
                              reg, gamma, parse_term(src, reg))
        assert print_type(ty) == want and calls == 0, (src, calls)
